"""State-conditional denoising diffusion over whole action sequences.

A policy here is a distribution over (T, d_a) action matrices
conditioned on one (d_s,) anchor state. Every function takes a (B, d_s)
stack of anchors with a (B, T, d_a) stack of sequences; a stack of one
is the one-anchor form. The denoiser's input row is [flattened actions
| anchor repeated T times | time embedding], written by one helper for
sampling and training.
Training fits an MLP denoiser to predict the injected noise; sampling
runs the ancestral chain of :func:`reverse_step` from seeded Gaussian
noise, so each seed deterministically picks out one behavior. An
ensemble is one trained model sampled under the seeds of
:func:`member_seeds` and steered apart while the chain runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nets
from .divergence import DivergenceConfig, guide
from .errors import ConfigError, EmptyBatchError, ShapeError, require

DEFAULT_K = 50
DEFAULT_BETA_MIN = 1e-4
# over DEFAULT_K steps this leaves alpha_bar = 0.0046 at the last step, so the
# reverse chain's N(0, I) start matches where the forward process ends
DEFAULT_BETA_MAX = 0.2
EMB_DIM = 16  # width of the denoiser's time embedding


@dataclass(frozen=True)
class NoiseSchedule:
    """Forward-process coefficients: per-step beta, alpha = 1 - beta and
    the cumulative product alpha_bar."""

    k: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray


def make_linear_schedule(k: int, beta_min: float = DEFAULT_BETA_MIN,
                         beta_max: float = DEFAULT_BETA_MAX) -> NoiseSchedule:
    """k noise rates spaced linearly from beta_min to beta_max; alpha_bar
    comes out strictly decreasing."""
    require("k", k, "> 0")
    if not 0 < beta_min < beta_max:
        raise ConfigError(f"beta_min must lie in (0, beta_max = {beta_max}), got {beta_min}")
    if not beta_max < 1:
        raise ConfigError(f"beta_max must be < 1, got {beta_max}")
    return schedule_from_beta(np.linspace(beta_min, beta_max, k))


def schedule_from_beta(beta: np.ndarray) -> NoiseSchedule:
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 1 or beta.size < 1 or not np.all((beta > 0) & (beta < 1)):
        raise ConfigError("beta must be a vector with entries in (0, 1)")
    alpha = 1.0 - beta
    return NoiseSchedule(beta.size, beta, alpha, np.cumprod(alpha))


@dataclass
class DiffusionPolicy:
    """Denoiser MLP plus schedule and sequence dimensions.

    The denoiser maps [flattened noisy actions | anchor state repeated T
    times | time embedding] to the predicted noise, so its input width
    must be T*d_a + T*d_s + EMB_DIM and its output width T*d_a. Sampled
    actions are clipped to [action_low, action_high] after the final step.
    """

    denoiser: nets.Mlp
    schedule: NoiseSchedule
    T: int
    d_a: int
    d_s: int
    action_low: np.ndarray
    action_high: np.ndarray
    emb_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.action_low = np.broadcast_to(np.asarray(self.action_low, float), (self.d_a,)).copy()
        self.action_high = np.broadcast_to(np.asarray(self.action_high, float), (self.d_a,)).copy()
        want_in = self.T * self.d_a + self.T * self.d_s + EMB_DIM
        if self.denoiser.in_width != want_in or self.denoiser.out_width != self.T * self.d_a:
            raise ShapeError(
                f"denoiser widths ({self.denoiser.in_width} -> {self.denoiser.out_width}) "
                f"do not match T={self.T}, d_a={self.d_a}, d_s={self.d_s}, "
                f"EMB_DIM={EMB_DIM}"
            )
        self.emb_table = np.stack([nets.time_embedding(t, self.schedule.k, EMB_DIM)
                                   for t in range(self.schedule.k + 1)])


def make_policy(T: int, d_a: int, d_s: int, hidden, rng: np.random.Generator,
                schedule: NoiseSchedule, action_low, action_high) -> DiffusionPolicy:
    """A policy over (T, d_a) sequences at (d_s,) anchors under ``schedule``,
    its denoiser's ``hidden`` widths initialised from ``rng``, its samples
    clipped to the action box [action_low, action_high]."""
    widths = [T * d_a + T * d_s + EMB_DIM, *hidden, T * d_a]
    net = nets.mlp_init(widths, rng)
    return DiffusionPolicy(net, schedule, T, d_a, d_s, action_low, action_high)


def _check_anchors(policy: DiffusionPolicy, anchors, a: np.ndarray | None = None) -> np.ndarray:
    """A (B, d_s) anchor stack, with its (B, T, d_a) sequence stack when given."""
    anchors = np.asarray(anchors, dtype=float)
    if anchors.ndim != 2 or anchors.shape[1] != policy.d_s:
        raise ShapeError(f"anchor stack shape {anchors.shape} != (B, {policy.d_s})")
    if a is not None and a.shape != (len(anchors), policy.T, policy.d_a):
        raise ShapeError(f"sequence stack shape {a.shape} != "
                         f"{(len(anchors), policy.T, policy.d_a)} for {len(anchors)} anchors")
    return anchors


def _denoiser_input(policy: DiffusionPolicy, a: np.ndarray, anchors: np.ndarray,
                    emb: np.ndarray) -> np.ndarray:
    """The denoiser's (B, in_width) rows: [flattened actions | anchor repeated
    T times | time embedding]. ``emb`` is one embedding for every row or one
    per row. The anchors are broadcast straight into the rows, so no tiled
    copy of them is made."""
    batch, n_a = len(a), policy.T * policy.d_a
    x = np.empty((batch, policy.denoiser.in_width))
    x[:, :n_a] = a.reshape(batch, n_a)
    # splitting the contiguous column block into (T, d_s) is a view of x
    x[:, n_a:-EMB_DIM].reshape(batch, policy.T, policy.d_s)[:] = anchors[:, None, :]
    x[:, -EMB_DIM:] = emb
    return x


def sliding_windows(ds, T: int, stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Examples anchored at every stride-th timestep of every trajectory.

    Anchor t contributes the state s_t and the actions actions[t:t+T], so
    the trained policy stays in-distribution when asked to act from
    mid-trajectory states, not just initial ones. Returns
    (anchors (N, d_s), actions (N, T, d_a)).
    """
    require("stride", stride, "> 0")
    anchors, actions = [], []
    for tr in ds.trajectories:
        for t in range(0, len(tr) - T + 1, stride):
            anchors.append(tr.states[t])
            actions.append(tr.actions[t:t + T])
    if not anchors:
        raise EmptyBatchError(f"no trajectory has {T}+ transitions")
    return np.stack(anchors), np.stack(actions)


def denoising_loss(policy: DiffusionPolicy, anchors: np.ndarray, actions: np.ndarray,
                   rng: np.random.Generator,
                   ws: nets.Workspace | None = None) -> tuple[float, np.ndarray]:
    """Noise-prediction MSE on a batch plus its parameter gradient.

    ``anchors`` is (B, d_s) and ``actions`` (B, T, d_a). For each
    example one step index is drawn uniformly and one noise matrix is
    injected (indices first, then noise, so runs reproduce); the loss
    averages squared prediction error over batch and elements. The
    gradient is ``ws.grad`` when a workspace is given.
    """
    actions = np.asarray(actions, dtype=float)
    anchors = _check_anchors(policy, anchors, actions)
    batch = len(anchors)
    if batch == 0:
        raise EmptyBatchError("need a non-empty batch of anchors")
    t_idx = rng.integers(0, policy.schedule.k, size=batch)
    eps = rng.standard_normal(actions.shape)
    ab = policy.schedule.alpha_bar[t_idx][:, None, None]
    noisy = np.sqrt(ab) * actions + np.sqrt(1.0 - ab) * eps
    x = _denoiser_input(policy, noisy, anchors, policy.emb_table[t_idx])
    acts = nets.forward_activations(policy.denoiser, x, ws)
    resid = acts[-1] - eps.reshape(batch, -1)
    n_elem = batch * policy.T * policy.d_a
    loss = float(np.sum(resid**2) / n_elem)
    grad = nets.backward(policy.denoiser, acts, 2.0 * resid / n_elem, ws)
    return loss, grad


def train_denoiser(policy: DiffusionPolicy, anchors: np.ndarray, actions: np.ndarray,
                   steps: int, batch_size: int, step_size: float,
                   rng: np.random.Generator) -> list[float]:
    """Minibatch Adam on the denoising loss over (N, d_s) anchors and their
    (N, T, d_a) action sequences; returns the per-step losses."""
    require("steps", steps, "> 0")
    require("batch_size", batch_size, "> 0")
    actions = np.asarray(actions, dtype=float)
    anchors = _check_anchors(policy, anchors, actions)
    if len(anchors) == 0:
        raise EmptyBatchError("no training windows")
    opt = nets.adam_init(policy.denoiser.params.size, step_size=step_size)
    losses = []
    n = len(anchors)
    ws = nets.Workspace(policy.denoiser)
    for _ in range(steps):
        idx = rng.integers(0, n, size=min(batch_size, n))
        loss, grad = denoising_loss(policy, anchors[idx], actions[idx], rng, ws)
        nets.optimizer_step(opt, policy.denoiser.params, grad)
        losses.append(loss)
    return losses


def reverse_step(policy: DiffusionPolicy, a_t: np.ndarray, anchors: np.ndarray, t: int,
                 z: np.ndarray | None) -> np.ndarray:
    """One ancestral denoising step for a (B, T, d_a) stack at its (B, d_s)
    anchors. One denoiser pass gives the noise estimate eps at step t; the
    step returns the posterior mean
    (a_t - beta[t]/sqrt(1 - alpha_bar[t]) * eps) / sqrt(alpha[t]),
    plus sqrt(beta[t]) * z for t > 0, where z is a standard-normal draw
    shaped like ``a_t``. The final step t = 0 is noiseless and ignores z."""
    a_t = np.asarray(a_t, dtype=float)
    anchors = _check_anchors(policy, anchors, a_t)
    sched = policy.schedule
    if not 0 <= t < sched.k:
        raise ConfigError(f"step index {t} outside [0, {sched.k})")
    if t > 0 and np.shape(z) != a_t.shape:
        raise ShapeError(f"step noise shape {np.shape(z)} != sequence shape {a_t.shape}")
    x = _denoiser_input(policy, a_t, anchors, policy.emb_table[t])
    eps_pred = nets.forward(policy.denoiser, x).reshape(a_t.shape)
    coef = sched.beta[t] / np.sqrt(1.0 - sched.alpha_bar[t])
    mean = (a_t - coef * eps_pred) / np.sqrt(sched.alpha[t])
    if t == 0:
        return mean
    return mean + np.sqrt(sched.beta[t]) * z


# Rows per denoiser GEMM in the samplers. GEMM results depend on the batch
# size at the ULP level, so this is a fixed constant, never derived from the
# core count, the input size or a config key: the same config must give the
# same bytes. It also bounds each chunk's noise buffer to
# SAMPLE_CHUNK * k * T * d_a floats.
SAMPLE_CHUNK = 64


def _seed_rng(seed: int) -> np.random.Generator:
    # map arbitrary python ints (incl. negative) onto the u64 seed space
    return np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)


def _chain(policy: DiffusionPolicy, anchors: np.ndarray, rngs, predecessors=None,
           cfg: DivergenceConfig | None = None) -> np.ndarray:
    """The seeded ancestral chain of every row, clipped to the action box.

    Row b draws its start and step noise from ``rngs[b]``. Rows run in
    chunks of SAMPLE_CHUNK. With (B, P, T, d_a) ``predecessors``, each of
    the last min(cfg.guided_steps, k) steps first moves the chunk with
    :func:`divergence.guide`, then draws that step's noise row by row;
    the earlier steps take theirs from one bulk draw per row, which
    yields the same numbers in the same order as drawing them step by
    step.
    """
    k, shape = policy.schedule.k, (policy.T, policy.d_a)
    g = 0 if predecessors is None else min(cfg.guided_steps, k)
    out = np.empty((len(rngs), *shape))
    for lo in range(0, len(rngs), SAMPLE_CHUNK):
        rows = slice(lo, lo + SAMPLE_CHUNK)
        chunk = rngs[rows]
        # the start and the noise of the unguided steps t > 0
        z = np.stack([rng.standard_normal((1 + k - max(g, 1), *shape)) for rng in chunk])
        a = z[:, 0]
        for t in range(k - 1, -1, -1):
            if t < g:
                a = guide(a, predecessors[rows], cfg, chunk)
                z_t = np.stack([rng.standard_normal(shape) for rng in chunk]) if t > 0 else None
            else:
                z_t = z[:, k - t] if t > 0 else None
            a = reverse_step(policy, a, anchors[rows], t, z_t)
        out[rows] = a
    return np.clip(out, policy.action_low, policy.action_high)


def sample(policy: DiffusionPolicy, s: np.ndarray, seed) -> np.ndarray:
    """Draw a (B, T, d_a) stack of action sequences for a (B, d_s) stack of
    anchors with one seed per anchor.

    Row b is a pure function of (parameters, s[b], seed[b]) and of its
    place in the fixed chunking, so the same inputs give the same bytes.
    It agrees with the same row sampled in a stack of one to 1e-12, not
    bit for bit: the denoiser's matrix products round differently at
    other batch sizes.
    """
    anchors = _check_anchors(policy, s)
    seeds = list(seed)
    if len(seeds) != len(anchors):
        raise ShapeError(f"{len(seeds)} seeds for {len(anchors)} anchors")
    return _chain(policy, anchors, [_seed_rng(x) for x in seeds])


def derive_seed(base_seed: int, i: int) -> int:
    """Stable per-sub-policy seed from one base seed."""
    ss = np.random.SeedSequence((int(base_seed) & 0xFFFFFFFFFFFFFFFF, i))
    return int(ss.generate_state(1, np.uint64)[0])


def member_seeds(n: int, base_seed: int) -> tuple[int, ...]:
    """The seeds of an n-member ensemble, member i's from (base_seed, i)."""
    require("n", n, "> 0")
    return tuple(derive_seed(base_seed, i) for i in range(n))


def sample_ensemble(policy: DiffusionPolicy, s: np.ndarray, seeds,
                    cfg: DivergenceConfig) -> np.ndarray:
    """Generate the sequences of the sub-policy ``seeds``, in seed order, for
    each of an (N, d_s) stack of anchors, as an (N, n, T, d_a) array.

    Member i runs the chain of sample(policy, anchors, [seeds[i]] * N),
    except that during its last ``cfg.guided_steps`` steps each estimate
    is guided away from the finished sequences of members j < i at the
    same anchor, with one :func:`divergence.guide` call per step and
    chunk. Guidance that never fires (eta = 0, or every divergence at or
    above tau) consumes no draws, so member i is then that sample bit
    for bit. The same inputs give the same bytes.
    """
    anchors = _check_anchors(policy, s)
    a = np.empty((len(anchors), len(seeds), policy.T, policy.d_a))
    for i, seed in enumerate(seeds):
        rngs = [_seed_rng(seed) for _ in anchors]
        a[:, i] = _chain(policy, anchors, rngs, a[:, :i] if i else None, cfg)
    return a


# --- checkpoint i/o ---------------------------------------------------------


def save_policy(policy: DiffusionPolicy, path: str) -> None:
    """The denoiser followed by the schedule (k, beta) and (T, d_a, d_s)."""
    nets.save_checkpoint(path, policy.denoiser, policy.schedule.k, policy.schedule.beta,
                         policy.T, policy.d_a, policy.d_s)


def load_policy(path: str, action_low, action_high) -> DiffusionPolicy:
    """Rebuild a policy whose samples are clipped to the given action box,
    which the checkpoint does not store."""
    def parse(net, ints, floats):
        schedule = schedule_from_beta(floats(*ints(1)))
        return DiffusionPolicy(net, schedule, *ints(3), action_low, action_high)
    return nets.load_checkpoint(path, parse)
