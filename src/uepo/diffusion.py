"""State-conditional denoising diffusion over whole action sequences.

A policy here is a distribution over (T, d_a) action matrices
conditioned on one (d_s,) anchor state. Every function takes a (B, d_s)
stack of anchors with a (B, T, d_a) stack of sequences; only
:func:`sample` and :func:`sample_ensemble` also take one anchor alone.
The denoiser's input row is [flattened actions | anchor repeated T times
| time embedding], written by one helper for sampling and training.
Training fits an MLP denoiser to predict the injected noise; sampling
runs the ancestral reverse chain from seeded Gaussian noise, so each
seed deterministically picks out one behavior. An ensemble of
sub-policies is just one trained model sampled under n distinct seeds,
optionally steered apart by the divergence module while the chain runs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import nets
from .divergence import DivergenceConfig, min_div, perturb, sigma_div
from .errors import ConfigError, EmptyBatchError, ShapeError

DEFAULT_K = 50
DEFAULT_BETA_MIN = 1e-4
DEFAULT_BETA_MAX = 0.02
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
    """Linearly interpolated noise rates; alpha_bar comes out strictly decreasing."""
    if k < 1:
        raise ConfigError(f"step count must be >= 1, got {k}")
    if not (0 < beta_min <= beta_max < 1):
        raise ConfigError(f"need 0 < beta_min <= beta_max < 1, got ({beta_min}, {beta_max})")
    return schedule_from_beta(np.linspace(beta_min, beta_max, k))


def schedule_from_beta(beta: np.ndarray) -> NoiseSchedule:
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 1 or beta.size < 1 or np.any(beta <= 0) or np.any(beta >= 1):
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
    action_low: np.ndarray = field(default=None)
    action_high: np.ndarray = field(default=None)
    emb_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.action_low is None:
            self.action_low = -np.ones(self.d_a)
        if self.action_high is None:
            self.action_high = np.ones(self.d_a)
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
                schedule: NoiseSchedule | None = None,
                action_low=None, action_high=None) -> DiffusionPolicy:
    if schedule is None:
        schedule = make_linear_schedule(DEFAULT_K)
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


def prefix_windows(ds, T: int) -> tuple[np.ndarray, np.ndarray]:
    """Start-anchored training examples from a trajectory dataset.

    Each trajectory with at least T transitions contributes one example:
    its initial state as the anchor and its first T actions. Shorter
    trajectories are skipped so every example has a real length-T
    continuation behind it. Returns (anchors (N, d_s), actions (N, T, d_a)).
    """
    # a stride past every trajectory's end leaves each one its t = 0 anchor
    return sliding_windows(ds, T, 1 + max((len(tr) for tr in ds.trajectories), default=0))


def sliding_windows(ds, T: int, stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Examples anchored at every stride-th timestep of every trajectory.

    Anchor t contributes the state s_t and the actions actions[t:t+T], so
    the trained policy stays in-distribution when asked to act from
    mid-trajectory states, not just initial ones. Returns
    (anchors (N, d_s), actions (N, T, d_a)).
    """
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    anchors, actions = [], []
    for tr in ds.trajectories:
        for t in range(0, len(tr) - T + 1, stride):
            anchors.append(tr.states[t])
            actions.append(tr.actions[t:t + T])
    if not anchors:
        raise EmptyBatchError(f"no trajectory has {T}+ transitions")
    return np.stack(anchors), np.stack(actions)


def q_sample(a0: np.ndarray, t: int, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Forward-noise a clean sequence to level t:
    sqrt(alpha_bar[t]) * a0 + sqrt(1 - alpha_bar[t]) * eps."""
    a0 = np.asarray(a0, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if a0.shape != eps.shape:
        raise ShapeError(f"noise shape {eps.shape} != sequence shape {a0.shape}")
    if not 0 <= t < sched.k:
        raise ConfigError(f"step index {t} outside [0, {sched.k})")
    ab = sched.alpha_bar[t]
    return np.sqrt(ab) * a0 + np.sqrt(1.0 - ab) * eps


def predict_eps(policy: DiffusionPolicy, a_t: np.ndarray, anchors: np.ndarray,
                t: int) -> np.ndarray:
    """Denoiser's noise estimate at step t for a (B, T, d_a) stack of noisy
    sequences at their (B, d_s) anchors, in one forward pass."""
    a_t = np.asarray(a_t, dtype=float)
    anchors = _check_anchors(policy, anchors, a_t)
    if not 0 <= t <= policy.schedule.k:
        raise ConfigError(f"step index {t} outside [0, {policy.schedule.k}]")
    x = _denoiser_input(policy, a_t, anchors, policy.emb_table[t])
    return nets.forward(policy.denoiser, x).reshape(a_t.shape)


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
    anchors = _check_anchors(policy, anchors)
    actions = np.asarray(actions, dtype=float)
    if len(anchors) == 0:
        raise EmptyBatchError("no training windows")
    opt = nets.adam_init(nets.param_count(policy.denoiser), step_size=step_size)
    losses = []
    n = len(anchors)
    ws = nets.Workspace(policy.denoiser, min(batch_size, n))
    for _ in range(steps):
        idx = rng.integers(0, n, size=min(batch_size, n))
        loss, grad = denoising_loss(policy, anchors[idx], actions[idx], rng, ws)
        nets.optimizer_step(opt, policy.denoiser.params, grad)
        losses.append(loss)
    return losses


def reverse_mean(policy: DiffusionPolicy, a_t: np.ndarray, anchors: np.ndarray,
                 t: int) -> np.ndarray:
    """Posterior mean of one denoising step for a (B, T, d_a) stack at its
    (B, d_s) anchors:
    (a_t - beta[t]/sqrt(1 - alpha_bar[t]) * eps_pred) / sqrt(alpha[t])."""
    a_t = np.asarray(a_t, dtype=float)
    sched = policy.schedule
    if not 0 <= t < sched.k:
        raise ConfigError(f"step index {t} outside [0, {sched.k})")
    eps_pred = predict_eps(policy, a_t, anchors, t)
    coef = sched.beta[t] / np.sqrt(1.0 - sched.alpha_bar[t])
    return (a_t - coef * eps_pred) / np.sqrt(sched.alpha[t])


def reverse_step(policy: DiffusionPolicy, a_t: np.ndarray, anchors: np.ndarray, t: int,
                 z: np.ndarray | None) -> np.ndarray:
    """One ancestral denoising step: the posterior mean plus
    sqrt(beta[t]) * z for t > 0, where z is a standard-normal draw shaped
    like ``a_t``; the final step t = 0 is noiseless and ignores z."""
    mean = reverse_mean(policy, a_t, anchors, t)
    if t == 0:
        return mean
    if np.shape(z) != mean.shape:
        raise ShapeError(f"step noise shape {np.shape(z)} != sequence shape {mean.shape}")
    return mean + np.sqrt(policy.schedule.beta[t]) * z


# Rows per denoiser GEMM in the samplers. GEMM results depend on the batch
# size at the ULP level, so this is a fixed constant, never derived from the
# core count, the input size or a config key: the same config must give the
# same bytes. It also bounds each chunk's noise buffer to
# SAMPLE_CHUNK * k * T * d_a floats.
SAMPLE_CHUNK = 64


def _seed_rng(seed: int) -> np.random.Generator:
    # map arbitrary python ints (incl. negative) onto the u64 seed space
    return np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)


def _unguided_chain(policy: DiffusionPolicy, anchors: np.ndarray, rngs, t_last: int) -> np.ndarray:
    """Initial draw and reverse steps k-1 down to t_last for every row.

    Rows run in chunks of SAMPLE_CHUNK. Each row's noise is one bulk draw
    from its own generator, which yields the same numbers in the same
    order as drawing them step by step.
    """
    k = policy.schedule.k
    n_draws = 1 + k - max(t_last, 1)
    a = np.empty((len(rngs), policy.T, policy.d_a))
    for lo in range(0, len(rngs), SAMPLE_CHUNK):
        rows = slice(lo, lo + SAMPLE_CHUNK)
        z = np.stack([rng.standard_normal((n_draws, policy.T, policy.d_a))
                      for rng in rngs[rows]])
        a_c = z[:, 0]
        for j, t in enumerate(range(k - 1, t_last - 1, -1), start=1):
            a_c = reverse_step(policy, a_c, anchors[rows], t, z[:, j] if t > 0 else None)
        a[rows] = a_c
    return a


def sample(policy: DiffusionPolicy, s: np.ndarray, seed) -> np.ndarray:
    """Draw action sequences; a pure function of (parameters, s, seed).

    One (d_s,) anchor with one seed gives one (T, d_a) sequence; a
    (B, d_s) stack with one seed per anchor gives a (B, T, d_a) stack.
    Row b is a pure function of (parameters, s[b], seed[b]) and of its
    place in the fixed chunking, so the same inputs give the same bytes.
    It agrees with the same row sampled alone to 1e-12, not bit for bit:
    the denoiser's matrix products round differently at other batch sizes.
    """
    s = np.asarray(s, dtype=float)
    single = s.ndim == 1
    anchors = _check_anchors(policy, s[None] if single else s)
    seeds = [seed] if single else list(seed)
    if len(seeds) != len(anchors):
        raise ShapeError(f"{len(seeds)} seeds for {len(anchors)} anchors")
    a = _unguided_chain(policy, anchors, [_seed_rng(x) for x in seeds], 0)
    a = np.clip(a, policy.action_low, policy.action_high)
    return a[0] if single else a


@dataclass(frozen=True)
class EnsembleSpec:
    """n sub-policy seeds plus the divergence-guidance configuration
    (None disables guidance entirely)."""

    seeds: tuple[int, ...]
    divergence_config: DivergenceConfig | None = None

    def __post_init__(self):
        if len(self.seeds) < 1:
            raise ConfigError("ensemble needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"ensemble seeds must be pairwise distinct: {self.seeds}")

    @property
    def n(self) -> int:
        return len(self.seeds)


def derive_seed(base_seed: int, i: int) -> int:
    """Stable per-sub-policy seed from one base seed."""
    ss = np.random.SeedSequence((int(base_seed) & 0xFFFFFFFFFFFFFFFF, i))
    return int(ss.generate_state(1, np.uint64)[0])


def make_ensemble_spec(n: int, base_seed: int,
                       divergence_config: DivergenceConfig | None = None) -> EnsembleSpec:
    if n < 1:
        raise ConfigError(f"ensemble size must be >= 1, got {n}")
    return EnsembleSpec(tuple(derive_seed(base_seed, i) for i in range(n)),
                        divergence_config)


def sample_ensemble(policy: DiffusionPolicy, s: np.ndarray, spec: EnsembleSpec):
    """Generate the n sub-policy sequences in seed order.

    ``s`` is one (d_s,) anchor, which returns a list of n (T, d_a)
    sequences, or a (N, d_s) stack, which returns an (N, n, T, d_a)
    array. Every (anchor, member) row keeps its own generator, seeded as
    in :func:`sample`. Sub-policy i > 0 runs that seeded reverse chain,
    except that during the last ``guided_steps`` steps its current
    estimate is perturbed away from the finished sequences of sub-policies
    j < i for the same anchor. The unguided steps run batched over all
    rows; the guided steps run member by member, batched over anchors.
    Guidance that never fires (eta = 0, or all divergences at or above
    tau) consumes no random draws, so those outputs agree with
    :func:`sample` to 1e-12. With guided_steps >= k, member i's whole
    chain is sample(policy, anchors, [seed_i] * N), bit for bit.
    The same inputs give the same bytes.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim == 1:
        return list(sample_ensemble(policy, s[None], spec)[0])
    anchors = _check_anchors(policy, s)
    n_states, n = len(anchors), spec.n
    cfg = spec.divergence_config
    g = 0 if cfg is None else min(cfg.guided_steps, policy.schedule.k)
    # rows are anchor-major: row w * n + i is member i at anchor w
    rngs = [_seed_rng(seed) for _ in range(n_states) for seed in spec.seeds]
    a = _unguided_chain(policy, np.repeat(anchors, n, axis=0), rngs, g)
    a = a.reshape(n_states, n, policy.T, policy.d_a)
    for i in range(n):
        member_rngs = rngs[i::n]
        a_i = a[:, i]
        for t in range(g - 1, -1, -1):
            if i > 0:
                d_min = min_div(a_i, a[:, :i])
                a_i = np.stack([perturb(row, sigma_div(d, cfg), rng)
                                for row, d, rng in zip(a_i, d_min, member_rngs)])
            z = None
            if t > 0:
                z = np.stack([rng.standard_normal((policy.T, policy.d_a)) for rng in member_rngs])
            for lo in range(0, n_states, SAMPLE_CHUNK):
                rows = slice(lo, lo + SAMPLE_CHUNK)
                a_i[rows] = reverse_step(policy, a_i[rows], anchors[rows], t,
                                         None if z is None else z[rows])
        a[:, i] = np.clip(a_i, policy.action_low, policy.action_high)
    return a


# --- checkpoint i/o ---------------------------------------------------------


def save_policy(policy: DiffusionPolicy, path: str) -> None:
    """Core MLP block followed by the schedule (k, beta) and (T, d_a, d_s)."""
    buf = nets.file_header() + nets.mlp_block_bytes(policy.denoiser)
    buf += struct.pack("<I", policy.schedule.k)
    buf += policy.schedule.beta.astype("<f8").tobytes()
    buf += struct.pack("<III", policy.T, policy.d_a, policy.d_s)
    nets.atomic_write_bytes(path, buf)


def load_policy(path: str, action_low=None, action_high=None) -> DiffusionPolicy:
    """Rebuild a policy; the action box is not persisted and defaults to +-1."""
    net, offset, buf = nets.read_checkpoint(path)
    (k,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    beta = np.frombuffer(buf, dtype="<f8", count=k, offset=offset).astype(float)
    offset += 8 * k
    T, d_a, d_s = struct.unpack_from("<III", buf, offset)
    offset += 12
    if offset != len(buf):
        raise ConfigError(f"{path}: {len(buf) - offset} trailing bytes")
    return DiffusionPolicy(net, schedule_from_beta(beta), T, d_a, d_s, action_low, action_high)
