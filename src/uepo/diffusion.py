"""State-conditional denoising diffusion over whole action sequences.

A policy here is a distribution over (T, d_a) action matrices
conditioned on one (d_s,) anchor state. Only the anchor is known at
generation time, so the denoiser sees it tiled T times into a (T, d_s)
window; callers pass anchors, and the tiling happens here alone. The
low-level denoiser functions (``predict_eps``, ``reverse_mean``,
``reverse_step``, ``denoising_loss``) take the tiled windows. Training
fits an MLP denoiser to predict the injected noise; sampling runs the
ancestral reverse chain from seeded Gaussian noise, so each seed
deterministically picks out one behavior. An ensemble of sub-policies is
just one trained model sampled under n distinct seeds, optionally
steered apart by the divergence module while the chain runs.
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

    The denoiser maps [flattened noisy actions | flattened state window |
    time embedding] to the predicted noise, where the window is the
    anchor state tiled T times, so its input width must be
    T*d_a + T*d_s + EMB_DIM and its output width T*d_a. Sampled actions
    are clipped to [action_low, action_high] after the final step.
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


def _check_seq(policy: DiffusionPolicy, a: np.ndarray, s: np.ndarray):
    """One (T, d_a) sequence with its (T, d_s) window, or a (B, T, d_a)
    stack with a (B, T, d_s) stack of windows."""
    if a.ndim not in (2, 3) or a.shape[-2:] != (policy.T, policy.d_a):
        raise ShapeError(f"action sequence shape {a.shape} does not end in "
                         f"{(policy.T, policy.d_a)}")
    if s.shape != a.shape[:-1] + (policy.d_s,):
        raise ShapeError(f"state window shape {s.shape} does not match sequence shape "
                         f"{a.shape} with d_s = {policy.d_s}")


def _check_anchors(policy: DiffusionPolicy, anchors) -> np.ndarray:
    anchors = np.asarray(anchors, dtype=float)
    if anchors.ndim != 2 or anchors.shape[1] != policy.d_s:
        raise ShapeError(f"anchor stack shape {anchors.shape} != (B, {policy.d_s})")
    return anchors


def _tile(policy: DiffusionPolicy, anchors: np.ndarray) -> np.ndarray:
    # the denoiser's (B, T, d_s) window block: each anchor repeated T times
    return np.broadcast_to(anchors[:, None, :], (len(anchors), policy.T, policy.d_s))


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


def predict_eps(policy: DiffusionPolicy, a_t: np.ndarray, s: np.ndarray, t: int) -> np.ndarray:
    """Denoiser's noise estimate at step t, shaped like ``a_t``: one noisy
    sequence with its window, or a (B, T, d_a) stack in one forward pass."""
    a_t = np.asarray(a_t, dtype=float)
    s = np.asarray(s, dtype=float)
    _check_seq(policy, a_t, s)
    if not 0 <= t <= policy.schedule.k:
        raise ConfigError(f"step index {t} outside [0, {policy.schedule.k}]")
    n_a, n_s = policy.T * policy.d_a, policy.T * policy.d_s
    x = np.empty((a_t.size // n_a, policy.denoiser.in_width))
    x[:, :n_a] = a_t.reshape(-1, n_a)
    x[:, n_a:n_a + n_s] = s.reshape(-1, n_s)
    x[:, n_a + n_s:] = policy.emb_table[t]
    return nets.forward(policy.denoiser, x).reshape(a_t.shape)


def denoising_loss(policy: DiffusionPolicy, states: np.ndarray, actions: np.ndarray,
                   rng: np.random.Generator,
                   ws: nets.Workspace | None = None) -> tuple[float, np.ndarray]:
    """Noise-prediction MSE on a batch plus its parameter gradient.

    ``states`` is (B, T, d_s) and ``actions`` (B, T, d_a). For each
    example one step index is drawn uniformly and one noise matrix is
    injected (indices first, then noise, so runs reproduce); the loss
    averages squared prediction error over batch and elements. The
    gradient is ``ws.grad`` when a workspace is given.
    """
    states = np.asarray(states, dtype=float)
    actions = np.asarray(actions, dtype=float)
    if states.ndim != 3 or states.shape[0] == 0:
        raise EmptyBatchError(f"need a non-empty (B, T, d_s) state batch, got {states.shape}")
    batch = states.shape[0]
    if actions.shape != (batch, policy.T, policy.d_a) or states.shape[1:] != (policy.T, policy.d_s):
        raise ShapeError(
            f"batch shapes {states.shape}, {actions.shape} do not match policy dims"
        )
    t_idx = rng.integers(0, policy.schedule.k, size=batch)
    eps = rng.standard_normal(actions.shape)
    ab = policy.schedule.alpha_bar[t_idx][:, None, None]
    noisy = np.sqrt(ab) * actions + np.sqrt(1.0 - ab) * eps

    x = np.concatenate(
        [noisy.reshape(batch, -1), states.reshape(batch, -1), policy.emb_table[t_idx]], axis=1
    )
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
    (N, T, d_a) action sequences; returns the per-step losses. Each
    minibatch's anchors are tiled into windows for :func:`denoising_loss`."""
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
        loss, grad = denoising_loss(policy, _tile(policy, anchors[idx]), actions[idx], rng, ws)
        nets.optimizer_step(opt, policy.denoiser.params, grad)
        losses.append(loss)
    return losses


def reverse_mean(policy: DiffusionPolicy, a_t: np.ndarray, s: np.ndarray, t: int) -> np.ndarray:
    """Posterior mean of one denoising step, for one sequence or a stack:
    (a_t - beta[t]/sqrt(1 - alpha_bar[t]) * eps_pred) / sqrt(alpha[t])."""
    a_t = np.asarray(a_t, dtype=float)
    sched = policy.schedule
    if not 0 <= t < sched.k:
        raise ConfigError(f"step index {t} outside [0, {sched.k})")
    eps_pred = predict_eps(policy, a_t, s, t)
    coef = sched.beta[t] / np.sqrt(1.0 - sched.alpha_bar[t])
    return (a_t - coef * eps_pred) / np.sqrt(sched.alpha[t])


def reverse_step(policy: DiffusionPolicy, a_t: np.ndarray, s: np.ndarray, t: int,
                 z: np.ndarray | None) -> np.ndarray:
    """One ancestral denoising step: the posterior mean plus
    sqrt(beta[t]) * z for t > 0, where z is a standard-normal draw shaped
    like ``a_t``; the final step t = 0 is noiseless and ignores z."""
    mean = reverse_mean(policy, a_t, s, t)
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

    Rows run in chunks of SAMPLE_CHUNK, each chunk's anchors tiled once.
    Each row's noise is one bulk draw from its own generator, which
    yields the same numbers in the same order as drawing them step by step.
    """
    k = policy.schedule.k
    n_draws = 1 + k - max(t_last, 1)
    a = np.empty((len(rngs), policy.T, policy.d_a))
    for lo in range(0, len(rngs), SAMPLE_CHUNK):
        rows = slice(lo, lo + SAMPLE_CHUNK)
        windows = _tile(policy, anchors[rows])
        z = np.stack([rng.standard_normal((n_draws, policy.T, policy.d_a))
                      for rng in rngs[rows]])
        a_c = z[:, 0]
        for j, t in enumerate(range(k - 1, t_last - 1, -1), start=1):
            a_c = reverse_step(policy, a_c, windows, t, z[:, j] if t > 0 else None)
        a[rows] = a_c
    return a


def sample_batch(policy: DiffusionPolicy, anchors: np.ndarray, seeds) -> np.ndarray:
    """Draw one action sequence per (anchor, seed) row: (B, d_s) -> (B, T, d_a).

    Row b is a pure function of (parameters, anchors[b], seeds[b]) and of
    its place in the fixed chunking, so the same inputs give the same bytes. It agrees
    with the same row sampled alone (B = 1) to 1e-12, not bit for bit:
    the denoiser's matrix products round differently at other batch sizes.
    """
    anchors = _check_anchors(policy, anchors)
    seeds = list(seeds)
    if len(seeds) != len(anchors):
        raise ShapeError(f"{len(seeds)} seeds for {len(anchors)} anchors")
    a = _unguided_chain(policy, anchors, [_seed_rng(seed) for seed in seeds], 0)
    return np.clip(a, policy.action_low, policy.action_high)


def sample(policy: DiffusionPolicy, s: np.ndarray, seed) -> np.ndarray:
    """Draw action sequences; a pure function of (parameters, s, seed).

    One (d_s,) anchor with one seed gives one (T, d_a) sequence: a B = 1
    call to :func:`sample_batch`, so it agrees with the same row of a
    larger batch to 1e-12. A (B, d_s) stack with one seed per anchor is
    passed to :func:`sample_batch` as is: augmentation, selection and
    distillation sample through this form.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim == 1:
        return sample_batch(policy, s[None], [seed])[0]
    return sample_batch(policy, s, seed)


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
    chain is sample_batch(policy, anchors, [seed_i] * N), bit for bit.
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
    windows = _tile(policy, anchors)
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
                a_i[rows] = reverse_step(policy, a_i[rows], windows[rows], t,
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
