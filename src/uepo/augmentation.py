"""Virtual trajectory generation with KL filtering.

The loop: draw a start state from the real dataset's initial-state
pool, roll the diffusion policy out open-loop in the real environment,
score the trajectory by the mean per-transition KL between the true
transition law and the initial dynamics model, and keep it only when
that score is strictly below epsilon. Accepted trajectories accumulate
until the synthetic pool holds ratio times the real transition count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffusion, dynamics, envs
from .datasets import Trajectory, TrajectoryDataset, initial_states, n_transitions
from .diffusion import DiffusionPolicy, sample
from .errors import ConfigError, EmptyBatchError, ShapeError, StarvationError, require

DEFAULT_EPSILON = 0.15
DEFAULT_RATIO = 2.0
MAX_RATIO = 3.0


@dataclass(frozen=True)
class FilterConfig:
    epsilon: float = DEFAULT_EPSILON
    ratio: float = DEFAULT_RATIO
    max_attempts: int | None = None

    def __post_init__(self):
        require("epsilon", self.epsilon, "> 0")
        if not 2.0 <= self.ratio <= MAX_RATIO:
            raise ConfigError(f"ratio must lie in [2, 3], got {self.ratio}")
        if self.max_attempts is not None:
            require("max_attempts", self.max_attempts, "> 0")


@dataclass
class AugmentReport:
    n_attempts: int
    n_accepted: int
    kl_values: list[float]
    achieved_transitions: int
    target_transitions: int
    epsilon: float
    ratio: float

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_attempts if self.n_attempts else 0.0

    @property
    def achieved_ratio(self) -> float:
        return self.achieved_transitions * self.ratio / self.target_transitions


def _attempt_seeds(seed: int, env, horizon: int) -> tuple[int, np.ndarray]:
    # one recorded seed -> (sampler seed, (horizon, d_s) transition draws)
    # from independent streams; one bulk draw gives the numbers that
    # drawing step by step would
    samp_c, env_c = np.random.SeedSequence(int(seed) & 0xFFFFFFFFFFFFFFFF).spawn(2)
    z = np.random.default_rng(env_c).standard_normal((horizon, env.d_s))
    return int(samp_c.generate_state(1, np.uint64)[0]), z


def rollout_virtual(env, policy: DiffusionPolicy, s0: np.ndarray, seed):
    """Open-loop policy rollouts in the real environment from a (B, d_s)
    stack of starts with one seed each, their plans sampled in one batch
    and stepped in lockstep; returns ``envs.rollout``'s stacks.

    Each rollout's action sequence and environment noise run on
    independent streams spawned from its recorded seed, so a trajectory
    is a pure function of (policy parameters, start, seed) and of its
    place in the sampler's chunking.
    """
    starts = np.asarray(s0, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != env.d_s:
        raise ShapeError(f"start stack shape {starts.shape} != (B, {env.d_s})")
    streams = [_attempt_seeds(sd, env, policy.T) for sd in seed]
    plans = sample(policy, starts, [samp for samp, _ in streams])
    return envs.rollout_open_loop(env, starts, plans, np.stack([z for _, z in streams]))


def _model_dist(model, s: np.ndarray, a: np.ndarray):
    # duck-typed so tests can score (T, d) stacks against hand-built laws
    if hasattr(model, "predict"):
        return model.predict(s, a)
    return dynamics.predict(model, s, a)


def trajectory_kl(env, model, states: np.ndarray, actions: np.ndarray):
    """Mean per-transition KL(true law of ``env`` || model) of each row of
    (..., T, d) state and action stacks, with one call to each law for
    the whole stack: one score per row, one for a (T, d) trajectory.

    The mean (rather than the sum) keeps the score comparable across
    horizons, so one epsilon works for any rollout length.
    """
    if np.shape(states)[-2] == 0:
        raise EmptyBatchError("trajectory has no transitions")
    true_mean, true_var = envs.true_dist(env, states, actions)
    pred_mean, pred_var = _model_dist(model, states, actions)
    return np.mean(dynamics.gaussian_kl(true_mean, true_var, pred_mean, pred_var), axis=-1)


def filter_trajectory(score: float, cfg: FilterConfig) -> bool:
    """Accept iff score < epsilon, strictly."""
    require("score", score, ">= 0")
    return score < cfg.epsilon


def default_max_attempts(cfg: FilterConfig, n_real: int, rollout_len: int) -> int:
    return int(np.ceil(50.0 * cfg.ratio * n_real / max(1, rollout_len)))


def build_augmented(env, policy: DiffusionPolicy, model_init, real: TrajectoryDataset,
                    cfg: FilterConfig, rng: np.random.Generator
                    ) -> tuple[TrajectoryDataset, AugmentReport]:
    """Assemble the synthetic dataset at cfg.ratio times the real size.

    Whole trajectories are added while the transition count is below the
    target, so the final count overshoots by less than one rollout; a
    hard cap at 3x the real size truncates the last trajectory in the
    ratio = 3 corner. Raises a starvation error when every attempt is
    rejected.

    Each attempt draws a start state and a seed from ``rng``, and
    :func:`rollout_virtual` of that seed is its rollout. Up to
    ``diffusion.SAMPLE_CHUNK`` attempts are rolled out in one stacked
    :func:`rollout_virtual` call and scored in one :func:`trajectory_kl`
    call; the rollouts are then admitted in order, each admitted one
    becoming a ``Trajectory``, and the attempts drawn past the one
    that fills the target are discarded uncounted. So ``rng`` may be
    drawn from more often than the report's ``attempts``. The same
    inputs give the same bytes, and the scores agree with
    attempt-by-attempt sampling to 1e-12.
    """
    pool = initial_states(real)
    if len(pool) == 0:
        raise EmptyBatchError("real dataset has no trajectories")
    n_real = n_transitions(real)
    target = int(np.ceil(cfg.ratio * n_real))
    cap = int(MAX_RATIO * n_real)
    max_attempts = cfg.max_attempts
    if max_attempts is None:
        max_attempts = default_max_attempts(cfg, n_real, policy.T)

    accepted: list[Trajectory] = []
    kl_values: list[float] = []
    count = 0
    attempts = 0
    while count < target and attempts < max_attempts:
        starts, seeds = [], []
        for _ in range(min(diffusion.SAMPLE_CHUNK, max_attempts - attempts)):
            starts.append(pool[int(rng.integers(0, len(pool)))])
            seeds.append(int(rng.integers(0, 2**63)))
        states, actions, nexts, rewards, _ = rollout_virtual(env, policy, np.stack(starts), seeds)
        for i, score in enumerate(trajectory_kl(env, model_init, states, actions).tolist()):
            attempts += 1
            kl_values.append(score)
            if not filter_trajectory(score, cfg):
                continue
            # count < target <= cap here, so at least one transition is kept
            keep = min(policy.T, cap - count)
            accepted.append(Trajectory(states[i, :keep], actions[i, :keep], nexts[i, :keep],
                                       rewards[i, :keep], seed=seeds[i]))
            count += keep
            if count >= target:
                break

    if not accepted:
        raise StarvationError(
            f"no trajectory passed the KL filter in {attempts} attempts "
            f"(epsilon={cfg.epsilon}, min score={min(kl_values):.4f})" if kl_values
            else "no rollout attempts were possible",
            kl_values,
        )
    meta = dict(real.meta)
    meta.update({"source": "synthetic", "filter_epsilon": cfg.epsilon,
                 "filter_ratio": cfg.ratio, "horizon": policy.T})
    report = AugmentReport(attempts, len(accepted), kl_values, count, target,
                           cfg.epsilon, cfg.ratio)
    return TrajectoryDataset(accepted, meta), report


def report_items(report: AugmentReport) -> list[tuple[str, object]]:
    """The report as (key, value) pairs, in a stable order."""
    return [
        ("attempts", report.n_attempts),
        ("accepted", report.n_accepted),
        ("acceptance_rate", report.acceptance_rate),
        ("achieved_transitions", report.achieved_transitions),
        ("target_transitions", report.target_transitions),
        ("achieved_ratio", report.achieved_ratio),
        ("epsilon", report.epsilon),
        ("ratio", report.ratio),
    ]


def kl_histogram(kl_values, n_bins: int = 20) -> list[tuple[float, float, int]]:
    """(bin_low, bin_high, count) rows over the observed score range."""
    if not kl_values:
        return []
    vals = np.asarray(kl_values, dtype=float)
    lo, hi = float(vals.min()), float(vals.max())
    if hi <= lo:
        hi = lo + 1e-12
    counts, edges = np.histogram(vals, bins=n_bins, range=(lo, hi))
    return [(float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(n_bins)]
