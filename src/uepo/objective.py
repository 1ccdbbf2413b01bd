"""Sequence-level ensemble objective.

Each sub-policy i is scored by J_i = E[log p_i(a|s)] plus alpha times a
log-ratio penalty against the per-example best sub-policy,
E[log p_i - max_j log p_j], over examples of a (d_s,) anchor state s
and a (T, d_a) action sequence a. Sequence log-likelihoods are
approximated by the product of reverse-transition Gaussian densities
along one fixed noising path per example, shared across sub-policies so
the comparison is paired; a batch is scored as one stack per step.

A positive alpha rewards whichever sub-policy already dominates each
example and penalizes the rest, concentrating mass rather than spreading
it; the sign is left to the caller to experiment with.

It is degenerate for the pipeline's one-denoiser seed ensembles: the seed
does not enter log p_i, so all log-probs are equal and the penalty is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffusion
from .errors import ConfigError, EmptyBatchError, ShapeError


@dataclass(frozen=True)
class ObjectiveConfig:
    """Penalty weight plus the frozen per-example noising paths."""

    alpha: float
    path_noise: np.ndarray | None = None

    def __post_init__(self):
        if not np.isfinite(self.alpha):
            raise ConfigError(f"alpha must be finite, got {self.alpha}")


def draw_path_noise(k: int, T: int, d_a: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Standard-normal increments for n forward noising paths, (n, k, T, d_a)."""
    if min(k, T, d_a, n) < 1:
        raise ConfigError(f"all dims must be >= 1, got k={k} T={T} d_a={d_a} n={n}")
    return rng.standard_normal((n, k, T, d_a))


def noising_path(a: np.ndarray, path_noise: np.ndarray, sched: diffusion.NoiseSchedule) -> np.ndarray:
    """Forward chain x_0 = a, x_{j+1} = sqrt(alpha[j]) x_j + sqrt(beta[j]) eps_j.

    Returns all k+1 nodes stacked; node j is marginally the level-(j-1)
    noising of a, matching q_sample's indexing.
    """
    a = np.asarray(a, dtype=float)
    path_noise = np.asarray(path_noise, dtype=float)
    if path_noise.shape != (sched.k,) + a.shape:
        raise ShapeError(f"path noise shape {path_noise.shape} != {(sched.k,) + a.shape}")
    nodes = np.empty((sched.k + 1,) + a.shape)
    nodes[0] = a
    for j in range(sched.k):
        nodes[j + 1] = np.sqrt(sched.alpha[j]) * nodes[j] + np.sqrt(sched.beta[j]) * path_noise[j]
    return nodes


def seq_log_prob(policy: diffusion.DiffusionPolicy, anchors: np.ndarray, a: np.ndarray,
                 path_noise: np.ndarray) -> np.ndarray:
    """log of the product of reverse Markov transition densities along one path,
    for each of a (B, T, d_a) stack of sequences at its (B, d_s) anchors.

    Sequence b is noised forward under its (k, T, d_a) increments
    ``path_noise[b]``; each reverse transition from node t+1 down to node
    t is scored as a Gaussian with the policy's posterior mean and
    variance beta[t], one :func:`diffusion.reverse_mean` call per step for
    the whole stack. The t = 0 transition targets the clean sequence
    itself. Returns the (B,) log-probabilities.
    """
    a = np.asarray(a, dtype=float)
    sched = policy.schedule
    # step-major (k, B, T, d_a) increments noise the whole stack at once
    nodes = noising_path(a, np.moveaxis(np.asarray(path_noise, dtype=float), 0, 1), sched)
    dims = policy.T * policy.d_a
    total = np.zeros(len(a))
    for t in range(sched.k - 1, -1, -1):
        mean = diffusion.reverse_mean(policy, nodes[t + 1], anchors, t)
        resid = nodes[t] - mean
        var = sched.beta[t]
        total += (-0.5 * dims * np.log(2.0 * np.pi * var)
                  - np.sum(resid * resid, axis=(1, 2)) / (2.0 * var))
    return total


def objective_from_log_probs(logps: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Assemble J from an (n, B) log-probability table.

    Returns (J, penalties) where penalties[i, b] = logps[i, b] - max_j
    logps[j, b], always <= 0 and exactly 0 for each example's argmax.
    """
    logps = np.asarray(logps, dtype=float)
    if logps.ndim != 2 or logps.shape[0] < 1 or logps.shape[1] < 1:
        raise EmptyBatchError(f"need a non-empty (n, B) table, got {logps.shape}")
    penalties = logps - logps.max(axis=0, keepdims=True)
    return logps.mean(axis=1) + alpha * penalties.mean(axis=1), penalties


def ensemble_objective(policies, anchors: np.ndarray, actions: np.ndarray,
                       cfg: ObjectiveConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-sub-policy objectives over a (s, a) batch.

    anchors is (B, d_s) and actions (B, T, d_a); cfg.path_noise must
    hold one (k, T, d_a) path per example, shared across sub-policies.
    Each sub-policy scores the whole batch in one :func:`seq_log_prob`
    call. Returns (J, logps) with logps the (n, B) table; feed it back
    through objective_from_log_probs to inspect the penalty matrix.
    """
    policies = list(policies)
    if len(policies) < 1:
        raise ConfigError("need at least one sub-policy")
    anchors = np.asarray(anchors, dtype=float)
    if len(anchors) == 0:
        raise EmptyBatchError("need a non-empty batch of anchors")
    ref = policies[0]
    if cfg.path_noise is None:
        raise ConfigError("cfg.path_noise is required; use draw_path_noise")
    noise = np.asarray(cfg.path_noise, dtype=float)
    want = (len(anchors), ref.schedule.k, ref.T, ref.d_a)
    if noise.shape != want:
        raise ShapeError(f"path noise shape {noise.shape} != {want}")
    logps = np.stack([seq_log_prob(pol, anchors, actions, noise) for pol in policies])
    J, _ = objective_from_log_probs(logps, cfg.alpha)
    return J, logps
