"""Dynamics-level divergence between action sequences and adaptive guidance.

Two sequences count as different here only if they *move* differently:
the metric compares first differences (velocity) by L2 distance and
second differences (acceleration) by cosine, so constant offsets between
sequences contribute nothing. When a sequence being sampled is too close
to an already-generated one, a Gaussian perturbation whose strength
shrinks linearly with the measured divergence nudges it elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateHorizonError, ShapeError, require


@dataclass(frozen=True)
class DivergenceConfig:
    """Guidance knobs: threshold ``tau``, strength ``eta``, and how many
    final reverse steps apply the perturbation."""

    tau: float
    eta: float
    guided_steps: int = 10

    def __post_init__(self):
        require("tau", self.tau, "> 0")
        require("eta", self.eta, ">= 0")
        require("guided_steps", self.guided_steps, "> 0")


def div(a_i: np.ndarray, a_j: np.ndarray) -> float:
    """Dynamics divergence between two same-shape (T, d) action sequences.

    Sums ||v_i - v_j||_2 over the T-1 velocity rows and (1 - cos) of the
    acceleration rows over the T-2 defined rows, then divides by T. The
    cosine involving an exactly-zero acceleration vector is taken as 1,
    so that term vanishes. Symmetric, non-negative, and zero on
    identical sequences.
    """
    a_i, a_j = _sequence_stack([a_i, a_j])
    return float(_div_rows(a_i, a_j))


def _sequence_stack(seqs) -> np.ndarray:
    # the (n, T, d) stack of same-shape sequences that div accepts
    seqs = [np.asarray(s, dtype=float) for s in seqs]
    if any(s.shape != seqs[0].shape for s in seqs):
        raise ShapeError(f"sequence shapes differ: {[s.shape for s in seqs]}")
    if seqs[0].ndim != 2 or seqs[0].shape[0] < 3:
        raise DegenerateHorizonError(f"div needs (T>=3, d) sequences, got {seqs[0].shape}")
    return np.stack(seqs)


def _div_rows(a_i: np.ndarray, a_j: np.ndarray) -> np.ndarray:
    # div over the last two axes of broadcast-compatible (..., T, d) stacks
    horizon = a_i.shape[-2]
    vel_term = np.linalg.norm(np.diff(a_i, axis=-2) - np.diff(a_j, axis=-2), axis=-1).sum(axis=-1)
    acc_i = np.diff(a_i, n=2, axis=-2)
    acc_j = np.diff(a_j, n=2, axis=-2)
    norms_i = np.linalg.norm(acc_i, axis=-1)
    norms_j = np.linalg.norm(acc_j, axis=-1)
    dots = np.einsum("...td,...td->...t", acc_i, acc_j)
    nonzero = (norms_i > 0.0) & (norms_j > 0.0)
    # rounding can put dot/(ni*nj) an ulp off 1 even for equal rows, which
    # would break div(a, a) = 0; equal rows are cosine 1 by definition and
    # the true cosine never leaves [-1, 1]
    cos = np.ones(dots.shape)
    cos[nonzero] = np.clip(dots[nonzero] / (norms_i * norms_j)[nonzero], -1.0, 1.0)
    cos[np.all(acc_i == acc_j, axis=-1)] = 1.0
    return (vel_term + (1.0 - cos).sum(axis=-1)) / horizon


def min_div(a: np.ndarray, predecessors: np.ndarray) -> np.ndarray:
    """Each row's smallest divergence to its own predecessors.

    ``a`` is (B, T, d) and ``predecessors`` (B, P, T, d) with P >= 1;
    entry b is min over j of div(a[b], predecessors[b, j]).
    """
    a = np.asarray(a, dtype=float)
    predecessors = np.asarray(predecessors, dtype=float)
    if a.ndim != 3 or a.shape[1] < 3:
        raise DegenerateHorizonError(f"min_div needs (B, T>=3, d) sequences, got {a.shape}")
    if predecessors.ndim != 4 or predecessors.shape[1] < 1 \
            or predecessors.shape[:1] + predecessors.shape[2:] != a.shape:
        raise ShapeError(f"predecessors {predecessors.shape} do not fit sequences {a.shape}")
    return _div_rows(a[:, None], predecessors).min(axis=1)


def sigma_div(d: float, cfg: DivergenceConfig) -> float:
    """Perturbation strength eta * (tau - d) / tau, gated to 0 once d >= tau."""
    require("d", d, ">= 0")
    if d >= cfg.tau:
        return 0.0
    return cfg.eta * (cfg.tau - d) / cfg.tau


def perturb(a: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add N(0, sigma^2) noise elementwise; sigma = 0 returns the input
    unchanged without consuming any random draws."""
    require("sigma", sigma, ">= 0")
    a = np.asarray(a, dtype=float)
    if sigma == 0.0:
        return a
    return a + sigma * rng.standard_normal(a.shape)


def guide(a: np.ndarray, predecessors: np.ndarray, cfg: DivergenceConfig,
          rngs) -> np.ndarray:
    """One guided step: row b of a (B, T, d) stack gets :func:`perturb`
    from ``rngs[b]`` at ``sigma_div`` of its :func:`min_div` to its own
    (B, P, T, d) predecessors, P >= 1. A row at or past ``cfg.tau`` (or
    eta = 0) comes back unchanged and leaves its generator untouched."""
    d_min = min_div(a, predecessors)
    return np.stack([perturb(row, sigma_div(d, cfg), rng)
                     for row, d, rng in zip(a, d_min, rngs, strict=True)])


def min_pairwise_div(seqs) -> float:
    """Smallest :func:`div` over every unordered pair of ``seqs`` (at least
    two), all pairs from one stacked evaluation."""
    seqs = list(seqs)
    if len(seqs) < 2:
        raise ShapeError("need at least two sequences")
    stack = _sequence_stack(seqs)
    i_idx, j_idx = np.triu_indices(len(seqs), 1)
    return float(_div_rows(stack[i_idx], stack[j_idx]).min())
