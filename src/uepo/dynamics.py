"""Learned diagonal-Gaussian transition model and its training.

The net maps (s, a) to per-dimension mean and raw log-variance of the
next state. Its [s | a] input rows come from one builder, ``_inputs``,
for prediction, the losses and training alike. The log-variance is
clamped to [-10, 2] so predicted variances stay positive and bounded.
Training minimizes the mean negative log-density over real transitions,
optionally pooled with filtered synthetic ones. A training step computes
only the terms of the gradient; the scalar loss is computed where a
caller reads it (:func:`nll`, :func:`pool_nll`). The training curve holds
the full-pool loss at epoch 0, at every ``CURVE_EVERY``-th epoch and at
the last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nets
from .errors import ConfigError, EmptyBatchError, ShapeError, require

LOG_VAR_MIN = -10.0
LOG_VAR_MAX = 2.0
# epochs between two full-pool points of train_joint's curve
CURVE_EVERY = 10


@dataclass
class GaussianDynamics:
    """A net from (s, a) to s' mean and raw log-variance, whose widths state
    the dimensions: ``2 * d_s`` outputs and ``d_s + d_a`` inputs."""

    net: nets.Mlp

    def __post_init__(self):
        if self.net.out_width % 2 or self.d_a <= 0:
            raise ShapeError(f"dynamics net widths ({self.net.in_width} -> {self.net.out_width}) "
                             f"are not (d_s + d_a -> 2 * d_s) for any d_s, d_a > 0")

    @property
    def d_s(self) -> int:
        return self.net.out_width // 2

    @property
    def d_a(self) -> int:
        return self.net.in_width - self.d_s


@dataclass
class TransitionBatch:
    """(s, a, s') triples, used as the training pool unit."""

    s: np.ndarray
    a: np.ndarray
    s_next: np.ndarray

    def __post_init__(self):
        self.s = np.atleast_2d(np.asarray(self.s, dtype=float))
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.s_next = np.atleast_2d(np.asarray(self.s_next, dtype=float))
        if len(self.s) == 0:
            raise EmptyBatchError("transition batch is empty")
        if self.s_next.shape != self.s.shape or len(self.a) != len(self.s):
            raise ShapeError("inconsistent transition array shapes")
        if not (np.isfinite(self.s).all() and np.isfinite(self.a).all()
                and np.isfinite(self.s_next).all()):
            raise ConfigError("transition batch contains non-finite entries")

    def __len__(self) -> int:
        return len(self.s)


def make_dynamics(d_s: int, d_a: int, hidden, rng: np.random.Generator) -> GaussianDynamics:
    return GaussianDynamics(nets.mlp_init([d_s + d_a, *hidden, 2 * d_s], rng))


def _split_output(m: GaussianDynamics, out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean, raw_lv = out[..., : m.d_s], out[..., m.d_s:]
    return mean, np.minimum(np.maximum(raw_lv, LOG_VAR_MIN), LOG_VAR_MAX), raw_lv


def _inputs(m: GaussianDynamics, s, a) -> np.ndarray:
    """The net's [s | a] input rows for (..., d_s) states and (..., d_a)
    actions, as one (N, d_s + d_a) matrix."""
    s = np.asarray(s, dtype=float)
    a = np.asarray(a, dtype=float)
    if s.shape[-1:] != (m.d_s,) or a.shape[-1:] != (m.d_a,) or s.shape[:-1] != a.shape[:-1]:
        raise ShapeError(f"expected dims (..., {m.d_s}), (..., {m.d_a}), got {s.shape}, {a.shape}")
    return np.concatenate([s, a], axis=-1).reshape(-1, m.net.in_width)


def predict(m: GaussianDynamics, s: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of s' at one (s, a) or at each row of (..., d)
    stacks, all rows in one pass of the net; variance = exp(clamped log-var)."""
    out = nets.forward(m.net, _inputs(m, s, a)).reshape(np.shape(s)[:-1] + (-1,))
    mean, log_var, _ = _split_output(m, out)
    return mean, np.exp(log_var)


def _terms(m: GaussianDynamics, out: np.ndarray, s_next: np.ndarray):
    """The Gaussian at the net output ``out`` and its residual at ``s_next``:
    (mean, clamped log-var, var, delta = s_next - mean, raw log-var)."""
    mean, log_var, raw_lv = _split_output(m, out)
    var = np.exp(log_var)
    return mean, log_var, var, s_next - mean, raw_lv


def _mean_nll(terms) -> float:
    """Mean negative log-density of the rows behind ``_terms``' output."""
    _, log_var, var, delta, _ = terms
    return float(np.sum(0.5 * (np.log(2.0 * np.pi) + log_var + delta**2 / var)) / len(delta))


def _grad(m: GaussianDynamics, x: np.ndarray, s_next: np.ndarray,
          ws: nets.Workspace | None = None):
    """Parameter gradient of the mean NLL at inputs ``x``, and the
    ``_terms`` it was built from; the loss itself is not computed."""
    acts = nets.forward_activations(m.net, x, ws)
    terms = mean, _, var, delta, raw_lv = _terms(m, acts[-1], s_next)
    n = len(s_next)
    up_mean = (mean - s_next) / var / n
    active = (raw_lv > LOG_VAR_MIN) & (raw_lv < LOG_VAR_MAX)
    up_lv = 0.5 * (1.0 - delta**2 / var) / n * active
    return nets.backward(m.net, acts, np.concatenate([up_mean, up_lv], axis=1), ws), terms


def nll(m: GaussianDynamics, batch: TransitionBatch) -> tuple[float, np.ndarray]:
    """Mean negative Gaussian log-density of s' plus its parameter gradient.

    Gradient flows through the log-variance clamp only where the raw
    output is strictly inside (-10, 2).
    """
    grad, terms = _grad(m, _inputs(m, batch.s, batch.a), batch.s_next)
    return _mean_nll(terms), grad


def gaussian_kl(p_mean, p_var, q_mean, q_var):
    """Closed-form KL(N(p) || N(q)) for diagonal Gaussians, summed over the
    last axis: one KL per row of (B, d) stacks, a float for one vector each."""
    p_mean = np.asarray(p_mean, dtype=float)
    p_var = np.asarray(p_var, dtype=float)
    q_mean = np.asarray(q_mean, dtype=float)
    q_var = np.asarray(q_var, dtype=float)
    if not (p_mean.shape == p_var.shape == q_mean.shape == q_var.shape):
        raise ShapeError("all four vectors must share one shape")
    if np.any(p_var <= 0) or np.any(q_var <= 0):
        raise ConfigError("variances must be strictly positive")
    ratio = p_var / q_var
    return np.sum(0.5 * (np.log(q_var / p_var) + ratio
                         + (p_mean - q_mean) ** 2 / q_var - 1.0), axis=-1)


def pool_nll(m: GaussianDynamics, pool: TransitionBatch,
             ws: nets.Workspace | None = None) -> float:
    """The loss of :func:`nll` from a forward pass alone."""
    return _mean_nll(_terms(m, nets.forward(m.net, _inputs(m, pool.s, pool.a), ws), pool.s_next))


def train_joint(m: GaussianDynamics, real: TransitionBatch,
                synthetic: TransitionBatch | None, epochs: int,
                rng: np.random.Generator, batch_size: int = 256,
                step_size: float = 1e-3,
                curve: bool = True) -> list[tuple[int, float]] | None:
    """Adam on the pooled NLL in place by :func:`nets.train_epochs`; synthetic None: real only.

    Returns the curve ``[(epoch, pool_nll), ...]``: the full-pool loss
    before training (epoch 0), after every ``CURVE_EVERY``-th epoch and
    after the last one, so ``curve[-1][1] <= curve[0][1]`` states the
    training postcondition. With ``curve=False`` it skips those
    full-pool passes and returns None; the trained parameters are the
    same either way.
    """
    require("epochs", epochs, "> 0")
    pool = real
    if synthetic is not None:
        pool = TransitionBatch(np.concatenate([real.s, synthetic.s]),
                               np.concatenate([real.a, synthetic.a]),
                               np.concatenate([real.s_next, synthetic.s_next]))
    ws = nets.Workspace(m.net)
    run = nets.train_epochs(m.net.params, _inputs(m, pool.s, pool.a), pool.s_next,
                            lambda x, s_next: _grad(m, x, s_next, ws)[0],
                            epochs, batch_size, step_size, rng)
    losses = [(0, pool_nll(m, pool, ws))] if curve else None
    for epoch in run:
        if curve and (epoch % CURVE_EVERY == 0 or epoch == epochs):
            losses.append((epoch, pool_nll(m, pool, ws)))
    return losses


def save_dynamics(m: GaussianDynamics, path: str) -> None:
    nets.save_checkpoint(path, m.net, m.d_s, m.d_a)


def _parse_dynamics(net: nets.Mlp, ints, floats) -> GaussianDynamics:
    # the (d_s, d_a) trailer restates the widths, and must agree with them
    m, (d_s, d_a) = GaussianDynamics(net), ints(2)
    if (d_s, d_a) != (m.d_s, m.d_a):
        raise ConfigError(f"dynamics net widths ({net.in_width} -> {net.out_width}) "
                          f"do not match the stored d_s={d_s}, d_a={d_a}")
    return m


def load_dynamics(path: str) -> GaussianDynamics:
    return nets.load_checkpoint(path, _parse_dynamics)
