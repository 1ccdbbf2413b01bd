"""Learned diagonal-Gaussian transition model and its training.

The net maps (s, a) to per-dimension mean and raw log-variance of the
next state; log-variance is clamped to [-10, 2] so predicted variances
stay positive and bounded. Training minimizes the mean negative
log-density over real transitions, optionally pooled with filtered
synthetic ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nets
from .errors import ConfigError, EmptyBatchError, ShapeError

LOG_VAR_MIN = -10.0
LOG_VAR_MAX = 2.0


@dataclass
class GaussianDynamics:
    net: nets.Mlp
    d_s: int
    d_a: int

    def __post_init__(self):
        if self.net.in_width != self.d_s + self.d_a or self.net.out_width != 2 * self.d_s:
            raise ShapeError(
                f"dynamics net widths ({self.net.in_width} -> {self.net.out_width}) "
                f"do not match d_s={self.d_s}, d_a={self.d_a}"
            )


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
    net = nets.mlp_init([d_s + d_a, *hidden, 2 * d_s], rng)
    return GaussianDynamics(net, d_s, d_a)


def _split_output(m: GaussianDynamics, out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean, raw_lv = out[..., : m.d_s], out[..., m.d_s:]
    return mean, np.minimum(np.maximum(raw_lv, LOG_VAR_MIN), LOG_VAR_MAX), raw_lv


def predict(m: GaussianDynamics, s: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of s' at one (s, a) or at each row of (B, d)
    stacks; variance = exp(clamped log-var)."""
    s = np.asarray(s, dtype=float)
    a = np.asarray(a, dtype=float)
    if s.shape[-1:] != (m.d_s,) or a.shape[-1:] != (m.d_a,) or s.shape[:-1] != a.shape[:-1]:
        raise ShapeError(f"expected dims (..., {m.d_s}), (..., {m.d_a}), got {s.shape}, {a.shape}")
    mean, log_var, _ = _split_output(m, nets.forward(m.net, np.concatenate([s, a], axis=-1)))
    return mean, np.exp(log_var)


def _inputs(m: GaussianDynamics, batch: TransitionBatch) -> np.ndarray:
    if batch.s.shape[1] != m.d_s or batch.a.shape[1] != m.d_a:
        raise ShapeError("batch dims do not match the model")
    return np.concatenate([batch.s, batch.a], axis=1)


def _mean_nll(m: GaussianDynamics, out: np.ndarray, s_next: np.ndarray):
    """Mean NLL of ``s_next`` under the net output ``out``, with the terms
    its gradient needs: (loss, mean, var, delta, raw log-var)."""
    mean, log_var, raw_lv = _split_output(m, out)
    var = np.exp(log_var)
    delta = s_next - mean
    loss = float(np.sum(0.5 * (np.log(2.0 * np.pi) + log_var + delta**2 / var)) / len(s_next))
    return loss, mean, var, delta, raw_lv


def _nll_and_grad(m: GaussianDynamics, x: np.ndarray, s_next: np.ndarray,
                  ws: nets.Workspace | None = None) -> tuple[float, np.ndarray]:
    acts = nets.forward_activations(m.net, x, ws)
    loss, mean, var, delta, raw_lv = _mean_nll(m, acts[-1], s_next)
    n = len(s_next)
    up_mean = (mean - s_next) / var / n
    active = (raw_lv > LOG_VAR_MIN) & (raw_lv < LOG_VAR_MAX)
    up_lv = 0.5 * (1.0 - delta**2 / var) / n * active
    return loss, nets.backward(m.net, acts, np.concatenate([up_mean, up_lv], axis=1), ws)


def nll(m: GaussianDynamics, batch: TransitionBatch) -> tuple[float, np.ndarray]:
    """Mean negative Gaussian log-density of s' plus its parameter gradient.

    Gradient flows through the log-variance clamp only where the raw
    output is strictly inside (-10, 2).
    """
    return _nll_and_grad(m, _inputs(m, batch), batch.s_next)


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
    return _mean_nll(m, nets.forward(m.net, _inputs(m, pool), ws), pool.s_next)[0]


def train_joint(m: GaussianDynamics, real: TransitionBatch,
                synthetic: TransitionBatch | None, epochs: int,
                rng: np.random.Generator, batch_size: int = 128,
                step_size: float = 1e-3, curve: bool = True) -> list[float] | None:
    """Adam on the pooled NLL, in place; synthetic None or empty means
    real-only. Returns the full-pool loss before training and after every
    epoch, so curve[-1] <= curve[0] states the training postcondition.
    With ``curve=False`` it skips those full-pool passes and returns None;
    the trained parameters are the same either way.
    """
    if epochs < 1:
        raise ConfigError("epochs must be positive")
    pool = real
    if synthetic is not None:
        pool = TransitionBatch(np.concatenate([real.s, synthetic.s]),
                               np.concatenate([real.a, synthetic.a]),
                               np.concatenate([real.s_next, synthetic.s_next]))
    n = len(pool)
    # the pool is validated once; minibatches index its arrays directly
    x = _inputs(m, pool)
    opt = nets.adam_init(nets.param_count(m.net), step_size=step_size)
    ws = nets.Workspace(m.net, n if curve else min(batch_size, n))
    losses = [pool_nll(m, pool, ws)] if curve else None
    for _ in range(epochs):
        order = rng.permutation(n)
        for lo in range(0, n, batch_size):
            idx = order[lo: lo + batch_size]
            _, grad = _nll_and_grad(m, x[idx], pool.s_next[idx], ws)
            nets.optimizer_step(opt, m.net.params, grad)
        if curve:
            losses.append(pool_nll(m, pool, ws))
    return losses


def save_dynamics(m: GaussianDynamics, path: str) -> None:
    nets.save_checkpoint(path, m.net, m.d_s, m.d_a)


def load_dynamics(path: str) -> GaussianDynamics:
    return nets.load_checkpoint(path, lambda net, ints, floats: GaussianDynamics(net, *ints(2)))
