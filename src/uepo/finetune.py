"""Selection, distillation and online fine-tuning.

The sequence-level diffusion policy cannot be fine-tuned with likelihood
ratios directly, so the online phase runs on a step-level squashed
Gaussian head: pick the best sub-policy by model-based return, regress
the head's mean onto that sub-policy's first-step actions, then improve
it in the real environment with clipped policy-gradient updates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import diffusion, dynamics, envs, nets
from .errors import (ConfigError, DistillationQualityWarning, EmptyBatchError,
                     NonFiniteError, ShapeError, TrainingDivergenceError, require)

LOG_STD_MIN = -5.0
LOG_STD_MAX = 1.0
LOG_STD_INIT = -1.0


@dataclass
class GaussianPolicy:
    """Squashed diagonal-Gaussian policy head.

    The net maps a state to a pre-squash mean; actions are
    center + half * tanh(u) with u drawn from N(mean, exp(log_std)^2),
    which keeps every action inside the box while the log-density stays
    exact (tanh change of variables).
    """

    net: nets.Mlp
    log_std: np.ndarray
    action_low: np.ndarray
    action_high: np.ndarray

    def __post_init__(self):
        self.log_std = np.asarray(self.log_std, dtype=float)
        self.action_low = np.asarray(self.action_low, dtype=float)
        self.action_high = np.asarray(self.action_high, dtype=float)
        d_a = self.net.layer_widths[-1]
        if self.log_std.shape != (d_a,):
            raise ShapeError(f"log_std shape {self.log_std.shape} != ({d_a},)")
        if self.action_low.shape != (d_a,) or self.action_high.shape != (d_a,):
            raise ShapeError("action bounds must match the net's output width")
        if np.any(self.action_high <= self.action_low):
            raise ConfigError("action_high must exceed action_low componentwise")

    @property
    def d_s(self) -> int:
        return self.net.layer_widths[0]

    @property
    def d_a(self) -> int:
        return self.net.layer_widths[-1]

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.action_low + self.action_high)

    @property
    def half(self) -> np.ndarray:
        return 0.5 * (self.action_high - self.action_low)


def make_head(d_s: int, d_a: int, hidden, rng: np.random.Generator,
              action_low, action_high) -> GaussianPolicy:
    """A fresh head with every log-std at LOG_STD_INIT, for scalar or (d_a,) box bounds."""
    box = [np.asarray(bound, dtype=float) for bound in (action_low, action_high)]
    if any(bound.shape not in ((), (1,), (d_a,)) for bound in box):
        raise ShapeError(f"action box of shapes {box[0].shape}, {box[1].shape} for d_a = {d_a}")
    net = nets.mlp_init([d_s, *hidden, d_a], rng)
    low, high = (np.broadcast_to(bound, (d_a,)).copy() for bound in box)
    return GaussianPolicy(net, np.full(d_a, LOG_STD_INIT), low, high)


def clamp_log_std(head: GaussianPolicy) -> None:
    np.clip(head.log_std, LOG_STD_MIN, LOG_STD_MAX, out=head.log_std)


def sample_action(head: GaussianPolicy, s: np.ndarray,
                  z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The action at one state, or at each row of a (B, d_s) stack, from
    its standard-normal draw z (the shape of the action); returns
    (action, pre-squash u).

    Callers that later need likelihood ratios must keep u: recovering it
    from the action via atanh is ill-conditioned near the box edge.
    """
    m = nets.forward(head.net, np.asarray(s, dtype=float))
    if np.shape(z) != m.shape:
        raise ShapeError(f"draw shape {np.shape(z)} != action shape {m.shape}")
    u = m + np.exp(head.log_std) * z
    return head.center + head.half * np.tanh(u), u


def _u_log_prob(head: GaussianPolicy, states: np.ndarray, us: np.ndarray, m=None) -> np.ndarray:
    # Gaussian part only. The tanh correction depends on u alone, so it
    # cancels in every new/old likelihood ratio evaluated at stored u.
    # m is the net's output at states, when the caller has it already.
    if m is None:
        m = nets.forward(head.net, states)
    std = np.exp(head.log_std)
    z = (us - m) / std
    return -0.5 * np.sum(z * z + 2.0 * head.log_std + np.log(2.0 * np.pi), axis=-1)


def best_index(scores) -> int:
    """Argmax with the documented tie-break: first (lowest-index) maximum."""
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise EmptyBatchError("no scores to select from")
    return int(np.argmax(scores))


def select_policy(policy: diffusion.DiffusionPolicy, seeds: tuple[int, ...], model,
                  env, n_rollouts: int, initial_states: np.ndarray,
                  rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Pick the sub-policy with the best mean model-based return.

    Sub-policy i is the deterministic map
    s -> sample(policy, [s], [seeds[i]])[0], so its plan for a given start
    state never varies; rollouts differ only through the start-state
    draw and one model-noise stream shared by every sub-policy (common
    random numbers). Every rollout's start state and noise are drawn
    first, in rollout order; then all rollouts x sub-policies plans come
    from one :func:`diffusion.sample` call on the stack of start states
    and step through the model together in one :func:`envs.rollout_open_loop`,
    scored by ``env``'s reward. The same inputs give the same bytes, and
    the scores agree with plans sampled and stepped one at a time to
    1e-12. Returns (argmax index, per-sub-policy mean returns).
    """
    initial_states = np.asarray(initial_states, dtype=float)
    if initial_states.ndim != 2 or initial_states.shape[0] == 0:
        raise EmptyBatchError("need a non-empty pool of start states")
    require("n_rollouts", n_rollouts, "> 0")
    n = len(seeds)
    starts, noises = [], []
    for _ in range(n_rollouts):
        starts.append(initial_states[rng.integers(len(initial_states))])
        noises.append(rng.standard_normal((policy.T, policy.d_s)))
    # row r * n + i is sub-policy i in rollout r
    s = np.repeat(np.stack(starts), n, axis=0)
    noise = np.repeat(np.stack(noises), n, axis=0)
    plans = diffusion.sample(policy, s, list(seeds) * n_rollouts)

    def model_law(s, a, z):
        mean, var = dynamics.predict(model, s, a)
        return mean + np.sqrt(var) * z
    *_, totals = envs.rollout_open_loop(env, s, plans, noise, model_law)
    scores = np.sum(totals.reshape(n_rollouts, n) / n_rollouts, axis=0)
    return best_index(scores), scores


DISTILL_MSE_TARGET = 0.02


def distill(policy: diffusion.DiffusionPolicy, seed: int, states: np.ndarray,
            rng: np.random.Generator, **settings) -> tuple[GaussianPolicy, float]:
    """Fit a Gaussian head onto one sub-policy's first-step actions by
    :func:`fit_head`, which takes the keyword ``settings``.

    The sub-policy is the deterministic fixed-seed sampler, so every pool state
    gets the target sample(policy, [s], [seed])[0, 0]; the shared seed keeps
    targets mode-consistent at ambiguous states. All targets come from one
    :func:`diffusion.sample` call on the pool, and agree with one-at-a-time
    samples to 1e-12."""
    targets = diffusion.sample(policy, states, [seed] * len(states))[:, 0]
    return fit_head(states, targets, policy.action_low, policy.action_high, rng, **settings)


def fit_head(states: np.ndarray, targets: np.ndarray, action_low, action_high, rng,
             hidden=(64, 64), epochs: int = 400, batch_size: int = 64, step_size: float = 1e-3,
             mse_target: float = DISTILL_MSE_TARGET) -> tuple[GaussianPolicy, float]:
    """A new head whose squashed mean is regressed onto (N, d_a) targets at (N, d_s)
    states by :func:`nets.train_epochs` on the squared error; :func:`make_head` draws
    from ``rng`` first, then the epochs' shuffles. Stops after the first epoch whose
    full-pool MSE is under mse_target; otherwise warns with the achieved value."""
    states, targets = np.asarray(states, dtype=float), np.asarray(targets, dtype=float)
    if states.ndim != 2 or states.shape[0] == 0:
        raise EmptyBatchError(f"need a non-empty (N, d_s) state pool, got {states.shape}")
    if targets.ndim != 2 or len(targets) != len(states):
        raise ShapeError(f"targets of shape {targets.shape} for {len(states)} states; "
                         f"need (N, d_a)")
    head = make_head(states.shape[1], targets.shape[1], hidden, rng, action_low, action_high)
    ws = nets.Workspace(head.net)

    def grad(x, y):
        acts = nets.forward_activations(head.net, x, ws)
        squashed = np.tanh(acts[-1])
        err = head.center + head.half * squashed - y
        upstream = 2.0 * err * head.half * (1.0 - squashed ** 2) / err.size
        return nets.backward(head.net, acts, upstream, ws)
    for _ in nets.train_epochs(head.net.params, states, targets, grad, epochs, batch_size,
                               step_size, rng):
        full = head.center + head.half * np.tanh(nets.forward(head.net, states, ws))
        mse = float(np.mean((full - targets) ** 2))
        if mse < mse_target:
            break
    if mse >= mse_target:
        warnings.warn(f"distillation stopped at MSE {mse:.4f} (target {mse_target})",
                      DistillationQualityWarning)
    return head, mse


RATIO_GUARD = 1.5


@dataclass
class PpoConfig:
    clip_ratio: float = 0.2
    discount: float = 0.99
    gae_lambda: float = 0.95
    epochs_per_batch: int = 10
    batch_episodes: int = 16
    step_size: float = 3e-4
    value_step_size: float = 1e-3

    def __post_init__(self):
        if not 0 < self.clip_ratio < 1:
            raise ConfigError(f"clip_ratio must lie in (0, 1), got {self.clip_ratio}")
        if not 0 < self.discount <= 1:
            raise ConfigError(f"discount must lie in (0, 1], got {self.discount}")
        for name in ("epochs_per_batch", "batch_episodes"):
            require(name, getattr(self, name), "> 0")


def gae(rewards: np.ndarray, values: np.ndarray, discount: float,
        lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates for one episode of H rewards, or
    for each row of a (..., H) stack, in one backward sweep over t.

    values has one more entry than rewards along the last axis (the
    bootstrap; pass 0 at a true terminal). Also returns the
    value-regression targets A + V.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    if rewards.ndim == 0 or values.shape != rewards.shape[:-1] + (rewards.shape[-1] + 1,):
        raise ShapeError(f"need values of shape (..., H + 1) for rewards (..., H), "
                         f"got {values.shape} for {rewards.shape}")
    deltas = rewards + discount * values[..., 1:] - values[..., :-1]
    adv = np.empty_like(deltas)
    acc = np.zeros(deltas.shape[:-1])
    for t in range(deltas.shape[-1] - 1, -1, -1):
        acc = deltas[..., t] + discount * lam * acc
        adv[..., t] = acc
    return adv, adv + values[..., :-1]


def ppo_surrogate(head: GaussianPolicy, states: np.ndarray, us: np.ndarray,
                  logp_old: np.ndarray, advantages: np.ndarray,
                  clip_ratio: float, acts=None,
                  ws: nets.Workspace | None = None) -> tuple[float, np.ndarray, np.ndarray]:
    """Clipped-surrogate loss and its gradients.

    Loss is -mean(min(r*A, clip(r, 1-c, 1+c)*A)) with r the new/old
    likelihood ratio at the stored pre-squash draws. Returns
    (loss, net gradient flat, log_std gradient); samples sitting in the
    clipped branch contribute nothing to either gradient. ``acts`` is
    the head's :func:`nets.forward_activations` at ``states``, when the
    caller has it already; the net gradient is ``ws.grad`` when a
    workspace is given.
    """
    states = np.asarray(states, dtype=float)
    us = np.asarray(us, dtype=float)
    logp_old = np.asarray(logp_old, dtype=float)
    advantages = np.asarray(advantages, dtype=float)
    n = states.shape[0]
    if n == 0:
        raise EmptyBatchError("empty surrogate batch")
    if acts is None:
        acts = nets.forward_activations(head.net, states, ws)
    m = acts[-1]
    ratio = np.exp(_u_log_prob(head, states, us, m) - logp_old)
    clipped = np.clip(ratio, 1.0 - clip_ratio, 1.0 + clip_ratio)
    surr1 = ratio * advantages
    surr2 = clipped * advantages
    loss = -float(np.mean(np.minimum(surr1, surr2)))
    # d loss / d logp flows only where the unclipped branch is active
    active = surr1 <= surr2
    dlogp = np.where(active, -ratio * advantages / n, 0.0)
    std = np.exp(head.log_std)
    dm = (us - m) / (std * std)
    net_grads = nets.backward(head.net, acts, dlogp[:, None] * dm, ws)
    logstd_grads = np.sum(dlogp[:, None] * ((us - m) ** 2 / (std * std) - 1.0), axis=0)
    return loss, net_grads, logstd_grads


def collect_episodes(head: GaussianPolicy, env, n_episodes: int,
                     rng: np.random.Generator):
    """Roll stochastic episodes in the real environment, all in lockstep
    in one :func:`envs.rollout`, with one head forward pass per step.

    One bulk draw gives row e episode e's draws in the order a one-episode
    loop would take them: its reset, then each step's action draw and
    transition draw. So the episodes and the generator's final state are
    those of stepping the episodes one after another.

    Returns (states, us, rewards) stacked per episode plus the episode
    returns; every array keeps episode-major order, H rows per episode.
    """
    require("n_episodes", n_episodes, "> 0")
    horizon, d_s, d_a = env.horizon, env.d_s, env.d_a
    draws = rng.standard_normal((n_episodes, envs.RESET_DRAWS + horizon * (d_a + d_s)))
    step_draws = draws[:, envs.RESET_DRAWS:].reshape(n_episodes, horizon, d_a + d_s)
    us = np.empty((n_episodes, horizon, d_a))

    def act(t, s):
        a, us[:, t] = sample_action(head, s, step_draws[:, t, :d_a])
        return a
    states, _, _, rewards, ep_returns = envs.rollout(
        env, envs.reset(env, draws[:, :envs.RESET_DRAWS]), act, step_draws[:, :, d_a:])
    return (states.reshape(-1, d_s), us.reshape(-1, d_a), rewards.reshape(-1), ep_returns)


def _snapshot(head: GaussianPolicy, value_net: nets.Mlp):
    return (head.net.params.copy(), head.log_std.copy(), value_net.params.copy())


def _restore(head: GaussianPolicy, value_net: nets.Mlp, snap) -> None:
    head.net.params[:] = snap[0]
    head.log_std[:] = snap[1]
    value_net.params[:] = snap[2]


def ppo_finetune(head: GaussianPolicy, env, cfg: PpoConfig, iterations: int,
                 rng: np.random.Generator) -> tuple[GaussianPolicy, list[tuple[float, float]]]:
    """Clipped policy-gradient fine-tuning in the real environment.

    Per iteration: collect cfg.batch_episodes episodes, fit advantages
    with GAE, then run up to cfg.epochs_per_batch full-batch updates.
    An epoch whose update pushes any likelihood ratio past
    1 +- RATIO_GUARD*clip_ratio is rolled back and the epoch loop stops,
    so one batch can never move the policy much past the clip region.
    A non-finite loss restores the pre-iteration parameters and raises;
    the returned curve holds (mean, std) of each iteration's returns.
    """
    require("iterations", iterations, "> 0")
    value_net = nets.mlp_init([head.d_s, 64, 64, 1], rng)
    opt_net = nets.adam_init(head.net.params.size, step_size=cfg.step_size)
    opt_std = nets.adam_init(head.d_a, step_size=cfg.step_size)
    opt_val = nets.adam_init(value_net.params.size, step_size=cfg.value_step_size)
    curve: list[tuple[float, float]] = []
    bound = RATIO_GUARD * cfg.clip_ratio
    ws, v_ws = nets.Workspace(head.net), nets.Workspace(value_net)
    for _ in range(iterations):
        stable = _snapshot(head, value_net)
        states, us, rewards, ep_returns = collect_episodes(head, env, cfg.batch_episodes, rng)
        curve.append((float(ep_returns.mean()), float(ep_returns.std())))
        # the head's activations at its current parameters; the surrogate
        # reuses them until an update moves the parameters
        acts = nets.forward_activations(head.net, states, ws)
        logp_old = _u_log_prob(head, states, us, acts[-1])
        # one row per episode, bootstrapped with 0 at its end
        values = nets.forward(value_net, states, v_ws)[:, 0].reshape(-1, env.horizon)
        advantages, value_targets = gae(rewards.reshape(values.shape),
                                        np.pad(values, ((0, 0), (0, 1))),
                                        cfg.discount, cfg.gae_lambda)
        advantages, value_targets = advantages.ravel(), value_targets.ravel()
        advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        try:
            for _ in range(cfg.epochs_per_batch):
                pre = _snapshot(head, value_net)
                loss, g_net, g_std = ppo_surrogate(head, states, us, logp_old,
                                                   advantages, cfg.clip_ratio, acts, ws)
                if not np.isfinite(loss):
                    raise NonFiniteError(f"surrogate loss {loss}")
                nets.optimizer_step(opt_net, head.net.params, g_net)
                nets.optimizer_step(opt_std, head.log_std, g_std)
                clamp_log_std(head)
                v_acts = nets.forward_activations(value_net, states, v_ws)
                v = v_acts[-1][:, 0]
                v_up = (2.0 * (v - value_targets) / v.size)[:, None]
                nets.optimizer_step(opt_val, value_net.params,
                                    nets.backward(value_net, v_acts, v_up, v_ws))
                acts = nets.forward_activations(head.net, states, ws)
                ratio = np.exp(_u_log_prob(head, states, us, acts[-1]) - logp_old)
                if np.max(np.abs(ratio - 1.0)) > bound:
                    _restore(head, value_net, pre)
                    break
        except NonFiniteError as exc:
            _restore(head, value_net, stable)
            raise TrainingDivergenceError(
                f"fine-tuning diverged; parameters rolled back ({exc})") from exc
    return head, curve


def save_head(path: str, head: GaussianPolicy) -> None:
    nets.save_checkpoint(path, head.net, head.d_a, head.log_std, head.action_low,
                         head.action_high)


def load_head(path: str) -> GaussianPolicy:
    def parse(net, ints, floats):
        (d_a,) = ints(1)
        if d_a != net.out_width:
            raise ConfigError(f"stored d_a {d_a} != net output {net.out_width}")
        return GaussianPolicy(net, floats(d_a), floats(d_a), floats(d_a))
    return nets.load_checkpoint(path, parse)
