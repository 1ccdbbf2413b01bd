"""Micro-environments with analytically known Gaussian transition laws.

Both environments are a deterministic closed-form update plus isotropic
Gaussian noise of scale sigma_env, so the true transition distribution
is available exactly (`true_dist`). That is what makes the trajectory
filter's KL a closed-form quantity instead of an estimate.

Offline data comes from scripted controllers with two behavior modes
per environment (two goals, or two swing directions), giving labeled
multimodal demonstrations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import Trajectory, TrajectoryDataset
from .errors import ConfigError, ShapeError, require

ACTION_NOISE = 0.05
RESET_DRAWS = 2  # standard normals one reset takes, in either environment


class _GaussianLaw:
    def __post_init__(self):
        # true_dist's variance is sigma_env^2, and the KL filter divides by it
        require("sigma_env", self.sigma_env, "> 0")
        # every episode and dataset record needs at least one step
        require("horizon", self.horizon, "> 0")


def _row_norm(d: np.ndarray):
    # row norms through a matmul row dot product, which rounds like the 1-D
    # np.linalg.norm; the axis=-1 form differs in the last bit
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


@dataclass
class PointMass2D(_GaussianLaw):
    """Damped double integrator on the plane.

    State (x, y, vx, vy), action (ax, ay) in [-1, 1]^2. One step:

        v' = (1 - damping) * v + dt * a
        p' = p + dt * v          (the pre-update velocity)

    plus N(0, sigma_env^2 I) on all four dims. Two goals g_plus = (1, 1)
    and g_minus = (1, -1); reward is minus the distance of the next
    position to the nearer goal. Episodes reset near the origin at rest.
    Only sigma_env and horizon are settable; dt = 0.1, damping = 0.05,
    the goals and reset_scale = 0.05 are class constants.
    """

    sigma_env: float = 0.01
    horizon: int = 40

    dt = 0.1
    damping = 0.05
    goal_plus = np.array([1.0, 1.0])
    goal_minus = np.array([1.0, -1.0])
    reset_scale = 0.05
    name = "point_mass"
    d_s = 4
    d_a = 2
    action_low = np.array([-1.0, -1.0])
    action_high = np.array([1.0, 1.0])

    def _mean(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        p, v = s[..., :2], s[..., 2:]
        v_next = (1.0 - self.damping) * v + self.dt * a
        return np.concatenate([p + self.dt * v, v_next], axis=-1)

    def _reward(self, s, a, s_next):
        p = s_next[..., :2]
        return -np.minimum(_row_norm(p - self.goal_plus), _row_norm(p - self.goal_minus))

    def _reset(self, z: np.ndarray) -> np.ndarray:
        p = self.reset_scale * z
        return np.concatenate([p, np.zeros_like(p)], axis=-1)

    def _scripted(self, s: np.ndarray, mode: np.ndarray) -> np.ndarray:
        # proportional navigation with velocity damping toward the mode's goal
        goal = np.where(mode[..., None] == 0, self.goal_plus, self.goal_minus)
        return 4.0 * (goal - s[..., :2]) - 3.5 * s[..., 2:]


def wrap_angle(x):
    """Map angles onto (-pi, pi], with pi itself kept (not sent to -pi)."""
    return np.pi - np.mod(np.pi - x, 2.0 * np.pi)


@dataclass
class Pendulum1(_GaussianLaw):
    """Torque-limited gravity pendulum, angle measured from upright.

    State (theta, theta_dot) with theta wrapped to (-pi, pi]; torque in
    [-2, 2]. Forward-Euler with m = l = 1, g = 9.8, dt = 0.05:

        theta_dot' = theta_dot + dt * (g * sin(theta) + u)
        theta'     = wrap(theta + dt * theta_dot)

    plus Gaussian noise; reward = -(theta^2 + 0.1 * theta_dot^2).
    Episodes start hanging near the bottom. Only sigma_env and horizon are
    settable; dt, gravity and reset_scale = 0.05 are class constants.
    """

    sigma_env: float = 0.01
    horizon: int = 50

    dt = 0.05
    gravity = 9.8
    reset_scale = 0.05
    name = "pendulum"
    d_s = 2
    d_a = 1
    action_low = np.array([-2.0])
    action_high = np.array([2.0])

    def _mean(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        theta, omega = s[..., :1], s[..., 1:]
        omega_next = omega + self.dt * (self.gravity * np.sin(theta) + a)
        theta_next = wrap_angle(theta + self.dt * omega)
        return np.concatenate([theta_next, omega_next], axis=-1)

    def _reward(self, s, a, s_next):
        # float_power is libm pow, as ** is on one float; ** on an array
        # squares exactly and would round some one-row rewards differently
        theta, omega = s_next[..., 0], s_next[..., 1]
        return -(np.float_power(theta, 2) + 0.1 * np.float_power(omega, 2))

    def _reset(self, z: np.ndarray) -> np.ndarray:
        return np.stack([wrap_angle(np.pi + self.reset_scale * z[..., 0]),
                         self.reset_scale * z[..., 1]], axis=-1)

    def _scripted(self, s: np.ndarray, mode: np.ndarray) -> np.ndarray:
        # energy-based swing-up near the bottom, a PD hold near upright;
        # mode picks the initial pump direction. float_power squares as **
        # does on one float.
        theta, omega = s[..., 0], s[..., 1]
        direction = np.where(mode == 0, 1.0, -1.0)
        energy = 0.5 * np.float_power(omega, 2) + self.gravity * np.cos(theta)
        gap = self.gravity - energy
        sign = np.where(np.abs(omega) > 0.2, np.sign(omega), direction)
        hold = -8.0 * theta - 2.0 * omega
        return np.where(np.cos(theta) > 0.9, hold, 1.5 * gap * sign)[..., None]


Env = PointMass2D | Pendulum1
ENVS = {cls.name: cls for cls in (PointMass2D, Pendulum1)}  # the only list of environments


def make_env(name: str, **overrides) -> Env:
    if name not in ENVS:
        raise ConfigError(f"name must be one of {tuple(ENVS)}, got {name!r}")
    return ENVS[name](**overrides)


def step(env: Env, s: np.ndarray, a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Sample the next state of one (s, a), or of each row of a (B, d)
    stack, from its standard-normal draw z (the shape of s). A stacked
    row equals the same row stepped alone bit for bit, so a recorded
    rollout replays from its draws."""
    s = np.asarray(s, dtype=float)
    a = np.asarray(a, dtype=float)
    if s.ndim not in (1, 2) or s.shape[-1] != env.d_s or a.shape != s.shape[:-1] + (env.d_a,):
        raise ShapeError(f"state, action shapes {s.shape}, {a.shape} are not "
                         f"([B,] {env.d_s}), ([B,] {env.d_a})")
    mean = _clipped_mean(env, s, a)
    if np.shape(z) != s.shape:
        raise ShapeError(f"draw shape {np.shape(z)} != state shape {s.shape}")
    s_next = mean + env.sigma_env * z
    if isinstance(env, Pendulum1):
        s_next[..., 0] = wrap_angle(s_next[..., 0])
    return s_next


def _clipped_mean(env: Env, s, a) -> np.ndarray:
    # the one place actions are clipped; step and true_dist both read it
    a = np.clip(np.asarray(a, dtype=float), env.action_low, env.action_high)
    return env._mean(np.asarray(s, dtype=float), a)


def true_dist(env: Env, s: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact transition law at one (s, a) or at each row of a (B, d)
    stack: closed-form mean of the clipped action, sigma_env^2 variance."""
    mean = _clipped_mean(env, s, a)
    return mean, np.full(mean.shape, env.sigma_env**2)


def reward(env: Env, s, a, s_next):
    """Reward of one transition, or one per row of a (B, d) stack."""
    return env._reward(np.asarray(s, float), np.asarray(a, float),
                       np.asarray(s_next, float))


def reset(env: Env, z: np.ndarray) -> np.ndarray:
    """Start state from RESET_DRAWS standard normals, or one start state
    per row of a (B, RESET_DRAWS) stack of them."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1:] != (RESET_DRAWS,):
        raise ShapeError(f"reset takes ([B,] {RESET_DRAWS}) draws, got {z.shape}")
    return env._reset(z)


def scripted_action(env: Env, s: np.ndarray, mode) -> np.ndarray:
    """The demonstrator's action at one state and mode, or at each row of
    a (B, d_s) stack with a (B,) array of modes."""
    mode = np.asarray(mode)
    if not np.all((mode == 0) | (mode == 1)):
        raise ConfigError(f"mode must be 0 or 1, got {mode}")
    return np.clip(env._scripted(np.asarray(s, float), mode),
                   env.action_low, env.action_high)


def rollout(env: Env, s: np.ndarray, act, z: np.ndarray, law=None):
    """Step a (B, d_s) stack of states in lockstep through (B, H, d_s)
    draws z: step t takes the actions act(t, s) at the stack s it starts
    from and moves by law(s, a, z[:, t]), this environment's `step` by
    default. Returns the (B, H, .) states, actions and next states, the
    (B, H) rewards of one `reward` call, and the (B,) returns, summed in
    step order as a one-row running sum adds them."""
    s = np.asarray(s, dtype=float)
    n, horizon = z.shape[:2]
    states, nexts = np.empty((2, n, horizon, env.d_s))
    actions = np.empty((n, horizon, env.d_a))
    for t in range(horizon):
        a = act(t, s)
        states[:, t], actions[:, t] = s, a
        s = step(env, s, a, z[:, t]) if law is None else law(s, a, z[:, t])
        nexts[:, t] = s
    rewards = reward(env, states, actions, nexts)
    return states, actions, nexts, rewards, np.cumsum(rewards, axis=1)[:, -1]


def rollout_open_loop(env: Env, s0: np.ndarray, actions: np.ndarray, z: np.ndarray, law=None):
    """Execute a (B, T, d_a) stack of fixed action plans open-loop from
    (B, d_s) starts, all rows in lockstep, with (B, T, d_s) transition
    draws z, under `rollout`'s ``law`` (this environment's `step` when
    None). Returns `rollout`'s stacks."""
    actions = np.asarray(actions, dtype=float)
    if actions.ndim != 3 or actions.shape[2] != env.d_a:
        raise ShapeError(f"actions must be (B, T, {env.d_a}), got {actions.shape}")
    if np.shape(s0) != (len(actions), env.d_s) or np.shape(z) != actions.shape[:2] + (env.d_s,):
        raise ShapeError(f"starts of shape {np.shape(s0)} and draws of shape {np.shape(z)} "
                         f"for plans of shape {actions.shape}")
    return rollout(env, s0, lambda t, s: actions[:, t], z, law)


def goal_distances(env: PointMass2D, s0: np.ndarray,
                   actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closest noise-free approach of each open-loop rollout of a
    (B, T, d_a) plan stack from (B, d_s) starts: (B,) distances to
    goal_plus and (B,) distances to goal_minus."""
    zeros = np.zeros(np.shape(actions)[:2] + (env.d_s,))
    pos = rollout_open_loop(env, s0, actions, zeros)[2][..., :2]
    return (np.min(np.linalg.norm(pos - env.goal_plus, axis=-1), axis=1),
            np.min(np.linalg.norm(pos - env.goal_minus, axis=-1), axis=1))


def _traj_rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    # independent streams for reset, action noise and environment noise,
    # all derived from the one recorded trajectory seed
    init_c, act_c, env_c = np.random.SeedSequence(int(seed)).spawn(3)
    return (np.random.default_rng(init_c), np.random.default_rng(act_c),
            np.random.default_rng(env_c))


def make_offline_dataset(env: Env, n_traj: int, mode_mix: float, rng: np.random.Generator,
                         action_noise: float = ACTION_NOISE) -> TrajectoryDataset:
    """Scripted multimodal demonstrations with labeled modes, each
    trajectory in the first mode with probability ``mode_mix``.

    Each trajectory draws a fresh seed from rng and runs its reset,
    action-noise and transition-noise streams off that seed alone, so
    any recorded transition can be replayed from the record. Every
    seed and mode is drawn first, in trajectory order; then each stream
    is drawn in bulk and all trajectories step together.
    """
    require("n_traj", n_traj, "> 0")
    require("mode_mix", mode_mix, "in [0, 1]")
    horizon = env.horizon

    seeds, modes = [], []
    for _ in range(n_traj):
        seeds.append(int(rng.integers(0, 2**63)))
        modes.append(0 if rng.random() < mode_mix else 1)
    streams = [_traj_rngs(seed) for seed in seeds]
    s = reset(env, np.stack([init.standard_normal(RESET_DRAWS) for init, _, _ in streams]))
    act_z = np.stack([act.standard_normal((horizon, env.d_a)) for _, act, _ in streams])
    env_z = np.stack([env_rng.standard_normal((horizon, env.d_s)) for _, _, env_rng in streams])
    modes = np.array(modes)

    def demonstrator(t, s):
        a = scripted_action(env, s, modes)
        if action_noise > 0:
            a = np.clip(a + action_noise * act_z[:, t], env.action_low, env.action_high)
        return a
    states, actions, nexts, rewards, _ = rollout(env, s, demonstrator, env_z)
    trajs = [Trajectory(states[i], actions[i], nexts[i], rewards[i],
                        seed=seeds[i], mode=int(modes[i])) for i in range(n_traj)]

    meta = {"env": env.name, "d_s": env.d_s, "d_a": env.d_a, "horizon": horizon,
            "sigma_env": env.sigma_env, "action_noise": action_noise,
            "mode_mix": [float(mode_mix), 1.0 - mode_mix], "n_traj": n_traj}
    return TrajectoryDataset(trajs, meta)
