import re

import numpy as np
import pytest

import oracles
from uepo import datasets, envs
from uepo.errors import ConfigError, ShapeError


def test_make_env_names_and_overrides():
    pm = envs.make_env("point_mass", sigma_env=0.2, horizon=7)
    assert pm.sigma_env == 0.2 and pm.horizon == 7
    pend = envs.make_env("pendulum")
    assert pend.d_s == 2 and pend.d_a == 1
    with pytest.raises(ConfigError, match="name must be one of"):
        envs.make_env("cartpole")
    for name in envs.ENVS:
        with pytest.raises(ConfigError, match="sigma_env must be > 0, got 0.0"):
            envs.make_env(name, sigma_env=0.0)


def test_point_mass_step_formula():
    env = envs.make_env("point_mass")
    s = np.array([0.1, -0.2, 0.5, 0.3])
    a = np.array([0.4, -0.6])
    got = envs.true_dist(env, s, a)[0]
    v_next = (1.0 - env.damping) * s[2:] + env.dt * a
    p_next = s[:2] + env.dt * s[2:]
    assert np.allclose(got, np.concatenate([p_next, v_next]), atol=1e-15)


def test_point_mass_clips_actions():
    env = envs.make_env("point_mass")
    s = np.zeros(4)
    wild = envs.true_dist(env, s, np.array([10.0, -10.0]))[0]
    capped = envs.true_dist(env, s, np.array([1.0, -1.0]))[0]
    assert np.array_equal(wild, capped)


def test_pendulum_step_formula_and_wrap():
    env = envs.make_env("pendulum")
    s = np.array([3.0, 2.0])
    a = np.array([1.5])
    got = envs.true_dist(env, s, a)[0]
    omega = s[1] + env.dt * (env.gravity * np.sin(s[0]) + a[0])
    theta = envs.wrap_angle(s[0] + env.dt * s[1])
    assert np.allclose(got, [theta, omega], atol=1e-14)
    assert -np.pi < got[0] <= np.pi


def test_wrap_angle():
    assert envs.wrap_angle(np.pi) == pytest.approx(np.pi)
    assert envs.wrap_angle(np.pi + 0.1) == pytest.approx(-np.pi + 0.1)
    assert envs.wrap_angle(-np.pi - 0.1) == pytest.approx(np.pi - 0.1)
    assert envs.wrap_angle(0.3) == pytest.approx(0.3, abs=1e-12)


def test_true_dist_matches_step_statistics():
    env = envs.make_env("point_mass", sigma_env=0.3)
    s = np.array([0.1, 0.2, -0.1, 0.4])
    a = np.array([0.5, 0.5])
    mean, var = envs.true_dist(env, s, a)
    assert np.array_equal(mean, envs.step(env, s, a, np.zeros(4)))
    assert np.array_equal(var, np.full(4, 0.09))
    z = np.random.default_rng(0).standard_normal((4000, 4))
    draws = envs.step(env, np.tile(s, (4000, 1)), np.tile(a, (4000, 1)), z)
    assert np.allclose(draws.mean(axis=0), mean, atol=0.02)
    assert np.allclose(draws.var(axis=0), var, rtol=0.1)


def _random_rows(env, rng, n):
    s = rng.uniform(-2.0, 2.0, (n, env.d_s))
    a = rng.uniform(-3.0, 3.0, (n, env.d_a))  # some outside the action box
    if env.name == "pendulum":
        # angles on both sides of the +-pi wrap, with velocities that carry
        # some of them across it in one step
        s[: n // 2, 0] = rng.choice([-1.0, 1.0], n // 2) * rng.uniform(3.0, np.pi, n // 2)
        s[:, 1] = rng.uniform(-8.0, 8.0, n)
    return s, a


@pytest.mark.parametrize("name", ["point_mass", "pendulum"])
def test_stacked_laws_equal_per_row_calls(name):
    env = envs.make_env(name, sigma_env=0.03)
    s, a = _random_rows(env, np.random.default_rng(12), 400)
    s_next = s + np.random.default_rng(13).standard_normal(s.shape)
    mean, var = envs.true_dist(env, s, a)
    raw_mean = env._mean(s, a)
    rew = envs.reward(env, s, a, s_next)
    z = np.random.default_rng(15).standard_normal(s.shape)
    stepped = envs.step(env, s, a, z)
    assert mean.shape == raw_mean.shape == var.shape == s.shape and rew.shape == (400,)
    assert stepped.shape == s.shape
    for i in range(len(s)):
        row_mean, row_var = envs.true_dist(env, s[i], a[i])
        assert np.array_equal(mean[i], row_mean) and np.array_equal(var[i], row_var)
        assert np.array_equal(raw_mean[i], env._mean(s[i], a[i]))
        assert rew[i] == envs.reward(env, s[i], a[i], s_next[i])
        assert np.array_equal(stepped[i], envs.step(env, s[i], a[i], z[i]))
    if name == "pendulum":
        wrapped = np.sign(mean[:, 0]) != np.sign(s[:, 0] + env.dt * s[:, 1])
        assert wrapped.sum() > 10
        assert np.all((-np.pi < mean[:, 0]) & (mean[:, 0] <= np.pi))
        # the draw itself carries some angles across +-pi, and step wraps them
        noisy = env._mean(s, np.clip(a, -2.0, 2.0)) + env.sigma_env * z
        assert np.sum(np.abs(noisy[:, 0]) > np.pi) > 0
        assert np.all((-np.pi < stepped[:, 0]) & (stepped[:, 0] <= np.pi))
    assert np.array_equal(envs.wrap_angle(s[:, 0]), [envs.wrap_angle(x) for x in s[:, 0]])


@pytest.mark.parametrize("name", ["point_mass", "pendulum"])
def test_stacked_demonstrator_equals_scalar_branches(name):
    # enough rows that an exact array square, where one float's ** is
    # libm pow, would round some pendulum energies differently
    env = envs.make_env(name)
    rng = np.random.default_rng(18)
    s, _ = _random_rows(env, rng, 20000)
    if name == "pendulum":
        # half the rows near the upright energy, where the swing-up torque
        # is not clipped and every bit of the energy reaches the action
        theta = rng.choice([-1.0, 1.0], 10000) * rng.uniform(0.5, np.pi, 10000)
        lift = 2.0 * env.gravity * (1.0 - np.cos(theta)) + rng.uniform(-2.0, 2.0, 10000)
        s[10000:] = np.stack([theta, rng.choice([-1.0, 1.0], 10000) * np.sqrt(lift)], axis=1)
    modes = np.random.default_rng(19).integers(0, 2, len(s))
    got = envs.scripted_action(env, s, modes)
    assert got.shape == (len(s), env.d_a)
    for i in range(len(s)):
        assert np.array_equal(got[i], oracles.scripted_action(env, s[i], modes[i]))


def test_one_row_rewards_keep_their_scalar_formulas():
    # a one-row call rounds as the scalar expressions do: a 1-D norm,
    # and ** on a float
    rng = np.random.default_rng(14)
    pm, pend = envs.make_env("point_mass"), envs.make_env("pendulum")
    for _ in range(10000):
        s_next = 3.0 * rng.standard_normal(4)
        p = s_next[:2]
        want = -min(float(np.linalg.norm(p - pm.goal_plus)),
                    float(np.linalg.norm(p - pm.goal_minus)))
        assert envs.reward(pm, np.zeros(4), np.zeros(2), s_next) == want
        theta, omega = float(s_next[2]), float(s_next[3])
        assert envs.reward(pend, np.zeros(2), np.zeros(1),
                           s_next[2:]) == -(theta**2 + 0.1 * omega**2)


def test_rewards():
    env = envs.make_env("point_mass")
    s_next = np.array([1.0, 0.5, 0.0, 0.0])
    want = -min(np.linalg.norm(s_next[:2] - env.goal_plus),
                np.linalg.norm(s_next[:2] - env.goal_minus))
    assert envs.reward(env, np.zeros(4), np.zeros(2), s_next) == pytest.approx(want)
    pend = envs.make_env("pendulum")
    assert envs.reward(pend, np.zeros(2), np.zeros(1),
                       np.array([0.5, -1.0])) == pytest.approx(-(0.25 + 0.1))


def test_step_validates_state_shape():
    env = envs.make_env("point_mass")
    with pytest.raises(ShapeError):
        envs.step(env, np.zeros(3), np.zeros(2), np.zeros(3))
    with pytest.raises(ShapeError):
        envs.step(env, np.zeros((5, 4)), np.zeros((4, 2)), np.zeros((5, 4)))
    with pytest.raises(ShapeError):
        envs.step(env, np.zeros((5, 4)), np.zeros((5, 2)), np.zeros(4))
    with pytest.raises(ShapeError):
        envs.reset(env, np.zeros(3))


def test_one_bulk_normal_draw_equals_one_value_draws():
    # every lockstep rollout relies on this: one standard_normal call for
    # n values gives the n values, and the generator state, of n calls
    for seed in range(5):
        bulk_rng, one_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        bulk = bulk_rng.standard_normal((37, 11))
        ones = [one_rng.standard_normal() for _ in range(37 * 11)]
        assert np.array_equal(bulk.ravel(), ones)
        assert bulk_rng.bit_generator.state == one_rng.bit_generator.state
        assert bulk_rng.standard_normal() == one_rng.standard_normal()


def test_scripted_point_mass_reaches_goals():
    env = envs.make_env("point_mass", sigma_env=0.01)
    for mode, goal in ((0, env.goal_plus), (1, env.goal_minus)):
        s = envs.reset(env, np.random.default_rng(3).standard_normal(2))
        z = np.random.default_rng(9).standard_normal((env.horizon, 4))
        for t in range(env.horizon):
            s = envs.step(env, s, envs.scripted_action(env, s, mode), z[t])
        assert np.linalg.norm(s[:2] - goal) < 0.15


def test_scripted_pendulum_pumps_energy():
    # the swing-up does not reach upright within one horizon, but it must
    # gain mechanical energy and leave the hanging state
    env = envs.make_env("pendulum", sigma_env=0.01)
    s = envs.reset(env, np.random.default_rng(0).standard_normal(2))
    energy0 = 0.5 * s[1] ** 2 + env.gravity * np.cos(s[0])
    z = np.random.default_rng(1).standard_normal((env.horizon, 2))
    for t in range(env.horizon):
        s = envs.step(env, s, envs.scripted_action(env, s, 0), z[t])
    energy1 = 0.5 * s[1] ** 2 + env.gravity * np.cos(s[0])
    assert energy1 > energy0 + 1.0
    assert abs(s[0]) < np.pi - 0.2


def test_rollout_open_loop_chain_and_determinism():
    env = envs.make_env("point_mass", sigma_env=0.05)
    rng = np.random.default_rng(5)
    actions = rng.uniform(-1, 1, size=(1, 6, 2))
    s0 = np.zeros((1, 4))
    z = np.random.default_rng(7).standard_normal((1, 6, 4))
    states, _, nexts, _, _ = envs.rollout_open_loop(env, s0, actions, z)
    again = envs.rollout_open_loop(env, s0, actions, z.copy())
    assert np.array_equal(nexts, again[2])
    assert np.array_equal(nexts[:, :-1], states[:, 1:])
    assert np.array_equal(states[:, 0], s0)


@pytest.mark.parametrize("starts", [1, 3])
def test_rollout_open_loop_wants_one_start_per_plan(monkeypatch, starts):
    env = envs.make_env("point_mass", sigma_env=0.05)

    def no_step(*args, **kwargs):
        raise AssertionError("a step ran before the start count was checked")

    monkeypatch.setattr(envs, "step", no_step)
    expected = f"starts of shape ({starts}, 4) and draws of shape (2, 6, 4)"
    with pytest.raises(ShapeError, match=re.escape(expected)):
        envs.rollout_open_loop(env, np.zeros((starts, 4)), np.zeros((2, 6, 2)),
                               np.zeros((2, 6, 4)))


@pytest.mark.parametrize("steps", [5, 7])
def test_rollout_open_loop_wants_one_draw_per_step(steps):
    env = envs.make_env("point_mass", sigma_env=0.05)
    expected = f"draws of shape (2, {steps}, 4) for plans of shape (2, 6, 2)"
    with pytest.raises(ShapeError, match=re.escape(expected)):
        envs.rollout_open_loop(env, np.zeros((2, 4)), np.zeros((2, 6, 2)),
                               np.zeros((2, steps, 4)))


@pytest.mark.parametrize("name", ["point_mass", "pendulum"])
def test_stacked_rollouts_equal_one_at_a_time(name):
    env = envs.make_env(name, sigma_env=0.05)
    rng = np.random.default_rng(16)
    s0, plans = _random_rows(env, rng, 9)[0], rng.uniform(-3.0, 3.0, (9, 7, env.d_a))
    seeds = [int(x) for x in rng.integers(0, 2**63, 9)]
    z = np.stack([np.random.default_rng(seed).standard_normal((7, env.d_s)) for seed in seeds])
    stacks = envs.rollout_open_loop(env, s0, plans, z)
    assert len(stacks[0]) == 9
    for i in range(9):
        want = oracles.rollout_open_loop(env, s0[i], plans[i], np.random.default_rng(seeds[i]))
        one = envs.rollout_open_loop(env, s0[i:i + 1], plans[i:i + 1], z[i:i + 1])
        for got in ([x[i] for x in stacks], [x[0] for x in one]):
            for g, field in zip(got, ("states", "actions", "next_states", "rewards")):
                assert np.array_equal(g, getattr(want, field))


@pytest.mark.parametrize("name", ["point_mass", "pendulum"])
def test_rollout_steps_the_stack_in_lockstep(name):
    env = envs.make_env(name, sigma_env=0.05)
    rng = np.random.default_rng(23)
    s0, modes = _random_rows(env, rng, 6)[0], np.array([0, 1, 1, 0, 1, 0])
    z = rng.standard_normal((6, 9, env.d_s))
    starts, draws = [], []

    def act(t, s):
        starts.append(s.copy())
        return envs.scripted_action(env, s, modes)

    def law(s, a, z_t):
        draws.append(z_t.copy())
        return envs.step(env, s, a, 2.0 * z_t)

    states, actions, nexts, rewards, returns = envs.rollout(env, s0, act, z, law)
    assert states.shape == nexts.shape == z.shape and actions.shape == (6, 9, env.d_a)
    assert np.array_equal(np.stack(starts, axis=1), states)
    assert np.array_equal(np.stack(draws, axis=1), z)
    assert np.array_equal(states[:, 0], s0) and np.array_equal(states[:, 1:], nexts[:, :-1])
    assert np.array_equal(rewards, envs.reward(env, states, actions, nexts))
    for i in range(6):
        total, s = 0.0, s0[i]
        for t in range(9):
            total += rewards[i, t]
            a = envs.scripted_action(env, s, modes[i])
            s = envs.step(env, s, a, 2.0 * z[i, t])
            assert np.array_equal(actions[i, t], a) and np.array_equal(nexts[i, t], s)
        assert returns[i] == total


@pytest.mark.parametrize("name", ["point_mass", "pendulum"])
def test_rollout_default_law_is_the_open_loop_rollout(name):
    env = envs.make_env(name, sigma_env=0.05)
    rng = np.random.default_rng(24)
    s0, plans = _random_rows(env, rng, 5)[0], rng.uniform(-3.0, 3.0, (5, 7, env.d_a))
    z = rng.standard_normal((5, 7, env.d_s))
    got = envs.rollout(env, s0, lambda t, s: plans[:, t], z)
    want = envs.rollout_open_loop(env, s0, plans, z)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_goal_distances_uses_noise_free_rollout():
    env = envs.make_env("point_mass", sigma_env=0.5)
    # pushing toward (1, 1), then toward (1, -1), the whole way
    actions = np.stack([np.tile([1.0, 1.0], (env.horizon, 1)),
                        np.tile([1.0, -1.0], (env.horizon, 1))])
    d_plus, d_minus = envs.goal_distances(env, np.zeros((2, 4)), actions)
    assert d_plus.shape == d_minus.shape == (2,)
    assert d_plus[0] < d_minus[0] and d_minus[1] < d_plus[1]
    for i in range(2):
        s, pos = np.zeros(4), []
        for a in actions[i]:
            s = envs.true_dist(env, s, a)[0]
            pos.append(s[:2])
        assert d_plus[i] == np.min(np.linalg.norm(np.subtract(pos, env.goal_plus), axis=1))
        assert d_minus[i] == np.min(np.linalg.norm(np.subtract(pos, env.goal_minus), axis=1))


def test_offline_dataset_replay_and_modes():
    env = envs.make_env("point_mass", sigma_env=0.05, horizon=10)
    rng = np.random.default_rng(11)
    ds = envs.make_offline_dataset(env, 30, 0.5, rng)
    assert len(ds) == 30
    assert ds.meta["env"] == "point_mass"
    counts = oracles.mode_counts(ds)
    assert set(counts) == {0, 1}
    # binomial(30, 0.5) lands outside [5, 25] with probability < 2e-4
    assert 5 <= counts[0] <= 25
    for tr in ds.trajectories:
        assert len(tr) == 10
        assert oracles.check_chain(tr)
        assert oracles.replay_consistent(env, tr)
        want = [envs.reward(env, s, a, sn) for s, a, sn
                in zip(tr.states, tr.actions, tr.next_states)]
        assert np.allclose(tr.rewards, want, atol=1e-12)


@pytest.mark.parametrize("name", ["point_mass", "pendulum"])
@pytest.mark.parametrize("mix", [0.5, 1.0], ids=["mix0", "mix1"])
def test_offline_dataset_equals_one_trajectory_at_a_time(name, mix):
    env = envs.make_env(name, sigma_env=0.05)
    for n_traj, noise in ((1, envs.ACTION_NOISE), (13, envs.ACTION_NOISE), (5, 0.0)):
        got = envs.make_offline_dataset(env, n_traj, mix, np.random.default_rng(n_traj),
                                        action_noise=noise)
        want = oracles.make_offline_dataset(env, n_traj, mix, np.random.default_rng(n_traj),
                                            action_noise=noise)
        assert datasets.dataset_bytes(got) == datasets.dataset_bytes(want)
        assert [tr.mode for tr in got.trajectories] == [tr.mode for tr in want.trajectories]


def test_replay_detects_a_changed_transition():
    env = envs.make_env("pendulum", horizon=12)
    tr = envs.make_offline_dataset(env, 1, 0.5, np.random.default_rng(17)).trajectories[0]
    assert oracles.replay_consistent(env, tr)
    tr.next_states[7, 1] = np.nextafter(tr.next_states[7, 1], np.inf)
    assert not oracles.replay_consistent(env, tr)


def test_offline_dataset_single_mode():
    env = envs.make_env("point_mass", horizon=5)
    ds = envs.make_offline_dataset(env, 8, 1.0, np.random.default_rng(0))
    assert oracles.mode_counts(ds) == {0: 8}


def test_offline_dataset_is_seeded():
    env = envs.make_env("point_mass", horizon=5)
    a = envs.make_offline_dataset(env, 4, 0.5, np.random.default_rng(2))
    b = envs.make_offline_dataset(env, 4, 0.5, np.random.default_rng(2))
    assert datasets.dataset_bytes(a) == datasets.dataset_bytes(b)


def test_coverage_gap_split():
    env = envs.make_env("point_mass", sigma_env=0.05)
    ds = envs.make_offline_dataset(env, 40, 0.5, np.random.default_rng(21))
    kept, gap = oracles.apply_coverage_gap(ds)
    assert len(gap.trajectories) > 0
    for tr in kept.trajectories:
        assert np.all(tr.states[:, 1] <= 0.5)
        assert np.all(tr.next_states[:, 1] <= 0.5)
    crossed = sum(np.any(tr.next_states[:, 1] > 0.5) for tr in gap.trajectories)
    assert crossed > 0
    with pytest.raises(ConfigError):
        pend_ds = envs.make_offline_dataset(envs.make_env("pendulum", horizon=5),
                                            2, 1.0, np.random.default_rng(0))
        oracles.apply_coverage_gap(pend_ds)
