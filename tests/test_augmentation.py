import re

import numpy as np
import pytest

import oracles
from uepo import augmentation, datasets, diffusion, dynamics, envs
from uepo.augmentation import FilterConfig
from uepo.divergence import DivergenceConfig
from uepo.errors import ConfigError, EmptyBatchError, ShapeError, StarvationError


class StubModel:
    """Duck-typed stand-in: true mean plus a fixed offset, fixed variance."""

    def __init__(self, env, offset, var):
        self.env = env
        self.offset = np.asarray(offset, dtype=float)
        self.var = float(var)

    def predict(self, s, a):
        mean, _ = envs.true_dist(self.env, s, a)
        return mean + self.offset, np.full(np.shape(mean), self.var)


def small_setup(sigma_env=0.05, n_traj=8, horizon=8, T=5):
    env = envs.make_env("point_mass", sigma_env=sigma_env, horizon=horizon)
    ds = envs.make_offline_dataset(env, n_traj, 0.5,
                                   np.random.default_rng(3))
    sched = diffusion.make_linear_schedule(8, 1e-4, 0.2)
    policy = diffusion.make_policy(T, env.d_a, env.d_s, [16],
                                   np.random.default_rng(4), schedule=sched,
                                   action_low=env.action_low,
                                   action_high=env.action_high)
    return env, ds, policy


def test_filter_config_validation():
    with pytest.raises(ConfigError):
        FilterConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        FilterConfig(ratio=1.5)
    with pytest.raises(ConfigError):
        FilterConfig(ratio=3.5)
    with pytest.raises(ConfigError):
        FilterConfig(max_attempts=0)


def test_filter_is_strict_at_epsilon():
    cfg = FilterConfig(epsilon=0.05)
    assert augmentation.filter_trajectory(0.049999, cfg)
    assert not augmentation.filter_trajectory(0.05, cfg)
    assert not augmentation.filter_trajectory(0.06, cfg)


def _trajectories(rollouts):
    # each row of rollout stacks as a Trajectory
    states, actions, nexts, rewards, _ = rollouts
    return [datasets.Trajectory(*row) for row in zip(states, actions, nexts, rewards)]


def test_rollout_virtual_is_seeded_and_chained():
    env, ds, policy = small_setup()
    s0 = datasets.initial_states(ds)[:1]
    (t1,) = _trajectories(augmentation.rollout_virtual(env, policy, s0, [11]))
    (t2,) = _trajectories(augmentation.rollout_virtual(env, policy, s0, [11]))
    assert np.array_equal(t1.actions, t2.actions)
    assert np.array_equal(t1.next_states, t2.next_states)
    assert len(t1) <= policy.T
    assert oracles.check_chain(t1)
    (t3,) = _trajectories(augmentation.rollout_virtual(env, policy, s0, [12]))
    assert not np.array_equal(t1.next_states, t3.next_states)


def test_rollout_virtual_stack_matches_single_rollouts():
    env, ds, policy = small_setup()
    starts = datasets.initial_states(ds)[[0, 3, 3, 5]]
    seeds = [11, 12, 12, 2**62 + 9]
    stacks = augmentation.rollout_virtual(env, policy, starts, seeds)
    assert [x.shape[:2] for x in stacks] == [(4, policy.T)] * 4 + [(4,)]
    trajs = _trajectories(stacks)
    # one start and seed twice in a stack gives the same rollout twice
    assert np.array_equal(trajs[1].next_states, trajs[2].next_states)
    for s0, seed, traj in zip(starts, seeds, trajs):
        (one,) = _trajectories(augmentation.rollout_virtual(env, policy, s0[None], [seed]))
        assert np.array_equal(traj.states[0], s0)
        assert np.max(np.abs(traj.actions - one.actions)) <= 1e-12
        assert np.max(np.abs(traj.next_states - one.next_states)) <= 1e-12


# one-item input to each stacked-only function: a (d_s,) start or anchor,
# a (T, d_a) plan, and an int where a list of seeds belongs
ONE_ITEM_CALLS = {
    "sample": (lambda env, policy, s0, plan: diffusion.sample(policy, s0, 11), "(B, 4)"),
    "sample_ensemble": (lambda env, policy, s0, plan: diffusion.sample_ensemble(
        policy, s0, (11, 12), DivergenceConfig(0.5, 0.1)), "(B, 4)"),
    "rollout_virtual": (lambda env, policy, s0, plan: augmentation.rollout_virtual(
        env, policy, s0, 11), "(B, 4)"),
    "rollout_open_loop": (lambda env, policy, s0, plan: envs.rollout_open_loop(
        env, s0, plan, np.zeros((len(plan), env.d_s))), "(B, T, 2)"),
    "goal_distances": (lambda env, policy, s0, plan: envs.goal_distances(env, s0, plan),
                       "(B, T, 2)"),
}


@pytest.mark.parametrize("name", ONE_ITEM_CALLS)
def test_stacked_only_functions_refuse_one_item_input(monkeypatch, name):
    env, ds, policy = small_setup()
    s0 = datasets.initial_states(ds)[0]
    plan = np.zeros((policy.T, env.d_a))

    def no_draws(*args, **kwargs):
        raise AssertionError("a generator was made before the shapes were checked")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    monkeypatch.setattr(np.random, "SeedSequence", no_draws)
    call, expected = ONE_ITEM_CALLS[name]
    with pytest.raises(ShapeError, match=re.escape(expected)):
        call(env, policy, s0, plan)


def test_trajectory_kl_is_mean_of_transition_kls():
    env, ds, policy = small_setup()
    traj = ds.trajectories[0]
    model = StubModel(env, offset=np.zeros(4), var=env.sigma_env**2 * 2.0)
    got = augmentation.trajectory_kl(env, model, traj.states, traj.actions)
    assert got == pytest.approx(oracles.trajectory_kl(traj, env, model), rel=1e-12)


def _stack(ds):
    return (np.stack([tr.states for tr in ds.trajectories]),
            np.stack([tr.actions for tr in ds.trajectories]))


@pytest.mark.parametrize("name", ["point_mass", "pendulum"])
def test_stacked_trajectory_kl_scores_each_row(name):
    # a learned model scores the whole stack in one forward pass
    env = envs.make_env(name, sigma_env=0.05, horizon=12)
    ds = envs.make_offline_dataset(env, 7, 0.5, np.random.default_rng(18))
    states, actions = _stack(ds)
    model = dynamics.make_dynamics(env.d_s, env.d_a, [16, 16], np.random.default_rng(19))
    scores = augmentation.trajectory_kl(env, model, states, actions)
    assert scores.shape == (7,)
    for score, traj in zip(scores, ds.trajectories):
        want = oracles.trajectory_kl(traj, env, model)
        assert abs(score - want) <= 1e-12 * abs(want)
    # one (T, d) trajectory scores as a stack of one does
    one = augmentation.trajectory_kl(env, model, states[0], actions[0])
    assert np.ndim(one) == 0
    assert one == augmentation.trajectory_kl(env, model, states[:1], actions[:1])[0]
    with pytest.raises(EmptyBatchError):
        augmentation.trajectory_kl(env, model, states[:, :0], actions[:, :0])


def test_trajectory_kl_offset_stub_is_half():
    # matched unit variances and a unit mean offset in one dim: KL = 0.5
    env = envs.make_env("point_mass", sigma_env=1.0, horizon=6)
    ds = envs.make_offline_dataset(env, 2, 1.0, np.random.default_rng(0))
    model = StubModel(env, offset=np.array([1.0, 0.0, 0.0, 0.0]), var=1.0)
    scores = augmentation.trajectory_kl(env, model, *_stack(ds))
    assert np.max(np.abs(scores - 0.5)) <= 1e-12


def test_build_augmented_hits_target_ratio():
    env, ds, policy = small_setup()
    model = StubModel(env, offset=np.zeros(4), var=env.sigma_env**2)
    cfg = FilterConfig(epsilon=0.5, ratio=2.0)
    syn, report = augmentation.build_augmented(env, policy, model, ds, cfg,
                                               np.random.default_rng(5))
    n_real = datasets.n_transitions(ds)
    target = int(np.ceil(2.0 * n_real))
    got = datasets.n_transitions(syn)
    assert got == report.achieved_transitions
    # whole-trajectory admission overshoots by less than one rollout
    assert target <= got < target + policy.T
    assert report.n_accepted == len(syn.trajectories)
    assert syn.meta["env"] == "point_mass"
    for tr in syn.trajectories:
        assert oracles.check_chain(tr)


@pytest.mark.parametrize("ratio", [3.0, 2.99])
def test_build_augmented_truncates_at_the_cap(ratio):
    env, ds, policy = small_setup()
    model = StubModel(env, offset=np.zeros(4), var=env.sigma_env**2)
    cfg = FilterConfig(epsilon=0.5, ratio=ratio)
    syn, report = augmentation.build_augmented(env, policy, model, ds, cfg,
                                               np.random.default_rng(5))
    cap = int(augmentation.MAX_RATIO * datasets.n_transitions(ds))
    # ceil(2.99 * n_real) is the cap as well, so both ratios stop exactly on it
    assert report.target_transitions == cap
    assert datasets.n_transitions(syn) == report.achieved_transitions == cap
    last = syn.trajectories[-1]
    (full,) = _trajectories(augmentation.rollout_virtual(env, policy, last.states[:1],
                                                         [last.seed]))
    assert 1 <= len(last) < len(full)
    for field in ("states", "actions", "next_states", "rewards"):
        assert np.array_equal(getattr(last, field), getattr(full, field)[:len(last)])
    for tr in syn.trajectories:
        assert oracles.check_chain(tr)


def test_build_augmented_is_seeded():
    env, ds, policy = small_setup()
    model = StubModel(env, offset=np.zeros(4), var=env.sigma_env**2)
    cfg = FilterConfig(epsilon=0.5, ratio=2.0)
    a, _ = augmentation.build_augmented(env, policy, model, ds, cfg,
                                        np.random.default_rng(5))
    b, _ = augmentation.build_augmented(env, policy, model, ds, cfg,
                                        np.random.default_rng(5))
    assert datasets.dataset_bytes(a) == datasets.dataset_bytes(b)


def test_build_augmented_starves_with_bad_model():
    env, ds, policy = small_setup()
    model = StubModel(env, offset=np.array([5.0, 0.0, 0.0, 0.0]),
                      var=env.sigma_env**2)
    cfg = FilterConfig(epsilon=0.05, ratio=2.0, max_attempts=20)
    with pytest.raises(StarvationError) as err:
        augmentation.build_augmented(env, policy, model, ds, cfg,
                                     np.random.default_rng(6))
    assert len(err.value.kl_values) == 20
    assert min(err.value.kl_values) >= 0.05


def test_build_augmented_empty_dataset():
    env, ds, policy = small_setup()
    empty = datasets.TrajectoryDataset([], ds.meta)
    with pytest.raises(EmptyBatchError):
        augmentation.build_augmented(env, policy, None, empty,
                                     FilterConfig(), np.random.default_rng(0))


def test_default_max_attempts_scales_with_budget():
    cfg = FilterConfig(epsilon=0.1, ratio=2.0)
    n = augmentation.default_max_attempts(cfg, n_real=100, rollout_len=10)
    assert n == 1000  # 50 * 2 * 100 / 10


def test_report_items_and_histogram():
    report = augmentation.AugmentReport(
        n_attempts=10, n_accepted=4, kl_values=[0.1, 0.2, 0.3, 0.4],
        achieved_transitions=40, target_transitions=40, epsilon=0.5, ratio=2.0)
    assert augmentation.report_items(report) == [
        ("attempts", 10), ("accepted", 4), ("acceptance_rate", 0.4),
        ("achieved_transitions", 40), ("target_transitions", 40),
        ("achieved_ratio", 2.0), ("epsilon", 0.5), ("ratio", 2.0)]
    assert report.acceptance_rate == pytest.approx(0.4)
    hist = augmentation.kl_histogram(report.kl_values, n_bins=3)
    assert len(hist) == 3
    assert sum(n for _, _, n in hist) == 4
    assert hist[0][0] == pytest.approx(0.1)
    assert hist[-1][1] == pytest.approx(0.4)
    assert augmentation.kl_histogram([]) == []


class ActionOffsetModel(StubModel):
    """Off by 0.05 * a[0] in the first state dimension, so the score of a
    rollout depends on its actions and the filter takes some of them."""

    def predict(self, s, a):
        mean, var = super().predict(s, a)
        mean[..., 0] += 0.05 * a[..., 0]
        return mean, var


@pytest.mark.parametrize("chunk,max_attempts,fills", [(4, 10, False), (3, 200, True)])
def test_build_augmented_matches_attempt_by_attempt_loop(monkeypatch, chunk, max_attempts,
                                                         fills):
    env, ds, policy = small_setup()
    model = ActionOffsetModel(env, offset=np.zeros(4), var=env.sigma_env**2)
    cfg = FilterConfig(epsilon=0.4, ratio=2.0, max_attempts=max_attempts)
    monkeypatch.setattr(diffusion, "SAMPLE_CHUNK", chunk)
    rng = np.random.default_rng(7)
    syn, report = augmentation.build_augmented(env, policy, model, ds, cfg, rng)
    ref_rng = np.random.default_rng(7)
    accepted, kl_values, attempts, count = oracles.build_augmented(env, policy, model, ds,
                                                                   cfg, ref_rng)
    assert 0 < report.n_accepted < report.n_attempts
    assert (report.n_attempts, report.n_accepted, report.achieved_transitions) == \
        (attempts, len(accepted), count)
    assert (count >= report.target_transitions) == fills
    if fills:
        # it stopped inside a chunk, and the chunk's later draws went unused
        assert attempts % chunk != 0
        assert rng.integers(2**63) != ref_rng.integers(2**63)
    else:
        assert attempts == max_attempts
    assert len(report.kl_values) == len(kl_values)
    assert np.max(np.abs(np.subtract(report.kl_values, kl_values))) <= 1e-12
    for got, want in zip(syn.trajectories, accepted):
        assert got.seed == want.seed
        assert np.max(np.abs(got.actions - want.actions)) <= 1e-12
        assert np.max(np.abs(got.next_states - want.next_states)) <= 1e-12
