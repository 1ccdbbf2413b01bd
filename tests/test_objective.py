import numpy as np
import pytest

from uepo import diffusion, objective
from uepo.errors import ConfigError, EmptyBatchError, ShapeError


def tiny_policy(seed, T=3, d_a=1, d_s=1, k=4):
    sched = diffusion.make_linear_schedule(k, 1e-4, 0.2)
    return diffusion.make_policy(T, d_a, d_s, [8], np.random.default_rng(seed),
                                 schedule=sched)


def test_draw_path_noise_shape_and_seed():
    a = objective.draw_path_noise(4, 3, 2, 5, np.random.default_rng(0))
    assert a.shape == (5, 4, 3, 2)
    b = objective.draw_path_noise(4, 3, 2, 5, np.random.default_rng(0))
    assert np.array_equal(a, b)
    with pytest.raises(ConfigError):
        objective.draw_path_noise(0, 3, 2, 5, np.random.default_rng(0))


def test_noising_path_recurrence():
    rng = np.random.default_rng(1)
    sched = diffusion.make_linear_schedule(4, 1e-4, 0.2)
    a = rng.standard_normal((3, 2))
    eps = rng.standard_normal((4, 3, 2))
    nodes = objective.noising_path(a, eps, sched)
    assert nodes.shape == (5, 3, 2)
    assert np.array_equal(nodes[0], a)
    x = a.copy()
    for j in range(4):
        x = np.sqrt(sched.alpha[j]) * x + np.sqrt(sched.beta[j]) * eps[j]
        assert np.allclose(nodes[j + 1], x, atol=1e-15)


def test_noising_path_shape_check():
    sched = diffusion.make_linear_schedule(4, 1e-4, 0.2)
    with pytest.raises(ShapeError):
        objective.noising_path(np.zeros((3, 2)), np.zeros((3, 3, 2)), sched)


def test_seq_log_prob_matches_hand_computation():
    policy = tiny_policy(2)
    rng = np.random.default_rng(3)
    s = rng.standard_normal((1, 1))
    a = rng.standard_normal((3, 1))
    eps = rng.standard_normal((4, 3, 1))
    got = objective.seq_log_prob(policy, s, a[None], eps[None])
    assert got.shape == (1,)
    nodes = objective.noising_path(a, eps, policy.schedule)
    want = 0.0
    for t in range(3, -1, -1):
        mean = diffusion.reverse_mean(policy, nodes[t + 1][None], s, t)[0]
        var = policy.schedule.beta[t]
        # Gaussian log-density of node t under N(mean, var I), 3 dims
        want += float(np.sum(-0.5 * np.log(2 * np.pi * var)
                             - (nodes[t] - mean) ** 2 / (2 * var)))
    assert got[0] == pytest.approx(want, rel=1e-12)


def test_seq_log_prob_stack_matches_one_at_a_time():
    policy = tiny_policy(3, d_s=2)
    rng = np.random.default_rng(4)
    B = 5
    anchors = rng.standard_normal((B, 2))
    a = rng.standard_normal((B, 3, 1))
    noise = objective.draw_path_noise(4, 3, 1, B, rng)
    got = objective.seq_log_prob(policy, anchors, a, noise)
    assert got.shape == (B,)
    for b in range(B):
        one = objective.seq_log_prob(policy, anchors[b:b + 1], a[b:b + 1], noise[b:b + 1])
        assert abs(got[b] - one[0]) <= 1e-12 * abs(one[0])


def test_seq_log_prob_validates_shapes():
    policy = tiny_policy(4)
    eps = np.zeros((2, 4, 3, 1))
    with pytest.raises(ShapeError):
        objective.seq_log_prob(policy, np.zeros((2, 1)), np.zeros((2, 2, 1)), eps)
    with pytest.raises(ShapeError):
        objective.seq_log_prob(policy, np.zeros((2, 1)), np.zeros((2, 3, 2)),
                               np.zeros((2, 4, 3, 2)))
    # a stack of (T, d_s) windows is not a stack of anchors
    with pytest.raises(ShapeError):
        objective.seq_log_prob(policy, np.zeros((2, 3, 1)), np.zeros((2, 3, 1)), eps)


def test_objective_from_log_probs_hand_oracle():
    logps = np.array([[1.0, -2.0, 0.5],
                      [0.0, -1.0, 0.5]])
    J, penalties = objective.objective_from_log_probs(logps, alpha=0.5)
    want_pen = np.array([[0.0, -1.0, 0.0],
                         [-1.0, 0.0, 0.0]])
    assert np.array_equal(penalties, want_pen)
    assert np.allclose(J, logps.mean(axis=1) + 0.5 * want_pen.mean(axis=1),
                       atol=1e-15)


def test_penalties_nonpositive_with_zero_at_argmax():
    rng = np.random.default_rng(5)
    logps = rng.standard_normal((4, 10))
    _, penalties = objective.objective_from_log_probs(logps, alpha=0.3)
    assert np.all(penalties <= 0)
    argmax = logps.argmax(axis=0)
    for b in range(10):
        assert penalties[argmax[b], b] == 0.0


def test_alpha_zero_reduces_to_mean_log_likelihood():
    rng = np.random.default_rng(6)
    logps = rng.standard_normal((3, 7))
    J, _ = objective.objective_from_log_probs(logps, alpha=0.0)
    assert np.array_equal(J, logps.mean(axis=1))


def test_objective_from_log_probs_validation():
    with pytest.raises(EmptyBatchError):
        objective.objective_from_log_probs(np.zeros((0, 3)), 0.1)
    with pytest.raises(ConfigError):
        objective.ObjectiveConfig(alpha=np.nan)


def test_ensemble_objective_shared_policy_has_zero_penalty():
    policy = tiny_policy(7)
    rng = np.random.default_rng(8)
    B = 4
    anchors = rng.standard_normal((B, 1))
    actions = rng.standard_normal((B, 3, 1))
    noise = objective.draw_path_noise(4, 3, 1, B, rng)
    cfg = objective.ObjectiveConfig(alpha=0.7, path_noise=noise)
    J, logps = objective.ensemble_objective([policy, policy, policy],
                                            anchors, actions, cfg)
    assert logps.shape == (3, B)
    # identical parameters, shared paths: the table rows coincide and
    # every penalty is exactly zero, so J is the plain mean row
    assert np.array_equal(logps[0], logps[1])
    assert np.array_equal(J, logps.mean(axis=1))


def test_ensemble_objective_requires_path_noise():
    policy = tiny_policy(9)
    anchors = np.zeros((2, 1))
    actions = np.zeros((2, 3, 1))
    with pytest.raises(ConfigError):
        objective.ensemble_objective([policy], anchors, actions,
                                     objective.ObjectiveConfig(alpha=0.1))
    bad = objective.ObjectiveConfig(alpha=0.1, path_noise=np.zeros((2, 3, 3, 1)))
    with pytest.raises(ShapeError):
        objective.ensemble_objective([policy], anchors, actions, bad)
    with pytest.raises(EmptyBatchError):
        objective.ensemble_objective([policy], np.zeros((0, 1)), np.zeros((0, 3, 1)),
                                     objective.ObjectiveConfig(alpha=0.1))


def test_ensemble_objective_distinct_policies_differ():
    pols = [tiny_policy(10), tiny_policy(11)]
    rng = np.random.default_rng(12)
    anchors = rng.standard_normal((3, 1))
    actions = rng.standard_normal((3, 3, 1))
    noise = objective.draw_path_noise(4, 3, 1, 3, rng)
    cfg = objective.ObjectiveConfig(alpha=0.1, path_noise=noise)
    J, logps = objective.ensemble_objective(pols, anchors, actions, cfg)
    assert not np.array_equal(logps[0], logps[1])
    assert J.shape == (2,)
