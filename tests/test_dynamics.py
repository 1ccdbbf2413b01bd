import re

import numpy as np
import pytest

import oracles
from uepo import dynamics, nets
from uepo.dynamics import TransitionBatch
from uepo.errors import ConfigError, EmptyBatchError, ShapeError


def random_batch(rng, n=8, d_s=3, d_a=2):
    return TransitionBatch(rng.standard_normal((n, d_s)),
                           rng.standard_normal((n, d_a)),
                           rng.standard_normal((n, d_s)))


def test_transition_batch_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(EmptyBatchError):
        TransitionBatch(np.zeros((0, 2)), np.zeros((0, 1)), np.zeros((0, 2)))
    with pytest.raises(ShapeError):
        TransitionBatch(np.zeros((3, 2)), np.zeros((3, 1)), np.zeros((2, 2)))
    bad = rng.standard_normal((2, 2))
    bad[0, 0] = np.inf
    with pytest.raises(ConfigError):
        TransitionBatch(bad, np.zeros((2, 1)), np.zeros((2, 2)))


def test_predict_shapes_and_positive_variance():
    rng = np.random.default_rng(1)
    m = dynamics.make_dynamics(3, 2, [8], rng)
    mean, var = dynamics.predict(m, rng.standard_normal(3), rng.standard_normal(2))
    assert mean.shape == (3,) and var.shape == (3,)
    assert np.all(var > 0) and np.all(np.isfinite(var))
    with pytest.raises(ShapeError):
        dynamics.predict(m, np.zeros(2), np.zeros(2))


def test_log_variance_clamp_equals_clip():
    rng = np.random.default_rng(2)
    m = dynamics.make_dynamics(4, 2, [8], rng)
    out = 20.0 * rng.standard_normal((12, 8))
    out[0, 4], out[1, 5], out[2, 6], out[3, 7] = np.nan, np.inf, -np.inf, dynamics.LOG_VAR_MAX
    _, log_var, raw = dynamics._split_output(m, out)
    np.testing.assert_array_equal(
        log_var, np.clip(out[:, 4:], dynamics.LOG_VAR_MIN, dynamics.LOG_VAR_MAX))
    np.testing.assert_array_equal(raw, out[:, 4:])


def test_predict_on_stacks_matches_per_row():
    rng = np.random.default_rng(15)
    m = dynamics.make_dynamics(3, 2, [16, 16], rng)
    s, a = rng.standard_normal((40, 3)), rng.standard_normal((40, 2))
    mean, var = dynamics.predict(m, s, a)
    assert mean.shape == var.shape == (40, 3)
    for i in range(40):
        row_mean, row_var = dynamics.predict(m, s[i], a[i])
        assert np.max(np.abs(mean[i] - row_mean)) <= 1e-12
        assert np.max(np.abs(var[i] - row_var)) <= 1e-12 * np.max(row_var)
    with pytest.raises(ShapeError):
        dynamics.predict(m, s, a[:39])


def test_predict_on_trajectory_stacks_matches_per_row():
    rng = np.random.default_rng(16)
    m = dynamics.make_dynamics(6, 2, [16, 16], rng)
    s, a = rng.standard_normal((5, 12, 6)), rng.standard_normal((5, 12, 2))
    mean, var = dynamics.predict(m, s, a)
    assert mean.shape == var.shape == (5, 12, 6)
    for i in range(5):
        row_mean, row_var = dynamics.predict(m, s[i], a[i])
        assert np.max(np.abs(mean[i] - row_mean)) <= 1e-12
        assert np.max(np.abs(var[i] - row_var)) <= 1e-12 * np.max(row_var)
    with pytest.raises(ShapeError, match=re.escape("expected dims (..., 6), (..., 2)")):
        dynamics.predict(m, s[..., :5], a)


def test_kl_on_stacks_is_one_kl_per_row():
    rng = np.random.default_rng(16)
    pm, qm = rng.standard_normal((2, 30, 4))
    pv, qv = rng.uniform(0.1, 2.0, (2, 30, 4))
    got = dynamics.gaussian_kl(pm, pv, qm, qv)
    assert got.shape == (30,)
    want = [dynamics.gaussian_kl(pm[i], pv[i], qm[i], qv[i]) for i in range(30)]
    assert np.array_equal(got, want)


def test_nll_value_oracle():
    rng = np.random.default_rng(2)
    m = dynamics.make_dynamics(2, 1, [6], rng)
    batch = random_batch(rng, n=4, d_s=2, d_a=1)
    loss, _ = dynamics.nll(m, batch)
    total = 0.0
    for i in range(4):
        mean, var = dynamics.predict(m, batch.s[i], batch.a[i])
        logp = -0.5 * np.sum(np.log(2 * np.pi * var)
                             + (batch.s_next[i] - mean) ** 2 / var)
        total -= logp
    assert loss == pytest.approx(total / 4, rel=1e-12)


def test_nll_gradient_matches_fd():
    rng = np.random.default_rng(3)
    m = dynamics.make_dynamics(2, 1, [5], rng)
    batch = random_batch(rng, n=6, d_s=2, d_a=1)
    base = nets.get_params(m.net)
    _, analytic = dynamics.nll(m, batch)

    def loss_at(p):
        nets.set_params(m.net, p)
        val, _ = dynamics.nll(m, batch)
        return val

    h = 1e-6
    numeric = np.zeros_like(base)
    for i in range(base.size):
        p = base.copy()
        p[i] += h
        up = loss_at(p)
        p[i] -= 2 * h
        numeric[i] = (up - loss_at(p)) / (2 * h)
    nets.set_params(m.net, base)
    denom = np.maximum(np.abs(numeric), 1e-8)
    assert np.max(np.abs(analytic - numeric) / denom) < 1e-5


def test_kl_identical_is_zero():
    rng = np.random.default_rng(4)
    mean = rng.standard_normal(3)
    var = rng.uniform(0.5, 2.0, 3)
    kl = dynamics.gaussian_kl(mean, var, mean, var)
    # one vector each gives a float
    assert type(kl) is np.float64 and kl == 0.0


def test_kl_unit_offset_closed_form():
    # equal unit variances, one dim offset by 1: KL = 1/2 exactly
    mean = np.zeros(4)
    off = mean.copy()
    off[0] = 1.0
    var = np.ones(4)
    assert dynamics.gaussian_kl(mean, var, off, var) == pytest.approx(0.5, abs=1e-15)


def test_kl_additivity_over_dims():
    rng = np.random.default_rng(5)
    pm = rng.standard_normal(3)
    pv = rng.uniform(0.5, 2.0, 3)
    qm = rng.standard_normal(3)
    qv = rng.uniform(0.5, 2.0, 3)
    whole = dynamics.gaussian_kl(pm, pv, qm, qv)
    parts = sum(dynamics.gaussian_kl(pm[i:i + 1], pv[i:i + 1],
                                     qm[i:i + 1], qv[i:i + 1]) for i in range(3))
    assert whole == pytest.approx(parts, rel=1e-12)


def test_kl_matches_quadrature():
    # one dim, KL(p||q) integrated numerically on a wide grid
    pm, pv = np.array([0.3]), np.array([0.8])
    qm, qv = np.array([-0.5]), np.array([1.7])
    closed = dynamics.gaussian_kl(pm, pv, qm, qv)
    x = np.linspace(-12, 12, 200001)
    p = np.exp(-0.5 * (x - pm[0]) ** 2 / pv[0]) / np.sqrt(2 * np.pi * pv[0])
    q = np.exp(-0.5 * (x - qm[0]) ** 2 / qv[0]) / np.sqrt(2 * np.pi * qv[0])
    grid = float(np.trapezoid(p * (np.log(p + 1e-300) - np.log(q + 1e-300)), x))
    assert closed == pytest.approx(grid, abs=1e-3)


def test_kl_validation():
    with pytest.raises(ShapeError):
        dynamics.gaussian_kl(np.zeros(2), np.ones(2), np.zeros(3), np.ones(3))
    with pytest.raises(ConfigError):
        dynamics.gaussian_kl(np.zeros(2), np.zeros(2), np.zeros(2), np.ones(2))


def test_pool_nll_is_mean_nll():
    rng = np.random.default_rng(6)
    m = dynamics.make_dynamics(2, 1, [4], rng)
    batch = random_batch(rng, n=5, d_s=2, d_a=1)
    loss, _ = dynamics.nll(m, batch)
    assert dynamics.pool_nll(m, batch) == loss


def test_train_joint_reduces_pool_nll():
    rng = np.random.default_rng(7)
    m = dynamics.make_dynamics(2, 1, [16], rng)
    s = rng.standard_normal((128, 2))
    a = rng.standard_normal((128, 1))
    s_next = s + 0.1 * np.concatenate([a, a], axis=1)
    real = TransitionBatch(s, a, s_next)
    curve = dynamics.train_joint(m, real, None, 30, np.random.default_rng(8),
                                 batch_size=32, step_size=3e-3)
    assert [epoch for epoch, _ in curve] == [0, 10, 20, 30]
    assert curve[-1][1] < curve[0][1]


def test_train_joint_none_synthetic_matches_real_only_pool():
    # passing the real rows again under a synthetic tag must visit the
    # same pool in the same shuffled order as doubling them by hand
    rng = np.random.default_rng(9)
    real = random_batch(rng, n=10, d_s=2, d_a=1)
    m1 = dynamics.make_dynamics(2, 1, [6], np.random.default_rng(1))
    m2 = dynamics.make_dynamics(2, 1, [6], np.random.default_rng(1))
    dynamics.train_joint(m1, real, None, 5, np.random.default_rng(2))
    dynamics.train_joint(m2, real, None, 5, np.random.default_rng(2))
    assert np.array_equal(nets.get_params(m1.net), nets.get_params(m2.net))


def test_train_joint_uses_synthetic_rows():
    rng = np.random.default_rng(10)
    real = random_batch(rng, n=10, d_s=2, d_a=1)
    syn = TransitionBatch(real.s + 5.0, real.a, real.s_next + 5.0)
    m1 = dynamics.make_dynamics(2, 1, [6], np.random.default_rng(1))
    m2 = dynamics.make_dynamics(2, 1, [6], np.random.default_rng(1))
    dynamics.train_joint(m1, real, None, 5, np.random.default_rng(2))
    dynamics.train_joint(m2, real, syn, 5, np.random.default_rng(2))
    assert not np.array_equal(nets.get_params(m1.net), nets.get_params(m2.net))


def test_train_joint_matches_reference_loop():
    # oracle: the plain loop over the public API -- a fresh TransitionBatch
    # gathered per minibatch, nll's loss-and-gradient for every curve point
    # -- must give the same parameters and curve bit for bit. 60 rows in
    # minibatches of 16 leave a partial last one, and 23 epochs put the
    # last curve point off the CURVE_EVERY grid
    rng = np.random.default_rng(13)
    real = random_batch(rng, n=37, d_s=2, d_a=1)
    syn = random_batch(rng, n=23, d_s=2, d_a=1)
    m = dynamics.make_dynamics(2, 1, [8, 8], np.random.default_rng(1))
    ref = dynamics.make_dynamics(2, 1, [8, 8], np.random.default_rng(1))
    curve = dynamics.train_joint(m, real, syn, 23, np.random.default_rng(2),
                                 batch_size=16, step_size=3e-3)

    pool = TransitionBatch(np.concatenate([real.s, syn.s]),
                           np.concatenate([real.a, syn.a]),
                           np.concatenate([real.s_next, syn.s_next]))
    shuffle = np.random.default_rng(2)
    params = nets.get_params(ref.net)
    opt = nets.adam_init(params.size, step_size=3e-3)
    ref_curve = [(0, dynamics.nll(ref, pool)[0])]
    for epoch in range(1, 24):
        order = shuffle.permutation(len(pool))
        for lo in range(0, len(pool), 16):
            idx = order[lo:lo + 16]
            sub = TransitionBatch(pool.s[idx], pool.a[idx], pool.s_next[idx])
            nets.optimizer_step(opt, params, dynamics.nll(ref, sub)[1])
            nets.set_params(ref.net, params)
        if epoch in (10, 20, 23):
            ref_curve.append((epoch, dynamics.nll(ref, pool)[0]))

    assert [epoch for epoch, _ in ref_curve] == [0, 10, 20, 23]
    assert curve == ref_curve
    assert np.array_equal(nets.get_params(m.net), nets.get_params(ref.net))


def test_predict_returns_arrays_no_later_call_overwrites():
    rng = np.random.default_rng(18)
    m = dynamics.make_dynamics(2, 1, [8], rng)
    s, a = rng.standard_normal((5, 2)), rng.standard_normal((5, 1))
    mean, var = dynamics.predict(m, s, a)
    kept = mean.copy(), var.copy()
    dynamics.predict(m, s + 1.0, a)
    dynamics.train_joint(m, random_batch(rng, n=9, d_s=2, d_a=1), None, 1,
                         np.random.default_rng(0), batch_size=4)
    dynamics.predict(m, s, a)
    assert np.array_equal(mean, kept[0]) and np.array_equal(var, kept[1])


def test_train_joint_without_curve_trains_the_same_parameters():
    rng = np.random.default_rng(19)
    real = random_batch(rng, n=21, d_s=2, d_a=1)
    syn = random_batch(rng, n=6, d_s=2, d_a=1)
    m1 = dynamics.make_dynamics(2, 1, [8, 8], np.random.default_rng(1))
    m2 = dynamics.make_dynamics(2, 1, [8, 8], np.random.default_rng(1))
    curve = dynamics.train_joint(m1, real, syn, 12, np.random.default_rng(2), batch_size=8)
    assert [epoch for epoch, _ in curve] == [0, 10, 12]
    assert dynamics.train_joint(m2, real, syn, 12, np.random.default_rng(2), batch_size=8,
                                curve=False) is None
    assert np.array_equal(m1.net.params, m2.net.params)


def test_clone_is_independent():
    rng = np.random.default_rng(11)
    m = dynamics.make_dynamics(2, 1, [4], rng)
    c = oracles.clone_dynamics(m)
    before = nets.get_params(m.net).copy()
    params = nets.get_params(c.net)
    params += 1.0
    nets.set_params(c.net, params)
    assert np.array_equal(nets.get_params(m.net), before)
    # training the clone moves its predictions and leaves the original's
    s, a = rng.standard_normal(2), rng.standard_normal(1)
    m_pred, c_pred = dynamics.predict(m, s, a), dynamics.predict(c, s, a)
    dynamics.train_joint(c, random_batch(rng, n=20, d_s=2, d_a=1), None, 2,
                         np.random.default_rng(0), batch_size=8)
    assert all(np.array_equal(x, y) for x, y in zip(dynamics.predict(m, s, a), m_pred))
    assert not np.array_equal(dynamics.predict(c, s, a)[0], c_pred[0])


def test_dynamics_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    m = dynamics.make_dynamics(3, 2, [7], rng)
    path = str(tmp_path / "dyn.bin")
    dynamics.save_dynamics(m, path)
    back = dynamics.load_dynamics(path)
    assert (back.d_s, back.d_a) == (3, 2)
    assert np.array_equal(nets.get_params(back.net), nets.get_params(m.net))
    s, a = rng.standard_normal(3), rng.standard_normal(2)
    m_mean, m_var = dynamics.predict(m, s, a)
    b_mean, b_var = dynamics.predict(back, s, a)
    assert np.array_equal(m_mean, b_mean) and np.array_equal(m_var, b_var)
