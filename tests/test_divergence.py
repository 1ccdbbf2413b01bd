import numpy as np
import pytest

from uepo import divergence
from uepo.divergence import DivergenceConfig
from uepo.errors import DegenerateHorizonError, ShapeError


def brute_force_div(a_i, a_j):
    """Independent evaluator: index-by-index, no vectorization."""
    T = a_i.shape[0]
    total = 0.0
    for t in range(1, T):
        v_i = a_i[t] - a_i[t - 1]
        v_j = a_j[t] - a_j[t - 1]
        total += float(np.sqrt(np.sum((v_i - v_j) ** 2)))
    for t in range(2, T):
        acc_i = a_i[t] - 2 * a_i[t - 1] + a_i[t - 2]
        acc_j = a_j[t] - 2 * a_j[t - 1] + a_j[t - 2]
        ni = float(np.sqrt(np.sum(acc_i**2)))
        nj = float(np.sqrt(np.sum(acc_j**2)))
        if ni == 0.0 or nj == 0.0:
            cos = 1.0
        else:
            cos = float(np.dot(acc_i, acc_j) / (ni * nj))
        total += 1.0 - cos
    return total / T


def test_div_identity_is_exactly_zero():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.standard_normal((rng.integers(3, 8), 2))
        assert divergence.div(a, a) == 0.0


def test_div_hand_stepped_fixture():
    # velocities differ by 1 at three steps, accelerations are all zero
    # so the cosine convention contributes nothing: 3/4
    a_i = np.zeros((4, 1))
    a_j = np.array([[0.0], [1.0], [2.0], [3.0]])
    assert divergence.div(a_i, a_j) == pytest.approx(0.75, abs=1e-15)


def test_div_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(50):
        T = int(rng.integers(3, 13))
        d = int(rng.integers(1, 5))
        a_i = rng.standard_normal((T, d))
        a_j = rng.standard_normal((T, d))
        assert divergence.div(a_i, a_j) == pytest.approx(
            brute_force_div(a_i, a_j), abs=1e-9)


def test_div_symmetry_and_sign_flip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a_i = rng.standard_normal((6, 2))
        a_j = rng.standard_normal((6, 2))
        d = divergence.div(a_i, a_j)
        assert divergence.div(a_j, a_i) == pytest.approx(d, abs=1e-12)
        assert divergence.div(-a_i, -a_j) == pytest.approx(d, abs=1e-12)


def test_div_validation():
    with pytest.raises(ShapeError):
        divergence.div(np.zeros((4, 1)), np.zeros((4, 2)))
    with pytest.raises(DegenerateHorizonError):
        divergence.div(np.zeros((2, 1)), np.zeros((2, 1)))


def test_sigma_div_endpoints_and_midpoint():
    cfg = DivergenceConfig(tau=0.5, eta=0.1, guided_steps=10)
    assert divergence.sigma_div(0.0, cfg) == 0.1
    assert divergence.sigma_div(0.5, cfg) == 0.0
    assert divergence.sigma_div(0.7, cfg) == 0.0
    assert divergence.sigma_div(0.25, cfg) == pytest.approx(0.05, abs=1e-15)


def test_perturb_zero_sigma_is_identity():
    a = np.ones((4, 2))
    out = divergence.perturb(a, 0.0, np.random.default_rng(0))
    assert np.array_equal(out, a)


def test_perturb_is_seeded():
    a = np.zeros((5, 2))
    x = divergence.perturb(a, 0.3, np.random.default_rng(7))
    y = divergence.perturb(a, 0.3, np.random.default_rng(7))
    assert np.array_equal(x, y)
    z = divergence.perturb(a, 0.3, np.random.default_rng(8))
    assert not np.array_equal(x, z)


def test_perturb_variance_monte_carlo():
    rng = np.random.default_rng(9)
    deltas = divergence.perturb(np.zeros((5000, 2)), 0.05, rng)
    var = float(np.var(deltas))
    assert abs(var - 0.0025) / 0.0025 < 0.1


def test_guide_without_predecessors_raises():
    cfg = DivergenceConfig(tau=0.5, eta=0.1, guided_steps=10)
    a = np.random.default_rng(1).standard_normal((3, 5, 2))
    with pytest.raises(ShapeError):
        divergence.guide(a, np.empty((3, 0, 5, 2)), cfg, [np.random.default_rng(2)] * 3)


def test_guide_far_predecessor_is_identity():
    # row 0's only predecessor is far, row 1's is itself: row 0 comes back
    # unchanged and leaves its generator where it was
    cfg = DivergenceConfig(tau=0.1, eta=0.5, guided_steps=10)
    a = np.random.default_rng(3).standard_normal((2, 6, 2))
    far = a[0] + 100.0 * np.arange(6)[:, None]  # divergence well above tau
    assert divergence.div(a[0], far) > cfg.tau
    rngs = [np.random.default_rng(4), np.random.default_rng(5)]
    out = divergence.guide(a, np.stack([far, a[1]])[:, None], cfg, rngs)
    assert np.array_equal(out[0], a[0])
    assert rngs[0].random() == np.random.default_rng(4).random()
    assert not np.array_equal(out[1], a[1])


def test_guide_close_predecessor_perturbs():
    # each row moves by its own generator's draws, at sigma_div(0) = eta
    cfg = DivergenceConfig(tau=0.5, eta=0.1, guided_steps=10)
    a = np.zeros((3, 6, 2))
    out = divergence.guide(a, np.stack([a, a + 1.0], axis=1), cfg,
                           [np.random.default_rng(seed) for seed in (5, 6, 7)])
    for row, seed in zip(out, (5, 6, 7)):
        want = divergence.perturb(np.zeros((6, 2)), 0.1, np.random.default_rng(seed))
        assert np.array_equal(row, want)
    with pytest.raises(ValueError):  # one generator per row, no fewer
        divergence.guide(a, np.stack([a], axis=1), cfg, [np.random.default_rng(5)] * 2)


def test_min_div_matches_div():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 5, 2))
    preds = rng.standard_normal((6, 3, 5, 2))
    preds[1, 2] = a[1]  # an identical predecessor: minimum exactly 0
    preds[2, :, :, :] = np.arange(5.0)[:, None]  # zero accelerations
    a[3] = 2.0 * np.arange(5.0)[:, None]
    got = divergence.min_div(a, preds)
    assert got.shape == (6,)
    for b in range(6):
        want = min(divergence.div(a[b], p) for p in preds[b])
        assert abs(got[b] - want) <= 1e-12
    assert got[1] == 0.0
    with pytest.raises(ShapeError):
        divergence.min_div(a, preds[:, :, :4])
    with pytest.raises(ShapeError):
        divergence.min_div(a, preds[:, :0])
    with pytest.raises(DegenerateHorizonError):
        divergence.min_div(a[:, :2], preds[:, :, :2])


def test_min_pairwise_div():
    # every pair in one stacked call, bit for bit the smallest div of a pair
    rng = np.random.default_rng(6)
    seqs = [rng.standard_normal((5, 2)) for _ in range(4)]
    want = min(divergence.div(a, b) for i, a in enumerate(seqs) for b in seqs[i + 1:])
    assert divergence.min_pairwise_div(seqs) == want
    for n, T, d in ((2, 4, 1), (5, 6, 2), (8, 12, 2), (4, 7, 3)):
        seqs = rng.standard_normal((n, T, d))
        seqs[0, 1:4] = seqs[0, 1] + np.arange(3.0)[:, None]  # zero accelerations
        seqs[1, :] = 0.5                                      # all-zero accelerations
        want = min(divergence.div(seqs[i], seqs[j]) for i in range(n)
                   for j in range(i + 1, n))
        assert divergence.min_pairwise_div(seqs) == want
    with pytest.raises(ShapeError):
        divergence.min_pairwise_div(seqs[:1])
    with pytest.raises(ShapeError):
        divergence.min_pairwise_div([seqs[0], seqs[1][:5]])
