import json

import numpy as np
import pytest

import oracles
from uepo import datasets
from uepo.datasets import Trajectory, TrajectoryDataset
from uepo.errors import ConfigError, ShapeError


def make_traj(rng, length=4, d_s=2, d_a=1, seed=0, mode=None, rewards=True):
    states = rng.standard_normal((length + 1, d_s))
    actions = rng.standard_normal((length, d_a))
    r = rng.standard_normal(length) if rewards else None
    return Trajectory(states[:-1], actions, states[1:], r, seed=seed, mode=mode)


def make_ds(rng, n=3, **kw):
    trajs = [make_traj(rng, seed=i, mode=i % 2, **kw) for i in range(n)]
    return TrajectoryDataset(trajs, {"env": "test", "d_s": 2, "d_a": 1})


def test_trajectory_validation():
    with pytest.raises(ShapeError):
        Trajectory(np.zeros((3, 2)), np.zeros((2, 1)), np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        Trajectory(np.zeros((3, 2)), np.zeros((3, 1)), np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        Trajectory(np.zeros((3, 2)), np.zeros((3, 1)), np.zeros((3, 2)),
                   rewards=np.zeros(2))


def test_check_chain():
    states = np.array([[0.0], [1.0], [2.0]])
    good = Trajectory(states, np.zeros((3, 1)),
                      np.array([[1.0], [2.0], [3.0]]))
    assert oracles.check_chain(good)
    bad = Trajectory(states, np.zeros((3, 1)),
                     np.array([[1.0], [2.5], [3.0]]))
    assert not oracles.check_chain(bad)


def test_dataset_requires_meta_keys():
    tr = make_traj(np.random.default_rng(0))
    with pytest.raises(ConfigError):
        TrajectoryDataset([tr], {"env": "test"})
    with pytest.raises(ShapeError):
        TrajectoryDataset([tr], {"env": "test", "d_s": 5, "d_a": 1})


def test_counts_and_pools():
    ds = make_ds(np.random.default_rng(1), n=5)
    assert datasets.n_transitions(ds) == 20
    s, a, s_next = datasets.transitions(ds)
    assert s.shape == (20, 2) and a.shape == (20, 1) and s_next.shape == (20, 2)
    assert datasets.initial_states(ds).shape == (5, 2)
    assert oracles.mode_counts(ds) == {0: 3, 1: 2}


def test_round_trip_is_bit_exact(tmp_path):
    ds = make_ds(np.random.default_rng(2), n=4)
    path = str(tmp_path / "d.jsonl")
    datasets.save_dataset(ds, path)
    back = datasets.load_dataset(path)
    assert back.meta == ds.meta
    assert len(back) == len(ds)
    for a, b in zip(ds.trajectories, back.trajectories):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.next_states, b.next_states)
        assert np.array_equal(a.rewards, b.rewards)
        assert (a.seed, a.mode) == (b.seed, b.mode)
    # and the serialized form itself is stable
    assert datasets.dataset_bytes(back) == datasets.dataset_bytes(ds)


def test_round_trip_without_rewards(tmp_path):
    rng = np.random.default_rng(3)
    tr = make_traj(rng, rewards=False)
    ds = TrajectoryDataset([tr], {"env": "test", "d_s": 2, "d_a": 1})
    path = str(tmp_path / "d.jsonl")
    datasets.save_dataset(ds, path)
    assert datasets.load_dataset(path).trajectories[0].rewards is None


def test_file_is_json_lines(tmp_path):
    ds = make_ds(np.random.default_rng(4), n=2)
    path = tmp_path / "d.jsonl"
    datasets.save_dataset(ds, str(path))
    lines = path.read_text().strip().split("\n")
    header = json.loads(lines[0])
    assert header["format"] and "version" in header
    assert len(lines) == 3
    for ln in lines[1:]:
        rec = json.loads(ln)
        assert {"env", "seed", "states", "actions", "next_states"} <= set(rec)


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"format":"something-else","version":1}\n')
    with pytest.raises(ConfigError):
        datasets.load_dataset(str(path))
    path.write_text("")
    with pytest.raises(ConfigError):
        datasets.load_dataset(str(path))


@pytest.mark.parametrize("key, text", [("states", "NaN"), ("next_states", "-Infinity"),
                                       ("actions", "1e999"), ("rewards", "Infinity")])
def test_load_rejects_non_finite_numbers(tmp_path, key, text):
    # json reads all four texts, the last as a float overflowing to infinity
    ds = make_ds(np.random.default_rng(5), n=2)
    ds.trajectories[1].rewards = np.zeros(len(ds.trajectories[1]))
    path = tmp_path / "d.jsonl"
    datasets.save_dataset(ds, str(path))
    lines = path.read_text().split("\n")
    rec = json.loads(lines[2])
    rec[key][0] = "X"
    lines[2] = json.dumps(rec).replace('"X"', text)
    path.write_text("\n".join(lines))
    with pytest.raises(ConfigError, match="record 2: a non-finite number"):
        datasets.load_dataset(str(path))
