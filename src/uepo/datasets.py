"""Trajectory containers and the line-delimited dataset file format.

A dataset file is one JSON header line (format tag, version, metadata)
followed by one JSON record per trajectory with flat f64 arrays. Floats
are rendered with Python's shortest round-trip repr, so save followed
by load is bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .nets import atomic_write_bytes

FORMAT_TAG = "uepo-trajectory-dataset"
FORMAT_VERSION = 1


@dataclass
class Trajectory:
    """One rollout: transition triples (states[t], actions[t], next_states[t]),
    per-step rewards, the generator seed and an optional mode label."""

    states: np.ndarray
    actions: np.ndarray
    next_states: np.ndarray
    rewards: np.ndarray | None = None
    seed: int = 0
    mode: int | None = None

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        self.actions = np.asarray(self.actions, dtype=float)
        self.next_states = np.asarray(self.next_states, dtype=float)
        if self.states.ndim != 2 or self.actions.ndim != 2:
            raise ShapeError("states and actions must be 2-D (T, dim) arrays")
        if self.next_states.shape != self.states.shape:
            raise ShapeError(
                f"next_states shape {self.next_states.shape} != states shape {self.states.shape}"
            )
        if len(self.actions) != len(self.states):
            raise ShapeError(
                f"{len(self.actions)} actions for {len(self.states)} states"
            )
        if self.rewards is not None:
            self.rewards = np.asarray(self.rewards, dtype=float)
            if self.rewards.shape != (len(self.states),):
                raise ShapeError(f"rewards shape {self.rewards.shape} != ({len(self.states)},)")

    def __len__(self) -> int:
        return len(self.states)


@dataclass
class TrajectoryDataset:
    """Trajectory list plus metadata; trajectories may differ in length but
    share the metadata's state/action dims."""

    trajectories: list[Trajectory]
    meta: dict

    def __post_init__(self):
        for key in ("env", "d_s", "d_a"):
            if key not in self.meta:
                raise ConfigError(f"dataset metadata missing required key {key!r}")
        d_s, d_a = int(self.meta["d_s"]), int(self.meta["d_a"])
        for idx, tr in enumerate(self.trajectories):
            if tr.states.shape[1] != d_s or tr.actions.shape[1] != d_a:
                raise ShapeError(
                    f"trajectory {idx} dims ({tr.states.shape[1]}, {tr.actions.shape[1]}) "
                    f"do not match metadata ({d_s}, {d_a})"
                )

    def __len__(self) -> int:
        return len(self.trajectories)


def n_transitions(ds: TrajectoryDataset) -> int:
    return sum(len(tr) for tr in ds.trajectories)


def transitions(ds: TrajectoryDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All (s, a, s') triples stacked across trajectories, in file order."""
    if not ds.trajectories:
        d_s, d_a = int(ds.meta["d_s"]), int(ds.meta["d_a"])
        return (np.zeros((0, d_s)), np.zeros((0, d_a)), np.zeros((0, d_s)))
    s = np.concatenate([tr.states for tr in ds.trajectories])
    a = np.concatenate([tr.actions for tr in ds.trajectories])
    s2 = np.concatenate([tr.next_states for tr in ds.trajectories])
    return s, a, s2


def initial_states(ds: TrajectoryDataset) -> np.ndarray:
    if not ds.trajectories:
        return np.zeros((0, int(ds.meta["d_s"])))
    return np.stack([tr.states[0] for tr in ds.trajectories])


def _record(tr: Trajectory, env_name: str) -> dict:
    rec = {
        "env": env_name,
        "seed": int(tr.seed),
        "mode": tr.mode if tr.mode is None else int(tr.mode),
        "states": tr.states.ravel().tolist(),
        "actions": tr.actions.ravel().tolist(),
        "next_states": tr.next_states.ravel().tolist(),
        "rewards": None if tr.rewards is None else tr.rewards.tolist(),
    }
    return rec


def dataset_bytes(ds: TrajectoryDataset) -> bytes:
    header = {"format": FORMAT_TAG, "version": FORMAT_VERSION}
    header.update({k: ds.meta[k] for k in sorted(ds.meta)})
    lines = [json.dumps(header, separators=(",", ":"))]
    env_name = str(ds.meta["env"])
    for tr in ds.trajectories:
        lines.append(json.dumps(_record(tr, env_name), separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode("utf-8")


def save_dataset(ds: TrajectoryDataset, path: str) -> None:
    atomic_write_bytes(path, dataset_bytes(ds))


def load_dataset(path: str) -> TrajectoryDataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    if not lines:
        raise ConfigError(f"{path}: empty dataset file")
    where = "header"
    try:
        header = json.loads(lines[0])
        if header.get("format") != FORMAT_TAG:
            raise ConfigError(f"not a {FORMAT_TAG} file")
        if header.get("version") != FORMAT_VERSION:
            raise ConfigError(f"unsupported version {header.get('version')}")
        meta = {k: v for k, v in header.items() if k not in ("format", "version")}
        # the header's keys are checked here; reshaping gives every record its dims
        ds = TrajectoryDataset([], meta)
        d_s, d_a = int(meta["d_s"]), int(meta["d_a"])
        for n, ln in enumerate(lines[1:], start=1):
            where = f"record {n}"
            rec = json.loads(ln)
            states = np.asarray(rec["states"], dtype=float).reshape(-1, d_s)
            if len(states) == 0:
                raise ConfigError("no transitions")
            actions = np.asarray(rec["actions"], dtype=float).reshape(-1, d_a)
            nxt = np.asarray(rec["next_states"], dtype=float).reshape(-1, d_s)
            rewards = None if rec["rewards"] is None else np.asarray(rec["rewards"], dtype=float)
            # json reads NaN and Infinity, and a number past the f64 range as infinity
            if not all(np.isfinite(x).all() for x in (states, actions, nxt, rewards)
                       if x is not None):
                raise ConfigError("a non-finite number (NaN or infinity)")
            if rec["env"] != meta["env"]:
                raise ConfigError(f"env {rec['env']!r} differs from the header's {meta['env']!r}")
            mode = rec["mode"] if rec["mode"] is None else int(rec["mode"])
            ds.trajectories.append(Trajectory(states, actions, nxt, rewards, int(rec["seed"]),
                                              mode))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {where} is not JSON: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"{path}: {where} has no key {exc}") from exc
    except ValueError as exc:  # includes ConfigError and ShapeError
        raise ConfigError(f"{path}: {where}: {exc}") from exc
    return ds
