"""Span recording around calls into the program's public functions.

The wrappers are installed from here, not in the program: each traced
function is replaced in every ``uepo`` module namespace that holds it,
because a module that imported a name (``from .diffusion import sample``)
looks it up in its own namespace. Spans (name, start, end, parent) are
kept in flat in-memory arrays and written once at the end.
"""

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

TRACED = (
    "diffusion.sample", "diffusion.reverse_step", "diffusion.sample_ensemble",
    "diffusion.train_denoiser", "diffusion.denoising_loss",
    "divergence.guide", "divergence.div",
    "nets.forward", "nets.forward_activations", "nets.backward", "nets.optimizer_step",
    "nets.get_params", "nets.set_params", "nets.time_embedding",
    "dynamics.train_joint", "dynamics.pool_nll", "dynamics.predict", "dynamics.gaussian_kl",
    "augmentation.build_augmented", "augmentation.rollout_virtual",
    "augmentation.trajectory_kl",
    "envs.step", "envs.true_dist", "envs.rollout_open_loop",
    "finetune.select_policy", "finetune.distill", "finetune.ppo_finetune",
    "finetune.collect_episodes", "finetune.sample_action", "finetune.ppo_surrogate",
    "datasets.save_dataset", "datasets.load_dataset",
)


class Tracer:
    """Flat span arrays plus a few counters taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts = Counter()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn, on_call=None):
        nid = self._id(name)
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = opened(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(idx)

        return traced

    def _count_forward(self, args):
        net, x = args[0], args[1]
        rows = 1 if np.ndim(x) == 1 else len(x)
        widths = net.layer_widths
        self.counts["nets.forward.rows"] += rows
        self.counts["nets.forward.flop"] += 2 * rows * sum(
            i * o for i, o in zip(widths[:-1], widths[1:]))

    def _counting_perturb(self, fn):
        @functools.wraps(fn)
        def counted(a, sigma, rng):
            self.counts["divergence.guide.fired"] += sigma > 0.0
            return fn(a, sigma, rng)

        return counted

    def install(self):
        """Wrap every TRACED function wherever ``uepo`` holds it; returns undo."""
        replace = {}
        for qual in TRACED:
            mod_name, fn_name = qual.split(".")
            fn = getattr(importlib.import_module(f"uepo.{mod_name}"), fn_name)
            hook = self._count_forward if qual == "nets.forward" else None
            replace[id(fn)] = (fn, self._wrap(qual, fn, hook))
        perturb = importlib.import_module("uepo.divergence").perturb
        replace[id(perturb)] = (perturb, self._counting_perturb(perturb))
        undo = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "uepo" or mod_name.startswith("uepo.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    undo.append((mod, attr, value))

        def restore():
            for mod, attr, value in undo:
                setattr(mod, attr, value)

        return restore

    def summary(self):
        """Per span name: calls, self seconds and total seconds.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        self_tot = np.bincount(nid, weights=self_s, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        return {name: (int(calls[i]), float(self_tot[i]), float(total[i]))
                for i, name in enumerate(self.names)}

    def save(self, path):
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end))
