"""Benchmark of the uepo pipeline, run from a source checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: pm-pipeline and pend-ensemble (see workloads.py and
README.md). With ``--trace 0`` the run repeats whole rounds of the
workload, in turn with rounds of the frozen reference copy ``uepo_ref``,
until ``--seconds`` have passed, and prints the end-to-end metrics. With
``--trace 1`` it runs one untraced round and then one traced round at the
same seed, and prints the per-layer metrics, including the tracing
overhead. The last line of standard
output is the JSON result; everything before it is for people.
"""

import os

# One BLAS thread, pinned before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import fcntl  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 7
sys.path[:0] = [BENCH, SRC]

import checks  # noqa: E402
import spans  # noqa: E402

try:
    import numpy as np
    import workloads
except ImportError as _exc:
    print(f"bench: cannot import the program from {SRC}: {_exc}", file=sys.stderr)
    sys.exit(2)

WORKLOAD_NAMES = ("pm-pipeline", "pend-ensemble")

# Checks that fail on every seed today because the program is at fault.
KNOWN_FAULTS = {"check:F2.select_argmax": "F2: selection_scores.csv holds np.float64(...) text"}

END_TO_END = (("setup_s", "s"), ("run_ratio", "ratio"), ("peak_rss_mb", "MB"))

# Per-layer figures taken from the untraced round of a traced run; 0 where
# the workload does not run that part of the program.
FIGURES = (("train_diffusion.examples_per_s", "examples/s"),
           ("train_dynamics.rows_per_s", "rows/s"),
           ("augment.synthetic_per_s", "transitions/s"),
           ("augment.synthetic_transitions", "count"),
           ("augmentation.acceptance_ratio", "ratio"),
           ("augmentation.fill_ratio", "ratio"),
           ("ensemble.sequences_per_s", "sequences/s"),
           ("select.rollouts_per_s", "rollouts/s"))

_SETUP_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
                "workloads.set_up(sys.argv[3], int(sys.argv[4]), sys.argv[5])")


def machine_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cores": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def measure_setup(name, seed, root):
    """Median wall time of a fresh interpreter doing the workload's set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_PROBE, BENCH, SRC, name, str(seed), root],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    shutil.rmtree(root, ignore_errors=True)
    return statistics.median(times)


def source_key():
    """Hash of the program's sources and the workload definitions."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "uepo")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    with open(os.path.join(BENCH, "workloads.py"), "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def repeat_check(rnd, earlier, record_path):
    """Byte-identical manifests across rounds and runs at one seed.

    Compares the round's digest with the earlier rounds of this process and
    with the record an earlier run at the same seed and sources left; the
    first run records it.
    """
    def same():
        checks.require(rnd.digest, "no manifests to compare")
        seen = list(earlier)
        if os.path.isfile(record_path):
            with open(record_path, "r", encoding="utf-8") as fh:
                seen.append(json.load(fh))
        else:
            os.makedirs(os.path.dirname(record_path), exist_ok=True)
            tmp = f"{record_path}.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(rnd.digest, fh, sort_keys=True)
            os.replace(tmp, record_path)
        for other in seen:
            diff = sorted(k for k in set(other) | set(rnd.digest)
                          if other.get(k) != rnd.digest.get(k))
            checks.require(not diff, f"differs from an earlier run in {', '.join(diff)}")

    rnd.check("repeat.manifests", same)


def run_pairs(wl, cfg, cfg_path, ref_cfg, ref_path, seconds, record_path):
    """Rounds of the program and of the reference copy in turn until
    ``seconds`` pass. The order flips every pair, so neither always runs first."""
    rounds, refs = [], []
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < seconds:
        if len(rounds) % 2:
            refs.append(workloads.reference_round(wl, ref_cfg, ref_path))
        rnd = workloads.pipeline_round(wl, cfg, cfg_path, None)
        repeat_check(rnd, [r.digest for r in rounds], record_path)
        rounds.append(rnd)
        if len(rounds) % 2:
            refs.append(workloads.reference_round(wl, ref_cfg, ref_path))
    return rounds, refs


def run_traced(wl, cfg, cfg_path, tracer, record_path):
    """One untraced round, then one traced round at the same seed."""
    untraced = workloads.pipeline_round(wl, cfg, cfg_path, None)
    repeat_check(untraced, [], record_path)
    restore = tracer.install()
    try:
        traced = workloads.pipeline_round(wl, cfg, cfg_path, tracer)
    finally:
        restore()
    repeat_check(traced, [untraced.digest], record_path)
    return [untraced, traced]


def fastest_round_s(rounds):
    """A round's time with each stage at its fastest repeat.

    Every round of a run repeats identical work, and on a shared machine
    other tenants only ever add time; the fastest repeat leaves out the
    repeats they slowed most.
    """
    return sum(min(r.stage_s[stage] for r in rounds) for stage in rounds[0].stage_s)


def end_to_end(rounds, refs, setup_s):
    return {"setup_s": setup_s,
            "run_ratio": fastest_round_s(rounds) / fastest_round_s(refs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def per_layer(untraced, traced, tracer, cfg, stages):
    base = traced.op_s
    out = {}
    for stage in stages:
        out[f"cli.stage_pct.{stage}"] = (
            100.0 * untraced.stage_s.get(stage, 0.0) / untraced.op_s, "%")
    summary = tracer.summary()
    for name in spans.TRACED:
        calls, self_s, total_s = summary.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_pct"] = (100.0 * self_s / base, "%")
        out[f"{name}.total_pct"] = (100.0 * total_s / base, "%")
    calls = {name: summary.get(name, (0, 0.0, 0.0)) for name in spans.TRACED}
    n_sample, _, sample_s = calls["diffusion.sample"]
    n_forward = calls["nets.forward"][0]
    n_guide = calls["divergence.guide"][0]
    n_surrogate = calls["finetune.ppo_surrogate"][0]
    ppo_epochs = cfg["ppo.iterations"] * cfg["ppo.epochs_per_batch"]
    out["diffusion.sample.ms_per_call"] = (1000.0 * sample_s / max(n_sample, 1), "ms")
    out["nets.forward.rows_per_call"] = (
        tracer.counts["nets.forward.rows"] / max(n_forward, 1), "rows")
    out["nets.forward.gflop"] = (tracer.counts["nets.forward.flop"] / 1e9, "GFLOP")
    out["divergence.guide.fire_ratio"] = (
        tracer.counts["divergence.guide.fired"] / max(n_guide, 1), "ratio")
    out["finetune.ppo.epoch_ratio"] = (
        n_surrogate / ppo_epochs if calls["finetune.ppo_finetune"][0] else 0.0, "ratio")
    for name, unit in FIGURES:
        out[name] = (untraced.figures.get(name, 0.0), unit)
    out["trace.overhead_s"] = (traced.op_s - untraced.op_s, "s")
    out["trace.overhead_pct"] = (100.0 * (traced.op_s - untraced.op_s) / untraced.op_s, "%")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    info = machine_info(np)
    root = os.path.join(OUT, args.workload)
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, ".lock"), "w") as lock:
        # runs of one workload share its directory, so they take turns
        fcntl.flock(lock, fcntl.LOCK_EX)
        setup_s = measure_setup(args.workload, args.seed, os.path.join(root, "setup-probe"))
        cfg, cfg_path = workloads.set_up(args.workload, args.seed, os.path.join(root, "work"))
        record = os.path.join(OUT, "records",
                              f"{args.workload}-seed{args.seed}-{source_key()}.json")
        wl = workloads.WORKLOADS[args.workload]
        tracer = spans.Tracer() if args.trace else None
        refs = []
        if tracer is None:
            ref_cfg, ref_path = workloads.set_up(args.workload, args.seed,
                                                 os.path.join(root, "reference"))
            rounds, refs = run_pairs(wl, cfg, cfg_path, ref_cfg, ref_path, args.seconds,
                                     record)
        else:
            rounds = run_traced(wl, cfg, cfg_path, tracer, record)

    if tracer is None:
        units = dict(END_TO_END)
        metrics = {k: (v, units[k]) for k, v in end_to_end(rounds, refs, setup_s).items()}
    else:
        metrics = per_layer(rounds[0], rounds[1], tracer, cfg, workloads.PIPELINE)
        tracer.save(os.path.join(root, f"spans-seed{args.seed}.npz"))

    ops = [op for rnd in rounds for op in rnd.ops]
    failed = [op for op in ops if not op.ok]
    correct = all(op.name in KNOWN_FAULTS for op in failed)
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# {args.workload} seed {args.seed}: {len(rounds)} round(s), program time "
          + ", ".join(f"{r.op_s:.2f}s" for r in rounds) + f", set-up {setup_s:.3f}s")
    if refs:
        print("# reference time " + ", ".join(f"{r.op_s:.2f}s" for r in refs)
              + f"; fastest repeats {fastest_round_s(rounds):.3f}s (program), "
              f"{fastest_round_s(refs):.3f}s (reference)")
    for op in failed:
        known = KNOWN_FAULTS.get(op.name)
        print(f"# FAILED {op.name} ({'known fault ' + known if known else 'unexpected'}): "
              f"{op.detail}")
    for name, value in rounds[0].figures.items():
        print(f"# figure {name} = {value!r}")
    result = {"correct": correct, "attempted": len(ops), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(os.path.join(root, "results"), exist_ok=True)
    with open(os.path.join(root, "results", f"seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"machine": info, "result": result,
                   "rounds": [{"op_s": r.op_s, "stage_s": r.stage_s,
                               "figures": r.figures,
                               "ops": [[o.name, o.ok, o.detail] for o in r.ops]}
                              for r in rounds],
                   "reference_rounds": [r.stage_s for r in refs]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
