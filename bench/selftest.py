"""Self-test of the benchmark: tiny runs, then planted faults.

    python3 bench/selftest.py

Every workload runs at a tiny size twice at one seed, the second time
traced, and once through the reference copy ``uepo_ref``. Every check
must pass except the known fault F2, and the traced round must leave
byte-identical manifests. Then each check is
run on a copy of the tiny run's files with one planted fault and must
fail, and on the untouched copy, where it must pass. Exits 1 on the
first unmet expectation.
"""

import os
import shutil
import sys

import run  # pins BLAS before numpy loads and puts the sources on the path

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.join(run.OUT, "selftest")
SEED = 1


def tiny_run(name):
    wl = workloads.WORKLOADS[name]
    cfg, path = workloads.set_up(name, SEED, os.path.join(ROOT, name), "tiny")
    first = workloads.pipeline_round(wl, cfg, path, None)
    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        second = workloads.pipeline_round(wl, cfg, path, tracer)
    finally:
        restore()
    for op in first.ops + second.ops:
        expect(op.ok or op.name in run.KNOWN_FAULTS, f"{name}: {op.name} failed: {op.detail}")
    expect(first.digest == second.digest, f"{name}: traced round changed the manifests")
    ref_cfg, ref_path = workloads.set_up(name, SEED, os.path.join(ROOT, name + "-reference"),
                                         "tiny")
    workloads.reference_round(wl, ref_cfg, ref_path)  # raises if uepo_ref fails
    calls = {k: v[0] for k, v in tracer.summary().items()}
    expect(calls.get("diffusion.sample", 0) > 0 and calls.get("nets.forward", 0) > 0,
           f"{name}: the tracer saw no sampling")
    if name == "pm-pipeline":
        attempts = int(checks.read_key_values(
            os.path.join(cfg["out"], "augment_report.txt"))["attempts"])
        # augmentation imports sample by name: its calls must be traced too
        expect(calls["augmentation.rollout_virtual"] == attempts
               and calls["diffusion.sample"] >= attempts, "pm-pipeline: augment is not traced")
    print(f"tiny {name}: {len(first.ops)} operations per round, failed: "
          + (", ".join(op.name for op in first.ops if not op.ok) or "none"))
    return cfg, first


def expect(cond, message):
    if not cond:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def fails(label, fn, *args):
    try:
        fn(*args)
    except checks.CheckFailed as exc:
        print(f"  planted {label}: fails ({exc})")
        return
    expect(False, f"planted {label}: the check passed")


def passes(label, fn, *args):
    try:
        fn(*args)
    except checks.CheckFailed as exc:
        expect(False, f"{label}: fails on untouched files ({exc})")


def copy_run(out, tag):
    dst = os.path.join(ROOT, "planted", tag)
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(out, dst)
    return dst


def rewrite(path, edit):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def plant_pipeline(cfg):
    out = cfg["out"]
    env, sigma = cfg["env.name"], cfg["env.sigma_env"]
    stages = workloads.PIPELINE
    print("planted faults on the tiny pm-pipeline files:")

    passes("manifests", checks.check_manifests, out, stages)
    d = copy_run(out, "manifest")
    with open(os.path.join(d, "policy.bin"), "r+b") as fh:
        fh.seek(100)
        byte = fh.read(1)
        fh.seek(100)
        fh.write(bytes([byte[0] ^ 0x01]))
    fails("flipped byte in policy.bin -> manifests", checks.check_manifests, d, stages)

    digest = checks.manifest_digest(out, stages)
    rnd = workloads.Round(digest=digest)
    other = dict(digest, select="0" * 64)
    run.repeat_check(rnd, [other], os.path.join(ROOT, "planted", "record.json"))
    expect(not rnd.ops[-1].ok, "planted differing manifest -> repeat.manifests passed")
    print(f"  planted differing select.manifest -> repeat.manifests: fails ({rnd.ops[-1].detail})")

    _, syn = checks.read_dataset(os.path.join(out, "augmented.jsonl"))
    passes("law.synthetic", checks.check_transition_law, env, sigma, syn, "synthetic")
    moved = [tuple(a.copy() for a in t) for t in syn]
    moved[0][2][2] += 0.5  # next state of row 2 moved by 10 sigma_env ...
    moved[0][0][3] += 0.5  # ... and the following state with it, so the chain holds
    fails("synthetic row moved off the law -> law.synthetic",
          checks.check_transition_law, env, sigma, moved, "synthetic")
    broken = [tuple(a.copy() for a in t) for t in syn]
    broken[0][0][3] += 1e-9
    fails("synthetic chain broken -> law.synthetic",
          checks.check_transition_law, env, sigma, broken, "synthetic")

    layers, d_s = checks.read_dynamics(os.path.join(out, "dynamics_init.bin"))
    n_acc = len(syn)
    passes("filter.kl", checks.check_filter_kl, env, sigma, layers, d_s, syn,
           cfg["filter.epsilon"], n_acc)
    shifted = layers[:-1] + [(layers[-1][0], layers[-1][1] + np.r_[np.ones(d_s), np.zeros(d_s)])]
    fails("dynamics_init mean shifted by 1 -> filter.kl", checks.check_filter_kl,
          env, sigma, shifted, d_s, syn, cfg["filter.epsilon"], n_acc)
    fails("accepted count off by one -> filter.kl", checks.check_filter_kl,
          env, sigma, layers, d_s, syn, cfg["filter.epsilon"], n_acc + 1)

    _, real = checks.read_dataset(os.path.join(out, "dataset.jsonl"))

    curve = checks.read_curve(os.path.join(out, "dynamics_loss.csv"))
    pool = checks.stack(real + syn)
    j_layers, _ = checks.read_dynamics(os.path.join(out, "dynamics_joint.bin"))
    own = checks.mean_nll(j_layers, d_s, *pool)
    passes("dynamics.curve", checks.check_curve, curve, own, "curve")
    fails("final curve point off by 1e-6 -> dynamics.curve", checks.check_curve,
          curve[:-1] + [curve[-1] + 1e-6], own, "curve")
    fails("curve ending above its start -> dynamics.curve", checks.check_curve,
          [own - 1.0] + curve[1:], own, "curve")

    losses = checks.read_curve(os.path.join(out, "diffusion_loss.csv"))
    passes("diffusion.loss", checks.check_denoiser_loss, losses)
    fails("NaN denoiser loss -> diffusion.loss", checks.check_denoiser_loss,
          losses[:-1] + [float("nan")])
    fails("rising denoiser loss -> diffusion.loss", checks.check_denoiser_loss, losses[::-1])

    n, n_states = cfg["ensemble.n"], min(cfg["ensemble.n_states"], len(real))
    acts, divs = (os.path.join(out, f) for f in ("ensemble_actions.csv", "ensemble_div.csv"))
    passes("ensemble.div", checks.check_ensemble, acts, divs, env, n, n_states)
    d = copy_run(out, "ensemble")
    rewrite(os.path.join(d, "ensemble_div.csv"), lambda ls: ls[:1] + [
        f"{ls[1].split(',')[0]},{float(ls[1].split(',')[1]) + 1e-6!r}"] + ls[2:])
    fails("divergence off by 1e-6 -> ensemble.div", checks.check_ensemble,
          acts, os.path.join(d, "ensemble_div.csv"), env, n, n_states)
    def out_of_box(lines):
        cells = lines[1].split(",")
        return lines[:1] + [",".join(cells[:3] + ["1.5"] * (len(cells) - 3))] + lines[2:]

    rewrite(os.path.join(d, "ensemble_actions.csv"), out_of_box)
    fails("action outside the box -> ensemble.div", checks.check_ensemble,
          os.path.join(d, "ensemble_actions.csv"), divs, env, n, n_states)

    ev_csv, ev_txt = os.path.join(out, "eval.csv"), os.path.join(out, "eval.txt")
    passes("eval.returns", checks.check_eval, ev_csv, ev_txt)
    d = copy_run(out, "eval")
    rewrite(os.path.join(d, "eval.txt"), lambda ls: ["mean_return = -0.5"] + ls[1:])
    fails("wrong mean in eval.txt -> eval.returns", checks.check_eval,
          ev_csv, os.path.join(d, "eval.txt"))
    rewrite(os.path.join(d, "eval.csv"), lambda ls: ls[:1] + ["0,0.25"] + ls[2:])
    fails("positive return -> eval.returns", checks.check_eval,
          os.path.join(d, "eval.csv"), ev_txt)

    passes("div_check.status", checks.check_div_status, os.path.join(out, "div_check.txt"))
    rewrite(os.path.join(d, "div_check.txt"),
            lambda ls: [ln if not ln.startswith("status") else "status = fail" for ln in ls])
    fails("div-check status fail -> div_check.status", checks.check_div_status,
          os.path.join(d, "div_check.txt"))

    sel, scores = os.path.join(out, "selection.txt"), os.path.join(d, "selection_scores.csv")
    best = int(checks.read_key_values(sel)["best_index"])
    fails("today's scores file -> F2.select_argmax", checks.check_select_argmax, sel,
          os.path.join(out, "selection_scores.csv"))
    rewrite(scores, lambda ls: ls[:1] + [f"{i},0,{-1.0 if i == best else -2.0!r}"
                                         for i in range(len(ls) - 1)])
    passes("F2.select_argmax on parseable scores", checks.check_select_argmax, sel, scores)
    rewrite(scores, lambda ls: ls[:1] + [f"{i},0,{-2.0 if i == best else -1.0!r}"
                                         for i in range(len(ls) - 1)])
    fails("scores file with a wrong argmax -> F2.select_argmax", checks.check_select_argmax,
          sel, scores)


def main():
    shutil.rmtree(ROOT, ignore_errors=True)
    results = {name: tiny_run(name) for name in run.WORKLOAD_NAMES}
    plant_pipeline(results["pm-pipeline"][0])
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
