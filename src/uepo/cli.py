"""Pipeline driver: ``uepo <stage> --config <path> [--seed N] [--out DIR]``.

Each stage reads its inputs from the output directory, writes exactly
the files its ``_STAGES`` row declares (text through ``_csv`` or
``config.format_pairs``, every value by ``config.format_value``), and leaves a
``<stage>.manifest`` recording the config hash, the seed, and the sha256
of every input and output file. Wall time goes to a ``<stage>.time.txt``
sidecar so reruns of the same config stay byte-identical. A stage runs
holding an exclusive ``flock`` on ``<out>/.lock``, which names its pid
while it runs. A second stage in the same directory fails at once; the
kernel releases the lock of a run that dies, so a killed run needs no
cleanup.
"""

import argparse
import dataclasses
import fcntl
import hashlib
import os
import sys
import time

import numpy as np

from . import augmentation, diffusion, divergence, dynamics, envs, finetune, nets
from .config import SCHEMA, RunConfig, format_pairs, format_value, load_config, parse_pairs
from .datasets import TrajectoryDataset, initial_states, load_dataset, save_dataset, transitions
from .errors import ConfigError, MissingArtifactError

DATASET = "dataset.jsonl"
AUGMENTED = "augmented.jsonl"

DIFFUSION_STEP_SIZE = 1e-3


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _stamp(path: str):
    # identity and age of a file, None when absent; an atomic write changes both
    st = os.stat(path) if os.path.exists(path) else None
    return st and (st.st_ino, st.st_mtime_ns)


def _csv(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(map(format_value, row)) + "\n" for row in rows)


class StageRun:
    """Bookkeeping for one stage execution: the sha256 of each input it
    opens, and paths to the outputs its ``_STAGES`` row declares."""

    def __init__(self, stage: str, out: str):
        self.stage = stage
        self.out = out
        self.inputs: dict[str, str] = {}
        self.outputs = {name: os.path.join(out, name) for name in _STAGES[stage][1]}

    def input_path(self, name: str) -> str:
        p = os.path.join(self.out, name)
        if not os.path.isfile(p):
            raise MissingArtifactError(
                f"{self.stage}: missing input {name!r} in {self.out}; "
                f"run the {_PRODUCERS[name]} stage first")
        self.inputs[name] = _sha256(p)
        return p

    def output_path(self, name: str) -> str:
        if name not in self.outputs:
            raise ValueError(f"{self.stage} does not declare the output {name!r}")
        return self.outputs[name]

    def write_text(self, name: str, text: str) -> None:
        nets.atomic_write_bytes(self.output_path(name), text.encode())


def _load_for_env(run: StageRun, env, name: str, load, *args):
    """``load(path, *args)`` of the named checkpoint, refused when it was made
    for other state or action dimensions than ``env``'s."""
    path = run.input_path(name)
    model = load(path, *args)
    if (model.d_s, model.d_a) != (env.d_s, env.d_a):
        raise ConfigError(f"{path} holds a model for d_s = {model.d_s}, d_a = {model.d_a}, "
                          f"but {env.name} has d_s = {env.d_s}, d_a = {env.d_a}")
    return model


def _load_policy_for_env(run: StageRun, env) -> diffusion.DiffusionPolicy:
    # policy.bin has no action box; an open one fits any d_a, so the check comes first
    policy = _load_for_env(run, env, "policy.bin", diffusion.load_policy, -np.inf, np.inf)
    return dataclasses.replace(policy, action_low=env.action_low, action_high=env.action_high)


def _load_env_dataset(cfg: RunConfig, run: StageRun, name: str) -> TrajectoryDataset:
    """The named dataset file, refused when it was recorded in another
    environment, or at other dimensions, than ``env.name``'s."""
    ds = load_dataset(run.input_path(name))
    env = cfg.env
    if (ds.meta["env"], ds.meta["d_s"], ds.meta["d_a"]) != (env.name, env.d_s, env.d_a):
        raise ConfigError(f"{name} in {run.out} holds {ds.meta['env']} data of "
                          f"(d_s, d_a) = ({ds.meta['d_s']}, {ds.meta['d_a']}), but env.name "
                          f"is {env.name} of ({env.d_s}, {env.d_a})")
    return ds


def _windows(cfg: RunConfig, ds: TrajectoryDataset):
    return diffusion.sliding_windows(ds, cfg["diffusion.T"], cfg["diffusion.window_stride"])


def _real_batch(ds: TrajectoryDataset) -> dynamics.TransitionBatch:
    s, a, s_next = transitions(ds)
    return dynamics.TransitionBatch(s, a, s_next)


def _fit_dynamics(cfg: RunConfig, real, synthetic, init_ss, shuffle_ss, curve: bool):
    """augment's and train-dynamics' one recipe: a model of ``dynamics.widths`` trained
    on the real and the optional synthetic pool, and ``train_joint``'s curve."""
    model = dynamics.make_dynamics(real.s.shape[1], real.a.shape[1], cfg["dynamics.widths"],
                                   np.random.default_rng(init_ss))
    return model, dynamics.train_joint(model, real, synthetic, cfg["dynamics.epochs"],
                                       np.random.default_rng(shuffle_ss), curve=curve)


# --- stage bodies -----------------------------------------------------------


def _stage_gen_data(cfg: RunConfig, run: StageRun, ss: np.random.SeedSequence):
    ds = envs.make_offline_dataset(cfg.env, cfg["env.n_traj"], cfg["env.mode_mix"],
                                   np.random.default_rng(ss))
    save_dataset(ds, run.output_path(DATASET))
    print(f"gen-data: {len(ds.trajectories)} trajectories")


def _stage_train_diffusion(cfg: RunConfig, run: StageRun, ss):
    env = cfg.env
    ds = _load_env_dataset(cfg, run, DATASET)
    anchors, actions = _windows(cfg, ds)
    init_ss, train_ss = ss.spawn(2)
    policy = diffusion.make_policy(cfg["diffusion.T"], env.d_a, env.d_s, cfg["diffusion.widths"],
                                   np.random.default_rng(init_ss), cfg.schedule, env.action_low,
                                   env.action_high)
    losses = diffusion.train_denoiser(policy, anchors, actions,
                                      cfg["diffusion.train_steps"],
                                      cfg["diffusion.batch_size"],
                                      DIFFUSION_STEP_SIZE,
                                      np.random.default_rng(train_ss))
    diffusion.save_policy(policy, run.output_path("policy.bin"))
    run.write_text("diffusion_loss.csv", _csv("step,loss", enumerate(losses)))
    print(f"train-diffusion: {len(anchors)} windows, "
          f"final loss {losses[-1]:.4f}")


def _stage_sample_ensemble(cfg: RunConfig, run: StageRun, ss):
    ds = _load_env_dataset(cfg, run, DATASET)
    policy = _load_policy_for_env(run, cfg.env)
    pool = initial_states(ds)
    rng = np.random.default_rng(ss)
    n_states = min(cfg["ensemble.n_states"], len(pool))
    picks = rng.choice(len(pool), size=n_states, replace=False)
    ens = list(zip(picks, diffusion.sample_ensemble(policy, pool[picks], cfg.seeds, cfg.guidance)))
    run.write_text("ensemble_actions.csv", _csv(
        "state_index,member,t," + ",".join(f"a{j}" for j in range(policy.d_a)),
        ((si, m, t, *seq[t]) for si, seqs in ens for m, seq in enumerate(seqs)
         for t in range(policy.T))))
    run.write_text("ensemble_div.csv", _csv("state_index,min_pairwise_div", (
        (si, divergence.min_pairwise_div(seqs)) for si, seqs in ens if len(seqs) > 1)))
    print(f"sample-ensemble: {n_states} states x {cfg['ensemble.n']} members")


def _stage_augment(cfg: RunConfig, run: StageRun, ss):
    ds = _load_env_dataset(cfg, run, DATASET)
    policy = _load_policy_for_env(run, cfg.env)
    init_ss, shuffle_ss, aug_ss = ss.spawn(3)
    model, _ = _fit_dynamics(cfg, _real_batch(ds), None, init_ss, shuffle_ss, curve=False)
    dynamics.save_dynamics(model, run.output_path("dynamics_init.bin"))
    synthetic, report = augmentation.build_augmented(
        cfg.env, policy, model, ds, cfg.filter, np.random.default_rng(aug_ss))
    save_dataset(synthetic, run.output_path(AUGMENTED))
    run.write_text("augment_report.txt", format_pairs(augmentation.report_items(report)))
    run.write_text("kl_hist.csv", _csv("bin_low,bin_high,count",
                                       augmentation.kl_histogram(report.kl_values)))
    print(f"augment: accepted {report.n_accepted}/{report.n_attempts} rollouts, "
          f"{report.achieved_transitions} synthetic transitions")
    if report.achieved_transitions < report.target_transitions:
        print(f"uepo: augment under-filled: {report.achieved_transitions} of "
              f"{report.target_transitions} target transitions, ratio "
              f"{report.achieved_ratio:.3f} of {report.ratio}", file=sys.stderr)


def _stage_train_dynamics(cfg: RunConfig, run: StageRun, ss):
    ds = _load_env_dataset(cfg, run, DATASET)
    synthetic = None
    if cfg["dynamics.use_augmented"]:
        synthetic = _real_batch(_load_env_dataset(cfg, run, AUGMENTED))
    model, curve = _fit_dynamics(cfg, _real_batch(ds), synthetic, *ss.spawn(2), curve=True)
    dynamics.save_dynamics(model, run.output_path("dynamics_joint.bin"))
    run.write_text("dynamics_loss.csv", _csv("epoch,pool_nll", curve))
    print(f"train-dynamics: pool NLL {curve[0][1]:.4f} -> {curve[-1][1]:.4f}")


def _stage_select(cfg: RunConfig, run: StageRun, ss):
    env = cfg.env
    ds = _load_env_dataset(cfg, run, DATASET)
    policy = _load_policy_for_env(run, env)
    model = _load_for_env(run, env, "dynamics_joint.bin", dynamics.load_dynamics)
    seeds = cfg.seeds
    best, scores = finetune.select_policy(policy, seeds, model, env,
                                          cfg["select.n_rollouts"], initial_states(ds),
                                          np.random.default_rng(ss))
    selection = [("best_index", best), ("best_seed", seeds[best]), ("n_members", len(seeds))]
    run.write_text("selection.txt", format_pairs(selection))
    run.write_text("selection_scores.csv", _csv("member,seed,score",
                                                zip(range(len(seeds)), seeds, scores)))
    print(f"select: best sub-policy {best} (seed {seeds[best]})")


def _stage_finetune(cfg: RunConfig, run: StageRun, ss):
    ds = _load_env_dataset(cfg, run, DATASET)
    policy = _load_policy_for_env(run, cfg.env)
    try:
        with open(run.input_path("selection.txt"), "r", encoding="utf-8") as fh:
            selection = {key: value for _, key, value in parse_pairs(fh.read())}
        best_seed = int(selection["best_seed"])
        best, n_members = int(selection["best_index"]), int(selection["n_members"])
    except ConfigError as exc:  # parse_pairs names the line; caught before ValueError
        raise ConfigError(f"selection.txt in {run.out}: {exc}") from None
    except (KeyError, ValueError):  # a missing key, or text that is not UTF-8 or an int
        raise ConfigError(f"selection.txt in {run.out} has no usable best_seed, best_index "
                          f"and n_members")
    seeds = cfg.seeds
    if n_members != len(seeds) or not 0 <= best < n_members or seeds[best] != best_seed:
        raise ConfigError(f"selection.txt in {run.out} picks member {best} of {n_members} "
                          f"(seed {best_seed}), which is not a member of this config's "
                          f"{len(seeds)}-member ensemble")
    anchors, _ = _windows(cfg, ds)
    distill_ss, ppo_ss = ss.spawn(2)
    distill_rng = np.random.default_rng(distill_ss)
    perm = distill_rng.permutation(len(anchors))
    pool = anchors[perm[: cfg["distill.pool"]]]
    head, mse = finetune.distill(policy, best_seed, pool, distill_rng,
                                 epochs=cfg["distill.epochs"])
    head, curve = finetune.ppo_finetune(head, cfg.env, cfg.ppo, cfg["ppo.iterations"],
                                        np.random.default_rng(ppo_ss))
    finetune.save_head(run.output_path("head.bin"), head)
    run.write_text("finetune_curve.csv", _csv("iteration,mean_return,std_return",
                                              ((i, *point) for i, point in enumerate(curve))))
    run.write_text("distill.txt", format_pairs([("best_seed", best_seed), ("distill_mse", mse)]))
    print(f"finetune: distill mse {mse:.4f}, "
          f"final mean return {curve[-1][0]:.3f}")


def _stage_eval(cfg: RunConfig, run: StageRun, ss):
    head = _load_for_env(run, cfg.env, "head.bin", finetune.load_head)
    rng = np.random.default_rng(ss)
    _, _, _, ep_returns = finetune.collect_episodes(head, cfg.env,
                                                    cfg["eval.episodes"], rng)
    run.write_text("eval.csv", _csv("episode,return", enumerate(ep_returns)))
    mean = float(ep_returns.mean())
    run.write_text("eval.txt", format_pairs([("mean_return", mean), ("episodes", len(ep_returns))]))
    print(f"eval: mean return {mean:.3f} over {len(ep_returns)} episodes")


_DIV_FIXTURE_VALUE = 0.75


def _stage_div_check(cfg: RunConfig, run: StageRun, ss):
    """Self-test of the divergence arithmetic against a hand-stepped pair."""
    a_i = np.zeros((4, 1))
    a_j = np.array([[0.0], [1.0], [2.0], [3.0]])
    d = divergence.div(a_i, a_j)
    guidance = cfg.guidance
    at_zero = divergence.sigma_div(0.0, guidance)
    at_tau = divergence.sigma_div(guidance.tau, guidance)
    ok = (abs(d - _DIV_FIXTURE_VALUE) < 1e-12
          and abs(at_zero - guidance.eta) < 1e-12
          and at_tau == 0.0)
    text = format_pairs([("fixture_div", d), ("expected", _DIV_FIXTURE_VALUE),
                         ("sigma_div_at_zero", at_zero), ("sigma_div_at_tau", at_tau),
                         ("status", "ok" if ok else "fail")])
    run.write_text("div_check.txt", text)
    print(text, end="")
    if not ok:
        raise RuntimeError("divergence self-test failed")


# stage -> (body, the only list of files it writes), in pipeline order; a stage's
# seed depends on its position, and every input a body opens has a producer here
_STAGES = {
    "gen-data": (_stage_gen_data, (DATASET,)),
    "train-diffusion": (_stage_train_diffusion, ("policy.bin", "diffusion_loss.csv")),
    "sample-ensemble": (_stage_sample_ensemble,
                        ("ensemble_actions.csv", "ensemble_div.csv")),
    "augment": (_stage_augment, ("dynamics_init.bin", AUGMENTED, "augment_report.txt",
                                 "kl_hist.csv")),
    "train-dynamics": (_stage_train_dynamics, ("dynamics_joint.bin", "dynamics_loss.csv")),
    "select": (_stage_select, ("selection.txt", "selection_scores.csv")),
    "finetune": (_stage_finetune, ("head.bin", "finetune_curve.csv", "distill.txt")),
    "eval": (_stage_eval, ("eval.csv", "eval.txt")),
    "div-check": (_stage_div_check, ("div_check.txt",)),
}
STAGES = tuple(_STAGES)
_PRODUCERS = {name: stage for stage, (_, files) in _STAGES.items() for name in files}


def run_stage(stage: str, cfg: RunConfig) -> None:
    """Execute one stage under the out dir's lock and write its manifest."""
    if stage not in _STAGES:
        raise ConfigError(f"unknown stage {stage!r}; choose from {STAGES}")
    os.makedirs(cfg["out"], exist_ok=True)
    lock_path = os.path.join(cfg["out"], ".lock")
    # "a+" opens without truncating, so a refused run can still read the holder's pid
    with open(lock_path, "a+", encoding="utf-8") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            lock.seek(0)
            raise RuntimeError(f"{lock_path} is held by pid {lock.read().strip() or '?'}; "
                               f"another stage is running in {cfg['out']}") from None
        try:
            lock.truncate(0)
            lock.write(f"{os.getpid()}\n")
            lock.flush()
            run = StageRun(stage, cfg["out"])
            before = {name: _stamp(p) for name, p in run.outputs.items()}
            ss = np.random.SeedSequence((cfg["seed"], STAGES.index(stage)))
            started = time.perf_counter()
            _STAGES[stage][0](cfg, run, ss)
            elapsed = time.perf_counter() - started
            unwritten = [name for name, p in run.outputs.items()
                         if _stamp(p) in (None, before[name])]
            if unwritten:
                raise RuntimeError(f"{stage} did not write {', '.join(unwritten)}")
            manifest = [("stage", stage), ("config_hash", cfg.config_hash()),
                        ("seed", cfg["seed"])]
            manifest += [(f"input.{k}", v) for k, v in sorted(run.inputs.items())]
            manifest += [(f"output.{k}", _sha256(p)) for k, p in sorted(run.outputs.items())]
            nets.atomic_write_bytes(os.path.join(run.out, f"{stage}.manifest"),
                                    format_pairs(manifest).encode())
            # wall time lives outside the manifest so reruns stay bit-identical
            nets.atomic_write_bytes(os.path.join(run.out, f"{stage}.time.txt"),
                                    format_pairs([("wall_seconds", elapsed)]).encode())
        finally:
            lock.truncate(0)  # never unlinked: a later run must lock this same inode


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _keys_epilog() -> str:
    lines = format_pairs((key, field.default) for key, field in SCHEMA.items()).splitlines()
    width = max(map(len, lines))
    return "config keys, each at its default:\n" + "\n".join(
        f"  {line.ljust(width)}  # {field.doc}" for line, field in zip(lines, SCHEMA.values()))


def _build_parser() -> _Parser:
    parser = _Parser(prog="uepo", description=__doc__, epilog=_keys_epilog(),
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("stage", choices=STAGES, metavar="stage",
                        help=f"one of: {', '.join(STAGES)}")
    parser.add_argument("--config", required=True, help="key=value config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None,
                        help="override the output directory")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config)
        overrides = {k: v for k, v in (("seed", args.seed), ("out", args.out)) if v is not None}
        if overrides:
            cfg = cfg.replaced(**overrides)
    except ConfigError as exc:
        print(f"uepo: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help exits 0 through here
        return 0 if exc.code in (0, None) else 1
    try:
        run_stage(args.stage, cfg)
    except ConfigError as exc:
        print(f"uepo: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"uepo: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0
