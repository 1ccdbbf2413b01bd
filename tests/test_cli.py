"""End-to-end checks of the stage driver: a tiny pipeline run, manifest
integrity, rerun determinism, and the exit-code contract of main()."""

import ast
import fcntl
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

from uepo import cli, divergence, dynamics
from uepo.config import SCHEMA, format_pairs, load_config, parse_config, parse_pairs
from uepo.datasets import load_dataset

# the small reproducibility config, which acceptance test 10, the demo and CI also run
SMALL_CFG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "demos", "small.cfg")


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_pairs(path):
    with open(path) as fh:
        return {key: value for _, key, value in parse_pairs(fh.read())}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """All nine stages run once into a shared directory."""
    out = tmp_path_factory.mktemp("pipeline")
    cfg = load_config(SMALL_CFG, out=str(out))
    for stage in cli.STAGES:
        cli.run_stage(stage, cfg)
    return cfg, str(out)


def _assert_lock_free(lock_path):
    """The lock file is left empty and no run holds its flock."""
    assert os.path.isfile(lock_path)
    with open(lock_path, "a+") as fh:
        fh.seek(0)
        assert fh.read() == ""
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)


def test_all_artifacts_present(pipeline):
    _, out = pipeline
    expected = ["dataset.jsonl", "policy.bin", "diffusion_loss.csv",
                "ensemble_actions.csv", "ensemble_div.csv",
                "dynamics_init.bin", "augmented.jsonl", "augment_report.txt",
                "kl_hist.csv", "dynamics_joint.bin", "dynamics_loss.csv",
                "selection.txt", "selection_scores.csv", "head.bin",
                "finetune_curve.csv", "distill.txt", "eval.csv", "eval.txt",
                "div_check.txt"]
    for name in expected:
        assert os.path.isfile(os.path.join(out, name)), name
    for stage in cli.STAGES:
        assert os.path.isfile(os.path.join(out, f"{stage}.manifest"))
        assert os.path.isfile(os.path.join(out, f"{stage}.time.txt"))
    _assert_lock_free(os.path.join(out, ".lock"))


def test_manifest_header_fields(pipeline):
    cfg, out = pipeline
    for stage in cli.STAGES:
        m = _read_pairs(os.path.join(out, f"{stage}.manifest"))
        assert m["stage"] == stage
        assert m["config_hash"] == cfg.config_hash()
        assert m["seed"] == "3"


def test_manifest_hashes_match_files(pipeline):
    _, out = pipeline
    for stage in cli.STAGES:
        m = _read_pairs(os.path.join(out, f"{stage}.manifest"))
        for key, digest in m.items():
            if key.startswith(("input.", "output.")):
                name = key.split(".", 1)[1]
                assert _sha(os.path.join(out, name)) == digest, (stage, name)


def test_manifest_chain(pipeline):
    """Every stage input hash equals some earlier stage's output hash."""
    _, out = pipeline
    produced = {}
    for stage in cli.STAGES:
        m = _read_pairs(os.path.join(out, f"{stage}.manifest"))
        for key, digest in m.items():
            if key.startswith("input."):
                name = key.split(".", 1)[1]
                assert produced.get(name) == digest, (stage, name)
        for key, digest in m.items():
            if key.startswith("output."):
                produced[key.split(".", 1)[1]] = digest


def test_stage_table_names_every_manifest_file(pipeline):
    """The stage table declares exactly the files each stage writes, and
    every input comes from a stage that runs earlier."""
    _, out = pipeline
    for i, stage in enumerate(cli.STAGES):
        m = _read_pairs(os.path.join(out, f"{stage}.manifest"))
        outputs = {k.split(".", 1)[1] for k in m if k.startswith("output.")}
        inputs = {k.split(".", 1)[1] for k in m if k.startswith("input.")}
        assert outputs == set(cli._STAGES[stage][1]), stage
        for name in inputs:
            assert cli.STAGES.index(cli._PRODUCERS[name]) < i, (stage, name)


def test_readme_stage_table_matches_cli_stages():
    """The stage table in the README's "Command line" section lists the
    stages in pipeline order, each with exactly the files it writes."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    table = section.split("| writes |\n", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:4] for line in table.splitlines() if line.startswith("| `")]
    stages = tuple(stage.strip().strip("`") for stage, _, _ in rows)
    assert stages == cli.STAGES
    for stage, (_, _, writes) in zip(stages, rows):
        assert re.findall(r"`([^`]+)`", writes) == list(cli._STAGES[stage][1]), stage


def test_every_library_module_is_reachable_from_the_stage_driver():
    """Following the package's relative imports from cli reaches every
    module, so none is code that no stage can run."""
    src = os.path.dirname(cli.__file__)
    modules = {name[:-3] for name in os.listdir(src) if name.endswith(".py")}
    reached, todo = set(), ["cli"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        with open(os.path.join(src, name + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                todo += [n for n in names if n in modules]
    assert modules - reached - {"__init__", "__main__"} == set()


def test_declared_file_the_body_did_not_write_fails_the_stage(tmp_path, monkeypatch):
    # a file left by an earlier run does not count as written by this one
    cfg = parse_config(f"out = {tmp_path}\n")
    (tmp_path / "eval.csv").write_text("episode,return\n")

    def body(cfg, run, ss):
        run.write_text("eval.txt", "episodes = 0\n")

    monkeypatch.setitem(cli._STAGES, "eval", (body, cli._STAGES["eval"][1]))
    with pytest.raises(RuntimeError, match=r"^eval did not write eval\.csv$"):
        cli.run_stage("eval", cfg)
    assert not (tmp_path / "eval.manifest").exists()
    _assert_lock_free(tmp_path / ".lock")


@pytest.mark.parametrize("write", [lambda run: run.output_path("policy.bin"),
                                   lambda run: run.write_text("gap.jsonl", "")],
                         ids=["output_path", "write_text"])
def test_undeclared_output_name_raises(tmp_path, monkeypatch, write):
    cfg = parse_config(f"out = {tmp_path}\n")
    monkeypatch.setitem(cli._STAGES, "div-check",
                        (lambda cfg, run, ss: write(run), cli._STAGES["div-check"][1]))
    with pytest.raises(ValueError, match="div-check does not declare the output"):
        cli.run_stage("div-check", cfg)
    assert sorted(os.listdir(tmp_path)) == [".lock"]


def test_text_files_write_numpy_scalars_as_plain_numbers():
    # numpy 2's repr of a scalar is "np.float64(0.3)"; the files hold the
    # shortest float repr and plain integers instead
    third = np.float64(0.1) + np.float64(0.2)
    assert cli._csv("member,seed,score", [(np.int64(2), np.int64(17), third)]) == (
        "member,seed,score\n2,17,0.30000000000000004\n")
    assert format_pairs([("best_index", np.int64(2)), ("distill_mse", np.float64(1.5)),
                         ("status", "ok")]) == "best_index = 2\ndistill_mse = 1.5\nstatus = ok\n"


def test_every_key_value_file_parses_through_the_one_reader(pipeline):
    # configs, manifests, time sidecars and the key = value artifacts share one format
    _, out = pipeline
    names = [f"{stage}{suffix}" for stage in cli.STAGES for suffix in (".manifest", ".time.txt")]
    names += [name for _, files in cli._STAGES.values() for name in files if name.endswith(".txt")]
    assert sorted(names) == sorted(name for name in os.listdir(out)
                                   if name.endswith((".txt", ".manifest")))
    for name in names:
        with open(os.path.join(out, name)) as fh:
            text = fh.read()
        pairs = [(key, value) for _, key, value in parse_pairs(text)]
        assert pairs and format_pairs(pairs) == text, name


def test_curve_csv_format(pipeline):
    cfg, out = pipeline
    with open(os.path.join(out, "finetune_curve.csv")) as fh:
        header, *rows = fh.read().splitlines()
    assert header == "iteration,mean_return,std_return"
    assert [row.split(",")[0] for row in rows] == [str(i) for i in range(cfg["ppo.iterations"])]
    for row in rows:
        for cell in row.split(",")[1:]:
            assert repr(float(cell)) == cell


def test_selection_and_eval_contents(pipeline):
    cfg, out = pipeline
    sel = _read_pairs(os.path.join(out, "selection.txt"))
    assert int(sel["n_members"]) == cfg["ensemble.n"]
    assert 0 <= int(sel["best_index"]) < cfg["ensemble.n"]
    ev = _read_pairs(os.path.join(out, "eval.txt"))
    assert int(ev["episodes"]) == cfg["eval.episodes"]
    float(ev["mean_return"])  # parses


def test_selection_scores_parse_and_best_is_first_argmax(pipeline):
    cfg, out = pipeline
    with open(os.path.join(out, "selection_scores.csv")) as fh:
        header, *rows = fh.read().splitlines()
    assert header == "member,seed,score"
    scores = [float(row.split(",")[2]) for row in rows]
    assert len(scores) == cfg["ensemble.n"]
    sel = _read_pairs(os.path.join(out, "selection.txt"))
    assert int(sel["best_index"]) == scores.index(max(scores))


def test_div_check_reports_ok(pipeline):
    _, out = pipeline
    m = _read_pairs(os.path.join(out, "div_check.txt"))
    assert m["status"] == "ok"
    assert float(m["fixture_div"]) == 0.75


def test_rerun_is_byte_identical(pipeline):
    cfg, out = pipeline
    before = {n: _sha(os.path.join(out, n))
              for n in ("dataset.jsonl", "gen-data.manifest", "div_check.txt")}
    cli.run_stage("gen-data", cfg)
    cli.run_stage("div-check", cfg)
    for name, digest in before.items():
        assert _sha(os.path.join(out, name)) == digest, name


def test_seed_flows_into_outputs(pipeline, tmp_path):
    """A different --seed must change the data, not just the manifest."""
    _, out = pipeline
    other = load_config(SMALL_CFG, seed="4", out=str(tmp_path))
    cli.run_stage("gen-data", other)
    m = _read_pairs(tmp_path / "gen-data.manifest")
    assert m["seed"] == "4"
    assert _sha(tmp_path / "dataset.jsonl") != _sha(os.path.join(out, "dataset.jsonl"))


def test_unknown_stage_rejected(pipeline):
    cfg, _ = pipeline
    from uepo.errors import ConfigError
    with pytest.raises(ConfigError, match="unknown stage"):
        cli.run_stage("polish", cfg)


def test_missing_input_names_producer(tmp_path):
    cfg = parse_config(f"out = {tmp_path}\n")
    from uepo.errors import MissingArtifactError
    with pytest.raises(MissingArtifactError, match="run the gen-data stage first"):
        cli.run_stage("train-diffusion", cfg)
    # the failed run still released its lock
    _assert_lock_free(tmp_path / ".lock")


def test_lock_file_blocks_concurrent_stage(tmp_path):
    # the held flock decides, not the pid the file names: that one is dead
    cfg = parse_config(f"out = {tmp_path}\n")
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped, so its pid names no process
    pid = child.pid
    lock = tmp_path / ".lock"
    with open(lock, "a+") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        fh.write(f"{pid}\n")
        fh.flush()
        with pytest.raises(RuntimeError, match=f"held by pid {pid};"):
            cli.run_stage("div-check", cfg)
        # the refused run leaves the holder's pid in place
        assert lock.read_text() == f"{pid}\n"
    assert not (tmp_path / "div-check.manifest").exists()


_HOLDER = """
import fcntl, os, sys, time
fh = open(sys.argv[1], "a+")
fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
fh.write(f"{os.getpid()}\\n")
fh.flush()
print("locked", flush=True)
time.sleep(600)
"""


def test_stale_lock_of_exited_process_is_replaced(tmp_path):
    # a SIGKILLed holder's flock goes with it, and the next stage takes the lock
    cfg = parse_config(f"out = {tmp_path}\n")
    lock = tmp_path / ".lock"
    holder = subprocess.Popen([sys.executable, "-c", _HOLDER, str(lock)],
                              stdout=subprocess.PIPE, text=True)
    try:
        assert holder.stdout.readline() == "locked\n"
        with pytest.raises(RuntimeError, match=f"held by pid {holder.pid};"):
            cli.run_stage("div-check", cfg)
        holder.send_signal(signal.SIGKILL)
        holder.wait(30)
        assert lock.read_text() == f"{holder.pid}\n"  # nobody cleaned up
        cli.run_stage("div-check", cfg)
    finally:
        holder.kill()
        holder.wait(30)
        holder.stdout.close()
    assert (tmp_path / "div-check.manifest").exists()
    _assert_lock_free(lock)


def test_racing_stages_cannot_both_run(tmp_path, monkeypatch):
    cfg = parse_config(f"out = {tmp_path}\n")
    body, files = cli._STAGES["div-check"]
    entered, release, ran = threading.Event(), threading.Event(), []

    def slow_body(*args):
        entered.set()
        release.wait(30)
        ran.append(1)
        body(*args)

    monkeypatch.setitem(cli._STAGES, "div-check", (slow_body, files))
    (tmp_path / ".lock").write_text("123456\n")  # left by a killed run
    first = threading.Thread(target=cli.run_stage, args=("div-check", cfg))
    first.start()
    try:
        assert entered.wait(30)
        assert (tmp_path / ".lock").read_text() == f"{os.getpid()}\n"
        with pytest.raises(RuntimeError, match="another stage is running"):
            cli.run_stage("div-check", cfg)
    finally:
        release.set()
        first.join(30)
    assert ran == [1]
    assert (tmp_path / "div-check.manifest").exists()
    _assert_lock_free(tmp_path / ".lock")


# --- main() exit codes -------------------------------------------------------


def _write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_main_success_and_out_override(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, "seed = 1\n")
    out = tmp_path / "elsewhere"
    code = cli.main(["div-check", "--config", cfg_path, "--out", str(out)])
    assert code == 0
    assert (out / "div_check.txt").exists()
    assert "status = ok" in capsys.readouterr().out


def test_main_seed_override(tmp_path):
    cfg_path = _write_cfg(tmp_path, "seed = 1\n")
    out = tmp_path / "o"
    assert cli.main(["div-check", "--config", cfg_path, "--seed", "9",
                     "--out", str(out)]) == 0
    m = _read_pairs(out / "div-check.manifest")
    assert m["seed"] == "9"


def test_flags_give_the_runs_of_a_file_that_states_them(tmp_path):
    # --seed N --out DIR is the run of a copy of the file with those two lines
    with open(SMALL_CFG) as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("seed =")]
    flagged, stated = tmp_path / "flagged", tmp_path / "stated"
    copy = _write_cfg(tmp_path, "\n".join(lines + ["seed = 5", f"out = {stated}"]) + "\n")
    stages = ("gen-data", "train-diffusion", "sample-ensemble", "div-check")
    for stage in stages:
        assert cli.main([stage, "--config", SMALL_CFG, "--seed", "5", "--out", str(flagged)]) == 0
        assert cli.main([stage, "--config", copy]) == 0
    for stage in stages:
        manifest = (flagged / f"{stage}.manifest").read_bytes()
        assert manifest == (stated / f"{stage}.manifest").read_bytes(), stage
    assert _read_pairs(flagged / "gen-data.manifest")["config_hash"] == \
        load_config(copy).config_hash() != load_config(SMALL_CFG).config_hash()


@pytest.mark.parametrize("flag, value, message", [
    # parsed as a line would be, the flag standing for the line number
    ("--seed", "x", "--seed: bad value for seed: invalid literal for int() with base 10: 'x'"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
    ("--out", "", "out must be non-empty, got ''"),
])
def test_bad_flag_is_exit_1_naming_its_key(tmp_path, capsys, flag, value, message):
    cfg_path = _write_cfg(tmp_path, "seed = 1\n")
    assert cli.main(["div-check", "--config", cfg_path, flag, value]) == 1
    assert capsys.readouterr().err == f"uepo: {message}\n"


def test_main_bad_config_key_is_exit_1(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, "diffusion.kk = 3\n")
    assert cli.main(["div-check", "--config", cfg_path]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_main_missing_config_file_is_exit_1(tmp_path, capsys):
    assert cli.main(["div-check", "--config", str(tmp_path / "none.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_main_bogus_stage_is_exit_1(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, "seed = 1\n")
    assert cli.main(["polish", "--config", cfg_path]) == 1
    capsys.readouterr()


def test_main_missing_artifact_is_exit_2(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, f"out = {tmp_path / 'empty'}\n")
    assert cli.main(["select", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "missing input" in err and "gen-data" in err


@pytest.mark.parametrize("stage", ["train-diffusion", "sample-ensemble", "augment",
                                   "train-dynamics", "select", "finetune"])
def test_dataset_of_another_env_is_exit_1(tmp_path, capsys, stage):
    out = tmp_path / "o"
    cli.run_stage("gen-data", parse_config(f"env.n_traj = 4\nout = {out}\nseed = 5\n"))
    cfg_path = _write_cfg(tmp_path, f"env.name = pendulum\nout = {out}\n")
    assert cli.main([stage, "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert "dataset.jsonl" in err and "point_mass" in err and "pendulum" in err
    assert not (out / f"{stage}.manifest").exists()
    # pendulum rows labelled point_mass: the header's dimensions are refused
    pend = tmp_path / "p"
    cli.run_stage("gen-data", parse_config(f"env.name = pendulum\nenv.n_traj = 4\n"
                                           f"out = {pend}\n"))
    path = pend / "dataset.jsonl"
    path.write_text(path.read_text().replace('"env":"pendulum"', '"env":"point_mass"'))
    cfg_path = _write_cfg(tmp_path, f"out = {pend}\n")
    assert cli.main([stage, "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert "dataset.jsonl" in err and "(2, 1)" in err and "(4, 2)" in err
    assert not (pend / f"{stage}.manifest").exists()


def test_augmented_data_of_another_env_is_exit_1(tmp_path, capsys):
    pend, pm = tmp_path / "pend", tmp_path / "pm"
    cli.run_stage("gen-data", parse_config(f"env.name = pendulum\nenv.n_traj = 4\n"
                                           f"out = {pend}\n"))
    cli.run_stage("gen-data", parse_config(f"env.n_traj = 4\nout = {pm}\n"))
    (pend / "augmented.jsonl").write_bytes((pm / "dataset.jsonl").read_bytes())
    cfg_path = _write_cfg(tmp_path, f"env.name = pendulum\nout = {pend}\n")
    assert cli.main(["train-dynamics", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert "augmented.jsonl" in err and "point_mass" in err and "pendulum" in err


def _edit_line(index, edit):
    """Spoils a dataset file by rewriting its JSON line ``index`` (0 is the header)."""
    def spoil(path):
        lines = path.read_text().split("\n")
        obj = json.loads(lines[index])
        edit(obj)
        lines[index] = json.dumps(obj)
        path.write_text("\n".join(lines))
    return spoil


def _break_line(path):
    lines = path.read_text().split("\n")
    lines[2] = lines[2][:40]
    path.write_text("\n".join(lines))


def _cut(path):
    path.write_bytes(path.read_bytes()[:300])


def _cut_last_field(path):
    path.write_bytes(path.read_bytes()[:-4])


def _bad_magic(path):
    path.write_bytes(b"XXXX" + path.read_bytes()[4:])


# a run of every stage in about a second
_SMALL = ("env.n_traj = 4\ndiffusion.widths = 8\ndiffusion.train_steps = 1\n"
          "filter.epsilon = 1000.0\nfilter.max_attempts = 4\ndynamics.widths = 8\n"
          "dynamics.epochs = 1\nselect.n_rollouts = 1\ndistill.pool = 8\n"
          "distill.epochs = 1\nppo.iterations = 1\nppo.batch_episodes = 2\n"
          "eval.episodes = 1\n")


@pytest.mark.parametrize("name, spoil, stage, detail", [
    ("dataset.jsonl", _edit_line(0, lambda meta: meta.pop("d_s")), "train-diffusion", "'d_s'"),
    ("dataset.jsonl", _break_line, "train-diffusion", "record 2 is not JSON"),
    ("policy.bin", _cut, "sample-ensemble", "cut short"),
    ("policy.bin", _bad_magic, "sample-ensemble", "bad magic"),
    ("dataset.jsonl", _edit_line(0, lambda meta: meta.pop("env")), "train-diffusion",
     "header: dataset metadata missing required key 'env'"),
    ("dataset.jsonl", _edit_line(1, lambda rec: rec["states"].pop()), "train-diffusion",
     "record 1: cannot reshape"),
    ("dataset.jsonl", _edit_line(1, lambda rec: rec.update(actions=rec["actions"][:-2])),
     "train-diffusion", "record 1: 39 actions for 40 states"),
    ("policy.bin", _cut_last_field, "sample-ensemble", "cut short"),
    ("dynamics_joint.bin", _cut_last_field, "select", "cut short"),
    ("head.bin", _cut_last_field, "eval", "cut short"),
    ("dataset.jsonl", _edit_line(1, lambda rec: rec.update(states=[], actions=[],
                                                           next_states=[], rewards=[])),
     "sample-ensemble", "record 1: no transitions"),
    ("dataset.jsonl", _edit_line(2, lambda rec: rec["states"].__setitem__(3, float("nan"))),
     "train-diffusion", "record 2: a non-finite number (NaN or infinity)"),
    ("dataset.jsonl", _edit_line(1, lambda rec: rec["rewards"].__setitem__(0, float("-inf"))),
     "train-diffusion", "record 1: a non-finite number (NaN or infinity)"),
    ("dataset.jsonl", _edit_line(3, lambda rec: rec.update(env="pendulum")), "train-diffusion",
     "record 3: env 'pendulum' differs from the header's 'point_mass'"),
], ids=["header-without-d_s", "non-json-line", "cut-checkpoint", "bad-magic",
        "header-without-env", "states-not-whole-rows", "one-action-short", "policy-cut-trailer",
        "dynamics-cut-trailer", "head-cut-trailer", "empty-record", "nan-state",
        "infinite-reward", "record-of-another-env"])
def test_malformed_input_file_is_exit_1_naming_it(tmp_path, capsys, name, spoil, stage,
                                                  detail):
    out = tmp_path / "o"
    cfg_path = _write_cfg(tmp_path, _SMALL + f"out = {out}\n")
    for earlier in cli.STAGES[:cli.STAGES.index(stage)]:
        assert cli.main([earlier, "--config", cfg_path]) == 0
    spoil(out / name)
    capsys.readouterr()
    assert cli.main([stage, "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert str(out / name) in err and detail in err, err


@pytest.fixture(scope="module")
def two_env_runs(tmp_path_factory):
    """The stages up to finetune, run once per environment."""
    root = tmp_path_factory.mktemp("two_env")
    for env_name in ("point_mass", "pendulum"):
        cfg = parse_config(_SMALL + f"env.name = {env_name}\nout = {root / env_name}\n")
        for stage in cli.STAGES[:cli.STAGES.index("eval")]:
            cli.run_stage(stage, cfg)
    return root


_CHECKPOINT_STAGES = [("policy.bin", "sample-ensemble"), ("policy.bin", "augment"),
                      ("policy.bin", "select"), ("policy.bin", "finetune"),
                      ("dynamics_joint.bin", "select"), ("head.bin", "eval")]
_ENV_DIMS = {"point_mass": "d_s = 4, d_a = 2", "pendulum": "d_s = 2, d_a = 1"}


# a point-mass checkpoint in a pendulum run (bare ids), and the reverse (ids ending
# -into-point_mass): a checkpoint with fewer action dimensions than the run's box
@pytest.mark.parametrize("run_env, name, stage", [
    pytest.param(run_env, name, stage,
                 id=f"{name}-{stage}" + ("-into-point_mass" if run_env == "point_mass" else ""))
    for run_env in ("pendulum", "point_mass") for name, stage in _CHECKPOINT_STAGES])
def test_checkpoint_of_another_env_is_exit_1(tmp_path, capsys, two_env_runs, run_env, name,
                                             stage):
    other = next(env_name for env_name in _ENV_DIMS if env_name != run_env)
    out = tmp_path / "o"
    shutil.copytree(two_env_runs / run_env, out)
    shutil.copyfile(two_env_runs / other / name, out / name)
    (out / f"{stage}.manifest").unlink(missing_ok=True)
    cfg_path = _write_cfg(tmp_path, _SMALL + f"env.name = {run_env}\nout = {out}\n")
    capsys.readouterr()
    assert cli.main([stage, "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert str(out / name) in err and _ENV_DIMS[other] in err and run_env in err, err
    assert not (out / f"{stage}.manifest").exists()


def _set_selection(key, value):
    def spoil(path):
        path.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", path.read_text(),
                               flags=re.M))
    return spoil


@pytest.mark.parametrize("spoil, overrides", [
    (_set_selection("best_seed", 12345), ""),
    (_set_selection("best_index", 9), ""),
    (lambda path: None, "ensemble.n = 2\n"),
], ids=["seed-of-no-member", "index-past-the-ensemble", "fewer-members-in-the-config"])
def test_selection_of_another_ensemble_is_exit_1(tmp_path, capsys, two_env_runs, spoil,
                                                 overrides):
    # finetune distills only a member that select picked from this config's ensemble
    out = tmp_path / "o"
    shutil.copytree(two_env_runs / "point_mass", out)
    (out / "finetune.manifest").unlink()
    (out / "distill.txt").unlink()
    spoil(out / "selection.txt")
    members = len(parse_config(_SMALL + overrides).seeds)
    cfg_path = _write_cfg(tmp_path, _SMALL + overrides + f"out = {out}\n")
    capsys.readouterr()
    assert cli.main(["finetune", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert "selection.txt" in err and f"{members}-member ensemble" in err, err
    assert not (out / "finetune.manifest").exists() and not (out / "distill.txt").exists()


@pytest.mark.parametrize("spoil, detail", [
    (lambda text: text + b"best_seed = 12345\n", ": line 4: duplicate key: best_seed"),
    (lambda text: text.replace(b"n_members = ", b"n_members "), ": line 3: expected key = value"),
    (lambda text: text + b"\xff\n", " has no usable best_seed"),
], ids=["repeated-best_seed", "line-without-equals", "not-utf-8"])
def test_malformed_selection_is_exit_1_naming_it(tmp_path, capsys, two_env_runs, spoil, detail):
    # selection.txt is read by the config's reader: no line is skipped and no key repeated
    out = tmp_path / "o"
    shutil.copytree(two_env_runs / "point_mass", out)
    (out / "finetune.manifest").unlink()
    (out / "distill.txt").unlink()
    path = out / "selection.txt"
    path.write_bytes(spoil(path.read_bytes()))
    cfg_path = _write_cfg(tmp_path, _SMALL + f"out = {out}\n")
    capsys.readouterr()
    assert cli.main(["finetune", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"uepo: selection.txt in {out}{detail}"), err
    assert not (out / "finetune.manifest").exists() and not (out / "distill.txt").exists()


def test_augment_and_train_dynamics_share_one_dynamics_recipe(tmp_path, monkeypatch):
    # both stages fit through cli._fit_dynamics, so a recipe change reaches both
    out = tmp_path / "o"
    cfg = parse_config(_SMALL + f"out = {out}\n")
    for stage in ("gen-data", "train-diffusion"):
        cli.run_stage(stage, cfg)
    recorded, train_joint = [], dynamics.train_joint

    def recording(*args, **kwargs):
        recorded.append(kwargs)
        return train_joint(*args, **kwargs)

    monkeypatch.setattr(dynamics, "train_joint", recording)
    for stage in ("augment", "train-dynamics"):
        cli.run_stage(stage, cfg)
    # neither stage sets the batch size or the step size: train_joint's defaults own them
    assert [sorted(kw) for kw in recorded] == [["curve"]] * 2


def test_failed_div_check_writes_fail_and_no_manifest(tmp_path, capsys, monkeypatch):
    out = tmp_path / "o"
    cfg_path = _write_cfg(tmp_path, f"out = {out}\n")
    monkeypatch.setattr(divergence, "div", lambda a_i, a_j: 0.5)
    assert cli.main(["div-check", "--config", cfg_path]) == 2
    assert "divergence self-test failed" in capsys.readouterr().err
    assert "status = fail\n" in (out / "div_check.txt").read_text()
    assert not (out / "div-check.manifest").exists()
    _assert_lock_free(str(out / ".lock"))


def _tiny(max_attempts):
    """The small config cut to seconds, with a filter that accepts every rollout."""
    with open(SMALL_CFG, encoding="utf-8") as fh:
        small = fh.read()
    return (small.replace("train_steps = 300", "train_steps = 20")
            .replace("epochs = 120", "epochs = 7")
            .replace("attempts = 400", f"attempts = {max_attempts}")
            .replace("epsilon = 1.0", "epsilon = 1000.0"))


def test_only_train_dynamics_computes_the_pool_nll_curve(tmp_path, monkeypatch):
    # augment discards its initial model's curve, so it must not compute it
    out = tmp_path / "o"
    cfg = parse_config(_tiny(20) + f"out = {out}\n")
    for stage in ("gen-data", "train-diffusion"):
        cli.run_stage(stage, cfg)
    calls, pool_nll = [], dynamics.pool_nll

    def counting(*args, **kwargs):
        calls.append(1)
        return pool_nll(*args, **kwargs)

    monkeypatch.setattr(dynamics, "pool_nll", counting)
    cli.run_stage("augment", cfg)
    assert len(calls) == 0
    cli.run_stage("train-dynamics", cfg)
    # the curve's points: epoch 0 and the last of the 7 epochs
    assert cfg["dynamics.epochs"] == 7 and len(calls) == 2


def test_dynamics_loss_csv_has_every_tenth_epoch_and_the_saved_model_nll(pipeline):
    # in-tree twin of the benchmark's dynamics.curve check
    cfg, out = pipeline
    with open(os.path.join(out, "dynamics_loss.csv")) as fh:
        header, *rows = fh.read().splitlines()
    assert header == "epoch,pool_nll"
    epochs = cfg["dynamics.epochs"]
    assert epochs % dynamics.CURVE_EVERY == 0 and cfg["dynamics.use_augmented"]
    assert [int(r.split(",")[0]) for r in rows] == list(range(0, epochs + 1,
                                                              dynamics.CURVE_EVERY))
    real, syn = (cli._real_batch(load_dataset(os.path.join(out, name)))
                 for name in (cli.DATASET, cli.AUGMENTED))
    pool = dynamics.TransitionBatch(np.concatenate([real.s, syn.s]),
                                    np.concatenate([real.a, syn.a]),
                                    np.concatenate([real.s_next, syn.s_next]))
    model = dynamics.load_dynamics(os.path.join(out, "dynamics_joint.bin"))
    assert float(rows[-1].split(",")[1]) == dynamics.pool_nll(model, pool)


@pytest.mark.parametrize("max_attempts, under_filled", [(2, True), (200, False)])
def test_augment_under_fill_is_one_stderr_line(tmp_path, capsys, max_attempts, under_filled):
    # 480 real transitions at ratio 2 need 120 accepted 8-step rollouts
    out = tmp_path / "o"
    cfg_path = _write_cfg(tmp_path, _tiny(max_attempts) + f"out = {out}\n")
    for stage in ("gen-data", "train-diffusion"):
        assert cli.main([stage, "--config", cfg_path]) == 0
    capsys.readouterr()
    assert cli.main(["augment", "--config", cfg_path]) == 0
    report = _read_pairs(out / "augment_report.txt")
    want = (f"uepo: augment under-filled: {report['achieved_transitions']} of "
            f"{report['target_transitions']} target transitions, ratio "
            f"{float(report['achieved_ratio']):.3f} of 2.0\n")
    assert capsys.readouterr().err == (want if under_filled else "")
    assert (int(report["achieved_transitions"]) < int(report["target_transitions"])) == under_filled


def test_main_help_is_exit_0(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "uepo" in out
    for key, field in SCHEMA.items():
        assert f"  {key} = " in out and field.doc in out, key


def test_help_key_list_is_a_valid_config(capsys):
    # each key's line, without its indent and its "# doc", is the key at its default
    assert cli.main(["--help"]) == 0
    listed = capsys.readouterr().out.split("config keys, each at its default:\n", 1)[1]
    lines = [line.split("#", 1)[0].strip() for line in listed.splitlines()]
    assert len(lines) == len(SCHEMA)
    assert parse_config("\n".join(lines)).canonical_text() == parse_config("").canonical_text()


def test_python_m_uepo_help_is_exit_0():
    # the package's parent directory on the path, as PYTHONPATH=src gives it
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "uepo", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage: uepo" in proc.stdout


def test_console_script_wired():
    # the declaration in pyproject.toml is what an install turns into the
    # `uepo` script, so check it resolves to main() without installing
    import importlib.metadata as md
    tomllib = pytest.importorskip("tomllib")
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "uepo" in scripts
    declared = md.EntryPoint(name="uepo", value=scripts["uepo"], group="console_scripts")
    assert declared.load() is cli.main
    # an installed distribution must carry the same entry point
    try:
        installed = md.distribution("uepo").entry_points
    except md.PackageNotFoundError:
        return
    assert list(installed.select(group="console_scripts", name="uepo")) == [declared]
