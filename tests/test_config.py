import hashlib
import re

import numpy as np
import pytest

from uepo import augmentation, diffusion, divergence, envs, finetune
from uepo.config import (ENSEMBLE_BASE_SEED, SCHEMA, format_pairs, format_value, load_config,
                         parse_config, parse_pairs)
from uepo.errors import ConfigError


def test_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg["env.name"] == "point_mass"
    assert cfg["diffusion.k"] == 50
    assert cfg["diffusion.widths"] == (128, 128)
    assert cfg["ensemble.tau"] == 0.5
    assert cfg["dynamics.use_augmented"] is True
    assert cfg["seed"] == 0
    assert cfg["out"] == "run_out"


def test_every_schema_default_passes_its_own_check():
    cfg = parse_config("")
    for key in SCHEMA:
        assert cfg[key] == SCHEMA[key].default


def test_defaults_agree_with_the_library():
    cfg = parse_config("")
    fcfg = augmentation.FilterConfig()
    assert (cfg["filter.epsilon"], cfg["filter.ratio"]) == (fcfg.epsilon, fcfg.ratio)
    assert (cfg["diffusion.k"], cfg["diffusion.beta_min"], cfg["diffusion.beta_max"]) == (
        diffusion.DEFAULT_K, diffusion.DEFAULT_BETA_MIN, diffusion.DEFAULT_BETA_MAX)
    ppo = finetune.PpoConfig()
    for key in ("clip_ratio", "discount", "epochs_per_batch", "batch_episodes"):
        assert cfg[f"ppo.{key}"] == getattr(ppo, key), key


def test_default_schedule_ends_near_the_sampler_start():
    # sampling starts from N(0, I), so the forward process must end near it
    cfg = parse_config("")
    assert cfg["diffusion.beta_max"] == 0.2
    assert cfg.schedule.alpha_bar[-1] < 0.01


def test_load_builds_what_the_stages_use():
    cfg = parse_config("env.name = pendulum\nenv.sigma_env = 0.2\ndiffusion.k = 7\n"
                       "ensemble.tau = 0.3\nfilter.ratio = 2.5\nppo.discount = 0.9\n")
    assert cfg.env == envs.make_env("pendulum", sigma_env=0.2)
    assert np.array_equal(cfg.schedule.beta, diffusion.make_linear_schedule(7, 1e-4, 0.2).beta)
    assert cfg.guidance == divergence.DivergenceConfig(0.3, 0.1, 10)
    # filter.max_attempts = 0 leaves the budget to the library
    assert cfg.filter == augmentation.FilterConfig(0.15, 2.5, None)
    assert parse_config("filter.max_attempts = 9\n").filter.max_attempts == 9
    assert cfg.ppo == finetune.PpoConfig(discount=0.9)
    assert cfg.seeds == diffusion.member_seeds(4, ENSEMBLE_BASE_SEED)


def test_parse_basic_assignments_and_comments():
    text = """
# a comment line
env.name = pendulum   # trailing comment
diffusion.T = 8

ensemble.n = 3
dynamics.use_augmented = no
dynamics.widths = 32, 16
"""
    cfg = parse_config(text)
    assert cfg["env.name"] == "pendulum"
    assert cfg["diffusion.T"] == 8
    assert cfg["ensemble.n"] == 3
    assert cfg["dynamics.use_augmented"] is False
    assert cfg["dynamics.widths"] == (32, 16)


def test_bool_parsing_variants():
    for token, want in [("true", True), ("1", True), ("yes", True),
                        ("false", False), ("0", False), ("no", False),
                        ("TRUE", True), ("No", False)]:
        cfg = parse_config(f"dynamics.use_augmented = {token}\n")
        assert cfg["dynamics.use_augmented"] is want
    with pytest.raises(ConfigError, match="bad value for dynamics.use_augmented"):
        parse_config("dynamics.use_augmented = maybe\n")


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match="line 2: unknown config key: diffusion.kk"):
        parse_config("seed = 1\ndiffusion.kk = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="line 3: duplicate key: seed"):
        parse_config("seed = 1\nout = x\nseed = 2\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="line 1: expected key = value"):
        parse_config("just some words\n")


def test_pairs_round_trip_through_the_one_writer_and_reader():
    # numpy 2's repr of a scalar is "np.float64(0.3)"; the text holds the
    # shortest float repr and plain integers instead
    third = np.float64(0.1) + np.float64(0.2)
    pairs = [("best_index", np.int64(2)), ("distill_mse", third), ("ok", True),
             ("flag", False), ("widths", (64, 32)), ("ratio", 2.0), ("small", 1e-300),
             ("status", "ok")]
    text = format_pairs(pairs)
    assert text.splitlines()[:2] == ["best_index = 2", "distill_mse = 0.30000000000000004"]
    assert [(key, value) for _, key, value in parse_pairs(text)] == [
        (key, format_value(value)) for key, value in pairs]
    assert [lineno for lineno, _, _ in parse_pairs(text)] == list(range(1, len(pairs) + 1))


def test_reader_skips_comments_and_blank_lines_and_names_lines():
    text = "# a comment\n\n a = 1  # trailing\nb=x y\n"
    assert list(parse_pairs(text)) == [(3, "a", "1"), (4, "b", "x y")]
    with pytest.raises(ConfigError, match="line 2: duplicate key: a"):
        list(parse_pairs("a = 1\na = 2\n"))
    with pytest.raises(ConfigError, match="line 2: expected key = value, got 'no equals'"):
        list(parse_pairs("a = 1\nno equals\n"))


def test_hash_starts_a_comment_only_at_line_start_or_after_whitespace():
    assert parse_config("out = runs/a#1\n")["out"] == "runs/a#1"
    assert parse_config("seed = 3  # note\n")["seed"] == 3
    assert parse_config("seed = 3\t# note\n#seed = 4\n")["seed"] == 3
    assert list(parse_pairs("a = x#y # z\n")) == [(1, "a", "x#y")]


def test_bad_int_reports_line_and_key():
    with pytest.raises(ConfigError, match="line 1: bad value for diffusion.k"):
        parse_config("diffusion.k = fifty\n")


def test_value_checks_fire():
    with pytest.raises(ConfigError, match="env.name must be one of"):
        parse_config("env.name = cartpole\n")
    with pytest.raises(ConfigError, match="diffusion.T must be >= 3"):
        parse_config("diffusion.T = 2\n")
    # the environment owns sigma_env > 0: the KL filter divides by its variance
    with pytest.raises(ConfigError, match="env.sigma_env must be > 0, got -0.1"):
        parse_config("env.sigma_env = -0.1\n")
    with pytest.raises(ConfigError, match="env.sigma_env must be > 0, got 0.0"):
        parse_config("env.sigma_env = 0\n")
    with pytest.raises(ConfigError, match="ppo.discount must lie in \\(0, 1\\]"):
        parse_config("ppo.discount = 1.5\n")
    with pytest.raises(ConfigError, match="empty list"):
        parse_config("diffusion.widths = ,\n")
    with pytest.raises(ConfigError, match="diffusion.window_stride must be > 0"):
        parse_config("diffusion.window_stride = 0\n")


def test_sequence_longer_than_the_episode_rejected():
    # train-diffusion would find no window; the config refuses it at load
    assert parse_config("diffusion.T = 40\n")["diffusion.T"] == 40
    assert parse_config("env.name = pendulum\ndiffusion.T = 50\n")["diffusion.T"] == 50
    with pytest.raises(ConfigError, match="diffusion.T = 41 exceeds the point_mass horizon of 40"):
        parse_config("diffusion.T = 41\n")
    with pytest.raises(ConfigError, match="diffusion.T = 51 exceeds the pendulum horizon of 50"):
        parse_config("env.name = pendulum\ndiffusion.T = 51\n")


@pytest.mark.parametrize("key,value", [("ppo.clip_ratio", 1.5), ("ppo.clip_ratio", 1.0),
                                       ("ppo.clip_ratio", 0.0), ("ppo.discount", 0.0),
                                       ("ppo.discount", 1.5), ("ppo.discount", -0.1)])
def test_ppo_bounds_are_checked_at_load(key, value):
    # finetune's PpoConfig rejects these values; the config must reject
    # them at load, naming the key, instead of after five stages have run
    with pytest.raises(ConfigError):
        finetune.PpoConfig(**{key.split(".")[1]: value})
    with pytest.raises(ConfigError, match=re.escape(key) + " must lie in"):
        parse_config(f"{key} = {value}\n")


def test_ppo_bound_edges_load():
    cfg = parse_config("ppo.clip_ratio = 0.999\nppo.discount = 1.0\n")
    finetune.PpoConfig(clip_ratio=cfg["ppo.clip_ratio"], discount=cfg["ppo.discount"])


def test_beta_ordering_cross_check():
    with pytest.raises(ConfigError, match=re.escape("diffusion.beta_min must lie in (0, beta_max")):
        parse_config("diffusion.beta_min = 0.5\ndiffusion.beta_max = 0.5\n")
    # and the reversed case
    with pytest.raises(ConfigError):
        parse_config("diffusion.beta_min = 0.3\ndiffusion.beta_max = 0.1\n")


def test_config_is_immutable():
    cfg = parse_config("")
    with pytest.raises(AttributeError):
        cfg.seed = 3
    with pytest.raises(ConfigError, match="unknown config key"):
        cfg["not.a.key"]


def test_replaced_swaps_only_seed_and_out():
    # --seed and --out are the text of two more lines, replacing the file's
    text = "seed = 1\nout = a\nenv.n_traj = 7\n"
    swapped = parse_config(text, seed="9", out="b")
    assert (swapped["seed"], swapped["out"], swapped["env.n_traj"]) == (9, "b", 7)
    stated = parse_config("seed = 9\nout = b\nenv.n_traj = 7\n")
    assert swapped.config_hash() == stated.config_hash()
    assert parse_config(text, out="b")["seed"] == 1
    assert parse_config("", seed="4")["out"] == "run_out"
    # the replaced line is not read at all
    assert parse_config("seed = x\nout = \n", seed="2", out="c")["seed"] == 2
    with pytest.raises(TypeError):
        parse_config(text, **{"diffusion.k": "3"})


def test_canonical_text_sorted_and_excludes_out():
    cfg = parse_config("seed = 4\nout = somewhere\n")
    text = cfg.canonical_text()
    lines = text.splitlines()
    assert lines == sorted(lines)
    assert text.endswith("\n")
    assert not any(line.startswith("out ") for line in lines)
    assert "seed = 4" in lines
    assert "diffusion.widths = 128,128" in lines
    assert "dynamics.use_augmented = true" in lines


def test_config_hash_matches_sha256_and_ignores_out():
    a = parse_config("out = x\n")
    b = parse_config("out = y\n")
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() == hashlib.sha256(a.canonical_text().encode()).hexdigest()
    c = parse_config("seed = 1\n")
    assert c.config_hash() != a.config_hash()


def test_parse_round_trip_through_canonical_text():
    cfg = parse_config("env.name = pendulum\ndiffusion.beta_max = 0.2\ndynamics.widths = 32\n")
    again = parse_config(cfg.canonical_text())
    assert again.config_hash() == cfg.config_hash()
    assert again["dynamics.widths"] == (32,)
    assert again["diffusion.beta_max"] == 0.2


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "absent.cfg"))


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 7\nenv.n_traj = 12\n")
    cfg = load_config(str(path))
    assert cfg["seed"] == 7
    assert cfg["env.n_traj"] == 12
    flagged = load_config(str(path), seed="8", out="there")
    assert (flagged["seed"], flagged["out"], flagged["env.n_traj"]) == (8, "there", 12)


def test_filter_ratio_outside_library_range_rejected():
    with pytest.raises(ConfigError, match="ratio must lie in"):
        parse_config("filter.ratio = 1.5\n")


def test_zero_guided_steps_rejected():
    with pytest.raises(ConfigError, match="ensemble.guided_steps must be > 0"):
        parse_config("ensemble.guided_steps = 0\n")


def test_beta_max_at_or_above_one_rejected():
    with pytest.raises(ConfigError, match="diffusion.beta_max must be < 1"):
        parse_config("diffusion.beta_max = 1.5\n")


@pytest.mark.parametrize("key", ["objective.alpha", "data.dataset", "data.gap",
                                 "data.augmented", "env.horizon", "ensemble.base_seed",
                                 "diffusion.step_size", "dynamics.batch_size",
                                 "dynamics.step_size", "ppo.gae_lambda", "ppo.step_size",
                                 "ppo.value_step_size", "env.coverage_gap"])
def test_objective_alpha_is_not_a_key(key):
    # no stage reads them, so the schema has no such keys
    with pytest.raises(ConfigError, match=f"unknown config key: {key}"):
        parse_config(f"{key} = 0.1\n")


# one out-of-range value per key; each must fail at load, naming its key
_BAD_VALUES = {
    "env.name": "cartpole", "env.sigma_env": "0", "env.n_traj": "0", "env.mode_mix": "1.5",
    "diffusion.k": "0", "diffusion.beta_min": "0", "diffusion.beta_max": "1.5",
    "diffusion.T": "2", "diffusion.widths": "32,0", "diffusion.train_steps": "0",
    "diffusion.batch_size": "0", "diffusion.window_stride": "0", "ensemble.n": "0",
    "ensemble.tau": "-1", "ensemble.eta": "-0.1", "ensemble.guided_steps": "0",
    "ensemble.n_states": "0", "filter.epsilon": "0", "filter.ratio": "1.5",
    "filter.max_attempts": "-1", "dynamics.widths": "0", "dynamics.epochs": "0",
    "dynamics.use_augmented": "maybe", "select.n_rollouts": "0", "distill.pool": "0",
    "distill.epochs": "0", "ppo.clip_ratio": "1.0", "ppo.discount": "0",
    "ppo.epochs_per_batch": "0", "ppo.batch_episodes": "0", "ppo.iterations": "0",
    "eval.episodes": "0", "seed": "-1", "out": "",
}


@pytest.mark.parametrize("key", sorted(SCHEMA))
def test_every_key_refuses_a_bad_value_at_load(key):
    with pytest.raises(ConfigError, match=rf"(^|\s){re.escape(key)}\b"):
        parse_config(f"{key} = {_BAD_VALUES[key]}\n")


@pytest.mark.parametrize("key", [k for k, f in SCHEMA.items() if isinstance(f.default, float)])
def test_float_keys_must_be_finite(key):
    # one message for every non-finite float, before any range rule: an
    # infinite threshold or noise scale keeps `> 0` and would load, then fail
    # or misbehave stages later
    for text in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be finite, got {text}$"):
            parse_config(f"{key} = {text}\n")
