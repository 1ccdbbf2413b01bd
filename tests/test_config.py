import hashlib
import re

import pytest

from uepo import augmentation, diffusion, finetune
from uepo.config import RunConfig, SCHEMA, load_config, parse_config
from uepo.errors import ConfigError


def test_empty_config_gives_defaults():
    cfg = RunConfig({})
    assert cfg["env.name"] == "point_mass"
    assert cfg["diffusion.k"] == 50
    assert cfg["diffusion.widths"] == (128, 128)
    assert cfg["ensemble.tau"] == 0.5
    assert cfg["dynamics.use_augmented"] is True
    assert cfg["seed"] == 0
    assert cfg["out"] == "run_out"


def test_every_schema_default_passes_its_own_check():
    cfg = RunConfig({})
    for key in SCHEMA:
        assert cfg[key] == SCHEMA[key].default


def test_defaults_agree_with_the_library():
    cfg = RunConfig({})
    fcfg = augmentation.FilterConfig()
    assert (cfg["filter.epsilon"], cfg["filter.ratio"]) == (fcfg.epsilon, fcfg.ratio)
    assert (cfg["diffusion.k"], cfg["diffusion.beta_min"], cfg["diffusion.beta_max"]) == (
        diffusion.DEFAULT_K, diffusion.DEFAULT_BETA_MIN, diffusion.DEFAULT_BETA_MAX)
    ppo = finetune.PpoConfig()
    for key in ("clip_ratio", "discount", "gae_lambda", "epochs_per_batch",
                "batch_episodes", "step_size", "value_step_size"):
        assert cfg[f"ppo.{key}"] == getattr(ppo, key), key


def test_parse_basic_assignments_and_comments():
    text = """
# a comment line
env.name = pendulum   # trailing comment
diffusion.T = 8

ensemble.n = 3
env.coverage_gap = yes
dynamics.widths = 32, 16
"""
    cfg = parse_config(text)
    assert cfg["env.name"] == "pendulum"
    assert cfg["diffusion.T"] == 8
    assert cfg["ensemble.n"] == 3
    assert cfg["env.coverage_gap"] is True
    assert cfg["dynamics.widths"] == (32, 16)


def test_bool_parsing_variants():
    for token, want in [("true", True), ("1", True), ("yes", True),
                        ("false", False), ("0", False), ("no", False),
                        ("TRUE", True), ("No", False)]:
        cfg = parse_config(f"env.coverage_gap = {token}\n")
        assert cfg["env.coverage_gap"] is want
    with pytest.raises(ConfigError, match="bad value for env.coverage_gap"):
        parse_config("env.coverage_gap = maybe\n")


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match="line 2: unknown config key: diffusion.kk"):
        parse_config("seed = 1\ndiffusion.kk = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="line 3: duplicate key: seed"):
        parse_config("seed = 1\nout = x\nseed = 2\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="line 1: expected key = value"):
        parse_config("just some words\n")


def test_bad_int_reports_line_and_key():
    with pytest.raises(ConfigError, match="line 1: bad value for diffusion.k"):
        parse_config("diffusion.k = fifty\n")


def test_value_checks_fire():
    with pytest.raises(ConfigError, match="env.name must be one of"):
        parse_config("env.name = cartpole\n")
    with pytest.raises(ConfigError, match="diffusion.T must be >= 3"):
        parse_config("diffusion.T = 2\n")
    with pytest.raises(ConfigError, match="env.sigma_env must be >= 0"):
        parse_config("env.sigma_env = -0.1\n")
    with pytest.raises(ConfigError, match="ppo.discount must lie in \\(0, 1\\]"):
        parse_config("ppo.discount = 1.5\n")
    with pytest.raises(ConfigError, match="empty list"):
        parse_config("diffusion.widths = ,\n")


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
    with pytest.raises(ConfigError, match="beta_min must be < "):
        parse_config("diffusion.beta_min = 0.5\ndiffusion.beta_max = 0.5\n")
    # and the reversed case
    with pytest.raises(ConfigError):
        RunConfig({"diffusion.beta_min": 0.3, "diffusion.beta_max": 0.1})


def test_unknown_key_in_constructor():
    with pytest.raises(ConfigError, match="unknown config key: nope"):
        RunConfig({"nope": 1})


def test_config_is_immutable():
    cfg = RunConfig({})
    with pytest.raises(AttributeError):
        cfg.seed = 3
    with pytest.raises(ConfigError, match="unknown config key"):
        cfg["not.a.key"]


def test_replaced_swaps_only_seed_and_out():
    cfg = RunConfig({"seed": 1, "out": "a"})
    swapped = cfg.replaced(seed=9, out="b")
    assert swapped["seed"] == 9
    assert swapped["out"] == "b"
    # original untouched
    assert cfg["seed"] == 1 and cfg["out"] == "a"
    with pytest.raises(ConfigError, match="only seed and out"):
        cfg.replaced(**{"diffusion.k": 3})


def test_canonical_text_sorted_and_excludes_out():
    cfg = RunConfig({"seed": 4, "out": "somewhere"})
    text = cfg.canonical_text()
    lines = text.splitlines()
    assert lines == sorted(lines)
    assert text.endswith("\n")
    assert not any(line.startswith("out ") for line in lines)
    assert "seed = 4" in lines
    assert "diffusion.widths = 128,128" in lines
    assert "dynamics.use_augmented = true" in lines


def test_config_hash_matches_sha256_and_ignores_out():
    a = RunConfig({"out": "x"})
    b = RunConfig({"out": "y"})
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() == hashlib.sha256(a.canonical_text().encode()).hexdigest()
    c = RunConfig({"seed": 1})
    assert c.config_hash() != a.config_hash()


def test_parse_round_trip_through_canonical_text():
    cfg = RunConfig({"env.name": "pendulum", "diffusion.beta_max": 0.2,
                     "dynamics.widths": (32,)})
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


def test_filter_ratio_outside_library_range_rejected():
    with pytest.raises(ConfigError, match="ratio must lie in"):
        parse_config("filter.ratio = 1.5\n")


def test_zero_guided_steps_rejected():
    with pytest.raises(ConfigError, match="ensemble.guided_steps must be > 0"):
        parse_config("ensemble.guided_steps = 0\n")


def test_beta_max_at_or_above_one_rejected():
    with pytest.raises(ConfigError, match="beta_max < 1"):
        parse_config("diffusion.beta_max = 1.5\n")


@pytest.mark.parametrize("key", ["objective.alpha", "data.dataset", "data.gap",
                                 "data.augmented"])
def test_objective_alpha_is_not_a_key(key):
    # no stage reads them, so the schema has no such keys
    with pytest.raises(ConfigError, match=f"unknown config key: {key}"):
        parse_config(f"{key} = 0.1\n")
