"""The run and generator configs: the fixed behaviour model, the run hash, the seed, the README."""

import json
import re
from pathlib import Path

import pytest

from skattr.cli import main
from skattr.config import RunConfig, gen_config_from_dict, run_config_from_dict
from skattr.errors import ConfigError
from skattr.io_files import config_hash
from skattr.synthgen import MODEL, GenConfig

README = Path(__file__).resolve().parents[1] / "README.md"

# The generator block every run hash has recorded since the behaviour model
# was first written down: a default ``GenConfig`` with the README's sizes.
RECORDED_GEN = {
    "n_users": 50000, "n_networks": 2, "campaigns_per_network": 5, "organic_share": 0.3,
    "spender_rate": 0.05, "retention_continue": 0.72, "spender_retention_continue": 0.985,
    "activity_rate": 0.92, "habit_prob": 0.88, "max_sessions_per_day": 3,
    "purchase_prob": 0.3, "purchase_day0_prob": 0.08, "amount_mu": 5.8, "amount_sigma": 0.7,
    "whale_sigma": 0.6, "tenure_amount_slope": 0.012,
    "flag_probs": [0.55, 0.3, 0.16, 0.08, 0.04, 0.02], "flag_spender_boost": 2.0,
    "campaign_quality_sigma": 0.4, "n_weeks": 12, "event_horizon_days": 90,
    "start_date": "2024-01-01", "groups": [["US", 0.5], ["ROW", 0.5]], "organic_alpha": None,
    "seed": 0,
}


def readme_run_configs() -> list[dict]:
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", README.read_text(),
                                                      re.DOTALL)]


def readme_gen_configs() -> list[dict]:
    return [json.loads(span) for span in re.findall(r"`(\{.*?\})`", README.read_text())]


def test_readme_examples_load():
    """Every config the README shows loads, so a doc that names a removed key fails here."""
    runs, gens = readme_run_configs(), readme_gen_configs()
    assert len(runs) == 1 and len(gens) == 1
    for data in runs:
        run_config_from_dict(data)
    for data in gens:
        gen_config_from_dict(data)


def test_run_hash_records_the_behaviour_model():
    """The fixed model values sit in the hashed ``gen`` block, so no run hash moved."""
    cfg = run_config_from_dict(readme_run_configs()[0])
    gen = json.loads(json.dumps(cfg.to_jsonable()["gen"]))
    assert gen == RECORDED_GEN
    assert set(GenConfig._fields) | set(MODEL) == set(RECORDED_GEN)
    assert config_hash(cfg.to_jsonable()) == "c76b579d6ac8"


@pytest.mark.parametrize("key", sorted(MODEL))
def test_behaviour_model_key_is_refused(tmp_path, capsys, key):
    """No config sets the behaviour model, not even to its own value."""
    message = f"unknown generator config keys: [{key!r}]"
    data = {"n_users": 50, "seed": 1, key: json.loads(json.dumps(MODEL[key]))}
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        gen_config_from_dict(data)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_config_from_dict({"gen": data, "seed": 1})
    (tmp_path / "gen.json").write_text(json.dumps(data))
    out = tmp_path / "d1"
    assert main(["generate", "--config", str(tmp_path / "gen.json"), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ConfigError", "message": message}
    assert not out.exists()


def test_generator_seed_built_in_python():
    """A run's generator seed is the run seed, or the default 0 that stands for it."""
    with pytest.raises(ConfigError, match="^generator config seed 5 differs from the run seed 0$"):
        RunConfig(gen=GenConfig(n_users=300, seed=5), windows=())
    same = RunConfig(gen=GenConfig(n_users=300, seed=5), windows=(), seed=5)
    with pytest.raises(ConfigError, match="^generator config seed 5 differs from the run seed 3$"):
        same._replace(seed=3)
    default = RunConfig(gen=GenConfig(n_users=300), windows=(), seed=5)
    # The default 0 is what a JSON ``gen`` block without a seed gives.
    loaded = run_config_from_dict({"gen": {"n_users": 300}, "windows": [], "seed": 5})
    assert default == loaded
    assert config_hash(default.to_jsonable()) == config_hash(loaded.to_jsonable())
    assert same.gen.seed == same.seed == 5
