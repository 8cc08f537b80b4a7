"""The package's records: named tuples whose constructors check their fields.

A record compares and hashes as the tuple of its fields, so memo keys and
set orders are those of the field tuples.
``record._replace(**changes)`` builds the copy through the constructor and
runs its checks; only ``CountMatrix._derive`` skips them.
"""

import re
from datetime import date

import pytest

from skattr.attribution import AttributionFunction, CellAttribution, attribute_plain
from skattr.config import RunConfig, gen_config_from_dict, run_config_from_dict
from skattr.errors import ConfigError, InvalidCampaignError, LayoutError
from skattr.metrics import benchmark_matrix, window_error_curve
from skattr.model import (
    SESSION,
    US_PER_DAY,
    CampaignKey,
    Event,
    UserRecord,
    encode_alpha,
    organic_key,
)
from skattr.pipeline import run_schema
from skattr.postback import CountMatrix, empty_matrix
from skattr.privacy import PrivacyConfig
from skattr.schema import BitLayout, SchemaSpec, prepare_users, schema_from_text
from skattr.synthgen import GenConfig, _tables, generate_dataset

GEN = GenConfig(n_users=300, n_weeks=2, event_horizon_days=40, seed=3)
D7RR = "kind=RR;layout=TTTVVV;horizon=7"


@pytest.fixture(scope="module")
def run():
    """One small grid and window curve, and the cohort they ran on."""
    users, _ = generate_dataset(GEN)
    cohort = prepare_users(users)
    schemas = [schema_from_text(D7RR), schema_from_text("kind=UD")]
    report = benchmark_matrix(users, schemas, [0, 10], ["plain", "null_uniform"], 30,
                              seed=3, prepared=cohort)
    curve = window_error_curve(users, schemas[0], 0, "plain", [(7, 14)], seed=3,
                               prepared=cohort)
    return users, cohort, report, curve


@pytest.fixture(scope="module")
def frozen_records(run):
    """One instance of each immutable record class."""
    users, cohort, report, curve = run
    art = run_schema(cohort, schema_from_text(D7RR), 3)
    matrix = next(iter(art.matrices.values()))
    tables = _tables(GEN)
    return [
        AttributionFunction("null_convex", 0.5),
        attribute_plain(matrix, {v: 1 for v in range(64)}),
        RunConfig(gen=GenConfig()),
        report.cells[0],
        curve[0],
        users[0].origin,
        users[0],
        art,
        art.postbacks,
        matrix,
        PrivacyConfig(10),
        art.schema.layout,
        art.schema,
        GEN,
        tables.segments[0][0],
        tables,
    ]


def field_names(record) -> tuple[str, ...]:
    return getattr(type(record), "_fields", None) or type(record).__slots__


def test_every_frozen_record_refuses_assignment(frozen_records):
    assert len({type(r) for r in frozen_records}) == 16
    for record in frozen_records:
        for name in field_names(record):
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))


def test_report_stays_mutable(run):
    report = run[2]
    assert report.window_curve is None
    report.metadata = dict(report.metadata)
    with pytest.raises(AttributeError):
        report.extra = 1


@pytest.mark.parametrize("record", [
    CampaignKey(7),
    organic_key(11),
    schema_from_text("kind=UD"),
    SchemaSpec("RR", BitLayout("TTTVVV"), 7, (100, 250, 900), 5),
], ids=repr)
def test_hash_and_equality_are_the_field_tuples(record):
    """So every memo key and set order is that of the field tuples."""
    fields = tuple(getattr(record, name) for name in record._fields)
    assert record == fields and hash(record) == hash(fields)
    assert {record: 1}[fields] == 1


def test_repr_names_the_fields():
    assert repr(CampaignKey(7)) == "CampaignKey(alpha=7, organic=False)"
    assert repr(schema_from_text("kind=EV")) == (
        "SchemaSpec(kind='EV', layout=BitLayout(bits='CCCCCC'), horizon_days=0, "
        "bucket_boundaries=None, seed=None)"
    )


def test_constructor_normalises_fields():
    assert SchemaSpec("PV", horizon_days=30, bucket_boundaries=[5, 9]).bucket_boundaries == (5, 9)
    assert SchemaSpec("PV", horizon_days=30).layout == BitLayout("VVVVVV")
    assert AttributionFunction("null_empirical").lam == 1.0
    user = UserRecord(1, date(2024, 1, 1), CampaignKey(0), iter([]), "G")
    assert user.events == ()


class TestReplaceRunsTheChecks:
    def test_schema(self):
        schema = schema_from_text(D7RR)
        assert schema._replace(bucket_boundaries=[10, 20]).bucket_boundaries == (10, 20)
        with pytest.raises(ConfigError, match="^bucket boundaries must be ascending$"):
            schema._replace(bucket_boundaries=(20, 10))
        with pytest.raises(ConfigError, match="^RR horizon must be 2"):
            schema._replace(horizon_days=3)

    def test_gen_config(self):
        assert GEN._replace(seed=9).seed == 9
        with pytest.raises(ConfigError, match="^n_users must be at least 1$"):
            GEN._replace(n_users=0)

    def test_user_record(self):
        user = UserRecord(1, date(2024, 1, 2), CampaignKey(0), (), "G")
        before = Event(user.registration_date.toordinal() * US_PER_DAY - 1, SESSION)
        with pytest.raises(ConfigError, match="^user 1: event precedes registration$"):
            user._replace(events=(before,))
        with pytest.raises(ConfigError, match="^user id must be an int"):
            user._replace(id="1")

    def test_count_matrix(self):
        m = empty_matrix("G", "2024-W01", (encode_alpha(0, 0), organic_key(1)))
        with pytest.raises(ConfigError, match="^count matrix must have 64 rows$"):
            m._replace(rows=m.rows[:3])
        with pytest.raises(ConfigError, match="needs both its threshold p and its null row"):
            m._replace(p=2)

    def test_other_checked_records(self):
        with pytest.raises(InvalidCampaignError):
            CampaignKey(3)._replace(alpha=-1)
        with pytest.raises(LayoutError):
            BitLayout("TTTVVV")._replace(bits="VVVTTT")
        with pytest.raises(ConfigError):
            PrivacyConfig(2)._replace(p=-1)
        with pytest.raises(ConfigError):
            AttributionFunction("plain")._replace(lam=0.5)
        with pytest.raises(ConfigError, match="generator block or dataset paths"):
            RunConfig(gen=GenConfig())._replace(gen=None)

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unexpected field names: \\['network'\\]"):
            CampaignKey(3)._replace(network=1)


def test_derive_skips_the_checks():
    """``apply_threshold`` and ``estimate_organic`` copy a checked matrix without re-checking."""
    m = empty_matrix("G", "2024-W01", (encode_alpha(0, 0),))
    bad = m._derive(rows=m.rows[:3], p=1)
    assert type(bad) is CountMatrix
    assert (bad.rows, bad.p, bad.null_row, bad.group) == (m.rows[:3], 1, None, "G")
    assert bad.row_sums == (0, 0, 0)  # its own cache, not the source's
    assert len(m.row_sums) == 64


@pytest.mark.parametrize("build, data, message", [
    (gen_config_from_dict, {"n_users": "600"},
     "generator config key 'n_users' must fit int, got '600'"),
    (gen_config_from_dict, {"groups": "x"},
     "generator config key 'groups' must fit tuple[tuple[str, float], ...], got 'x'"),
    (gen_config_from_dict, {"organic_alpha": 1.5},
     "generator config key 'organic_alpha' must fit int | None, got 1.5"),
    (run_config_from_dict, {"gen": {}, "t": "30"}, "run config key 't' must fit int, got '30'"),
    (run_config_from_dict, {"gen": 5}, "run config key 'gen' must fit GenConfig | None, got 5"),
    (run_config_from_dict, {"gen": {}, "windows": [[7.5, 14]]},
     "run config key 'windows' must fit tuple[tuple[int, int], ...], got [[7.5, 14]]"),
], ids=["n_users", "groups", "organic_alpha", "t", "gen", "windows"])
def test_config_type_error_names_the_type_as_written(build, data, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build(data)


def test_record_keyed_containers_hold_only_records(run):
    """A record equals the plain tuple of its fields, so a dict or set must not mix the two.

    The package keys by records in two places: the cohort's simulation memo,
    by (schema, seed), and a cell attribution's map of exact cents, by
    campaign key. Every other dict or set is keyed by plain values.
    """
    users, cohort, report, curve = run
    assert CampaignKey(3) == (3, False)  # why the mix would be unsafe
    assert cohort.simulations
    assert all(type(schema) is SchemaSpec and type(seed) is int
               for schema, seed in cohort.simulations)
    art = next(iter(cohort.simulations.values()))
    kernel = attribute_plain(next(iter(art.matrices.values())), {v: 1 for v in range(64)})
    assert isinstance(kernel, CellAttribution)
    assert {type(k) for k in kernel.fractions()} == {CampaignKey}
