import csv
import json
import math
import shutil
import tempfile
from dataclasses import replace
from datetime import date, datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import skattr.io_files
from skattr.cli import main
from skattr.config import run_config_from_dict
from skattr.errors import ConfigError, CsvFormatError, ReferentialError, SkattrError
from skattr.io_files import (
    load_attribution,
    load_cohort,
    load_counts,
    load_users,
    parse_usd,
    save_counts,
    save_dataset,
    save_events,
    save_users,
)
from skattr.metrics import benchmark_matrix
from skattr.model import (
    FLAG,
    PURCHASE,
    SESSION,
    US_PER_DAY,
    CampaignKey,
    Cohort,
    Event,
    UserRecord,
    ground_truth,
)
from skattr.pipeline import run_schema
from skattr.privacy import PrivacyConfig, apply_threshold
from skattr.schema import prepare_users, schema_from_text
from skattr.synthgen import GenConfig, generate_dataset

from oracles import reference_load_users

D7RR = "kind=RR;layout=TTTVVV;horizon=7"

# A loader that fails part way through a file must still close it.
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]


@pytest.fixture(scope="module")
def dataset():
    cfg = GenConfig(n_users=1500, n_weeks=3, event_horizon_days=40, seed=9)
    users, meta = generate_dataset(cfg)
    return users, meta


@pytest.fixture()
def dataset_dir(dataset, tmp_path):
    users, meta = dataset
    save_dataset(tmp_path / "data", users, meta)
    return tmp_path / "data"


class TestUserEventRoundTrip:
    def test_round_trip_identity(self, dataset, tmp_path):
        users, meta = dataset
        save_users(tmp_path / "u.csv", users, meta)
        save_events(tmp_path / "e.csv", users, meta)
        loaded, lmeta = load_users(tmp_path / "u.csv", tmp_path / "e.csv")
        assert loaded == users
        assert lmeta["organic_alpha"] == meta["organic_alpha"]
        # save -> load -> save is byte identical
        save_users(tmp_path / "u2.csv", loaded, lmeta)
        save_events(tmp_path / "e2.csv", loaded, lmeta)
        assert (tmp_path / "u.csv").read_bytes() == (tmp_path / "u2.csv").read_bytes()
        assert (tmp_path / "e.csv").read_bytes() == (tmp_path / "e2.csv").read_bytes()

    def test_missing_events_file_gives_zero_revenue(self, dataset, tmp_path):
        users, meta = dataset
        save_users(tmp_path / "u.csv", users, meta)
        loaded, _ = load_users(tmp_path / "u.csv", tmp_path / "nonexistent.csv")
        assert all(not u.events for u in loaded)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("id,registration_date,alpha,group\n1,not-a-date,0,G\n")
        with pytest.raises(CsvFormatError, match=":2"):
            load_users(path)

    @pytest.mark.parametrize("load", [load_users, load_counts, load_attribution])
    def test_meta_line_not_an_object(self, tmp_path, load):
        header = {load_users: "id,registration_date,alpha,group",
                  load_counts: "group,week,conversion_value,alpha,count",
                  load_attribution: "group,week,alpha,attributed_usd"}[load]
        path = tmp_path / "f.csv"
        path.write_text(f"# skattr-meta [700]\n{header}\n")
        with pytest.raises(CsvFormatError, match="f.csv:1: meta line is not a JSON object"):
            load(path)

    def test_dangling_event_user(self, tmp_path):
        (tmp_path / "u.csv").write_text("id,registration_date,alpha,group\n1,2024-01-01,0,G\n")
        (tmp_path / "e.csv").write_text(
            "user_id,timestamp,kind,amount_cents,flag_index\n"
            "2,2024-01-01T09:00:00,session,,\n"
        )
        with pytest.raises(ReferentialError):
            load_users(tmp_path / "u.csv", tmp_path / "e.csv")

    def test_alpha_beyond_sentinel_rejected(self, tmp_path):
        (tmp_path / "u.csv").write_text(
            "id,registration_date,alpha,group\n1,2024-01-01,705,G\n"
        )
        with pytest.raises(ReferentialError):
            load_users(tmp_path / "u.csv", organic_alpha=700)

    def test_duplicate_id_rejected(self, tmp_path):
        (tmp_path / "u.csv").write_text(
            "id,registration_date,alpha,group\n1,2024-01-01,0,G\n1,2024-01-01,1,G\n"
        )
        with pytest.raises(CsvFormatError):
            load_users(tmp_path / "u.csv")


META = {"organic_alpha": 9, "seed": 1}
INT_TEXTS = ("x", "", "-1", "2.0", "1_0", " 1", "9" * 30, "9" * 5000)
TIMESTAMPS = ("2024-01-01T00:00:00", "2023-12-31T23:59:59", "2024-01-09", "2024-02-30T00:00:00",
              "soon", "")
# Replacement texts per events column: user_id, timestamp, kind, amount_cents, flag_index.
CELL_TEXTS = (
    INT_TEXTS + ("99",),
    TIMESTAMPS,
    ("click", "Session", "", SESSION, PURCHASE, FLAG),
    INT_TEXTS + ("0", "250"),
    INT_TEXTS + ("0", "5", "6"),
)
# Inputs the list-then-validate loader lets escape as bare exceptions.
ESCAPES = {"utc_offset": TypeError, "bad_bytes": UnicodeDecodeError, "oversized": csv.Error}


@st.composite
def cohorts(draw):
    """Two to four valid users with up to three events each, at least one event in all."""
    users = []
    for uid in range(draw(st.integers(2, 4))):
        reg = date(2024, 1, 1) + timedelta(days=draw(st.integers(0, 6)))
        midnight = datetime.combine(reg, datetime.min.time())
        offsets = draw(st.lists(st.integers(0, 5 * 86_400), min_size=int(uid == 0), max_size=3))
        events = []
        for seconds in sorted(offsets):
            kind = draw(st.sampled_from((SESSION, PURCHASE, FLAG)))
            events.append(Event(
                midnight + timedelta(seconds=seconds),
                kind,
                amount=draw(st.integers(1, 9_999)) if kind == PURCHASE else None,
                flag_index=draw(st.integers(0, 5)) if kind == FLAG else None,
            ))
        alpha = draw(st.integers(0, META["organic_alpha"]))
        origin = CampaignKey(alpha, organic=alpha == META["organic_alpha"])
        users.append(UserRecord(uid, reg, origin, tuple(events), draw(st.sampled_from("GH"))))
    return users


def mutate(lines: list[str], i: int, edit: str, data) -> str:
    """The events file text with data line ``lines[i]`` (or the whole file) edited."""
    fields = lines[i].split(",")
    if edit == "truncate":
        fields = fields[:data.draw(st.integers(1, 4))]
    elif edit == "extra_column":
        fields.append(data.draw(st.sampled_from(("", "x"))))
    elif edit == "bad_integer":
        fields[data.draw(st.sampled_from((0, 3, 4)))] = data.draw(st.sampled_from(INT_TEXTS))
    elif edit == "unknown_user":
        fields[0] = "99"
    elif edit == "bad_kind":
        fields[2] = data.draw(st.sampled_from(("click", "Session", "")))
    elif edit == "amount_on_session":
        fields[2:] = [SESSION, "250", ""]
    elif edit == "flag_index_6":
        fields[2:] = [FLAG, "", "6"]
    elif edit == "timestamp":  # out of order, before registration, or not a timestamp
        fields[1] = data.draw(st.sampled_from(TIMESTAMPS))
    elif edit == "any_cell":
        col = data.draw(st.integers(0, 4))
        fields[col] = data.draw(st.sampled_from(CELL_TEXTS[col]))
    elif edit == "utc_offset":
        fields[1] += data.draw(st.sampled_from(("+00:00", "Z", "-05:30")))
    elif edit == "bad_bytes":
        fields[data.draw(st.integers(0, 4))] += "\udcff"  # written back as the byte 0xff
    elif edit == "oversized":
        fields[data.draw(st.integers(0, 4))] = "1" * (csv.field_size_limit() + 1)
    lines = lines[:i] + [",".join(fields)] + lines[i + 1:]
    return ("\r\n" if edit == "crlf" else "\n").join(lines)


def outcome(load, *args):
    try:
        return load(*args)
    except SkattrError as exc:
        return type(exc), str(exc)


def cohort_facts(cohort: Cohort) -> tuple:
    """What a cohort holds for the pipeline, window revenue included."""
    return (
        cohort.ids, cohort.midnight_us, cohort.group_labels, cohort.group, cohort.origins,
        cohort.column, list(cohort.digests),
        [cohort.window_revenue(lo, hi) for lo, hi in ((0, 1), (1, 3), (0, 30))],
    )


class TestStreamingLoader:
    @pytest.mark.parametrize("edit", [
        "truncate", "extra_column", "bad_integer", "unknown_user", "bad_kind",
        "amount_on_session", "flag_index_6", "timestamp", "any_cell", "crlf", *ESCAPES,
    ])
    @given(cohort=cohorts(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_loader(self, edit, cohort, data):
        with tempfile.TemporaryDirectory() as tmp:
            upath, epath = Path(tmp) / "users.csv", Path(tmp) / "events.csv"
            save_users(upath, cohort, META)
            save_events(epath, cohort, META)
            lines = epath.read_text().split("\n")  # meta, header, rows, ""
            i = data.draw(st.integers(2, len(lines) - 2))
            epath.write_bytes(mutate(lines, i, edit, data).encode("utf-8", "surrogateescape"))
            if edit in ESCAPES:
                with pytest.raises(ESCAPES[edit]):
                    reference_load_users(upath, epath)
                with pytest.raises(CsvFormatError) as excinfo:
                    load_users(upath, epath)
                assert str(excinfo.value).startswith(f"{epath}:{i + 1}: ")
            else:
                expected = outcome(reference_load_users, upath, epath)
                assert outcome(load_users, upath, epath) == expected
                if edit == "crlf":
                    assert expected[0] == cohort

    @pytest.mark.parametrize("edit", [
        "truncate", "extra_column", "bad_integer", "unknown_user", "bad_kind",
        "amount_on_session", "flag_index_6", "timestamp", "any_cell", "crlf", *ESCAPES,
    ])
    @given(cohort=cohorts(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cohort_matches_reference_loader(self, edit, cohort, data):
        if data.draw(st.booleans()):  # a first open for every user, so that the cohort loads
            cohort = [
                replace(u, events=(Event(u.registration_instant, SESSION), *u.events))
                for u in cohort
            ]
        with tempfile.TemporaryDirectory() as tmp:
            upath, epath = Path(tmp) / "users.csv", Path(tmp) / "events.csv"
            save_users(upath, cohort, META)
            save_events(epath, cohort, META)
            lines = epath.read_text().split("\n")
            i = data.draw(st.integers(2, len(lines) - 2))
            epath.write_bytes(mutate(lines, i, edit, data).encode("utf-8", "surrogateescape"))
            if edit in ESCAPES:
                expected = outcome(load_users, upath, epath)
                assert expected[0] is CsvFormatError
                assert expected[1].startswith(f"{epath}:{i + 1}: ")
            else:
                expected = outcome(
                    lambda *paths: cohort_facts(prepare_users(reference_load_users(*paths)[0])),
                    upath, epath,
                )
            loaded = outcome(lambda *paths: cohort_facts(load_cohort(*paths)), upath, epath)
            assert loaded == expected

    @pytest.mark.parametrize("column, edit", [
        pytest.param(1, lambda ts: ts + "+00:00", id="utc_offset"),
        pytest.param(2, lambda kind: kind + "\udcff", id="bad_bytes"),
        pytest.param(2, lambda kind: "x" * (csv.field_size_limit() + 1), id="oversized"),
    ])
    def test_cli_reports_file_and_line(self, dataset_dir, tmp_path, capsys, column, edit):
        epath = dataset_dir / "events.csv"
        lines = epath.read_text().split("\n")
        fields = lines[2].split(",")
        fields[column] = edit(fields[column])
        lines[2] = ",".join(fields)
        epath.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
        code = run_cli("simulate", "--users", dataset_dir, "--schema", "kind=UD",
                       "--seed", 1, "--out", tmp_path / "c.csv")
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "CsvFormatError"
        assert err["message"].startswith(f"{epath}:3: ")


USERS_TEXT = "id,registration_date,alpha,group\n1,2024-01-01,0,G\n2,2024-01-03,9,H\n"
EVENTS_HEADER = "user_id,timestamp,kind,amount_cents,flag_index\n"


class TestLoadCohort:
    """``load_cohort`` is ``prepare_users(load_users(...)[0])`` read in one pass."""

    def load(self, tmp_path, events: str | None):
        (tmp_path / "u.csv").write_text("# skattr-meta " + json.dumps(META) + "\n" + USERS_TEXT)
        if events is not None:
            (tmp_path / "e.csv").write_text(EVENTS_HEADER + events)
        paths = (tmp_path / "u.csv", tmp_path / "e.csv")
        expected = outcome(lambda: cohort_facts(prepare_users(load_users(*paths)[0])))
        result = outcome(load_cohort, *paths)
        assert (result if isinstance(result, tuple) else cohort_facts(result)) == expected
        return result

    def test_generated_dataset(self, dataset, dataset_dir):
        cohort = load_cohort(dataset_dir / "users.csv", dataset_dir / "events.csv")
        assert cohort_facts(cohort) == cohort_facts(prepare_users(dataset[0]))

    def test_sub_second_timestamps(self, tmp_path):
        cohort = self.load(tmp_path, (
            "1,2024-01-01T09:00:00.000001,session,,\n"
            "1,2024-01-02T09:00:00.500000,purchase,250,\n"
            "2,2024-01-03T23:59:59.999999,session,,\n"
            "2,2024-01-04T00:00:00.25,flag,,3\n"
        ))
        assert cohort.digests == [
            ((9 * 3600 * 10**6 + 1, 0, 0, 0), (33 * 3600 * 10**6 + 500_000, 250, 1, 0)),
            ((US_PER_DAY - 1, 0, 0, 0), (US_PER_DAY + 250_000, 0, 0, 0)),
        ]

    def test_simultaneous_events_fold_into_one_entry(self, tmp_path):
        cohort = self.load(tmp_path, (
            "1,2024-01-01T09:00:00,session,,\n"
            "1,2024-01-01T09:00:00,flag,,2\n"
            "1,2024-01-01T09:00:00,purchase,100,\n"
            "1,2024-01-01T09:00:00,purchase,25,\n"
            "1,2024-01-01T09:00:00,flag,,0\n"
            "2,2024-01-03T08:00:00,session,,\n"
        ))
        assert cohort.digests[0] == ((9 * 3600 * 10**6, 125, 2, 0b101),)
        assert cohort.window_revenue(0, 1) == [125, 0]

    def test_missing_events_file(self, tmp_path):
        error = self.load(tmp_path, None)
        assert error == (ConfigError, "user 1 lacks a first-open session event")
        (tmp_path / "u.csv").write_text(USERS_TEXT.splitlines()[0] + "\n")
        assert load_cohort(tmp_path / "u.csv", tmp_path / "e.csv").ids == []

    def test_rows_interleaving_two_users(self, tmp_path):
        cohort = self.load(tmp_path, (
            "2,2024-01-03T08:00:00,session,,\n"
            "1,2024-01-01T09:00:00,session,,\n"
            "2,2024-01-04T08:00:00,purchase,70,\n"
            "1,2024-01-01T10:00:00,purchase,30,\n"
            "2,2024-01-04T08:00:00,session,,\n"
        ))
        assert cohort.window_revenue(0, 2) == [30, 70]
        error = self.load(tmp_path, (
            "1,2024-01-01T09:00:00,session,,\n"
            "2,2024-01-03T08:00:00,session,,\n"
            "1,2024-01-01T08:00:00,session,,\n"
        ))
        assert error == (
            CsvFormatError,
            f"{tmp_path / 'e.csv'}: user 1: events out of order at 2024-01-01T08:00:00",
        )

    def test_event_before_registration(self, tmp_path):
        # User 2's first event is at 23:00 the day before registration.
        error = self.load(tmp_path, (
            "1,2024-01-01T09:00:00,session,,\n"
            "2,2024-01-02T23:00:00,session,,\n"
            "2,2024-01-03T09:00:00,session,,\n"
        ))
        assert error == (
            CsvFormatError, f"{tmp_path / 'e.csv'}: user 2: event precedes registration"
        )

    @pytest.mark.parametrize("row, error", [
        pytest.param("1,2024-01-01T10:00:00,purchase,0,", (
            CsvFormatError, "3: purchase amount must be a positive cent count"), id="amount"),
        pytest.param("7,2024-01-01T10:00:00,session,,", (
            ReferentialError, "3: event references unknown user 7"), id="unknown_user"),
        pytest.param("1,2024-01-01T10:00:00,click,,", (
            CsvFormatError, "3: unknown event kind 'click'"), id="kind"),
    ])
    def test_bad_row_raises_without_a_second_read(self, tmp_path, monkeypatch, row, error):
        def second_read(*args):
            raise AssertionError("load_cohort read the dataset again")

        (tmp_path / "u.csv").write_text("# skattr-meta " + json.dumps(META) + "\n" + USERS_TEXT)
        (tmp_path / "e.csv").write_text(
            EVENTS_HEADER + "1,2024-01-01T09:00:00,session,,\n" + row + "\n"
            "2,2024-01-03T09:00:00,session,,\n"
        )
        monkeypatch.setattr(skattr.io_files, "load_users", second_read)
        assert outcome(load_cohort, tmp_path / "u.csv", tmp_path / "e.csv") == (
            error[0], f"{tmp_path / 'e.csv'}:{error[1]}"
        )

    def test_shared_cohort_must_be_built_from_the_users(self, dataset, dataset_dir):
        cohort = load_cohort(dataset_dir / "users.csv", dataset_dir / "events.csv")
        with pytest.raises(ConfigError, match="different user list"):
            benchmark_matrix(dataset[0], [schema_from_text("kind=UD")], [0], ["plain"], 30,
                             seed=1, prepared=cohort)


class TestCountsRoundTrip:
    def test_pre_and_post_privacy(self, dataset, tmp_path):
        users, _ = dataset
        artifacts = run_schema(prepare_users(users), schema_from_text(D7RR), 9)
        pre = artifacts.matrices
        save_counts(tmp_path / "c.csv", pre, {"schema": "x", "seed": 9})
        loaded, meta = load_counts(tmp_path / "c.csv")
        assert loaded == pre
        assert meta["privacy_applied"] is False

        post = {cell: apply_threshold(m, PrivacyConfig(10)) for cell, m in pre.items()}
        save_counts(tmp_path / "cp.csv", post, {"schema": "x", "seed": 9, "p": 10})
        loaded_p, meta_p = load_counts(tmp_path / "cp.csv")
        assert loaded_p == post
        assert meta_p["privacy_applied"] is True

    def test_suppressed_cells_written_empty(self, dataset, tmp_path):
        users, _ = dataset
        artifacts = run_schema(prepare_users(users), schema_from_text(D7RR), 9)
        post = {cell: apply_threshold(m, PrivacyConfig(10)) for cell, m in artifacts.matrices.items()}
        save_counts(tmp_path / "cp.csv", post, {})
        text = (tmp_path / "cp.csv").read_text()
        assert ',"' not in text  # plain scalars, no quoting needed
        suppressed_lines = [
            line for line in text.splitlines()[2:] if line.endswith(",")
        ]
        assert suppressed_lines  # some cells are suppressed at p=10
        assert any(line.split(",")[2] == "null" for line in text.splitlines()[2:])

    def test_usd_parsing(self):
        assert parse_usd("12.34") == 1234
        assert parse_usd("0.00") == 0
        assert parse_usd("7") == 700
        assert parse_usd("-3.05") == -305
        with pytest.raises(CsvFormatError):
            parse_usd("1.2.3")


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """One benchmark run whose D7 RR cells the stage-wise tests reproduce."""
    tmp = tmp_path_factory.mktemp("bench")
    run_cfg = {
        "gen": {"n_users": 1200, "n_weeks": 2, "event_horizon_days": 35, "seed": 3},
        "schemas": ["kind=PV;layout=VVVVVV;horizon=30", "kind=RR;layout=TTTVVV;horizon=7"],
        "p_values": [0, 5, 10],
        "g_modes": ["plain", "null_uniform", "null_convex"],
        "lambda_grid": [0.5],
        "t": 30,
        "windows": [[7, 14], [14, 30]],
        "seed": 3,
    }
    (tmp / "run.json").write_text(json.dumps(run_cfg))
    out = tmp / "out"
    assert run_cli("benchmark", "--config", tmp / "run.json", "--out", out) == 0
    return out, json.loads((out / "report.json").read_text())


class TestCli:
    def test_generate_simulate_privatize_attribute_evaluate(self, tmp_path, capsys):
        gen_cfg = {"n_users": 1200, "n_weeks": 3, "event_horizon_days": 40, "seed": 4}
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps(gen_cfg))
        out = tmp_path / "data"
        assert run_cli("generate", "--config", cfg_path, "--out", out) == 0

        counts = tmp_path / "counts.csv"
        assert run_cli(
            "simulate", "--users", out, "--schema", "kind=RR;layout=TTTVVV;horizon=7",
            "--seed", 4, "--out", counts,
        ) == 0

        counts_p = tmp_path / "counts_p10.csv"
        assert run_cli("privatize", "--counts", counts, "--p", 10, "--out", counts_p) == 0

        attr = tmp_path / "attr.csv"
        assert run_cli(
            "attribute", "--counts", counts_p, "--profile-from", out,
            "--t", 30, "--g", "null_convex", "--lambda", 0.5, "--out", attr,
        ) == 0
        rows, meta = load_attribution(attr)
        assert rows and meta["g"] == "null_convex"

        report = tmp_path / "report.json"
        assert run_cli(
            "evaluate", "--attr", attr, "--truth-from", out, "--t", 30, "--out", report,
        ) == 0
        data = json.loads(report.read_text())
        assert data["aggregate_error_usd"] >= 0
        assert data["weekly_errors_usd"]

    def test_plain_equals_null_uniform_at_p0(self, tmp_path):
        gen_cfg = {"n_users": 1000, "n_weeks": 2, "event_horizon_days": 35, "seed": 6}
        (tmp_path / "gen.json").write_text(json.dumps(gen_cfg))
        out = tmp_path / "data"
        run_cli("generate", "--config", tmp_path / "gen.json", "--out", out)
        counts = tmp_path / "counts.csv"
        run_cli("simulate", "--users", out, "--schema", "kind=UD", "--seed", 6, "--out", counts)
        counts_p0 = tmp_path / "counts_p0.csv"
        run_cli("privatize", "--counts", counts, "--p", 0, "--out", counts_p0)

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("attribute", "--counts", counts, "--profile-from", out, "--t", 30,
                "--g", "plain", "--out", a)
        run_cli("attribute", "--counts", counts_p0, "--profile-from", out, "--t", 30,
                "--g", "null_uniform", "--out", b)
        assert load_attribution(a)[0] == load_attribution(b)[0]

    def test_error_json_on_failure(self, tmp_path, capsys):
        code = run_cli("simulate", "--users", tmp_path / "missing.csv",
                       "--schema", "kind=UD", "--seed", 1, "--out", tmp_path / "c.csv")
        assert code != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert "error" in err and "message" in err

    def test_bad_schema_text_error(self, tmp_path, capsys):
        code = run_cli("simulate", "--users", tmp_path, "--schema", "kind=XX",
                       "--seed", 1, "--out", tmp_path / "c.csv")
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] in ("ConfigError", "LayoutError", "CsvFormatError")

    @pytest.mark.parametrize(
        "g, p, lam",
        [
            pytest.param("plain", 0, None, id="plain-p0"),
            pytest.param("null_uniform", 5, 0.0, id="null_uniform-p5"),
            pytest.param("null_convex", 10, 0.5, id="null_convex-p10"),
        ],
    )
    def test_benchmark_and_stagewise_agree(self, bench, tmp_path, g, p, lam):
        out, report = bench
        assert (out / "grid.csv").exists() and (out / "window_curve.csv").exists()
        baseline = [
            c for c in report["cells"]
            if c["schema"] == "D30 PV" and c["p"] == 0 and c["mode"] == "plain"
            and c["level"] == "campaign"
        ]
        assert baseline[0]["normalized_score"] in (0.0, None)

        # stage-wise pipeline reproduces the benchmark's D7 RR cell
        data = out / "dataset"
        counts = tmp_path / "c.csv"
        assert run_cli("simulate", "--users", data, "--schema", "kind=RR;layout=TTTVVV;horizon=7",
                       "--seed", 3, "--out", counts) == 0
        if p:
            privatized = tmp_path / "cp.csv"
            assert run_cli("privatize", "--counts", counts, "--p", p, "--out", privatized) == 0
            counts = privatized
        attr = tmp_path / "attr.csv"
        lam_args = ["--lambda", lam] if g == "null_convex" else []
        assert run_cli("attribute", "--counts", counts, "--profile-from", data, "--t", 30,
                       "--g", g, *lam_args, "--out", attr) == 0
        stage_report = tmp_path / "stage.json"
        assert run_cli("evaluate", "--attr", attr, "--truth-from", data, "--t", 30,
                       "--out", stage_report) == 0
        stage = json.loads(stage_report.read_text())
        bench_cell = [
            c for c in report["cells"]
            if c["schema"] == "D7 RR" and c["p"] == p and c["mode"] == g
            and c["lambda"] == lam and c["level"] == "campaign"
        ][0]
        assert stage["aggregate_error_usd"] == bench_cell["aggregate_error_usd"]
        assert stage["weekly_errors_usd"] == bench_cell["weekly_errors_usd"]

    def test_benchmark_rerun_byte_identical(self, tmp_path):
        run_cfg = {
            "gen": {"n_users": 800, "n_weeks": 2, "event_horizon_days": 35, "seed": 8},
            "schemas": ["kind=PV;layout=VVVVVV;horizon=30"],
            "p_values": [0],
            "g_modes": ["plain"],
            "t": 30,
            "windows": [[0, 30]],
            "seed": 8,
        }
        (tmp_path / "run.json").write_text(json.dumps(run_cfg))
        run_cli("benchmark", "--config", tmp_path / "run.json", "--out", tmp_path / "r1")
        run_cli("benchmark", "--config", tmp_path / "run.json", "--out", tmp_path / "r2")
        for name in ("report.json", "grid.csv", "window_curve.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_benchmark_simulates_each_schema_once(self, tmp_path, monkeypatch):
        import skattr.metrics

        simulated = []
        run_schema_impl = skattr.metrics.run_schema

        def counting_run_schema(cohort, schema, *args, **kwargs):
            simulated.append(schema.label)
            return run_schema_impl(cohort, schema, *args, **kwargs)

        monkeypatch.setattr(skattr.metrics, "run_schema", counting_run_schema)
        run_cfg = {
            "gen": {"n_users": 600, "n_weeks": 2, "event_horizon_days": 35, "seed": 5},
            "schemas": ["kind=PV;layout=VVVVVV;horizon=30", "kind=RR;layout=TTTVVV;horizon=7",
                        "kind=UD"],
            "p_values": [0],
            "g_modes": ["plain"],
            "t": 30,
            "windows": [[7, 14], [14, 30]],
            "seed": 5,
        }
        (tmp_path / "run.json").write_text(json.dumps(run_cfg))
        assert run_cli("benchmark", "--config", tmp_path / "run.json", "--out", tmp_path / "o") == 0
        assert sorted(simulated) == ["D30 PV", "D7 RR", "UD"]
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert len(report["window_curve"]) == 2


@pytest.fixture(scope="module")
def staged(dataset, tmp_path_factory):
    """A dataset with its D7 RR counts at p=10 and their null_uniform attribution."""
    users, meta = dataset
    tmp = tmp_path_factory.mktemp("staged")
    save_dataset(tmp / "data", users, meta)
    assert run_cli("simulate", "--users", tmp / "data", "--schema",
                   "kind=RR;layout=TTTVVV;horizon=7", "--seed", 9, "--out", tmp / "c.csv") == 0
    assert run_cli("privatize", "--counts", tmp / "c.csv", "--p", 10, "--out", tmp / "cp.csv") == 0
    assert run_cli("attribute", "--counts", tmp / "cp.csv", "--profile-from", tmp / "data",
                   "--t", 30, "--g", "null_uniform", "--out", tmp / "attr.csv") == 0
    return tmp


def edit_csv(src, dst, meta=lambda m: m, rows=lambda body: body):
    """Copy a skattr CSV, passing its meta dict and its data lines through the given edits."""
    head, header, *body = src.read_text().splitlines()
    new_meta = meta(json.loads(head.removeprefix("# skattr-meta ")))
    lines = ["# skattr-meta " + json.dumps(new_meta), header, *rows(body)]
    dst.write_text("\n".join(lines) + "\n")
    return dst


def config_error(capsys) -> str:
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"
    return err["message"]


class TestCliErrors:
    def evaluate(self, staged, attr, out):
        return run_cli("evaluate", "--attr", attr, "--truth-from", staged / "data",
                       "--t", 30, "--out", out)

    GEN = {"n_users": 600, "n_weeks": 2, "event_horizon_days": 35, "seed": 1}

    @pytest.mark.parametrize("bad,key", [
        pytest.param({"g_modes": ["plain", "bogus"]}, None, id="g_mode"),
        pytest.param({"lambda_grid": [1.5]}, None, id="lambda"),
        pytest.param({"window_g": "bogus"}, None, id="window_g"),
        pytest.param({"p_values": [-1], "g_modes": ["plain"]}, None, id="p"),
        pytest.param({"window_p": -3}, None, id="window_p"),
        pytest.param({"windows": [[14, 7]]}, None, id="window"),
        pytest.param({"window_g": "plain", "window_p": 2}, None, id="window_plain"),
        pytest.param({"lambda_grid": ["0.5"]}, "run config key 'lambda_grid'", id="lambda_str"),
        pytest.param({"p_values": ["2"]}, "run config key 'p_values'", id="p_str"),
        pytest.param({"t": "30"}, "run config key 't'", id="t_str"),
        pytest.param({"t": True}, "run config key 't'", id="t_bool"),
        pytest.param({"gen": GEN | {"n_users": "600"}}, "generator config key 'n_users'",
                     id="n_users_str"),
        pytest.param({"gen": GEN | {"n_users": True}}, "generator config key 'n_users'",
                     id="n_users_bool"),
        pytest.param({"gen": GEN | {"start_date": "2024-13-01"}},
                     "generator config key 'start_date'", id="start_date"),
        pytest.param({"windows": [[7.5, 14]]}, "run config key 'windows'", id="window_float"),
        pytest.param({"include_organic_in_error": 1}, "run config key 'include_organic_in_error'",
                     id="organic_int"),
    ])
    def test_bad_run_config_fails_before_any_work(self, tmp_path, capsys, bad, key):
        (tmp_path / "run.json").write_text(json.dumps({"gen": self.GEN} | bad))
        out = tmp_path / "out"
        assert run_cli("benchmark", "--config", tmp_path / "run.json", "--out", out) == 1
        message = config_error(capsys)
        if key is not None:
            assert message.startswith(f"{key} must fit ")
        assert not (out / "dataset").exists()

    @pytest.mark.parametrize("stage", ["benchmark", "generate"])
    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda path: path.mkdir(), "cannot be read: Is a directory", id="directory"),
        pytest.param(lambda path: path.write_bytes(b'{"seed": "\xff"}'),
                     "is not UTF-8 text: invalid start byte", id="not_utf8"),
        pytest.param(lambda path: path.write_text("[1]"), "must be a JSON object", id="array"),
    ])
    def test_unreadable_config_file(self, tmp_path, capsys, stage, make, message):
        make(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert run_cli(stage, "--config", tmp_path / "cfg.json", "--out", out) == 1
        assert message in config_error(capsys)
        assert not out.exists()

    def test_window_past_the_generator_horizon(self, tmp_path, capsys):
        # GEN has 35 days of events; the last default window is [60, 90).
        (tmp_path / "run.json").write_text(json.dumps({"gen": self.GEN}))
        out = tmp_path / "out"
        assert run_cli("benchmark", "--config", tmp_path / "run.json", "--out", out) == 1
        assert config_error(capsys) == (
            "windows: [60, 90) starts at or after the generator's event_horizon_days 35"
        )
        assert not (out / "dataset").exists()
        # A window only partly past the horizon is kept.
        assert run_config_from_dict({"gen": self.GEN, "windows": [[30, 60]]}).windows == ((30, 60),)

    def test_integer_where_a_float_is_expected_keeps_the_config(self):
        data = {"gen": {"n_users": 600, "organic_share": 0}, "lambda_grid": [0, 1]}
        cfg = run_config_from_dict(data)
        assert cfg.lambda_grid == (0, 1) and cfg.gen.organic_share == 0
        assert cfg.to_jsonable()["lambda_grid"] == (0, 1)

    def test_counts_cell_absent_from_postbacks(self, staged, tmp_path, capsys):
        week = (staged / "cp.csv").read_text().splitlines()[2].split(",")[1]
        counts = edit_csv(staged / "cp.csv", tmp_path / "cp.csv",
                          rows=lambda body: [r.replace(f",{week},", ",1999-W01,") for r in body])
        code = run_cli("attribute", "--counts", counts, "--profile-from", staged / "data",
                       "--t", 30, "--g", "null_uniform", "--out", tmp_path / "a.csv")
        assert code == 1
        assert "1999-W01" in config_error(capsys)

    @pytest.mark.parametrize("data", ["data", "missing"])
    def test_horizon_with_utc_offset(self, staged, tmp_path, capsys, data):
        """Rejected before the dataset is read, so a missing dataset is not the error."""
        code = run_cli("simulate", "--users", staged / data, "--schema", "kind=UD",
                       "--seed", 9, "--horizon", "2024-03-01T00:00:00+00:00",
                       "--out", tmp_path / "c.csv")
        assert code == 1
        assert "'2024-03-01T00:00:00+00:00' has a UTC offset" in config_error(capsys)
        assert not (tmp_path / "c.csv").exists()

    def test_attribution_meta_without_columns(self, staged, tmp_path, capsys):
        attr = edit_csv(staged / "attr.csv", tmp_path / "a.csv",
                        meta=lambda m: {k: v for k, v in m.items() if k != "columns"})
        assert self.evaluate(staged, attr, tmp_path / "r.json") == 1
        assert "column list" in config_error(capsys)

    def test_attribution_checked_before_the_dataset_is_read(self, staged, tmp_path, capsys):
        attr = edit_csv(staged / "attr.csv", tmp_path / "a.csv",
                        meta=lambda m: {k: v for k, v in m.items() if k != "columns"})
        code = run_cli("evaluate", "--attr", attr, "--truth-from", staged / "missing",
                       "--t", 30, "--out", tmp_path / "r.json")
        assert code == 1
        assert "column list" in config_error(capsys)

    def test_attributed_alpha_not_declared(self, staged, tmp_path, capsys):
        attr = edit_csv(staged / "attr.csv", tmp_path / "a.csv",
                        rows=lambda body: body + ["G0,2024-W01,98765,1.00"])
        assert self.evaluate(staged, attr, tmp_path / "r.json") == 1
        assert "attributed alpha 98765" in config_error(capsys)

    def test_true_origin_not_declared(self, staged, tmp_path, capsys):
        _, meta = load_attribution(staged / "attr.csv")
        dropped = meta["columns"][0]
        attr = edit_csv(
            staged / "attr.csv", tmp_path / "a.csv",
            meta=lambda m: m | {"columns": m["columns"][1:]},
            rows=lambda body: [r for r in body if r.split(",")[2] != str(dropped)],
        )
        assert self.evaluate(staged, attr, tmp_path / "r.json") == 1
        assert f"true origin {dropped} " in config_error(capsys)

    def test_missing_week_scores_against_zero(self, dataset, staged, tmp_path):
        rows, meta = load_attribution(staged / "attr.csv")
        weeks = sorted({week for _, week, _ in rows})
        gone = weeks[-1]
        attr = edit_csv(staged / "attr.csv", tmp_path / "a.csv",
                        rows=lambda body: [r for r in body if r.split(",")[1] != gone])
        assert self.evaluate(staged, staged / "attr.csv", tmp_path / "full.json") == 0
        assert self.evaluate(staged, attr, tmp_path / "cut.json") == 0
        full = json.loads((tmp_path / "full.json").read_text())["weekly_errors_usd"]
        cut = json.loads((tmp_path / "cut.json").read_text())["weekly_errors_usd"]
        assert sorted(cut) == sorted(full) == weeks
        assert all(cut[w] == full[w] for w in weeks if w != gone)

        users, _ = dataset
        schema = schema_from_text(meta["schema"])
        postbacks = run_schema(prepare_users(users), schema, meta["seed"]).postbacks
        truth = ground_truth(postbacks, 0, 30)[gone]
        assert cut[gone] == pytest.approx(math.sqrt(sum(c * c for c in truth.values())) / 100)
        assert cut[gone] != full[gone]


class TestAttributeLambda:
    """The attribution file records the lambda its estimator used, and no other."""

    def attribute(self, staged, counts, out, *g_args):
        return run_cli("attribute", "--counts", staged / counts, "--profile-from",
                       staged / "data", "--t", 30, *g_args, "--out", out)

    @pytest.mark.parametrize(
        "g, lam, counts",
        [("null_uniform", 0.5, "cp.csv"), ("null_empirical", 0.2, "cp.csv"),
         ("plain", 0.9, "c.csv")],
    )
    def test_lambda_the_mode_fixes_otherwise(self, staged, tmp_path, capsys, g, lam, counts):
        out = tmp_path / "a.csv"
        assert self.attribute(staged, counts, out, "--g", g, "--lambda", lam) == 1
        assert f"{g} fixes lambda" in config_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "g, counts, recorded",
        [("null_empirical", "cp.csv", 1.0), ("plain", "c.csv", 0.0),
         ("null_convex", "cp.csv", 0.0)],
    )
    def test_lambda_recorded_without_the_flag(self, staged, tmp_path, g, counts, recorded):
        out = tmp_path / "a.csv"
        assert self.attribute(staged, counts, out, "--g", g) == 0
        assert load_attribution(out)[1]["lambda"] == recorded


class TestMetaColumns:
    """A meta ``columns`` that is not a list of distinct integers >= 0 fails at line 1."""

    @pytest.mark.parametrize("load,header", [
        (load_counts, "group,week,conversion_value,alpha,count"),
        (load_attribution, "group,week,alpha,attributed_usd"),
    ])
    @pytest.mark.parametrize("columns", [["a"], 5, None, [1.5], [-1], [True], [3, "4"], [3, 3]])
    def test_bad_columns(self, tmp_path, load, header, columns):
        path = tmp_path / "f.csv"
        path.write_text("# skattr-meta " + json.dumps({"columns": columns}) + f"\n{header}\n")
        with pytest.raises(CsvFormatError, match=r"f\.csv:1: meta columns must be a list"):
            load(path)

    @pytest.mark.parametrize("load,header,meta,message", [
        (load_counts, "group,week,conversion_value,alpha,count",
         {"organic_alpha": "9"}, "meta organic_alpha must be an integer, got '9'"),
        (load_attribution, "group,week,alpha,attributed_usd",
         {"organic_alpha": "9"}, "meta organic_alpha must be an integer, got '9'"),
        (load_counts, "group,week,conversion_value,alpha,count",
         {"organic_alpha": None}, "meta organic_alpha must be an integer, got None"),
        (load_counts, "group,week,conversion_value,alpha,count",
         {"privacy_applied": "false"}, "meta privacy_applied must be true or false, got 'false'"),
        (load_counts, "group,week,conversion_value,alpha,count",
         {"privacy_applied": 0}, "meta privacy_applied must be true or false, got 0"),
        (load_users, "id,registration_date,alpha,group",
         {"organic_alpha": "105"}, "meta organic_alpha must be an integer, got '105'"),
        (load_users, "id,registration_date,alpha,group",
         {"organic_alpha": True}, "meta organic_alpha must be an integer, got True"),
    ], ids=["counts-organic_str", "attr-organic_str", "counts-organic_null",
            "counts-privacy_str", "counts-privacy_int", "users-organic_str", "users-organic_bool"])
    def test_bad_meta_value(self, tmp_path, load, header, meta, message):
        path = tmp_path / "f.csv"
        meta = {"columns": [0, 9]} | meta
        path.write_text("# skattr-meta " + json.dumps(meta) + f"\n{header}\n")
        with pytest.raises(CsvFormatError, match=rf"f\.csv:1: {message}"):
            load(path)

    @pytest.mark.parametrize("alpha", ["105", True])
    def test_simulate_rejects_users_meta(self, dataset_dir, tmp_path, capsys, alpha):
        users = dataset_dir / "users.csv"
        edit_csv(users, users, meta=lambda m: m | {"organic_alpha": alpha})
        code = run_cli("simulate", "--users", dataset_dir, "--schema", D7RR, "--seed", 9,
                       "--out", tmp_path / "c.csv")
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "CsvFormatError"
        assert err["message"].endswith("users.csv:1: meta organic_alpha must be an integer, "
                                       f"got {alpha!r}")

    def test_cli_exits_1(self, staged, tmp_path, capsys):
        counts = edit_csv(staged / "cp.csv", tmp_path / "cp.csv",
                          meta=lambda m: m | {"columns": ["a"]})
        assert run_cli("privatize", "--counts", counts, "--p", 5, "--out", tmp_path / "o.csv") == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "CsvFormatError"
        assert "cp.csv:1:" in err["message"]


class TestRowChecks:
    """Counts and attribution rows the loaders reject, naming the file and the place."""

    COUNTS = "group,week,conversion_value,alpha,count"
    ATTR = "group,week,alpha,attributed_usd"

    def write(self, tmp_path, meta, header, rows):
        path = tmp_path / "f.csv"
        path.write_text("# skattr-meta " + json.dumps(meta) + f"\n{header}\n"
                        + "".join(f"{row}\n" for row in rows))
        return path

    @pytest.mark.parametrize("privatized,row,message", [
        (True, "G,2024-W01,null,0,-3", "null row counts must be non-negative"),
        (False, "G,2024-W01,5,0,-3", "counts must be non-negative"),
    ])
    def test_negative_count(self, tmp_path, privatized, row, message):
        meta = {"columns": [0, 9], "organic_alpha": 9, "privacy_applied": privatized}
        path = self.write(tmp_path, meta, self.COUNTS, [row])
        with pytest.raises(CsvFormatError, match=rf"f\.csv: \(G, 2024-W01\): {message}"):
            load_counts(path)

    @pytest.mark.parametrize("row, message", [
        ("G,2024-W01,null,0,1", "null row in a pre-privacy file"),
        ("G,2024-W01,5,0,", "suppressed count in a pre-privacy file"),
    ])
    def test_privatized_row_in_pre_privacy_file(self, tmp_path, row, message):
        meta = {"columns": [0, 9], "organic_alpha": 9, "privacy_applied": False}
        path = self.write(tmp_path, meta, self.COUNTS, ["G,2024-W01,6,0,1", row])
        with pytest.raises(CsvFormatError, match=rf"f\.csv:4: {message}"):
            load_counts(path)

    @pytest.mark.parametrize("rows", [
        ["G,2024-W01,5,0,2", "G,2024-W01,5,0,7"],
        ["G,2024-W01,5,0,2", "G,2024-W01,05,0,2"],
        ["G,2024-W01,null,0,1", "G,2024-W01,null,0,1"],
        ["G,2024-W01,5,0,", "G,2024-W01,5,0,"],
    ])
    def test_duplicate_counts_row(self, tmp_path, rows):
        meta = {"columns": [0, 9], "organic_alpha": 9, "privacy_applied": True}
        path = self.write(tmp_path, meta, self.COUNTS, ["G,2024-W01,6,0,1", *rows])
        with pytest.raises(CsvFormatError, match=r"f\.csv:5: duplicate row .* first at line 4"):
            load_counts(path)

    def test_duplicate_attribution_row(self, tmp_path):
        rows = ["G,2024-W01,0,1.00", "G,2024-W02,0,1.00", "G,2024-W01,0,2.00"]
        path = self.write(tmp_path, {"columns": [0, 9]}, self.ATTR, rows)
        with pytest.raises(CsvFormatError, match=r"f\.csv:5: duplicate row for \(G, 2024-W01\)"):
            load_attribution(path)


class TestClosedFiles:
    """A load that fails part way through a file has closed it while the traceback lives."""

    @pytest.fixture()
    def opened(self, monkeypatch):
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(skattr.io_files, "open", recording_open, raising=False)
        return handles

    @pytest.mark.parametrize("name, load, bad_row", [
        pytest.param("data/users.csv", lambda d: load_users(d / "data/users.csv"),
                     "7,2024-01-01,x,G", id="users"),
        pytest.param("data/events.csv",
                     lambda d: load_users(d / "data/users.csv", d / "data/events.csv"),
                     "7,2024-01-08T00:00:00,click,,", id="events"),
        pytest.param("data/events.csv",
                     lambda d: load_users(d / "data/users.csv", d / "data/events.csv"),
                     "7,\udcff,session,,", id="events-bad-bytes"),
        pytest.param("cp.csv", lambda d: load_counts(d / "cp.csv"), "G0,2024-W01,0,x,1",
                     id="counts"),
        pytest.param("attr.csv", lambda d: load_attribution(d / "attr.csv"),
                     "G0,2024-W01,1,1.2.3", id="attribution"),
    ])
    def test_failed_load_closes_its_files(self, staged, tmp_path, opened, name, load, bad_row):
        shutil.copytree(staged, tmp_path / "s")
        path = tmp_path / "s" / name
        lines = path.read_text().split("\n")
        mid = len(lines) // 2
        lines[mid] = bad_row
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
        with pytest.raises(SkattrError) as excinfo:
            load(tmp_path / "s")
        assert str(excinfo.value).startswith(f"{path}:{mid + 1}: ")
        assert opened and all(fh.closed for fh in opened)
