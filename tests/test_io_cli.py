import contextlib
import csv
import io
import json
import math
import re
import shutil
import tempfile
from collections import Counter
from datetime import date, datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings, strategies as st

import skattr.io_files
from skattr.cli import main
from skattr.config import DEFAULT_SCHEMAS, RunConfig, run_config_from_dict
from skattr.errors import ConfigError, CsvFormatError, ReferentialError, SkattrError
from skattr.io_files import (
    META_PREFIX,
    load_attribution,
    load_cohort,
    load_counts,
    load_users,
    parse_usd,
    save_attribution,
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
    datetime_to_us,
    ground_truth,
    us_to_datetime,
)
from skattr.pipeline import run_schema
from skattr.postback import CountMatrix
from skattr.postback_view import load_postback_view
from skattr.privacy import PrivacyConfig, apply_threshold
from skattr.schema import prepare_users, schema_from_text, simulate_traces
from skattr.synthgen import GenConfig, generate_dataset

from oracles import reference_cohort, reference_load_users, reference_save_events, timestamp

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

    def test_missing_events_file_is_a_config_error(self, dataset, tmp_path):
        """``load_users`` names a missing events file as ``load_cohort`` does."""
        users, meta = dataset
        save_users(tmp_path / "u.csv", users, meta)
        missing = tmp_path / "nonexistent.csv"
        for load in (load_users, load_cohort):
            with pytest.raises(ConfigError, match=f"^input file {missing} does not exist$"):
                load(tmp_path / "u.csv", missing)

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
            '# skattr-meta {"organic_alpha": 700}\n'
            "id,registration_date,alpha,group\n1,2024-01-01,705,G\n"
        )
        with pytest.raises(ReferentialError, match="alpha 705 exceeds the organic sentinel 700"):
            load_users(tmp_path / "u.csv")

    def test_duplicate_id_rejected(self, tmp_path):
        (tmp_path / "u.csv").write_text(
            "id,registration_date,alpha,group\n1,2024-01-01,0,G\n1,2024-01-01,1,G\n"
        )
        with pytest.raises(CsvFormatError):
            load_users(tmp_path / "u.csv")


META = {"organic_alpha": 9, "seed": 1}


class TestTimestampEdges:
    """``Event.us``, its ``datetime`` and the events file's text agree at the edges of a day."""

    @pytest.mark.parametrize("text", [
        "2024-01-01T00:00:00",
        "2024-01-01T23:59:59.999999",
        "2024-01-02T09:00:00",  # 24 h after a commit at 2024-01-01T09:00:00
        "2024-01-02T08:59:59.999999",  # ... less 1 us
        "2024-01-02T09:00:00.000001",  # ... and 1 us more
        "2024-01-03T12:34:56.500000",
    ])
    def test_instant_text_round_trip(self, tmp_path, text):
        ts = datetime.fromisoformat(text)
        us = datetime_to_us(ts)
        seconds = (ts.hour * 60 + ts.minute) * 60 + ts.second
        assert us == ts.date().toordinal() * US_PER_DAY + seconds * 10**6 + ts.microsecond
        assert us_to_datetime(us) == ts
        assert timestamp(Event(us, SESSION)).isoformat() == text

        midnight = date(2024, 1, 1).toordinal() * US_PER_DAY
        user = UserRecord(1, date(2024, 1, 1), CampaignKey(0),
                          (Event(midnight, SESSION), Event(us, SESSION)), "G")
        save_dataset(tmp_path, [user], META)
        assert f"\n1,{text},session,,\n" in (tmp_path / "events.csv").read_text()
        (loaded,), _ = load_users(tmp_path / "users.csv", tmp_path / "events.csv")
        assert loaded == user
        cohort = load_cohort(tmp_path / "users.csv", tmp_path / "events.csv")
        assert cohort.digests[0][-1][0] == us - midnight
        assert cohort.digests == prepare_users([user]).digests

    @pytest.mark.parametrize("text, commits", [
        ("2024-01-02T08:59:59.999999", True),
        ("2024-01-02T09:00:00", True),
        ("2024-01-02T09:00:00.000001", False),
    ])
    def test_commit_timer_at_24_hours(self, tmp_path, text, commits):
        """A purchase up to exactly 24 h after the first-open commit commits; 1 us later, not."""
        (tmp_path / "users.csv").write_text(USERS_TEXT)
        (tmp_path / "events.csv").write_text(
            EVENTS_HEADER
            + "1,2024-01-01T09:00:00,session,,\n"
            + f"1,{text},purchase,100,\n"
            + "2,2024-01-03T08:00:00,session,,\n"
        )
        cohort = load_cohort(tmp_path / "users.csv", tmp_path / "events.csv")
        (users, _) = load_users(tmp_path / "users.csv", tmp_path / "events.csv")
        assert prepare_users(users).digests == cohort.digests
        midnight = datetime(2024, 1, 1)
        at = (datetime.fromisoformat(text) if commits else datetime(2024, 1, 1, 9)) - midnight
        value = (1 << 5) | 1 if commits else 0  # day 1, one purchase
        schema = schema_from_text("kind=RI;layout=TCCCCC;horizon=1")
        values, lasts = simulate_traces(cohort, schema)
        assert cohort.ids[0] == 1
        assert (values[0], lasts[0]) == (value, at // timedelta(microseconds=1))

    def test_sub_second_events_file_is_rewritten_byte_for_byte(self, tmp_path):
        meta_line = META_PREFIX + json.dumps(META, sort_keys=True) + "\n"
        texts = {
            "users.csv": meta_line + USERS_TEXT,
            "events.csv": meta_line + EVENTS_HEADER + (
                "1,2024-01-01T00:00:00,session,,\n"
                "1,2024-01-01T00:00:00.000001,flag,,0\n"
                "1,2024-01-01T09:30:15.250000,purchase,250,\n"
                "1,2024-01-01T23:59:59.999999,session,,\n"
                "1,2024-01-02T00:00:00,purchase,40,\n"
                "2,2024-01-03T08:00:00.999999,session,,\n"
            ),
        }
        for name, text in texts.items():
            (tmp_path / name).write_text(text)
        users, meta = load_users(tmp_path / "users.csv", tmp_path / "events.csv")
        save_dataset(tmp_path / "out", users, meta)
        for name, text in texts.items():
            assert (tmp_path / "out" / name).read_text() == text


FIRST_US = date.min.toordinal() * US_PER_DAY  # 0001-01-01T00:00:00
LAST_US = (date.max.toordinal() + 1) * US_PER_DAY - 1  # 9999-12-31T23:59:59.999999


def written_events(tmp_path, users, meta=META) -> tuple[bytes, bytes]:
    """The events file ``save_events`` writes for ``users``, and the one the oracle writes."""
    save_events(tmp_path / "e.csv", users, meta)
    reference_save_events(tmp_path / "ref.csv", users, meta)
    return (tmp_path / "e.csv").read_bytes(), (tmp_path / "ref.csv").read_bytes()


class TestEventsWriter:
    """``save_events``' text rows are the bytes ``csv.writer`` writes for the same events."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(FIRST_US, LAST_US),
        st.integers(FIRST_US // 10**6, LAST_US // 10**6).map(lambda s: s * 10**6),  # whole seconds
    ), min_size=1, max_size=8))
    def test_timestamp_text_is_isoformat(self, instants):
        instants.sort()
        user = UserRecord(7, date.min, CampaignKey(0), [Event(us, SESSION) for us in instants], "G")
        with tempfile.TemporaryDirectory() as tmp:
            ours, reference = written_events(Path(tmp), [user])
        rows = ours.decode().splitlines()[2:]
        stamps = [row.split(",")[1] for row in rows]
        assert stamps == [us_to_datetime(us).isoformat() for us in instants]
        assert ours == reference

    def test_generated_cohort(self, dataset, tmp_path):
        users, meta = dataset
        ours, reference = written_events(tmp_path, users, meta)
        assert ours == reference

    def test_hand_built_users(self, tmp_path):
        day = date(2024, 2, 29)
        midnight = day.toordinal() * US_PER_DAY
        last = midnight + US_PER_DAY - 1  # 23:59:59.999999
        events = [
            Event(midnight, SESSION),
            Event(midnight, PURCHASE, 1),
            Event(midnight, FLAG, None, 0),  # three events at one instant
            Event(midnight + 1, SESSION),  # 00:00:00.000001
            Event(midnight + 999_999, PURCHASE, 123_456_789),  # 00:00:00.999999
            Event(midnight + 10**6, SESSION),  # 00:00:01
            *(Event(midnight + 3_600_000_000 * i + 500_000, FLAG, None, i) for i in range(1, 6)),
            Event(last - 10**6 + 1, PURCHASE, 99),  # 23:59:58.000001
            Event(last, SESSION),
            Event(last, PURCHASE, 5),
            Event(last + 1, SESSION),  # the next midnight
        ]
        users = [
            UserRecord(12, day, CampaignKey(3), events, "ROW"),
            UserRecord(3, day, CampaignKey(9, organic=True), [Event(last, SESSION)], "US"),
            UserRecord(5, day, CampaignKey(0), [], "US"),
        ]
        ours, reference = written_events(tmp_path, users)
        assert ours == reference
        text = ours.decode()
        by_id = "\n3,2024-02-29T23:59:59.999999,session,,\n12,2024-02-29T00:00:00,session,,\n"
        assert by_id in text
        assert "\n12,2024-02-29T00:00:00.999999,purchase,123456789,\n" in text
        assert "\n12,2024-02-29T05:00:00.500000,flag,,5\n" in text
        assert text.endswith("\n12,2024-03-01T00:00:00,session,,\n")


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
# Texts that int() and datetime.fromisoformat() refuse.
BAD_INTS = ("x", "2.0", "9" * 5000)
BAD_TIMESTAMPS = ("2024-01-09", "2024-02-30T00:00:00", "soon", "")
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
                datetime_to_us(midnight + timedelta(seconds=seconds)),
                kind,
                amount=draw(st.integers(1, 9_999)) if kind == PURCHASE else None,
                flag_index=draw(st.integers(0, 5)) if kind == FLAG else None,
            ))
        alpha = draw(st.integers(0, META["organic_alpha"]))
        origin = CampaignKey(alpha, organic=alpha == META["organic_alpha"])
        users.append(UserRecord(uid, reg, origin, tuple(events), draw(st.sampled_from("GH"))))
    return users


TWO_CHECKS = (
    "columns_and_user", "user_and_timestamp", "kind_and_amount", "amount_and_flag",
    "flag_and_event",
)


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
    # Two adjacent checks broken at once: the error names the earlier one.
    elif edit == "columns_and_user":
        fields = [data.draw(st.sampled_from(BAD_INTS))] + fields[1:data.draw(st.integers(1, 4))]
    elif edit == "user_and_timestamp":
        fields[:2] = ["99", data.draw(st.sampled_from(BAD_TIMESTAMPS))]
    elif edit == "kind_and_amount":
        fields[2:4] = [data.draw(st.sampled_from(("click", "Session", ""))),
                       data.draw(st.sampled_from(BAD_INTS))]
    elif edit == "amount_and_flag":
        fields[3:] = [data.draw(st.sampled_from(BAD_INTS)), data.draw(st.sampled_from(BAD_INTS))]
    elif edit == "flag_and_event":  # a session with an amount also fails check_event
        fields[2:] = [SESSION, "250", data.draw(st.sampled_from(BAD_INTS))]
    lines = lines[:i] + [",".join(fields)] + lines[i + 1:]
    return ("\r\n" if edit == "crlf" else "\n").join(lines)


USER_EDITS = ("swap_rows", "first_before_midnight", "first_is_flag", "drop_user", "interleave")


def mutate_user(lines: list[str], i: int, edit: str, users) -> str:
    """The events file text with the rows of the user of data line ``lines[i]`` edited."""
    uid = lines[i].split(",")[0]
    mine = [j for j in range(2, len(lines) - 1) if lines[j].split(",")[0] == uid]
    lines = list(lines)
    first = lines[mine[0]].split(",")
    if edit == "swap_rows":  # with the user's next row, or its previous one
        k = mine.index(i)
        j = mine[k + 1] if k + 1 < len(mine) else mine[k - 1] if k else i
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "first_before_midnight":
        reg = next(u.registration_date for u in users if str(u.id) == uid)
        midnight = datetime.combine(reg, datetime.min.time())
        first[1] = (midnight - timedelta(microseconds=1)).isoformat()
        lines[mine[0]] = ",".join(first)
    elif edit == "first_is_flag":
        first[2:] = [FLAG, "", "0"]
        lines[mine[0]] = ",".join(first)
    elif edit == "drop_user":
        lines = [line for j, line in enumerate(lines) if j not in mine]
    elif edit == "interleave":  # the row moves past the next user's block, else the previous one
        owners = [line.split(",")[0] for line in lines]
        # Where each user's block starts, then where the rows end.
        starts = [j for j in range(2, len(lines) - 1) if owners[j] != owners[j - 1]]
        starts.append(len(lines) - 1)
        k = starts.index(mine[0])
        if k + 2 < len(starts):
            lines.insert(starts[k + 2], lines[i])
            del lines[i]
        elif k:
            lines.insert(starts[k - 1], lines.pop(i))
    return "\n".join(lines)


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
        *TWO_CHECKS, *USER_EDITS,
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
            if edit in USER_EDITS:
                text = mutate_user(lines, i, edit, cohort)
            else:
                text = mutate(lines, i, edit, data)
            epath.write_bytes(text.encode("utf-8", "surrogateescape"))
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
        *TWO_CHECKS, *USER_EDITS,
    ])
    @given(cohort=cohorts(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cohort_matches_reference_loader(self, edit, cohort, data):
        if data.draw(st.booleans()):  # a first open for every user, so that the cohort loads
            cohort = [
                u._replace(events=(
                    Event(u.registration_date.toordinal() * US_PER_DAY, SESSION), *u.events
                ))
                for u in cohort
            ]
        with tempfile.TemporaryDirectory() as tmp:
            upath, epath = Path(tmp) / "users.csv", Path(tmp) / "events.csv"
            save_users(upath, cohort, META)
            save_events(epath, cohort, META)
            lines = epath.read_text().split("\n")
            i = data.draw(st.integers(2, len(lines) - 2))
            if edit in USER_EDITS:
                text = mutate_user(lines, i, edit, cohort)
            else:
                text = mutate(lines, i, edit, data)
            epath.write_bytes(text.encode("utf-8", "surrogateescape"))
            if edit in ESCAPES:
                expected = outcome(load_users, upath, epath)
                assert expected[0] is CsvFormatError
                assert expected[1].startswith(f"{epath}:{i + 1}: ")
            else:
                def reference(*paths):
                    users, meta = reference_load_users(*paths)
                    return cohort_facts(reference_cohort(users, meta.get("organic_alpha")))

                expected = outcome(reference, upath, epath)
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
    """``load_cohort`` is ``prepare_users`` of ``load_users``' records and sentinel, in a pass."""

    def load(self, tmp_path, events: str | None):
        (tmp_path / "u.csv").write_text("# skattr-meta " + json.dumps(META) + "\n" + USERS_TEXT)
        if events is not None:
            (tmp_path / "e.csv").write_text(EVENTS_HEADER + events)
        paths = (tmp_path / "u.csv", tmp_path / "e.csv")
        def expected_facts():
            users, meta = load_users(*paths)
            return cohort_facts(prepare_users(users, meta["organic_alpha"]))

        expected = outcome(expected_facts)
        result = outcome(load_cohort, *paths)
        assert (result if isinstance(result, tuple) else cohort_facts(result)) == expected
        return result

    def test_utc_offset_is_named_before_a_bad_kind(self, tmp_path):
        """The reference loader lets a UTC offset escape, so it cannot check this order."""
        result = self.load(tmp_path, "1,2024-01-01T09:00:00+00:00,click,,\n")
        assert result == (
            CsvFormatError,
            f"{tmp_path / 'e.csv'}:2: timestamp '2024-01-01T09:00:00+00:00' has a UTC offset",
        )

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
        """Unlike ``load_users``, a missing events file is an error when a user needs it."""
        (tmp_path / "u.csv").write_text("# skattr-meta " + json.dumps(META) + "\n" + USERS_TEXT)
        assert outcome(load_cohort, tmp_path / "u.csv", tmp_path / "e.csv") == (
            ConfigError, f"input file {tmp_path / 'e.csv'} does not exist"
        )
        assert outcome(load_cohort, tmp_path / "u.csv") == (
            ConfigError, "user 1 lacks a first-open session event"
        )
        (tmp_path / "u.csv").write_text(USERS_TEXT.splitlines()[0] + "\n")
        assert load_cohort(tmp_path / "u.csv", tmp_path / "e.csv").ids == []

    def test_blank_lines_are_skipped(self, tmp_path):
        """A blank line is no row, and a row after it is named by its own line."""
        events = ("1,2024-01-01T09:00:00,session,,\n\n1,2024-01-02T09:00:00,purchase,250,\n"
                  "2,2024-01-03T08:00:00,session,,\n")
        cohort = self.load(tmp_path, events)
        assert cohort.window_revenue(0, 2) == [250, 0]
        (tmp_path / "e.csv").write_text(EVENTS_HEADER + events.replace(",250,", ",x,"))
        with pytest.raises(CsvFormatError, match=r"e\.csv:4: amount_cents must be an integer"):
            load_cohort(tmp_path / "u.csv", tmp_path / "e.csv")

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

    @pytest.mark.parametrize("events, error", [
        pytest.param(
            "1,2024-01-01T09:00:00,flag,,0\n"
            "2,2024-01-03T09:00:00,session,,\n"
            "2,2024-01-03T08:00:00,session,,\n",
            (CsvFormatError, ": user 2: events out of order at 2024-01-03T08:00:00"),
            id="order_defect_before_a_missing_first_open"),
        pytest.param(
            "2,2024-01-02T23:00:00,session,,\n"
            "1,2024-01-01T09:00:00,session,,\n"
            "1,2024-01-01T08:00:00,session,,\n",
            (CsvFormatError, ": user 1: events out of order at 2024-01-01T08:00:00"),
            id="smallest_id_first"),
        pytest.param(
            "1,2024-01-01T09:00:00,flag,,0\n"
            "1,2024-01-01T08:00:00,session,,\n"
            "2,2024-01-03T09:00:00,session,,\n",
            (CsvFormatError, ": user 1: events out of order at 2024-01-01T08:00:00"),
            id="flag_first_then_out_of_order"),
        pytest.param(
            "1,2024-01-01T09:00:00,flag,,1\n"
            "1,2024-01-01T10:00:00,session,,\n",
            (ConfigError, "user 1 lacks a first-open session event"),
            id="flag_first_and_a_user_without_events"),
    ])
    def test_two_users_with_different_defects(self, tmp_path, events, error):
        """Order defects come first, the smallest user id first; a missing first open last."""
        kind, message = error
        if kind is CsvFormatError:
            message = f"{tmp_path / 'e.csv'}{message}"
        assert self.load(tmp_path, events) == (kind, message)

    @pytest.mark.parametrize("row, error", [
        pytest.param("1,2024-01-01T10:00:00,purchase,0,", (
            CsvFormatError, ":3: purchase amount must be a positive cent count"), id="amount"),
        pytest.param("7,2024-01-01T10:00:00,session,,", (
            ReferentialError, ":3: event references unknown user 7"), id="unknown_user"),
        pytest.param("1,2024-01-01T10:00:00,click,,", (
            CsvFormatError, ":3: unknown event kind 'click'"), id="kind"),
        pytest.param("1,2024-01-01T08:00:00,session,,", (
            CsvFormatError, ": user 1: events out of order at 2024-01-01T08:00:00"),
            id="out_of_order"),
        pytest.param("2,2024-01-02T23:00:00,session,,", (
            CsvFormatError, ": user 2: event precedes registration"), id="before_registration"),
        pytest.param("2,2024-01-03T08:00:00,flag,,0", (
            ConfigError, "user 2 lacks a first-open session event"), id="first_not_a_session"),
        pytest.param(None, (ConfigError, "user 1 lacks a first-open session event"),
                     id="no_events"),
    ])
    def test_bad_row_raises_without_a_second_read(self, tmp_path, monkeypatch, row, error):
        """A bad row, and each user defect, is raised in one read of each file."""
        def second_read(*args):
            raise AssertionError("load_cohort read the dataset again")

        (tmp_path / "u.csv").write_text("# skattr-meta " + json.dumps(META) + "\n" + USERS_TEXT)
        first = "" if row is None else "1,2024-01-01T09:00:00,session,,\n" + row + "\n"
        (tmp_path / "e.csv").write_text(EVENTS_HEADER + first + "2,2024-01-03T09:00:00,session,,\n")
        opened = []
        open_input = skattr.io_files._open_input

        def counted_open(path, *args, **kwargs):
            opened.append(path)
            return open_input(path, *args, **kwargs)

        monkeypatch.setattr(skattr.io_files, "_open_input", counted_open)
        monkeypatch.setattr(skattr.io_files, "load_users", second_read)
        monkeypatch.setattr(skattr.schema, "prepare_users", second_read)
        assert not hasattr(skattr.io_files, "prepare_users")
        kind, message = error
        if kind is not ConfigError:
            message = f"{tmp_path / 'e.csv'}{message}"
        assert outcome(load_cohort, tmp_path / "u.csv", tmp_path / "e.csv") == (kind, message)
        assert sorted(opened) == [tmp_path / "e.csv", tmp_path / "u.csv"]

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
        assert meta_p["privacy_applied"] is True and meta_p["p"] == 10

    def test_suppressed_values_have_no_row(self, dataset, tmp_path):
        users, _ = dataset
        artifacts = run_schema(prepare_users(users), schema_from_text(D7RR), 9)
        post = {cell: apply_threshold(m, PrivacyConfig(10)) for cell, m in artifacts.matrices.items()}
        save_counts(tmp_path / "cp.csv", post, {})
        text = (tmp_path / "cp.csv").read_text()
        assert ',"' not in text  # plain scalars, no quoting needed
        rows = [line.split(",") for line in text.splitlines()[2:]]
        assert all(count not in ("", "0") for _, _, v, _, count in rows if v != "null")
        written = {(g, w, int(v)) for g, w, v, _, _ in rows if v != "null"}
        suppressed = {(*cell, v) for cell, m in post.items() for v in m.suppressed}
        assert suppressed  # some values are suppressed at p=10
        assert not written & suppressed
        assert {(g, w) for g, w, v, _, _ in rows if v == "null"} == set(post)

    def test_usd_parsing(self):
        assert parse_usd("12.34") == 1234
        assert parse_usd("0.00") == 0
        assert parse_usd("7") == 700
        assert parse_usd("-3.05") == -305
        # No dollar digit, a digit int() refuses, or more than int()'s 4300 digits.
        for bad in ("1.2.3", ".50", "-.50", "-", "1.", "²", "9" * 5000, "9" * 5000 + ".00"):
            with pytest.raises(CsvFormatError, match="^bad USD amount "):
                parse_usd(bad)


LABELS = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6)


@st.composite
def attribution_maps(draw):
    """``(cents, columns)``: a map ``save_attribution`` writes, and its declared alphas."""
    columns = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=5, unique=True))
    amounts = st.one_of(st.just(0), st.integers(-10**9, 10**9))
    row = st.lists(amounts, min_size=len(columns), max_size=len(columns))
    return draw(st.dictionaries(st.tuples(LABELS, LABELS), row, max_size=5)), columns


class TestAttributionRoundTrip:
    """An attribution file is the grid's ``{(group, week): cents per column}`` map."""

    @given(drawn=attribution_maps())
    @settings(max_examples=60, deadline=None)
    def test_load_returns_what_was_saved(self, drawn):
        cents, columns = drawn
        meta = {"kind": "attribution", "columns": columns, "seed": 1, "t": 30}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "attr.csv"
            save_attribution(path, cents, meta)
            assert load_attribution(path) == (cents, meta)

    @given(drawn=attribution_maps(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_dropped_row_reads_zero(self, drawn, data):
        cents, columns = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "attr.csv"
            save_attribution(path, cents, {"columns": columns})
            head, header, *body = path.read_text().split("\n")[:-1]
            dropped = data.draw(st.sets(st.integers(0, max(len(body) - 1, 0))))
            expected = {cell: list(row) for cell, row in cents.items()}
            kept = set()
            for i, (group, week, alpha, _) in enumerate(csv.reader(body)):
                if i in dropped:
                    expected[(group, week)][columns.index(int(alpha))] = 0
                else:
                    kept.add((group, week))
            path.write_text("\n".join([head, header, *(r for i, r in enumerate(body)
                                                        if i not in dropped)]) + "\n")
            loaded, _ = load_attribution(path)
        assert loaded == {cell: row for cell, row in expected.items() if cell in kept}


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

    def test_benchmark_finds_the_events_file_beside_the_users_file(self, dataset_dir, tmp_path):
        grid = {"schemas": ["kind=UD"], "p_values": [0], "g_modes": ["plain"], "windows": []}
        sources = {
            "both": {"users_csv": str(dataset_dir / "users.csv"),
                     "events_csv": str(dataset_dir / "events.csv")},
            "users": {"users_csv": str(dataset_dir / "users.csv")},
            "directory": {"users_csv": str(dataset_dir)},
        }
        cells = {}
        for name, source in sources.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(source | grid))
            out = tmp_path / name
            assert run_cli("benchmark", "--config", tmp_path / f"{name}.json", "--out", out) == 0
            cells[name] = json.loads((out / "report.json").read_text())["cells"]
        assert cells["both"]
        assert cells["users"] == cells["directory"] == cells["both"]

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

    @given(
        n_users=st.integers(20, 400),
        seed=st.integers(0, 2**16),
        n_weeks=st.integers(1, 3),
        groups=st.sampled_from(([["G", 1.0]], [["US", 0.5], ["ROW", 0.5]])),
        schema=st.sampled_from(DEFAULT_SCHEMAS),
        estimator=st.sampled_from([
            (0, "plain", None), (0, "null_uniform", 0.0), (0, "null_empirical", 1.0),
            *[(p, g, lam) for p in (2, 10) for g, lam in (("null_uniform", 0.0),
                                                          ("null_empirical", 1.0))],
            *[(p, "null_convex", lam) for p in (0, 2, 10) for lam in (0.25, 0.5)],
        ]),
    )
    @settings(max_examples=50, deadline=None)
    def test_stagewise_evaluate_is_the_grid_cell(self, n_users, seed, n_weeks, groups,
                                                 schema, estimator):
        """simulate -> privatize -> attribute -> evaluate reports the grid's campaign cell.

        Over small random cohorts, each of the grid's default schemas and
        every estimator at p 0, 2 and 10, the evaluation's weekly and
        aggregate errors equal the grid's exactly. A cohort the grid
        refuses fails its stages with the same error type.
        """
        p, g, lam = estimator
        gen = GenConfig(n_users=n_users, n_weeks=n_weeks, event_horizon_days=35, seed=seed,
                        groups=tuple(map(tuple, groups)))
        users, meta = generate_dataset(gen)
        try:
            report = benchmark_matrix(
                users, [schema_from_text(schema)], [p], [g], 30, seed=seed,
                lambda_grid=(0.5 if lam is None else lam,),
                prepared=prepare_users(users, meta["organic_alpha"]),
            )
        except SkattrError as exc:
            refused, report = type(exc.__cause__).__name__, None
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_dataset(tmp / "data", users, meta)
            stages = [
                ["simulate", "--users", tmp / "data", "--schema", schema, "--seed", seed,
                 "--out", tmp / "c.csv"],
                ["privatize", "--counts", tmp / "c.csv", "--p", p, "--out", tmp / "cp.csv"],
                ["attribute", "--counts", tmp / ("c.csv" if g == "plain" else "cp.csv"),
                 "--profile-from", tmp / "data", "--t", 30, "--g", g,
                 *(["--lambda", lam] if g == "null_convex" else []), "--out", tmp / "a.csv"],
                ["evaluate", "--attr", tmp / "a.csv", "--truth-from", tmp / "data", "--t", 30,
                 "--out", tmp / "r.json"],
            ]
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                codes = [run_cli(*argv) for argv in stages]
            event("refused" if report is None else "scored")
            if report is None:
                assert 1 in codes
                assert json.loads(stderr.getvalue().splitlines()[0])["error"] == refused
                return
            assert codes == [0, 0, 0, 0], stderr.getvalue()
            stage = json.loads((tmp / "r.json").read_text())
        (cell,) = [c for c in report.cells if c.level == "campaign"]
        assert stage["aggregate_error_usd"] == cell.aggregate_error / 100.0
        assert stage["weekly_errors_usd"] == {w: e / 100.0 for w, e in cell.weekly_errors}

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


def config_error(capsys, kind: str = "ConfigError") -> str:
    """The message of the CLI's one-line JSON error, which must be a ``kind``."""
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == kind
    return err["message"]


class TestCliErrors:
    def evaluate(self, staged, attr, out):
        return run_cli("evaluate", "--attr", attr, "--truth-from", staged / "data",
                       "--t", 30, "--out", out)

    # No seed of its own: the run seed (0 by default) seeds the generator too.
    GEN = {"n_users": 600, "n_weeks": 2, "event_horizon_days": 35}

    @pytest.mark.parametrize("bad,prefix", [
        pytest.param({"g_modes": ["plain", "bogus"]}, None, id="g_mode"),
        pytest.param({"lambda_grid": [1.5]}, None, id="lambda"),
        pytest.param({"p_values": [-1], "g_modes": ["plain"]}, None, id="p"),
        pytest.param({"windows": [[14, 7]]}, None, id="window"),
        pytest.param({"lambda_grid": ["0.5"]}, "run config key 'lambda_grid' must fit ",
                     id="lambda_str"),
        pytest.param({"p_values": ["2"]}, "run config key 'p_values' must fit ", id="p_str"),
        pytest.param({"t": "30"}, "run config key 't' must fit ", id="t_str"),
        pytest.param({"t": True}, "run config key 't' must fit ", id="t_bool"),
        pytest.param({"gen": GEN | {"n_users": "600"}}, "generator config key 'n_users' must fit ",
                     id="n_users_str"),
        pytest.param({"gen": GEN | {"n_users": True}}, "generator config key 'n_users' must fit ",
                     id="n_users_bool"),
        pytest.param({"gen": GEN | {"start_date": "2024-13-01"}},
                     "generator config key 'start_date' must fit ", id="start_date"),
        pytest.param({"windows": [[7.5, 14]]}, "run config key 'windows' must fit ",
                     id="window_float"),
        # The scoring policy is fixed (metrics.SCORING_POLICY): its keys are no run-config
        # keys, even at the policy's own values.
        pytest.param({"include_organic_in_error": True},
                     "unknown run config keys: ['include_organic_in_error']",
                     id="include_organic_in_error"),
        pytest.param({"profile_per_group": False}, "unknown run config keys: ['profile_per_group']",
                     id="profile_per_group"),
        pytest.param({"week_start": "monday"}, "unknown run config keys: ['week_start']",
                     id="week_start"),
        # Nor are the fixed run inputs (config.FIXED_SETTINGS): the users file names the
        # organic sentinel, and the window curve's schema, p and g are fixed.
        pytest.param({"organic_alpha": None}, "unknown run config keys: ['organic_alpha']",
                     id="organic_alpha"),
        pytest.param({"window_g": "plain"}, "unknown run config keys: ['window_g']",
                     id="window_g"),
        pytest.param({"window_p": 0}, "unknown run config keys: ['window_p']", id="window_p"),
        pytest.param({"window_schema": None}, "unknown run config keys: ['window_schema']",
                     id="window_schema"),
    ])
    def test_bad_run_config_fails_before_any_work(self, tmp_path, capsys, bad, prefix):
        (tmp_path / "run.json").write_text(json.dumps({"gen": self.GEN} | bad))
        out = tmp_path / "out"
        assert run_cli("benchmark", "--config", tmp_path / "run.json", "--out", out) == 1
        message = config_error(capsys)
        if prefix is not None:
            assert message.startswith(prefix)
        assert not (out / "dataset").exists()

    @pytest.mark.parametrize("bad, message", [
        pytest.param({"p_values": [0, 10, 10], "lambda_grid": [0.5, 0.5]},
                     "duplicate p value 10 in benchmark grid", id="p"),
        pytest.param({"g_modes": ["plain", "null_uniform", "null_uniform"]},
                     "duplicate g mode 'null_uniform' in benchmark grid", id="g"),
        pytest.param({"g_modes": ["null_convex"], "lambda_grid": [0.5, 0.5]},
                     "duplicate lambda 0.5 in benchmark grid", id="lambda"),
        pytest.param({"lambda_grid": [0, 0.0]},
                     "duplicate lambda 0.0 in benchmark grid", id="lambda_int_and_float"),
        pytest.param({"schemas": ["kind=PV;layout=VVVVVV;horizon=30", "kind=UD", "kind=UD;seed=5"],
                      "windows": []},
                     "duplicate schema UD in benchmark grid", id="schema_label"),
    ])
    def test_repeated_grid_coordinate_fails_before_any_work(self, tmp_path, capsys, bad,
                                                            message):
        (tmp_path / "run.json").write_text(json.dumps({"gen": self.GEN} | bad))
        out = tmp_path / "out"
        assert run_cli("benchmark", "--config", tmp_path / "run.json", "--out", out) == 1
        assert config_error(capsys) == message
        assert not (out / "report.json").exists()
        assert not (out / "dataset").exists()

    @pytest.mark.parametrize("bad, message", [
        pytest.param({"g_modes": ["null_convex"], "lambda_grid": []},
                     "g mode null_convex needs at least one lambda in the benchmark grid",
                     id="convex_without_lambda"),
        pytest.param({"g_modes": ["plain"], "p_values": [0, 10]},
                     "no g mode runs at p=10: plain runs only below p=2", id="p_without_mode"),
    ])
    def test_grid_axis_without_a_cell_fails_before_any_work(self, tmp_path, capsys, bad,
                                                            message):
        (tmp_path / "run.json").write_text(json.dumps({"gen": self.GEN} | bad))
        out = tmp_path / "out"
        assert run_cli("benchmark", "--config", tmp_path / "run.json", "--out", out) == 1
        assert config_error(capsys) == message
        assert not (out / "grid.csv").exists()
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

    @pytest.mark.parametrize("groups, message", [
        pytest.param([["", 1.0]], "group '': label must be non-empty", id="empty_label"),
        pytest.param([["A", -0.5], ["B", 1.5]], "group 'A': weight must be in [0, 1], got -0.5",
                     id="negative_weight"),
        pytest.param([["A", 0.5], ["A", 0.5]], "group 'A': label listed twice", id="duplicate"),
    ])
    def test_generate_refuses_a_group_the_reader_refuses(self, tmp_path, capsys, groups,
                                                         message):
        (tmp_path / "gen.json").write_text(json.dumps({"n_users": 50, "seed": 1,
                                                       "groups": groups}))
        out = tmp_path / "d1"
        assert run_cli("generate", "--config", tmp_path / "gen.json", "--out", out) == 1
        assert config_error(capsys) == message
        assert not out.exists()

    @pytest.mark.parametrize("gen, message", [
        pytest.param({"n_users": 300, "seed": 2, "organic_alpha": 3},
                     "organic_alpha must exceed every paid alpha, the largest being 104, got 3",
                     id="organic_alpha"),
        pytest.param({"n_users": 50, "start_date": "9999-12-27", "n_weeks": 1},
                     "start_date 9999-12-27, n_weeks 1 and event_horizon_days 90 "
                     "put events after 9999-12-31", id="registration_past_year_9999"),
        pytest.param({"n_users": 50, "start_date": "9999-12-20", "n_weeks": 1,
                      "event_horizon_days": 30},
                     "start_date 9999-12-20, n_weeks 1 and event_horizon_days 30 "
                     "put events after 9999-12-31", id="events_past_year_9999"),
    ])
    def test_generate_refuses_a_dataset_the_stages_cannot_read(self, tmp_path, capsys, gen,
                                                               message):
        (tmp_path / "gen.json").write_text(json.dumps(gen))
        out = tmp_path / "d1"
        assert run_cli("generate", "--config", tmp_path / "gen.json", "--out", out) == 1
        assert config_error(capsys) == message
        assert not out.exists()

    @pytest.mark.parametrize("users_text, schema, horizon, message", [
        pytest.param(None, D7RR, "2000-01-01T00:00:00",
                     "no postback was counted before the horizon 2000-01-01T00:00:00; "
                     "no counts file is written", id="all_after_the_horizon"),
        pytest.param(USERS_TEXT.splitlines()[0] + "\n", "kind=UD", None,
                     "no postback was counted; no counts file is written", id="no_users"),
    ])
    def test_simulate_without_a_postback_writes_nothing(self, dataset_dir, tmp_path, capsys,
                                                        users_text, schema, horizon, message):
        """A counts file without cells lacks the column list that the later stages need."""
        if users_text is not None:
            (dataset_dir / "users.csv").write_text(users_text)
            (dataset_dir / "events.csv").unlink()
        argv = ["simulate", "--users", dataset_dir, "--schema", schema, "--seed", 1,
                "--out", tmp_path / "c.csv"]
        if horizon is not None:
            argv += ["--horizon", horizon]
        assert run_cli(*argv) == 1
        assert config_error(capsys) == message
        assert not (tmp_path / "c.csv").exists()
        assert not list(dataset_dir.glob("postbacks-*.csv"))

    @pytest.mark.parametrize("command", ["simulate", "attribute", "evaluate", "benchmark"])
    def test_missing_events_file_is_named(self, tmp_path, capsys, command):
        """A users file that lists a user needs its events file, whichever command reads it."""
        (tmp_path / "gen.json").write_text(json.dumps({"n_users": 50, "seed": 1}))
        data, counts, attr = tmp_path / "d", tmp_path / "c.csv", tmp_path / "a.csv"
        assert run_cli("generate", "--config", tmp_path / "gen.json", "--out", data) == 0
        assert run_cli("simulate", "--users", data, "--schema", "kind=UD", "--seed", 1,
                       "--out", counts) == 0
        assert run_cli("attribute", "--counts", counts, "--profile-from", data, "--t", 30,
                       "--g", "plain", "--out", attr) == 0
        grid = {"users_csv": str(data / "users.csv"), "schemas": ["kind=UD"], "p_values": [0],
                "g_modes": ["plain"], "windows": []}
        (tmp_path / "run.json").write_text(json.dumps(grid))
        (data / "events.csv").unlink()
        argv = {
            "simulate": ["--users", data, "--schema", "kind=UD", "--seed", 1,
                         "--out", tmp_path / "c2.csv"],
            "attribute": ["--counts", counts, "--profile-from", data, "--t", 30, "--g", "plain",
                          "--out", tmp_path / "a2.csv"],
            "evaluate": ["--attr", attr, "--truth-from", data, "--t", 30,
                         "--out", tmp_path / "r.json"],
            "benchmark": ["--config", tmp_path / "run.json", "--out", tmp_path / "out"],
        }[command]
        assert run_cli(command, *argv) == 1
        assert config_error(capsys) == f"input file {data / 'events.csv'} does not exist"
        assert not {"c2.csv", "a2.csv", "r.json"} & {p.name for p in tmp_path.iterdir()}
        assert not (tmp_path / "out" / "report.json").exists()

    def test_cohort_without_spenders(self, tmp_path, capsys):
        """No spender: the first cell that fits buckets fails the run, after the dataset is written.

        The default schemas start with D30 PV, whose buckets are fitted on
        spender revenue; no EV or UD cell runs, and no report is written.
        """
        gen = {"n_users": 500, "spender_rate": 0}
        (tmp_path / "run.json").write_text(json.dumps({"gen": gen}))
        out = tmp_path / "out"
        assert run_cli("benchmark", "--config", tmp_path / "run.json", "--out", out) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {
            "error": "GridCellError",
            "message": "schema D30 PV: DegenerateFitError: "
                       "no spenders in population; buckets cannot be fitted",
        }
        assert sorted(p.name for p in out.iterdir()) == ["dataset"]
        assert sorted(p.name for p in (out / "dataset").iterdir()) == [
            "events.csv", "meta.json", "users.csv"
        ]

    @pytest.mark.parametrize("top", [{}, {"seed": 4}])
    def test_generator_seed_other_than_the_run_seed(self, tmp_path, capsys, top):
        """The run seed seeds the generator; a different ``gen.seed`` is refused, not replaced."""
        (tmp_path / "run.json").write_text(
            json.dumps({"gen": self.GEN | {"seed": 5}, "windows": []} | top)
        )
        out = tmp_path / "out"
        assert run_cli("benchmark", "--config", tmp_path / "run.json", "--out", out) == 1
        run_seed = top.get("seed", 0)
        message = f"generator config seed 5 differs from the run seed {run_seed}"
        assert config_error(capsys) == message
        assert not out.exists()
        # The same seed in both places is one seed.
        cfg = run_config_from_dict({"gen": self.GEN | {"seed": 4}, "seed": 4, "windows": []})
        assert cfg.seed == cfg.gen.seed == 4

    def test_benchmark_has_no_seed_option(self, tmp_path, capsys):
        """The run config's ``seed`` is the run's only seed."""
        (tmp_path / "run.json").write_text(json.dumps({"gen": self.GEN, "windows": []}))
        out = tmp_path / "out"
        assert run_cli("benchmark", "--config", tmp_path / "run.json", "--out", out,
                       "--seed", 1) == 1
        assert config_error(capsys).startswith("unrecognized arguments: --seed 1")
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

    @pytest.mark.parametrize("t, message", [
        pytest.param(True, "revenue window t must be a whole number of days, got True", id="bool"),
        pytest.param(1.5, "revenue window t must be a whole number of days, got 1.5", id="float"),
        pytest.param(0, "revenue window t must be at least one day", id="zero"),
    ])
    def test_run_config_built_in_python_checks_t(self, t, message):
        """The check a JSON config gets from its key types holds for one built in Python."""
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(gen=GenConfig(n_users=10), t=t)

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
        message = config_error(capsys, "CsvFormatError")
        assert message == f"{attr}: meta line lacks the column list"

    def test_attribution_checked_before_the_dataset_is_read(self, staged, tmp_path, capsys):
        attr = edit_csv(staged / "attr.csv", tmp_path / "a.csv",
                        meta=lambda m: {k: v for k, v in m.items() if k != "columns"})
        code = run_cli("evaluate", "--attr", attr, "--truth-from", staged / "missing",
                       "--t", 30, "--out", tmp_path / "r.json")
        assert code == 1
        assert "column list" in config_error(capsys, "CsvFormatError")

    def test_evaluate_refuses_another_window_than_the_attribution(self, staged, tmp_path,
                                                                  capsys):
        """An attribution made over t=30 days is never scored against 7-day truth.

        The missing dataset shows that the refusal comes before it is read.
        """
        code = run_cli("evaluate", "--attr", staged / "attr.csv", "--truth-from",
                       staged / "missing", "--t", 7, "--out", tmp_path / "r.json")
        assert code == 1
        assert config_error(capsys) == "--t 7 differs from the attribution file's t 30"
        assert not (tmp_path / "r.json").exists()

    def test_evaluate_refuses_an_attribution_without_its_window(self, staged, tmp_path, capsys):
        """Without the file's ``t``, no ``--t`` can be checked against it; the missing
        dataset shows that the refusal comes before it is read."""
        attr = edit_csv(staged / "attr.csv", tmp_path / "a.csv",
                        meta=lambda m: {k: v for k, v in m.items() if k != "t"})
        code = run_cli("evaluate", "--attr", attr, "--truth-from", staged / "missing",
                       "--t", 30, "--out", tmp_path / "r.json")
        assert code == 1
        assert config_error(capsys) == "attribution file meta lacks the window t"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("missing", ["users_csv", "events_csv"])
    def test_benchmark_names_a_missing_dataset_file(self, dataset_dir, tmp_path, capsys,
                                                    missing):
        """The loaders name a missing dataset file, as for the stages, and no ``out/`` is left."""
        paths = {"users_csv": str(dataset_dir / "users.csv"),
                 "events_csv": str(dataset_dir / "events.csv")}
        paths[missing] = str(tmp_path / "nowhere.csv")
        (tmp_path / "run.json").write_text(json.dumps(
            paths | {"schemas": ["kind=UD"], "p_values": [0], "g_modes": ["plain"]}
        ))
        out = tmp_path / "out"
        assert run_cli("benchmark", "--config", tmp_path / "run.json", "--out", out) == 1
        assert config_error(capsys) == f"input file {tmp_path / 'nowhere.csv'} does not exist"
        assert not out.exists()

    def test_simulate_has_no_organic_alpha_option(self, staged, tmp_path, capsys):
        """The users file's meta line names the organic sentinel; no option overrides it."""
        code = run_cli("simulate", "--users", staged / "data", "--schema", D7RR, "--seed", 9,
                       "--organic-alpha", 1, "--out", tmp_path / "c.csv")
        assert code == 1
        assert config_error(capsys).startswith("unrecognized arguments: --organic-alpha 1")
        assert not (tmp_path / "c.csv").exists()

    def test_attributed_alpha_not_declared(self, staged, tmp_path, capsys):
        attr = edit_csv(staged / "attr.csv", tmp_path / "a.csv",
                        rows=lambda body: body + ["G0,2024-W01,98765,1.00"])
        assert self.evaluate(staged, attr, tmp_path / "r.json") == 1
        line = len(attr.read_text().splitlines())
        assert config_error(capsys, "ReferentialError") == (
            f"{attr}:{line}: alpha 98765 not in declared columns"
        )

    def test_true_origin_not_declared(self, staged, tmp_path, capsys):
        _, meta = load_attribution(staged / "attr.csv")
        dropped = meta["columns"][0]
        attr = edit_csv(
            staged / "attr.csv", tmp_path / "a.csv",
            meta=lambda m: m | {"columns": m["columns"][1:]},
            rows=lambda body: [r for r in body if r.split(",")[2] != str(dropped)],
        )
        assert self.evaluate(staged, attr, tmp_path / "r.json") == 1
        assert config_error(capsys) == (
            f"declared columns {meta['columns'][1:]} differ from the dataset's origin columns "
            f"{meta['columns']}; was the attribution produced from this dataset?"
        )
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda cols: cols[1:] + cols[:1], id="permuted"),
        pytest.param(lambda cols: cols + [max(cols) + 1], id="extra_alpha"),
    ])
    def test_declared_columns_must_be_the_origins_in_order(self, staged, tmp_path, capsys,
                                                            edit):
        """``evaluate`` scores on the dataset's origin columns; it re-indexes nothing."""
        _, meta = load_attribution(staged / "attr.csv")
        declared = edit(meta["columns"])
        attr = edit_csv(staged / "attr.csv", tmp_path / "a.csv",
                        meta=lambda m: m | {"columns": declared})
        assert self.evaluate(staged, attr, tmp_path / "r.json") == 1
        assert config_error(capsys) == (
            f"declared columns {declared} differ from the dataset's origin columns "
            f"{meta['columns']}; was the attribution produced from this dataset?"
        )
        assert not (tmp_path / "r.json").exists()

    def test_missing_week_scores_against_zero(self, dataset, staged, tmp_path):
        rows, meta = load_attribution(staged / "attr.csv")
        weeks = sorted({week for _, week in rows})
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
        assert cut[gone] == pytest.approx(math.sqrt(sum(c * c for c in truth)) / 100)
        assert cut[gone] != full[gone]


class TestDeclaredOrganicSentinel:
    """The users file's ``organic_alpha`` names the organic column, also when no user is organic.

    Without it the cohort would fall back to one past the largest paid alpha
    present, 105 for this cohort.
    """

    GEN = {"n_users": 300, "seed": 1, "organic_share": 0, "organic_alpha": 999}
    GRID = {"schemas": [D7RR], "p_values": [0], "g_modes": ["plain"], "windows": [[0, 30]],
            "seed": 1}

    def test_every_stage_and_benchmark_name_it(self, tmp_path):
        (tmp_path / "gen.json").write_text(json.dumps(self.GEN))
        data = tmp_path / "data"
        assert run_cli("generate", "--config", tmp_path / "gen.json", "--out", data) == 0
        users, umeta = load_users(data / "users.csv", data / "events.csv")
        assert umeta["organic_alpha"] == 999
        assert not any(u.origin.organic for u in users)
        assert max(u.origin.alpha for u in users) + 1 != 999

        counts, attr, report = tmp_path / "c.csv", tmp_path / "a.csv", tmp_path / "r.json"
        assert run_cli("simulate", "--users", data, "--schema", D7RR, "--seed", 1,
                       "--out", counts) == 0
        matrices, cmeta = load_counts(counts)
        assert cmeta["organic_alpha"] == 999 and cmeta["columns"][-1] == 999
        assert {m.columns[-1] for m in matrices.values()} == {CampaignKey(999, organic=True)}
        assert run_cli("attribute", "--counts", counts, "--profile-from", data, "--t", 30,
                       "--g", "plain", "--out", attr) == 0
        assert run_cli("evaluate", "--attr", attr, "--truth-from", data, "--t", 30,
                       "--out", report) == 0
        stage = json.loads(report.read_text())

        (tmp_path / "gen_run.json").write_text(json.dumps({"gen": self.GEN} | self.GRID))
        (tmp_path / "csv_run.json").write_text(
            json.dumps({"users_csv": str(data / "users.csv")} | self.GRID)
        )
        for run in ("gen_run", "csv_run"):
            out = tmp_path / run
            assert run_cli("benchmark", "--config", tmp_path / f"{run}.json", "--out", out) == 0
            bench = json.loads((out / "report.json").read_text())
            assert bench["metadata"]["organic_alpha"] == 999
            cell = [c for c in bench["cells"] if c["level"] == "campaign"][0]
            assert cell["aggregate_error_usd"] == stage["aggregate_error_usd"]


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

    @pytest.mark.parametrize("data", ["data", "missing"])
    def test_plain_refused_from_p_2_before_the_dataset_is_read(self, staged, tmp_path, capsys,
                                                                data):
        out = tmp_path / "a.csv"
        code = run_cli("attribute", "--counts", staged / "cp.csv", "--profile-from",
                       staged / data, "--t", 30, "--g", "plain", "--out", out)
        assert code == 1
        assert config_error(capsys) == "plain attribution requires p < 2; pick a null-aware mode"
        assert not out.exists()

    @pytest.mark.parametrize("g_args", [["--g", "null_uniform"], ["--g", "null_empirical"],
                                        ["--g", "null_convex", "--lambda", "0.5"]])
    def test_null_aware_mode_on_unprivatized_counts_is_plain(self, staged, tmp_path, g_args):
        """An unprivatized file is read as p=0, where no mode redistributes anything."""
        plain, other = tmp_path / "plain.csv", tmp_path / "other.csv"
        assert self.attribute(staged, "c.csv", plain, "--g", "plain") == 0
        assert self.attribute(staged, "c.csv", other, *g_args) == 0
        (plain_cents, plain_meta), (cents, meta) = load_attribution(plain), load_attribution(other)
        assert cents == plain_cents
        assert meta["p"] == 0 and meta["g"] == g_args[1]
        differ = {k for k in plain_meta.keys() | meta.keys() if plain_meta.get(k) != meta.get(k)}
        assert differ <= {"g", "lambda", "config_hash"}
        # The rows, not only the map they load as, are plain's.
        assert other.read_text().splitlines()[1:] == plain.read_text().splitlines()[1:]

    @pytest.mark.parametrize(
        "g, counts, recorded",
        [("null_empirical", "cp.csv", 1.0), ("plain", "c.csv", 0.0),
         ("null_convex", "cp.csv", 0.0)],
    )
    def test_lambda_recorded_without_the_flag(self, staged, tmp_path, g, counts, recorded):
        out = tmp_path / "a.csv"
        assert self.attribute(staged, counts, out, "--g", g) == 0
        assert load_attribution(out)[1]["lambda"] == recorded


class TestCountsOfAnotherDataset:
    """``attribute`` refuses counts whose columns are not the profile dataset's origins.

    Dataset B has one network and A's organic alpha 105, so B simulated
    under the key of A's counts leaves a view that A's counts find.
    """

    A_COLUMNS = [0, 1, 2, 3, 4, 100, 101, 102, 103, 104, 105]
    B_COLUMNS = [0, 1, 2, 3, 4, 105]

    @pytest.fixture(scope="class")
    def other(self, tmp_path_factory):
        users, meta = generate_dataset(GenConfig(n_users=1500, n_weeks=3, event_horizon_days=40,
                                                 seed=9, n_networks=1, organic_alpha=105))
        data = tmp_path_factory.mktemp("other") / "data"
        save_dataset(data, users, meta)
        return data

    @pytest.mark.parametrize("view", [True, False], ids=["view_hit", "view_missed"])
    @pytest.mark.parametrize("counts, g_args", [
        pytest.param("c.csv", ["--g", "plain"], id="plain_p0"),
        pytest.param("cp.csv", ["--g", "null_convex", "--lambda", "0.5"], id="null_convex_p10"),
    ])
    def test_refused_before_attributing(self, staged, other, tmp_path, capsys, rebuilds, counts,
                                        g_args, view):
        data = tmp_path / "b"
        shutil.copytree(other, data)
        _, meta = load_counts(staged / counts)
        assert meta["columns"] == self.A_COLUMNS
        if view:
            assert run_cli("simulate", "--users", data, "--schema", meta["schema"],
                           "--seed", meta["seed"], "--out", tmp_path / "cb.csv") == 0
            assert load_counts(tmp_path / "cb.csv")[1]["columns"] == self.B_COLUMNS
            assert len(views(data)) == 1
        rebuilds.clear()
        out = tmp_path / "a.csv"
        assert run_cli("attribute", "--counts", staged / counts, "--profile-from", data,
                       "--t", 30, *g_args, "--out", out) == 1
        assert config_error(capsys) == (
            f"declared columns {self.A_COLUMNS} differ from the dataset's origin columns "
            f"{self.B_COLUMNS}; was the counts file produced from this dataset?"
        )
        assert rebuilds == ({} if view else {"load_cohort": 1, "simulate_traces": 1})
        assert not out.exists()


def stage_outputs(counts_dir, data, out) -> dict[str, bytes]:
    """Attribute the counts in ``counts_dir`` (plain at p=0, null_convex at p=10), evaluate both.

    Returns the bytes of the four output files, by name.
    """
    out.mkdir()
    for g, counts, extra in (("plain", "c.csv", ()), ("null_convex", "cp.csv", ("--lambda", 0.5))):
        attr = out / f"attr_{g}.csv"
        assert run_cli("attribute", "--counts", counts_dir / counts, "--profile-from", data,
                       "--t", 30, "--g", g, *extra, "--out", attr) == 0
        assert run_cli("evaluate", "--attr", attr, "--truth-from", data, "--t", 30,
                       "--out", out / f"eval_{g}.json") == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def table_facts(table) -> tuple:
    """What attribute and evaluate read of a postback table, cells by their (group, week)."""
    c = table.cohort
    cells = [table.cell_keys[cell] if cell >= 0 else None for cell in table.cells]
    return (c.ids, c.midnight_us, c.group_labels, c.group, c.origins, c.column, c.purchases,
            [c.window_revenue(lo, hi) for lo, hi in ((0, 1), (1, 2), (3, 30))],
            table.values, table.sent_us, cells)


def views(data) -> list[Path]:
    return sorted(data.glob("postbacks-*.csv"))


@pytest.fixture()
def rebuilds(monkeypatch):
    """Counts the stages' dataset reads (``load_cohort``) and trace replays (``simulate_traces``)."""
    import skattr.cli
    import skattr.pipeline

    calls: Counter[str] = Counter()
    for module, name in ((skattr.cli, "load_cohort"), (skattr.pipeline, "simulate_traces")):
        def spy(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


class TestPostbackView:
    """``simulate`` leaves the postback table beside the dataset, and the later stages read it."""

    @pytest.mark.parametrize("args, gen", [
        pytest.param((), {}, id="plain"),
        pytest.param(("--horizon", "2024-01-20T00:00:00"), {}, id="horizon"),
        # A sentinel other than the generator's default, named by the users file alone.
        pytest.param((), {"organic_alpha": 999}, id="organic_alpha"),
        pytest.param(("--schema", "kind=UD"), {}, id="UD"),
    ])
    def test_view_holds_the_simulated_table(self, dataset_dir, tmp_path, args, gen):
        if gen:
            users, meta = generate_dataset(
                GenConfig(n_users=1500, n_weeks=3, event_horizon_days=40, seed=9, **gen)
            )
            dataset_dir = tmp_path / "gen"
            save_dataset(dataset_dir, users, meta)
        args = ("--schema", D7RR, *args) if "--schema" not in args else args
        assert run_cli("simulate", "--users", dataset_dir, "--seed", 9, *args,
                       "--out", tmp_path / "c.csv") == 0
        _, meta = load_counts(tmp_path / "c.csv")
        if gen:
            assert meta["organic_alpha"] == gen["organic_alpha"]
        users, events = dataset_dir / "users.csv", dataset_dir / "events.csv"
        table = load_postback_view(users, events, meta)
        cohort = load_cohort(users, events)
        horizon = meta["horizon"] and datetime_to_us(datetime.fromisoformat(meta["horizon"]))
        expected = run_schema(cohort, schema_from_text(meta["schema"]), 9, horizon).postbacks
        if "--horizon" in args:
            assert 0 < expected.cells.count(-1) < len(expected.cells)

        assert table_facts(table) == table_facts(expected)
        assert table.cohort.digests is None
        with pytest.raises(ConfigError, match="cannot be replayed"):
            simulate_traces(table.cohort, schema_from_text("kind=EV"))

    def test_view_keeps_purchase_days_at_midnight(self, tmp_path):
        """Purchases 1 us before and at midnight stay on their own days."""
        data = tmp_path / "data"
        data.mkdir()
        (data / "users.csv").write_text("# skattr-meta " + json.dumps(META) + "\n" + USERS_TEXT)
        (data / "events.csv").write_text(EVENTS_HEADER + (
            "1,2024-01-01T09:00:00,session,,\n"
            "1,2024-01-01T23:59:59.999999,purchase,250,\n"
            "1,2024-01-02T00:00:00,purchase,40,\n"
            "2,2024-01-03T08:00:00,session,,\n"
            "2,2024-01-04T23:59:59.999999,purchase,7,\n"
        ))
        assert run_cli("simulate", "--users", data, "--schema", "kind=RI;layout=TCCCCC;horizon=1",
                       "--seed", 2, "--out", tmp_path / "c.csv") == 0
        _, meta = load_counts(tmp_path / "c.csv")
        table = load_postback_view(data / "users.csv", data / "events.csv", meta)
        cohort = load_cohort(data / "users.csv", data / "events.csv")
        expected = run_schema(cohort, schema_from_text(meta["schema"]), 2).postbacks
        assert table_facts(table) == table_facts(expected)
        assert table.cohort.purchases == [((0, 250), (1, 40)), ((1, 7),)]

    def test_fresh_view_is_read_instead_of_the_dataset(self, staged, tmp_path, rebuilds):
        shutil.copytree(staged, tmp_path / "s")
        data = tmp_path / "s" / "data"
        assert len(views(data)) == 1
        viewed = stage_outputs(tmp_path / "s", data, tmp_path / "viewed")
        assert rebuilds == {}
        views(data)[0].unlink()
        assert stage_outputs(tmp_path / "s", data, tmp_path / "rebuilt") == viewed
        assert rebuilds == {"load_cohort": 4, "simulate_traces": 4}

    def test_edited_events_are_simulated_again(self, staged, tmp_path, rebuilds):
        """A view of the dataset before an edit is not read; the stages see the edited data."""
        shutil.copytree(staged, tmp_path / "s")
        data = tmp_path / "s" / "data"
        before = stage_outputs(tmp_path / "s", data, tmp_path / "before")
        # Raise the last purchase made 8 to 29 days after registration: the D7
        # RR counts stay as they are, and the 30-day revenue changes.
        users = dict(line.split(",")[:2] for line in (data / "users.csv").read_text().splitlines())
        lines = (data / "events.csv").read_text().splitlines()
        i = max(
            i for i, line in enumerate(lines[2:], 2)
            if (row := line.split(","))[2] == PURCHASE
            and 8 <= (date.fromisoformat(row[1][:10]) - date.fromisoformat(users[row[0]])).days < 30
        )
        row = lines[i].split(",")
        row[3] = str(int(row[3]) + 50_000)
        lines[i] = ",".join(row)
        (data / "events.csv").write_text("\n".join(lines) + "\n")

        rebuilds.clear()
        after = stage_outputs(tmp_path / "s", data, tmp_path / "after")
        assert rebuilds["load_cohort"] == 4
        assert after != before

        # A fresh run on the edited data gives the same counts and the same bytes.
        fresh = tmp_path / "fresh"
        (fresh / "data").mkdir(parents=True)
        for name in ("users.csv", "events.csv"):
            shutil.copy(data / name, fresh / "data" / name)
        assert run_cli("simulate", "--users", fresh / "data", "--schema", D7RR, "--seed", 9,
                       "--out", fresh / "c.csv") == 0
        assert run_cli("privatize", "--counts", fresh / "c.csv", "--p", 10,
                       "--out", fresh / "cp.csv") == 0
        for name in ("c.csv", "cp.csv"):
            assert (fresh / name).read_bytes() == (tmp_path / "s" / name).read_bytes()
        assert stage_outputs(fresh, fresh / "data", tmp_path / "fresh_out") == after

    @pytest.mark.parametrize("args", [
        pytest.param(("--seed", 10), id="seed"),
        pytest.param(("--seed", 9, "--horizon", "2024-01-20T00:00:00"), id="horizon"),
    ])
    def test_view_of_another_key_is_not_read(self, staged, tmp_path, rebuilds, args):
        """A view whose meta key differs from the counts' is not read, even under their file name."""
        shutil.copytree(staged, tmp_path / "s")
        data = tmp_path / "s" / "data"
        (theirs,) = views(data)
        assert run_cli("simulate", "--users", data, "--schema", D7RR, *args,
                       "--out", tmp_path / "s" / "c.csv") == 0
        assert run_cli("privatize", "--counts", tmp_path / "s" / "c.csv", "--p", 10,
                       "--out", tmp_path / "s" / "cp.csv") == 0
        (ours,) = set(views(data)) - {theirs}
        rebuilds.clear()
        expected = stage_outputs(tmp_path / "s", data, tmp_path / "ours")
        assert rebuilds == {}
        shutil.copy(theirs, ours)
        assert stage_outputs(tmp_path / "s", data, tmp_path / "theirs") == expected
        assert rebuilds == {"load_cohort": 4, "simulate_traces": 4}

    def test_users_files_in_one_directory_keep_their_own_views(self, staged, tmp_path,
                                                               monkeypatch):
        """Two users files beside one events file, simulated alike, each get a view of their own.

        ``attribute`` on each then reads its own view and replays nothing.
        """
        import skattr.cli

        root = tmp_path / "s"
        shutil.copytree(staged, root)
        data = root / "data"
        lines = (data / "users.csv").read_text().splitlines()
        row = lines[2].split(",")
        row[3] = next(g for g in sorted({line.split(",")[3] for line in lines[2:]}) if g != row[3])
        lines[2] = ",".join(row)  # the first user moves to the other group
        (data / "other.csv").write_text("\n".join(lines) + "\n")
        assert run_cli("simulate", "--users", data / "other.csv", "--schema", D7RR, "--seed", 9,
                       "--out", root / "c_other.csv") == 0
        assert len(views(data)) == 2

        def attribute_both(out):
            out.mkdir()
            for counts, users in (("c.csv", data / "users.csv"), ("c_other.csv",
                                                                   data / "other.csv")):
                assert run_cli("attribute", "--counts", root / counts, "--profile-from", users,
                               "--t", 30, "--g", "plain", "--out", out / counts) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}

        def no_replay(*args, **kwargs):
            raise AssertionError("a stage simulated again instead of reading its view")

        with monkeypatch.context() as patch:
            patch.setattr(skattr.cli, "run_schema", no_replay)
            viewed = attribute_both(tmp_path / "viewed")
        assert viewed["c.csv"] != viewed["c_other.csv"]
        for view in views(data):
            view.unlink()
        assert attribute_both(tmp_path / "rebuilt") == viewed

    def test_read_only_dataset_directory(self, staged, tmp_path, monkeypatch, rebuilds):
        """``simulate`` succeeds without its view, and the later stages simulate again."""
        shutil.copytree(staged, tmp_path / "s")
        expected = stage_outputs(tmp_path / "s", tmp_path / "s" / "data", tmp_path / "viewed")
        data = tmp_path / "ro" / "data"
        shutil.copytree(staged / "data", data, ignore=shutil.ignore_patterns("postbacks-*"))

        # Root ignores the mode bits, so every write into the directory is refused too.
        def refusing_open(file, mode="r", *args, **kwargs):
            if "w" in mode and Path(file).parent == data:
                raise PermissionError(13, "Permission denied", str(file))
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(skattr.io_files, "open", refusing_open, raising=False)
        data.chmod(0o555)
        try:
            assert run_cli("simulate", "--users", data, "--schema", D7RR, "--seed", 9,
                           "--out", tmp_path / "ro" / "c.csv") == 0
            assert run_cli("privatize", "--counts", tmp_path / "ro" / "c.csv", "--p", 10,
                           "--out", tmp_path / "ro" / "cp.csv") == 0
            assert sorted(p.name for p in data.iterdir()) == ["events.csv", "meta.json",
                                                              "users.csv"]
            rebuilds.clear()
            assert stage_outputs(tmp_path / "ro", data, tmp_path / "rebuilt") == expected
        finally:
            data.chmod(0o755)
        assert rebuilds["load_cohort"] == 4

    @pytest.mark.parametrize("column, text, message", [
        pytest.param(4, "64", "group, alpha or value out of range", id="value"),
        pytest.param(3, "x", "invalid literal for int", id="alpha"),
        pytest.param(1, "2024-13-01", "month must be in 1..12", id="date"),
        pytest.param(7, "5:x", "invalid literal for int", id="purchase"),
        pytest.param(7, "9:100 5:100", "out of order or not positive", id="purchase_order"),
        pytest.param(8, "extra", "too many values to unpack", id="extra_column"),
    ])
    def test_malformed_view_names_its_line(self, staged, tmp_path, capsys, column, text, message):
        shutil.copytree(staged, tmp_path / "s")
        (view,) = views(tmp_path / "s" / "data")
        lines = view.read_text().splitlines()
        row = lines[5].split(",")
        row[column:column + 1] = [text]
        lines[5] = ",".join(row)
        view.write_text("\n".join(lines) + "\n")
        assert run_cli("attribute", "--counts", tmp_path / "s" / "c.csv", "--profile-from",
                       tmp_path / "s" / "data", "--t", 30, "--g", "plain",
                       "--out", tmp_path / "a.csv") == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "CsvFormatError"
        assert err["message"].startswith(f"{view}:6: bad postback view row: ")
        assert message in err["message"]
        assert not (tmp_path / "a.csv").exists()

    def test_view_missing_a_row(self, staged, tmp_path, capsys):
        shutil.copytree(staged, tmp_path / "s")
        (view,) = views(tmp_path / "s" / "data")
        lines = view.read_text().splitlines()
        view.write_text("\n".join(lines[:-1]) + "\n")
        assert run_cli("evaluate", "--attr", tmp_path / "s" / "attr.csv", "--truth-from",
                       tmp_path / "s" / "data", "--t", 30, "--out", tmp_path / "r.json") == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "CsvFormatError"
        assert err["message"] == f"{view}: 1499 rows, but the meta line says 1500"


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
        (load_counts, "group,week,conversion_value,alpha,count",
         {"privacy_applied": True}, "meta p must be an integer >= 0, got None"),
        (load_counts, "group,week,conversion_value,alpha,count",
         {"privacy_applied": True, "p": True}, "meta p must be an integer >= 0, got True"),
        (load_counts, "group,week,conversion_value,alpha,count",
         {"privacy_applied": True, "p": -1}, "meta p must be an integer >= 0, got -1"),
        (load_counts, "group,week,conversion_value,alpha,count",
         {"privacy_applied": True, "p": "10"}, "meta p must be an integer >= 0, got '10'"),
        (load_users, "id,registration_date,alpha,group",
         {"organic_alpha": "105"}, "meta organic_alpha must be an integer, got '105'"),
        (load_users, "id,registration_date,alpha,group",
         {"organic_alpha": True}, "meta organic_alpha must be an integer, got True"),
        (load_counts, "group,week,conversion_value,alpha,count",
         {"schema": 5}, "meta schema must be a string, got 5"),
        (load_counts, "group,week,conversion_value,alpha,count",
         {"seed": 1.5}, "meta seed must be an integer, got 1.5"),
        (load_counts, "group,week,conversion_value,alpha,count",
         {"seed": True}, "meta seed must be an integer, got True"),
        (load_counts, "group,week,conversion_value,alpha,count",
         {"seed": "1"}, "meta seed must be an integer, got '1'"),
        (load_counts, "group,week,conversion_value,alpha,count",
         {"horizon": 5}, "meta horizon must be a string or null, got 5"),
        (load_attribution, "group,week,alpha,attributed_usd",
         {"schema": None}, "meta schema must be a string, got None"),
        (load_attribution, "group,week,alpha,attributed_usd",
         {"seed": False}, "meta seed must be an integer, got False"),
        (load_attribution, "group,week,alpha,attributed_usd",
         {"horizon": ["2024-01-20"]}, r"meta horizon must be a string or null, got \['2024-01-20'\]"),
        (load_attribution, "group,week,alpha,attributed_usd",
         {"t": "30"}, "meta t must be an integer, got '30'"),
        (load_attribution, "group,week,alpha,attributed_usd",
         {"t": True}, "meta t must be an integer, got True"),
    ], ids=["counts-organic_str", "attr-organic_str", "counts-organic_null",
            "counts-privacy_str", "counts-privacy_int", "counts-p_missing", "counts-p_bool",
            "counts-p_negative", "counts-p_str", "users-organic_str", "users-organic_bool",
            "counts-schema_int", "counts-seed_float", "counts-seed_bool", "counts-seed_str",
            "counts-horizon_int", "attr-schema_null", "attr-seed_bool", "attr-horizon_list",
            "attr-t_str", "attr-t_bool"])
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

    @pytest.mark.parametrize("key, value, kind", [
        ("horizon", 5, "a string or null"),
        ("schema", 5, "a string"),
        ("seed", 1.5, "an integer"),
        ("seed", True, "an integer"),
        ("seed", "9", "an integer"),
    ])
    @pytest.mark.parametrize("stage", ["attribute", "evaluate"])
    def test_stages_reject_mistyped_rebuild_keys(self, staged, tmp_path, capsys, stage, key,
                                                 value, kind):
        """Checked on load, before a postback view is looked up or the dataset is read."""
        name = "cp.csv" if stage == "attribute" else "attr.csv"
        edited = edit_csv(staged / name, tmp_path / name, meta=lambda m: m | {key: value})
        if stage == "attribute":
            args = ("--counts", edited, "--profile-from", staged / "data", "--g", "null_uniform")
        else:
            args = ("--attr", edited, "--truth-from", staged / "data")
        assert run_cli(stage, *args, "--t", 30, "--out", tmp_path / "out") == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "CsvFormatError"
        assert err["message"] == f"{edited}:1: meta {key} must be {kind}, got {value!r}"
        assert not (tmp_path / "out").exists()

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
        if privatized:
            meta["p"] = 0
        path = self.write(tmp_path, meta, self.COUNTS, [row])
        with pytest.raises(CsvFormatError, match=rf"f\.csv: \(G, 2024-W01\): {message}"):
            load_counts(path)

    @pytest.mark.parametrize("row, message", [
        ("G,2024-W01,null,0,1", "null row in a pre-privacy file"),
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
        ["G,2024-W01,5,9,4", "G,2024-W01,5,9,4"],
    ])
    def test_duplicate_counts_row(self, tmp_path, rows):
        meta = {"columns": [0, 9], "organic_alpha": 9, "privacy_applied": True, "p": 0}
        path = self.write(tmp_path, meta, self.COUNTS, ["G,2024-W01,6,0,1", *rows])
        with pytest.raises(CsvFormatError, match=r"f\.csv:5: duplicate row .* first at line 4"):
            load_counts(path)

    @pytest.mark.parametrize("privatized", [False, True])
    def test_empty_count(self, tmp_path, privatized):
        """A suppressed value has no row, so an empty count is refused at its line."""
        meta = {"columns": [0, 9], "organic_alpha": 9, "privacy_applied": privatized, "p": 10}
        path = self.write(tmp_path, meta, self.COUNTS, ["G,2024-W01,6,0,10", "G,2024-W01,5,0,"])
        with pytest.raises(CsvFormatError, match=r"f\.csv:4: count must be an integer, got ''"):
            load_counts(path)

    def test_kept_row_below_p(self, tmp_path):
        meta = {"columns": [0, 9], "organic_alpha": 9, "privacy_applied": True, "p": 10}
        path = self.write(tmp_path, meta, self.COUNTS, ["G,2024-W01,6,0,4", "G,2024-W01,6,9,5"])
        with pytest.raises(CsvFormatError,
                           match=r"f\.csv: \(G, 2024-W01\): value 6 keeps 9 users, below p=10"):
            load_counts(path)

    @pytest.mark.parametrize("p", [0, 1])
    def test_null_row_below_p_2(self, tmp_path, p):
        """A threshold below 2 folds no user, so a file whose null row holds some is refused."""
        meta = {"columns": [0, 9], "organic_alpha": 9, "privacy_applied": True, "p": p}
        path = self.write(tmp_path, meta, self.COUNTS, ["G,2024-W01,6,0,4", "G,2024-W01,null,9,3"])
        with pytest.raises(CsvFormatError, match=rf"f\.csv: \(G, 2024-W01\): null row holds 3 "
                                                 rf"users, but p={p} folds none"):
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


HUGE = "9" * 5000  # over CPython's 4300-digit limit on int <-> str conversion


def json_with(data: dict, key: str, raw: str) -> str:
    """``data`` as JSON text with the value of ``key`` replaced by the raw text ``raw``."""
    return json.dumps(data | {key: "@raw@"}).replace('"@raw@"', raw)


class TestUnreadableInputs:
    """Malformed numbers, directories and empty windows exit 1 with a typed error."""

    @pytest.mark.parametrize("amount", [".50", "-.50", HUGE, HUGE + ".00"],
                             ids=["no_dollar_digit", "negative_no_dollar_digit", "huge",
                                  "huge_with_cents"])
    def test_attributed_amount(self, staged, tmp_path, capsys, amount):
        attr = edit_csv(staged / "attr.csv", tmp_path / "a.csv",
                        rows=lambda body: body + [f"ROW,1999-W01,0,{amount}"])
        out = tmp_path / "r.json"
        code = run_cli("evaluate", "--attr", attr, "--truth-from", staged / "data",
                       "--t", 30, "--out", out)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        line = len(attr.read_text().splitlines())
        assert err == {"error": "CsvFormatError",
                       "message": f"{attr}:{line}: bad USD amount {amount!r}"}
        assert not out.exists()

    def test_huge_integer_in_a_config_file(self, tmp_path, capsys):
        (tmp_path / "gen.json").write_text(json_with({"seed": 1}, "n_users", HUGE))
        out = tmp_path / "d"
        assert run_cli("generate", "--config", tmp_path / "gen.json", "--out", out) == 1
        assert config_error(capsys).startswith(f"config file {tmp_path / 'gen.json'} "
                                               "is not valid JSON: Exceeds the limit")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["seed", "organic_alpha", "p"])
    def test_huge_integer_in_a_meta_line(self, staged, tmp_path, capsys, key):
        head, *rest = (staged / "cp.csv").read_text().split("\n")
        meta = json.loads(head.removeprefix(META_PREFIX))
        counts = tmp_path / "cp.csv"
        counts.write_text("\n".join([META_PREFIX + json_with(meta, key, HUGE), *rest]))
        out = tmp_path / "o.csv"
        assert run_cli("privatize", "--counts", counts, "--p", 5, "--out", out) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "CsvFormatError"
        assert err["message"].startswith(f"{counts}:1: bad meta line: Exceeds the limit")
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["privatize", "evaluate", "simulate"])
    def test_directory_as_input_file(self, staged, tmp_path, capsys, stage):
        adir = tmp_path / "adir"
        adir.mkdir()
        args = {
            "privatize": ("--counts", adir, "--p", 5),
            "evaluate": ("--attr", adir, "--truth-from", staged / "data", "--t", 30),
            "simulate": ("--users", staged / "data", "--events", adir, "--schema", "kind=UD",
                         "--seed", 9),
        }[stage]
        out = tmp_path / "out.csv"
        assert run_cli(stage, *args, "--out", out) == 1
        assert config_error(capsys) == f"input file {adir} cannot be read: Is a directory"
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["simulate", "attribute", "evaluate"])
    def test_missing_events_file(self, staged, tmp_path, capsys, stage):
        data = tmp_path / "data"
        shutil.copytree(staged / "data", data, ignore=shutil.ignore_patterns("postbacks-*"))
        missing = data / "evnts.csv"
        args = {
            "simulate": ("--users", data, "--schema", D7RR, "--seed", 9),
            "attribute": ("--counts", staged / "cp.csv", "--profile-from", data, "--t", 30,
                          "--g", "null_uniform"),
            "evaluate": ("--attr", staged / "attr.csv", "--truth-from", data, "--t", 30),
        }[stage]
        out = tmp_path / "out"
        assert run_cli(stage, *args, "--events", missing, "--out", out) == 1
        assert config_error(capsys) == f"input file {missing} does not exist"
        assert not out.exists()
        assert views(data) == []

    @pytest.mark.parametrize("t", [0, -3])
    @pytest.mark.parametrize("stage", ["attribute", "evaluate"])
    def test_window_under_one_day_fails_before_any_read(self, tmp_path, capsys, stage, t):
        missing = tmp_path / "missing"
        args = {
            "attribute": ("--counts", missing / "c.csv", "--profile-from", missing,
                          "--g", "plain"),
            "evaluate": ("--attr", missing / "a.csv", "--truth-from", missing),
        }[stage]
        out = tmp_path / "out"
        assert run_cli(stage, *args, "--t", t, "--out", out) == 1
        assert config_error(capsys) == "revenue window t must be at least one day"
        assert not out.exists()


FUZZ_META = {"schema": D7RR, "seed": 1, "horizon": None}


@pytest.fixture(scope="module")
def fuzz_bases(tmp_path_factory):
    """Valid counts (before and after privacy) and attribution files, as bytes."""
    tmp = tmp_path_factory.mktemp("fuzz")
    columns = (CampaignKey(0), CampaignKey(100, organic=True))
    zero = ((0, 0),) * 64
    rows = list(zero)
    rows[3], rows[9], rows[40] = (2, 1), (1, 0), (0, 4)
    matrices = {
        ("G", "2024-W01"): CountMatrix("G", "2024-W01", columns, tuple(rows)),
        ("H", "2024-W02"): CountMatrix("H", "2024-W02", columns, zero),
    }
    save_counts(tmp / "counts.csv", matrices, FUZZ_META | {"kind": "counts"})
    cfg = PrivacyConfig(2)
    save_counts(tmp / "privatized.csv", {c: apply_threshold(m, cfg) for c, m in matrices.items()},
                FUZZ_META | {"kind": "counts", "p": 2})
    attributed = {("G", "2024-W01"): [1234, 5], ("H", "2024-W02"): [0, 0]}
    save_attribution(tmp / "attribution.csv", attributed,
                     FUZZ_META | {"kind": "attribution", "columns": [0, 100],
                                  "organic_alpha": 100, "p": 2, "t": 30})
    return tmp, {p.stem: p.read_bytes() for p in tmp.glob("*.csv")}


def mutated(text: bytes, mutation: tuple) -> bytes:
    """``text`` with one mutation; byte positions and data line numbers wrap around."""
    kind, *args = mutation
    if kind == "bytes":
        out = bytearray(text)
        for pos, byte in args[0]:
            out[pos % len(out)] = byte
        return bytes(out)
    if kind == "truncate":
        return text[:args[0] % len(text)]
    if kind == "bom":
        return "\ufeff".encode() + text
    if kind == "crlf":
        return text.replace(b"\n", b"\r\n")
    lines = text.decode().splitlines()
    if kind == "field":  # one field of one data row
        line, col, value = args
        i = 2 + line % (len(lines) - 2)
        fields = lines[i].split(",")
        fields[col % len(fields)] = value
        lines[i] = ",".join(fields)
    else:  # "meta": one meta value replaced by raw JSON text
        key, raw = args
        meta = json.loads(lines[0].removeprefix(META_PREFIX))
        lines[0] = META_PREFIX + json_with(meta, key, raw)
    return ("\n".join(lines) + "\n").encode()


FIELD_TEXTS = (HUGE, "-" + HUGE, HUGE + ".00", ".50", "-.50", "-0", "1.5", "", "null", "²",
               "\ufeff1")
META_TEXTS = (HUGE, "-" + HUGE, f"[{HUGE}]", f"[0, {HUGE}]", "1e999", "-1", "null", '"1"')
MUTATIONS = st.one_of(
    st.tuples(st.just("bytes"), st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)),
                                         min_size=1, max_size=4)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.sampled_from(("bom", "crlf"))),
    st.tuples(st.just("field"), st.integers(0, 10**3), st.integers(0, 4),
              st.sampled_from(FIELD_TEXTS)),
    st.tuples(st.just("meta"),
              st.sampled_from(("columns", "organic_alpha", "privacy_applied", "schema", "seed",
                               "horizon", "p", "t")),
              st.sampled_from(META_TEXTS)),
)


class TestFuzzedFiles:
    """A mutated counts or attribution file loads, or raises a ``SkattrError``."""

    @pytest.mark.parametrize("base, load", [
        ("counts", load_counts), ("privatized", load_counts), ("attribution", load_attribution),
    ])
    @given(mutation=MUTATIONS)
    @example(mutation=("field", 0, 3, ".50"))
    @example(mutation=("field", 1, 3, "-.50"))
    @example(mutation=("field", 2, 3, HUGE))
    @example(mutation=("field", 0, 4, HUGE))
    @example(mutation=("meta", "seed", HUGE))
    @example(mutation=("meta", "columns", f"[0, {HUGE}]"))
    @example(mutation=("bom",))
    @example(mutation=("crlf",))
    @example(mutation=("truncate", 100))
    @settings(max_examples=150, deadline=None)
    def test_loads_or_raises_a_typed_error(self, fuzz_bases, base, load, mutation):
        tmp, texts = fuzz_bases
        path = tmp / f"mutated-{base}.csv"
        path.write_bytes(mutated(texts[base], mutation))
        outcome(load, path)  # any other exception fails the test

    @pytest.mark.parametrize("base, load", [
        ("counts", load_counts), ("privatized", load_counts), ("attribution", load_attribution),
    ])
    def test_crlf_file_loads_the_same(self, fuzz_bases, base, load):
        tmp, texts = fuzz_bases
        path = tmp / f"mutated-{base}.csv"
        path.write_bytes(mutated(texts[base], ("crlf",)))
        assert load(path) == load(tmp / f"{base}.csv")
