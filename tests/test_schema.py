import re
import tempfile
from datetime import date, datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from skattr.config import DEFAULT_SCHEMAS
from skattr.errors import ConfigError, DegenerateFitError, LayoutError
from skattr.io_files import load_cohort, save_dataset
from skattr.model import (
    FLAG,
    PURCHASE,
    SESSION,
    Event,
    UserRecord,
    datetime_to_us,
    encode_alpha,
    iso_week,
)
from skattr.pipeline import simulate_postbacks
from skattr.schema import (
    BitLayout,
    SchemaSpec,
    bucket_of,
    fit_buckets,
    parse_layout,
    prepare_users,
    schema_from_text,
    schema_to_text,
    simulate_traces,
)
from skattr.synthgen import GenConfig, generate_dataset

from oracles import (
    by_user,
    candidate_value,
    oracle_postbacks,
    oracle_view,
    reference_substream,
    scan_revenue,
    simulate_updates,
    sort_slice_quantiles,
    timestamp,
)

MONDAY = date(2024, 1, 1)
START = datetime(2024, 1, 1, 10)

ROOT = Path(__file__).resolve().parents[1]


def user_from_events(events, uid=0):
    return UserRecord(uid, MONDAY, encode_alpha(0, 0), tuple(events), "G")


def spender(uid, cents, day=0):
    """Single day-0 session + one purchase of the given size."""
    events = [Event(datetime_to_us(START), "session")]
    if cents:
        at = datetime_to_us(START + timedelta(days=day, hours=1))
        events.append(Event(at, "purchase", amount=cents))
    return user_from_events(events, uid)


class TestLayout:
    @pytest.mark.parametrize(
        "text,n_t,n_v,n_c",
        [("TTTVVV", 3, 3, 0), ("CCCCCC", 0, 0, 6), ("VVVVVV", 0, 6, 0)],
    )
    def test_parse(self, text, n_t, n_v, n_c):
        lay = parse_layout(text)
        assert (lay.n_t, lay.n_v, lay.bits.count("C")) == (n_t, n_v, n_c)

    @pytest.mark.parametrize("bad", ["TTTVV", "TTTVVVV", "TTTXXX", "VTTVVV", "VVTVVV"])
    def test_rejects(self, bad):
        with pytest.raises(LayoutError):
            parse_layout(bad)

    def test_schema_text_round_trip(self):
        for text in (
            "kind=RR;layout=TTTVVV;horizon=7",
            "kind=PV;layout=VVVVVV;horizon=30",
            "kind=EV;layout=CCCCCC",
            "kind=UD;seed=11",
        ):
            spec = schema_from_text(text)
            assert schema_from_text(schema_to_text(spec)) == spec

    def test_kind_constraints(self):
        with pytest.raises(ConfigError):
            SchemaSpec(kind="RR", layout=BitLayout("CCCCCC"), horizon_days=7)
        with pytest.raises(ConfigError):
            SchemaSpec(kind="RR", layout=BitLayout("TTTVVV"), horizon_days=6)
        with pytest.raises(ConfigError):
            SchemaSpec(kind="PV", layout=BitLayout("VVVVVV"), horizon_days=0)
        with pytest.raises(ConfigError):
            schema_from_text("kind=ZZ")

    @pytest.mark.parametrize("text, key", [
        ("kind=UD;kind=EV", "kind"),
        ("kind=RR;layout=TTTVVV;horizon=3;horizon=7", "horizon"),
        ("kind=RR;layout=TTTVVV;Layout=TTTVVV;horizon=7", "layout"),
        ("kind=UD;seed=1; seed =1", "seed"),
    ], ids=["kind", "horizon", "layout_case", "seed_spaced"])
    def test_schema_text_refuses_a_repeated_key(self, text, key):
        """The last value of a repeated key is not silently kept."""
        with pytest.raises(LayoutError, match=f"repeats the key '{key}'$"):
            schema_from_text(text)

    @pytest.mark.parametrize("text, message", [
        ("kind=EV;horizon=5", "EV takes no horizon, got 5"),
        ("kind=UD;horizon=7", "UD takes no horizon, got 7"),
        ("kind=RR;layout=TTTVVV;horizon=7;seed=1", "only UD takes a seed, got 1 for RR"),
        ("kind=PV;layout=VVVVVV;horizon=30;seed=3", "only UD takes a seed, got 3 for PV"),
        ("kind=EV;seed=0", "only UD takes a seed, got 0 for EV"),
    ], ids=["EV_horizon", "UD_horizon", "RR_seed", "PV_seed", "EV_seed"])
    def test_schema_refuses_a_field_its_kind_never_reads(self, text, message):
        """Such a field would give one schema a second canonical text and config hash."""
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            schema_from_text(text)

    def test_stock_schema_texts_keep_their_canonical_text(self):
        """Every schema the defaults, the benchmark harness and the README name still parses."""
        texts = set(DEFAULT_SCHEMAS)
        for doc in ("README.md", "perfbench/workload.py", "perfbench/run.py"):
            source = (ROOT / doc).read_text(encoding="utf-8")
            texts |= set(re.findall(r"kind=[A-Z]{2}(?:;[a-z]+=[A-Z0-9]+)*", source))
        assert {"kind=UD", "kind=UD;seed=5", "kind=RR;layout=TTTVVV;horizon=7"} <= texts
        for text in texts:  # EV's layout is implied, and its canonical text names it
            expected = "kind=EV;layout=CCCCCC" if text == "kind=EV" else text
            assert schema_to_text(schema_from_text(text)) == expected

    def test_labels(self):
        assert schema_from_text("kind=RR;layout=TTTVVV;horizon=7").label == "D7 RR"
        assert schema_from_text("kind=PV;layout=VVVVVV;horizon=30").label == "D30 PV"
        assert schema_from_text("kind=EV").label == "EV"


class TestFitBuckets:
    def test_uniform_split_matches_sort_oracle(self):
        users = [spender(i, (i + 1) * 100) for i in range(7)]  # 1..7 USD
        schema = schema_from_text("kind=RR;layout=TTTVVV;horizon=7")
        fitted = fit_buckets([scan_revenue(u, 7) for u in users], schema)
        assert list(fitted.bucket_boundaries) == sort_slice_quantiles(
            [100, 200, 300, 400, 500, 600, 700], 7
        )
        # one spender per non-zero bucket
        buckets = [bucket_of((i + 1) * 100, fitted.bucket_boundaries) for i in range(7)]
        assert buckets == [1, 2, 3, 4, 5, 6, 7]

    def test_identical_amounts_degenerate(self):
        users = [spender(i, 500) for i in range(5)]
        schema = schema_from_text("kind=PV;layout=VVVVVV;horizon=30")
        fitted = fit_buckets([scan_revenue(u, 30) for u in users], schema)
        assert set(fitted.bucket_boundaries) == {500}
        assert bucket_of(500, fitted.bucket_boundaries) == 1  # ties take the lowest

    def test_single_spender(self):
        users = [spender(0, 999)] + [spender(i, 0) for i in range(1, 4)]
        schema = schema_from_text("kind=PV;layout=VVVVVV;horizon=30")
        fitted = fit_buckets([scan_revenue(u, 30) for u in users], schema)
        assert bucket_of(999, fitted.bucket_boundaries) == 1
        assert bucket_of(0, fitted.bucket_boundaries) == 0

    def test_no_spenders(self):
        users = [spender(i, 0) for i in range(3)]
        schema = schema_from_text("kind=PV;layout=VVVVVV;horizon=30")
        with pytest.raises(DegenerateFitError):
            fit_buckets([scan_revenue(u, 30) for u in users], schema)

    def test_boundary_tie_rule(self):
        # strictly greater than boundary k lands in bucket k+1
        boundaries = (100, 200, 300)
        assert bucket_of(100, boundaries) == 1
        assert bucket_of(101, boundaries) == 2
        assert bucket_of(300, boundaries) == 3
        assert bucket_of(301, boundaries) == 4


class TestCandidateValue:
    def test_ev_or_of_flags(self):
        events = [
            Event(datetime_to_us(START), "session"),
            Event(datetime_to_us(START + timedelta(hours=1)), "flag", flag_index=0),
            Event(datetime_to_us(START + timedelta(hours=2)), "flag", flag_index=5),
        ]
        user = user_from_events(events)
        schema = schema_from_text("kind=EV")
        assert candidate_value(user, schema, START + timedelta(hours=3)) == 0b100001 == 33

    def test_ev_ignores_flags_after_day0(self):
        events = [
            Event(datetime_to_us(START), "session"),
            Event(datetime_to_us(START + timedelta(days=1)), "flag", flag_index=2),
        ]
        user = user_from_events(events)
        schema = schema_from_text("kind=EV")
        assert candidate_value(user, schema, START + timedelta(days=2)) == 0

    def test_rr_layout_arithmetic(self):
        # day 3, revenue bucket 5 with TTTVVV: 3 * 8 + 5 = 29
        schema = schema_from_text("kind=RR;layout=TTTVVV;horizon=7")
        schema = schema._replace(bucket_boundaries=(100, 200, 300, 400, 500, 600))
        events = [
            Event(datetime_to_us(START), "session"),
            Event(datetime_to_us(START + timedelta(days=1)), "purchase", amount=450),
        ]
        user = user_from_events(events)
        at = START + timedelta(days=3)
        assert candidate_value(user, schema, at) == 3 * 8 + 5 == 29

    def test_empty_state_is_zero(self):
        user = user_from_events([Event(datetime_to_us(START), "session")])
        for text in ("kind=EV", "kind=RR;layout=TTTVVV;horizon=7", "kind=RI;layout=TTTCCC;horizon=7",
                     "kind=PV;layout=VVVVVV;horizon=30"):
            schema = schema_from_text(text)
            if schema.needs_boundaries():
                schema = fit_buckets([scan_revenue(spender(99, 100), 30)], schema)
            assert candidate_value(user, schema, START) == 0

    def test_ud_reproducible_and_in_range(self):
        schema = schema_from_text("kind=UD;seed=42")
        users = [spender(i, 0) for i in range(200)]
        vals = [candidate_value(u, schema, START) for u in users]
        assert vals == [candidate_value(u, schema, START) for u in users]
        assert all(0 <= v <= 63 for v in vals)
        assert len(set(vals)) > 32  # spread over the range
        other = schema_from_text("kind=UD;seed=43")
        assert vals != [candidate_value(u, other, START) for u in users]

    def test_ri_counts_purchases(self):
        schema = schema_from_text("kind=RI;layout=TTTCCC;horizon=7")
        events = [Event(datetime_to_us(START), "session")] + [
            Event(datetime_to_us(START + timedelta(hours=h)), "purchase", amount=100)
            for h in range(1, 12)
        ]
        user = user_from_events(events)
        # 11 purchases clamp at 2**3 - 1 = 7; day 0
        assert candidate_value(user, schema, START + timedelta(hours=13)) == 7


class TestSimulateUpdates:
    def test_day0_flag_accumulation_no_repeat_commit(self):
        events = [
            Event(datetime_to_us(START), "session"),
            Event(datetime_to_us(START + timedelta(hours=1)), "flag", flag_index=0),
            Event(datetime_to_us(START + timedelta(hours=2)), "flag", flag_index=1),
            Event(datetime_to_us(START + timedelta(hours=3)), "session"),  # candidate still 3
        ]
        trace = simulate_updates(user_from_events(events), schema_from_text("kind=EV"))
        assert [v for _, v in trace.committed] == [0, 1, 3]

    def test_d7_rr_daily_sessions_advance_t_bits(self):
        schema = schema_from_text("kind=RR;layout=TTTVVV;horizon=7")
        schema = fit_buckets([scan_revenue(spender(99, 100), 7)], schema)
        events = [Event(datetime_to_us(START + timedelta(days=d)), "session") for d in range(9)]
        trace = simulate_updates(user_from_events(events), schema)
        assert [v for _, v in trace.committed] == [0, 8, 16, 24, 32, 40, 48, 56]
        # replay oracle: every committed value equals the candidate there
        user = user_from_events(events)
        for ts, v in trace.committed:
            assert candidate_value(user, schema, ts) == v

    def test_timer_expiry_freezes_trace(self):
        schema = schema_from_text("kind=RR;layout=TTTVVV;horizon=7")
        schema = fit_buckets([scan_revenue(spender(99, 100), 7)], schema)
        events = [
            Event(datetime_to_us(START), "session"),
            Event(datetime_to_us(START + timedelta(days=2)), "session"),
            Event(datetime_to_us(START + timedelta(days=2, hours=1)), "purchase", amount=900),
        ]
        trace = simulate_updates(user_from_events(events), schema)
        assert trace.committed == ((START, 0),)

    def test_exact_24h_gap_still_commits(self):
        schema = schema_from_text("kind=RR;layout=TTTVVV;horizon=7")
        schema = fit_buckets([scan_revenue(spender(99, 100), 7)], schema)
        events = [
            Event(datetime_to_us(START), "session"),
            Event(datetime_to_us(START + timedelta(hours=24)), "session"),
        ]
        trace = simulate_updates(user_from_events(events), schema)
        assert [v for _, v in trace.committed] == [0, 8]

    def test_simultaneous_events_commit_once(self):
        events = [
            Event(datetime_to_us(START), "session"),
            Event(datetime_to_us(START), "flag", flag_index=0),
            Event(datetime_to_us(START + timedelta(hours=1)), "flag", flag_index=1),
        ]
        trace = simulate_updates(user_from_events(events), schema_from_text("kind=EV"))
        assert [v for _, v in trace.committed] == [1, 3]
        assert trace.committed[0][0] == START

    def test_requires_first_open_session(self):
        events = [Event(datetime_to_us(START), "purchase", amount=100)]
        with pytest.raises(ConfigError):
            simulate_updates(user_from_events(events), schema_from_text("kind=EV"))

    def test_pv_single_commit_at_first_open(self):
        users = [spender(i, 100 * (i + 1)) for i in range(7)]
        schema = fit_buckets(
            [scan_revenue(u, 30) for u in users],
            schema_from_text("kind=PV;layout=VVVVVV;horizon=30"),
        )
        trace = simulate_updates(users[3], schema)
        assert len(trace.committed) == 1
        assert trace.first_open == START


@st.composite
def random_user(draw):
    n_days = draw(st.integers(0, 10))
    events = [Event(datetime_to_us(START), "session")]
    for d in range(1, n_days + 1):
        if draw(st.booleans()):
            hour = draw(st.integers(0, 23))
            ts = datetime(2024, 1, 1 + d, hour)
            events.append(Event(datetime_to_us(ts), "session"))
            if draw(st.booleans()):
                events.append(Event(datetime_to_us(ts + timedelta(minutes=30)), "purchase",
                                    amount=draw(st.integers(1, 5000))))
    for idx in draw(st.sets(st.integers(0, 5), max_size=6)):
        at = datetime_to_us(START + timedelta(hours=1 + idx))
        events.append(Event(at, "flag", flag_index=idx))
    events.sort(key=timestamp)
    return user_from_events(events, uid=draw(st.integers(0, 10_000)))


@pytest.mark.parametrize(
    "text",
    ["kind=EV", "kind=RR;layout=TTTVVV;horizon=7", "kind=RI;layout=TCCCCC;horizon=1", "kind=UD;seed=3"],
)
@given(user=random_user())
@settings(max_examples=60, deadline=None)
def test_trace_invariants(text, user):
    schema = schema_from_text(text)
    if schema.needs_boundaries():
        schema = fit_buckets(
            [scan_revenue(u, 7) for u in [spender(99, 100), spender(98, 900)]], schema
        )
    trace = simulate_updates(user, schema)
    values = [v for _, v in trace.committed]
    times = [ts for ts, _ in trace.committed]
    assert all(0 <= v <= 63 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all((b - a).total_seconds() <= 86_400 for a, b in zip(times, times[1:]))
    assert trace.committed[0][0] == trace.first_open == timestamp(user.events[0])
    # committed values replay to the candidate at that instant
    for ts, v in trace.committed:
        assert candidate_value(user, schema, ts) == v


@given(user=random_user(), hours=st.lists(st.integers(0, 26 * 24), min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_rolling_candidates_non_decreasing(user, hours):
    schema = fit_buckets(
        [scan_revenue(u, 7) for u in [spender(99, 100), spender(98, 900)]],
        schema_from_text("kind=RR;layout=TTTVVV;horizon=7"),
    )
    instants = sorted(START + timedelta(hours=h) for h in hours)
    vals = [candidate_value(user, schema, at) for at in instants]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_pv_buckets_respect_quantile_ranges():
    # every user in a PV bucket has horizon revenue inside the bucket's range
    import random

    rng = random.Random(0)
    users = [spender(i, rng.randrange(0, 5000)) for i in range(300)]
    schema = fit_buckets([scan_revenue(u, 30) for u in users],
                         schema_from_text("kind=PV;layout=VVVVVV;horizon=30"))
    b = schema.bucket_boundaries
    for u in users:
        r = scan_revenue(u, 30)
        v = bucket_of(r, b)
        if v == 0:
            assert r == 0
            continue
        if v > 1:
            assert r > b[v - 2]
        if v <= len(b):
            assert r <= b[v - 1]


DAY_US = 86_400 * 10**6
REGISTRATION = datetime(2024, 1, 1)
KERNEL_SCHEMAS = [
    "kind=EV",
    "kind=RR;layout=TTTVVV;horizon=7",
    "kind=RR;layout=TVVVVV;horizon=1",
    "kind=RI;layout=TTTCCC;horizon=7",
    "kind=RI;layout=TCCCCC;horizon=1",
    "kind=UD;seed=3",
    "kind=PV;layout=VVVVVV;horizon=1",
    "kind=PV;layout=VVVVVV;horizon=30",
]


@st.composite
def edge_user(draw, uid=0):
    """Events at sub-second instants, stepping by 0, 24h, 24h +- 1us or to a midnight edge."""
    t = draw(st.one_of(st.integers(0, 2 * DAY_US), st.sampled_from([DAY_US - 1, DAY_US])))
    events = [Event(datetime_to_us(REGISTRATION + timedelta(microseconds=t)), "session")]
    for _ in range(draw(st.integers(0, 14))):
        step = draw(st.one_of(
            st.sampled_from([0, DAY_US - 1, DAY_US, DAY_US + 1, "midnight", "midnight-1us"]),
            st.integers(1, 30 * 3600 * 10**6),
        ))
        if step == "midnight":
            t = (t // DAY_US + 1) * DAY_US
        elif step == "midnight-1us":
            t = (t // DAY_US + 1) * DAY_US - 1
        else:
            t += step
        ts = REGISTRATION + timedelta(microseconds=t)
        kind = draw(st.sampled_from([SESSION, PURCHASE, FLAG]))
        if kind == PURCHASE:
            events.append(Event(datetime_to_us(ts), kind, amount=draw(st.integers(1, 3000))))
        elif kind == FLAG:
            events.append(Event(datetime_to_us(ts), kind, flag_index=draw(st.integers(0, 5))))
        else:
            events.append(Event(datetime_to_us(ts), kind))
    return UserRecord(uid, REGISTRATION.date(), encode_alpha(0, uid % 3), tuple(events), "G")


def edge_schema(text, boundaries):
    schema = schema_from_text(text)
    if schema.needs_boundaries():
        schema = schema._replace(bucket_boundaries=tuple(sorted(boundaries)))
    return schema


def oracle_final(user, schema):
    trace = simulate_updates(user, schema)
    return trace.final_value, (trace.last_commit - REGISTRATION) // timedelta(microseconds=1)


class TestReplayKernel:
    """``simulate_traces`` gives the oracle replay's final values and last commits."""

    def test_exact_24h_gap_with_subsecond_timestamps(self):
        # Float seconds put this gap a hair over 24h, which froze the trace at [0].
        schema = schema_from_text("kind=RI;layout=TTTCCC;horizon=7")
        first = datetime.fromisoformat("2024-01-01T18:30:20.417634")
        user = user_from_events([Event(datetime_to_us(first), "session"),
                                 Event(datetime_to_us(first + timedelta(hours=24)), "session")])
        assert [v for _, v in simulate_updates(user, schema).committed] == [0, 8]
        second_us = (first + timedelta(hours=24) - REGISTRATION) // timedelta(microseconds=1)
        assert simulate_traces(prepare_users([user]), schema) == ([8], [second_us])

    @pytest.mark.parametrize("text", KERNEL_SCHEMAS)
    @given(user=edge_user(), boundaries=st.lists(st.integers(1, 5000), min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_oracle(self, text, user, boundaries):
        schema = edge_schema(text, boundaries)
        value, last_us = oracle_final(user, schema)
        assert simulate_traces(prepare_users([user]), schema) == ([value], [last_us])

    @pytest.mark.parametrize("text", KERNEL_SCHEMAS)
    @given(data=st.data(), boundaries=st.lists(st.integers(1, 5000), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_postbacks_match_oracle_at_the_horizon(self, text, data, boundaries):
        users = [data.draw(edge_user(uid)) for uid in range(data.draw(st.integers(1, 4)))]
        schema = edge_schema(text, boundaries)
        prepared = prepare_users(users)
        everyone = oracle_view(oracle_postbacks(users, schema, seed=5))
        assert by_user(simulate_postbacks(prepared, schema, 5)) == everyone
        edge = data.draw(st.sampled_from(sorted(everyone)))
        at = everyone[edge][1]
        for horizon in (at, at - timedelta(microseconds=1)):
            kept = by_user(simulate_postbacks(prepared, schema, 5, datetime_to_us(horizon)))
            assert kept == oracle_view(oracle_postbacks(users, schema, 5, horizon))
            assert (edge in kept) == (horizon == at)


ROLLING_SCHEMAS = [
    "kind=RR;layout=TTTVVV;horizon=7",
    "kind=RI;layout=TTTCCC;horizon=7",
    "kind=RR;layout=TVVVVV;horizon=1",
    "kind=RI;layout=TCCCCC;horizon=1",
    "kind=RR;layout=TTVVVV;horizon=3",
    "kind=RI;layout=TTCCCC;horizon=3",
]


def capped(text, horizon):
    """The schema of ``text`` with its horizon set to ``horizon``, which ``SchemaSpec`` refuses.

    ``SchemaSpec`` ties a rolling horizon to ``2**n_t - 1``, so two schemas
    it accepts share a day cap only when they share ``n_t``; the replay
    caps days at ``min(horizon, 2**n_t - 1)`` all the same. This builds the
    record without the check, to pair one cap with two ``n_t``.
    """
    kind, layout, _, boundaries, seed = schema_from_text(text)
    return tuple.__new__(SchemaSpec, (kind, layout, horizon, boundaries, seed))


# Each rolling layout, and day cap 3 under n_t 3 as well as n_t 2, where
# the kept values shift by one low bit.
SHARED_REPLAY_SCHEMAS = [schema_from_text(text) for text in ROLLING_SCHEMAS] + [
    capped("kind=RI;layout=TTTCCC;horizon=7", 3),
]


def fixed_users(first_uid):
    """Users the shared replay must get right whatever Hypothesis draws.

    A payer whose only purchase comes after its chain broke (its final low
    bits are 0, like a non-payer's), a payer with purchases at one
    instant, and a non-payer and a payer whose events are exactly 24h apart.
    """
    def user(uid, *steps):
        t, events = 0, []
        for hours, kind, amount in steps:
            t += hours * 3600 * 10**6
            ts = datetime_to_us(REGISTRATION + timedelta(hours=9, microseconds=t))
            events.append(Event(ts, kind, amount=amount))
        return UserRecord(uid, REGISTRATION.date(), encode_alpha(0, uid % 3), tuple(events), "G")

    return [
        user(first_uid, (0, SESSION, None), (23, SESSION, None), (25, SESSION, None),
             (1, PURCHASE, 700)),
        user(first_uid + 1, (0, SESSION, None), (20, PURCHASE, 400), (0, PURCHASE, 900),
             (0, PURCHASE, 5)),
        user(first_uid + 2, *[(24 * (i > 0), SESSION, None) for i in range(9)]),
        user(first_uid + 3, (0, SESSION, None), (24, PURCHASE, 100), (24, PURCHASE, 3000),
             (24, SESSION, None)),
    ]


def fitted(schema, boundaries=(150, 600, 2500)):
    return schema._replace(bucket_boundaries=boundaries) if schema.kind == "RR" else schema


class TestSharedReplay:
    """A rolling replay on a cohort other schemas replayed equals one on a fresh cohort."""

    @given(data=st.data(), boundaries=st.lists(st.integers(1, 5000), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_any_schema_order_matches_a_fresh_cohort(self, data, boundaries):
        drawn = [data.draw(edge_user(uid)) for uid in range(data.draw(st.integers(0, 6)))]
        users = drawn + fixed_users(len(drawn))
        order = data.draw(st.permutations(SHARED_REPLAY_SCHEMAS + [schema_from_text("kind=EV")]))
        shared = prepare_users(users)
        for schema in order:
            schema = fitted(schema, tuple(sorted(boundaries)))
            assert simulate_traces(shared, schema) == simulate_traces(prepare_users(users), schema)
        assert set(shared.replays) == {1, 3, 7}

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_loaded_cohort_matches_a_fresh_cohort(self, reverse):
        users, meta = generate_dataset(GenConfig(n_users=400, n_weeks=2, event_horizon_days=35,
                                                 seed=4))
        with tempfile.TemporaryDirectory() as tmp:
            paths = save_dataset(tmp, users, meta)
            shared = load_cohort(paths["users"], paths["events"])
            fresh = lambda: load_cohort(paths["users"], paths["events"])  # noqa: E731
            assert 0 < len(shared.payers) < len(users)
            for schema in SHARED_REPLAY_SCHEMAS[::-1 if reverse else 1]:
                schema = fitted(schema)
                assert simulate_traces(shared, schema) == simulate_traces(fresh(), schema)

    def test_later_replays_walk_only_the_payers(self):
        users = fixed_users(0)
        cohort = prepare_users(users)
        assert cohort.payers == [0, 1, 3]
        rr = fitted(schema_from_text(ROLLING_SCHEMAS[0]))
        values, lasts = simulate_traces(cohort, rr)
        assert cohort.replays[7] == (values, lasts, 3)
        assert cohort.replays[7][0] is values
        # Replaying with the non-payer's digest gone shows that no later
        # replay at cap 7 reads it.
        cohort.digests = [d if i in cohort.payers else () for i, d in enumerate(cohort.digests)]
        ri = schema_from_text(ROLLING_SCHEMAS[1])
        hour = 3600 * 10**6
        expected = ([8, 11, 56, 26], [32 * hour, 29 * hour, 177 * hour, 81 * hour])
        assert simulate_traces(cohort, ri) == simulate_traces(prepare_users(users), ri) == expected


# Delivery instants on either side of a week change: Sunday 2024-01-07 ->
# Monday 2024-01-08, and the ISO-year change 2024-12-29 (2024-W52) ->
# 2024-12-30 (2025-W01).
WEEK_EDGES = [
    datetime(2021, 1, 3, 23, 59, 59, 999_999),
    datetime(2021, 1, 4),
    datetime(2024, 1, 7, 23, 59, 59, 999_999),
    datetime(2024, 1, 8),
    datetime(2024, 12, 29, 23, 59, 59, 999_999),
    datetime(2024, 12, 30),
]


def delivered_at(uid, when, seed, group):
    """A user whose only event is first open, timed so the postback arrives at ``when``."""
    draw = reference_substream(seed, "postback", uid).random()
    first_open = when - timedelta(seconds=86_400 + draw * 86_400)
    return UserRecord(uid, first_open.date(), encode_alpha(0, uid % 3),
                      (Event(datetime_to_us(first_open), SESSION),), group)


class TestPostbackTable:
    """``simulate_postbacks``'s table gives the oracle's value, instant and (group, ISO week)."""

    def test_week_edges_by_the_calendar(self):
        assert [iso_week(d.date()) for d in WEEK_EDGES] == [
            "2020-W53", "2021-W01", "2024-W01", "2024-W02", "2024-W52", "2025-W01"]

    @pytest.mark.parametrize("text", KERNEL_SCHEMAS)
    @given(data=st.data(), boundaries=st.lists(st.integers(1, 5000), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_table_matches_oracle(self, text, data, boundaries):
        n_edge = data.draw(st.integers(1, 4))
        users = [
            delivered_at(uid, data.draw(st.sampled_from(WEEK_EDGES)), 5,
                         data.draw(st.sampled_from(["G", "H"])))
            for uid in range(n_edge)
        ]
        users += [data.draw(edge_user(uid)) for uid in range(n_edge, n_edge + data.draw(
            st.integers(0, 3)))]
        schema = edge_schema(text, boundaries)
        everyone = oracle_view(oracle_postbacks(users, schema, seed=5))
        assert {everyone[uid][1] for uid in range(n_edge)} <= set(WEEK_EDGES)
        prepared = prepare_users(users)
        for shared in (prepared, prepare_users(users)):
            assert by_user(simulate_postbacks(shared, schema, 5)) == everyone
        edge = data.draw(st.sampled_from(sorted(everyone)))
        at = everyone[edge][1]
        for horizon in (at, at - timedelta(microseconds=1)):
            expected = oracle_view(oracle_postbacks(users, schema, 5, horizon))
            assert (edge in expected) == (horizon == at)
            for shared in (prepared, prepare_users(users)):
                table = simulate_postbacks(shared, schema, 5, datetime_to_us(horizon))
                assert by_user(table) == expected
                assert len(table) == len(expected)
