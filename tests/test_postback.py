import random
from datetime import date, datetime, timedelta
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import skattr.postback
from skattr.errors import ConfigError, InconsistentTotalsError
from skattr.model import Event, UserRecord, datetime_to_us, encode_alpha, iso_week, organic_key
from skattr.pipeline import simulate_postbacks
from skattr.postback import (
    DELAY_MAX_US,
    DELAY_MIN_US,
    CountMatrix,
    PostbackTable,
    build_counts,
    empty_matrix,
    estimate_organic,
    postback_delay_us,
)
from skattr.schema import prepare_users, schema_from_text

from oracles import (
    Postback,
    UpdateTrace,
    by_user,
    column_sums,
    oracle_postbacks,
    oracle_view,
    table_of,
)

MONDAY = date(2024, 1, 1)
T0 = datetime(2024, 1, 1, 10)


def trace(uid=0, commits=((T0, 5),)):
    return UpdateTrace(user_id=uid, committed=tuple(commits), first_open=commits[0][0])


def finalize(trace, draw, group):
    """The postback the library's delay puts after the trace's last commit."""
    sent = trace.last_commit + timedelta(microseconds=postback_delay_us(draw))
    return Postback(trace.user_id, trace.final_value, sent, group)


def user(uid, alpha_key, group="G"):
    return UserRecord(uid, MONDAY, alpha_key, (Event(datetime_to_us(T0), "session"),), group)


def pb(uid, value, when, group="G"):
    return Postback(user_id=uid, final_value=value, postback_time=when, group=group)


class TestFinalizePostback:
    def test_single_commit_window(self):
        p = finalize(trace(), random.Random(1).random(), "G")
        assert p.final_value == 5
        delta = (p.postback_time - T0).total_seconds()
        assert 86_400 <= delta < 2 * 86_400

    def test_delay_arithmetic_from_last_commit(self):
        tr = trace(commits=((T0, 1), (T0 + timedelta(hours=20), 9)))
        p = finalize(tr, random.Random(2).random(), "G")
        assert p.final_value == 9
        delta = (p.postback_time - T0).total_seconds()
        assert 44 * 3600 <= delta < 68 * 3600

    def test_deterministic_for_fixed_seed(self):
        a = finalize(trace(), random.Random(7).random(), "G")
        b = finalize(trace(), random.Random(7).random(), "G")
        assert a == b

    def test_window_property_over_many_seeds(self):
        for s in range(100):
            p = finalize(trace(), random.Random(s).random(), "G")
            delta = (p.postback_time - T0).total_seconds()
            assert 86_400 <= delta < 2 * 86_400


LAST_DRAW = 1 - 2**-53  # the largest float random.Random.random() returns


class TestDelayBounds:
    @given(st.floats(0, 1, exclude_max=True))
    @example(0.0)
    @example(LAST_DRAW)
    def test_every_draw_within_the_bounds(self, draw):
        assert DELAY_MIN_US <= postback_delay_us(draw) <= DELAY_MAX_US

    def test_both_bounds_are_reached(self):
        assert postback_delay_us(0.0) == DELAY_MIN_US == 86_400_000_000
        assert postback_delay_us(LAST_DRAW) == DELAY_MAX_US == 172_800_000_000


class _Draw:
    """A substream stand-in whose one draw is fixed."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


BOUND_EDGES = {
    "min": DELAY_MIN_US, "min-1": DELAY_MIN_US - 1, "max": DELAY_MAX_US, "max-1": DELAY_MAX_US - 1,
}


@st.composite
def skip_cases(draw):
    """Users with one session, their pinned draws and a horizon, at the rule's edges.

    An edge user's last commit puts ``base + DELAY_MIN_US`` or ``base +
    DELAY_MAX_US`` exactly on a Monday 00:00, or 1 microsecond before it;
    the horizon is None or 1 microsecond before or at either bound of one
    user's delivery window.
    """
    monday = datetime(2024, 1, 1) + timedelta(weeks=draw(st.integers(0, 3)))
    users, draws, bases = [], {}, []
    for uid in range(draw(st.integers(1, 6))):
        edge = draw(st.sampled_from([*BOUND_EDGES, "any"]))
        if edge == "any":
            offset = draw(st.integers(0, 9 * 86_400_000_000))
            base = monday - timedelta(days=3) + timedelta(microseconds=offset)
        else:
            base = monday - timedelta(microseconds=BOUND_EDGES[edge])
        bases.append(base)
        users.append(UserRecord(
            uid, base.date(), encode_alpha(0, draw(st.integers(0, 2))),
            (Event(datetime_to_us(base), "session"),), draw(st.sampled_from("AB")),
        ))
        draws[uid] = draw(st.sampled_from([0.0, LAST_DRAW]) | st.floats(0, 1, exclude_max=True))
    bound = draw(st.sampled_from([None, *BOUND_EDGES]))
    horizon = None
    if bound is not None:
        horizon = draw(st.sampled_from(bases)) + timedelta(microseconds=BOUND_EDGES[bound])
    return users, draws, horizon


class TestDelaySkipRule:
    """A cell read off the delay's bounds is the cell of the delay that would be drawn."""

    @given(case=skip_cases())
    @settings(max_examples=300, deadline=None)
    def test_table_matches_the_oracle(self, case):
        users, draws, horizon = case

        def pinned(seed, name, uid):
            return _Draw(draws[uid])

        schema = schema_from_text("kind=UD;seed=1")
        cohort = prepare_users(users)
        with mock.patch.object(skattr.postback, "substream", pinned), \
                mock.patch.object(oracles, "reference_substream", pinned):
            table = simulate_postbacks(cohort, schema, 5,
                                       None if horizon is None else datetime_to_us(horizon))
            # Drawn so far: the users whose window [+24 h, +48 h] after the
            # last commit spans a Monday 00:00 or the horizon.
            drawn = {uid for uid, d in zip(cohort.ids, cohort.delays[5]) if d is not None}
            assert drawn == oracles.undecided_users(users, schema, horizon)
            expected = oracle_view(oracle_postbacks(users, schema, 5, horizon))
            assert by_user(table) == expected
        assert len(table) == len(expected)

    def test_a_table_takes_sent_us_or_last_us_with_a_seed(self):
        cohort = prepare_users([user(0, encode_alpha(0, 0))])
        for kwargs in ({}, {"last_us": [0]}, {"seed": 1}):
            with pytest.raises(ConfigError, match="either sent_us or last_us with a seed"):
                PostbackTable(cohort, [0], [-1], None, {}, **kwargs)
        with pytest.raises(ConfigError, match="either sent_us or last_us with a seed"):
            PostbackTable(cohort, [0], [-1], [0], {}, last_us=[0], seed=1)


class TestBuildCounts:
    def test_simple_count(self):
        users = [user(i, encode_alpha(0, 0)) for i in range(3)]
        when = datetime(2024, 1, 3, 12)
        matrices = build_counts(table_of(users, [pb(i, 7, when) for i in range(3)]))
        m = matrices[("G", iso_week(when.date()))]
        assert m.rows[7][0] == 3
        assert sum(column_sums(m)) == 3

    def test_week_boundary_sunday_monday(self):
        users = [user(0, encode_alpha(0, 0)), user(1, encode_alpha(0, 0))]
        sunday = datetime(2024, 1, 7, 23, 59)
        monday = datetime(2024, 1, 8, 0, 1)
        matrices = build_counts(table_of(users, [pb(0, 1, sunday), pb(1, 1, monday)]))
        assert len(matrices) == 2
        # calendar oracle
        assert sunday.date().isocalendar()[1] != monday.date().isocalendar()[1]

    def test_empty_input(self):
        assert build_counts(table_of([user(0, encode_alpha(0, 0))], [])) == {}

    def test_permutation_invariant(self):
        rng = random.Random(3)
        users = [user(i, encode_alpha(0, i % 3)) for i in range(30)]
        pbs = [pb(i, rng.randrange(64), datetime(2024, 1, 2 + i % 14, 9)) for i in range(30)]
        a = build_counts(table_of(users, pbs))
        order = list(range(30))
        rng.shuffle(order)
        b = build_counts(table_of([users[i] for i in order], [pbs[i] for i in order]))
        assert a == b

    def test_organic_postbacks_not_in_paid_columns(self):
        users = [user(0, encode_alpha(0, 0)), user(1, organic_key(100))]
        when = datetime(2024, 1, 3, 12)
        matrices = build_counts(table_of(users, [pb(0, 1, when), pb(1, 1, when)]))
        m = matrices[("G", iso_week(when.date()))]
        assert m.columns == (encode_alpha(0, 0),)
        assert sum(column_sums(m)) == 1

    def test_each_user_in_exactly_one_cell(self):
        rng = random.Random(11)
        users = [user(i, encode_alpha(0, i % 2), group=("A" if i % 3 else "B")) for i in range(50)]
        pbs = [
            pb(i, rng.randrange(64), datetime(2024, 1, 2, 9) + timedelta(days=rng.randrange(30)),
               group=u.group)
            for i, u in enumerate(users)
        ]
        matrices = build_counts(table_of(users, pbs))
        assert sum(sum(column_sums(m)) for m in matrices.values()) == len(users)


class TestCountMatrixValidation:
    COLS = (encode_alpha(0, 0), organic_key(100))

    def matrix(self, rows, **kw):
        return CountMatrix(group="G", week="2024-W01", columns=self.COLS, rows=tuple(rows), **kw)

    def test_valid_and_zero_column_matrices(self):
        assert sum(column_sums(self.matrix([(1, 0)] * 64))) == 64
        assert sum(column_sums(empty_matrix("G", "2024-W01", []))) == 0

    @pytest.mark.parametrize(
        "rows, kw",
        [
            ([(0, 0)] * 63, {}),
            ([(0, 0)] * 63 + [(0,)], {}),
            ([(0, 0, 0)] * 64, {}),
            ([(0, 0)] * 63 + [(2, -1)], {}),
            ([(0, 0)] * 64, {"null_row": (0,)}),
            ([(0, 0)] * 64, {"null_row": (0, -3)}),
        ],
        ids=["row-count", "ragged-row", "row-width", "negative", "null-row-width",
             "negative-null-row"],
    )
    def test_malformed_matrix_rejected(self, rows, kw):
        with pytest.raises(ConfigError):
            self.matrix(rows, **kw)


class TestEstimateOrganic:
    def test_subtraction(self):
        m = empty_matrix("G", "2024-W01", [encode_alpha(0, 0), encode_alpha(0, 1)])
        rows = [list(r) for r in m.rows]
        rows[5] = [4, 3]
        m = m._replace(rows=tuple(tuple(r) for r in rows))
        out = estimate_organic(m, {5: 10}, organic_key(100))
        assert out.columns[-1] == organic_key(100)
        assert out.rows[5] == (4, 3, 3)

    def test_no_paid_installs(self):
        m = empty_matrix("G", "2024-W01", [encode_alpha(0, 0)])
        out = estimate_organic(m, {0: 4, 9: 2}, organic_key(100))
        assert out.rows[0] == (0, 4)
        assert out.rows[9] == (0, 2)

    def test_totals_equal_paid(self):
        m = empty_matrix("G", "2024-W01", [encode_alpha(0, 0)])
        rows = [list(r) for r in m.rows]
        rows[1] = [6]
        m = m._replace(rows=tuple(tuple(r) for r in rows))
        out = estimate_organic(m, {1: 6}, organic_key(100))
        assert out.rows[1] == (6, 0)

    def test_negative_residual_rejected(self):
        m = empty_matrix("G", "2024-W01", [encode_alpha(0, 0)])
        rows = [list(r) for r in m.rows]
        rows[1] = [6]
        m = m._replace(rows=tuple(tuple(r) for r in rows))
        with pytest.raises(InconsistentTotalsError):
            estimate_organic(m, {1: 5}, organic_key(100))

    def test_rejects_double_organic(self):
        m = empty_matrix("G", "2024-W01", [encode_alpha(0, 0)])
        out = estimate_organic(m, {}, organic_key(100))
        with pytest.raises(ConfigError):
            estimate_organic(out, {}, organic_key(100))


@given(
    paid=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 2), st.integers(0, 9)), max_size=12),
    extra=st.dictionaries(st.integers(0, 63), st.integers(0, 9), max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_organic_copy_equals_a_checked_matrix(paid, extra):
    """``estimate_organic`` skips the constructor's checks, so its copy must pass them."""
    columns = (encode_alpha(0, 0), encode_alpha(0, 1), encode_alpha(1, 0))
    rows = [[0] * len(columns) for _ in range(64)]
    for v, j, count in paid:
        rows[v][j] += count
    m = empty_matrix("G", "2024-W01", columns)._replace(rows=tuple(map(tuple, rows)))
    totals = {v: m.row_sums[v] + extra.get(v, 0) for v in range(64) if m.row_sums[v] or v in extra}
    out = estimate_organic(m, totals, organic_key(200))
    fresh = CountMatrix(*out)
    assert out == fresh and hash(out) == hash(fresh)
    assert out.row_sums == fresh.row_sums
    assert m.columns == columns  # the source is untouched


def test_paid_campaigns_sorted_distinct():
    users = [user(0, encode_alpha(1, 5)), user(1, encode_alpha(0, 3)),
             user(2, encode_alpha(1, 5)), user(3, organic_key(700))]
    cohort = prepare_users(users)
    assert cohort.campaigns == (encode_alpha(0, 3), encode_alpha(1, 5))
    assert cohort.origins == cohort.campaigns + (organic_key(700),)
    assert cohort.column == [1, 0, 1, 2]
