import random
from dataclasses import replace
from datetime import date, datetime, timedelta

import pytest

from skattr.errors import ConfigError, InconsistentTotalsError
from skattr.model import Event, UserRecord, datetime_to_us, encode_alpha, iso_week, organic_key
from skattr.postback import CountMatrix, build_counts, empty_matrix, estimate_organic, postback_delay_us
from skattr.schema import prepare_users

from oracles import Postback, UpdateTrace, table_of

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


class TestBuildCounts:
    def test_simple_count(self):
        users = [user(i, encode_alpha(0, 0)) for i in range(3)]
        when = datetime(2024, 1, 3, 12)
        matrices = build_counts(table_of(users, [pb(i, 7, when) for i in range(3)]))
        m = matrices[("G", iso_week(when.date()))]
        assert m.rows[7][0] == 3
        assert m.total() == 3

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
        assert m.total() == 1

    def test_each_user_in_exactly_one_cell(self):
        rng = random.Random(11)
        users = [user(i, encode_alpha(0, i % 2), group=("A" if i % 3 else "B")) for i in range(50)]
        pbs = [
            pb(i, rng.randrange(64), datetime(2024, 1, 2, 9) + timedelta(days=rng.randrange(30)),
               group=u.group)
            for i, u in enumerate(users)
        ]
        matrices = build_counts(table_of(users, pbs))
        assert sum(m.total() for m in matrices.values()) == len(users)


class TestCountMatrixValidation:
    COLS = (encode_alpha(0, 0), organic_key(100))

    def matrix(self, rows, **kw):
        return CountMatrix(group="G", week="2024-W01", columns=self.COLS, rows=tuple(rows), **kw)

    def test_valid_and_zero_column_matrices(self):
        assert self.matrix([(1, 0)] * 64).total() == 64
        assert empty_matrix("G", "2024-W01", []).total() == 0

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
        m = replace(m, rows=tuple(tuple(r) for r in rows))
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
        m = replace(m, rows=tuple(tuple(r) for r in rows))
        out = estimate_organic(m, {1: 6}, organic_key(100))
        assert out.rows[1] == (6, 0)

    def test_negative_residual_rejected(self):
        m = empty_matrix("G", "2024-W01", [encode_alpha(0, 0)])
        rows = [list(r) for r in m.rows]
        rows[1] = [6]
        m = replace(m, rows=tuple(tuple(r) for r in rows))
        with pytest.raises(InconsistentTotalsError):
            estimate_organic(m, {1: 5}, organic_key(100))

    def test_rejects_double_organic(self):
        m = empty_matrix("G", "2024-W01", [encode_alpha(0, 0)])
        out = estimate_organic(m, {}, organic_key(100))
        with pytest.raises(ConfigError):
            estimate_organic(out, {}, organic_key(100))


def test_paid_campaigns_sorted_distinct():
    users = [user(0, encode_alpha(1, 5)), user(1, encode_alpha(0, 3)),
             user(2, encode_alpha(1, 5)), user(3, organic_key(700))]
    cohort = prepare_users(users)
    assert cohort.campaigns == (encode_alpha(0, 3), encode_alpha(1, 5))
    assert cohort.origins == cohort.campaigns + (organic_key(700),)
    assert cohort.column == [1, 0, 1, 2]
