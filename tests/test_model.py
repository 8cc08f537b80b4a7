from datetime import date, datetime, timedelta

import pytest
from hypothesis import example, given, strategies as st

from skattr.attribution import estimate_bucket_means_window
from skattr.errors import ConfigError, InvalidCampaignError, OrganicKeyError
from skattr.model import (
    CampaignKey,
    Cohort,
    Event,
    UserRecord,
    datetime_to_us,
    encode_alpha,
    ground_truth,
    iso_week,
    organic_key,
    revenue_between,
    usd,
)
from skattr.schema import prepare_users
from oracles import (
    Postback,
    groupby_truth,
    scan_revenue,
    scan_revenue_between,
    table_of,
    timestamp,
)

MONDAY = date(2024, 1, 1)


def make_user(uid=0, purchases=(), origin=encode_alpha(4, 5), group="G", reg=MONDAY, flags=(),
              open_hour=9):
    """User with a first-open session at ``open_hour`` and purchases given as (day, hour, cents)."""
    start = datetime(reg.year, reg.month, reg.day, open_hour)
    events = [Event(datetime_to_us(start), "session")]
    midnight = start.replace(hour=0)
    for day, hour, cents in purchases:
        at = datetime_to_us(midnight + timedelta(days=day, hours=hour))
        events.append(Event(at, "purchase", amount=cents))
    for day, hour, idx in flags:
        at = datetime_to_us(midnight + timedelta(days=day, hours=hour))
        events.append(Event(at, "flag", flag_index=idx))
    events.sort(key=timestamp)
    return UserRecord(id=uid, registration_date=reg, origin=origin, events=tuple(events), group=group)


class TestEventOrder:
    @pytest.mark.parametrize("first, second, message", [
        (datetime(2023, 12, 31, 23), datetime(2024, 1, 1, 9), "event precedes registration"),
        (datetime(2024, 1, 1, 9), datetime(2024, 1, 1, 8),
         "events out of order at 2024-01-01T08:00:00"),
        (datetime(2024, 1, 1, 9, 0, 0, 250001), datetime(2024, 1, 1, 9, 0, 0, 250000),
         "events out of order at 2024-01-01T09:00:00.250000"),
    ])
    def test_message(self, first, second, message):
        events = (Event(datetime_to_us(first), "session"), Event(datetime_to_us(second), "session"))
        with pytest.raises(ConfigError, match=f"^user 0: {message}$"):
            UserRecord(0, MONDAY, encode_alpha(0, 0), events, "G")


class TestCampaignKey:
    @pytest.mark.parametrize("n,c,alpha", [(4, 5, 405), (0, 0, 0), (3, 89, 389)])
    def test_encode(self, n, c, alpha):
        assert encode_alpha(n, c).alpha == alpha

    @pytest.mark.parametrize("alpha,n,c", [(405, 4, 5), (0, 0, 0), (171, 1, 71)])
    def test_decode(self, alpha, n, c):
        key = CampaignKey(alpha)
        assert (key.network, key.campaign) == (n, c)

    @pytest.mark.parametrize("n,c", [(0, 100), (0, -1), (-1, 5), (2, 150)])
    def test_encode_rejects_out_of_range(self, n, c):
        with pytest.raises(InvalidCampaignError):
            encode_alpha(n, c)

    def test_organic_does_not_decode(self):
        key = organic_key(700)
        with pytest.raises(OrganicKeyError):
            key.campaign
        with pytest.raises(OrganicKeyError):
            key.network

    def test_organic_distinct_from_paid_with_same_alpha(self):
        assert organic_key(700) != CampaignKey(700)

    def test_negative_alpha_rejected(self):
        with pytest.raises(InvalidCampaignError):
            CampaignKey(-1)

    @given(st.integers(0, 999), st.integers(0, 99))
    def test_round_trip(self, n, c):
        key = encode_alpha(n, c)
        assert (key.network, key.campaign) == (n, c)


class TestCumulativeRevenue:
    """t-day revenue, read as the pipeline reads it: ``Cohort.window_revenue(0, t)``."""

    @staticmethod
    def revenue(user, t):
        return prepare_users([user]).window_revenue(0, t)[0]

    def test_no_purchases(self):
        assert self.revenue(make_user(), 30) == 0

    def test_single_purchase_inside_window(self):
        user = make_user(purchases=[(1, 12, 299)])
        assert self.revenue(user, 7) == 299

    def test_scan_oracle_case(self):
        user = make_user(purchases=[(2, 10, 100), (9, 10, 500)])
        assert scan_revenue(user, 7) == 100
        assert self.revenue(user, 7) == 100

    def test_half_open_boundary(self):
        # A purchase exactly t days after registration midnight is excluded.
        user = make_user(purchases=[(7, 0, 123)])
        assert self.revenue(user, 7) == 0
        assert self.revenue(user, 8) == 123

    def test_negative_window_rejected(self):
        with pytest.raises(ConfigError, match=r"^invalid revenue window \[0, -1\)$"):
            self.revenue(make_user(), -1)
        with pytest.raises(ConfigError, match=r"^invalid revenue window \[-1, 7\)$"):
            revenue_between([], -1, 7)

    def test_revenue_between_window(self):
        user = make_user(purchases=[(1, 12, 100), (5, 12, 200), (10, 12, 400)])
        cohort = prepare_users([user])
        assert cohort.window_revenue(2, 7) == [200]
        assert revenue_between(cohort.purchases[0], 0, 30) == 700

    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(1, 23), st.integers(1, 10_000)),
            max_size=12,
        ),
        st.integers(0, 45),
    )
    def test_monotone_in_window(self, purchases, t):
        user = make_user(purchases=sorted(purchases), open_hour=0)
        cohort = prepare_users([user])
        assert cohort.window_revenue(0, t) <= cohort.window_revenue(0, t + 1)
        assert cohort.window_revenue(0, t) == [scan_revenue(user, t)]

    def test_purchase_digest(self):
        # Purchases at one instant fold into one digest entry, and so into one pair.
        user = make_user(purchases=[(0, 10, 50), (3, 12, 100), (3, 12, 25)], flags=[(0, 10, 2)])
        assert prepare_users([user, make_user(uid=1)]).purchases == [((0, 50), (3, 125)), ()]

    # Hour 0 puts a purchase exactly on a day edge; repeated tuples are
    # purchases at the same instant. The session opens at midnight, so a
    # day-0 purchase or flag never precedes it.
    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.sampled_from((0, 1, 12, 23)), st.integers(1, 10_000)),
            max_size=12,
        ),
        st.integers(0, 45),
        st.integers(0, 45),
    )
    @example(purchases=[], a=0, b=30)
    @example(purchases=[(2, 0, 100), (7, 0, 200)], a=2, b=7)
    @example(purchases=[(5, 0, 100), (5, 0, 100), (5, 0, 7)], a=5, b=5)
    @example(purchases=[(5, 0, 100), (5, 0, 100), (5, 0, 7)], a=5, b=6)
    def test_revenue_between_matches_event_walk(self, purchases, a, b):
        lo, hi = min(a, b), max(a, b)
        user = make_user(purchases=purchases, flags=[(0, 9, 1), (lo, 0, 3)], open_hour=0)
        cohort = prepare_users([user])
        assert cohort.window_revenue(lo, hi) == [scan_revenue_between(user, lo, hi)]
        assert revenue_between(cohort.purchases[0], lo, lo) == 0


def record_of(*events):
    """A Monday-registered user with the given events."""
    return UserRecord(1, MONDAY, encode_alpha(0, 0), events, "G")


class TestUserRecordInvariants:
    def test_events_must_be_ordered(self):
        start = datetime(2024, 1, 1, 9)
        events = (
            Event(datetime_to_us(start), "session"),
            Event(datetime_to_us(start - timedelta(hours=1)), "session"),
        )
        with pytest.raises(ConfigError, match="^user 1: events out of order at 2024-01-01T08:00:00$"):
            UserRecord(1, MONDAY, encode_alpha(0, 0), events, "G")

    def test_event_before_registration_rejected(self):
        events = (Event(datetime_to_us(datetime(2023, 12, 31, 23)), "session"),)
        with pytest.raises(ConfigError, match="^user 1: event precedes registration$"):
            UserRecord(1, MONDAY, encode_alpha(0, 0), events, "G")

    def test_purchase_amount_positive(self):
        with pytest.raises(ConfigError, match="^purchase amount must be a positive cent count$"):
            record_of(Event(datetime_to_us(datetime(2024, 1, 1, 9)), "purchase", amount=0))

    def test_flag_index_range(self):
        with pytest.raises(ConfigError, match=r"^flag_index must be an int in \[0, 5\]$"):
            record_of(Event(datetime_to_us(datetime(2024, 1, 1, 9)), "flag", flag_index=6))

    @pytest.mark.parametrize("kind, amount, flag_index", [
        ("purchase", 1.5, None),
        ("purchase", True, None),
        ("flag", None, True),
        ("flag", None, 2.0),
    ])
    def test_amount_and_flag_index_are_ints(self, kind, amount, flag_index):
        """A field the events file could not read back as an integer is refused."""
        with pytest.raises(ConfigError):
            record_of(Event(datetime_to_us(datetime(2024, 1, 1, 9)), kind, amount, flag_index))

    @pytest.mark.parametrize("us", [float(datetime_to_us(datetime(2024, 1, 1, 9))), True, None])
    def test_instant_is_an_int(self, us):
        with pytest.raises(ConfigError, match="event instant must be an int"):
            record_of(Event(us, "session"))

    def test_each_event_is_checked(self):
        """A bad event after good ones is refused, with the rule it breaks."""
        first = datetime_to_us(datetime(2024, 1, 1, 9))
        with pytest.raises(ConfigError, match="^flag events carry no amount$"):
            record_of(Event(first, "session"), Event(first + 1, "flag", 5, 0))

    @pytest.mark.parametrize("uid", ["1", 1.0, True])
    def test_id_is_an_int(self, uid):
        with pytest.raises(ConfigError, match="user id must be an int"):
            UserRecord(uid, MONDAY, encode_alpha(0, 0), (), "G")


def postbacks_at(users, when=datetime(2024, 1, 3, 12)):
    """One postback per user, all delivered at ``when``."""
    return {u.id: Postback(u.id, 0, when, u.group) for u in users}


def truth_of(users, postbacks, lo_day, hi_day):
    """``ground_truth`` over the table of these postbacks, and the origins its lists follow."""
    table = table_of(users, postbacks)
    return ground_truth(table, lo_day, hi_day), table.cohort.origins


class TestGroundTruth:
    def test_single_user(self):
        user = make_user(purchases=[(1, 12, 300)])
        truth, origins = truth_of([user], postbacks_at([user]), 0, 7)
        assert origins == (encode_alpha(4, 5), organic_key(406))
        assert truth == {"2024-W01": [300, 0]}

    def test_origin_without_revenue_has_an_entry(self):
        """Every origin column has an entry in a week, zero without revenue or postback."""
        spender = make_user(uid=1, purchases=[(1, 12, 300)], origin=encode_alpha(4, 5))
        idle = make_user(uid=2, origin=encode_alpha(4, 6))
        unsent = make_user(uid=3, purchases=[(0, 12, 900)], origin=encode_alpha(4, 7))
        truth, origins = truth_of([spender, idle, unsent], postbacks_at([spender, idle]), 0, 7)
        assert origins[:3] == (encode_alpha(4, 5), encode_alpha(4, 6), encode_alpha(4, 7))
        assert truth == {"2024-W01": [300, 0, 0, 0]}

    def test_disjoint_origins(self):
        u1 = make_user(uid=1, purchases=[(0, 12, 200)], origin=encode_alpha(4, 5))
        u2 = make_user(uid=2, purchases=[(0, 12, 500)], origin=organic_key(700))
        truth, origins = truth_of([u1, u2], postbacks_at([u1, u2]), 0, 7)
        assert dict(zip(origins, truth["2024-W01"])) == {
            encode_alpha(4, 5): 200, organic_key(700): 500
        }

    def test_matches_groupby_oracle(self):
        import random

        rng = random.Random(5)
        users = []
        for uid in range(10):
            purchases = [
                (rng.randrange(0, 10), rng.randrange(1, 23), rng.randrange(1, 2000))
                for _ in range(rng.randrange(0, 4))
            ]
            users.append(
                make_user(uid=uid, purchases=sorted(purchases), origin=encode_alpha(0, uid % 3))
            )
        truth, origins = truth_of(users, postbacks_at(users), 0, 7)
        oracle = groupby_truth(users, 7)
        assert list(truth) == ["2024-W01"]
        by_origin = dict(zip(origins, truth["2024-W01"]))
        assert {k: c for k, c in by_origin.items() if c} == {k: c for k, c in oracle.items() if c}
        assert sum(truth["2024-W01"]) == sum(oracle.values())

    def test_conservation(self):
        users = [
            make_user(
                uid=i,
                purchases=[(i % 5, 12, 100 * (i + 1))],
                origin=encode_alpha(0, i % 2),
                group="G" if i % 3 else "H",
            )
            for i in range(8)
        ]
        # Two postback weeks, and user 7 has no postback at all.
        postbacks = postbacks_at(users[:4]) | postbacks_at(users[4:7], datetime(2024, 1, 10))
        truth, _ = truth_of(users, postbacks, 0, 30)
        assert sorted(truth) == ["2024-W01", "2024-W02"]
        assert sum(map(sum, truth.values())) == sum(scan_revenue(u, 30) for u in users[:7])


class TestCohortWithoutPayers:
    """A cohort where no user pays: every revenue figure is zero, and nothing else changes."""

    USERS = [make_user(uid=i, origin=encode_alpha(0, i % 2), group="GH"[i % 2]) for i in range(5)]
    # Two postback weeks, and user 4 has no postback at all.
    POSTBACKS = postbacks_at(USERS[:2]) | postbacks_at(USERS[2:4], datetime(2024, 1, 10))

    def test_revenue_is_all_zero(self):
        cohort = prepare_users(self.USERS)
        assert cohort.payers == []
        assert cohort.window_revenue(0, 30) == cohort.window_revenue(3, 3) == [0] * 5

    def test_means_have_zero_sums(self):
        postbacks = [Postback(pb.user_id, v, pb.postback_time, pb.group)
                     for pb, v in zip(self.POSTBACKS.values(), [3, 3, 7, 0])]
        means = estimate_bucket_means_window(table_of(self.USERS, postbacks), 0, 30)
        assert means == {0: 0, 3: 0, 7: 0}
        assert [m.denominator for m in means.values()] == [1, 1, 1]

    def test_truth_weeks_are_all_zero(self):
        table = table_of(self.USERS, self.POSTBACKS)
        assert ground_truth(table, 0, 30) == {"2024-W01": [0, 0, 0], "2024-W02": [0, 0, 0]}

    @pytest.mark.parametrize("cohort", [
        pytest.param(lambda: prepare_users(TestCohortWithoutPayers.USERS), id="no_payer"),
        pytest.param(lambda: Cohort([], [], [], [], []), id="empty"),
    ])
    def test_invalid_window_is_refused(self, cohort):
        cohort = cohort()
        assert cohort.window_revenue(2, 5) == [0] * len(cohort.ids)
        with pytest.raises(ConfigError, match=r"invalid revenue window \[5, 2\)"):
            cohort.window_revenue(5, 2)
        with pytest.raises(ConfigError, match=r"invalid revenue window \[-1, 2\)"):
            cohort.window_revenue(-1, 2)


class TestWeeks:
    def test_iso_week_monday_start(self):
        assert iso_week(date(2024, 1, 7)) != iso_week(date(2024, 1, 8))  # Sun vs Mon
        assert iso_week(date(2024, 1, 8)) == iso_week(date(2024, 1, 14))  # Mon..Sun same

    def test_usd_formatting(self):
        assert usd(123) == "1.23"
        assert usd(0) == "0.00"
        assert usd(100000) == "1000.00"
