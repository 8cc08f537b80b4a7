from datetime import date, datetime, timedelta

import pytest
from hypothesis import example, given, strategies as st

from skattr.errors import ConfigError, InvalidCampaignError, OrganicKeyError
from skattr.model import (
    CampaignKey,
    Event,
    UserRecord,
    cumulative_revenue,
    decode_alpha,
    encode_alpha,
    ground_truth,
    iso_week,
    organic_key,
    revenue_between,
    usd,
)
from oracles import Postback, groupby_truth, scan_revenue, scan_revenue_between, table_of

MONDAY = date(2024, 1, 1)


def make_user(uid=0, purchases=(), origin=encode_alpha(4, 5), group="G", reg=MONDAY, flags=()):
    """User with a first-open session and purchases given as (day, hour, cents)."""
    start = datetime(reg.year, reg.month, reg.day, 9)
    events = [Event(start, "session")]
    for day, hour, cents in purchases:
        events.append(Event(start.replace(hour=0) + timedelta(days=day, hours=hour), "purchase", amount=cents))
    for day, hour, idx in flags:
        events.append(Event(start.replace(hour=0) + timedelta(days=day, hours=hour), "flag", flag_index=idx))
    events.sort(key=lambda e: e.timestamp)
    return UserRecord(id=uid, registration_date=reg, origin=origin, events=tuple(events), group=group)


class TestEventOrder:
    @pytest.mark.parametrize("first, second, message", [
        (datetime(2023, 12, 31, 23), datetime(2024, 1, 1, 9), "event precedes registration"),
        (datetime(2024, 1, 1, 9), datetime(2024, 1, 1, 8),
         "events out of order at 2024-01-01T08:00:00"),
    ])
    def test_message(self, first, second, message):
        events = (Event(first, "session"), Event(second, "session"))
        with pytest.raises(ConfigError, match=f"^user 0: {message}$"):
            UserRecord(0, MONDAY, encode_alpha(0, 0), events, "G")


class TestCampaignKey:
    @pytest.mark.parametrize("n,c,alpha", [(4, 5, 405), (0, 0, 0), (3, 89, 389)])
    def test_encode(self, n, c, alpha):
        assert encode_alpha(n, c).alpha == alpha

    @pytest.mark.parametrize("alpha,n,c", [(405, 4, 5), (0, 0, 0), (171, 1, 71)])
    def test_decode(self, alpha, n, c):
        assert decode_alpha(CampaignKey(alpha)) == (n, c)
        assert decode_alpha(alpha) == (n, c)

    @pytest.mark.parametrize("n,c", [(0, 100), (0, -1), (-1, 5), (2, 150)])
    def test_encode_rejects_out_of_range(self, n, c):
        with pytest.raises(InvalidCampaignError):
            encode_alpha(n, c)

    def test_organic_does_not_decode(self):
        key = organic_key(700)
        with pytest.raises(OrganicKeyError):
            decode_alpha(key)
        with pytest.raises(OrganicKeyError):
            key.network

    def test_organic_distinct_from_paid_with_same_alpha(self):
        assert organic_key(700) != CampaignKey(700)

    def test_negative_alpha_rejected(self):
        with pytest.raises(InvalidCampaignError):
            CampaignKey(-1)

    @given(st.integers(0, 999), st.integers(0, 99))
    def test_round_trip(self, n, c):
        assert decode_alpha(encode_alpha(n, c)) == (n, c)


class TestCumulativeRevenue:
    def test_no_purchases(self):
        assert cumulative_revenue(make_user(), 30) == 0

    def test_single_purchase_inside_window(self):
        user = make_user(purchases=[(1, 12, 299)])
        assert cumulative_revenue(user, 7) == 299

    def test_scan_oracle_case(self):
        user = make_user(purchases=[(2, 10, 100), (9, 10, 500)])
        assert scan_revenue(user, 7) == 100
        assert cumulative_revenue(user, 7) == 100

    def test_half_open_boundary(self):
        # A purchase exactly t days after registration midnight is excluded.
        user = make_user(purchases=[(7, 0, 123)])
        assert cumulative_revenue(user, 7) == 0
        assert cumulative_revenue(user, 8) == 123

    def test_negative_window_rejected(self):
        with pytest.raises(ConfigError):
            cumulative_revenue(make_user(), -1)

    def test_revenue_between_window(self):
        user = make_user(purchases=[(1, 12, 100), (5, 12, 200), (10, 12, 400)])
        assert revenue_between(user.purchases, 2, 7) == 200
        assert revenue_between(user.purchases, 0, 30) == 700

    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(1, 23), st.integers(1, 10_000)),
            max_size=12,
        ),
        st.integers(0, 45),
    )
    def test_monotone_in_window(self, purchases, t):
        user = make_user(purchases=sorted(purchases))
        assert cumulative_revenue(user, t) <= cumulative_revenue(user, t + 1)
        assert cumulative_revenue(user, t) == scan_revenue(user, t)

    def test_purchase_digest(self):
        user = make_user(purchases=[(0, 0, 50), (3, 12, 100), (3, 12, 25)], flags=[(0, 10, 2)])
        assert user.purchases == ((0, 50), (3, 100), (3, 25))
        assert make_user().purchases == ()

    # Hour 0 puts a purchase exactly on a day edge; repeated tuples are
    # purchases at the same instant.
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
        user = make_user(purchases=purchases, flags=[(0, 9, 1), (lo, 0, 3)])
        assert revenue_between(user.purchases, lo, hi) == scan_revenue_between(user, lo, hi)
        assert revenue_between(user.purchases, lo, lo) == 0


class TestUserRecordInvariants:
    def test_events_must_be_ordered(self):
        start = datetime(2024, 1, 1, 9)
        events = (
            Event(start, "session"),
            Event(start - timedelta(hours=1), "session"),
        )
        with pytest.raises(ConfigError):
            UserRecord(1, MONDAY, encode_alpha(0, 0), events, "G")

    def test_event_before_registration_rejected(self):
        events = (Event(datetime(2023, 12, 31, 23), "session"),)
        with pytest.raises(ConfigError):
            UserRecord(1, MONDAY, encode_alpha(0, 0), events, "G")

    def test_purchase_amount_positive(self):
        with pytest.raises(ConfigError):
            Event(datetime(2024, 1, 1, 9), "purchase", amount=0)

    def test_flag_index_range(self):
        with pytest.raises(ConfigError):
            Event(datetime(2024, 1, 1, 9), "flag", flag_index=6)


def postbacks_at(users, when=datetime(2024, 1, 3, 12)):
    """One postback per user, all delivered at ``when``."""
    return {u.id: Postback(u.id, 0, when, u.group) for u in users}


def truth_of(users, postbacks, lo_day, hi_day):
    return ground_truth(table_of(users, postbacks), lo_day, hi_day)


class TestGroundTruth:
    def test_single_user(self):
        user = make_user(purchases=[(1, 12, 300)])
        truth = truth_of([user], postbacks_at([user]), 0, 7)
        assert truth == {"2024-W01": {encode_alpha(4, 5): 300}}

    def test_origin_without_revenue_has_an_entry(self):
        spender = make_user(uid=1, purchases=[(1, 12, 300)], origin=encode_alpha(4, 5))
        idle = make_user(uid=2, origin=encode_alpha(4, 6))
        truth = truth_of([spender, idle], postbacks_at([spender, idle]), 0, 7)
        assert truth == {"2024-W01": {encode_alpha(4, 5): 300, encode_alpha(4, 6): 0}}

    def test_disjoint_origins(self):
        u1 = make_user(uid=1, purchases=[(0, 12, 200)], origin=encode_alpha(4, 5))
        u2 = make_user(uid=2, purchases=[(0, 12, 500)], origin=organic_key(700))
        truth = truth_of([u1, u2], postbacks_at([u1, u2]), 0, 7)
        assert truth["2024-W01"] == {encode_alpha(4, 5): 200, organic_key(700): 500}

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
        truth = truth_of(users, postbacks_at(users), 0, 7)
        oracle = groupby_truth(users, 7)
        assert list(truth) == ["2024-W01"]
        for key, cents in oracle.items():
            assert truth["2024-W01"].get(key, 0) == cents
        assert sum(truth["2024-W01"].values()) == sum(oracle.values())

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
        truth = truth_of(users, postbacks, 0, 30)
        assert sorted(truth) == ["2024-W01", "2024-W02"]
        total = sum(sum(week.values()) for week in truth.values())
        assert total == sum(cumulative_revenue(u, 30) for u in users[:7])


class TestWeeks:
    def test_iso_week_monday_start(self):
        assert iso_week(date(2024, 1, 7)) != iso_week(date(2024, 1, 8))  # Sun vs Mon
        assert iso_week(date(2024, 1, 8)) == iso_week(date(2024, 1, 14))  # Mon..Sun same

    def test_usd_formatting(self):
        assert usd(123) == "1.23"
        assert usd(0) == "0.00"
        assert usd(100000) == "1000.00"
