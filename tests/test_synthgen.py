import random
import tempfile
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from skattr.errors import ConfigError
from skattr.model import FLAG, PURCHASE, SESSION
from skattr.io_files import load_users, save_dataset
from skattr.synthgen import GenConfig, _below, generate_dataset
from oracles import (
    homogeneous_fixture,
    reference_generate_dataset,
    registration_midnight,
    scan_revenue,
    timestamp,
)


def small_cfg(**kw):
    base = dict(n_users=800, n_weeks=4, event_horizon_days=30, seed=5)
    base.update(kw)
    return GenConfig(**base)


class TestGenerateDataset:
    def test_same_seed_byte_identical(self, tmp_path):
        from skattr.io_files import save_events, save_users

        a, _ = generate_dataset(small_cfg())
        b, _ = generate_dataset(small_cfg())
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        save_users(pa, a, {"seed": 5})
        save_users(pb, b, {"seed": 5})
        assert pa.read_bytes() == pb.read_bytes()
        save_events(pa, a, {"seed": 5})
        save_events(pb, b, {"seed": 5})
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_differ(self):
        a, _ = generate_dataset(small_cfg(seed=1))
        b, _ = generate_dataset(small_cfg(seed=2))
        assert a != b

    def test_user_invariants(self):
        users, _ = generate_dataset(small_cfg())
        for u in users:
            assert u.events[0].kind == SESSION
            times = [timestamp(e) for e in u.events]
            assert times == sorted(times)
            assert all(timestamp(e) >= registration_midnight(u) for e in u.events)
            for e in u.events:
                if e.kind == PURCHASE:
                    assert e.amount > 0
                if e.kind == FLAG:
                    # flags only fire on the registration day
                    assert timestamp(e).date() == u.registration_date

    def test_spender_rate_zero(self):
        users, _ = generate_dataset(small_cfg(spender_rate=0.0))
        assert all(scan_revenue(u, 30) == 0 for u in users)

    def test_organic_share_one(self):
        users, _ = generate_dataset(small_cfg(organic_share=1.0))
        assert all(u.origin.organic for u in users)

    def test_registration_within_window(self):
        cfg = small_cfg()
        users, _ = generate_dataset(cfg)
        last = cfg.start_date.toordinal() + cfg.n_weeks * 7
        for u in users:
            assert cfg.start_date.toordinal() <= u.registration_date.toordinal() < last

    def test_spender_fraction_tracks_config(self):
        # Monte Carlo: empirical purchaser rate within 2 percentage points
        # of the configured spender rate across 10 seeds.
        hits = total = 0
        for seed in range(10):
            users, _ = generate_dataset(small_cfg(n_users=3000, seed=seed))
            hits += sum(1 for u in users if any(e.kind == PURCHASE for e in u.events))
            total += len(users)
        cfg = small_cfg()
        assert abs(hits / total - cfg.spender_rate) < 0.02

    def test_campaign_shares_converge(self):
        cfg = small_cfg(n_users=50_000, seed=3)
        users, _ = generate_dataset(cfg)
        n_campaigns = cfg.n_networks * cfg.campaigns_per_network
        per_paid = (1 - cfg.organic_share) / n_campaigns
        from collections import Counter

        shares = Counter(u.origin for u in users)
        assert abs(shares[cfg.organic] / len(users) - cfg.organic_share) < 0.01
        for key in cfg.campaigns:
            assert abs(shares[key] / len(users) - per_paid) < 0.01

    def test_group_assignment(self):
        users, _ = generate_dataset(small_cfg(groups=(("X", 0.2), ("Y", 0.8))))
        labels = {u.group for u in users}
        assert labels == {"X", "Y"}

    def test_metadata(self):
        cfg = small_cfg()
        _, meta = generate_dataset(cfg)
        assert meta["seed"] == cfg.seed
        assert meta["organic_alpha"] == cfg.organic.alpha
        assert len(meta["campaigns"]) == cfg.n_networks * cfg.campaigns_per_network


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_users=0),
            dict(campaigns_per_network=101),
            dict(organic_share=1.5),
            dict(start_date=date(2024, 1, 2)),  # not a Monday
            dict(groups=(("A", 0.7), ("B", 0.7))),
            dict(groups=(("", 1.0),)),
            dict(groups=(("A", -0.5), ("B", 1.5))),  # sums to 1
            dict(groups=(("A", 0.5), ("A", 0.5))),
            dict(n_weeks=0),
            # The users file refuses an alpha above the sentinel; the largest paid one is 104.
            dict(organic_alpha=3),
            dict(organic_alpha=104),
            # Events after 9999-12-31 cannot be dated.
            dict(start_date=date(9999, 12, 27), n_weeks=1),
            dict(start_date=date(9999, 12, 20), n_weeks=1, event_horizon_days=30),
            dict(start_date=date(9999, 11, 1), n_weeks=1, event_horizon_days=56),
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ConfigError):
            small_cfg(**kw)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(organic_alpha=105),
            dict(start_date=date(9999, 11, 1), n_weeks=1, event_horizon_days=55),
        ],
    )
    def test_accepts_the_limits(self, kw, tmp_path):
        """The dataset is written and read back."""
        users, meta = generate_dataset(small_cfg(n_users=50, **kw))
        paths = save_dataset(tmp_path, users, meta)
        assert load_users(paths["users"], paths["events"])[0] == users


class TestBelow:
    """``_below`` makes ``Random.randrange``'s draws, and leaves its state, draw for draw.

    One bit consumed differently would shift every later draw of the user,
    so the state is compared after each draw, not only the values.
    """

    # The generator's ranges: registration day (12 weeks), habit second,
    # purchase delay, the extra-session span 86_400 - habit_sec at both
    # ends, and the extra-session count for 1 to 4 sessions a day.
    GENERATOR_RANGES = (84, 50_400, 1_740, 7_201, 57_600, 1, 2, 3, 4)
    EDGE_RANGES = tuple(
        n for k in (1, 2, 3, 5, 8, 13, 16, 31, 32, 33, 53, 64) for n in (2**k - 1, 2**k, 2**k + 1)
    )

    @pytest.mark.parametrize("seed", [0, 1, 2, 2**32 - 1, 12345678901234])
    def test_matches_randrange_and_its_state(self, seed):
        ours, reference = random.Random(seed), random.Random(seed)
        for n in self.GENERATOR_RANGES + self.EDGE_RANGES:
            for _ in range(40):
                assert _below(ours.getrandbits, n, n.bit_length()) == reference.randrange(n)
                assert ours.getstate() == reference.getstate()

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_offset_ranges_match_two_argument_randrange(self, seed):
        ours, reference = random.Random(seed), random.Random(seed)
        for lo, hi in ((28_800, 79_200), (60, 1_800), (79_199, 86_400), (28_800, 86_400)):
            for _ in range(100):
                n = hi - lo
                drawn = lo + _below(ours.getrandbits, n, n.bit_length())
                assert drawn == reference.randrange(lo, hi)
                assert ours.getstate() == reference.getstate()


class TestReferenceGenerator:
    @given(
        n_users=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        n_weeks=st.integers(1, 4),
        # 1 to 3 days end inside the purchase ramp, before its constant tail.
        horizon=st.integers(1, 3) | st.integers(4, 40),
        spender_rate=st.sampled_from((0.0, 0.3, 1.0)),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_datetime_reference(self, n_users, seed, n_weeks, horizon, spender_rate):
        """The integer-time generator makes the users, and the files, of the datetime one."""
        cfg = GenConfig(n_users=n_users, n_weeks=n_weeks, event_horizon_days=horizon, seed=seed,
                        spender_rate=spender_rate)
        users, meta = generate_dataset(cfg)
        reference = reference_generate_dataset(cfg)
        assert [u.id for u in users] == [r.id for r in reference]
        for u, r in zip(users, reference):
            assert (u.registration_date, u.origin, u.group) == (
                r.registration_date, r.origin, r.group
            )
            assert [(e.us, timestamp(e), e.kind, e.amount, e.flag_index) for e in u.events] == [
                (e.us, timestamp(e), e.kind, e.amount, e.flag_index) for e in r.events
            ]
        with tempfile.TemporaryDirectory() as tmp:
            ours = save_dataset(Path(tmp) / "ours", users, meta)
            theirs = save_dataset(Path(tmp) / "reference", reference, meta)
            for name, path in ours.items():
                assert path.read_bytes() == theirs[name].read_bytes(), name


class TestHomogeneousFixture:
    def test_constructed_case(self):
        users = homogeneous_fixture(2, 3, [1000, 2000])
        assert len(users) == 9  # bucket 0 plus two paid buckets, 3 users each
        revs = sorted({scan_revenue(u, 30) for u in users})
        assert revs == [0, 1000, 2000]

    def test_single_bucket_identical(self):
        users = homogeneous_fixture(1, 4, [500])
        spenders = [u for u in users if scan_revenue(u, 30) > 0]
        assert len(spenders) == 4
        assert {scan_revenue(u, 30) for u in spenders} == {500}

    def test_zero_variance_per_bucket(self):
        users = homogeneous_fixture(5, 6, None)
        by_rev: dict[int, int] = {}
        for u in users:
            by_rev.setdefault(scan_revenue(u, 30), 0)
            by_rev[scan_revenue(u, 30)] += 1
        assert all(count == 6 for count in by_rev.values())
        assert len(by_rev) == 6  # zero bucket + 5 constants

    def test_rejects_bad_constants(self):
        with pytest.raises(ConfigError):
            homogeneous_fixture(2, 3, [100, 100])
        with pytest.raises(ConfigError):
            homogeneous_fixture(2, 0, [100, 200])
