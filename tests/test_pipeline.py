import sys
from collections import Counter
from datetime import datetime

import pytest

import skattr.metrics
from skattr import model, postback, rng
from skattr.errors import ConfigError
from skattr.metrics import benchmark_matrix, window_error_curve
from skattr.model import datetime_to_us, iso_week, organic_key
from skattr.pipeline import developer_totals, resolve_schema, run_schema, simulate_postbacks
from skattr.schema import prepare_users, schema_from_text
from skattr.synthgen import GenConfig, generate_dataset

from oracles import by_user, column_sums, oracle_postbacks, oracle_view, undecided_users

PV = "kind=PV;layout=VVVVVV;horizon=30"
D7RR = "kind=RR;layout=TTTVVV;horizon=7"


@pytest.fixture(scope="module")
def users():
    return generate_dataset(GenConfig(n_users=2000, n_weeks=3, event_horizon_days=40, seed=14))[0]


@pytest.fixture(scope="module")
def cohort(users):
    return prepare_users(users)


class TestResolve:
    def test_organic_from_dataset(self, cohort):
        key = cohort.organic
        assert key.organic
        assert key == GenConfig(n_users=2000, n_weeks=3, event_horizon_days=40, seed=14).organic
        assert cohort.origins[-1] == key

    def test_organic_default_when_absent(self):
        cfg = GenConfig(n_users=300, n_weeks=2, event_horizon_days=30, seed=1, organic_share=0.0)
        paid_only, _ = generate_dataset(cfg)
        assert not any(u.origin.organic for u in paid_only)
        key = prepare_users(paid_only).organic
        assert key.organic and key.alpha == max(u.origin.alpha for u in paid_only) + 1

    def test_mixed_organic_sentinels_rejected(self, users):
        stray = users[0]._replace(id=-1, origin=organic_key(9999))
        with pytest.raises(ConfigError, match="mixes organic sentinels"):
            prepare_users([*users, stray])

    def test_ud_seed_injected_deterministically(self, cohort):
        a = resolve_schema(schema_from_text("kind=UD"), cohort, seed=5)
        b = resolve_schema(schema_from_text("kind=UD"), cohort, seed=5)
        c = resolve_schema(schema_from_text("kind=UD"), cohort, seed=6)
        assert a.seed == b.seed is not None
        assert a.seed != c.seed
        explicit = resolve_schema(schema_from_text("kind=UD;seed=7"), cohort, seed=5)
        assert explicit.seed == 7

    def test_pv_boundaries_fitted(self, cohort):
        fitted = resolve_schema(schema_from_text(PV), cohort, seed=5)
        assert fitted.bucket_boundaries is not None
        assert len(fitted.bucket_boundaries) == 62


class TestHorizon:
    def test_postbacks_beyond_horizon_excluded(self, users, cohort):
        schema = resolve_schema(schema_from_text("kind=UD"), cohort, seed=3)
        all_pbs = by_user(simulate_postbacks(cohort, schema, 3))
        assert len(all_pbs) == len(users)
        horizon = datetime(2024, 1, 10)
        cut = by_user(simulate_postbacks(cohort, schema, 3, horizon=datetime_to_us(horizon)))
        assert 0 < len(cut) < len(users)
        assert all(sent <= horizon for _, sent, _ in cut.values())
        # identical postbacks for the users that remain
        assert all(all_pbs[uid] == pb for uid, pb in cut.items())

    @pytest.mark.parametrize("horizon", [datetime(2024, 1, 12), 1.5e17, True, "2024-01-12"])
    def test_horizon_is_integer_microseconds(self, cohort, horizon):
        with pytest.raises(ConfigError, match="^horizon must be integer microseconds, got "):
            run_schema(cohort, schema_from_text("kind=UD"), 3, horizon=horizon)

    def test_matrix_mass_matches_included_users(self, cohort):
        horizon = datetime_to_us(datetime(2024, 1, 12))
        artifacts = run_schema(cohort, schema_from_text("kind=UD"), 3, horizon=horizon)
        mass = sum(sum(column_sums(m)) for m in artifacts.matrices.values())
        assert mass == len(artifacts.postbacks)


class TestDeveloperTotals:
    def test_totals_cover_all_values_with_zeros(self, cohort):
        schema = resolve_schema(schema_from_text("kind=UD"), cohort, seed=3)
        pbs = simulate_postbacks(cohort, schema, 3)
        totals = developer_totals(pbs)
        for cell, per_v in totals.items():
            assert set(per_v) == set(range(64))
            assert sum(per_v.values()) >= 1

    def test_totals_match_matrix_rows(self, cohort):
        artifacts = run_schema(cohort, schema_from_text(PV), 3)
        for cell, matrix in artifacts.matrices.items():
            for v in range(64):
                assert sum(matrix.rows[v]) == artifacts.cell_totals[cell][v]


class TestPostbackDraws:
    """The delay draw depends on (seed, user) only and is drawn once per prepared digest."""

    def fresh(self, users, schema, seed):
        return oracle_view(oracle_postbacks(users, schema, seed))

    def test_shared_prepared_matches_fresh_substream_draws(self, users):
        prepared = prepare_users(users)
        for text in (PV, D7RR, "kind=UD"):
            schema = resolve_schema(schema_from_text(text), prepared, seed=3)
            assert by_user(simulate_postbacks(prepared, schema, 3)) == self.fresh(
                users, schema, 3
            )

    def test_two_seeds_on_one_prepared_do_not_share_draws(self, users):
        prepared = prepare_users(users)
        schema = resolve_schema(schema_from_text("kind=UD;seed=9"), prepared, seed=3)
        a = by_user(simulate_postbacks(prepared, schema, 3))
        b = by_user(simulate_postbacks(prepared, schema, 4))
        assert a == self.fresh(users, schema, 3)
        assert b == self.fresh(users, schema, 4)
        assert all(a[uid][1] != b[uid][1] for uid in a)
        assert by_user(simulate_postbacks(prepared, schema, 3)) == a

    def test_one_substream_per_user_across_grid_and_curve(self, users, monkeypatch):
        """The grid and the curve draw a delay only where its [24 h, 48 h] bounds span a Monday.

        Each such user's delay is drawn once over every schema run; reading
        the tables' ``sent_us`` afterwards draws the remaining delays, once
        each.
        """
        calls = []
        original = rng.substream

        def counting(seed, *path):
            calls.append(path)
            return original(seed, *path)

        for name, module in list(sys.modules.items()):
            if name.startswith("skattr") and getattr(module, "substream", None) is original:
                monkeypatch.setattr(module, "substream", counting)
        prepared = prepare_users(users)
        schemas = [schema_from_text(t) for t in (PV, D7RR, "kind=UD")]
        benchmark_matrix(users, schemas, [0], ["plain"], 30, seed=3, prepared=prepared)
        window_error_curve(users, schemas[1], 0, "plain", [(7, 14), (14, 30)], seed=3,
                           prepared=prepared)
        assert {path[0] for path in calls} == {"postback"}
        drawn = Counter(uid for _, uid in calls)
        assert max(drawn.values()) == 1
        crossing = set()
        for schema in schemas:
            crossing |= undecided_users(users, resolve_schema(schema, prepared, seed=3))
        assert 0 < len(crossing) < len(users)
        assert set(drawn) == crossing
        for artifacts in prepared.simulations.values():
            assert len(artifacts.postbacks.sent_us) == len(users)
        assert Counter(uid for _, uid in calls) == Counter(u.id for u in users)


class TestCohortFacts:
    """Window revenue is derived once per cohort, and a table's cell keys once per (group, week)."""

    def test_duplicate_user_ids_rejected(self, users):
        with pytest.raises(ConfigError, match="more than once"):
            prepare_users([users[0], users[1], users[0]])

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ConfigError, match="differ in length"):
            model.Cohort([1, 2], [738_000, 738_001], ["G", "G"], [(False, 0)] * 2, [()])

    @pytest.mark.parametrize("digests, purchases", [
        pytest.param(None, None, id="neither"),
        pytest.param([()], [()], id="both"),
    ])
    def test_digests_or_purchases(self, digests, purchases):
        with pytest.raises(ConfigError, match="either the replay digests or the purchases"):
            model.Cohort([1], [738_000], ["G"], [(False, 0)], digests, purchases=purchases)

    def test_purchases_only_cohort_serves_revenue_but_no_replay(self):
        cohort = model.Cohort([1, 2], [738_000, 738_001], ["G", "H"], [(False, 0), (True, 9)],
                              None, purchases=[((0, 250), (3, 100)), ()])
        assert cohort.window_revenue(0, 3) == [250, 0]
        assert cohort.window_revenue(0, 4) == [350, 0]
        assert cohort.origins == (model.CampaignKey(0), organic_key(9))
        with pytest.raises(ConfigError, match="cannot be replayed"):
            simulate_postbacks(cohort, schema_from_text("kind=UD;seed=1"), 3)

    def test_prepared_digest_must_match_the_users(self, users):
        prepared = prepare_users(users[:10])
        with pytest.raises(ConfigError, match="different user list"):
            benchmark_matrix(users[:11], [schema_from_text("kind=UD;seed=1")], [0], ["plain"], 30,
                             seed=3, prepared=prepared)

    def test_grid_and_curve_share_one_cohort(self, users, monkeypatch):
        windows = []
        cells = []
        simulated = []
        revenue_impl, cell_impl = model.revenue_between, postback.cell_of
        run_schema_impl = skattr.metrics.run_schema

        def counting_run_schema(cohort, schema, *args):
            simulated.append(schema.label)
            return run_schema_impl(cohort, schema, *args)

        def counting_revenue(purchases, lo_day, hi_day):
            windows.append(((lo_day, hi_day), purchases))
            return revenue_impl(purchases, lo_day, hi_day)

        def counting_cell(group, day):
            cells.append((group, day))
            return cell_impl(group, day)

        for name, module in list(sys.modules.items()):
            if not name.startswith("skattr"):
                continue
            if getattr(module, "revenue_between", None) is revenue_impl:
                monkeypatch.setattr(module, "revenue_between", counting_revenue)
            if getattr(module, "cell_of", None) is cell_impl:
                monkeypatch.setattr(module, "cell_of", counting_cell)
        monkeypatch.setattr(skattr.metrics, "run_schema", counting_run_schema)
        prepared = prepare_users(users)
        schemas = [schema_from_text(t) for t in (PV, D7RR, "kind=UD")]
        benchmark_matrix(users, schemas, [0], ["plain"], 30, seed=3, prepared=prepared)
        window_error_curve(users, schemas[1], 0, "plain", [(7, 14), (14, 30)], seed=3,
                           prepared=prepared)
        window_error_curve(users, schemas[1], 0, "plain", [(0, 7), (14, 30)], seed=3,
                           prepared=prepared)
        assert sorted(simulated) == sorted(s.label for s in schemas)

        # [0, 30): PV fit and values, grid profiles and truth; [0, 7): D7 RR fit.
        # Each window walks each payer's purchases once, in cohort order, and
        # no other user's.
        distinct = {(0, 30), (0, 7), (7, 14), (14, 30)}
        walked: dict[tuple[int, int], list] = {}
        for window, purchases in windows:
            walked.setdefault(window, []).append(purchases)
        paid = [pairs for pairs in prepared.purchases if pairs]
        assert 0 < len(paid) < len(users)
        assert walked == {window: paid for window in distinct}
        # One cell_of call per distinct (group, week) of each simulated table.
        delivered = Counter(
            key
            for art in prepared.simulations.values()
            for key in {key for *_, key in by_user(art.postbacks).values()}
        )
        assert Counter((group, iso_week(day)) for group, day in cells) == delivered
