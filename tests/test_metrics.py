import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from skattr.errors import (
    AlignmentError,
    ConfigError,
    DegenerateBaselineError,
    DegenerateFitError,
    GridCellError,
    UndefinedWeightsError,
)
from skattr.attribution import AttributionFunction
from skattr.metrics import (
    aggregate_error,
    benchmark_matrix,
    normalize_vs_baseline,
    score_level,
    validate_windows,
    weekly_error,
    window_error_curve,
)
from skattr.model import CampaignKey, organic_key
from skattr.privacy import PrivacyConfig
from skattr.schema import prepare_users, schema_from_text
from skattr.synthgen import GenConfig, generate_dataset, homogeneous_fixture


class TestWeeklyError:
    def test_perfect_attribution(self):
        assert weekly_error({"a": 3, "b": 0}, {"a": 3, "b": 0}) == 0.0

    def test_hand_arithmetic(self):
        err = weekly_error({"a": 0, "b": 3}, {"a": 3, "b": 0})
        assert err == pytest.approx(math.sqrt(18))

    def test_one_dimensional(self):
        assert weekly_error({"a": 10}, {"a": 5}) == 5.0

    def test_domain_mismatch(self):
        with pytest.raises(AlignmentError):
            weekly_error({"a": 1}, {"b": 1})

    @given(
        st.dictionaries(st.integers(0, 5), st.integers(0, 10_000), min_size=1, max_size=6),
        st.dictionaries(st.integers(0, 5), st.integers(0, 10_000), min_size=1, max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    @example(a={0: 370, 1: 370}, b={0: 178, 1: 178})  # collinear: the sum rounds one ulp low
    def test_metric_properties(self, a, b):
        keys = set(a) | set(b)
        x = {k: a.get(k, 0) for k in keys}
        y = {k: b.get(k, 0) for k in keys}
        z = {k: 0 for k in keys}
        assert weekly_error(x, y) >= 0
        assert weekly_error(x, y) == weekly_error(y, x)
        assert (weekly_error(x, y) == 0) == (x == y)
        # Floats cannot meet an exact triangle inequality on collinear inputs.
        rhs = weekly_error(x, y) + weekly_error(y, z)
        assert weekly_error(x, z) <= rhs + 4 * math.ulp(rhs)


class TestAggregateError:
    def test_equal_weights(self):
        assert aggregate_error([(2.0, 1.0), (4.0, 1.0)]) == 3.0

    def test_zero_weight_week_ignored(self):
        assert aggregate_error([(7.0, 1.0), (99.0, 0.0)]) == 7.0

    def test_weighted_mean(self):
        assert aggregate_error([(3.0, 2.0), (6.0, 1.0)]) == pytest.approx(4.0)

    def test_all_zero_weights(self):
        with pytest.raises(UndefinedWeightsError):
            aggregate_error([(1.0, 0.0), (2.0, 0.0)])

    def test_between_min_and_max(self):
        weekly = [(2.0, 3.0), (9.0, 1.0), (4.0, 2.0)]
        agg = aggregate_error(weekly)
        assert min(e for e, _ in weekly) <= agg <= max(e for e, _ in weekly)


class TestScoreLevel:
    def test_weeks_missing_on_either_side_count_as_zero(self):
        a, b, org = CampaignKey(101), CampaignKey(205), organic_key(900)
        columns = (a, b, org)
        attributed = {"W1": {a: 300, b: 100}, "W3": {a: 50}}
        truth = {"W1": {a: 300, org: 100}, "W2": {b: 400}}
        weekly, agg = score_level(attributed, truth, columns, True, "campaign")
        assert weekly == (("W1", math.sqrt(2 * 100**2)), ("W2", 400.0), ("W3", 50.0))
        assert agg == pytest.approx((math.sqrt(2 * 100**2) * 400 + 400 * 400) / 800)
        # Networks 1 and 2 without the organic column.
        weekly, _ = score_level(attributed, truth, columns, False, "network")
        assert weekly == (("W1", 100.0), ("W2", 400.0), ("W3", 50.0))


class TestNormalize:
    def test_baseline_scores_zero(self):
        assert normalize_vs_baseline(5.0, 5.0) == 0.0

    def test_four_percent_worse(self):
        assert normalize_vs_baseline(1.04 * 7.0, 7.0) == pytest.approx(-4.0)

    def test_halved_error(self):
        assert normalize_vs_baseline(2.5, 5.0) == pytest.approx(50.0)

    def test_degenerate_baseline(self):
        with pytest.raises(DegenerateBaselineError):
            normalize_vs_baseline(1.0, 0.0)

    def test_strictly_decreasing_in_error(self):
        assert normalize_vs_baseline(1.0, 5.0) > normalize_vs_baseline(2.0, 5.0)


def small_dataset(seed=0, n=6000):
    cfg = GenConfig(n_users=n, n_weeks=4, event_horizon_days=45, seed=seed)
    return generate_dataset(cfg)[0]


PV = "kind=PV;layout=VVVVVV;horizon=30"
D7RR = "kind=RR;layout=TTTVVV;horizon=7"
UD = "kind=UD"


class TestBenchmarkMatrix:
    def test_baseline_only_grid_scores_zero(self):
        users = small_dataset()
        report = benchmark_matrix(users, [schema_from_text(PV)], [0], ["plain"], 30, seed=0)
        for cell in report.cells:
            assert cell.schema == "D30 PV"
            if cell.normalized_score is not None:
                assert cell.normalized_score == 0.0
            assert cell.aggregate_error >= 0

    def test_plain_equals_null_modes_at_p0(self):
        users = small_dataset(seed=1)
        report = benchmark_matrix(
            users, [schema_from_text(D7RR)], [0],
            ["plain", "null_uniform", "null_empirical"], 30, seed=1,
        )
        campaign = {c.mode: c.aggregate_error for c in report.cells if c.level == "campaign"}
        assert campaign["plain"] == campaign["null_uniform"] == campaign["null_empirical"]

    def test_plain_skipped_at_high_p(self):
        users = small_dataset(seed=1)
        report = benchmark_matrix(
            users, [schema_from_text(D7RR)], [0, 10], ["plain", "null_uniform"], 30, seed=1,
        )
        modes_at_10 = {c.mode for c in report.cells if c.p == 10}
        assert modes_at_10 == {"null_uniform"}

    def test_reproducible(self):
        users = small_dataset(seed=2)
        a = benchmark_matrix(users, [schema_from_text(PV), schema_from_text(UD)],
                             [0, 2], ["plain", "null_uniform"], 30, seed=2)
        b = benchmark_matrix(users, [schema_from_text(PV), schema_from_text(UD)],
                             [0, 2], ["plain", "null_uniform"], 30, seed=2)
        assert a.cells == b.cells

    def test_ud_scores_below_pv(self):
        users = small_dataset(seed=3, n=10_000)
        report = benchmark_matrix(users, [schema_from_text(PV), schema_from_text(UD)],
                                  [0], ["plain"], 30, seed=3)
        pv = report.cell("D30 PV", 0, "plain", None, "campaign")
        ud = report.cell("UD", 0, "plain", None, "campaign")
        assert ud.normalized_score < pv.normalized_score == 0.0

    def test_network_scores_beat_campaign_scores_on_average(self):
        # Errors partially cancel when campaigns aggregate to networks;
        # checked statistically across seeds, not per cell.
        diffs = []
        for seed in range(4):
            users = small_dataset(seed=seed, n=8000)
            report = benchmark_matrix(users, [schema_from_text(PV), schema_from_text(UD)],
                                      [0], ["plain"], 30, seed=seed)
            ud_c = report.cell("UD", 0, "plain", None, "campaign").normalized_score
            ud_n = report.cell("UD", 0, "plain", None, "network").normalized_score
            diffs.append(ud_n - ud_c)
        assert sum(diffs) / len(diffs) > 0

    def test_weekly_errors_populated(self):
        users = small_dataset(seed=4)
        report = benchmark_matrix(users, [schema_from_text(PV)], [0], ["plain"], 30, seed=4)
        cell = report.cell("D30 PV", 0, "plain", None, "campaign")
        assert len(cell.weekly_errors) >= 3
        assert report.metadata["beta"] == 11  # 10 campaigns + organic

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            benchmark_matrix(small_dataset(), [], [0], ["plain"], 30, seed=0)


@pytest.mark.parametrize("run", [
    lambda users, prepared: benchmark_matrix(
        users, [schema_from_text(PV)], [0, -1], ["plain"], 30, seed=0, prepared=prepared
    ),
    lambda users, prepared: window_error_curve(
        users, schema_from_text(D7RR), -1, "plain", [(0, 30)], seed=0, prepared=prepared
    ),
], ids=["grid", "window"])
def test_negative_p_rejected_before_simulating(run):
    users = small_dataset(n=300)
    prepared = prepare_users(users)
    with pytest.raises(ConfigError, match="privacy threshold must be >= 0"):
        run(users, prepared)
    assert prepared.simulations == {}


@pytest.mark.parametrize("build, value", [
    pytest.param(lambda: PrivacyConfig("2"), "'2'", id="p_str"),
    pytest.param(lambda: PrivacyConfig(True), "True", id="p_bool"),
    pytest.param(lambda: PrivacyConfig(2.0), "2.0", id="p_float"),
    pytest.param(lambda: AttributionFunction("null_convex", "0.5"), "'0.5'", id="lambda_str"),
    pytest.param(lambda: AttributionFunction("null_convex", True), "True", id="lambda_bool"),
    pytest.param(lambda: benchmark_matrix(small_dataset(n=300), [schema_from_text("kind=UD")],
                                          ["2"], ["plain"], 30, seed=1), "'2'", id="grid_p"),
    pytest.param(lambda: benchmark_matrix(small_dataset(n=300), [schema_from_text("kind=UD")],
                                          [0], ["plain"], "30", seed=1), "'30'", id="grid_t_str"),
    pytest.param(lambda: benchmark_matrix(small_dataset(n=300), [schema_from_text("kind=UD")],
                                          [0], ["plain"], True, seed=1), "True", id="grid_t_bool"),
    pytest.param(lambda: benchmark_matrix(small_dataset(n=300), [schema_from_text("kind=UD")],
                                          [0], ["plain"], 2.5, seed=1), "2.5", id="grid_t_float"),
    pytest.param(lambda: benchmark_matrix(small_dataset(n=300), ["kind=UD"], [0], ["plain"], 30,
                                          seed=1), "'kind=UD'", id="grid_schema_str"),
    pytest.param(lambda: window_error_curve(small_dataset(n=300), "kind=UD", 0, "plain", [(0, 30)],
                                            seed=0), "'kind=UD'", id="window_schema_str"),
])
def test_argument_of_the_wrong_type_is_a_config_error(build, value):
    with pytest.raises(ConfigError, match=f"got {re.escape(value)}$"):
        build()


def test_window_without_revenue_names_the_window():
    users = generate_dataset(GenConfig(n_users=300, n_weeks=2, event_horizon_days=35, seed=0))[0]
    with pytest.raises(UndefinedWeightsError, match=r"^window \[60, 90\): all week weights"):
        window_error_curve(users, schema_from_text("kind=UD"), 0, "plain", [(7, 14), (60, 90)],
                           seed=0)


def no_spender_dataset():
    cfg = GenConfig(n_users=300, n_weeks=2, event_horizon_days=35, seed=0, spender_rate=0.0)
    return generate_dataset(cfg)[0]


class TestGridCellError:
    def test_failing_cell_carries_coordinates(self):
        # No revenue at all: every week weighs zero, so the EV cell's
        # aggregate error is undefined.
        with pytest.raises(GridCellError) as info:
            benchmark_matrix(no_spender_dataset(), [schema_from_text("kind=EV;layout=CCCCCC")],
                             [0], ["plain"], 30, seed=0)
        exc = info.value
        assert (exc.schema, exc.p, exc.g, exc.lam) == ("EV", 0, "plain", None)
        assert "schema=EV, p=0, g=plain, lambda=None" in str(exc)
        assert isinstance(exc.__cause__, UndefinedWeightsError)

    def test_lambda_outside_the_unit_interval_carries_coordinates(self):
        with pytest.raises(GridCellError) as info:
            benchmark_matrix(small_dataset(n=300), [schema_from_text("kind=EV")], [10],
                             ["null_convex"], 30, seed=0, lambda_grid=(0.5, 1.5))
        exc = info.value
        assert (exc.schema, exc.p, exc.g, exc.lam) == ("EV", 10, "null_convex", 1.5)
        assert isinstance(exc.__cause__, ConfigError)

    def test_failing_schema_carries_its_label(self):
        # No spenders: PV bucket boundaries cannot be fitted, before any cell.
        with pytest.raises(GridCellError) as info:
            benchmark_matrix(no_spender_dataset(), [schema_from_text(PV)],
                             [0], ["plain"], 30, seed=0)
        exc = info.value
        assert (exc.schema, exc.p, exc.g, exc.lam) == ("D30 PV", None, None, None)
        assert str(exc).startswith("schema D30 PV: DegenerateFitError")
        assert isinstance(exc.__cause__, DegenerateFitError)


class TestExactZero:
    def test_pv_on_homogeneous_fixture(self):
        users = homogeneous_fixture(6, 5, None)
        report = benchmark_matrix(users, [schema_from_text(PV)], [0], ["plain"], 30, seed=0)
        for cell in report.cells:
            assert cell.aggregate_error == 0.0
            for _, err in cell.weekly_errors:
                assert err == 0.0


class TestWindowCurve:
    def test_paper_windows_validate(self):
        assert validate_windows([(7, 14), (14, 30), (30, 60), (60, 90)])

    @pytest.mark.parametrize("bad", [[(7, 7)], [(10, 5)], [(-1, 5)], [(0, 10), (5, 15)],
                                     [(7.5, 14)], [(7, 14.0)], [(False, 14)]])
    def test_invalid_windows(self, bad):
        with pytest.raises(ConfigError):
            validate_windows(bad)

    def test_full_window_matches_benchmark_cell(self):
        users = small_dataset(seed=5)
        schema = schema_from_text(D7RR)
        report = benchmark_matrix(users, [schema], [0], ["plain"], 30, seed=5)
        cell = report.cell("D7 RR", 0, "plain", None, "campaign")
        curve = window_error_curve(users, schema, 0, "plain", [(0, 30)], seed=5)
        assert curve[0].error == pytest.approx(cell.aggregate_error)

    def test_grid_artifacts_give_the_fresh_curve(self):
        users = small_dataset(seed=6, n=2000)
        schema = schema_from_text(D7RR)
        prepared = prepare_users(users)
        benchmark_matrix(users, [schema_from_text(PV), schema], [0, 10],
                         ["plain", "null_uniform"], 30, seed=6, prepared=prepared)
        simulated = dict(prepared.simulations)
        windows = [(7, 14), (14, 30)]
        for p, g in ((0, "plain"), (10, "null_uniform")):
            reused = window_error_curve(users, schema, p, g, windows, seed=6, prepared=prepared)
            assert reused == window_error_curve(users, schema, p, g, windows, seed=6)
        assert prepared.simulations == simulated

    def test_plain_rejected_with_threshold(self):
        users = small_dataset(seed=5)
        with pytest.raises(ConfigError):
            window_error_curve(users, schema_from_text(D7RR), 10, "plain", [(0, 30)], seed=5)
