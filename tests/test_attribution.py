import random
from dataclasses import replace
from datetime import date, datetime, timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skattr.attribution import (
    AttributionFunction,
    RevenueProfile,
    attribute_plain,
    attribute_with_null,
    estimate_bucket_means,
)
from skattr.errors import ConfigError, MissingProfileError
from skattr.model import Event, UserRecord, encode_alpha, organic_key
from skattr.postback import empty_matrix
from skattr.privacy import PrivacyConfig, apply_threshold
from skattr.schema import VALUE_RANGE

from oracles import (
    Postback,
    enumeration_expected_sq_error,
    enumeration_mean,
    fraction_attribute_plain,
    fraction_attribute_with_null,
    table_of,
)

MONDAY = date(2024, 1, 1)
T0 = datetime(2024, 1, 1, 10)
A, B, ORG = encode_alpha(0, 0), encode_alpha(0, 1), organic_key(100)


def matrix_from(rows, columns=(A, B, ORG)):
    m = empty_matrix("G", "2024-W01", columns)
    grid = [list(r) for r in m.rows]
    for v, row in rows.items():
        grid[v] = list(row)
    return replace(m, rows=tuple(tuple(r) for r in grid))


def profile(means, totals=None):
    fr = {v: Fraction(x) for v, x in means.items()}
    return RevenueProfile(means=fr, totals=totals or {v: 1 for v in means})


def spender(uid, cents, value=None):
    events = [Event(T0, "session")]
    if cents:
        events.append(Event(T0 + timedelta(hours=1), "purchase", amount=cents))
    return UserRecord(uid, MONDAY, A, tuple(events), "G")


class TestEstimateBucketMeans:
    def test_arithmetic_mean(self):
        users = [spender(0, 0), spender(1, 0), spender(2, 600)]
        pbs = [Postback(i, 4, T0 + timedelta(days=2), "G") for i in range(3)]
        prof = estimate_bucket_means(table_of(users, pbs), 30)
        assert prof.means[4] == Fraction(200)
        assert prof.totals[4] == 3

    def test_all_zero_revenue(self):
        users = [spender(i, 0) for i in range(4)]
        pbs = [Postback(i, 0, T0 + timedelta(days=2), "G") for i in range(4)]
        prof = estimate_bucket_means(table_of(users, pbs), 30)
        assert prof.means == {0: Fraction(0)}

    def test_single_user_value_63(self):
        users = [spender(0, 499)]
        pbs = [Postback(0, 63, T0 + timedelta(days=2), "G")]
        prof = estimate_bucket_means(table_of(users, pbs), 30)
        assert prof.means[63] == Fraction(499)
        assert prof.totals[63] == 1

    def test_users_without_postback_excluded(self):
        users = [spender(0, 100), spender(1, 900)]
        pbs = [Postback(0, 2, T0 + timedelta(days=2), "G")]
        prof = estimate_bucket_means(table_of(users, pbs), 30)
        assert prof.totals == {2: 1}
        assert prof.means[2] == Fraction(100)


class TestAttributePlain:
    def test_single_cell_product(self):
        m = matrix_from({4: (3, 0, 0)})
        out = attribute_plain(m, profile({4: 200}))
        assert out[A] == Fraction(600)
        assert out[B] == 0

    def test_all_zero_matrix(self):
        out = attribute_plain(matrix_from({}), profile({}))
        assert all(v == 0 for v in out.values())

    def test_matches_enumeration_mean(self):
        # bucket with revenues {100, 300} split one per campaign
        m = matrix_from({7: (1, 1, 0)})
        prof = profile({7: 200}, totals={7: 2})
        out = attribute_plain(m, prof)
        oracle = enumeration_mean({7: [100, 300]}, {7: {A: 1, B: 1}}, [A, B])
        assert out[A] == oracle[A] == Fraction(200)
        assert out[B] == oracle[B] == Fraction(200)

    def test_missing_profile(self):
        m = matrix_from({9: (1, 0, 0)})
        with pytest.raises(MissingProfileError):
            attribute_plain(m, profile({4: 100}))

    def test_rejects_loaded_null_row(self):
        m = apply_threshold(matrix_from({9: (1, 0, 0)}), PrivacyConfig(2))
        assert sum(m.null_row) == 1
        with pytest.raises(ConfigError):
            attribute_plain(m, profile({9: 100}))

    def test_accepts_privatized_with_empty_null(self):
        m = apply_threshold(matrix_from({9: (5, 0, 0)}), PrivacyConfig(2))
        out = attribute_plain(m, profile({9: 100}))
        assert out[A] == Fraction(500)


class TestAttributeWithNull:
    def test_p0_reduces_to_plain(self):
        raw = matrix_from({4: (3, 1, 2), 9: (1, 0, 1)})
        prof = profile({4: 200, 9: 50}, totals={4: 6, 9: 2})
        privatized = apply_threshold(raw, PrivacyConfig(0))
        for mode, lam in (("null_uniform", 0.0), ("null_empirical", 1.0), ("null_convex", 0.5)):
            out = attribute_with_null(privatized, prof, AttributionFunction(mode, lam))
            assert out == attribute_plain(raw, prof)

    def test_uniform_split(self):
        cols = tuple(encode_alpha(0, c) for c in range(4))
        m = replace(empty_matrix("G", "w", cols), suppressed=frozenset({5}),
                    null_row=(0, 0, 0, 0))
        prof = profile({5: 100}, totals={5: 8})
        out = attribute_with_null(m, prof, AttributionFunction("null_uniform"))
        assert all(out[c] == Fraction(200) for c in cols)

    def test_empirical_split(self):
        cols = tuple(encode_alpha(0, c) for c in range(4))
        m = replace(empty_matrix("G", "w", cols), suppressed=frozenset({5}),
                    null_row=(3, 1, 0, 0))
        prof = profile({5: 100}, totals={5: 8})
        out = attribute_with_null(m, prof, AttributionFunction("null_empirical"))
        assert out[cols[0]] == Fraction(600)
        assert out[cols[1]] == Fraction(200)
        assert out[cols[2]] == out[cols[3]] == 0

    def test_empty_null_row_falls_back_to_uniform(self):
        cols = tuple(encode_alpha(0, c) for c in range(4))
        m = replace(empty_matrix("G", "w", cols), suppressed=frozenset({5}),
                    null_row=(0, 0, 0, 0))
        prof = profile({5: 100}, totals={5: 8})
        out = attribute_with_null(m, prof, AttributionFunction("null_empirical"))
        assert all(out[c] == Fraction(200) for c in cols)

    def test_missing_totals_for_suppressed_value(self):
        m = apply_threshold(matrix_from({9: (1, 0, 0)}), PrivacyConfig(2))
        prof = RevenueProfile(means={9: Fraction(100)}, totals={})
        with pytest.raises(MissingProfileError):
            attribute_with_null(m, prof, AttributionFunction("null_uniform"))

    def test_requires_privatized_matrix(self):
        with pytest.raises(ConfigError):
            attribute_with_null(matrix_from({}), profile({}), AttributionFunction("null_uniform"))

    def test_rejects_plain(self):
        m = apply_threshold(matrix_from({9: (5, 0, 0)}), PrivacyConfig(2))
        with pytest.raises(ConfigError):
            attribute_with_null(m, profile({9: 100}), AttributionFunction("plain"))

    def test_lambda_validation(self):
        with pytest.raises(ConfigError):
            AttributionFunction("null_convex", lam=1.5)
        with pytest.raises(ConfigError):
            AttributionFunction("nonsense")


class TestAttributionFunction:
    @pytest.mark.parametrize(
        "mode, lam, resolved",
        [
            ("plain", None, 0.0),
            ("plain", 0.0, 0.0),
            ("null_uniform", None, 0.0),
            ("null_uniform", 0, 0.0),
            ("null_empirical", None, 1.0),
            ("null_empirical", 1.0, 1.0),
            ("null_convex", None, 0.0),
            ("null_convex", 0.3, 0.3),
            ("null_convex", 1, 1.0),
        ],
    )
    def test_lambda_resolved_once(self, mode, lam, resolved):
        fn = AttributionFunction(mode, lam)
        assert fn.lam == resolved and isinstance(fn.lam, float)
        assert fn == AttributionFunction(mode, resolved)

    @pytest.mark.parametrize(
        "mode, lam", [("plain", 0.9), ("null_uniform", 0.5), ("null_empirical", 0.2)]
    )
    def test_lambda_contradicting_the_mode_rejected(self, mode, lam):
        with pytest.raises(ConfigError):
            AttributionFunction(mode, lam)


@st.composite
def small_instance(draw):
    n_users = draw(st.integers(1, 12))
    n_campaigns = draw(st.integers(1, 3))
    campaigns = [encode_alpha(0, c) for c in range(n_campaigns)]
    users = []
    for uid in range(n_users):
        users.append(
            (
                draw(st.sampled_from(campaigns)),
                draw(st.integers(0, 3)),  # conversion value
                draw(st.integers(0, 5000)),  # window revenue in cents
            )
        )
    return campaigns, users


def instance_pieces(campaigns, users):
    """CountMatrix + exact profile + truth from a raw instance description."""
    counts: dict[int, dict] = {}
    sums: dict[int, int] = {}
    ns: dict[int, int] = {}
    truth = {k: 0 for k in campaigns}
    for key, v, r in users:
        counts.setdefault(v, {k: 0 for k in campaigns})[key] += 1
        sums[v] = sums.get(v, 0) + r
        ns[v] = ns.get(v, 0) + 1
        truth[key] += r
    rows = {v: tuple(counts[v][k] for k in campaigns) for v in counts}
    m = matrix_from(rows, columns=tuple(campaigns))
    prof = RevenueProfile(
        means={v: Fraction(sums[v], ns[v]) for v in ns},
        totals=dict(ns),
    )
    return m, prof, truth


@given(inst=small_instance())
@settings(max_examples=100, deadline=None)
def test_conservation_any_p_any_lambda(inst):
    campaigns, users = inst
    m, prof, _ = instance_pieces(campaigns, users)
    total = sum(r for _, _, r in users)
    for p in (0, 2, 5):
        privatized = apply_threshold(m, PrivacyConfig(p))
        for lam in (0.0, 0.3, 1.0):
            out = attribute_with_null(privatized, prof, AttributionFunction("null_convex", lam))
            assert sum(out.values()) == Fraction(total)


@given(inst=small_instance(), k=st.integers(2, 9))
@settings(max_examples=60, deadline=None)
def test_scale_equivariance(inst, k):
    campaigns, users = inst
    m, prof, _ = instance_pieces(campaigns, users)
    scaled = [(key, v, r * k) for key, v, r in users]
    _, prof_k, _ = instance_pieces(campaigns, scaled)
    base = attribute_plain(m, prof)
    scaled_out = attribute_plain(m, prof_k)
    for key in campaigns:
        assert scaled_out[key] == k * base[key]


@st.composite
def kernel_case(draw):
    """A count matrix, a developer-side profile and an estimator.

    Rows with counts and all-zero rows with developer-side users both occur,
    so thresholds fold loaded rows and empty ones (an empty null row). Now
    and then one value's totals fall one short of its counts or its mean is
    missing.
    """
    n_cols = draw(st.integers(1, 4))
    columns = tuple(encode_alpha(0, c) for c in range(n_cols - 1)) + (organic_key(100),)
    values = draw(st.lists(st.integers(0, VALUE_RANGE - 1), min_size=1, max_size=8, unique=True))
    rows = {}
    for v in values:
        if draw(st.integers(0, 3)):
            rows[v] = tuple(draw(st.integers(0, 3)) for _ in columns)
    means = {
        v: Fraction(draw(st.integers(0, 10**7)), draw(st.integers(1, 5000))) for v in values
    }
    totals = {v: sum(rows.get(v, ())) + draw(st.integers(0, 2)) for v in values}
    broken = draw(st.sampled_from((None, None, None, None, "short", "missing")))
    victim = draw(st.sampled_from(values))
    if broken == "short":
        totals[victim] = max(0, sum(rows.get(victim, ())) - 1)
    elif broken == "missing":
        del means[victim]
    p = draw(st.sampled_from((0, 2, 5)))
    fn = AttributionFunction("null_convex", draw(st.sampled_from((0.0, 0.3, 0.5, 1.0))))
    matrix = matrix_from(rows, columns)
    return matrix, RevenueProfile(means=means, totals=totals), p, fn


def kernel_outcome(kernel, *args):
    try:
        return kernel(*args)
    except MissingProfileError as exc:
        return ("MissingProfileError", str(exc))


@given(case=kernel_case())
@settings(max_examples=500, deadline=None)
def test_integer_kernel_matches_fraction_reference(case):
    matrix, prof, p, fn = case
    plain = kernel_outcome(attribute_plain, matrix, prof)
    assert plain == kernel_outcome(fraction_attribute_plain, matrix, prof)
    privatized = apply_threshold(matrix, PrivacyConfig(p))
    out = kernel_outcome(attribute_with_null, privatized, prof, fn)
    assert out == kernel_outcome(fraction_attribute_with_null, privatized, prof, fn)
    if isinstance(out, dict):
        assert all(type(x) is Fraction for x in out.values())
        assert list(out) == list(matrix.columns)


def random_instance(rng):
    n_campaigns = rng.randint(1, 3)
    campaigns = [encode_alpha(0, c) for c in range(n_campaigns)]
    users = [
        (rng.choice(campaigns), rng.randrange(3), rng.randrange(0, 3000))
        for _ in range(rng.randint(1, 10))
    ]
    return campaigns, users


class TestEnumerationOptimality:
    def test_enumeration_equality_and_optimality(self):
        rng = random.Random(2024)
        for _ in range(40):
            campaigns, users = random_instance(rng)
            m, prof, _ = instance_pieces(campaigns, users)
            out = attribute_plain(m, prof)

            buckets: dict[int, list[int]] = {}
            counts: dict[int, dict] = {}
            for key, v, r in users:
                buckets.setdefault(v, []).append(r)
                counts.setdefault(v, {k: 0 for k in campaigns})[key] += 1
            mean = enumeration_mean(buckets, counts, campaigns)
            for k in campaigns:
                assert out[k] == mean[k]

            base_err = enumeration_expected_sq_error(buckets, counts, campaigns, out)
            for eps in (1, 10, 100):
                for sign in (1, -1):
                    perturbed = {
                        k: sum(
                            m.rows[v][j] * (prof.means[v] + sign * eps)
                            for v in prof.means
                            for j in [list(m.columns).index(k)]
                        )
                        for k in campaigns
                    }
                    err = enumeration_expected_sq_error(buckets, counts, campaigns, perturbed)
                    assert base_err <= err


class TestConvexMixBracket:
    def test_best_lambda_in_unit_interval(self):
        from skattr.metrics import weekly_error

        rng = random.Random(7)
        checked = 0
        for _ in range(60):
            campaigns, users = random_instance(rng)
            m, prof, truth = instance_pieces(campaigns, users)
            privatized = apply_threshold(m, PrivacyConfig(2))
            if sum(privatized.null_row) == 0:
                continue
            checked += 1
            errs = {}
            for lam in [i / 10 for i in range(11)]:
                out = attribute_with_null(privatized, prof, AttributionFunction("null_convex", lam))
                errs[lam] = weekly_error(out, truth)
            assert min(errs.values()) <= min(errs[0.0], errs[1.0]) + 1e-9
        assert checked >= 10
