import random
from datetime import date, datetime, timedelta
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from skattr.attribution import (
    AttributionFunction,
    CellAttribution,
    attribute_plain,
    attribute_with_null,
    estimate_bucket_means_window,
)
from skattr.errors import ConfigError, MissingProfileError
from skattr.metrics import attribute_cells, check_estimator
from skattr.model import Event, UserRecord, datetime_to_us, encode_alpha, organic_key
from skattr.pipeline import run_schema
from skattr.postback import empty_matrix
from skattr.privacy import PrivacyConfig, apply_threshold
from skattr.schema import VALUE_RANGE, prepare_users, schema_from_text
from skattr.synthgen import GenConfig, generate_dataset

from oracles import (
    Postback,
    by_network,
    enumeration_expected_sq_error,
    enumeration_mean,
    fraction_attribute_plain,
    fraction_attribute_with_null,
    optimal_lambda,
    reference_attribute_plain,
    reference_attribute_with_null,
    squared_error,
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
    return m._replace(rows=tuple(tuple(r) for r in grid))


def means_of(means):
    return {v: Fraction(x) for v, x in means.items()}


def spender(uid, cents, value=None):
    events = [Event(datetime_to_us(T0), "session")]
    if cents:
        events.append(Event(datetime_to_us(T0 + timedelta(hours=1)), "purchase", amount=cents))
    return UserRecord(uid, MONDAY, A, tuple(events), "G")


# Every mode, and null_convex at each lambda the grid runs by default.
EVERY_ESTIMATOR = (
    AttributionFunction("plain"),
    AttributionFunction("null_uniform"),
    AttributionFunction("null_empirical"),
    *(AttributionFunction("null_convex", lam) for lam in (0.0, 0.5, 1.0)),
)


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
    """CountMatrix, exact bucket means, per-value totals and truth of a raw instance."""
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
    means = {v: Fraction(sums[v], ns[v]) for v in ns}
    return m, means, ns, truth


class TestEstimateBucketMeans:
    def test_arithmetic_mean(self):
        users = [spender(0, 0), spender(1, 0), spender(2, 600)]
        pbs = [Postback(i, 4, T0 + timedelta(days=2), "G") for i in range(3)]
        assert estimate_bucket_means_window(table_of(users, pbs), 0, 30) == {4: Fraction(200)}

    def test_all_zero_revenue(self):
        users = [spender(i, 0) for i in range(4)]
        pbs = [Postback(i, 0, T0 + timedelta(days=2), "G") for i in range(4)]
        assert estimate_bucket_means_window(table_of(users, pbs), 0, 30) == {0: Fraction(0)}

    def test_single_user_value_63(self):
        users = [spender(0, 499)]
        pbs = [Postback(0, 63, T0 + timedelta(days=2), "G")]
        assert estimate_bucket_means_window(table_of(users, pbs), 0, 30) == {63: Fraction(499)}

    def test_users_without_postback_excluded(self):
        users = [spender(0, 100), spender(1, 900)]
        pbs = [Postback(0, 2, T0 + timedelta(days=2), "G")]
        assert estimate_bucket_means_window(table_of(users, pbs), 0, 30) == {2: Fraction(100)}


class TestAttributePlain:
    def test_single_cell_product(self):
        m = matrix_from({4: (3, 0, 0)})
        out = attribute_plain(m, means_of({4: 200})).fractions()
        assert out[A] == Fraction(600)
        assert out[B] == 0

    def test_all_zero_matrix(self):
        out = attribute_plain(matrix_from({}), {}).fractions()
        assert all(v == 0 for v in out.values())

    def test_matches_enumeration_mean(self):
        # bucket with revenues {100, 300} split one per campaign
        m = matrix_from({7: (1, 1, 0)})
        out = attribute_plain(m, means_of({7: 200})).fractions()
        oracle = enumeration_mean({7: [100, 300]}, {7: {A: 1, B: 1}}, [A, B])
        assert out[A] == oracle[A] == Fraction(200)
        assert out[B] == oracle[B] == Fraction(200)

    def test_missing_profile(self):
        m = matrix_from({9: (1, 0, 0)})
        with pytest.raises(MissingProfileError):
            attribute_plain(m, means_of({4: 100}))

    def test_rejects_loaded_null_row(self):
        m = apply_threshold(matrix_from({9: (1, 0, 0)}), PrivacyConfig(2))
        assert sum(m.null_row) == 1
        with pytest.raises(ConfigError):
            attribute_plain(m, means_of({9: 100}))

    def test_accepts_privatized_with_empty_null(self):
        m = apply_threshold(matrix_from({9: (5, 0, 0)}), PrivacyConfig(2))
        out = attribute_plain(m, means_of({9: 100})).fractions()
        assert out[A] == Fraction(500)


class TestAttributeWithNull:
    @given(inst=small_instance())
    @example(inst=([A, B], []))  # no user: every row empty
    @settings(max_examples=100, deadline=None)
    def test_p0_reduces_to_plain(self, inst):
        """Below p=2 the threshold folds no user: every mode and lambda is the plain estimator.

        Each instance leaves most value rows empty, and p=1 relabels them
        suppressed; the totals still cover them with no user.
        """
        raw, means, totals, _ = instance_pieces(*inst)
        expected = attribute_plain(raw, means).cents()
        cell = (raw.group, raw.week)
        for p in (0, 1):
            privatized = apply_threshold(raw, PrivacyConfig(p))
            res = attribute_cells({cell: privatized}, means, {cell: totals})[cell]
            assert not any(res.b)
            for fn in EVERY_ESTIMATOR:
                assert res.cents(fn.lam) == expected, (p, fn)

    def test_uniform_split(self):
        cols = tuple(encode_alpha(0, c) for c in range(4))
        m = empty_matrix("G", "w", cols)._replace(p=1, null_row=(0, 0, 0, 0))
        out = attribute_with_null(m, means_of({5: 100}), {5: 8}).fractions(0.0)
        assert all(out[c] == Fraction(200) for c in cols)

    def test_empirical_split(self):
        cols = tuple(encode_alpha(0, c) for c in range(4))
        m = empty_matrix("G", "w", cols)._replace(p=2, null_row=(3, 1, 0, 0))
        out = attribute_with_null(m, means_of({5: 100}), {5: 8}).fractions(1.0)
        assert out[cols[0]] == Fraction(600)
        assert out[cols[1]] == Fraction(200)
        assert out[cols[2]] == out[cols[3]] == 0

    def test_empty_null_row_falls_back_to_uniform(self):
        cols = tuple(encode_alpha(0, c) for c in range(4))
        m = empty_matrix("G", "w", cols)._replace(p=1, null_row=(0, 0, 0, 0))
        res = attribute_with_null(m, means_of({5: 100}), {5: 8})
        assert not any(res.b)
        assert all(res.fractions(1.0)[c] == Fraction(200) for c in cols)

    def test_missing_totals_for_suppressed_value(self):
        m = apply_threshold(matrix_from({9: (1, 0, 0)}), PrivacyConfig(2))
        with pytest.raises(MissingProfileError):
            attribute_with_null(m, means_of({9: 100}), {})

    def test_negative_total_for_suppressed_value(self):
        m = apply_threshold(matrix_from({9: (1, 0, 0), 4: (3, 0, 0)}), PrivacyConfig(2))
        means = means_of({4: 100, 9: 100})
        fn = AttributionFunction("null_uniform")
        with pytest.raises(ConfigError, match="negative total for value 9"):
            attribute_with_null(m, means, {9: -1})
        with pytest.raises(ConfigError, match="negative total for value 9"):
            fraction_attribute_with_null(m, means, {9: -1}, fn)

    def test_totals_are_an_explicit_argument(self):
        m = apply_threshold(matrix_from({9: (1, 0, 0)}), PrivacyConfig(2))
        with pytest.raises(TypeError):
            attribute_with_null(m, means_of({9: 100}))

    def test_requires_privatized_matrix(self):
        with pytest.raises(ConfigError):
            attribute_with_null(matrix_from({}), {}, {})

    def test_rejects_plain(self):
        """The kernel reads no estimator; ``check_estimator`` refuses ``plain`` from p=2 up."""
        m = apply_threshold(matrix_from({9: (5, 0, 0)}), PrivacyConfig(6))
        plain = AttributionFunction("plain")
        with pytest.raises(TypeError):
            attribute_with_null(m, means_of({9: 100}), {9: 5}, plain)
        with pytest.raises(ConfigError, match="^plain attribution requires p < 2; pick a"):
            check_estimator(plain, 6)

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


@given(inst=small_instance())
@settings(max_examples=100, deadline=None)
def test_conservation_any_p_any_lambda(inst):
    campaigns, users = inst
    m, means, totals, _ = instance_pieces(campaigns, users)
    total = sum(r for _, _, r in users)
    for p in (0, 2, 5):
        res = attribute_with_null(apply_threshold(m, PrivacyConfig(p)), means, totals)
        assert sum(res.b) == 0
        for lam in (0.0, 0.3, 1.0):
            assert sum(res.fractions(lam).values()) == Fraction(total)


@given(inst=small_instance(), k=st.integers(2, 9))
@settings(max_examples=60, deadline=None)
def test_scale_equivariance(inst, k):
    campaigns, users = inst
    m, means, _, _ = instance_pieces(campaigns, users)
    scaled = [(key, v, r * k) for key, v, r in users]
    _, means_k, _, _ = instance_pieces(campaigns, scaled)
    base = attribute_plain(m, means).fractions()
    scaled_out = attribute_plain(m, means_k).fractions()
    for key in campaigns:
        assert scaled_out[key] == k * base[key]


@st.composite
def kernel_case(draw):
    """A count matrix, developer-side bucket means and totals, and an estimator.

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
    return matrix, means, totals, p, fn


def kernel_outcome(run):
    try:
        return run()
    except MissingProfileError as exc:
        return ("MissingProfileError", str(exc))


@given(case=kernel_case())
@settings(max_examples=500, deadline=None)
def test_integer_kernel_matches_fraction_reference(case):
    matrix, means, totals, p, fn = case
    plain = kernel_outcome(lambda: attribute_plain(matrix, means).fractions())
    assert plain == kernel_outcome(lambda: fraction_attribute_plain(matrix, means))
    privatized = apply_threshold(matrix, PrivacyConfig(p))
    out = kernel_outcome(lambda: attribute_with_null(privatized, means, totals).fractions(fn.lam))
    assert out == kernel_outcome(
        lambda: fraction_attribute_with_null(privatized, means, totals, fn)
    )
    if isinstance(out, dict):
        assert all(type(x) is Fraction for x in out.values())
        assert list(out) == list(matrix.columns)


@pytest.mark.parametrize("schema_text", ["kind=RR;layout=TTTVVV;horizon=7", "kind=EV"])
def test_conservation_with_pooled_means_and_cell_totals(schema_text):
    """Means fitted once over the cohort, totals per cell: each cell conserves its users.

    The pooled means rest on far more users than any cell holds, so an
    estimator that read the suppressed rows' user counts from anywhere but
    the cell would attribute more revenue than the cell carries. The
    kernel must match exactly; ``attribute_cells``, which rounds each
    campaign to cents, within half a cent per column.
    """
    users, _ = generate_dataset(GenConfig(n_users=1500, seed=5))
    artifacts = run_schema(prepare_users(users), schema_from_text(schema_text), 5)
    means = estimate_bucket_means_window(artifacts.postbacks, 0, 30)
    fns = [AttributionFunction(m, lam) for m, lam in
           (("null_uniform", None), ("null_empirical", None), ("null_convex", 0.5))]
    mismatches = []
    for p in (0, 2, 10):
        cfg = PrivacyConfig(p)
        matrices = {cell: apply_threshold(m, cfg) for cell, m in artifacts.matrices.items()}
        cells = attribute_cells(matrices, means, artifacts.cell_totals)
        for fn in fns:
            for cell, matrix in matrices.items():
                totals = artifacts.cell_totals[cell]
                expected = sum(means[v] * n for v, n in totals.items() if n)
                exact = sum(attribute_with_null(matrix, means, totals).fractions(fn.lam).values())
                rounded = sum(cells[cell].cents(fn.lam))
                if exact != expected or abs(rounded - expected) > Fraction(len(matrix.columns), 2):
                    mismatches.append((p, cell, fn.mode, exact, rounded, expected))
    assert mismatches == []


def random_instance(rng, networks=1):
    n_campaigns = rng.randint(1, 3)
    campaigns = [encode_alpha(c % networks, c) for c in range(n_campaigns)]
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
            m, means, _, _ = instance_pieces(campaigns, users)
            out = attribute_plain(m, means).fractions()

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
                            m.rows[v][j] * (means[v] + sign * eps)
                            for v in means
                            for j in [list(m.columns).index(k)]
                        )
                        for k in campaigns
                    }
                    err = enumeration_expected_sq_error(buckets, counts, campaigns, perturbed)
                    assert base_err <= err


class TestConvexMixBracket:
    def test_best_lambda_in_unit_interval(self):
        """The exact optimal lambda beats every grid lambda, at both levels, before rounding.

        Campaigns span two networks, so the network level is not one label.
        """
        rng = random.Random(7)
        checked = interior = 0
        for _ in range(60):
            campaigns, users = random_instance(rng, networks=2)
            m, means, totals, truth = instance_pieces(campaigns, users)
            privatized = apply_threshold(m, PrivacyConfig(2))
            if sum(privatized.null_row) == 0:
                continue
            checked += 1
            res = attribute_with_null(privatized, means, totals)
            y = [truth[k] for k in res.columns]
            levels = [(res.a, res.b, y), by_network(res.columns, res.a, res.b, y)]
            for a, b, yy in levels:
                star = optimal_lambda(a, b, res.den, yy)
                assert 0 <= star <= 1
                best = squared_error(a, b, res.den, yy, star)
                assert all(
                    best <= squared_error(a, b, res.den, yy, Fraction(k / 100)) for k in range(101)
                )
                interior += best < min(squared_error(a, b, res.den, yy, e) for e in (0, 1))
            # The cents the estimator writes are the kernel at lambda, rounded.
            for k in range(0, 101, 10):
                exact = res.fractions(k / 100)
                assert res.cents(k / 100) == [round(exact[c]) for c in res.columns]
        assert checked >= 10
        assert interior >= 2  # 4 of the 72 checks: lambda* strictly beats both endpoints


@st.composite
def affine_case(draw):
    """``kernel_case`` at a few float lambdas, and means on halves and quarters now and then."""
    matrix, means, totals, p, _ = draw(kernel_case())
    if draw(st.booleans()):
        means = {v: Fraction(draw(st.integers(0, 4000)), draw(st.sampled_from((1, 2, 4))))
                 for v in means}
    lams = draw(st.lists(st.floats(0, 1), min_size=1, max_size=4))
    return matrix, means, totals, p, lams


@given(case=affine_case())
@settings(max_examples=400, deadline=None)
def test_affine_kernel_matches_reference_kernels(case):
    """One lambda-free build gives, at every lambda, the reference kernels' Fractions.

    The reference null-aware kernel rebuilds its weights for each lambda.
    The cents are ``round()`` of those Fractions: half to even.
    """
    matrix, means, totals, p, lams = case
    plain = kernel_outcome(lambda: attribute_plain(matrix, means))
    expected = kernel_outcome(lambda: reference_attribute_plain(matrix, means))
    if not isinstance(plain, CellAttribution):  # a refusal; a CellAttribution is a tuple too
        assert plain == expected
    else:
        assert plain.fractions() == expected
        assert plain.cents() == [round(x) for x in expected.values()]
    privatized = apply_threshold(matrix, PrivacyConfig(p))
    res = kernel_outcome(lambda: attribute_with_null(privatized, means, totals))
    for lam in lams:
        fn = AttributionFunction("null_convex", lam)
        expected = kernel_outcome(
            lambda: reference_attribute_with_null(privatized, means, totals, fn)
        )
        if not isinstance(res, CellAttribution):
            assert res == expected
            continue
        assert res.fractions(lam) == expected
        assert list(expected) == list(res.columns)
        assert res.cents(lam) == [round(x) for x in expected.values()]


@given(q=st.integers(0, 10**9), lam=st.floats(0, 1))
@example(q=2, lam=0.5)
@example(q=3, lam=0.5)
@settings(max_examples=100, deadline=None)
def test_cents_round_half_cent_ties_to_even(q, lam):
    """A column at exactly q + 1/2 cents rounds to the even neighbour, as ``round()`` does."""
    half = Fraction(2 * q + 1, 2)
    plain = attribute_plain(matrix_from({4: (1, 0, 0)}), {4: half})
    assert plain.fractions()[A] == half
    # A suppressed value with an empty null row splits 2q + 1 cents over two columns.
    m = empty_matrix("G", "w", (A, B))._replace(p=1, null_row=(0, 0))
    split = attribute_with_null(m, {5: Fraction(2 * q + 1)}, {5: 1})
    assert split.fractions(lam) == {A: half, B: half}
    even = q if q % 2 == 0 else q + 1
    assert plain.cents()[0] == round(half) == even
    assert split.cents(lam) == [even, even]
