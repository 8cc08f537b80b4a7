"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. The trend criteria (5 and 6) share ten 50k-user datasets via
a module fixture and take a few minutes; everything else is fast.
"""

import random
import time
from contextlib import contextmanager
from datetime import timedelta
from fractions import Fraction

import pytest

from skattr.attribution import (
    attribute_plain,
    attribute_with_null,
    estimate_bucket_means_window,
)
from skattr.cli import main as cli_main
from skattr.metrics import benchmark_matrix, window_error_curve
from skattr.model import encode_alpha, organic_key
from skattr.pipeline import run_schema
from skattr.postback import empty_matrix
from skattr.privacy import PrivacyConfig, apply_threshold
from skattr.schema import prepare_users, schema_from_text, simulate_traces
from skattr.synthgen import GenConfig, generate_dataset

from oracles import (
    by_network,
    by_user,
    column_sums,
    enumeration_expected_sq_error,
    enumeration_mean,
    homogeneous_fixture,
    optimal_lambda,
    registration_midnight,
    scan_revenue,
    simulate_updates,
    squared_error,
)

WINDOWS = [(7, 14), (14, 30), (30, 60), (60, 90)]
TREND_SCHEMAS = [
    "kind=PV;layout=VVVVVV;horizon=30",
    "kind=RR;layout=TTTVVV;horizon=7",
    "kind=RI;layout=TTTCCC;horizon=7",
    "kind=RR;layout=TVVVVV;horizon=1",
    "kind=RI;layout=TCCCCC;horizon=1",
    "kind=EV;layout=CCCCCC",
    "kind=UD",
]
CONSERVATION_SCHEMAS = [
    "kind=EV;layout=CCCCCC",
    "kind=RR;layout=TVVVVV;horizon=1",
    "kind=RI;layout=TTTCCC;horizon=7",
    "kind=UD",
    "kind=PV;layout=VVVVVV;horizon=30",
]


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] C{number} {name}: FAIL")
        raise
    print(f"[acceptance] C{number} {name}: PASS")


def random_instance(rng: random.Random, networks: int = 1):
    campaigns = [encode_alpha(c % networks, c) for c in range(rng.randint(1, 3))]
    users = [
        (rng.choice(campaigns), rng.randrange(3), rng.randrange(0, 3000))
        for _ in range(rng.randint(1, 10))
    ]
    return campaigns, users


def instance_pieces(campaigns, users):
    counts: dict[int, dict] = {}
    sums: dict[int, int] = {}
    ns: dict[int, int] = {}
    truth = {k: 0 for k in campaigns}
    for key, v, r in users:
        counts.setdefault(v, {k: 0 for k in campaigns})[key] += 1
        sums[v] = sums.get(v, 0) + r
        ns[v] = ns.get(v, 0) + 1
        truth[key] += r
    m = empty_matrix("G", "w", tuple(campaigns))
    grid = [list(r) for r in m.rows]
    for v in counts:
        grid[v] = [counts[v][k] for k in campaigns]
    matrix = m._replace(rows=tuple(tuple(r) for r in grid))
    means = {v: Fraction(sums[v], ns[v]) for v in ns}
    return matrix, means, ns, truth, counts


def test_c1_enumeration_oracle_optimality():
    with criterion(1, "optimal plain attribution matches exhaustive enumeration"):
        rng = random.Random(20_240_101)
        start = time.monotonic()
        for _ in range(100):
            campaigns, users = random_instance(rng)
            matrix, means, _, _, counts = instance_pieces(campaigns, users)
            attributed = attribute_plain(matrix, means).fractions()

            buckets: dict[int, list[int]] = {}
            for key, v, r in users:
                buckets.setdefault(v, []).append(r)
            mean = enumeration_mean(buckets, counts, campaigns)
            for k in campaigns:
                # integer-cent exact equality of two exact rationals
                assert attributed[k] == mean[k]

            base = enumeration_expected_sq_error(buckets, counts, campaigns, attributed)
            col = {k: j for j, k in enumerate(matrix.columns)}
            for eps in (1, 10, 100):  # 1 cent, 10 cents, 1 USD
                for sign in (1, -1):
                    perturbed = {
                        k: sum(
                            matrix.rows[v][col[k]] * (means[v] + sign * eps)
                            for v in means
                        )
                        for k in campaigns
                    }
                    worse = enumeration_expected_sq_error(buckets, counts, campaigns, perturbed)
                    assert base <= worse
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s (limit 10s)"


def test_c2_conservation_full_grid():
    with criterion(2, "attributed revenue conserves total user revenue"):
        users, _ = generate_dataset(GenConfig(seed=77))
        assert len(users) == 50_000
        total = sum(scan_revenue(u, 30) for u in users)
        prepared = prepare_users(users)

        start = time.monotonic()
        for text in CONSERVATION_SCHEMAS:
            artifacts = run_schema(prepared, schema_from_text(text), 77)
            means = estimate_bucket_means_window(artifacts.postbacks, 0, 30)
            for p in (0, 2, 10, 100):
                cells = [
                    attribute_with_null(
                        apply_threshold(m, PrivacyConfig(p)), means, artifacts.cell_totals[cell]
                    )
                    for cell, m in artifacts.matrices.items()
                ]
                for lam in (0.0, 0.5, 1.0):
                    attributed = Fraction(0)
                    for res in cells:
                        attributed += sum(res.fractions(lam).values())
                    assert abs(attributed - total) <= 1, (
                        f"{text} p={p} lambda={lam}: {float(attributed - total)} cents off"
                    )
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"criterion 2 grid took {elapsed:.1f}s (limit 60s)"


def test_c3_privacy_gate_on_random_matrices():
    with criterion(3, "threshold preserves column sums and suppresses exactly below p"):
        rng = random.Random(33)
        columns = tuple(encode_alpha(0, c) for c in range(3)) + (organic_key(100),)
        for _ in range(1000):
            m = empty_matrix("G", "w", columns)
            grid = [list(r) for r in m.rows]
            for _ in range(rng.randrange(12)):
                v = rng.randrange(64)
                grid[v] = [rng.randrange(0, 12) for _ in columns]
            matrix = m._replace(rows=tuple(tuple(r) for r in grid))
            p = rng.choice([0, 1, 2, 3, 5, 10, 25])
            out = apply_threshold(matrix, PrivacyConfig(p))
            assert column_sums(out) == column_sums(matrix)
            for v in range(64):
                assert (v in out.suppressed) == (sum(matrix.rows[v]) < p)
            if p <= 1:
                assert out.rows == matrix.rows
                assert sum(out.null_row) == 0


def test_c4_exact_zero_on_homogeneous_fixture():
    with criterion(4, "omniscient schema attributes homogeneous buckets exactly"):
        users = homogeneous_fixture(8, 4, None)
        report = benchmark_matrix(
            users, [schema_from_text("kind=PV;layout=VVVVVV;horizon=30")],
            [0], ["plain"], 30, seed=0,
        )
        for cell in report.cells:
            assert cell.aggregate_error == 0.0
            for _, err in cell.weekly_errors:
                assert err == 0.0  # zero cents, exactly


@pytest.fixture(scope="module")
def trend_results():
    """Per-seed schema errors and window curves on the acceptance datasets."""
    schemas = [schema_from_text(s) for s in TREND_SCHEMAS]
    errors = []
    curves = []
    for seed in range(1, 11):
        users, _ = generate_dataset(GenConfig(seed=seed))
        prepared = prepare_users(users)
        report = benchmark_matrix(users, schemas, [0], ["plain"], 30,
                                  seed=seed, prepared=prepared)
        errors.append({
            c.schema: c.aggregate_error for c in report.cells if c.level == "campaign"
        })
        curve = window_error_curve(
            users, schemas[1], 0, "plain", WINDOWS, seed=seed, prepared=prepared
        )
        curves.append([w.error for w in curve])
    return errors, curves


def test_c5_schema_error_ordering(trend_results):
    with criterion(5, "error ordering PV <= D7 <= D1 <= EV <= UD across seeds"):
        errors, _ = trend_results
        assert len(errors) == 10
        hits = 0
        for e in errors:
            ok = (
                e["D30 PV"] <= min(e["D7 RR"], e["D7 RI"])
                and max(e["D7 RR"], e["D7 RI"]) <= min(e["D1 RR"], e["D1 RI"])
                and max(e["D1 RR"], e["D1 RI"]) <= e["EV"]
                and e["EV"] <= e["UD"]
            )
            hits += ok
        assert hits >= 8, f"ordering held in only {hits}/10 seeds"


def test_c6_window_curve_grows(trend_results):
    with criterion(6, "attribution error grows as the revenue window matures"):
        _, curves = trend_results
        assert len(curves) == 10
        means = [sum(c[i] for c in curves) / len(curves) for i in range(len(WINDOWS))]
        assert all(a <= b for a, b in zip(means, means[1:])), means


def test_c7_convex_lambda_bracket():
    with criterion(7, "the exact optimal lambda beats every grid lambda"):
        rng = random.Random(7_777)
        checked = interior = 0
        for _ in range(200):
            campaigns, users = random_instance(rng, networks=2)
            matrix, means, totals, truth, _ = instance_pieces(campaigns, users)
            privatized = apply_threshold(matrix, PrivacyConfig(2))
            if sum(privatized.null_row) == 0:
                continue
            checked += 1
            res = attribute_with_null(privatized, means, totals)
            y = [truth[k] for k in res.columns]
            # Campaign level, then the same vectors summed per network.
            for a, b, yy in ((res.a, res.b, y), by_network(res.columns, res.a, res.b, y)):
                star = optimal_lambda(a, b, res.den, yy)
                best = squared_error(a, b, res.den, yy, star)
                for k in range(101):
                    lam = Fraction(k / 100)
                    assert best <= squared_error(a, b, res.den, yy, lam), (star, k)
                interior += best < min(squared_error(a, b, res.den, yy, e) for e in (0, 1))
        assert checked >= 50
        # lambda* beats both endpoints strictly in 34 of the 250 checks.
        assert interior >= 10


def test_c8_mechanics(tmp_path):
    with criterion(8, "trace, postback and determinism mechanics"):
        users, _ = generate_dataset(GenConfig(n_users=4000, n_weeks=4,
                                              event_horizon_days=60, seed=12))
        prepared = prepare_users(users)
        by_group = {u.id: u.group for u in users}
        for text in TREND_SCHEMAS:
            artifacts = run_schema(prepared, schema_from_text(text), 12)
            finals, lasts = simulate_traces(prepared, artifacts.schema)
            traces = {u.id: simulate_updates(u, artifacts.schema) for u in users}
            delivered = by_user(artifacts.postbacks)
            assert len(finals) == len(lasts) == len(users)
            for u, final, last in zip(users, finals, lasts):
                trace = traces[u.id]
                last_us = (trace.last_commit - registration_midnight(u)) // timedelta(microseconds=1)
                assert (final, last) == (trace.final_value, last_us)
            for uid, trace in traces.items():
                values = [v for _, v in trace.committed]
                assert all(0 <= v <= 63 for v in values)
                assert all(a < b for a, b in zip(values, values[1:]))
                _, sent, (group, _) = delivered[uid]
                delta = (sent - trace.last_commit).total_seconds()
                assert 86_400 <= delta < 2 * 86_400
                assert group == by_group[uid]
            # every user lands in exactly one count cell (organic included)
            total_cells = sum(sum(column_sums(m)) for m in artifacts.matrices.values())
            assert total_cells == len(users)

        # identical seeds produce byte-identical end-to-end reports
        import json

        run_cfg = {
            "gen": {"n_users": 1500, "n_weeks": 2, "event_horizon_days": 40, "seed": 21},
            "schemas": ["kind=PV;layout=VVVVVV;horizon=30", "kind=UD"],
            "p_values": [0, 2],
            "g_modes": ["plain", "null_uniform"],
            "t": 30,
            "windows": [[7, 14], [14, 30]],
            "seed": 21,
        }
        (tmp_path / "run.json").write_text(json.dumps(run_cfg))
        assert cli_main(["benchmark", "--config", str(tmp_path / "run.json"),
                         "--out", str(tmp_path / "r1")]) == 0
        assert cli_main(["benchmark", "--config", str(tmp_path / "run.json"),
                         "--out", str(tmp_path / "r2")]) == 0
        for name in ("report.json", "grid.csv", "window_curve.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
