import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from skattr.attribution import attribute_with_null
from skattr.errors import ConfigError
from skattr.io_files import load_counts, save_counts
from skattr.model import encode_alpha, organic_key
from skattr.postback import CountMatrix, empty_matrix
from skattr.privacy import PrivacyConfig, apply_threshold

from oracles import column_sums

COLUMNS = (encode_alpha(0, 0), encode_alpha(0, 1), organic_key(100))


def matrix_from(rows: dict[int, tuple[int, ...]], columns=COLUMNS) -> CountMatrix:
    m = empty_matrix("G", "2024-W01", columns)
    grid = [list(r) for r in m.rows]
    for v, row in rows.items():
        grid[v] = list(row)
    return m._replace(rows=tuple(tuple(r) for r in grid))


class TestApplyThreshold:
    def test_p0_identity(self):
        m = matrix_from({3: (5, 2, 1), 9: (1, 0, 0)})
        out = apply_threshold(m, PrivacyConfig(0))
        assert out.p == 0 and out == m  # p=0 is the simulated matrix's own state
        assert out.rows == m.rows
        assert out.suppressed == frozenset()
        assert out.null_row == (0, 0, 0)

    def test_p1_relabels_only_empty_rows(self):
        m = matrix_from({3: (5, 2, 1)})
        out = apply_threshold(m, PrivacyConfig(1))
        assert out.rows[3] == (5, 2, 1)
        assert out.suppressed == frozenset(range(64)) - {3}
        assert out.null_row == (0, 0, 0)  # nothing real was folded

    def test_singleton_can_be_singled_out(self):
        # one user with a unique value; every other row is well-populated
        rows = {v: (10, 10, 10) for v in range(64)}
        rows[17] = (0, 1, 0)
        m = matrix_from(rows)
        out = apply_threshold(m, PrivacyConfig(2))
        assert out.suppressed == {17}
        assert out.rows[17] == (0, 0, 0)
        # the null row exposes exactly that user's column
        assert out.null_row == (0, 1, 0)

    def test_fold_and_sum(self):
        m = matrix_from({0: (1, 0, 0), 1: (2, 2, 1), 2: (1, 1, 1)})
        out = apply_threshold(m, PrivacyConfig(4))
        assert out.suppressed >= {0, 2}
        assert 1 not in out.suppressed
        assert out.null_row == (2, 1, 1)
        assert column_sums(out) == column_sums(m)
        # every row below the threshold: the null row holds all the mass
        sparse = matrix_from({3: (1, 0, 0), 7: (0, 1, 0)})
        out = apply_threshold(sparse, PrivacyConfig(5))
        assert out.suppressed == frozenset(range(64))
        assert out.null_row == column_sums(sparse) == (1, 1, 0)

    def test_reapplication_rejected(self):
        """A matrix whose p is not 0 went through a threshold already; its p is named."""
        for p in (1, 2, 10):
            m = apply_threshold(matrix_from({1: (3, 3, 4)}), PrivacyConfig(p))
            with pytest.raises(ConfigError, match=rf"^privacy threshold already applied to "
                                                  rf"this matrix \(p={p}\)$"):
                apply_threshold(m, PrivacyConfig(2))

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            PrivacyConfig(-1)


class TestThresholdOfAMatrix:
    """A matrix keeps its threshold p; the suppressed values are the rows it left empty.

    Every matrix has both: a simulated one is at p=0 with an all-zero null
    row, and one built without a null row gets that row and every check.
    """

    @pytest.mark.parametrize("changes, message", [
        pytest.param({"null_row": (0, 1, 0)}, "null row holds 1 users, but p=0 folds none",
                     id="null_row_without_p"),
        pytest.param({"p": 6}, "value 3 keeps 5 users, below p=6", id="p_without_null_row"),
        pytest.param({"p": True, "null_row": (0, 0, 0)},
                     "threshold p must be an integer >= 0, got True", id="p_bool"),
        pytest.param({"p": -1, "null_row": (0, 0, 0)},
                     "threshold p must be an integer >= 0, got -1", id="p_negative"),
        pytest.param({"p": 6, "null_row": (0, 0, 0)}, "value 3 keeps 5 users, below p=6",
                     id="row_below_p"),
        pytest.param({"p": 1, "null_row": (2, 0, 1)}, "null row holds 3 users, but p=1 folds none",
                     id="null_mass_at_p1"),
        pytest.param({"p": 0, "null_row": (0, 4, 0)}, "null row holds 4 users, but p=0 folds none",
                     id="null_mass_at_p0"),
    ])
    def test_refused(self, changes, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            matrix_from({3: (5, 0, 0)})._replace(**changes)

    def test_row_with_users_is_not_split_as_suppressed(self):
        """A row holding users is visible, so its value is credited to its own column."""
        m = matrix_from({3: (5, 0)}, COLUMNS[:2])._replace(p=1, null_row=(0, 0))
        assert m.suppressed == frozenset(range(64)) - {3}
        res = attribute_with_null(m, {3: Fraction(100)}, {3: 5})
        assert res.cents(0.0) == [500, 0]

    def test_one_threshold_per_counts_file(self, tmp_path):
        m = matrix_from({3: (5, 0, 0)})
        for other in (m, apply_threshold(m, PrivacyConfig(3))):
            cells = {("G", "2024-W01"): apply_threshold(m, PrivacyConfig(2)),
                     ("G", "2024-W02"): other._replace(week="2024-W02")}
            with pytest.raises(ConfigError, match="one privacy threshold only"):
                save_counts(tmp_path / "c.csv", cells, {})
        assert not (tmp_path / "c.csv").exists()


@st.composite
def random_matrix(draw):
    n_cols = draw(st.integers(1, 4))
    columns = tuple(encode_alpha(0, c) for c in range(n_cols - 1)) + (organic_key(100),)
    rows = {}
    for v in draw(st.sets(st.integers(0, 63), max_size=8)):
        rows[v] = tuple(draw(st.integers(0, 20)) for _ in range(n_cols))
    return matrix_from(rows, columns)


@given(m=random_matrix(), p=st.integers(0, 30))
@settings(max_examples=150, deadline=None)
def test_threshold_properties(m, p):
    out = apply_threshold(m, PrivacyConfig(p))
    # column sums preserved exactly
    assert column_sums(out) == column_sums(m)
    # a row is suppressed iff its pre-privacy total is below p; a suppressed
    # row reads zero and its counts are in the null row
    null = [0] * len(m.columns)
    for v in range(64):
        assert (v in out.suppressed) == (sum(m.rows[v]) < p)
        if v in out.suppressed:
            assert not any(out.rows[v])
            null = [a + b for a, b in zip(null, m.rows[v])]
        else:
            assert out.rows[v] == m.rows[v]
    assert out.null_row == tuple(null)
    # p < 2 changes no observable counts
    if p < 2:
        assert out.rows == m.rows
        assert sum(out.null_row) == 0



@given(m=random_matrix(), p=st.integers(0, 30))
@settings(max_examples=100, deadline=None)
def test_threshold_copy_equals_a_checked_matrix(m, p):
    """``apply_threshold`` skips the constructor's checks, so its copy must pass them."""
    out = apply_threshold(m, PrivacyConfig(p))
    fresh = CountMatrix(*out)
    assert out == fresh and hash(out) == hash(fresh)
    assert out.row_sums == fresh.row_sums
    assert m.p == 0 and m.null_row == (0,) * len(m.columns)  # the source is untouched


@given(m=random_matrix(), p=st.integers(0, 30))
@settings(max_examples=100, deadline=None)
def test_privatized_matrix_round_trips_through_the_counts_file(m, p):
    """The file holds the threshold, not one marker per suppressed value."""
    out = apply_threshold(m, PrivacyConfig(p))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        save_counts(path, {("G", "2024-W01"): out}, {})
        loaded, meta = load_counts(path)
        rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
    assert meta["p"] == p
    if not any(m.row_sums):
        # A cell without a user writes no row, so it does not come back; a simulated cell has one.
        assert loaded == {} and rows == []
        return
    assert loaded == {("G", "2024-W01"): out}
    assert loaded["G", "2024-W01"].suppressed == out.suppressed
    assert all(row[4] not in ("", "0") for row in rows)


@st.composite
def counts_file(draw):
    """One to three cells over one column set, each holding at least one user."""
    n_cols = draw(st.integers(1, 4))
    columns = tuple(encode_alpha(0, c) for c in range(n_cols - 1)) + (organic_key(100),)
    cells = {}
    for week in range(draw(st.integers(1, 3))):
        rows = {draw(st.integers(0, 63)): (1,) * n_cols}
        for v in draw(st.sets(st.integers(0, 63), max_size=8)) - set(rows):
            rows[v] = tuple(draw(st.integers(0, 20)) for _ in range(n_cols))
        cell = ("G", f"2024-W{week + 1:02d}")
        cells[cell] = matrix_from(rows, columns)._replace(week=cell[1])
    return cells


@given(cells=counts_file(), p=st.sampled_from((0, 1, 2, 10)))
@settings(max_examples=100, deadline=None)
def test_counts_file_round_trips_at_every_threshold(cells, p):
    """``load_counts(save_counts(m)) == m`` at p=0 too; the file holds no zero count or null entry."""
    out = {cell: apply_threshold(m, PrivacyConfig(p)) for cell, m in cells.items()}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        save_counts(path, out, {})
        loaded, meta = load_counts(path)
        text = path.read_text()
    assert loaded == out and meta["p"] == p
    assert f'"p": {p}' in text.splitlines()[0]
    rows = [line.split(",") for line in text.splitlines()[2:]]
    assert rows and all(count not in ("", "0") for *_, count in rows)
    nulls = sum(v == "null" for _, _, v, _, _ in rows)
    assert nulls == sum(map(bool, (c for m in out.values() for c in m.null_row)))
