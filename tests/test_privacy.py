from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from skattr.errors import ConfigError
from skattr.model import encode_alpha, organic_key
from skattr.postback import CountMatrix, empty_matrix
from skattr.privacy import PrivacyConfig, apply_threshold

COLUMNS = (encode_alpha(0, 0), encode_alpha(0, 1), organic_key(100))


def matrix_from(rows: dict[int, tuple[int, ...]], columns=COLUMNS) -> CountMatrix:
    m = empty_matrix("G", "2024-W01", columns)
    grid = [list(r) for r in m.rows]
    for v, row in rows.items():
        grid[v] = list(row)
    return replace(m, rows=tuple(tuple(r) for r in grid))


class TestApplyThreshold:
    def test_p0_identity(self):
        m = matrix_from({3: (5, 2, 1), 9: (1, 0, 0)})
        out = apply_threshold(m, PrivacyConfig(0))
        assert out.privacy_applied
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
        assert out.column_sums() == m.column_sums()
        # every row below the threshold: the null row holds all the mass
        sparse = matrix_from({3: (1, 0, 0), 7: (0, 1, 0)})
        out = apply_threshold(sparse, PrivacyConfig(5))
        assert out.suppressed == frozenset(range(64))
        assert out.null_row == sparse.column_sums() == (1, 1, 0)

    def test_reapplication_rejected(self):
        m = apply_threshold(matrix_from({1: (3, 3, 3)}), PrivacyConfig(2))
        with pytest.raises(ConfigError):
            apply_threshold(m, PrivacyConfig(2))

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            PrivacyConfig(-1)


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
    assert out.column_sums() == m.column_sums()
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
    fresh = CountMatrix(**{f.name: getattr(out, f.name) for f in fields(out)})
    assert out == fresh and hash(out) == hash(fresh)
    assert out.row_sums == fresh.row_sums
    assert m.privacy_applied is False and m.null_row is None  # the source is untouched
