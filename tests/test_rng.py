"""Substreams and the UD draw against references built from hashlib and random alone."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from skattr import rng
from skattr.rng import hash64, substream, uniform_values

from oracles import reference_hash64, reference_substream

LABELS = st.one_of(
    st.integers(0, 2**80),
    st.integers(-(2**80), -1),
    st.text(max_size=12),
)


@given(seed=st.one_of(st.integers(0, 2**64), st.integers(-(2**64), -1)),
       path=st.lists(LABELS, max_size=3))
@settings(max_examples=200, deadline=None)
def test_substream_is_the_reference(seed, path):
    """Same state, then the same draws, as ``random.Random`` seeded with the reference hash."""
    lib, ref = substream(seed, *path), reference_substream(seed, *path)
    assert lib.getstate() == ref.getstate()
    assert [lib.random() for _ in range(5)] == [ref.random() for _ in range(5)]
    assert [lib.getrandbits(k) for k in (1, 7, 32, 64, 100)] == [
        ref.getrandbits(k) for k in (1, 7, 32, 64, 100)
    ]
    # The second call returns the value the first one cached in ``gauss_next``.
    assert [lib.gauss(0.0, 1.0), lib.gauss(0.0, 1.0)] == [ref.gauss(0.0, 1.0), ref.gauss(0.0, 1.0)]
    assert lib.getstate() == ref.getstate()


@pytest.mark.parametrize(
    "parts", [(0, "user", 0), (1, "postback", 11999), (-7, "ud", "x"), (2**64, "user", -3)]
)
def test_substream_seeds_once(parts, monkeypatch):
    """The stdlib generator's state, seeded once: by ``__new__`` before 3.11, by ``_seed`` after."""
    keys = []
    seed = rng._seed

    def counting(generator, key):
        keys.append(key)
        seed(generator, key)

    monkeypatch.setattr(rng, "_seed", counting)
    assert substream(*parts).getstate() == random.Random(hash64(*parts)).getstate()
    assert keys == ([] if sys.version_info < (3, 11) else [hash64(*parts)])


@pytest.mark.parametrize("parts, expected", [
    ((0, "user", 0), 0x46974C07A29F2DB8),
    ((1, "postback", 11999), 0xD30378AF975439E0),
    ((-7, "ud", "x"), 0xBF1A376C7BCB72CB),
])
def test_hash64_pinned(parts, expected):
    assert hash64(*parts) == reference_hash64(*parts) == expected


@pytest.mark.parametrize("seed, uid, expected", [
    (0, 0, 49), (1, 5, 50), (9, 123, 45), (2**31 - 1, 49_999, 14),
])
def test_ud_value_pinned(seed, uid, expected):
    """One shared prefix hash, copied per id, gives each id its own ``hash64 % 64``."""
    assert uniform_values(seed, "ud", [uid]) == [hash64(seed, "ud", uid) % 64] == [expected]
    assert uniform_values(seed, "ud", [uid + 1, uid, uid]) == [
        hash64(seed, "ud", uid + 1) % 64, expected, expected
    ]


def test_ud_value_has_no_range_argument():
    """Every UD value is in [0, 64); no caller may pick another range."""
    with pytest.raises(TypeError):
        uniform_values(1, "ud", [5], n=-64)


@given(seed=st.one_of(st.integers(0, 2**64), st.integers(-(2**64), -1)),
       label=LABELS, ids=st.lists(LABELS, max_size=5))
@settings(max_examples=100, deadline=None)
def test_ud_values_are_the_reference_hash(seed, label, ids):
    assert uniform_values(seed, label, ids) == [
        reference_hash64(seed, label, uid) % 64 for uid in ids
    ]
