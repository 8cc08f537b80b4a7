"""Deterministic RNG substreams.

All randomness in a run flows from one top-level seed through named
substreams so that per-entity draws are independent of processing order.
Stream identity is hashed with SHA-256, which is stable across platforms
and Python versions (unlike the builtin ``hash``).

A substream is the ``random.Random(hash64(seed, *path))`` the stdlib would
build, made without ``Random.__init__`` and ``Random.seed``, the two
pure-Python frames of that call: the object is allocated, seeded once by
the C seed that ``Random.seed`` delegates to for an int, and given
``gauss_next = None`` as ``Random.seed`` gives it. Before CPython 3.11 the C
allocation itself seeds from its argument, so there the second seeding is
left out. Either way its state, and every draw, are those of
``random.Random(hash64(seed, *path))``. The generator takes one substream
per user, and the postback delays at most one per (seed, user): only the
users whose delay can move their postback's cell, and the rest when a
table's ``sent_us`` is read.
"""

from __future__ import annotations

import _random
import hashlib
import random
import sys

_new = random.Random.__new__
_seed = _random.Random.seed


def hash64(*parts: object) -> int:
    """Map a path of labels to a stable 64-bit integer."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


if sys.version_info >= (3, 11):
    def substream(seed: int, *path: object) -> random.Random:
        """Return an independent ``random.Random`` for (seed, *path)."""
        key = hash64(seed, *path)
        rng = _new(random.Random, key)
        _seed(rng, key)
        rng.gauss_next = None
        return rng
else:
    # Here the C ``__new__`` also seeds from its argument, so ``_seed``
    # would seed a second time.
    def substream(seed: int, *path: object) -> random.Random:
        """Return an independent ``random.Random`` for (seed, *path)."""
        rng = _new(random.Random, hash64(seed, *path))
        rng.gauss_next = None
        return rng


def uniform_value(seed: int, *path: object) -> int:
    """Stable uniform draw in [0, 64) for (seed, *path): the UD schema's value."""
    return hash64(seed, *path) % 64
