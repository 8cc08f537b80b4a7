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
table's ``sent_us`` is read. The UD values take no substream: they are
``hash64(seed, "ud", uid) % 64``, hashed per cohort by ``uniform_values``.
"""

from __future__ import annotations

import _random
import hashlib
import random
import sys
from collections.abc import Iterable

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


def uniform_values(seed: int, label: object, ids: Iterable[object]) -> list[int]:
    """Stable uniform draws in [0, 64), ``hash64(seed, label, uid) % 64`` per ``uid`` in ``ids``.

    These are the UD schema's values. The hash of the shared prefix
    ``"{seed}:{label}:"`` is taken once and copied per id. ``hash64`` reads
    the digest's first eight bytes big-endian, so its low six bits are
    those of byte 7.
    """
    prefix = hashlib.sha256(f"{seed}:{label}:".encode("utf-8"))
    values = []
    for uid in ids:
        h = prefix.copy()
        h.update(str(uid).encode("utf-8"))
        values.append(h.digest()[7] & 63)
    return values
