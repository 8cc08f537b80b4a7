"""The postback view: one simulation's ``PostbackTable``, kept beside the dataset.

``skattr simulate`` writes the table it computed to
``postbacks-<key hash>.csv`` in the users file's directory, and
``attribute`` and ``evaluate`` read it back instead of reading
``events.csv`` and replaying every trace again. This is the developer's
side of SKAdNetwork: per user, the final conversion value, the delivery
instant, the (group, week) cell it counts in and the user's purchases. The
view is keyed by the users file's name and by the schema text, seed,
horizon and organic alpha of the counts or attribution file, so users
files that share a directory get one view each, and it records the sha256
of both dataset files; ``load_postback_view`` returns None, so the caller
simulates again, unless all of them match.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Mapping
from datetime import date
from pathlib import Path

from .errors import ConfigError, CsvFormatError
from .io_files import _csv_rows, _open_input, _write_csv, config_hash
from .model import US_PER_DAY, Cohort
from .postback import PostbackTable
from .schema import VALUE_RANGE

VIEW_FIELDS = (
    "id", "registration_date", "group", "alpha", "value", "sent_us", "week", "purchases"
)


def dataset_hashes(
    users_csv: str | Path, events_csv: str | Path | None
) -> dict[str, str | None]:
    """The sha256 of the users file and of the events file; None for a missing file.

    A path that exists but cannot be read, such as a directory, is a ``ConfigError``.
    """
    return {"users_sha256": _sha256(users_csv), "events_sha256": _sha256(events_csv)}


def _sha256(path: str | Path | None) -> str | None:
    if path is None or not Path(path).exists():
        return None
    digest = hashlib.sha256()
    with _open_input(Path(path), "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _view_key(users_csv: str | Path, meta: Mapping, organic_alpha: int | None) -> dict:
    """A postback view's key: the users file's name, ``meta``'s schema text, seed and
    horizon, and the organic alpha.

    Users files that share a directory and these values get one view each.
    """
    return {
        "kind": "postbacks",
        "users_file": Path(users_csv).name,
        "schema": meta["schema"],
        "seed": meta["seed"],
        "horizon": meta.get("horizon"),
        "organic_alpha": organic_alpha,
    }


def _view_path(users_csv: str | Path, key: Mapping) -> Path:
    return Path(users_csv).with_name(f"postbacks-{config_hash(key)}.csv")


def save_postback_view(
    users_csv: str | Path, meta: Mapping, hashes: Mapping, postbacks: PostbackTable
) -> None:
    """Write the postback view of one simulation beside the users file.

    The view is the developer's side of the simulation. Per cohort user, in
    cohort order, it holds the id, registration date, group, alpha, final
    value, delivery instant in microseconds, the week of the cell the
    postback counts in (empty after the horizon) and the purchases as
    ``microseconds:cents`` entries, one per digest instant. Its key is the
    users file's name, the counts ``meta``'s schema text, seed and horizon
    and the cohort's organic alpha; the key names the file and opens its
    meta line, followed by ``hashes`` (``dataset_hashes`` of the files the
    cohort was read from) and the row count. The file is written under a temporary name and then
    moved into place, so an interrupted write leaves nothing under the
    view's name.
    """
    cohort = postbacks.cohort
    key = _view_key(users_csv, meta, cohort.organic.alpha)
    path = _view_path(users_csv, key)
    labels, origins, weeks = cohort.group_labels, cohort.origins, postbacks.cell_keys
    rows = (
        (
            uid,
            date.fromordinal(midnight // US_PER_DAY).isoformat(),
            labels[group],
            origins[column].alpha,
            value,
            sent,
            weeks[cell][1] if cell >= 0 else "",
            " ".join(f"{us}:{cents}" for us, cents, n_purch, _ in digest if n_purch),
        )
        for uid, midnight, group, column, value, sent, cell, digest in zip(
            cohort.ids, cohort.midnight_us, cohort.group, cohort.column,
            postbacks.values, postbacks.sent_us, postbacks.cells, cohort.digests,
        )
    )
    view_meta = dict(key) | dict(hashes) | {"users": len(cohort.ids)}
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        _write_csv(tmp, view_meta, VIEW_FIELDS, rows)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_postback_view(
    users_csv: str | Path, events_csv: str | Path | None, meta: Mapping
) -> PostbackTable | None:
    """The postback table a counts or attribution file's ``meta`` was built from, or None.

    The table is read from the view ``save_postback_view`` wrote beside the
    users file, keyed by the users file's name and the meta's schema text,
    seed, horizon and organic alpha. None when there is no such view, or
    when its meta line does not carry that key and the ``dataset_hashes``
    of the files as they are now; the caller then simulates again. A view that matches but holds a
    malformed row is a ``CsvFormatError`` naming its line. The table's
    cohort holds each user's purchases and no replay digests, so
    ``schema.simulate_traces`` refuses it.
    """
    key = _view_key(users_csv, meta, meta.get("organic_alpha"))
    path = _view_path(users_csv, key)
    if not path.exists():
        return None
    expected = dict(key) | dataset_hashes(users_csv, events_csv)
    ids: list[int] = []
    ordinals: list[int] = []
    groups: list[str] = []
    origins: list[tuple[bool, int]] = []
    purchases: list[tuple[tuple[int, int], ...]] = []
    values: list[int] = []
    cells: list[int] = []
    sent_us: list[int] = []
    cell_ids: dict[tuple[str, str], int] = {}
    organic = key["organic_alpha"]
    with _csv_rows(path, VIEW_FIELDS) as (view_meta, rows):
        if any(view_meta.get(k) != v for k, v in expected.items()):
            return None
        for line, row in rows:
            try:
                uid, reg, group, alpha, value, sent, week, bought = row
                alpha, value = int(alpha), int(value)
                if not group or alpha < 0 or not 0 <= value < VALUE_RANGE:
                    raise ValueError("group, alpha or value out of range")
                pairs, last = [], 0
                for entry in bought.split():
                    us, cents = map(int, entry.split(":"))
                    if us < last or cents <= 0:
                        raise ValueError(f"purchase entry {entry!r} out of order or not positive")
                    pairs.append((us // US_PER_DAY, cents))
                    last = us
                ids.append(int(uid))
                ordinals.append(date.fromisoformat(reg).toordinal())
                sent_us.append(int(sent))
            except ValueError as exc:
                raise CsvFormatError(f"{path}:{line}: bad postback view row: {exc}") from exc
            groups.append(group)
            origins.append((alpha == organic, alpha))
            purchases.append(tuple(pairs))
            values.append(value)
            cells.append(cell_ids.setdefault((group, week), len(cell_ids)) if week else -1)
    if len(ids) != view_meta.get("users"):
        raise CsvFormatError(
            f"{path}: {len(ids)} rows, but the meta line says {view_meta.get('users')!r}"
        )
    try:
        cohort = Cohort(ids, ordinals, groups, origins, None, purchases=purchases,
                        organic_alpha=organic)
    except ConfigError as exc:
        raise CsvFormatError(f"{path}: {exc}") from exc
    return PostbackTable(cohort, values, cells, sent_us, {i: k for k, i in cell_ids.items()})
