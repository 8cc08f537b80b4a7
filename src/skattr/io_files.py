"""File formats: dataset CSVs, count matrices, attribution output, reports.

Every CSV starts with one comment line ``# skattr-meta {json}`` embedding at
least the seed and a config hash, so any output can be traced back to its
inputs and re-runs can be compared byte for byte. Dates are ISO-8601 and
money is integer cents in files, except attribution output which is the
USD decimal its consumers expect. CSVs are RFC-4180 with header rows.

Every loader reads its file in one pass through ``_csv_rows``, which checks
the meta line and header up front and then yields rows lazily, so no file
is held in memory as a list of rows. Events rows are read by one
generator, ``_event_rows``, for both dataset loaders: ``load_users`` builds
an ``Event`` from each row it yields, and ``load_cohort`` folds each into
its user's replay digest with ``schema.fold_event``, building no ``Event``
or ``UserRecord``. A row the generator refuses goes to
``_raise_row_error``, which runs every check in order and raises the typed
error, with the file and line, that names the first one the row fails.
Bytes that are not UTF-8 and fields over the csv size limit are reported
the same way, as ``CsvFormatError``. Only a user whose events are out of
order, or do not start with a session, sends ``load_cohort`` back to
``load_users`` and ``schema.prepare_users``, whose messages name it.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from datetime import date, datetime, time
from pathlib import Path
from typing import NoReturn, TextIO

from .errors import ConfigError, CsvFormatError, ReferentialError
from .metrics import AttributionReport, WindowPoint
from .model import (
    EVENT_KINDS,
    MICROSECOND,
    CampaignKey,
    Cohort,
    Event,
    UserRecord,
    check_event,
    organic_key,
    usd,
)
from .postback import CountMatrix
from .schema import VALUE_RANGE, fold_event, prepare_users

META_PREFIX = "# skattr-meta "

USER_FIELDS = ("id", "registration_date", "alpha", "group")
EVENT_FIELDS = ("user_id", "timestamp", "kind", "amount_cents", "flag_index")
COUNT_FIELDS = ("group", "week", "conversion_value", "alpha", "count")
ATTR_FIELDS = ("group", "week", "alpha", "attributed_usd")


def config_hash(params: object) -> str:
    """Short stable hash of any JSON-serializable parameter bundle."""
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _write_csv(path: Path, meta: Mapping, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(META_PREFIX + json.dumps(dict(meta), sort_keys=True, default=str) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@contextmanager
def _csv_rows(
    path: Path, expected_header: Sequence[str]
) -> Iterator[tuple[dict, Iterator[tuple[int, list[str]]]]]:
    """Open a CSV, check its meta line and header, and give ``(meta, rows)``.

    ``rows`` lazily yields ``(line_number, row)`` for each non-blank record.
    The file is closed when the ``with`` block exits, also when the caller
    raises part way through it; a suspended ``rows`` kept alive by that
    traceback then holds only a closed file.
    """
    if not path.exists():
        raise ConfigError(f"input file {path} does not exist")
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            first = fh.readline()
            line_no = 1
            if first.startswith(META_PREFIX):
                try:
                    meta = json.loads(first[len(META_PREFIX):])
                except json.JSONDecodeError as exc:
                    raise CsvFormatError(f"{path}:1: bad meta line: {exc}") from exc
                if not isinstance(meta, dict):
                    raise CsvFormatError(f"{path}:1: meta line is not a JSON object")
                header_line = fh.readline()
                line_no = 2
            else:
                meta = {}
                header_line = first
            header = next(csv.reader([header_line])) if header_line else []
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from exc
        except csv.Error as exc:
            raise CsvFormatError(f"{path}:{line_no}: {exc}") from exc
        if header != list(expected_header):
            raise CsvFormatError(
                f"{path}:{line_no}: expected header {','.join(expected_header)}, "
                f"got {','.join(header)}"
            )
        yield meta, _records(fh, path, line_no)


def _records(fh: TextIO, path: Path, line_no: int) -> Iterator[tuple[int, list[str]]]:
    try:
        for row in csv.reader(fh):
            line_no += 1
            if row:
                yield line_no, row
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from exc
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise CsvFormatError(f"{path}:{line_no + 1}: {exc}") from exc


def _undecodable(path: Path, exc: UnicodeDecodeError) -> CsvFormatError:
    """The error for a file that is not UTF-8, naming its first bad line.

    The text reader decodes whole chunks ahead of the line it returns, so
    the line is found by reading the file again with the bad bytes escaped.
    """
    line_no = 0
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, text in enumerate(fh, 1):
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:
                break
    return CsvFormatError(f"{path}:{line_no}: not UTF-8 text: {exc.reason}")


def _parse_int(text: str, path: Path, line: int, field: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise CsvFormatError(f"{path}:{line}: {field} must be an integer, got {text!r}") from exc


def save_users(path: str | Path, users: Sequence[UserRecord], meta: Mapping) -> None:
    rows = [
        (u.id, u.registration_date.isoformat(), u.origin.alpha, u.group)
        for u in sorted(users, key=lambda u: u.id)
    ]
    _write_csv(Path(path), meta, USER_FIELDS, rows)


def save_events(path: str | Path, users: Sequence[UserRecord], meta: Mapping) -> None:
    rows = []
    for u in sorted(users, key=lambda u: u.id):
        for e in u.events:
            rows.append(
                (
                    u.id,
                    e.timestamp.isoformat(),
                    e.kind,
                    e.amount if e.amount is not None else "",
                    e.flag_index if e.flag_index is not None else "",
                )
            )
    _write_csv(Path(path), meta, EVENT_FIELDS, rows)


def load_users(
    user_csv: str | Path,
    events_csv: str | Path | None = None,
    organic_alpha: int | None = None,
) -> tuple[list[UserRecord], dict]:
    """Load and validate the user table, attaching events when given.

    The organic sentinel comes from the argument or the file meta; rows with
    alpha beyond the sentinel are rejected (the combined id space is bounded
    by it). An empty or missing events file yields zero-revenue users. Each
    events row comes from ``_event_rows``; a user whose events are out of
    order, or start before registration, is a ``CsvFormatError`` naming
    the events file.
    """
    upath = Path(user_csv)
    raw, meta, organic_alpha = _user_rows(upath, organic_alpha)
    events: dict[int, list[Event]] = {uid: [] for uid in raw}
    for uid, ts, kind, amount, flag_index in _event_rows(events_csv, raw):
        events[uid].append(Event(ts, kind, amount, flag_index))

    users: list[UserRecord] = []
    for uid in sorted(raw):
        reg, alpha, group = raw[uid]
        origin = organic_key(alpha) if alpha == organic_alpha else CampaignKey(alpha)
        try:
            users.append(
                UserRecord(
                    id=uid,
                    registration_date=reg,
                    origin=origin,
                    events=tuple(events[uid]),
                    group=group,
                )
            )
        except ConfigError as exc:  # only a user with events fails, so there is a file
            raise CsvFormatError(f"{Path(events_csv)}: {exc}") from exc
    return users, meta


def _user_rows(
    upath: Path, organic_alpha: int | None
) -> tuple[dict[int, tuple[date, int, str]], dict, int | None]:
    """The users file as ``{id: (registration date, alpha, group)}``, its meta and the sentinel."""
    raw: dict[int, tuple[date, int, str]] = {}
    with _csv_rows(upath, USER_FIELDS) as (meta, rows):
        _check_organic_alpha(upath, meta)
        if organic_alpha is None:
            organic_alpha = meta.get("organic_alpha")
        for line, row in rows:
            if len(row) != len(USER_FIELDS):
                raise CsvFormatError(f"{upath}:{line}: expected {len(USER_FIELDS)} columns")
            uid = _parse_int(row[0], upath, line, "id")
            try:
                reg = date.fromisoformat(row[1])
            except ValueError as exc:
                raise CsvFormatError(f"{upath}:{line}: bad registration_date {row[1]!r}") from exc
            alpha = _parse_int(row[2], upath, line, "alpha")
            if alpha < 0:
                raise CsvFormatError(f"{upath}:{line}: alpha must be >= 0")
            if organic_alpha is not None and alpha > organic_alpha:
                raise ReferentialError(
                    f"{upath}:{line}: alpha {alpha} exceeds the organic sentinel {organic_alpha}"
                )
            if not row[3]:
                raise CsvFormatError(f"{upath}:{line}: group must be non-empty")
            if uid in raw:
                raise CsvFormatError(f"{upath}:{line}: duplicate user id {uid}")
            raw[uid] = (reg, alpha, row[3])
    return raw, meta, organic_alpha


def load_cohort(
    user_csv: str | Path,
    events_csv: str | Path | None = None,
    organic_alpha: int | None = None,
) -> Cohort:
    """The dataset's ``Cohort``, reading each CSV once, with no ``Event`` or ``UserRecord``.

    The result, or the error, is that of
    ``schema.prepare_users(load_users(user_csv, events_csv, organic_alpha)[0])``.
    Each row from ``_event_rows`` is folded into its user's digest by
    ``schema.fold_event``, so a bad row raises its own error in this pass.
    Only when some user's events are out of order, or do not start with a
    session, is the dataset read again by that checked path, whose
    ``UserRecord`` and ``prepare_user`` name the defect.
    """
    upath = Path(user_csv)
    raw, _, sentinel = _user_rows(upath, organic_alpha)
    digests: dict[int, list[tuple[int, int, int, int]]] = {uid: [] for uid in raw}
    prev = None
    for uid, ts, kind, amount, flag_index in _event_rows(events_csv, raw):
        if uid != prev:
            digest, start, prev = digests[uid], datetime.combine(raw[uid][0], time.min), uid
        if not fold_event(digest, (ts - start) // MICROSECOND, kind, amount, flag_index):
            break
    else:
        if all(digests.values()):
            ids = sorted(raw)
            rows = [raw[uid] for uid in ids]
            return Cohort(
                ids,
                [reg.toordinal() for reg, _, _ in rows],
                [group for _, _, group in rows],
                [(alpha == sentinel, alpha) for _, alpha, _ in rows],
                [tuple(digests[uid]) for uid in ids],
            )
    return prepare_users(load_users(user_csv, events_csv, organic_alpha)[0])


def _event_rows(
    events_csv: str | Path | None, users: Mapping[int, object]
) -> Iterator[tuple[int, datetime, str, int | None, int | None]]:
    """``(user id, timestamp, kind, amount, flag_index)`` of each events row, in file order.

    Nothing when there is no events file. A row must name a known user, a
    naive ISO timestamp and integer fields that ``model.check_event``
    accepts; the first row that does not is handed to ``_raise_row_error``.
    """
    if events_csv is None or not Path(events_csv).exists():
        return
    path = Path(events_csv)
    parse_ts = datetime.fromisoformat
    uid_text = None
    with _csv_rows(path, EVENT_FIELDS) as (_, rows):
        for line, row in rows:
            # The file is grouped by user, so the user id is parsed and looked
            # up only when its text changes.
            try:
                row_uid, ts_text, kind, amount, flag_index = row
                if row_uid != uid_text:
                    uid = int(row_uid)
                    if uid not in users:
                        raise KeyError(uid)
                    uid_text = row_uid
                ts = parse_ts(ts_text)
                amount = int(amount) if amount else None
                flag_index = int(flag_index) if flag_index else None
                check_event(kind, amount, flag_index)
                valid = ts.tzinfo is None
            except (ValueError, KeyError):  # ConfigError is a ValueError
                valid = False
            if not valid:
                _raise_row_error(path, line, row, users)
            yield uid, ts, kind, amount, flag_index


def _raise_row_error(path: Path, line: int, row: list[str], users: Mapping) -> NoReturn:
    """Raise the error, with the file and line, naming the first check an events row fails."""
    if len(row) != len(EVENT_FIELDS):
        raise CsvFormatError(f"{path}:{line}: expected {len(EVENT_FIELDS)} columns")
    uid = _parse_int(row[0], path, line, "user_id")
    if uid not in users:
        raise ReferentialError(f"{path}:{line}: event references unknown user {uid}")
    try:
        ts = datetime.fromisoformat(row[1])
    except ValueError as exc:
        raise CsvFormatError(f"{path}:{line}: bad timestamp {row[1]!r}") from exc
    if ts.tzinfo is not None:
        raise CsvFormatError(f"{path}:{line}: timestamp {row[1]!r} has a UTC offset")
    kind = row[2]
    if kind not in EVENT_KINDS:  # named before a malformed number
        raise CsvFormatError(f"{path}:{line}: unknown event kind {kind!r}")
    amount = _parse_int(row[3], path, line, "amount_cents") if row[3] else None
    flag_index = _parse_int(row[4], path, line, "flag_index") if row[4] else None
    try:
        check_event(kind, amount, flag_index)
    except ConfigError as exc:
        raise CsvFormatError(f"{path}:{line}: {exc}") from exc
    raise AssertionError(f"{path}:{line}: events row refused, yet it passes every check")


def save_dataset(out_dir: str | Path, users: Sequence[UserRecord], meta: Mapping) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "users": out / "users.csv",
        "events": out / "events.csv",
        "meta": out / "meta.json",
    }
    save_users(paths["users"], users, meta)
    save_events(paths["events"], users, meta)
    with open(paths["meta"], "w", encoding="utf-8") as fh:
        json.dump(dict(meta), fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return paths


def save_counts(
    path: str | Path,
    matrices: Mapping[tuple[str, str], CountMatrix],
    meta: Mapping,
) -> None:
    """Write count matrices; suppressed cells are empty, the null row explicit."""
    first = next(iter(matrices.values()), None)
    full_meta = dict(meta)
    if first is not None:
        # The matrices are the source of truth for structural metadata.
        full_meta["columns"] = [k.alpha for k in first.columns]
        org = [k.alpha for k in first.columns if k.organic]
        if org:
            full_meta["organic_alpha"] = org[0]
        full_meta["privacy_applied"] = first.privacy_applied
    rows = []
    for (group, week) in sorted(matrices):
        m = matrices[(group, week)]
        for v in range(VALUE_RANGE):
            suppressed = v in m.suppressed
            for j, key in enumerate(m.columns):
                count = m.rows[v][j]
                if suppressed:
                    rows.append((group, week, v, key.alpha, ""))
                elif count:
                    rows.append((group, week, v, key.alpha, count))
        if m.null_row is not None:
            for j, key in enumerate(m.columns):
                rows.append((group, week, "null", key.alpha, m.null_row[j]))
    _write_csv(Path(path), full_meta, COUNT_FIELDS, rows)


def _check_columns(path: Path, meta: Mapping) -> None:
    """Check the meta line's ``columns`` and ``organic_alpha``.

    ``columns`` must be a list of distinct alphas (integers >= 0) and
    ``organic_alpha``, when present, an integer.
    """
    columns = meta["columns"]
    if (
        not isinstance(columns, list)
        or not all(type(a) is int and a >= 0 for a in columns)
        or len(set(columns)) != len(columns)
    ):
        raise CsvFormatError(
            f"{path}:1: meta columns must be a list of distinct integers >= 0, got {columns!r}"
        )
    _check_organic_alpha(path, meta)


def _check_organic_alpha(path: Path, meta: Mapping) -> None:
    """The meta line's ``organic_alpha``, when present, must be an integer."""
    if "organic_alpha" in meta and type(meta["organic_alpha"]) is not int:
        raise CsvFormatError(
            f"{path}:1: meta organic_alpha must be an integer, got {meta['organic_alpha']!r}"
        )


def column_keys(meta: Mapping) -> tuple[CampaignKey, ...]:
    """The meta line's ``columns`` as campaign keys; ``organic_alpha`` marks the organic one."""
    organic_alpha = meta.get("organic_alpha")
    return tuple(
        organic_key(a) if a == organic_alpha else CampaignKey(a) for a in meta["columns"]
    )


def load_counts(path: str | Path) -> tuple[dict[tuple[str, str], CountMatrix], dict]:
    cpath = Path(path)
    grids: dict[tuple[str, str], list[list[int]]] = {}
    nulls: dict[tuple[str, str], list[int]] = {}
    suppressed: dict[tuple[str, str], set[int]] = {}
    with _csv_rows(cpath, COUNT_FIELDS) as (meta, rows):
        if "columns" not in meta:
            raise CsvFormatError(f"{cpath}: meta line lacks the column list")
        _check_columns(cpath, meta)
        columns = column_keys(meta)
        col_index = {k.alpha: j for j, k in enumerate(columns)}
        privacy_applied = meta.get("privacy_applied", False)
        if type(privacy_applied) is not bool:
            raise CsvFormatError(
                f"{cpath}:1: meta privacy_applied must be true or false, got {privacy_applied!r}"
            )
        seen: dict[tuple[str, str, int, int], int] = {}  # (cell, value, alpha) -> line
        for line, row in rows:
            if len(row) != len(COUNT_FIELDS):
                raise CsvFormatError(f"{cpath}:{line}: expected {len(COUNT_FIELDS)} columns")
            group, week, v_text, alpha_text, count_text = row
            alpha = _parse_int(alpha_text, cpath, line, "alpha")
            if alpha not in col_index:
                raise ReferentialError(f"{cpath}:{line}: alpha {alpha} not in declared columns")
            cell = (group, week)
            if cell not in grids:
                grids[cell] = [[0] * len(columns) for _ in range(VALUE_RANGE)]
                nulls[cell] = [0] * len(columns)
                suppressed[cell] = set()
            if v_text == "null":
                if not privacy_applied:
                    raise CsvFormatError(f"{cpath}:{line}: null row in a pre-privacy file")
                v = -1
            else:
                v = _parse_int(v_text, cpath, line, "conversion_value")
                if not 0 <= v < VALUE_RANGE:
                    raise CsvFormatError(f"{cpath}:{line}: conversion_value out of range")
            first = seen.setdefault((group, week, v, alpha), line)
            if first != line:
                raise CsvFormatError(
                    f"{cpath}:{line}: duplicate row for ({group}, {week}) value {v_text} "
                    f"alpha {alpha}, first at line {first}"
                )
            if v < 0:
                nulls[cell][col_index[alpha]] = _parse_int(count_text, cpath, line, "count")
            elif count_text == "":
                if not privacy_applied:
                    raise CsvFormatError(f"{cpath}:{line}: suppressed count in a pre-privacy file")
                suppressed[cell].add(v)
            else:
                grids[cell][v][col_index[alpha]] = _parse_int(count_text, cpath, line, "count")

    matrices: dict[tuple[str, str], CountMatrix] = {}
    for cell in sorted(grids):
        group, week = cell
        for v in suppressed[cell]:
            if any(grids[cell][v]):
                raise CsvFormatError(
                    f"{cpath}: ({group}, {week}) value {v} mixes counts and suppression"
                )
        try:
            matrices[cell] = CountMatrix(
                group=group,
                week=week,
                columns=columns,
                rows=tuple(tuple(r) for r in grids[cell]),
                suppressed=frozenset(suppressed[cell]),
                null_row=tuple(nulls[cell]) if privacy_applied else None,
            )
        except ConfigError as exc:
            raise CsvFormatError(f"{cpath}: ({group}, {week}): {exc}") from exc
    return matrices, meta


def save_attribution(
    path: str | Path,
    attributed: Mapping[tuple[str, str, CampaignKey], int],
    meta: Mapping,
) -> None:
    """Write `group,week,alpha,attributed_usd` rows (cents already rounded)."""
    rows = [
        (group, week, key.alpha, usd(cents))
        for (group, week, key), cents in sorted(
            attributed.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].alpha)
        )
    ]
    _write_csv(Path(path), meta, ATTR_FIELDS, rows)


def parse_usd(text: str) -> int:
    """Parse a USD decimal string into exact cents."""
    neg = text.startswith("-")
    body = text[1:] if neg else text
    if "." in body:
        dollars, _, cents = body.partition(".")
        if len(cents) != 2 or not (dollars + cents).isdigit():
            raise CsvFormatError(f"bad USD amount {text!r}")
        value = int(dollars) * 100 + int(cents)
    else:
        if not body.isdigit():
            raise CsvFormatError(f"bad USD amount {text!r}")
        value = int(body) * 100
    return -value if neg else value


def load_attribution(path: str | Path) -> tuple[dict[tuple[str, str, int], int], dict]:
    apath = Path(path)
    out: dict[tuple[str, str, int], int] = {}
    with _csv_rows(apath, ATTR_FIELDS) as (meta, rows):
        if "columns" in meta:
            _check_columns(apath, meta)
        for line, row in rows:
            if len(row) != len(ATTR_FIELDS):
                raise CsvFormatError(f"{apath}:{line}: expected {len(ATTR_FIELDS)} columns")
            group, week, alpha_text, amount = row
            alpha = _parse_int(alpha_text, apath, line, "alpha")
            key = (group, week, alpha)
            if key in out:
                raise CsvFormatError(
                    f"{apath}:{line}: duplicate row for ({group}, {week}) alpha {alpha}"
                )
            try:
                out[key] = parse_usd(amount)
            except CsvFormatError as exc:
                raise CsvFormatError(f"{apath}:{line}: {exc}") from exc
    return out, meta


def report_to_dict(report: AttributionReport) -> dict:
    return {
        "metadata": report.metadata,
        "cells": [
            {
                "schema": c.schema,
                "p": c.p,
                "mode": c.mode,
                "lambda": c.lam,
                "level": c.level,
                "weekly_errors_usd": {w: e / 100.0 for w, e in c.weekly_errors},
                "aggregate_error_usd": c.aggregate_error / 100.0,
                "normalized_score": c.normalized_score,
            }
            for c in report.cells
        ],
        "window_curve": None
        if report.window_curve is None
        else [
            {"lo_day": w.lo_day, "hi_day": w.hi_day, "error_usd": w.error / 100.0}
            for w in report.window_curve
        ],
    }


def save_report(path: str | Path, report: AttributionReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_grid_csv(path: str | Path, report: AttributionReport) -> None:
    header = ("schema", "p", "mode", "lambda", "level", "aggregate_error_usd", "normalized_score")
    rows = [
        (
            c.schema,
            c.p,
            c.mode,
            "" if c.lam is None else f"{c.lam:g}",
            c.level,
            repr(c.aggregate_error / 100.0),
            "" if c.normalized_score is None else repr(c.normalized_score),
        )
        for c in report.cells
    ]
    meta = {"seed": report.metadata.get("seed"), "config_hash": report.metadata.get("config_hash")}
    _write_csv(Path(path), meta, header, rows)


def save_window_csv(path: str | Path, points: Sequence[WindowPoint], meta: Mapping) -> None:
    rows = [(f"{w.lo_day}-{w.hi_day}", repr(w.error / 100.0)) for w in points]
    _write_csv(Path(path), meta, ("window", "error_usd"), rows)
