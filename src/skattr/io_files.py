"""File formats: dataset CSVs, count matrices, attribution output, reports.

Every CSV starts with one comment line ``# skattr-meta {json}`` embedding at
least the seed and a config hash, so any output can be traced back to its
inputs and re-runs can be compared byte for byte. Dates are ISO-8601 and
money is integer cents in files, except attribution output which is the
USD decimal its consumers expect. CSVs are RFC-4180 with header rows.

Every loader reads its file in one pass through ``_csv_rows``, which checks
the meta line and header up front and then yields rows lazily, so no file
is held in memory as a list of rows. Events rows are read by one
generator, ``_event_rows``, for both dataset loaders. It yields one
``(user id, events)`` run per block of consecutive rows of one user, each
event the fields of a ``model.Event``: ``load_users`` makes each an
``Event`` of its user's record, and ``load_cohort`` hands the runs to
``schema.fold_events``, which folds each into its user's replay digest,
building no ``Event`` or ``UserRecord``, and names each user's defect
itself: a row error first, where the row is read, then an event before
registration or out of order (smallest user id first, naming the events
file), then a user without a first-open session. So ``load_cohort`` never
reads the dataset again to name a defect. Bytes that are not UTF-8 and
fields over the csv size limit are a ``CsvFormatError`` naming the file
and line; only to find the first line that is not UTF-8 is a file read
again, by any loader. A missing events file is a ``ConfigError`` naming it
for both loaders when the users file lists a user. Both take the organic
sentinel from the users file's meta line, and from nowhere else.

Every file's meta line and header are written by ``_open_csv``, and the
rows of every file but one by ``csv.writer``. ``save_events`` writes each
events row as one line of text from the event's integer instant, with no
``datetime`` per event: no events field ever needs quoting, so the text is
byte for byte what ``csv.writer`` writes for the same rows, which
``tests/oracles.reference_save_events`` still does. A counts file holds its
``p`` (0 when the meta line omits it) and only nonzero counts and null
entries; a suppressed value has no row.
An attribution file is the grid's ``{(group, week): cents per column}``, a
row per cell and declared column, where a missing row reads 0. Both loaders
refuse a meta line without ``columns`` and a row alpha it does not declare.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from datetime import date, datetime
from operator import itemgetter
from pathlib import Path
from typing import IO, TYPE_CHECKING

from .errors import ConfigError, CsvFormatError, ReferentialError
from .model import (
    EVENT_KINDS,
    US_PER_DAY,
    CampaignKey,
    Cohort,
    Event,
    UserRecord,
    check_event,
    datetime_to_us,
    organic_key,
    usd,
)
from .postback import CountMatrix
from .schema import VALUE_RANGE, fold_events

if TYPE_CHECKING:
    from .metrics import AttributionReport, WindowPoint

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
    with _open_csv(path, meta, header) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@contextmanager
def _open_csv(path: Path, meta: Mapping, header: Sequence[str]) -> Iterator[IO[str]]:
    """Open ``path`` for writing with its meta line and header written, and give the file."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(META_PREFIX + json.dumps(dict(meta), sort_keys=True, default=str) + "\n")
        csv.writer(fh, lineterminator="\n").writerow(header)
        yield fh


@contextmanager
def _csv_rows(
    path: Path, expected_header: Sequence[str]
) -> Iterator[tuple[dict, Iterator[tuple[int, list[str]]]]]:
    """Open a CSV, check its meta line and header, and give ``(meta, rows)``.

    ``rows`` lazily yields ``(line_number, row)`` for each non-blank record:
    the ``csv.reader`` itself under ``enumerate``, with no Python generator
    per row. Bytes that are not UTF-8 and ``csv.Error`` reach the ``yield``
    while the caller iterates, and become ``CsvFormatError`` there. The
    file is closed when the ``with`` block exits, also when the caller
    raises part way through it; a ``rows`` kept alive by that traceback then
    holds only a closed file.
    """
    with _open_input(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        line_no = 1
        try:
            first = fh.readline()
            if first.startswith(META_PREFIX):
                try:
                    meta = json.loads(first[len(META_PREFIX):])
                except ValueError as exc:  # JSONDecodeError, or an integer over 4300 digits
                    raise CsvFormatError(f"{path}:1: bad meta line: {exc}") from exc
                if not isinstance(meta, dict):
                    raise CsvFormatError(f"{path}:1: meta line is not a JSON object")
                header_line = fh.readline()
                line_no = 2
            else:
                meta = {}
                header_line = first
            header = next(csv.reader([header_line])) if header_line else []
            if header != list(expected_header):
                raise CsvFormatError(
                    f"{path}:{line_no}: expected header {','.join(expected_header)}, "
                    f"got {','.join(header)}"
                )
            # A blank line is an empty row, which itemgetter(1) finds false.
            yield meta, filter(itemgetter(1), enumerate(reader, line_no + 1))
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from exc
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise CsvFormatError(f"{path}:{line_no + reader.line_num}: {exc}") from exc


def _open_input(path: Path, mode: str = "r", **kwargs) -> IO:
    """Open an input file; a missing or unreadable one (a directory, say) is a ``ConfigError``."""
    try:
        return open(path, mode, **kwargs)
    except FileNotFoundError as exc:
        raise ConfigError(f"input file {path} does not exist") from exc
    except OSError as exc:
        raise ConfigError(f"input file {path} cannot be read: {exc.strerror}") from exc


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
    """Write every user's events, in user id order.

    Each row is one line of text made from the event's integer instant,
    ``{id},{date}T{HH:MM:}{SS}[.ffffff],{kind},{amount},{flag}``. The date
    is ``date.fromordinal(us // US_PER_DAY).isoformat()``, kept per call
    for each day seen; ``THH:MM:`` and ``SS`` come from tables of the 1,440
    minutes and 60 seconds of a day; the six fraction digits follow only
    an instant that is not a whole second, ``datetime.isoformat()``'s rule.
    No field needs csv quoting: the id is an int (``UserRecord``), the kind
    one of ``EVENT_KINDS`` and the amount and flag an int or empty
    (``check_event``). So the bytes are those ``csv.writer`` writes for the
    same rows, as ``tests/oracles.reference_save_events`` does. Each user's
    lines are joined and written at once, so the file is never held in
    memory.
    """
    dates: dict[int, str] = {}
    minutes = [f"T{h:02d}:{m:02d}:" for h in range(24) for m in range(60)]
    seconds = [f"{s:02d}" for s in range(60)]
    with _open_csv(Path(path), meta, EVENT_FIELDS) as fh:
        for u in sorted(users, key=lambda u: u.id):
            uid, lines = u.id, []
            for us, kind, amount, flag_index in u.events:
                day, us = divmod(us, US_PER_DAY)
                date_text = dates.get(day)
                if date_text is None:
                    date_text = dates[day] = date.fromordinal(day).isoformat()
                sec, frac = divmod(us, 1_000_000)
                minute, sec = divmod(sec, 60)
                lines.append(
                    f"{uid},{date_text}{minutes[minute]}{seconds[sec]}"
                    f"{f'.{frac:06d}' if frac else ''},{kind},"
                    f"{'' if amount is None else amount},"
                    f"{'' if flag_index is None else flag_index}\n"
                )
            fh.write("".join(lines))


def load_users(
    user_csv: str | Path, events_csv: str | Path | None = None
) -> tuple[list[UserRecord], dict]:
    """Load and validate the user table, attaching events when given.

    The organic sentinel is the file meta's ``organic_alpha``; rows with
    alpha beyond it are rejected (the combined id space is bounded by it).
    The events come in blocks from ``_event_rows``, which names a
    missing events file as ``load_cohort`` does, and each becomes an
    ``Event`` of its user; a user whose events are out of order, or start
    before registration, is a ``CsvFormatError`` naming the events file.
    """
    upath = Path(user_csv)
    raw, meta, organic_alpha = _user_rows(upath)
    events: dict[int, list[Event]] = {uid: [] for uid in raw}
    for uid, run in _event_rows(events_csv, raw):
        events[uid] += map(Event._make, run)

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


def _user_rows(upath: Path) -> tuple[dict[int, tuple[date, int, str]], dict, int | None]:
    """The users file as ``{id: (registration date, alpha, group)}``, its meta and the sentinel."""
    raw: dict[int, tuple[date, int, str]] = {}
    with _csv_rows(upath, USER_FIELDS) as (meta, rows):
        _check_meta(upath, meta, "organic_alpha")
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


def load_cohort(user_csv: str | Path, events_csv: str | Path | None = None) -> Cohort:
    """The dataset's ``Cohort``, reading each CSV once, with no ``Event`` or ``UserRecord``.

    The result, or the error, is that of ``schema.prepare_users(users,
    meta.get("organic_alpha"))`` for the ``users, meta`` that
    ``load_users(user_csv, events_csv)`` returns.
    ``schema.fold_events`` folds the runs of ``_event_rows`` into the
    digests and names each user's defect.
    """
    raw, _, sentinel = _user_rows(Path(user_csv))
    epath = None if events_csv is None else Path(events_csv)
    ids = sorted(raw)
    rows = [raw[uid] for uid in ids]
    ordinals = [reg.toordinal() for reg, _, _ in rows]
    return Cohort(
        ids,
        ordinals,
        [group for _, _, group in rows],
        [(alpha == sentinel, alpha) for _, alpha, _ in rows],
        fold_events(ids, ordinals, _event_rows(epath, raw), epath),
        organic_alpha=sentinel,
    )


def _event_rows(
    events_csv: str | Path | None, users: Mapping[int, object]
) -> Iterator[tuple[int, list[tuple[int, str, int | None, int | None]]]]:
    """``(user id, events)`` of each block of consecutive events rows of one user, in file order.

    Each event is ``(instant, kind, amount, flag_index)``, the fields of a
    ``model.Event``; the instant is the naive ISO timestamp in microseconds
    on the model's clock (``model.datetime_to_us``). A user whose rows are
    split by another user's has one block per part. Nothing when
    ``events_csv`` is None, or when the file is missing and there is no
    user to read events for; a file missing for some user is a
    ``ConfigError`` naming it.
    Each row is checked in one order: its column count, a known integer
    user id, a naive ISO timestamp, a known kind, integer amount and
    flag fields, and ``model.check_event``. The first check a row fails
    raises its typed error with the file and line.
    """
    if events_csv is None or (not users and not Path(events_csv).exists()):
        return
    path = Path(events_csv)
    parse_ts = datetime.fromisoformat
    uid_text, run = None, []
    with _csv_rows(path, EVENT_FIELDS) as (_, rows):
        for line, row in rows:
            if len(row) != len(EVENT_FIELDS):
                raise CsvFormatError(f"{path}:{line}: expected {len(EVENT_FIELDS)} columns")
            row_uid, ts_text, kind, amount, flag_index = row
            # The file is grouped by user, so the user id is parsed and looked
            # up only when its text changes, where the user's block ends.
            if row_uid != uid_text:
                if run:
                    yield uid, run
                uid = _parse_int(row_uid, path, line, "user_id")
                if uid not in users:
                    raise ReferentialError(f"{path}:{line}: event references unknown user {uid}")
                uid_text, run = row_uid, []
                append = run.append
            try:
                ts = parse_ts(ts_text)
            except ValueError as exc:
                raise CsvFormatError(f"{path}:{line}: bad timestamp {ts_text!r}") from exc
            if ts.tzinfo is not None:
                raise CsvFormatError(f"{path}:{line}: timestamp {ts_text!r} has a UTC offset")
            if kind not in EVENT_KINDS:  # named before a malformed number
                raise CsvFormatError(f"{path}:{line}: unknown event kind {kind!r}")
            amount = _parse_int(amount, path, line, "amount_cents") if amount else None
            flag_index = _parse_int(flag_index, path, line, "flag_index") if flag_index else None
            try:
                check_event(kind, amount, flag_index)
            except ConfigError as exc:
                raise CsvFormatError(f"{path}:{line}: {exc}") from exc
            append((datetime_to_us(ts), kind, amount, flag_index))
    if run:
        yield uid, run


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
    save_json(paths["meta"], dict(meta))
    return paths


def save_counts(
    path: str | Path,
    matrices: Mapping[tuple[str, str], CountMatrix],
    meta: Mapping,
) -> None:
    """Write count matrices: their one ``p`` (else the meta's, else 0), nonzero counts and nulls."""
    first = next(iter(matrices.values()), None)
    full_meta = dict(meta)
    if first is not None:
        # The matrices are the source of truth for structural metadata.
        full_meta["columns"] = [k.alpha for k in first.columns]
        org = [k.alpha for k in first.columns if k.organic]
        if org:
            full_meta["organic_alpha"] = org[0]
        if len({m.p for m in matrices.values()}) > 1:
            raise ConfigError("a counts file holds matrices of one privacy threshold only")
        full_meta["p"] = first.p
    full_meta.setdefault("p", 0)
    rows = []
    for (group, week) in sorted(matrices):
        m = matrices[(group, week)]
        for v, row in enumerate(m.rows):
            for key, count in zip(m.columns, row):
                if count:
                    rows.append((group, week, v, key.alpha, count))
        for key, count in zip(m.columns, m.null_row):
            if count:
                rows.append((group, week, "null", key.alpha, count))
    _write_csv(Path(path), full_meta, COUNT_FIELDS, rows)


def _check_columns(path: Path, meta: Mapping) -> dict[int, int]:
    """The meta line's ``columns`` as ``{alpha: index}``, with ``organic_alpha`` checked.

    ``columns`` must be a list of distinct alphas (integers >= 0) and
    ``organic_alpha``, when present, an integer.
    """
    if "columns" not in meta:
        raise CsvFormatError(f"{path}: meta line lacks the column list")
    columns = meta["columns"]
    if (
        not isinstance(columns, list)
        or not all(type(a) is int and a >= 0 for a in columns)
        or len(set(columns)) != len(columns)
    ):
        raise CsvFormatError(
            f"{path}:1: meta columns must be a list of distinct integers >= 0, got {columns!r}"
        )
    _check_meta(path, meta, "organic_alpha")
    return {alpha: j for j, alpha in enumerate(columns)}


def _declared_alpha(text: str, index: Mapping[int, int], path: Path, line: int) -> int:
    """The row's alpha, which must be one of the declared ``columns`` (``_check_columns``)."""
    alpha = _parse_int(text, path, line, "alpha")
    if alpha not in index:
        raise ReferentialError(f"{path}:{line}: alpha {alpha} not in declared columns")
    return alpha


# The meta values a later read trusts, and the types each must have.
_META_TYPES = {
    "organic_alpha": ((int,), "an integer"),
    "schema": ((str,), "a string"),
    "seed": ((int,), "an integer"),
    "horizon": ((str, type(None)), "a string or null"),
    "t": ((int,), "an integer"),
}


def _check_meta(path: Path, meta: Mapping, *keys: str) -> None:
    """Each of the meta line's ``keys``, when present, must have its ``_META_TYPES`` type.

    The types are exact, so a ``bool`` is not an integer.
    """
    for key in keys:
        types, name = _META_TYPES[key]
        if key in meta and type(meta[key]) not in types:
            raise CsvFormatError(f"{path}:1: meta {key} must be {name}, got {meta[key]!r}")


def load_counts(path: str | Path) -> tuple[dict[tuple[str, str], CountMatrix], dict]:
    cpath = Path(path)
    grids: dict[tuple[str, str], list[list[int]]] = {}
    nulls: dict[tuple[str, str], list[int]] = {}
    with _csv_rows(cpath, COUNT_FIELDS) as (meta, rows):
        col_index = _check_columns(cpath, meta)
        _check_meta(cpath, meta, "schema", "seed", "horizon")
        organic = meta.get("organic_alpha")
        columns = tuple(CampaignKey(a, organic=a == organic) for a in meta["columns"])
        p = meta.setdefault("p", 0)  # an unprivatized file may omit it
        if type(p) is not int or p < 0:
            raise CsvFormatError(f"{cpath}:1: meta p must be an integer >= 0, got {p!r}")
        seen: dict[tuple[str, str, int, int], int] = {}  # (cell, value, alpha) -> line
        for line, row in rows:
            if len(row) != len(COUNT_FIELDS):
                raise CsvFormatError(f"{cpath}:{line}: expected {len(COUNT_FIELDS)} columns")
            group, week, v_text, alpha_text, count_text = row
            alpha = _declared_alpha(alpha_text, col_index, cpath, line)
            cell = (group, week)
            if cell not in grids:
                grids[cell] = [[0] * len(columns) for _ in range(VALUE_RANGE)]
                nulls[cell] = [0] * len(columns)
            if v_text == "null":
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
            count = _parse_int(count_text, cpath, line, "count")
            (nulls[cell] if v < 0 else grids[cell][v])[col_index[alpha]] = count

    matrices: dict[tuple[str, str], CountMatrix] = {}
    for cell in sorted(grids):
        group, week = cell
        try:
            matrices[cell] = CountMatrix(
                group=group,
                week=week,
                columns=columns,
                rows=tuple(tuple(r) for r in grids[cell]),
                p=p,
                null_row=tuple(nulls[cell]),
            )
        except ConfigError as exc:
            raise CsvFormatError(f"{cpath}: ({group}, {week}): {exc}") from exc
    return matrices, meta


def save_attribution(
    path: str | Path,
    cents: Mapping[tuple[str, str], Sequence[int]],
    meta: Mapping,
) -> None:
    """Write each cell's cents per ``meta["columns"]`` as rows sorted by group, week and alpha."""
    columns = meta["columns"]
    by_alpha = sorted(range(len(columns)), key=columns.__getitem__)
    rows = []
    for (group, week), row in sorted(cents.items()):
        rows.extend((group, week, columns[j], usd(row[j])) for j in by_alpha)
    _write_csv(Path(path), meta, ATTR_FIELDS, rows)


def parse_usd(text: str) -> int:
    """Parse a USD decimal string, at least one dollar digit, into exact cents."""
    neg = text.startswith("-")
    dollars, dot, cents = (text[1:] if neg else text).partition(".")
    if not dollars.isdigit() or (dot and (len(cents) != 2 or not cents.isdigit())):
        raise CsvFormatError(f"bad USD amount {text!r}")
    try:  # isdigit() admits digits int() refuses, and int() refuses over 4300 digits
        value = int(dollars) * 100 + (int(cents) if dot else 0)
    except ValueError as exc:
        raise CsvFormatError(f"bad USD amount {text!r}") from exc
    return -value if neg else value


def load_attribution(path: str | Path) -> tuple[dict[tuple[str, str], list[int]], dict]:
    """``{(group, week): cents per column}`` and the meta; a column without a row reads 0."""
    apath = Path(path)
    out: dict[tuple[str, str], list[int]] = {}
    seen: set[tuple[str, str, int]] = set()
    with _csv_rows(apath, ATTR_FIELDS) as (meta, rows):
        col_index = _check_columns(apath, meta)
        _check_meta(apath, meta, "schema", "seed", "horizon", "t")
        for line, row in rows:
            if len(row) != len(ATTR_FIELDS):
                raise CsvFormatError(f"{apath}:{line}: expected {len(ATTR_FIELDS)} columns")
            group, week, alpha_text, amount = row
            alpha = _declared_alpha(alpha_text, col_index, apath, line)
            if (group, week, alpha) in seen:
                raise CsvFormatError(
                    f"{apath}:{line}: duplicate row for ({group}, {week}) alpha {alpha}"
                )
            seen.add((group, week, alpha))
            cents = out.setdefault((group, week), [0] * len(col_index))
            try:
                cents[col_index[alpha]] = parse_usd(amount)
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


def save_json(path: str | Path, data: Mapping) -> None:
    """Write ``meta.json`` or a report: indent 2, sorted keys, ``str`` of a non-JSON value."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def save_report(path: str | Path, report: AttributionReport) -> None:
    save_json(path, report_to_dict(report))


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
