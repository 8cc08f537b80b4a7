"""Core domain types: campaign keys, users, events, cohorts, ground truth.

Money is integer USD cents everywhere. Time is integer microseconds on one
clock that counts from midnight of date ordinal 0: a date's midnight is
``date.toordinal() * US_PER_DAY``, and an event's instant ``Event.us`` adds
the microseconds since that midnight. ``datetime_to_us`` and
``us_to_datetime`` convert between the clock and naive ``datetime``s, which
only file text and messages use. Revenue windows are half-open in whole
days from the registration date: a purchase exactly ``t`` days after
registration midnight falls outside ``[0, t)``. Weeks are ISO year-weeks
(Monday start). Campaign keys, users and events are immutable named
tuples; a record whose constructor checks its fields does so in its
``__new__``, and its ``_replace`` runs the same checks (``remake``). An
``Event`` is a plain named tuple ``(us, kind, amount, flag_index)``, the
events row less its user id; ``UserRecord`` checks its events, and the
dataset reader each row, with ``check_event``, the rule on an event's kind
and fields.

A ``Cohort`` is the one handle the pipeline takes for a user list. It is
built from columns in cohort order (ids, registration date ordinals, group
labels, ``(organic, alpha)`` origins and the replay digests), either by
``schema.prepare_users`` from ``UserRecord``s or by ``io_files.load_cohort``
straight from the dataset CSVs. Both digest the events with one function,
``schema.fold_events``, which also names a user's defect in one order,
whichever builder feeds it. The cohort holds the schema-independent facts
as plain integer lists: registration midnight in microseconds (date
ordinal x ``US_PER_DAY``), group index and origin column. It fixes the
count-matrix columns (paid campaigns by alpha, then the organic key) and
memoises, on first use, window revenue per ``[lo, hi)``, postback delay per
seed and each schema's simulation. Window revenue reads each user's (day
offset, cents) purchase pairs, taken once from the digests' purchase
entries, or given as they are when ``postback_view.load_postback_view``
reads the cohort from a postback view (such a cohort has no digests and is
never replayed). Every schema simulated over the cohort reads these
instead of recomputing them per user. ``ground_truth`` sums the window
revenue of a schema's postbacks per postback week into one list of cents
indexed like the cohort's ``origins``, the columns scoring works on.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from datetime import date, datetime, timedelta
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConfigError, InvalidCampaignError, OrganicKeyError

if TYPE_CHECKING:
    from .pipeline import SimArtifacts
    from .postback import PostbackTable

SECONDS_PER_DAY = 86_400
US_PER_DAY = SECONDS_PER_DAY * 1_000_000
US_PER_WEEK = 7 * US_PER_DAY
MICROSECOND = timedelta(microseconds=1)

SESSION = "session"
PURCHASE = "purchase"
FLAG = "flag"
EVENT_KINDS = (SESSION, PURCHASE, FLAG)


def remake(cls: type[tuple], fields: Iterable) -> tuple:
    """A ``cls`` record of ``fields``, built by its constructor.

    Every record class whose constructor checks its fields binds this as
    its ``_make``, so that ``record._replace(**changes)`` runs those checks
    on the copy, as the constructor would. ``tuple.__new__`` skips them.
    """
    return cls(*fields)


class _CampaignKeyFields(NamedTuple):
    alpha: int
    organic: bool = False


class CampaignKey(_CampaignKeyFields):
    """Combined network/campaign id, or the organic sentinel.

    Paid keys satisfy ``alpha = 100 * network + campaign`` with the campaign
    part restricted to [0, 99]. The organic sentinel is a distinct key that
    decodes to neither a network nor a campaign.
    """

    __slots__ = ()
    _make = classmethod(remake)

    def __new__(cls, alpha: int, organic: bool = False) -> CampaignKey:
        if alpha < 0:
            raise InvalidCampaignError(f"alpha must be >= 0, got {alpha}")
        return tuple.__new__(cls, (alpha, organic))

    @property
    def network(self) -> int:
        if self.organic:
            raise OrganicKeyError("organic key has no network id")
        return self.alpha // 100

    @property
    def campaign(self) -> int:
        if self.organic:
            raise OrganicKeyError("organic key has no campaign id")
        return self.alpha % 100


def encode_alpha(network: int, campaign: int) -> CampaignKey:
    """Combine a network id and a campaign id into one key.

    Each network carries at most 100 campaigns, so the campaign part must
    lie in [0, 99].
    """
    if not 0 <= campaign <= 99:
        raise InvalidCampaignError(f"campaign id must be in [0, 99], got {campaign}")
    if network < 0:
        raise InvalidCampaignError(f"network id must be >= 0, got {network}")
    return CampaignKey(100 * network + campaign)


def organic_key(alpha: int) -> CampaignKey:
    """Build the organic sentinel key with the given numeric encoding."""
    return CampaignKey(alpha, organic=True)


def datetime_to_us(ts: datetime) -> int:
    """A naive instant as integer microseconds on the model's clock."""
    return (ts - datetime.min) // MICROSECOND + US_PER_DAY


def us_to_datetime(us: int) -> datetime:
    """The naive ``datetime`` of an instant on the model's clock."""
    return datetime.min + MICROSECOND * (us - US_PER_DAY)


class Event(NamedTuple):
    """One user event: a session, a purchase (amount in cents), or a flag.

    ``us`` is the event's instant in integer microseconds on the model's
    clock (registration midnight is ``date.toordinal() * US_PER_DAY``). An
    event holds the fields of one events row less its user id, as a run of
    ``io_files._event_rows`` holds them. Its fields are checked where a
    ``UserRecord`` takes it.
    """

    us: int
    kind: str
    amount: int | None = None
    flag_index: int | None = None


def check_event(kind: str, amount: int | None, flag_index: int | None) -> None:
    """Raise ``ConfigError`` unless ``kind`` carries exactly the fields it needs.

    A session carries neither field, a purchase a positive cent ``amount``
    and a flag a ``flag_index`` in [0, 5]. Both are ``int`` itself, not a
    ``bool`` or a float, so every event can be written to a file and read
    back.
    """
    if kind == SESSION:
        if amount is not None or flag_index is not None:
            raise ConfigError("session events carry no amount or flag_index")
    elif kind == PURCHASE:
        if type(amount) is not int or amount <= 0:
            raise ConfigError("purchase amount must be a positive cent count")
        if flag_index is not None:
            raise ConfigError("purchase events carry no flag_index")
    elif kind == FLAG:
        if type(flag_index) is not int or not 0 <= flag_index <= 5:
            raise ConfigError("flag_index must be an int in [0, 5]")
        if amount is not None:
            raise ConfigError("flag events carry no amount")
    else:
        raise ConfigError(f"unknown event kind {kind!r}")


class _UserRecordFields(NamedTuple):
    id: int
    registration_date: date
    origin: CampaignKey
    events: tuple[Event, ...]
    group: str


class UserRecord(_UserRecordFields):
    """One user: registration date, true origin, event stream, group label.

    The events are checked here, in one pass: each instant an ``int``, each
    event's fields by ``check_event``, the first no earlier than
    registration midnight and none earlier than the one before it. Origin
    is unique per user (last-click semantics).
    """

    __slots__ = ()
    _make = classmethod(remake)

    def __new__(cls, id: int, registration_date: date, origin: CampaignKey,
                events: Iterable[Event], group: str) -> UserRecord:
        if type(id) is not int:
            raise ConfigError(f"user id must be an int, got {id!r}")
        if not isinstance(events, tuple):
            events = tuple(events)
        prev = None
        for us, kind, amount, flag_index in events:
            if type(us) is not int:
                raise ConfigError(f"event instant must be an int, got {us!r}")
            check_event(kind, amount, flag_index)
            if prev is None:
                if us < registration_date.toordinal() * US_PER_DAY:
                    raise ConfigError(f"user {id}: event precedes registration")
            elif us < prev:
                raise ConfigError(
                    f"user {id}: events out of order at {us_to_datetime(us).isoformat()}"
                )
            prev = us
        return tuple.__new__(cls, (id, registration_date, origin, events, group))


def revenue_between(purchases: Iterable[tuple[int, int]], lo_day: int, hi_day: int) -> int:
    """Cents of the (day offset, cents) pairs with day in [lo_day, hi_day).

    ``purchases`` are in day order, as ``Cohort.purchases`` holds them.
    """
    if lo_day < 0 or hi_day < lo_day:
        raise ConfigError(f"invalid revenue window [{lo_day}, {hi_day})")
    total = 0
    for day, cents in purchases:
        if day >= hi_day:
            break
        if day >= lo_day:
            total += cents
    return total


def iso_week(d: date) -> str:
    """ISO year-week key, Monday start, e.g. '2024-W05'."""
    y, w, _ = d.isocalendar()
    return f"{y:04d}-W{w:02d}"


class Cohort:
    """Schema-independent facts of one user list, as lists in cohort order.

    The columns are one entry per user: ``ids``, registration date
    ``ordinals``, ``groups`` (labels), ``origins`` as ``(organic, alpha)``
    and ``digests``, the replay kernel's per-user event digests (see
    ``schema.fold_events``). ``users`` are the records the columns were
    taken from, when ``schema.prepare_users`` built the cohort, and None
    when ``io_files.load_cohort`` read it from files. A cohort that
    ``postback_view.load_postback_view`` reads from a postback view has no
    digests (None) and is given each user's ``purchases`` instead: it
    serves window revenue but cannot be replayed.

    ``origins`` becomes the count-matrix columns: the paid ``campaigns``
    sorted by alpha, then the ``organic`` key; ``column[i]`` indexes the
    origin of user ``i``. The organic key is ``organic_alpha``, the sentinel
    the dataset declares; without one, the sentinel the organic users carry,
    or one past the largest paid alpha when there are none. Two sentinels
    are a ``ConfigError``. ``delays`` (seed -> delivery delay in
    microseconds per user) is filled by
    ``pipeline.simulate_postbacks`` on first use, and ``simulations``
    ((input schema, seed) -> ``pipeline.SimArtifacts``) by the metrics
    layer, so every schema and call over the cohort shares them.
    """

    def __init__(
        self,
        ids: Sequence[int],
        ordinals: Sequence[int],
        groups: Sequence[str],
        origins: Sequence[tuple[bool, int]],
        digests: Sequence[tuple[tuple[int, int, int, int], ...]] | None,
        users: tuple[UserRecord, ...] | None = None,
        *,
        purchases: Sequence[tuple[tuple[int, int], ...]] | None = None,
        organic_alpha: int | None = None,
    ) -> None:
        self.ids = list(ids)
        if (digests is None) == (purchases is None):
            raise ConfigError("a cohort takes either the replay digests or the purchases")
        events = digests if digests is not None else purchases
        if not len(self.ids) == len(ordinals) == len(groups) == len(origins) == len(events):
            raise ConfigError("cohort columns differ in length")
        if len(set(self.ids)) != len(self.ids):
            raise ConfigError("a cohort lists some user id more than once")
        self.users = users
        self.digests = digests
        if purchases is not None:
            self.purchases = list(purchases)  # set here, so the cached property never runs
        self.midnight_us = [day * US_PER_DAY for day in ordinals]
        self.group_labels = tuple(sorted(set(groups)))
        group_index = {g: i for i, g in enumerate(self.group_labels)}
        self.group = [group_index[g] for g in groups]
        # Keyed by the (organic, alpha) pairs the builders pass, so that no
        # CampaignKey is built per user.
        distinct = set(origins)
        paid = sorted(alpha for organic, alpha in distinct if not organic)
        declared = () if organic_alpha is None else (organic_alpha,)
        sentinels = sorted({*declared, *(alpha for organic, alpha in distinct if organic)})
        if len(sentinels) > 1:
            raise ConfigError(f"dataset mixes organic sentinels: {sentinels}")
        self.campaigns = tuple(CampaignKey(alpha) for alpha in paid)
        self.organic = organic_key(sentinels[0] if sentinels else max(paid, default=-1) + 1)
        self.origins = self.campaigns + (self.organic,)
        column = {(False, alpha): j for j, alpha in enumerate(paid)}
        column[(True, self.organic.alpha)] = len(paid)
        self.column = [column[o] for o in origins]
        self.delays: dict[int, list[int]] = {}
        self.simulations: dict[tuple, SimArtifacts] = {}
        self._revenue: dict[tuple[int, int], list[int]] = {}

    @cached_property
    def purchases(self) -> list[tuple[tuple[int, int], ...]]:
        """Each user's (day offset, cents) purchase pairs, from the digests' purchase entries."""
        return [
            tuple((us // US_PER_DAY, cents) for us, cents, n_purch, _ in digest if n_purch)
            for digest in self.digests
        ]

    def window_revenue(self, lo_day: int, hi_day: int) -> list[int]:
        """Each user's purchase cents in ``[lo_day, hi_day)``, computed once per window."""
        key = (lo_day, hi_day)
        out = self._revenue.get(key)
        if out is None:
            out = self._revenue[key] = [
                revenue_between(pairs, lo_day, hi_day) for pairs in self.purchases
            ]
        return out


def ground_truth(postbacks: PostbackTable, lo_day: int, hi_day: int) -> dict[str, list[int]]:
    """Last-click revenue in ``[lo_day, hi_day)`` per postback week, as cents per origin column.

    Each week's list is indexed like ``postbacks.cohort.origins``. Sums over
    groups; users without a postback are not counted, and only weeks with a
    postback have a list.
    """
    cohort = postbacks.cohort
    width = len(cohort.origins)
    out: dict[str, list[int]] = {}
    by_cell: dict[int, list[int]] = {}  # each cell's week list
    for cell, j, cents in zip(
        postbacks.cells, cohort.column, cohort.window_revenue(lo_day, hi_day)
    ):
        if cell >= 0:
            vec = by_cell.get(cell)
            if vec is None:
                week = postbacks.cell_keys[cell][1]
                vec = by_cell[cell] = out.setdefault(week, [0] * width)
            vec[j] += cents
    return out


def usd(cents: int | float) -> str:
    """Render integer cents as a USD decimal string."""
    c = round(cents)
    sign = "-" if c < 0 else ""
    c = abs(c)
    return f"{sign}{c // 100}.{c % 100:02d}"
