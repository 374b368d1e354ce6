"""Core state types and memory accounting for the slotted serving model.

Time advances in unit slots. Every active request decodes exactly one token
per slot, so a request admitted with prompt length l holds l + j cache
tokens during the slot where it emits its j-th output token. The footprint
peaks at l + o in the final slot and the cache is released at the end of
that slot. A request that is activated in slot t emits its first token in
slot t, i.e. it already holds l + 1 at the end of its activation slot.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import merge
from numbers import Rational
from itertools import chain
from operator import attrgetter
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple, Union

Rate = Union[int, float, Fraction]


def positive_int(name: str, value: object) -> int:
    """value, an int of at least 1, or a ValueError naming name. A bool is
    not a number."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


class EngineError(RuntimeError):
    """A policy or engine contract was violated mid-run."""


class OversizedRequestError(EngineError):
    """A single request cannot fit in the cache even when served alone."""


@dataclass(frozen=True)
class RequestClass:
    """A (prompt length, output length) request type with an arrival rate.

    rate is the mean number of arrivals of this class per slot.
    """

    prompt_len: int
    decode_len: int
    rate: Rate

    def __post_init__(self) -> None:
        positive_int("prompt_len", self.prompt_len)
        positive_int("decode_len", self.decode_len)
        if self.rate < 0:
            raise ValueError(f"rate must be nonnegative, got {self.rate}")

    @property
    def lifetime_tokens(self) -> int:
        return workload_tokens(self.prompt_len, self.decode_len)


@dataclass(slots=True)
class Request:
    """One request, plus the slot it was last activated in.

    decode_len is always stored (the engine needs it to schedule the
    completion), but policies only see it when output_known is true.
    activation_slot is the engine's only write into a request: it is set
    when the request is activated and means something only while the
    request is active (eviction clears it and discards all generated
    tokens, so progress restarts on re-activation). Everything else a run
    learns lives in the engine, so one stream can be replayed under any
    number of policies.
    """

    id: int
    prompt_len: int
    decode_len: int
    arrival_slot: int
    class_id: Optional[int] = None
    output_known: bool = True
    activation_slot: Optional[int] = None


def workload_tokens(prompt_len: int, decode_len: int) -> int:
    """Total cache token-slots one request occupies over its lifetime.

    Summing the per-slot footprint l + j over output positions j = 1..o
    gives l*o + (o + o^2)/2, which is always an integer.
    """
    if prompt_len <= 0 or decode_len <= 0:
        raise ValueError(
            f"lengths must be positive, got prompt_len={prompt_len} decode_len={decode_len}"
        )
    return prompt_len * decode_len + (decode_len + decode_len * decode_len) // 2


def nearest_rank(n: int, pct_num: int = 95, pct_den: int = 100) -> int:
    """1-based order statistic index: ceil(pct * n) without float error."""
    if n <= 0:
        raise ValueError("need at least one observation")
    return -((-pct_num * n) // pct_den)


# the order waiting requests are served and arrivals reach the queue in
ARRIVAL_ORDER = attrgetter("arrival_slot", "id")


# The most characters, and the largest exponent, a number string may have.
# Fraction builds 10**exponent in full, so "1e100000000" would take minutes;
# every float's shortest decimal stays within both.
NUMBER_LIMIT = 1000


def _too_big(text: str) -> Optional[str]:
    """Why the number string text is too big to parse, or None."""
    _, e, exponent = text.lower().rpartition("e")
    if len(text) > NUMBER_LIMIT:
        reason = f"has {len(text)} characters, more than {NUMBER_LIMIT}"
    else:
        try:
            if not e or abs(int(exponent)) <= NUMBER_LIMIT:
                return None
        except ValueError:
            return None  # no exponent: Fraction parses or rejects the rest
        reason = f"has an exponent beyond {NUMBER_LIMIT}"
    shown = repr(text) if len(text) <= 40 else repr(text[:40]) + "..."
    return f"number string {shown} {reason}"


def as_fraction(value: Union[Rate, str]) -> Fraction:
    """An exact rational; a float means its shortest decimal (0.1 is 1/10).

    Integers, Fractions and strings ("3/2", "0.25") convert as Fraction
    does. Anything else, floats included, goes through its shortest decimal
    str(), so a budget or rate written as 0.1 is analysed and run as exactly
    one tenth, not as the nearest binary double. A string longer than
    NUMBER_LIMIT, or with an exponent beyond it, is a ValueError.
    """
    if isinstance(value, Rational):
        return Fraction(value)
    text = value if isinstance(value, str) else str(value)
    reason = _too_big(text)
    if reason is not None:
        raise ValueError(reason)
    return Fraction(text)


def rational(name: str, value: object, within: Callable[[Rational], bool], what: str) -> Union[int, Fraction]:
    """value as an exact rational for which within holds, or a ValueError naming
    name. An int stays as it is; a float (by its shortest decimal), a Fraction or
    a fraction string ("5/2") becomes a Fraction. A bool is not a number."""
    number = None
    if isinstance(value, (int, float, str, Fraction)) and not isinstance(value, bool):
        try:
            number = value if isinstance(value, int) else as_fraction(value)
        except ZeroDivisionError:
            pass  # "5/0"
        except ValueError as exc:  # nan, inf, or a string that is no number
            if str(exc).startswith("number string"):  # or one too big to parse
                raise ValueError(f"{name}: {exc}") from None
    if number is None:
        raise ValueError(f"{name} must be a number or a fraction string, got {value!r}")
    if not within(number):
        raise ValueError(f"{name} must be {what}, got {value}")
    return number


class WaitingGroup:
    """One FIFO group of waiting requests, in (arrival_slot, id) order.

    Fresh arrivals append to a main list. An evicted request re-entering
    at its arrival position goes to a side list that is sorted lazily and
    merged in when the group is read, so a re-entry never costs a pass over
    the backlog. Removal at the head of either list is O(1); removal from
    the middle of the group costs O(group).

    Policies read a group (its length, head, order and count_before); only
    the WaitingQueue that owns it changes it.
    """

    __slots__ = ("key", "_main", "_mhead", "_side", "_shead", "_sdirty")

    def __init__(self, key: Hashable) -> None:
        self.key = key
        self._main: list = []
        self._mhead = 0
        self._side: list = []
        self._shead = 0
        self._sdirty = False

    def __len__(self) -> int:
        return len(self._main) - self._mhead + len(self._side) - self._shead

    def __iter__(self) -> Iterator[Request]:
        """Yield the group's requests in (arrival_slot, id) order."""
        if self._sdirty:
            self._settle()
        main, side = self._main, self._side
        # walk the live parts natively (islice would step through the
        # consumed prefixes)
        fresh = map(main.__getitem__, range(self._mhead, len(main)))
        if not side:
            return fresh
        old = map(side.__getitem__, range(self._shead, len(side)))
        if not main or ARRIVAL_ORDER(side[-1]) < ARRIVAL_ORDER(main[self._mhead]):
            return chain(old, fresh)
        return merge(old, fresh, key=ARRIVAL_ORDER)

    def head(self) -> Request:
        """The group's first request; the group must not be empty."""
        if self._sdirty:
            self._settle()
        main, side = self._main, self._side
        if not side:
            return main[self._mhead]
        old = side[self._shead]
        if not main:
            return old
        fresh = main[self._mhead]
        return old if ARRIVAL_ORDER(old) < ARRIVAL_ORDER(fresh) else fresh

    def count_before(self, arrival_slot: int, req_id: int) -> int:
        """How many of the group's requests order strictly before
        (arrival_slot, req_id)."""
        if self._sdirty:
            self._settle()
        key = (arrival_slot, req_id)
        return (
            bisect_left(self._main, key, self._mhead, key=ARRIVAL_ORDER) - self._mhead
            + bisect_left(self._side, key, self._shead, key=ARRIVAL_ORDER) - self._shead
        )

    def _settle(self) -> None:
        side = self._side[self._shead :]
        side.sort(key=ARRIVAL_ORDER)
        self._side = side
        self._shead = 0
        self._sdirty = False

    def _take(self, req_id: int) -> Request:
        """Remove a request from the middle of the group, in O(group)."""
        for entries, start in ((self._main, self._mhead), (self._side, self._shead)):
            for i in range(start, len(entries)):
                if entries[i].id == req_id:
                    return entries.pop(i)
        raise EngineError(f"request {req_id} is not in group {self.key!r}")


class WaitingQueue:
    """The waiting requests, held in FIFO groups (see WaitingGroup).

    group_key maps a request to the key of its group each time it enters
    or re-enters the queue; None keeps every request in one group. A group
    stays once made, empty or not: dropping and remaking groups as they
    drain and refill fragments the heap enough to raise the peak memory of
    long runs. Iteration merges the groups in (arrival_slot, id) order.
    """

    __slots__ = ("_key", "_groups", "_members")

    def __init__(self, group_key: Optional[Callable[[Request], Hashable]] = None) -> None:
        self._key = group_key
        self._groups: Dict[Hashable, WaitingGroup] = {}
        self._members: Dict[int, WaitingGroup] = {}  # id -> its group

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, req_id: int) -> bool:
        return req_id in self._members

    @property
    def groups(self) -> Dict[Hashable, WaitingGroup]:
        """Every group made so far, by key (some may be empty); to read,
        not to change."""
        return self._groups

    def live_groups(self) -> List[WaitingGroup]:
        """The nonempty groups, in the order they were made."""
        # remove empties a list once its head passes the last entry, and
        # _take never takes a list's head, so a group is empty iff both its
        # lists are: no Python-level __len__ call per group
        return [g for g in self._groups.values() if g._main or g._side]

    def push(self, request: Request) -> None:
        """Append a fresh arrival. Keys must be nondecreasing over pushes."""
        key = None if self._key is None else self._key(request)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = WaitingGroup(key)
        group._main.append(request)
        self._members[request.id] = group

    def readmit(self, request: Request) -> None:
        """Re-insert an evicted request at its arrival position, in the
        group its key names now."""
        key = None if self._key is None else self._key(request)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = WaitingGroup(key)
        group._side.append(request)
        group._sdirty = True
        self._members[request.id] = group

    def remove(self, req_id: int) -> Request:
        """Take a waiting request out of the queue and return it."""
        group = self._members.pop(req_id, None)
        if group is None:
            raise EngineError(f"request {req_id} is not waiting")
        main, h = group._main, group._mhead
        if main and main[h].id == req_id:
            # the common case: the group's oldest fresh arrival
            r = main[h]
            h += 1
            if h == len(main) or (h > 64 and h * 2 > len(main)):
                del main[:h]  # drop the consumed prefix once it is most of the list
                h = 0
            group._mhead = h
            return r
        if group._sdirty:
            group._settle()
        side, h = group._side, group._shead
        if side and side[h].id == req_id:
            # the oldest re-entry
            r = side[h]
            h += 1
            if h == len(side):
                side.clear()
                h = 0
            group._shead = h
            return r
        return group._take(req_id)  # an activation out of FIFO order

    def __iter__(self) -> Iterator[Request]:
        """Yield every waiting request in (arrival_slot, id) order."""
        groups = self._groups.values()
        if len(groups) == 1:
            return iter(next(iter(groups)))
        return merge(*groups, key=ARRIVAL_ORDER)


@dataclass
class SimState:
    """Mutable simulator state: the clock, the queues, and the budget.

    active preserves activation order (most recent last), which is what
    last-in-first-out eviction walks backwards. usage_total is the
    incrementally maintained end-of-slot usage; usage() recomputes it from
    scratch as an independent cross-check.
    """

    kv_capacity: int
    rng_seed: int
    clock: int = 0
    waiting: WaitingQueue = field(default_factory=WaitingQueue)
    active: dict = field(default_factory=dict)
    usage_total: int = 0


def usage(state: SimState) -> int:
    """Recompute end-of-slot cache usage over the active set.

    A request activated at slot s has generated clock - s + 1 tokens by the
    end of the current slot, so it holds prompt_len + clock - s + 1.
    """
    t = state.clock
    return sum(r.prompt_len + (t - r.activation_slot + 1) for r in state.active.values())


def peak_projection(
    entries: Iterable[Tuple[int, int, int]], horizon: int
) -> list:
    """Projected end-of-slot usage for each of the next `horizon` slots.

    entries are (prompt_len, generated, decode_len) triples for the active
    set. Every request decodes one token per slot and leaves at the end of
    the slot where generated reaches decode_len, so the entry at offset d
    counts prompt_len + generated + d for exactly the requests with
    generated + d <= decode_len.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    totals = [0] * horizon
    for prompt_len, generated, decode_len in entries:
        span = min(decode_len - generated, horizon)
        base = prompt_len + generated
        for d in range(1, span + 1):
            totals[d - 1] += base + d
    return totals
