"""Admission and eviction policies.

Every policy sees the simulator only through a PolicyView, which exposes
waiting and active requests as lightweight records and hides decode
lengths for requests whose output length is declared unknown. (The built-in
policies below read the engine's records through the view's private
accessors, which skip those copies, and never read a hidden decode length.)
A policy is
a deterministic state machine over (view, internal state, seed stream):
decide() picks waiting requests to activate this slot, evict() names
active requests to remove when the projected usage overruns the budget.

The engine's WaitingQueue is the only store of waiting requests. A policy
declares how it is grouped (group_key) and reads the groups; only the
engine adds and removes requests.

The engine also owns the one footprint ledger of the active set, an
AdmissionPlanner reached through PolicyView.ledger: an incremental
feasibility oracle over the exact per-slot footprint trajectory. The
projection-based policies query it and book their activations in it; the
engine keeps it in step with evictions, completions and the clock.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import islice
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, Hashable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from kvflow.core import EngineError, Request, WaitingGroup, WaitingQueue, integer, positive_int, rational

if TYPE_CHECKING:
    from kvflow.workload import WorkloadSpec

WaitingView = namedtuple(
    "WaitingView", ["id", "prompt_len", "class_id", "decode_len", "arrival_slot"]
)
ActiveView = namedtuple(
    "ActiveView", ["id", "prompt_len", "generated", "decode_len", "activation_slot"]
)


class PolicyApplicabilityError(ValueError):
    """The policy cannot run on this workload (e.g. hidden outputs)."""


_new_tuple = tuple.__new__


def _waiting_view(r: Request) -> WaitingView:
    # tuple.__new__ skips the generated Python-level WaitingView.__new__,
    # which costs as much again as the record itself
    return _new_tuple(
        WaitingView,
        (
            r.id,
            r.prompt_len,
            r.class_id,
            r.decode_len if r.output_known else None,
            r.arrival_slot,
        ),
    )


class PolicyView:
    """Read-only window onto the simulator state for one slot.

    usage is the end-of-previous-slot cache usage. Active requests report
    generated as of before this slot's decode step, so a request activated
    in the current slot shows generated = 0. decode_len is None on both
    lists whenever the request's output length is hidden.
    """

    __slots__ = (
        "clock",
        "kv_capacity",
        "usage",
        "_waiting",
        "_active",
        "_ledger",
    )

    def __init__(
        self,
        clock: int,
        kv_capacity: int,
        usage: int,
        waiting: WaitingQueue,
        active: Dict[int, Request],
    ) -> None:
        self.clock = clock
        self.kv_capacity = kv_capacity
        self.usage = usage
        self._waiting = waiting
        self._active = active
        self._ledger: Optional[AdmissionPlanner] = None

    @property
    def waiting_len(self) -> int:
        return len(self._waiting)

    @property
    def active_len(self) -> int:
        return len(self._active)

    def iter_waiting(self) -> Iterator[WaitingView]:
        return map(_waiting_view, self._waiting)

    # The accessors below hand out the engine's own records. Copying
    # each into a view costs about as much as a built-in policy's whole
    # per-request work, so those policies read the records directly; they
    # must not read decode_len where output_known is false, nor write.

    def _waiting_records(self) -> Iterator[Request]:
        """iter_waiting, as the records themselves."""
        return iter(self._waiting)

    def _waiting_groups(self) -> Dict[Hashable, WaitingGroup]:
        """The waiting queue's groups (some may be empty), by the policy's
        group key."""
        return self._waiting.groups

    def _live_groups(self) -> List[WaitingGroup]:
        """The waiting queue's nonempty groups."""
        return self._waiting.live_groups()

    def ledger(self, policy: "Policy") -> "AdmissionPlanner":
        """The footprint ledger of the active set, built on the first call.

        Requests already active then enter it under policy.assumed_len.
        The engine owns it from then on: it advances the clock before each
        decide and drops a request when it is evicted or completes. A
        policy that reads the ledger books every activation in it
        (admit_many with the ids, in activation order) and changes nothing
        else; the engine raises EngineError when the ids booked in a slot
        are not exactly the ids activated.
        """
        ledger = self._ledger
        if ledger is None:
            t = self.clock
            ledger = self._ledger = AdmissionPlanner(self.kv_capacity, clock=t)
            for r in self._active.values():
                # not exact: a policy may assume a length other than the true one
                assumed = policy.assumed_len(r.id, r.decode_len if r.output_known else None)
                ledger.bootstrap(r.id, r.prompt_len, t - r.activation_slot, assumed, exact=False)
        return ledger

    def active_ids(self) -> List[int]:
        """Active request ids in activation order (no view construction)."""
        return list(self._active.keys())

    def _active_view(self, r: Request) -> ActiveView:
        return ActiveView(
            r.id,
            r.prompt_len,
            self.clock - r.activation_slot,
            r.decode_len if r.output_known else None,
            r.activation_slot,
        )

    def iter_active(self) -> Iterator[ActiveView]:
        for r in self._active.values():
            yield self._active_view(r)

    def iter_active_reversed(self) -> Iterator[ActiveView]:
        """Active requests from most recently activated to oldest."""
        for r in reversed(self._active.values()):
            yield self._active_view(r)


@dataclass
class ActivationDecision:
    """Waiting request ids to activate this slot, in activation order.

    budget records the per-slot activation budget drawn by stochastic
    flow control (None for policies without one).
    """

    to_activate: List[int] = field(default_factory=list)
    budget: Optional[int] = None


@dataclass
class EvictionDecision:
    """Active request ids to evict, applied in order."""

    to_evict: List[int] = field(default_factory=list)


# The ledger keeps base(d) below this bound at every depth, so its int64
# vector (base(d) + d) has room for a range add of the same size on top.
INT64_ROOM = 2**62

# Planner-side record of a booked request: identical candidates booked
# together share one record, since nothing in it is per request.
_PlannedEntry = namedtuple("_PlannedEntry", ["mass_abs", "rem_abs", "assumed_len", "exact"])


class AdmissionPlanner:
    """Incremental feasibility oracle for projection-based admission.

    Tracks base(d), the projected end-of-slot usage d slots ahead of
    the current slot for the active set plus tentatively admitted
    candidates, and the running maximum F(x) = max_{d<=x} (base(d) + d).
    A candidate with prompt length l and assumed output length o would
    add l + d at offset d <= o, so it fits iff F(o) + l <= kv_capacity.
    Admitting a candidate only ever tightens the constraint, so a
    rejection stays valid for the rest of the slot.

    Bookkeeping is in absolute coordinates: an entry admitted at slot s
    with assumed length x is a point mass at rem_abs = s + x with
    mass_abs = l - s, so aging (every generated count up by one per slot)
    is free as the clock advances. Per booking the planner keeps one
    registry record (mass_abs, rem_abs, assumed length, exact) and adds it
    to a bin keyed by rem_abs; bins of bookings that are not exact also
    keep what of them is still registered. When the clock reaches a bin,
    the bin falls off and that remainder turns "overdue": an assumed
    window outgrown by reality, counting as finishing one slot ahead
    (depth 1 only), which matches a rolling max(assumed, generated + 1)
    estimate.

    Most queries are answered from two numbers. Depth 1 is exact: base(1)
    is the running total of every bin and the overdue mass. Deeper depths
    have an upper bound B with base(d) + d <= max(B, d) for every d >= 2:
    a booking raises B by the most it adds at any depth, an advance
    lowers it by one per slot, and a slot's first read of the dense vector
    resets it to the vector's maximum past depth 1. Evictions and
    completions never raise base(d), so they leave B as it is.
    max_admissible returns depth 1's count when B shows that no deeper
    depth allows fewer; feasible asks it for one copy.

    A query the two numbers cannot prove, and projection, take the exact
    path: the dense vector _vec[d - 1] = base(d) + d, down to the deepest
    bin, a numpy int64 array, so a check is one vectorised min and an
    admission one range add. It is
    built from the bins only when a query needs it and none is kept. A
    one-slot advance keeps it by shifting it down one place (base(d) one
    slot later is base(d + 1) now); an admission in a slot where no query
    has read it yet drops it instead of updating it. An evicted request
    (remove) whose footprint is left at depth 1 alone comes out of the
    vector in place; one that reaches deeper drops it. A request that
    finishes at the end of the slot (complete) still counts in that slot,
    so a finish on schedule changes nothing but the registry, and an early
    finish comes out of depths 2 and deeper.

    int64 wraps where Python ints never do, so kv_capacity must stay below
    2**62 (INT64_ROOM), and a booking that lifts base(d) to it at some depth
    raises EngineError. One that max_admissible allows keeps every base(d)
    within kv_capacity, so it never does. The check reads depth 1 and B,
    and the vector only where B cannot clear it.

    In a run the engine owns the one planner, the ledger of the active set
    (see PolicyView.ledger): policies query it and book the candidates they
    activate, and the engine advances it and removes evicted and completed
    requests. Once iter_by_assumed_len is first read, booked requests are
    also kept grouped by assumed length in booking order, so it reads an
    eviction order without sorting the active set.
    """

    def __init__(self, kv_capacity: int, clock: int = 0) -> None:
        if kv_capacity >= INT64_ROOM:
            raise ValueError(f"kv_capacity must be below 2**62 for a ledger policy, got {kv_capacity}")
        self.kv_capacity = kv_capacity
        self._clock = clock
        # rem_abs (past the clock) -> [mass_abs, count, loose mass_abs,
        # loose count]: the bookings ending there, and the part of them that
        # is registered and not exact, which turns overdue when the clock
        # gets there
        self._bins: Dict[int, List[int]] = {}
        # every booking counted at depth 1, the bins and the overdue ones
        self._mass = 0
        self._cnt = 0
        self._bound = 0  # B: base(d) + d <= max(B, d) at every depth d >= 2
        self._reg: Dict[int, _PlannedEntry] = {}
        # assumed length -> ids in booking order, built by the first
        # iter_by_assumed_len and kept from then on
        self._by_len: Optional[Dict[int, Dict[int, None]]] = None
        self._booked: List[int] = []  # since take_booked
        # dense per-slot cache: _vec[d-1] = base(d) + d down to the deepest
        # bin, built only when a query needs it
        self._vec: Optional[np.ndarray] = None
        self._used = False  # a query read _vec in the current slot
        self._maxx = 16  # deepest horizon requested so far; densify this far

    def _add_bin(self, rem_abs: int, mass_abs: int, count: int, loose: bool) -> None:
        """Add count bookings, of mass_abs in all, to the bin at rem_abs;
        loose says they are registered and not exact."""
        b = self._bins.get(rem_abs)
        if b is None:
            self._bins[rem_abs] = [mass_abs, count, mass_abs, count] if loose else [mass_abs, count, 0, 0]
        else:
            b[0] += mass_abs
            b[1] += count
            if loose:
                b[2] += mass_abs
                b[3] += count

    def _raise_bound(self, depth: int, lift: int, count: int) -> None:
        """Raise B for a booking that adds lift + count * d at each depth
        d <= depth; raise EngineError, before the booking changes anything,
        where it lifts base(d) to INT64_ROOM at some depth."""
        add = lift + count * depth  # the most it adds at any depth
        bound = max(self._bound, depth) + add
        top = self._depth1() - 1 + lift + count  # base(1) after it
        if bound >= INT64_ROOM:
            # B bounds the depths past the first from above only: read them
            top = max(top, add)
            if depth > 1 and top < INT64_ROOM:
                d = np.arange(2, depth + 1)
                deep = self._dense(depth)[1:depth] - d + count * d  # base(d) after it, less lift
                top = max(top, int(deep.max()) + lift)
                bound = max(self._bound, top + depth)
        if top >= INT64_ROOM:
            raise EngineError(f"a booking lifts the ledger to {top} tokens or more at some depth, past the 2**62 its int64 vector holds")
        self._bound = bound

    def _depth1(self) -> int:
        """base(1) + 1, exact."""
        return self._mass + self._cnt * (self._clock + 1) + 1

    def depth1_room(self) -> int:
        """The longest prompt depth 1 still has room for: max_admissible
        answers 0 for any longer one."""
        return self.kv_capacity - self._depth1()

    def _book(self, ids: Sequence[int], entry: _PlannedEntry) -> None:
        self._reg.update(dict.fromkeys(ids, entry))
        if self._by_len is not None:
            self._by_len.setdefault(entry.assumed_len, {}).update(dict.fromkeys(ids))

    def advance(self, clock: int) -> None:
        """Move to a later slot.

        The bins the clock reaches fall off, and what is left in them of
        bookings that are not exact turns overdue, all in one update.
        """
        t = self._clock
        if clock <= t:
            return
        # a one-slot step reuses the dense vector: on the way only bins at
        # the new clock change, and depth 1 is computed afresh anyway
        prev = self._vec if clock == t + 1 else None
        self._vec = None  # the dense depth grid is anchored at the clock
        self._used = False
        self._bound -= clock - t
        self._clock = clock
        bins = self._bins
        for key in (clock,) if clock == t + 1 else [k for k in bins if k <= clock]:
            b = bins.pop(key, None)
            if b is not None:  # its loose part stays, overdue
                self._mass -= b[0] - b[2]
                self._cnt -= b[1] - b[3]
        if prev is not None:
            self._shift(prev)

    def _shift(self, prev: np.ndarray) -> None:
        """Re-anchor prev, the dense vector of the previous slot, at the
        clock, in place.

        prev[d] - 1 is base(d) + d here, for d < len(prev). Every bin ended
        within prev, so the deepest depth holds no booking, and depth 1 is
        read from the running totals (prev[0], which carried the old one,
        drops out).
        """
        np.subtract(prev[1:], 1, out=prev[:-1])
        prev[-1] = len(prev)
        prev[0] = self._depth1()
        self._vec = prev

    def _forget(self, rid: int) -> _PlannedEntry:
        """Drop a request from the registry and return its record."""
        e = self._reg.pop(rid, None)
        if e is None:
            raise KeyError(f"request {rid} is not tracked by the planner")
        if self._by_len is not None:
            group = self._by_len[e.assumed_len]
            del group[rid]
            if not group:
                del self._by_len[e.assumed_len]
        return e

    def remove(self, *rids: int) -> None:
        """Forget requests evicted in the current slot: from now on they
        count at no depth."""
        t = self._clock
        mass = cnt = 0
        for rid in rids:
            e = self._forget(rid)
            rem_abs = e.rem_abs
            if rem_abs > t:
                self._add_bin(rem_abs, -e.mass_abs, -1, not e.exact)
                if rem_abs > t + 1:
                    self._vec = None  # it reached past depth 1: densify at the next query
            elif e.exact:
                continue  # past its window, it already counts nowhere
            mass += e.mass_abs
            cnt += 1
        self._mass -= mass
        self._cnt -= cnt
        if self._vec is not None:
            self._vec[0] = self._depth1()

    def complete(self, *rids: int) -> None:
        """Forget requests that finish at the end of the current slot. They
        still count in it (depth 1); one that finishes before or after its
        assumed length frees the rest of that length."""
        t = self._clock
        vec = self._vec
        on_time_mass = on_time_cnt = 0  # not exact, finishing when assumed
        kept_mass = kept_cnt = 0  # off schedule: kept at depth 1 alone
        for rid in rids:
            e = self._forget(rid)
            rem_abs = e.rem_abs
            if rem_abs == t + 1:
                if not e.exact:
                    on_time_mass += e.mass_abs
                    on_time_cnt += 1
                continue  # on schedule: it counts in this slot only, as booked
            if rem_abs > t + 1:
                mass_abs = e.mass_abs
                self._add_bin(rem_abs, -mass_abs, -1, not e.exact)
                if vec is not None:
                    # in place: it held mass_abs + t + d at depths 2..rem_abs - t
                    deep = rem_abs - t
                    vec[1:deep] -= np.arange(mass_abs + t + 2, mass_abs + t + deep + 1)
            elif e.exact:
                continue  # past its window, it already counts nowhere
            kept_mass += e.mass_abs
            kept_cnt += 1
        if on_time_cnt:
            # they count in this slot as booked, and must not turn overdue
            b = self._bins[t + 1]
            b[2] -= on_time_mass
            b[3] -= on_time_cnt
        if kept_cnt:
            self._add_bin(t + 1, kept_mass, kept_cnt, False)

    def tracked(self, rid: int) -> bool:
        return rid in self._reg

    def entry(self, rid: int) -> _PlannedEntry:
        return self._reg[rid]

    def iter_by_assumed_len(self) -> Iterator[Tuple[int, int]]:
        """(assumed_len, id) of every booked request: shortest assumed
        length first, the most recent booking first among equals. Read it
        before changing the planner."""
        by_len = self._by_len
        if by_len is None:
            # the registry holds the booked ids in booking order
            by_len = self._by_len = {}
            for rid, e in self._reg.items():
                by_len.setdefault(e.assumed_len, {})[rid] = None
        for x in sorted(by_len):
            for rid in reversed(by_len[x]):
                yield x, rid

    def take_booked(self) -> List[int]:
        """Ids booked since the last call, in booking order."""
        booked = self._booked
        self._booked = []
        return booked

    def _densify(self, upto: int) -> None:
        t = self._clock
        if upto > self._maxx:
            self._maxx = upto
        # entries binned at rem >= t + d survive depth d, each holding
        # mass_abs + t + d there: a bin at depth k adds (m + c * t) + c * d at
        # every depth d <= k, so base(d) is a suffix sum over the bins. The
        # vector reaches the deepest bin (B is read from there, and a shift
        # finds nothing past it), then on to the deepest depth asked for
        bins = self._bins
        depth = max(bins, default=t) - t
        vec = np.zeros(max(depth, self._maxx), np.int64)
        cnt = np.zeros_like(vec)
        if depth:
            at = np.fromiter(bins, np.int64, len(bins)) - (t + 1)
            vec[at] = [m + c * t for m, c, _, _ in bins.values()]
            cnt[at] = [b[1] for b in bins.values()]
            vec[::-1].cumsum(out=vec[::-1])  # suffix sums, in place
            cnt[::-1].cumsum(out=cnt[::-1])
        # base(d) + d = sum(m + c * t) + (sum(c) + 1) * d
        cnt += 1
        cnt *= np.arange(1, len(vec) + 1)
        vec += cnt
        vec[0] = self._depth1()
        self._vec = vec

    def _dense(self, upto: int) -> np.ndarray:
        """The dense vector at least upto deep, built from the bins unless
        it is kept: the exact path of every query."""
        vec = self._vec
        if vec is None or len(vec) < upto:
            self._densify(upto)
            vec = self._vec
        elif self._used:
            return vec
        self._used = True
        # past the deepest bin base(d) = 0, which any B bounds
        deepest = max(self._bins, default=self._clock) - self._clock
        self._bound = int(vec[1:deepest].max()) if deepest > 1 else 0
        return vec

    def projection(self, horizon: int) -> List[int]:
        """base(1..horizon): the projected end-of-slot usage of the booked
        requests d = 1..horizon slots ahead."""
        return (self._dense(horizon)[:horizon] - np.arange(1, horizon + 1)).tolist()

    def feasible(self, prompt_len: int, assumed_len: int) -> bool:
        return self.max_admissible(prompt_len, assumed_len, 1) > 0

    def admit(self, prompt_len: int, assumed_len: int, req_id: int, exact: bool = True) -> None:
        self.admit_many(1, prompt_len, assumed_len, (req_id,), exact)

    def max_admissible(self, prompt_len: int, assumed_len: int, limit: int) -> int:
        """Largest count of identical candidates that fit, capped at limit.

        Equivalent to admitting (prompt_len, assumed_len) copies one at a
        time while feasible: at depth d each copy adds prompt_len + d, so
        the d-th constraint caps the count at
        1 + (kv_capacity - prompt_len - base(d) - d) // (prompt_len + d),
        and the binding depth is the minimum over d <= assumed_len.
        """
        if assumed_len < 1:
            raise ValueError(f"assumed_len must be >= 1, got {assumed_len}")
        if limit <= 0:
            return 0
        M = self.kv_capacity
        l = prompt_len
        room = M - l - self._depth1()
        if room < 0:
            return 0  # depth 1 has no room for even one copy
        cap = 1 + room // (l + 1)  # depth 1's cap
        if cap > limit:
            cap = limit
        if assumed_len == 1:
            return cap
        room = M - l - max(self._bound, assumed_len)
        if room >= 0 and 1 + room // (l + assumed_len) >= cap:
            return cap  # B shows no deeper depth caps it lower
        vec = self._dense(assumed_len)[:assumed_len]
        room = M - l - int(vec.max())
        if room < 0:
            return 0  # some depth has no room for even one copy
        if 1 + room // (l + assumed_len) >= limit:
            # the least room over the largest divisor already allows limit
            return limit
        return min(limit, 1 + int(((M - l - vec) // np.arange(l + 1, l + 1 + assumed_len)).min()))

    def admit_many(
        self,
        count: int,
        prompt_len: int,
        assumed_len: int,
        req_ids: Sequence[int],
        exact: bool = True,
    ) -> None:
        """Book count identical candidates in one pass; req_ids names them
        in booking order. exact says each ends when assumed_len says;
        otherwise one that outlives it turns overdue."""
        if count <= 0:
            return
        if len(req_ids) != count:
            raise ValueError(f"{len(req_ids)} ids name {count} candidates")
        # each candidate holds prompt_len + d at depth d <= assumed_len
        self._raise_bound(assumed_len, count * prompt_len, count)
        t = self._clock
        rem_abs = t + assumed_len
        mass_abs = prompt_len - t
        self._add_bin(rem_abs, mass_abs * count, count, not exact)
        self._mass += mass_abs * count
        self._cnt += count
        self._booked.extend(req_ids)
        self._book(req_ids, _PlannedEntry(mass_abs, rem_abs, assumed_len, exact))
        vec = self._vec
        if vec is not None:
            if self._used and assumed_len <= len(vec):
                # in-place range add: each candidate holds l + d at depth d <= x
                add0 = count * (prompt_len + 1)
                vec[:assumed_len] += np.arange(add0, add0 + count * assumed_len, count)
            else:
                self._vec = None  # no query of this slot read it, or it reaches past it

    def bootstrap(
        self,
        rid: int,
        prompt_len: int,
        generated: int,
        assumed_len: int,
        exact: bool = True,
    ) -> None:
        """Register an already-active request; one that has generated its
        assumed length already counts as finishing one slot ahead."""
        t = self._clock
        left = max(assumed_len - generated, 1)
        self._raise_bound(left, prompt_len + generated, 1)
        mass_abs = (prompt_len + generated) - t
        self._add_bin(t + left, mass_abs, 1, not exact)
        self._mass += mass_abs
        self._cnt += 1
        self._vec = None
        self._book((rid,), _PlannedEntry(mass_abs, t + left, assumed_len, exact))


# The kinds of policy parameter: each maps (name, value) to the value the policy
# keeps, or raises a ValueError naming the parameter. A bool is never a number.


def class_budgets(name: str, value: object) -> Tuple[int, ...]:
    """A per-class list (or tuple) of nonnegative integers, as a tuple of ints."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"{name} must be a nonempty list of nonnegative integers, got {value!r}")
    return tuple(integer(name, b, 0) for b in value)


def positive_rate(name: str, value: object) -> Union[int, Fraction]:
    return rational(name, value, lambda r: r > 0, "positive")


def unit_fraction(name: str, value: object) -> Union[int, Fraction]:
    return rational(name, value, lambda r: 0 <= r < 1, "in [0, 1)")


REQUIRED = object()  # the default of a parameter that has none


class Param(NamedTuple):
    """A declared policy parameter. A None default admits an explicit None too."""

    name: str
    kind: Callable[[str, object], object]
    default: object = REQUIRED


class Policy:
    """Base policy: decide() activations, evict() on overflow.

    The default eviction undoes the most recent activations first (within
    a slot, the reverse of the activation order) and stops as soon as the
    required release is covered: the minimal last-in-first-out prefix.
    """

    name = "policy"
    requires_known_outputs = False
    requires_classes = False
    # how the engine groups the waiting requests: None keeps one FIFO; a
    # method maps a request to its group's key each time it (re-)enters
    group_key: Optional[Callable[[Request], Hashable]] = None
    # the constructor's parameters, each kept as the attribute of its name,
    # and the one budget-search varies (None: not searchable)
    parameters: Tuple[Param, ...] = ()
    searched: Optional[str] = None

    def __init__(self, /, *args: object, **values: object) -> None:
        """Take the declared parameters by position (in declared order) or by keyword."""
        names = [p.name for p in self.parameters]
        if len(args) > len(names) or not values.keys().isdisjoint(names[: len(args)]):
            raise TypeError(f"{type(self).__name__} takes each of {names} once")
        vars(self).update(self.check_params({**dict(zip(names, args)), **values}))

    @classmethod
    def check_params(cls, values: Dict[str, object], omit: Optional[str] = None) -> Dict[str, object]:
        """Every declared parameter but omit: its value in values, checked
        against its kind, or else its default. The ValueError names the
        parameter that is missing, unexpected or of the wrong kind."""
        declared = [p for p in cls.parameters if p.name != omit]
        unexpected = sorted(set(values) - {p.name for p in declared})
        if unexpected:
            raise ValueError(f"policy {cls.name!r} got unexpected parameters {unexpected}")
        checked = {}
        for name, kind, default in declared:
            value = values.get(name, default)
            if value is REQUIRED:
                raise ValueError(f"policy {cls.name!r} is missing parameter {name!r}")
            checked[name] = value if value is default else kind(name, value)
        return checked

    def applicable(self, spec: "WorkloadSpec") -> Optional[str]:
        """Why this policy cannot run on the workload, or None if it can."""
        if self.requires_known_outputs and not spec.outputs_known:
            return "needs visible output lengths"
        if self.requires_classes and spec.classes is None:
            return "needs class structure"
        return None

    def reset(self, seed_seq: Optional[np.random.SeedSequence] = None) -> None:
        """Drop internal state before a run; seed_seq feeds any randomness."""

    def decide(self, view: PolicyView) -> ActivationDecision:
        raise NotImplementedError

    def assumed_len(self, req_id: int, decode_len: Optional[int]) -> int:
        """The output length this policy books a request under in the
        ledger (decode_len is None where it is hidden). A policy that reads
        PolicyView.ledger defines it; the ledger asks it for requests that
        were already active when it was built."""
        raise NotImplementedError(f"policy {self.name} reads the ledger but defines no assumed_len")

    def evict(self, view: PolicyView, required_release: int) -> EvictionDecision:
        ids: List[int] = []
        freed = 0
        for av in view.iter_active_reversed():
            ids.append(av.id)
            freed += av.prompt_len + av.generated + 1
            if freed >= required_release:
                break
        return EvictionDecision(ids)


class PerClassFlowControl(Policy):
    """Activate up to a fixed integer budget per class per slot, FIFO within class.

    Admission never looks at the cache: when every class budget b_k
    satisfies sum_k b_k * workload_tokens(l_k, o_k) <= kv_capacity, the
    usage stays under that sum and no eviction can ever trigger.
    """

    name = "flow_per_class"
    requires_known_outputs = True
    requires_classes = True
    parameters = (Param("budgets", class_budgets),)
    searched = "budgets"

    def applicable(self, spec: "WorkloadSpec") -> Optional[str]:
        reason = super().applicable(spec)
        if reason is None and len(self.budgets) != len(spec.classes):
            return f"needs one budget per class, got {len(self.budgets)} for {len(spec.classes)} classes"
        return reason

    # one group per class id; decide rejects any other id
    group_key = attrgetter("class_id")

    def decide(self, view: PolicyView) -> ActivationDecision:
        groups = view._waiting_groups()
        classes = range(len(self.budgets))
        for k, group in groups.items():
            if k not in classes:
                raise EngineError(f"request {group.head().id} has unknown class id {k!r}")
        acts: List[int] = []
        for k, budget in enumerate(self.budgets):
            group = groups.get(k)
            if budget and group:
                acts.extend([r.id for r in islice(group, budget)])
        return ActivationDecision(acts)


class ScalarFlowControl(Policy):
    """Activate a random per-slot number of requests, FIFO across classes.

    Each slot draws B_t = floor(b) + Bernoulli(frac(b)), so E[B_t] = b and
    B_t never exceeds cap. Admission ignores lengths entirely; overflows
    are repaired by the inherited last-in-first-out eviction.
    """

    name = "flow_scalar"
    # cap defaults to ceil(budget)
    parameters = (Param("budget", positive_rate), Param("cap", positive_int, None))
    searched = "budget"
    _rng: Optional[np.random.Generator] = None

    def __init__(self, /, *args: object, **values: object) -> None:
        super().__init__(*args, **values)
        b = self.budget
        self._floor = b.numerator // b.denominator
        self._frac = b - self._floor
        ceil_b = -(-b.numerator // b.denominator)
        if self.cap is None:
            self.cap = ceil_b
        elif self.cap < ceil_b:
            raise ValueError(f"cap {self.cap} is below ceil(budget) = {ceil_b}; the draw could exceed it")

    def reset(self, seed_seq=None) -> None:
        if self._frac > 0:
            if seed_seq is None:
                seed_seq = np.random.SeedSequence(0)
            self._rng = np.random.Generator(np.random.PCG64(seed_seq))
        else:
            self._rng = None

    def decide(self, view: PolicyView) -> ActivationDecision:
        b_t = self._floor
        if self._frac > 0:
            if self._rng is None:
                self.reset()
            if self._rng.random() < float(self._frac):
                b_t += 1
        acts = [r.id for r in islice(view._waiting_records(), b_t)]
        return ActivationDecision(acts, budget=b_t)


class AlphaProtection(Policy):
    """Greedy admission below a protected headroom; evict everything on overflow.

    Admits head-of-line while current usage plus the initial footprints
    (l + 1 each) of everything admitted this slot stays within
    (1 - alpha) * kv_capacity, stopping at the first request that does not
    fit. An overflow evicts the entire active set.
    """

    name = "alpha_protection"
    parameters = (Param("alpha", unit_fraction),)
    searched = "alpha"
    # (alpha, kv_capacity, admission limit) of the last decide
    _limit_of: Tuple[Optional[Fraction], int, int] = (None, 0, 0)

    def decide(self, view: PolicyView) -> ActivationDecision:
        # integer threshold: total <= (1 - alpha) * M iff total <= floor(...);
        # the Fraction arithmetic is redone only when alpha or M changes
        alpha, kv, limit = self._limit_of
        if alpha is not self.alpha or kv != view.kv_capacity:
            alpha, kv = self.alpha, view.kv_capacity
            limit = ((1 - alpha) * kv).__floor__()
            self._limit_of = (alpha, kv, limit)
        total = view.usage
        acts: List[int] = []
        for r in view._waiting_records():
            total += r.prompt_len + 1
            if total > limit:
                break
            acts.append(r.id)
        return ActivationDecision(acts)

    def evict(self, view: PolicyView, required_release: int) -> EvictionDecision:
        return EvictionDecision(view.active_ids())


class MemoryConstrained(Policy):
    """Admit FIFO while the full-lifetime projection provably fits.

    Each candidate is checked against the exact footprint trajectory of
    the active set plus everything admitted earlier this slot; the scan
    stops at the first rejection. With hidden outputs every length is
    treated as assume_max_output, the longest possible value, which keeps
    the projection an upper bound and the policy overflow-free.
    """

    name = "mc"
    # None: output lengths must be visible
    parameters = (Param("assume_max_output", positive_int, None),)

    def applicable(self, spec: "WorkloadSpec") -> Optional[str]:
        reason = super().applicable(spec)
        if reason is None and not spec.outputs_known and self.assume_max_output is None:
            return "needs assume_max_output when output lengths are hidden"
        return reason

    def assumed_len(self, req_id: int, decode_len: Optional[int]) -> int:
        if decode_len is not None:
            return decode_len
        if self.assume_max_output is None:
            raise PolicyApplicabilityError(
                f"policy {self.name} needs assume_max_output when output lengths are hidden"
            )
        return self.assume_max_output

    def decide(self, view: PolicyView) -> ActivationDecision:
        ledger = view.ledger(self)
        waiting_len = view.waiting_len
        if waiting_len == 0:
            return ActivationDecision([])
        # FIFO runs of candidates with one signature are admitted in bulk:
        # max_admissible says how many copies fit, which is where the
        # one-at-a-time scan would meet its first rejection. A run's head
        # needs only a feasibility check, so runs of one (distinct lengths)
        # cost no more than the one-at-a-time scan
        acts: List[int] = []
        run: List[int] = []
        sig = None
        room = 0
        for r in view._waiting_records():
            decode_len = r.decode_len if r.output_known else None
            cand = (r.prompt_len, self.assumed_len(r.id, decode_len), decode_len is not None)
            if cand != sig:
                if run:
                    ledger.admit_many(len(run), sig[0], sig[1], req_ids=run, exact=sig[2])
                    acts.extend(run)
                    run = []
                sig = cand
                if not ledger.max_admissible(cand[0], cand[1], 1):
                    break  # head-of-line: the first rejection ends the scan
                room = 0  # asked for once a second copy shows up
            elif not room:
                room = ledger.max_admissible(cand[0], cand[1], waiting_len)
            if run and len(run) == room:
                break
            run.append(r.id)
        if run:
            ledger.admit_many(len(run), sig[0], sig[1], req_ids=run, exact=sig[2])
            acts.extend(run)
        return ActivationDecision(acts)


def _skip_scan(
    ledger: AdmissionPlanner, groups: Iterable[WaitingGroup], shortest_first: bool, exact: bool
) -> List[int]:
    """Admit waiting requests from nonempty groups keyed (prompt_len,
    assumed_len), skipping past any that do not fit; the ids admitted, in
    order.

    Candidates are taken shortest assumed length first when shortest_first,
    then by (arrival_slot, id). Every waiting request of a group shares
    feasibility within a slot, so the scan walks one head per group instead
    of the whole queue: a group whose head does not fit is skipped for the
    rest of the slot, and one whose head fits is admitted in bulk up to the
    point where the next head of equal rank interleaves.

    Admissions only tighten the ledger, so a prompt longer than depth 1's
    room never fits again this slot and is passed over without a query.
    """
    room = ledger.depth1_room()
    # ids are unique, so comparisons never reach the group
    heap = []
    for group in groups:
        if group.key[0] <= room:
            head = group.head()
            heap.append((group.key[1] if shortest_first else 0, head.arrival_slot, head.id, group))
    heapify(heap)
    taken: Dict[WaitingGroup, int] = {}  # the prefix admitted so far
    acts: List[int] = []
    while heap:
        rank, _, _, group = heappop(heap)
        prompt_len, assumed_len = group.key
        if prompt_len > room:
            continue  # depth 1 has no room for it left
        start = taken.get(group, 0)
        limit = len(group) - start
        take = ledger.max_admissible(prompt_len, assumed_len, limit)
        if take == 0:
            continue  # head infeasible: skip the whole group this slot
        if heap and heap[0][0] == rank:
            limit = group.count_before(heap[0][1], heap[0][2]) - start
            take = min(take, limit)
        run = list(islice(group, start, start + take + 1))  # and the next head
        ids = [r.id for r in run[:take]]
        ledger.admit_many(take, prompt_len, assumed_len, req_ids=ids, exact=exact)
        acts.extend(ids)
        room = ledger.depth1_room()
        taken[group] = start + take
        if take < limit or len(run) == take:
            continue  # the group's next member no longer fits, or there is none
        heappush(heap, (rank, run[take].arrival_slot, run[take].id, group))
    return acts


class ShortestFirstMemoryConstrained(MemoryConstrained):
    """Memory-constrained admission in ascending output-length order.

    Scans candidates shortest decode first (ties by arrival slot, then
    id) and, unlike mc, skips an infeasible candidate and keeps going.
    """

    name = "mc_sf"
    requires_known_outputs = True
    parameters = ()
    assume_max_output = None

    def group_key(self, r: Request) -> Tuple[int, int]:
        if not r.output_known:
            raise PolicyApplicabilityError("shortest-first admission needs visible output lengths")
        return (r.prompt_len, r.decode_len)

    def decide(self, view: PolicyView) -> ActivationDecision:
        return ActivationDecision(_skip_scan(view.ledger(self), view._live_groups(), shortest_first=True, exact=True))


class AdaptivePrediction(Policy):
    """Optimistic admission under per-request output-length predictions.

    Every request starts with the shortest plausible prediction
    (min_output) and is admitted FIFO whenever the projection under the
    current predictions fits, skipping past infeasible candidates. On
    overflow the policy evicts in ascending prediction order (most recent
    first among equals) and doubles the evicted request's prediction, or
    raises it past the observed progress, whichever is larger; predictions
    persist across re-admissions. Never reads true decode lengths.

    An active request's prediction is the length it is booked under in
    the ledger; _pred holds the raised predictions of evicted requests
    until they are activated again.
    """

    name = "amin"
    parameters = (Param("min_output", positive_int, 1),)
    searched = "min_output"

    def __init__(self, /, *args: object, **values: object) -> None:
        super().__init__(*args, **values)
        self._pred: Dict[int, int] = {}

    def reset(self, seed_seq=None) -> None:
        self._pred = {}

    def group_key(self, r: Request) -> Tuple[int, int]:
        # read on every (re-)entry, so an evicted request waits under the
        # prediction its eviction raised
        return (r.prompt_len, self._pred.get(r.id, self.min_output))

    def prediction(self, req_id: int) -> int:
        """A waiting request's prediction."""
        return self._pred.get(req_id, self.min_output)

    def assumed_len(self, req_id: int, decode_len: Optional[int]) -> int:
        return self.prediction(req_id)

    def decide(self, view: PolicyView) -> ActivationDecision:
        acts = _skip_scan(view.ledger(self), view._live_groups(), shortest_first=False, exact=False)
        pred = self._pred
        if pred:
            # a raised prediction is booked in the ledger from now on
            for rid in acts:
                pred.pop(rid, None)
        return ActivationDecision(acts)

    def evict(self, view: PolicyView, required_release: int) -> EvictionDecision:
        t = view.clock
        active = view._active
        ids: List[int] = []
        freed = 0
        for predicted, rid in view.ledger(self).iter_by_assumed_len():
            r = active[rid]
            generated = t - r.activation_slot
            freed += r.prompt_len + generated + 1
            self._pred[rid] = max(2 * predicted, generated + 1)
            ids.append(rid)
            if freed >= required_release:
                break
        return EvictionDecision(ids)


class FixedSchedule(Policy):
    """Replay a precomputed activation schedule: slot -> request ids."""

    name = "fixed_schedule"

    def __init__(self, schedule: Dict[int, Sequence[int]]) -> None:
        self.schedule = {int(t): list(ids) for t, ids in schedule.items()}

    def decide(self, view: PolicyView) -> ActivationDecision:
        return ActivationDecision(list(self.schedule.get(view.clock, [])))


POLICIES: Dict[str, type] = {
    cls.name: cls
    for cls in (
        PerClassFlowControl, ScalarFlowControl, AlphaProtection,
        MemoryConstrained, ShortestFirstMemoryConstrained, AdaptivePrediction,
    )
}


def make_policy(name: str, params: Optional[dict] = None) -> Policy:
    """Build a registered policy from its name and its parameters; a
    ValueError names an unknown policy or the parameter at fault."""
    if name not in POLICIES:
        raise ValueError(f"unknown policy {name!r}; known: {', '.join(POLICIES)}")
    return POLICIES[name](**(params or {}))
