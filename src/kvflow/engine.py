"""The slot-stepped serving engine.

Each slot advances through five fixed phases:

1. arrivals      -- new requests append to the waiting queue
2. activation    -- the policy's ActivationDecision is applied, in order
3. overflow      -- the projected end-of-slot usage is compared to the
                    budget; while it exceeds, the policy's EvictionDecision
                    is applied and the check repeats
4. decode        -- every active request emits one token
5. completion    -- requests whose generated count reached decode_len
                    release their cache at the end of the slot

The projected usage equals sum(prompt_len + generated + 1) over the active
set, which is exactly the end-of-slot usage after decode, so the recorded
per-slot usage never exceeds the budget. A completing request still counts
its full prompt_len + decode_len in its final slot.

Requests decode one token per slot without exception, so the engine never
loops over the active set: completions are booked into a calendar at
activation time and usage is maintained incrementally. An evicted request
loses all generated tokens and rejoins the waiting queue at its original
arrival position.

The engine also keeps the footprint ledger a policy asks for in step with
the active set (see PolicyView.ledger).

With record_events on, the engine keeps an event log: one
(slot, kind, request_id, usage_after) entry per arrival, activation,
overflow, eviction and completion, in phase order within each slot. The
decode phase records one entry per slot whose active set is nonempty,
(slot, "decode_step", ids, usage_after), with ids a tuple of the active
requests in decode order, which is activation order with re-activations
last. event_rows expands a log to one row per event, and
write_events_csv writes those rows.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from kvflow.core import (
    ARRIVAL_ORDER,
    EngineError,
    OversizedRequestError,
    Request,
    SimState,
    WaitingQueue,
    integer,
)
from kvflow.policies import Policy, PolicyView
from kvflow.workload import ArrivalStream, WorkloadSpec, generate_arrivals

POLICY_STREAM_TAG = 1

EVENT_ARRIVE = "arrive"
EVENT_ACTIVATE = "activate"
EVENT_EVICT = "evict"
EVENT_DECODE = "decode_step"
EVENT_COMPLETE = "complete"
EVENT_OVERFLOW = "overflow"

EVENT_FIELDS = ("slot", "kind", "request_id", "usage_after")
# the csv module's default writer ends lines in \r\n and quotes none of these
# fields, so plain formatting writes the same bytes
_EVENT_HEADER = ",".join(EVENT_FIELDS) + "\r\n"
_EVENT_ROW = "%d,%s,%d,%d\r\n"
_EVENT_CHUNK_ROWS = 4096

# one log entry: a row, or a slot's decode rows with their ids in a tuple
EventEntry = Tuple[int, str, Union[int, Tuple[int, ...]], int]


@dataclass
class RunResult:
    """Everything one run produced: series, counters, and completions.

    usage[t-1] is the peak end-of-slot usage U_t (completing requests
    still counted); waiting_len / active_len are post-release queue sizes.
    budgets holds the per-slot activation budget drawn by the policy, or
    -1 where the policy has none. completed_* arrays are aligned records
    of every completed request. events is the event log when the run
    recorded one: one entry per event, except that each slot's decode
    rows share one entry holding a tuple of ids (see event_rows).
    """

    policy_name: str
    kv_capacity: int
    horizon: int
    seed: int
    usage: np.ndarray
    waiting_len: np.ndarray
    active_len: np.ndarray
    budgets: np.ndarray
    prefill_tokens: np.ndarray
    decode_tokens: np.ndarray
    completed_arrival: np.ndarray
    completed_slot: np.ndarray
    completed_decode_len: np.ndarray
    completed_prompt_len: np.ndarray
    arrivals_total: int
    overflow_slots: int
    eviction_count: int
    wasted_tokens: int
    generated_tokens: int
    final_waiting: int
    final_active: int
    class_waiting: Optional[np.ndarray] = None
    class_arrivals: Optional[np.ndarray] = None
    exhausted_slot: Optional[int] = None
    events: Optional[List[EventEntry]] = None

    @property
    def completed_count(self) -> int:
        return len(self.completed_slot)

    @property
    def max_usage(self) -> int:
        return int(self.usage.max()) if len(self.usage) else 0

    def latencies(self) -> np.ndarray:
        """Completion slot minus arrival slot, inclusive of both ends."""
        return self.completed_slot - self.completed_arrival + 1

    def unfinished(self) -> np.ndarray:
        return self.waiting_len + self.active_len


def event_rows(events: Iterable[EventEntry]) -> Iterator[Tuple[int, str, int, int]]:
    """Expand an event log to one (slot, kind, request_id, usage_after)
    row per event.

    A decode entry, (slot, "decode_step", ids, usage_after) with ids a
    tuple, gives one row per id in order; an empty tuple gives none.
    Every other entry, a plain row log's decode rows included, is a row
    already and passes through unchanged.
    """
    for entry in events:
        ids = entry[2]
        if type(ids) is tuple:
            slot, kind, _, usage_after = entry
            for rid in ids:
                yield slot, kind, rid, usage_after
        else:
            yield entry


def write_events_csv(events: Iterable[EventEntry], path) -> None:
    """Write an event log as CSV, byte for byte what the csv module's
    writer would write over event_rows(events).

    The first line is the header ``slot,kind,request_id,usage_after``; every
    line, the header included, ends in ``\\r\\n``. Each row is
    ``<slot>,<kind>,<request_id>,<usage_after>`` with the integers in
    decimal and nothing quoted. ``kind`` is one of ``arrive``, ``activate``,
    ``overflow``, ``evict``, ``decode_step`` and ``complete``; ``overflow``
    rows carry ``request_id`` -1. A decode entry's rows are formatted with
    one % call, and a plain row log is written as it is. Rows go out
    in chunks of about _EVENT_CHUNK_ROWS, so the whole file is never held
    as one string.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_EVENT_HEADER)
        parts: List[str] = []
        rows = 0
        for entry in events:
            ids = entry[2]
            if type(ids) is tuple:
                if not ids:
                    continue
                head, tail = f"{entry[0]},{entry[1]},", f",{entry[3]}\r\n"
                # %s writes str(id), as the csv module's writer does
                row = head.replace("%", "%%") + "%s" + tail.replace("%", "%%")
                parts.append((row * len(ids)) % ids)
                rows += len(ids)
            else:
                parts.append(_EVENT_ROW % entry)
                rows += 1
            if rows >= _EVENT_CHUNK_ROWS:
                fh.write("".join(parts))
                parts.clear()
                rows = 0
        fh.write("".join(parts))


class Engine:
    """Drives one policy over one arrival stream, slot by slot."""

    def __init__(
        self,
        policy: Policy,
        kv_capacity: int,
        seed: int = 0,
        record_events: bool = False,
        track_classes: Optional[int] = None,
    ) -> None:
        kv_capacity = integer("kv_capacity", kv_capacity, 1)
        seed = integer("seed", seed, 0)
        if track_classes is not None:
            track_classes = integer("track_classes", track_classes, 0)
        self.policy = policy
        self.state = SimState(kv_capacity, seed, waiting=WaitingQueue(policy.group_key))
        self.record_events = record_events
        self.events: List[EventEntry] = []
        self._calendar: Dict[int, List[Request]] = {}  # end slot -> bookings
        self._view = PolicyView(
            clock=0,
            kv_capacity=kv_capacity,
            usage=0,
            waiting=self.state.waiting,
            active=self.state.active,
        )
        self._class_waiting = [0] * track_classes if track_classes else None
        # counters
        self.arrivals_total = 0
        self.overflow_slots = 0
        self.eviction_count = 0
        self.wasted_tokens = 0
        self.generated_tokens = 0
        # series
        self.series_usage: List[int] = []
        self.series_waiting: List[int] = []
        self.series_active: List[int] = []
        self.series_budget: List[int] = []
        self.series_prefill: List[int] = []
        self.series_decode: List[int] = []
        self.series_class_waiting: List[Tuple[int, ...]] = []
        # completion records
        self.completed_arrival: List[int] = []
        self.completed_slot: List[int] = []
        self.completed_decode_len: List[int] = []
        self.completed_prompt_len: List[int] = []
        policy.reset(np.random.SeedSequence([seed, POLICY_STREAM_TAG]))

    def step(self, slot_requests: Sequence[Request]) -> None:
        """Advance one slot through the five phases.

        The queue takes arrivals in the order given. Each must have this
        slot as its arrival_slot, the slot must list them in id order, and
        no id may arrive twice in one run. step() checks none of this;
        run() checks it for hand-built streams, and generated streams hold
        to it by construction.
        """
        state = self.state
        t = state.clock + 1
        state.clock = t
        kv = state.kv_capacity
        active = state.active
        waiting = state.waiting
        record = self.record_events
        class_waiting = self._class_waiting
        events = self.events

        # phase 1: arrivals
        if slot_requests:
            push = waiting.push
            for r in slot_requests:
                push(r)
                if class_waiting is not None and r.class_id is not None:
                    class_waiting[r.class_id] += 1
            self.arrivals_total += len(slot_requests)
            if record:
                usage_now = state.usage_total
                for r in slot_requests:
                    events.append((t, EVENT_ARRIVE, r.id, usage_now))

        # phase 2: activation
        view = self._view
        view.clock = t
        view.usage = state.usage_total
        if view._ledger is not None:
            view._ledger.advance(t)
        decision = self.policy.decide(view)
        projected = state.usage_total + len(active)
        prefill = 0
        to_activate = decision.to_activate
        if view._ledger is not None:
            booked = view._ledger.take_booked()
            if booked != list(to_activate):
                raise EngineError(f"policy activated {list(to_activate)} but booked {booked} in the ledger")
        if to_activate:
            calendar = self._calendar
            remove = waiting.remove
            for rid in to_activate:
                try:
                    r = remove(rid)
                except EngineError:
                    # an id activated earlier in this slot is active with
                    # this slot as its activation slot, and nothing else is
                    again = active.get(rid)
                    if again is not None and again.activation_slot == t:
                        raise EngineError(f"duplicate id {rid} in activation decision") from None
                    raise EngineError(f"policy activated id {rid} which is not waiting") from None
                lp = r.prompt_len
                if lp + 1 > kv:
                    raise OversizedRequestError(
                        f"request {rid} needs {lp + 1} tokens in its first "
                        f"slot but the budget is {kv}"
                    )
                if class_waiting is not None and r.class_id is not None:
                    class_waiting[r.class_id] -= 1
                r.activation_slot = t
                active[rid] = r
                projected += lp + 1
                prefill += lp
                # the booking is stale once the request is evicted, which
                # clears or later moves its activation slot
                end = t + r.decode_len - 1
                booked = calendar.get(end)
                if booked is None:
                    calendar[end] = [r]
                else:
                    booked.append(r)
                if record:
                    events.append((t, EVENT_ACTIVATE, rid, projected))
        self.series_budget.append(-1 if decision.budget is None else decision.budget)

        # phase 3: overflow check and repair
        overflowed = False
        while projected > kv:
            if not overflowed:
                overflowed = True
                self.overflow_slots += 1
                if record:
                    events.append((t, EVENT_OVERFLOW, -1, projected))
            eviction = self.policy.evict(view, projected - kv)
            if not eviction.to_evict:
                raise EngineError(
                    "policy returned an empty eviction while usage is over budget"
                )
            wasted = 0
            readmit = waiting.readmit
            for rid in eviction.to_evict:
                r = active.pop(rid, None)
                if r is None:
                    raise EngineError(f"policy evicted id {rid} which is not active")
                generated = t - r.activation_slot
                wasted += generated
                r.activation_slot = None
                projected -= r.prompt_len + generated + 1
                readmit(r)
                if class_waiting is not None and r.class_id is not None:
                    class_waiting[r.class_id] += 1
                if record:
                    events.append((t, EVENT_EVICT, rid, projected))
            if view._ledger is not None:
                view._ledger.remove(*eviction.to_evict)
            self.wasted_tokens += wasted
            self.eviction_count += len(eviction.to_evict)
            if projected > kv and not active:
                raise EngineError(
                    f"usage {projected} still exceeds budget {kv} with nothing "
                    "left to evict"
                )

        # phase 4: decode (implicit: every active request advances one token)
        usage_end = projected
        decode_count = len(active)
        self.generated_tokens += decode_count
        if record and decode_count:
            events.append((t, EVENT_DECODE, tuple(active), usage_end))

        # phase 5: completions release at end of slot
        self.series_usage.append(usage_end)
        due = self._calendar.pop(t, None)
        if due:
            done = []
            completed_arrival = self.completed_arrival
            completed_slot = self.completed_slot
            completed_decode_len = self.completed_decode_len
            completed_prompt_len = self.completed_prompt_len
            for r in due:
                if r.activation_slot != t - r.decode_len + 1:
                    continue  # stale booking: the request was evicted meanwhile
                rid = r.id
                del active[rid]
                usage_end -= r.prompt_len + r.decode_len
                completed_arrival.append(r.arrival_slot)
                completed_slot.append(t)
                completed_decode_len.append(r.decode_len)
                completed_prompt_len.append(r.prompt_len)
                done.append(rid)
                if record:
                    events.append((t, EVENT_COMPLETE, rid, usage_end))
            if self._view._ledger is not None:
                self._view._ledger.complete(*done)
        state.usage_total = usage_end

        self.series_waiting.append(len(waiting))
        self.series_active.append(len(active))
        self.series_prefill.append(prefill)
        self.series_decode.append(decode_count)
        if class_waiting is not None:
            self.series_class_waiting.append(tuple(class_waiting))

    def result(self, exhausted_slot: Optional[int] = None) -> RunResult:
        def as_i64(name: str, xs: list) -> np.ndarray:
            try:
                return np.asarray(xs, dtype=np.int64)
            except OverflowError:
                # ravel an object array: class_waiting holds one tuple a slot
                value = next(x for x in np.array(xs, dtype=object).ravel() if not -(2**63) <= x < 2**63)
                raise EngineError(f"series {name} holds {value}, past the int64 range of a run result") from None

        return RunResult(
            policy_name=self.policy.name,
            kv_capacity=self.state.kv_capacity,
            horizon=self.state.clock,
            seed=self.state.rng_seed,
            usage=as_i64("usage", self.series_usage),
            waiting_len=as_i64("waiting_len", self.series_waiting),
            active_len=as_i64("active_len", self.series_active),
            budgets=as_i64("budgets", self.series_budget),
            prefill_tokens=as_i64("prefill_tokens", self.series_prefill),
            decode_tokens=as_i64("decode_tokens", self.series_decode),
            completed_arrival=as_i64("completed_arrival", self.completed_arrival),
            completed_slot=as_i64("completed_slot", self.completed_slot),
            completed_decode_len=as_i64("completed_decode_len", self.completed_decode_len),
            completed_prompt_len=as_i64("completed_prompt_len", self.completed_prompt_len),
            arrivals_total=self.arrivals_total,
            overflow_slots=self.overflow_slots,
            eviction_count=self.eviction_count,
            wasted_tokens=self.wasted_tokens,
            generated_tokens=self.generated_tokens,
            final_waiting=len(self.state.waiting),
            final_active=len(self.state.active),
            class_waiting=(
                as_i64("class_waiting", self.series_class_waiting) if self._class_waiting is not None else None
            ),
            exhausted_slot=exhausted_slot,
            events=self.events if self.record_events else None,
        )


def _in_arrival_order(slots: Iterable[Sequence[Request]], track_classes: Optional[int]) -> Iterator[List[Request]]:
    """Yield each slot of a hand-built stream sorted by (arrival_slot, id),
    the order the waiting queue takes arrivals in, with each request's
    integer fields checked and kept as ints. Generated streams are built in
    that order. An id or arrival slot that is not an integer, a prompt or
    decode length that is not one of at least 1, a class_id that is neither
    None nor one of at least 0 (below track_classes when it is set), a
    request fed in a slot other than its arrival slot, or an id that arrived
    before is an error."""
    seen = set()
    for slot, slot_requests in enumerate(slots, 1):
        for r in slot_requests:
            r.id = rid = integer(f"request {r.id!r}: id", r.id)
            r.arrival_slot = integer(f"request {rid}: arrival_slot", r.arrival_slot)
            r.prompt_len = integer(f"request {rid}: prompt_len", r.prompt_len, 1)
            r.decode_len = integer(f"request {rid}: decode_len", r.decode_len, 1)
            if r.class_id is not None:
                r.class_id = integer(f"request {rid}: class_id", r.class_id, 0)
                if track_classes and r.class_id >= track_classes:
                    raise ValueError(f"request {rid}: class_id must be below track_classes={track_classes}, got {r.class_id}")
            if r.arrival_slot != slot:
                raise ValueError(
                    f"request {rid} has arrival_slot {r.arrival_slot} but was fed in slot {slot}"
                )
        ordered = sorted(slot_requests, key=ARRIVAL_ORDER)
        for r in ordered:
            if r.id in seen:
                raise EngineError(f"duplicate request id {r.id}")
            seen.add(r.id)
        yield ordered


def run(
    arrivals: Union[ArrivalStream, Sequence[Sequence[Request]]],
    policy: Policy,
    kv_capacity: int,
    seed: int = 0,
    record_events: bool = False,
    track_classes: Optional[int] = None,
) -> RunResult:
    """Run a policy over a materialized arrival stream.

    Slot t of a hand-built stream holds the requests whose arrival_slot
    is t (slots count from 1). Each slot is fed in id order, whatever
    order it lists its requests in, and an id may arrive only once; its
    requests' integer fields are checked and kept as ints. track_classes
    sizes an optional per-class waiting-count series (pass the class
    count; below a generated stream's class count it is an error).
    Identical inputs produce bit-identical results, event logs included.
    A run leaves nothing in the stream that a later run reads, so one
    stream can be replayed under any number of policies.
    """
    if isinstance(arrivals, ArrivalStream):
        slots = arrivals.slots
        exhausted = arrivals.exhausted_slot
        counts = arrivals.class_counts
    else:
        slots = _in_arrival_order(arrivals, track_classes)
        exhausted = None
        counts = None
    engine = Engine(
        policy,
        kv_capacity,
        seed=seed,
        record_events=record_events,
        track_classes=track_classes,
    )
    if counts is not None and track_classes and track_classes < counts.shape[1]:
        raise ValueError(f"track_classes={track_classes} is below the stream's class count {counts.shape[1]}")
    for slot_requests in slots:
        engine.step(slot_requests)
    result = engine.result(exhausted_slot=exhausted)
    if counts is not None and track_classes:
        result.class_arrivals = counts
    return result


def _sweep_seed(spec: WorkloadSpec, policies: Tuple[Policy, ...], fn: Callable, seed: int) -> list:
    """One seed of a sweep: its stream, generated once, under every policy."""
    arrivals = generate_arrivals(spec, seed)
    return [fn(arrivals, policy, seed) for policy in policies]


def sweep(
    spec: WorkloadSpec, policies: Sequence[Policy], seeds: Sequence[int], fn: Callable, jobs: int = 1
) -> Iterator[list]:
    """Compare policies seed by seed on shared streams.

    For each seed, in seed order, yields [fn(arrivals, policy, seed) for
    policy in policies], with each seed's stream generated once. fn calls
    run itself (which resets the policy) and returns only what the caller
    keeps. In-process, a seed starts only once the caller has taken the
    previous one; with jobs > 1 the seeds run in worker processes, so the
    spec, the policies and fn must pickle. An empty seeds is an error.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    task = partial(_sweep_seed, spec, tuple(policies), fn)
    if jobs <= 1 or len(seeds) <= 1:
        yield from map(task, seeds)
        return
    with ProcessPoolExecutor(max_workers=min(jobs, len(seeds))) as pool:
        yield from pool.map(task, seeds)
