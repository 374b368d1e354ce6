"""Closed-form load analyzers and the admission overflow bound.

Three checks compare offered or budgeted token load against the cache
capacity M:

  check_necessary_known    per-class rates, known lengths
  check_sufficient_known   per-class integer budgets, known lengths
  check_necessary_unknown  single rate over an empirical length mix

Every comparison is evaluated in exact rational arithmetic, so a load
that lands exactly on M is reported as "boundary" rather than silently
falling on one side of a float rounding. The overflow bound for the
scalar-budget controller is kept in log-space because realistic M makes
exp(-constant * M^2) underflow any float.

budget_search drives the simulator over a grid of control parameters
with fixed seeds and returns the argmax (or argmin, for latency
objectives) plus the full measured table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from kvflow.core import Rate, RequestClass, nonnegative_rate, positive_int, rational, workload_tokens
from kvflow.engine import run as engine_run, sweep
from kvflow.metrics import compute_metrics
from kvflow.oracle import OBJECTIVES, is_improvement, objective_value
from kvflow.policies import POLICIES, class_budgets, make_policy
from kvflow.workload import LengthDistribution

NEGLIGIBLE_LOG = -700.0


def _norm_classes(classes) -> List[Tuple[int, int, Optional[Rate]]]:
    """Accept RequestClass objects, (l, o) pairs, or (l, o, rate) triples;
    the lengths come back as ints and each rate as an int or a Fraction."""
    out: List[Tuple[int, int, Optional[Rate]]] = []
    for c in classes:
        if isinstance(c, RequestClass):
            out.append((c.prompt_len, c.decode_len, c.rate))
        else:
            tup = tuple(c)
            if len(tup) not in (2, 3):
                raise ValueError(f"class entry must be (l, o) or (l, o, rate), got {c!r}")
            l, o = positive_int("prompt_len", tup[0]), positive_int("decode_len", tup[1])
            out.append((l, o, nonnegative_rate("rate", tup[2]) if len(tup) == 3 else None))
    if not out:
        raise ValueError("need at least one request class")
    return out


@dataclass(frozen=True)
class LoadCheck:
    """Offered token load versus capacity, compared exactly."""

    offered_load: Fraction
    capacity: int
    necessary_violated: bool  # strictly above capacity: no policy can keep up
    boundary: bool  # exactly at capacity: the strict conditions say nothing

    @property
    def verdict(self) -> str:
        if self.necessary_violated:
            return "overloaded"
        if self.boundary:
            return "boundary"
        return "within_capacity"

    def as_dict(self) -> dict:
        return {
            "offered_load": float(self.offered_load),
            "offered_load_exact": str(self.offered_load),
            "capacity": self.capacity,
            "necessary_violated": self.necessary_violated,
            "boundary": self.boundary,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class SufficiencyCheck:
    """The two sub-conditions under which per-class budgets guarantee
    a drained queue and an always-respected cache bound."""

    budgeted_load: int  # sum of b_k * lifetime tokens, always integral
    capacity: int
    memory_condition: bool  # budgeted_load < capacity, strict
    rate_condition: bool  # b_k > rate_k for every class, strict
    rate_condition_per_class: Tuple[bool, ...]
    boundary: bool  # budgeted_load == capacity exactly

    @property
    def sufficient_holds(self) -> bool:
        return self.memory_condition and self.rate_condition

    def as_dict(self) -> dict:
        return {
            "budgeted_load": self.budgeted_load,
            "capacity": self.capacity,
            "memory_condition": self.memory_condition,
            "rate_condition": self.rate_condition,
            "rate_condition_per_class": list(self.rate_condition_per_class),
            "boundary": self.boundary,
            "sufficient_holds": self.sufficient_holds,
        }


def check_necessary_known(classes, capacity: int) -> LoadCheck:
    """Offered load sum(rate_k * lifetime_tokens_k) against capacity.

    A strictly larger load means the unfinished count grows without
    bound under every policy; a strictly smaller one proves nothing by
    itself.
    """
    capacity = positive_int("capacity", capacity)
    norm = _norm_classes(classes)
    load = Fraction(0)
    for l, o, rate in norm:
        if rate is None:
            raise ValueError("every class needs a rate; got a bare (l, o) pair")
        load += rate * workload_tokens(l, o)
    return LoadCheck(
        offered_load=load,
        capacity=capacity,
        necessary_violated=load > capacity,
        boundary=load == capacity,
    )


def check_sufficient_known(
    classes,
    budgets: Sequence[int],
    capacity: int,
    rates: Optional[Sequence[Rate]] = None,
) -> SufficiencyCheck:
    """Test the two conditions that make per-class budgets sufficient.

    memory_condition: sum(b_k * lifetime_tokens_k) < capacity strictly,
    which caps usage below capacity in every slot. rate_condition:
    b_k > rate_k strictly for every class, which drains each queue.
    Both are reported separately; sufficiency needs both.
    """
    capacity = positive_int("capacity", capacity)
    norm = _norm_classes(classes)
    if len(budgets) != len(norm):
        raise ValueError(f"{len(norm)} classes but {len(budgets)} budgets")
    budgets = class_budgets("budgets", budgets)
    if rates is None:
        rate_list = [r for _, _, r in norm]
        if any(r is None for r in rate_list):
            raise ValueError("classes carry no rates; pass rates= explicitly")
    else:
        if len(rates) != len(norm):
            raise ValueError(f"{len(norm)} classes but {len(rates)} rates")
        rate_list = [nonnegative_rate(f"rates[{k}]", r) for k, r in enumerate(rates)]
    budgeted = sum(b * workload_tokens(l, o) for b, (l, o, _) in zip(budgets, norm))
    per_class = tuple(b > r for b, r in zip(budgets, rate_list))
    return SufficiencyCheck(
        budgeted_load=budgeted,
        capacity=capacity,
        memory_condition=budgeted < capacity,
        rate_condition=all(per_class),
        rate_condition_per_class=per_class,
        boundary=budgeted == capacity,
    )


def check_necessary_unknown(
    length_dist: Optional[LengthDistribution], rate: Rate, capacity: int
) -> LoadCheck:
    """Single-rate variant: rate * E[lifetime tokens] against capacity.

    The expectation is taken exactly over the given empirical mix, which
    is finite by construction, so the bounded-support requirement holds
    with cap max_len(). An empty mix (None) offers zero load.
    """
    capacity = positive_int("capacity", capacity)
    rate = nonnegative_rate("rate", rate)
    load = Fraction(0) if length_dist is None else rate * length_dist.mean_workload()
    return LoadCheck(
        offered_load=load,
        capacity=capacity,
        necessary_violated=load > capacity,
        boundary=load == capacity,
    )


@dataclass(frozen=True)
class OverflowBound:
    """Expected overflow-event bound T * exp(-constant * M^2), kept in
    log-space. negligible flags values below exp(-700), which render as
    "~0" rather than a denormal."""

    epsilon: Fraction
    constant: Fraction  # epsilon^2 / (2 (A^2 + A) C^3)
    log_bound: float  # ln T - constant * M^2
    bound: float  # 0.0 once exp underflows
    negligible: bool

    def render(self) -> str:
        return "~0" if self.negligible else repr(self.bound)

    def as_dict(self) -> dict:
        return {
            "epsilon": float(self.epsilon),
            "epsilon_exact": str(self.epsilon),
            "constant": float(self.constant),
            "constant_exact": str(self.constant),
            "log_bound": self.log_bound,
            "bound": self.bound,
            "negligible": self.negligible,
            "rendered": self.render(),
        }


def overflow_bound(
    A: int,
    C: int,
    M: int,
    T: int,
    b: Optional[Rate] = None,
    length_dist: Optional[LengthDistribution] = None,
    epsilon: Optional[Rate] = None,
) -> OverflowBound:
    """Bound on expected overflow events for the scalar-budget controller.

    Either pass epsilon directly, or pass the budget b together with a
    length distribution, in which case epsilon = 1 - b * E[w] / M. A is
    the per-slot activation cap (an integer at least ceil(b)) and C
    bounds every prompt and output length in the support.
    """
    A, C = positive_int("activation cap A", A), positive_int("length bound C", C)
    M, T = positive_int("M", M), positive_int("T", T)
    if epsilon is None:
        if b is None or length_dist is None:
            raise ValueError("pass epsilon, or b together with length_dist")
        b = nonnegative_rate("b", b)
        if A < math.ceil(b):
            raise ValueError(f"A={A} is below ceil(b)={math.ceil(b)}")
        if length_dist.max_len() > C:
            raise ValueError(
                f"C={C} does not bound the lengths (max is {length_dist.max_len()})"
            )
        epsilon = 1 - b * length_dist.mean_workload() / M
    else:
        if b is not None or length_dist is not None:
            raise ValueError("pass either epsilon or (b, length_dist), not both")
        epsilon = rational("epsilon", epsilon, lambda e: e > 0, "positive")
    if epsilon <= 0:
        raise ValueError(
            f"slack epsilon must be positive, got {epsilon}; "
            "the budgeted load reaches or exceeds capacity"
        )
    constant = epsilon * epsilon / (2 * (A * A + A) * C ** 3)
    exponent = constant * M * M  # exact rational before the single rounding
    log_bound = math.log(T) - float(exponent)
    negligible = log_bound < NEGLIGIBLE_LOG
    bound = T * math.exp(-float(exponent)) if float(exponent) <= 745.0 else 0.0
    return OverflowBound(
        epsilon=epsilon,
        constant=constant,
        log_bound=log_bound,
        bound=bound,
        negligible=negligible,
    )


@dataclass(frozen=True)
class StabilityReport:
    """Aggregate verdict for one workload/budget configuration."""

    capacity: int
    necessary: LoadCheck
    sufficient: Optional[SufficiencyCheck] = None
    overflow: Optional[OverflowBound] = None

    @property
    def offered_load(self) -> Fraction:
        return self.necessary.offered_load

    @property
    def necessary_violated(self) -> bool:
        return self.necessary.necessary_violated

    @property
    def sufficient_holds(self) -> Optional[bool]:
        return None if self.sufficient is None else self.sufficient.sufficient_holds

    @property
    def epsilon_slack(self) -> Optional[Fraction]:
        """1 - budgeted_load / capacity when strictly positive."""
        if self.overflow is not None:
            return self.overflow.epsilon
        if self.sufficient is None:
            return None
        eps = 1 - Fraction(self.sufficient.budgeted_load, self.capacity)
        return eps if eps > 0 else None

    def as_dict(self) -> dict:
        eps = self.epsilon_slack
        return {
            "capacity": self.capacity,
            "offered_load": float(self.offered_load),
            "offered_load_exact": str(self.offered_load),
            "necessary_violated": self.necessary_violated,
            "sufficient_holds": self.sufficient_holds,
            "epsilon_slack": None if eps is None else float(eps),
            "necessary": self.necessary.as_dict(),
            "sufficient": None if self.sufficient is None else self.sufficient.as_dict(),
            "overflow_bound": None if self.overflow is None else self.overflow.as_dict(),
        }


def build_report(
    capacity: int,
    classes=None,
    budgets: Optional[Sequence[int]] = None,
    length_dist: Optional[LengthDistribution] = None,
    rate: Optional[Rate] = None,
    scalar_budget: Optional[Rate] = None,
    activation_cap: Optional[int] = None,
    horizon: Optional[int] = None,
) -> StabilityReport:
    """Compose the checks that apply to the given configuration.

    Known-length workloads pass classes (with rates) and optionally
    per-class budgets; unknown-length ones pass length_dist and rate and
    optionally a scalar budget, which also yields the overflow bound
    when a horizon is given. A length_dist of None is an empty mix, as a
    synthetic mix with every rate 0 gives: it offers no load and has no
    overflow bound.
    """
    capacity = positive_int("capacity", capacity)
    if classes is not None:
        necessary = check_necessary_known(classes, capacity)
        sufficient = None
        if budgets is not None:
            sufficient = check_sufficient_known(classes, budgets, capacity)
        return StabilityReport(capacity=capacity, necessary=necessary, sufficient=sufficient)
    if rate is None:
        raise ValueError("pass classes, or rate together with length_dist")
    necessary = check_necessary_unknown(length_dist, rate, capacity)
    overflow = None
    if scalar_budget is not None and horizon is not None and length_dist is not None:
        b = nonnegative_rate("scalar_budget", scalar_budget)
        eps = 1 - b * length_dist.mean_workload() / capacity
        if eps > 0:
            overflow = overflow_bound(
                A=activation_cap if activation_cap is not None else max(1, math.ceil(b)),
                C=length_dist.max_len(),
                M=capacity,
                T=horizon,
                b=b,
                length_dist=length_dist,
            )
    return StabilityReport(capacity=capacity, necessary=necessary, overflow=overflow)


# the mean of every objective over the seeds, then event and completion totals
SEARCH_FIELDS = ("budget", "objective_value", *OBJECTIVES, "overflow_events", "eviction_events", "completed")


@dataclass(frozen=True)
class BudgetSearchResult:
    objective: str
    policy: str
    seeds: Tuple[int, ...]
    best_budget: object
    best_value: float
    rows: Tuple[dict, ...]  # one per grid point, in grid order, keyed by SEARCH_FIELDS


def budget_search(
    spec,
    kv_capacity: int,
    policy: str,
    objective: str,
    grid: Sequence,
    seeds: Sequence[int] = (0, 1, 2),
    params: Optional[dict] = None,
) -> BudgetSearchResult:
    """Measure every grid point with the same fixed seeds; pick the best.

    Grid points are values of the policy's searched parameter, over params.
    The objective per grid point is the mean over seeds of the oracle's
    objective_value, and the oracle's is_improvement says which mean is
    better: latency objectives minimize, throughput objectives maximize,
    and a grid point with no completions scores infinitely bad latency.
    Ties keep the earliest grid point, so repeated calls return the same
    answer.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; known: {', '.join(OBJECTIVES)}")
    searched = POLICIES[policy].searched if policy in POLICIES else None
    if searched is None:
        raise ValueError(f"policy {policy!r} has no searchable parameter")
    grid = list(grid)
    if not grid:
        raise ValueError("grid must not be empty")

    built = [make_policy(policy, {**(params or {}), searched: point}) for point in grid]

    def report(arrivals, pol, seed):
        return compute_metrics(engine_run(arrivals, pol, kv_capacity, seed=seed))

    measured = zip(*sweep(spec, built, seeds, report))  # per grid point, one report per seed
    rows: List[dict] = []
    best_idx = None
    best_value = None
    for idx, (point, reports) in enumerate(zip(grid, measured)):
        means = {
            name: sum(float(objective_value(m, name)) for m in reports) / len(seeds)
            for name in OBJECTIVES
        }
        row = {"budget": str(point), "objective_value": means[objective], **means}
        for name in ("overflow_events", "eviction_events", "completed"):
            row[name] = sum(getattr(m, name) for m in reports)
        rows.append(row)
        if is_improvement(means[objective], best_value, objective):
            best_idx = idx
            best_value = means[objective]
    return BudgetSearchResult(
        objective=objective,
        policy=policy,
        seeds=tuple(int(s) for s in seeds),
        best_budget=grid[best_idx],
        best_value=best_value,
        rows=tuple(rows),
    )
