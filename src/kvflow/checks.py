"""Executable statistical checks tying the analyzers to simulated runs.

Each check gates on the static precondition it needs (budget sufficiency,
overload, or a positive load margin), returns "skipped" when the
precondition fails or none of its policies applies, and otherwise runs
the simulator across fixed seeds through engine.sweep and verdicts "pass"
or "fail"; an empty seed list is an error. Seeds, horizons, and
tolerances default to values fixed here so a failure is reproducible from
the logged seed, not negotiable at call time.

The almost-sure growth rate is checked at finite horizon with a 0.8
safety factor on the theoretical slope; that is a finite-sample proxy,
not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from kvflow.core import workload_tokens
from kvflow.engine import run as engine_run, sweep
from kvflow.metrics import compute_metrics
from kvflow.policies import make_policy
from kvflow.stability import (
    check_necessary_known,
    check_necessary_unknown,
    check_sufficient_known,
)
from kvflow.workload import WorkloadSpec

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

DEFAULT_SEEDS = tuple(range(20))
EXPLOSION_SEEDS = tuple(range(10))
EXPLOSION_SAFETY = 0.8
EXPLOSION_POLICIES = (
    ("flow_per_class", None),  # budgets filled in from the check arguments
    ("flow_scalar", {"budget": 12}),
    ("alpha_protection", {"alpha": 0.6}),
    ("mc", {}),
    ("mc_sf", {}),
    ("amin", {"min_output": 1}),
)


@dataclass
class CheckResult:
    """Outcome of one check: verdict plus the numbers behind it."""

    claim: str
    verdict: str
    reason: str
    seeds: Tuple[int, ...] = ()
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    @property
    def skipped(self) -> bool:
        return self.verdict == SKIPPED

    def as_dict(self) -> dict:
        return {
            "claim": self.claim,
            "verdict": self.verdict,
            "reason": self.reason,
            "seeds": list(self.seeds),
            "details": dict(self.details),
        }


def _offered_load(spec: WorkloadSpec) -> Fraction:
    if spec.kind == "synthetic":
        return check_necessary_known(spec.classes, 1).offered_load
    return check_necessary_unknown(spec.length_distribution(), spec.total_rate(), 1).offered_load


def _max_workload(spec: WorkloadSpec) -> int:
    if spec.classes is not None:
        return max(c.lifetime_tokens for c in spec.classes)
    return max(workload_tokens(r.prompt_len, r.decode_len) for r in spec.records)


def explosion_threshold(
    offered_load: Fraction, capacity: int, max_workload: int, safety: float = EXPLOSION_SAFETY
) -> float:
    """Minimum unfinished-count growth rate demanded of an overloaded run.

    The excess arrival work per slot, divided by the largest per-request
    lifetime cost, lower-bounds how fast the backlog must grow; the
    safety factor absorbs finite-horizon noise. Linear in the excess, so
    doubling the overshoot doubles the threshold.
    """
    excess = offered_load - capacity
    if excess <= 0:
        raise ValueError(f"load {offered_load} does not exceed capacity {capacity}")
    return safety * float(Fraction(excess, max_workload))


def check_budgeted_no_overflow(
    spec: WorkloadSpec,
    budgets: Sequence[int],
    kv_capacity: int,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> CheckResult:
    """Per-class budgets meeting the admission and memory conditions keep
    every run free of overflows and evictions, with peak usage bounded by
    the budgeted load."""
    claim = "budgeted admission never overflows"
    if spec.kind != "synthetic" or not spec.outputs_known:
        return CheckResult(claim, SKIPPED, "needs a synthetic workload with visible lengths")
    gate = check_sufficient_known(spec.classes, budgets, kv_capacity)
    if not gate.sufficient_holds:
        return CheckResult(
            claim,
            SKIPPED,
            "sufficiency precondition fails",
            details={"sufficiency": gate.as_dict()},
        )
    bound = gate.budgeted_load

    def outcome(arrivals, policy, seed):
        res = engine_run(arrivals, policy, kv_capacity, seed=seed)
        return {
            "seed": seed,
            "overflow_slots": res.overflow_slots,
            "evictions": res.eviction_count,
            "max_usage": res.max_usage,
        }

    policy = make_policy("flow_per_class", {"budgets": budgets})
    per_seed = [run for (run,) in sweep(spec, [policy], seeds, outcome)]
    bad = [r["seed"] for r in per_seed if r["overflow_slots"] or r["evictions"] or r["max_usage"] > bound]
    verdict = PASS if not bad else FAIL
    reason = "clean in every run" if not bad else f"violations at seeds {bad}"
    return CheckResult(
        claim,
        verdict,
        reason,
        seeds=tuple(seeds),
        details={"usage_bound": bound, "runs": per_seed},
    )


def check_overload_explosion(
    spec: WorkloadSpec,
    kv_capacity: int,
    budgets: Optional[Sequence[int]] = None,
    policies: Optional[Sequence[Tuple[str, Optional[dict]]]] = None,
    seeds: Sequence[int] = EXPLOSION_SEEDS,
    safety: float = EXPLOSION_SAFETY,
) -> CheckResult:
    """When offered load exceeds capacity, the unfinished count grows at
    least linearly under every policy.

    Works for synthetic mixes and trace replays alike: the load is the
    (empirical) mean lifetime cost times the arrival rate. Policies that
    cannot run on the spec are left out and named in details["left_out"].
    """
    claim = "overload grows the backlog linearly under every policy"
    load = _offered_load(spec)
    if load <= kv_capacity:
        return CheckResult(
            claim,
            SKIPPED,
            f"offered load {float(load):.1f} does not exceed capacity {kv_capacity}",
        )
    threshold = explosion_threshold(load, kv_capacity, _max_workload(spec), safety)
    roster = []
    left_out: List[str] = []
    for name, params in policies if policies is not None else EXPLOSION_POLICIES:
        if params is None:
            if budgets is None or spec.classes is None:
                left_out.append(f"{name} (needs per-class budgets)")
                continue
            params = {"budgets": budgets}
        policy = make_policy(name, params)
        reason = policy.applicable(spec)
        if reason is None:
            roster.append(policy)
        else:
            left_out.append(f"{name} ({reason})")
    if not roster:
        return CheckResult(claim, SKIPPED, f"no policy applies: {', '.join(left_out)}")

    def growth(arrivals, policy, seed):
        return compute_metrics(engine_run(arrivals, policy, kv_capacity, seed=seed)).queue_growth_slope

    measured = zip(*sweep(spec, roster, seeds, growth))  # per policy, one slope per seed
    slopes: List[dict] = []
    failures: List[str] = []
    for policy, per_seed in zip(roster, measured):
        name = policy.name
        for seed, slope in zip(seeds, per_seed):
            slopes.append({"policy": name, "seed": seed, "slope": slope})
            if slope < threshold:
                failures.append(f"{name}@{seed}: {slope:.3f}")
    verdict = PASS if not failures else FAIL
    reason = (
        f"all slopes >= {threshold:.3f} requests/slot"
        if not failures
        else f"below threshold {threshold:.3f}: {failures}"
    )
    if left_out:
        reason += f"; left out: {', '.join(left_out)}"
    return CheckResult(
        claim,
        verdict,
        reason,
        seeds=tuple(seeds),
        details={"offered_load": float(load), "threshold": threshold, "slopes": slopes, "left_out": left_out},
    )


def check_overflow_rarity(
    spec: WorkloadSpec,
    budget,
    kv_capacity: int,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    cap: Optional[int] = None,
) -> CheckResult:
    """A scalar admission budget whose mean load leaves a positive margin
    below capacity produces no observed overflows, and the per-slot
    activation draw never exceeds its cap."""
    claim = "scalar admission with positive load margin never overflows in practice"
    policy = make_policy("flow_scalar", {"budget": budget, "cap": cap})
    dist = spec.length_distribution()
    if dist is None:
        return CheckResult(claim, SKIPPED, "every class has arrival rate 0, so no load margin is defined")
    epsilon = 1 - policy.budget * dist.mean_workload() / kv_capacity
    if epsilon <= 0:
        return CheckResult(
            claim,
            SKIPPED,
            f"load margin epsilon = {float(epsilon):.4f} is not positive",
            details={"epsilon_exact": str(epsilon)},
        )
    draw_cap = policy.cap

    def outcome(arrivals, policy, seed):
        res = engine_run(arrivals, policy, kv_capacity, seed=seed)
        return res.overflow_slots, int(res.budgets.max())

    runs = [run for (run,) in sweep(spec, [policy], seeds, outcome)]
    observed = sum(overflow for overflow, _ in runs)
    cap_breaches = [seed for seed, (_, drawn) in zip(seeds, runs) if drawn > draw_cap]
    per_seed = [{"seed": seed, "overflow_slots": overflow} for seed, (overflow, _) in zip(seeds, runs)]
    verdict = PASS if observed == 0 and not cap_breaches else FAIL
    if verdict == PASS:
        reason = f"0 overflow slots across {len(list(seeds))} runs"
    elif cap_breaches:
        reason = f"activation draw exceeded {draw_cap} at seeds {cap_breaches}"
    else:
        reason = f"{observed} overflow slots observed"
    return CheckResult(
        claim,
        verdict,
        reason,
        seeds=tuple(seeds),
        details={
            "epsilon": float(epsilon),
            "epsilon_exact": str(epsilon),
            "draw_cap": draw_cap,
            "runs": per_seed,
        },
    )
