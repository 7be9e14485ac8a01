"""AVG's certified parametric search against a brute-force oracle.

Every instance is small enough to enumerate: at most six cells, capacities
of at most three rows.  The oracle walks every integer allocation of missing
rows to cells, keeps those that meet every frequency constraint (and the "at
least one row" floor when nothing is observed), and takes the exact extreme
averages with exact rational arithmetic.  Each AVG range must contain those
extremes, and — on the exact backends — each endpoint must sit within
``avg_tolerance·max(1, |v|)`` of them.

The oracle shares only the cell decomposition with the program under test;
capacities, value bounds and the feasibility rule are re-derived from the
constraint set.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.relational.aggregates import AggregateFunction
from repro.solvers import milp as milp_module

TOLERANCE = 1e-6
#: (known_sum, known_count): the floored regime and an observed partition.
PARTITIONS = [(0.0, 0.0), (13.0, 2.0)]
#: Float noise allowed on containment (the search's ratios are floats).
SLACK = 1e-12


def random_pcset(rng: np.random.Generator, disjoint: bool
                 ) -> PredicateConstraintSet:
    """Three constraints on ``t`` with ``ku <= 3``.

    Overlapping sets couple cells and always force rows (``kl >= 1`` on the
    first constraint), so the floored search runs too.  Disjoint sets force
    none: every frequency row is then redundant and the observed-partition
    search runs on the pure box skeleton (the vectorised greedy step).
    """
    constraints = []
    for index in range(3):
        if disjoint:
            low = 4.0 * index
            high = low + 3.0
        else:
            low = float(rng.integers(0, 6))
            high = low + float(rng.integers(2, 6))
        value_low = float(rng.integers(-4, 6))
        value_high = value_low + float(rng.integers(0, 8))
        max_rows = int(rng.integers(1, 4))
        if disjoint:
            min_rows = 0
        else:
            min_rows = 1 if index == 0 else int(rng.integers(0, 2))
        constraints.append(PredicateConstraint(
            Predicate.range("t", low, high),
            ValueConstraint({"v": (value_low, value_high)}),
            FrequencyConstraint(min(min_rows, max_rows), max_rows),
            name=f"c{index}"))
    pcset = PredicateConstraintSet(constraints)
    if disjoint:
        pcset.mark_disjoint(True)
    return pcset


def exact_extremes(pcset: PredicateConstraintSet, covering: list[frozenset],
                   known_sum: float, known_count: float
                   ) -> tuple[Fraction, Fraction] | None:
    """(min, max) combined average over every feasible integer allocation,
    or None when no allocation is feasible."""
    capacities, uppers, lowers = [], [], []
    for cover in covering:
        members = [pcset[index] for index in cover]
        upper = min(pc.value_upper("v") for pc in members)
        lower = max(pc.value_lower("v") for pc in members)
        barren = upper < lower
        capacities.append(0 if barren else min(pc.max_rows()
                                               for pc in members))
        uppers.append(Fraction(upper))
        lowers.append(Fraction(lower))
    assert len(capacities) <= 6 and max(capacities, default=0) <= 3
    best_max = best_min = None
    known_sum, known_count = Fraction(known_sum), Fraction(known_count)
    for allocation in itertools.product(*(range(c + 1) for c in capacities)):
        rows = sum(allocation)
        if known_count == 0 and rows == 0:
            continue
        if any(not pc.min_rows()
               <= sum(x for x, cover in zip(allocation, covering)
                      if index in cover)
               <= pc.max_rows()
               for index, pc in enumerate(pcset)):
            continue
        denominator = known_count + rows
        high = (known_sum + sum(x * u for x, u in zip(allocation, uppers))
                ) / denominator
        low = (known_sum + sum(x * l for x, l in zip(allocation, lowers))
               ) / denominator
        best_max = high if best_max is None else max(best_max, high)
        best_min = low if best_min is None else min(best_min, low)
    if best_max is None:
        return None
    return best_min, best_max


def instances(disjoint: bool, count: int = 12):
    """Seeded feasible instances with the oracle's answer for each
    partition."""
    rng = np.random.default_rng(2024 if disjoint else 4202)
    found = []
    while len(found) < count:
        pcset = random_pcset(rng, disjoint)
        solver = PCBoundSolver(pcset, BoundOptions(check_closure=False))
        covering = [cell.covering
                    for cell in solver.program(None, "v").decomposition.cells]
        truths = [exact_extremes(pcset, covering, *partition)
                  for partition in PARTITIONS]
        if any(truth is None for truth in truths):
            continue
        found.append((pcset, truths))
    return found


def avg_range(pcset, partition, **options):
    solver = PCBoundSolver(pcset, BoundOptions(check_closure=False,
                                               avg_tolerance=TOLERANCE,
                                               **options))
    known_sum, known_count = partition
    return solver.bound(AggregateFunction.AVG, "v", None,
                        known_sum=known_sum, known_count=known_count)


def assert_contains(result, truth, label):
    low, high = (float(value) for value in truth)
    assert result.lower <= low + SLACK * max(1.0, abs(low)), (label, result,
                                                              truth)
    assert result.upper >= high - SLACK * max(1.0, abs(high)), (label, result,
                                                                truth)


def assert_tight(result, truth, label):
    low, high = (float(value) for value in truth)
    assert low - result.lower <= TOLERANCE * max(1.0, abs(low)), (label,
                                                                  result, truth)
    assert result.upper - high <= TOLERANCE * max(1.0, abs(high)), (label,
                                                                    result,
                                                                    truth)


COUPLED = instances(disjoint=False)
PURE_BOX = instances(disjoint=True)


@pytest.mark.parametrize("backend,reuse", [
    ("scipy", True), ("scipy", False),
    ("branch-and-bound", True), ("branch-and-bound", False)])
def test_coupled_skeletons_match_the_oracle(backend, reuse):
    for number, (pcset, truths) in enumerate(COUPLED):
        for partition, truth in zip(PARTITIONS, truths):
            result = avg_range(pcset, partition, milp_backend=backend,
                               program_reuse=reuse)
            label = (backend, reuse, number, partition)
            assert_contains(result, truth, label)
            assert_tight(result, truth, label)


@pytest.mark.parametrize("reuse", [True, False])
def test_pure_box_skeletons_match_the_oracle(reuse):
    for number, (pcset, truths) in enumerate(PURE_BOX):
        solver = PCBoundSolver(pcset, BoundOptions(check_closure=False))
        assert solver.program(None, "v")._skeleton("active")._pure_box
        for partition, truth in zip(PARTITIONS, truths):
            result = avg_range(pcset, partition, program_reuse=reuse)
            label = ("greedy", reuse, number, partition)
            assert_contains(result, truth, label)
            assert_tight(result, truth, label)


@pytest.mark.parametrize("reuse", [True, False])
def test_relaxation_ranges_contain_the_oracle(reuse):
    """The LP relaxation bounds a superset of allocations: containment only."""
    for number, (pcset, truths) in enumerate(COUPLED + PURE_BOX):
        for partition, truth in zip(PARTITIONS, truths):
            result = avg_range(pcset, partition, milp_backend="relaxation",
                               program_reuse=reuse)
            assert_contains(result, truth, ("relaxation", reuse, number,
                                            partition))


def test_certificate_survives_a_suboptimal_incumbent(monkeypatch):
    """HiGHS may stop within its MIP gap with a worse incumbent.  A stub
    that always returns the *worst* feasible allocation (with the honest
    dual bound of the real optimum) must still yield sound ranges."""
    real_milp = milp_module.scipy_milp
    stubbed = {"calls": 0}

    def suboptimal(c, **kwargs):
        best = real_milp(c=c, **kwargs)
        worst = real_milp(c=-np.asarray(c), **kwargs)
        if best.status != 0 or worst.status != 0:
            return best
        stubbed["calls"] += 1
        return OptimizeResult(
            status=0, success=True, message="stubbed incumbent",
            x=worst.x, fun=float(np.dot(c, worst.x)),
            mip_dual_bound=best.mip_dual_bound, mip_gap=1.0,
            mip_node_count=0)

    monkeypatch.setattr(milp_module, "scipy_milp", suboptimal)
    for number, (pcset, truths) in enumerate(COUPLED):
        for partition, truth in zip(PARTITIONS, truths):
            result = avg_range(pcset, partition, milp_backend="scipy")
            assert_contains(result, truth, ("stubbed", number, partition))
    assert stubbed["calls"] > 0


def test_search_is_observable_without_profiling():
    """Solves per side land in a registry histogram; each ``avg.round``
    span carries its target and certified gap."""
    pcset, _ = COUPLED[0]
    histogram = get_registry().histogram("solver.avg_iterations")
    before = histogram.count
    tracer = get_tracer()
    with tracer.trace("query", force=True) as trace:
        avg_range(pcset, PARTITIONS[1])
    assert histogram.count == before + 2  # one observation per side
    rounds = [span for span in trace if span.name == "avg.round"]
    assert rounds
    for span in rounds:
        assert "target" in span.attributes and "gap" in span.attributes
        assert span.attributes["gap"] >= 0.0
