"""Unit tests for repro.parallel: capability gating, handoff, verification.

The randomized harness (test_property_soundness) pins the end-to-end
equivalences; these tests pin the pieces — the batch executor's
process-safety gate, the pickle-safe program handoff, and the
cross-backend alarm actually firing when a backend is (deliberately)
broken.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.exceptions import DisjointRangeError
from repro.relational.aggregates import AggregateFunction
from repro.service import ContingencyService
from repro.solvers.lp import LPSolution, SolutionStatus
from repro.solvers.registry import (
    BackendCapabilities,
    has_backend,
    register_backend,
)


def pc(predicate, lo, hi, name, value_range=(0.0, 10.0)):
    return PredicateConstraint(predicate, ValueConstraint({"v": value_range}),
                               FrequencyConstraint(lo, hi), name=name)


def windows_pcset(count: int = 6) -> PredicateConstraintSet:
    """``count`` disjoint unit windows over ``t``."""
    constraints = [pc(Predicate.range("t", float(i), i + 0.999),
                      0, 10 + i, f"w{i}",
                      value_range=(float(i), float(i + 10)))
                   for i in range(count)]
    pcset = PredicateConstraintSet(constraints)
    pcset.mark_disjoint(True)
    return pcset


def chained_pcset() -> PredicateConstraintSet:
    """Two chained windows {a, b} and an isolated one {c}."""
    return PredicateConstraintSet([
        pc(Predicate.range("t", 0, 2), 0, 10, "a"),
        pc(Predicate.range("t", 1, 3), 0, 10, "b"),
        pc(Predicate.range("t", 10, 12), 0, 10, "c"),
    ])


# --------------------------------------------------------------------- #
# Batch executor capability gate
# --------------------------------------------------------------------- #
class TestBatchCapabilityGate:
    def test_batch_process_mode_honours_capability_gate(self):
        """A process-mode batch falls back to the thread pool on a
        process-unsafe backend instead of crashing inside a worker."""
        from repro.core.engine import ContingencyQuery, PCAnalyzer
        from repro.service.batch import BatchExecutor
        from repro.solvers.milp import _solve_scipy

        register_backend(
            "test-native-handle-batch",
            lambda model, time_limit=None: _solve_scipy(model),
            replace=True,
            capabilities=BackendCapabilities(process_safe=False))
        analyzer = PCAnalyzer(windows_pcset(3), options=BoundOptions(
            check_closure=False, milp_backend="test-native-handle-batch"))
        with BatchExecutor(max_workers=2, mode="process") as executor:
            result = executor.execute(analyzer, [ContingencyQuery.count()])
        assert result.statistics.executor_mode == "thread"
        baseline = PCAnalyzer(windows_pcset(3), options=BoundOptions(
            check_closure=False)).analyze(ContingencyQuery.count())
        assert result.reports[0].lower == baseline.lower
        assert result.reports[0].upper == baseline.upper


# --------------------------------------------------------------------- #
# Pickle-safe handoff
# --------------------------------------------------------------------- #
class TestPickleHandoff:
    def test_warm_program_roundtrips_with_skeletons(self):
        solver = PCBoundSolver(chained_pcset(),
                               BoundOptions(check_closure=False))
        program = solver.program(None, "v")
        before = program.bound(AggregateFunction.AVG, known_sum=10.0,
                               known_count=2.0)
        restored = pickle.loads(pickle.dumps(program))
        after = restored.bound(AggregateFunction.AVG, known_sum=10.0,
                               known_count=2.0)
        assert (before.lower, before.upper) == (after.lower, after.upper)
        # Lazily-built skeleton variants travel with the program.
        assert restored._skeletons.keys() == program._skeletons.keys()

    def test_solver_roundtrips_without_shared_caches(self):
        solver = PCBoundSolver(windows_pcset(3),
                               BoundOptions(check_closure=False))
        before = solver.bound(AggregateFunction.COUNT)
        restored = pickle.loads(pickle.dumps(solver))
        after = restored.bound(AggregateFunction.COUNT)
        assert (before.lower, before.upper) == (after.lower, after.upper)


# --------------------------------------------------------------------- #
# Cross-backend verification
# --------------------------------------------------------------------- #
def _register_inflating_backend(name: str, factor: float) -> None:
    """A deliberately-broken backend: every objective scaled by ``factor``."""
    from repro.solvers.milp import _solve_scipy

    def broken(model, time_limit=None):
        solution = _solve_scipy(model)
        if solution.status is not SolutionStatus.OPTIMAL:
            return solution
        assert solution.objective is not None
        return LPSolution(SolutionStatus.OPTIMAL,
                          solution.objective * factor, solution.values)

    register_backend(name, broken, replace=True)


class TestCrossBackendVerification:
    OVERLAPPING = PredicateConstraintSet([
        pc(Predicate.range("t", 0, 2), 50, 100, "t1", value_range=(1.0, 20.0)),
        pc(Predicate.range("t", 1, 3), 75, 125, "t2", value_range=(1.0, 30.0)),
    ])

    def test_healthy_backends_agree(self):
        plain = PCBoundSolver(self.OVERLAPPING,
                              BoundOptions(check_closure=False))
        verified = PCBoundSolver(self.OVERLAPPING, BoundOptions(
            check_closure=False, verify_backend="branch-and-bound"))
        for aggregate, attribute in [(AggregateFunction.COUNT, None),
                                     (AggregateFunction.SUM, "v")]:
            expected = plain.bound(aggregate, attribute)
            actual = verified.bound(aggregate, attribute)
            assert (actual.lower, actual.upper) == \
                (expected.lower, expected.upper)

    def test_broken_backend_trips_the_alarm(self):
        # x5 pushes the broken COUNT range [375, 1125] clear of the true
        # [75, 225] — the two cannot both be sound, so verification alarms.
        _register_inflating_backend("test-broken-x5", 5.0)
        assert has_backend("test-broken-x5")
        verified = PCBoundSolver(self.OVERLAPPING, BoundOptions(
            check_closure=False, verify_backend="test-broken-x5"))
        with pytest.raises(DisjointRangeError, match="test-broken-x5"):
            verified.bound(AggregateFunction.COUNT)

    def test_service_cross_backend_mode(self):
        from repro.core.engine import ContingencyQuery

        service = ContingencyService(verify="cross-backend")
        session = service.register("verified", self.OVERLAPPING,
                                   options=BoundOptions(check_closure=False))
        assert session.options.verify_backend == "branch-and-bound"
        report = service.analyze("verified", ContingencyQuery.count())
        plain = PCBoundSolver(self.OVERLAPPING,
                              BoundOptions(check_closure=False))
        expected = plain.bound(AggregateFunction.COUNT)
        assert (report.lower, report.upper) == (expected.lower, expected.upper)

    def test_service_rejects_unknown_verify_mode(self):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            ContingencyService(verify="triple-modular")

    def test_verified_session_fingerprint_differs(self):
        from repro.service import fingerprint_bound_options

        plain = fingerprint_bound_options(BoundOptions())
        verified = fingerprint_bound_options(
            BoundOptions(verify_backend="branch-and-bound"))
        assert plain != verified
