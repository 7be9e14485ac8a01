"""Witness-carrying cell enumeration: differential and certificate tests.

``DFS_REWRITE`` settles one child per DFS node with a carried witness point
instead of a solver call.  These tests pin that it still enumerates exactly
the cells of the plain strategies, that every witness it trusts really is a
point of the cell prefix it settles, and that a cut split budget only ever
adds cells.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cells import CellDecomposer, DecompositionStrategy
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.solvers.sat import (
    AttributeDomain,
    Box,
    BoxSolver,
    CategoricalSet,
    Interval,
)

CATEGORIES = "abcde"
#: ``u`` is deliberately left undeclared: its ranges use the real line.
DOMAINS = {
    "x": AttributeDomain.numeric(),
    "n": AttributeDomain.numeric(integral=True),
    "c": AttributeDomain.categorical(CATEGORIES),
}


def random_predicate(rng: random.Random, mixed: bool = False) -> Predicate:
    """A random box over x (real), n (integral), c (categorical), u (free).

    ``mixed`` also draws integral ranges on real attributes and fractional
    integral bounds, where the solver's integral splits are not pointwise.
    """
    predicate = Predicate.true()
    for attribute in rng.sample(["x", "n", "c", "u"], rng.randint(1, 3)):
        if attribute == "c":
            predicate = predicate.with_membership(
                "c", rng.sample(CATEGORIES, rng.randint(1, 4)))
            continue
        integral = attribute == "n" or (mixed and rng.random() < 0.3)
        if integral and not mixed:
            low, high = sorted(float(rng.randint(0, 10)) for _ in range(2))
        else:
            low, high = sorted(round(rng.uniform(0, 10), 1) for _ in range(2))
        if rng.random() < 0.15:
            low = -math.inf
        elif rng.random() < 0.15:
            high = math.inf
        predicate = predicate.with_range(attribute, low, high, integral)
    return predicate


def random_instance(seed: int, count: int, with_region: bool,
                    mixed: bool = False
                    ) -> tuple[PredicateConstraintSet, Predicate | None]:
    rng = random.Random(seed)
    pcset = PredicateConstraintSet(domains=DOMAINS)
    for index in range(count):
        pcset.add(PredicateConstraint(
            random_predicate(rng, mixed), ValueConstraint({}),
            FrequencyConstraint(0, 5), name=f"p{index}"))
    pcset.mark_disjoint(False)
    region = random_predicate(rng, mixed) if with_region else None
    return pcset, region


def covers(decomposition) -> list[tuple[int, ...]]:
    return [tuple(sorted(cell.covering)) for cell in decomposition.cells]


class AuditingDecomposer(CellDecomposer):
    """Records every witness the DFS trusts in place of a solver call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.certificates: list[tuple[tuple[int, ...], int, dict]] = []

    def _on_witness(self, included, decided, witness):
        self.certificates.append((included, decided, dict(witness)))


class BudgetedDecomposer(CellDecomposer):
    """A decomposer whose solver gives up after ``max_splits`` splits."""

    def __init__(self, pcset, strategy, max_splits):
        super().__init__(pcset, strategy)
        self._solver = BoxSolver(pcset.domains, max_splits=max_splits)


INSTANCES = [(seed, count, with_region, mixed)
             for seed, count in enumerate([4, 6, 7, 8, 9, 10] * 4)
             for with_region in (False, True)
             for mixed in (False, True)]


@pytest.mark.parametrize("seed,count,with_region,mixed", INSTANCES)
def test_rewrite_matches_dfs_order_and_naive_set(seed, count, with_region,
                                                 mixed):
    pcset, region = random_instance(seed, count, with_region, mixed)
    results = {strategy: CellDecomposer(pcset, strategy).decompose(region)
               for strategy in DecompositionStrategy}
    rewrite = results[DecompositionStrategy.DFS_REWRITE]
    dfs = results[DecompositionStrategy.DFS]
    naive = results[DecompositionStrategy.NAIVE]
    assert covers(rewrite) == covers(dfs)
    assert set(covers(rewrite)) == set(covers(naive))
    root = pcset.solver().domain_box()
    if region is None or root.intersects(region.to_box()):
        # Every child is decided once: by a search or by the witness or
        # rewriting.  (Under an empty query region rewriting walks the
        # all-excluded path that DFS prunes.)
        assert (rewrite.statistics.solver_calls
                + rewrite.statistics.rewrites_saved
                == dfs.statistics.solver_calls)


@pytest.mark.parametrize("strategy", list(DecompositionStrategy))
def test_empty_query_region_has_no_cells(strategy):
    pcset, _ = random_instance(11, 8, False)
    empty = Predicate.range("n", 2.25, 2.75, integral=True)
    decomposition = CellDecomposer(pcset, strategy).decompose(empty)
    assert decomposition.cells == []
    if strategy is DecompositionStrategy.DFS:
        # Both children of the root are UNSAT: two decisions, two prunes.
        assert decomposition.statistics.solver_calls == 2
        assert decomposition.statistics.subtrees_pruned == 2


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("depth", [0, 2, 5])
def test_rewrite_matches_dfs_under_early_stopping(seed, depth):
    pcset, region = random_instance(100 + seed, 9, seed % 2 == 0)
    rewrite = CellDecomposer(pcset, DecompositionStrategy.DFS_REWRITE,
                             early_stop_depth=depth).decompose(region)
    dfs = CellDecomposer(pcset, DecompositionStrategy.DFS,
                         early_stop_depth=depth).decompose(region)
    assert covers(rewrite) == covers(dfs)
    assert (rewrite.statistics.assumed_satisfiable
            == dfs.statistics.assumed_satisfiable)


@pytest.mark.parametrize("seed", range(30))
def test_every_trusted_witness_is_a_certificate(seed):
    pcset, region = random_instance(200 + seed, 8 + seed % 7, seed % 3 != 0)
    decomposer = AuditingDecomposer(pcset, DecompositionStrategy.DFS_REWRITE)
    decomposition = decomposer.decompose(region)
    boxes = [constraint.predicate.to_box() for constraint in pcset]
    domain_box = pcset.solver().domain_box()
    query_box = region.to_box() if region is not None else Box()
    assert decomposer.certificates
    assert len(decomposer.certificates) <= decomposition.statistics.rewrites_saved
    for included, decided, witness in decomposer.certificates:
        assert domain_box.contains_point(witness)
        assert query_box.contains_point(witness)
        for index in range(decided):
            assert boxes[index].contains_point(witness) == (index in included)


def test_witness_rule_only_applies_to_dfs_rewrite():
    pcset, region = random_instance(7, 9, True)
    for strategy in (DecompositionStrategy.NAIVE, DecompositionStrategy.DFS):
        decomposer = AuditingDecomposer(pcset, strategy)
        decomposition = decomposer.decompose(region)
        assert decomposer.certificates == []
        assert decomposition.statistics.rewrites_saved == 0


@pytest.mark.parametrize("seed", range(16))
@pytest.mark.parametrize("max_splits", [1, 3])
def test_budget_exhaustion_only_adds_cells(seed, max_splits):
    pcset, region = random_instance(300 + seed, 9, seed % 2 == 0,
                                    mixed=seed % 4 == 3)
    exact = set(covers(CellDecomposer(pcset).decompose(region)))
    for strategy in DecompositionStrategy:
        budgeted = BudgetedDecomposer(pcset, strategy, max_splits)
        assert set(covers(budgeted.decompose(region))) >= exact, strategy


# --------------------------------------------------------------------- #
# Box.intersects
# --------------------------------------------------------------------- #
BOUNDS = st.one_of(
    st.integers(-4, 4).map(float),
    st.sampled_from([-2.5, -0.5, 0.5, 1.5, -math.inf, math.inf, 1e308,
                     -1e308]),
    st.floats(allow_nan=False),
)
INTERVALS = st.builds(Interval, BOUNDS, BOUNDS, st.booleans())
CATEGORICALS = st.frozensets(st.sampled_from("abcd"), max_size=4).map(
    CategoricalSet)
BOXES = st.fixed_dictionaries(
    {}, optional={"x": INTERVALS, "y": INTERVALS, "k": CATEGORICALS}).map(Box)


@settings(max_examples=300, deadline=None)
@given(BOXES, BOXES)
def test_intersects_agrees_with_intersect(first, second):
    assert first.intersects(second) == (not first.intersect(second).is_empty())
    assert second.intersects(first) == first.intersects(second)


def test_intersects_rejects_mismatched_kinds():
    numeric = Box({"k": Interval(0, 1)})
    categorical = Box({"k": CategoricalSet.of("a")})
    with pytest.raises(TypeError):
        numeric.intersect(categorical)
    with pytest.raises(TypeError):
        numeric.intersects(categorical)
