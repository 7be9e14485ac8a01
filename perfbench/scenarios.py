"""The benchmark's three workloads, each driven through the public service API.

Every workload is a closed loop from one client thread: the next call is
issued only after the previous one returned.  A workload is built from its
seed alone: the seed draws the data (``repro.datasets``, missing rows via
``repro.workloads``), appended rows and traffic, while the shapes of
constraints and regions come from a seed-independent stream
(:meth:`Scenario.shapes`).  The program only ever sees the generated inputs.
:meth:`Scenario.prepare` builds one op's inputs and its true answers outside
the timed region; ``run.py`` then times each call.

The oracle is independent of the program's relational layer: regions are
evaluated with numpy straight from the predicate's ranges and memberships
over observed ∪ missing rows (plus every row appended so far).
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import ContingencyQuery, ContingencyService
from repro.core.builders import (build_overlapping_pcs, build_partition_pcs,
                                 build_random_overlapping_boxes)
from repro.datasets import generate_airbnb, generate_intel_wireless
from repro.relational.aggregates import AggregateFunction
from repro.relational.relation import Relation
from repro.workloads import random_region, remove_correlated

AGGREGATES = (AggregateFunction.COUNT, AggregateFunction.SUM,
              AggregateFunction.AVG, AggregateFunction.MIN,
              AggregateFunction.MAX)
INTEL_ATTRIBUTES = ("device_id", "time")
AIRBNB_ATTRIBUTES = ("latitude", "longitude")
BOROUGHS = ("Manhattan", "Brooklyn", "Queens", "Bronx", "Staten Island")


@dataclass
class Step:
    """One timed call: ``kind`` is ``read`` (answers queries) or ``write``."""

    kind: str
    call: Callable[[], object]
    #: Checks the call's result; returns (queries answered, wrong ranges,
    #: ranges for the digest).  None for writes, which only must not raise.
    check: Callable[[object], tuple[int, int, list]] | None = None
    queries: int = 0


@dataclass
class Sizes:
    rows: int
    #: Ops whose program counts and ranges are reported; every run
    #: completes at least this many, so the counts repeat for a seed.
    window: int
    constraints: tuple[int, ...] = ()
    regions: int = 0
    backlog_rows: tuple[int, int] = (0, 0)


# ---------------------------------------------------------------------- #
# The oracle
# ---------------------------------------------------------------------- #
def region_mask(region, columns: dict[str, np.ndarray]) -> np.ndarray:
    """Rows of ``columns`` inside ``region`` (closed ranges, memberships)."""
    length = len(next(iter(columns.values())))
    mask = np.ones(length, dtype=bool)
    for attribute, bounds in region.ranges.items():
        values = columns[attribute]
        mask &= (values >= bounds.low) & (values <= bounds.high)
    for attribute, membership in region.memberships.items():
        mask &= np.isin(columns[attribute], list(membership.values))
    return mask


def true_answer(aggregate: AggregateFunction, values: np.ndarray) -> float:
    if aggregate is AggregateFunction.COUNT:
        return float(len(values))
    if aggregate is AggregateFunction.SUM:
        return float(values.sum())
    if aggregate is AggregateFunction.AVG:
        return float(values.mean())
    if aggregate is AggregateFunction.MIN:
        return float(values.min())
    return float(values.max())


def contains(report, truth: float) -> bool:
    """Whether the report's range holds ``truth`` (None: that side undefined)."""
    tolerance = 1e-6 * max(1.0, abs(truth))
    lower, upper = report.lower, report.upper
    if lower is not None and truth < lower - tolerance:
        return False
    if upper is not None and truth > upper + tolerance:
        return False
    return True


def nonempty_region(relation: Relation, attributes, rng, columns):
    """A ``random_region`` holding at least one row of the full data, so
    every aggregate has a defined true answer."""
    while True:
        region = random_region(relation, attributes, rng)
        if region_mask(region, columns).any():
            return region


def query_for(aggregate: AggregateFunction, attribute: str, region):
    if aggregate is AggregateFunction.COUNT:
        return ContingencyQuery(aggregate, None, region)
    return ContingencyQuery(aggregate, attribute, region)


def checker(truths: list[float]):
    """Check a list of reports against their true answers, in order."""
    def check(reports) -> tuple[int, int, list]:
        if not isinstance(reports, list):
            reports = [reports]
        wrong = sum(1 for report, truth in zip(reports, truths)
                    if not contains(report, truth))
        ranges = [(report.lower, report.upper) for report in reports]
        return len(reports), wrong, ranges
    return check


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
class Scenario:
    name = ""
    sizes: dict[str, Sizes] = {}

    def __init__(self, seed: int, scratch: str, size: str = "full"):
        self.seed = seed
        self.scratch = scratch
        self.size = self.sizes[size]
        #: The program's own per-batch phase timings, summed over the window.
        self.batch_warm_s = 0.0
        self.batch_execute_s = 0.0
        self.service: ContingencyService | None = None

    @property
    def window(self) -> int:
        return self.size.window

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    @staticmethod
    def shapes(*stream: int) -> np.random.Generator:
        """A seed-independent stream for the shapes of constraints and query
        regions.  Their geometry sets most of an op's cost, and a run holds
        too few ops to average a fresh draw of it out, so every seed asks
        the same questions; the seed picks the data they are asked of."""
        return np.random.default_rng([0, *stream])

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int) -> list[Step]:
        raise NotImplementedError

    def service_config(self) -> dict[str, object]:
        raise NotImplementedError

    def worker_pids(self) -> list[int]:
        return [] if self.service is None else self.service.worker_pool.worker_pids()

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.service = None


class ColdMixed(Scenario):
    """The analyst's first question: every op registers a fresh overlapping
    constraint set and asks one query over a fresh region, so no cache ever
    holds anything for it.

    Ops take turns over ``DATASETS`` relations drawn from the seed: which
    rows go missing decides how many constraints summarise no rows at all,
    and that moves the cost of every op over one relation alike.
    """

    name = "cold-mixed"
    sizes = {
        "full": Sizes(rows=20_000, window=250,
                      constraints=(12, 16, 20, 24)),
        "small": Sizes(rows=4_000, window=10, constraints=(8, 12)),
    }
    #: Coprime with the constraint and aggregate cycles, so every pairing
    #: of relation, constraint count and aggregate occurs.
    DATASETS = 11

    def service_config(self):
        return {"pool_mode": "serial", "max_workers": 1, "cache_dir": None}

    def setup(self) -> None:
        self.datasets = []
        for seed in self.rng(0).integers(2**31, size=self.DATASETS):
            full = generate_intel_wireless(self.size.rows, seed=int(seed))
            split = remove_correlated(full, 0.2, "light")
            columns = {name: full.column(name)
                       for name in (*INTEL_ATTRIBUTES, "light")}
            self.datasets.append((split.observed, split.missing, columns))
        self.service = ContingencyService(**self.service_config())
        # Warm-up, on sessions no timed op uses: every relation's
        # fingerprint, and the first HiGHS solve of every aggregate.
        for part in range(self.DATASETS):
            for step in self.ask(f"warm-up-{part}", self.datasets[part],
                                 self.shapes(2, part), 12,
                                 AGGREGATES if part == 0 else AGGREGATES[:1]):
                step.call()

    def prepare(self, index: int) -> list[Step]:
        constraints = self.size.constraints
        return self.ask(f"op-{index}", self.datasets[index % self.DATASETS],
                        self.shapes(1, index),
                        constraints[index % len(constraints)],
                        (AGGREGATES[index % len(AGGREGATES)],))

    def ask(self, session: str, dataset, rng, count: int,
            aggregates) -> list[Step]:
        observed, missing, columns = dataset
        pcset = build_random_overlapping_boxes(
            missing, INTEL_ATTRIBUTES, count, value_attributes=["light"],
            rng=rng)
        region = nonempty_region(observed, INTEL_ATTRIBUTES, rng, columns)
        values = columns["light"][region_mask(region, columns)]
        steps = [Step("write", lambda: self.service.register(
            session, pcset, observed=observed))]
        for aggregate in aggregates:
            query = query_for(aggregate, "light", region)
            steps.append(Step(
                "read", lambda query=query: self.service.analyze(session, query),
                checker([true_answer(aggregate, values)]), queries=1))
        return steps


class ServeZipf(Scenario):
    """A long-running service answering repeat traffic: a Zipf(1.0) stream
    over 2000 live queries (400 regions x 5 aggregates), with the persistent
    store attached.

    Popularity ranks belong to 2000 slots; every ``DRIFT`` calls the oldest
    live query leaves and a fresh one (from the next region) takes over its
    slot and rank.  The working set therefore keeps its size and its miss
    rate stays steady however long the run lasts.
    """

    name = "serve-zipf"
    sizes = {
        # The window is fixed work that outlasts --seconds here: the first
        # 2000 x DRIFT calls fill the cold live set, and a time-bounded run
        # would let a faster program spend a larger share of its run past
        # that transient, exaggerating its speed-up.
        "full": Sizes(rows=20_000, window=50_000, constraints=(16,),
                      regions=400),
        "small": Sizes(rows=4_000, window=400, constraints=(8,), regions=40),
    }
    #: Calls between two query replacements.
    DRIFT = 10

    def service_config(self):
        return {"pool_mode": "serial", "max_workers": 1,
                "cache_dir": self.cache_dir}

    def setup(self) -> None:
        full = generate_airbnb(self.size.rows, seed=self.seed)
        split = remove_correlated(full, 0.2, "price")
        self.observed = split.observed
        self.columns = {name: full.column(name)
                        for name in (*AIRBNB_ATTRIBUTES, "neighbourhood_group",
                                     "price")}
        pcset = build_partition_pcs(split.missing, AIRBNB_ATTRIBUTES,
                                    self.size.constraints[0],
                                    value_attributes=["price"])
        self.live = self.size.regions * len(AGGREGATES)
        ranks = np.arange(1, self.live + 1, dtype=float)
        self.popularity = (1.0 / ranks) / (1.0 / ranks).sum()
        #: slot_of_rank[r] is the slot holding the rank-r query.
        self.slot_of_rank = self.rng(1).permutation(self.live)
        self.stream_rng = self.rng(2)
        self.ranks = np.empty(0, dtype=int)
        self.regions: dict[int, tuple] = {}
        self.cache_dir = tempfile.mkdtemp(prefix="serve-zipf-",
                                          dir=self.scratch)
        self.service = ContingencyService(**self.service_config())
        self.service.register("listings", pcset, observed=self.observed)
        # Warm-up on the unrestricted region, which no stream query uses.
        for aggregate in AGGREGATES:
            self.service.analyze("listings", query_for(aggregate, "price",
                                                       None))

    def region(self, index: int) -> tuple:
        """Region ``index`` with its five queries and true answers."""
        if index not in self.regions:
            rng = self.shapes(3, index)
            columns = self.columns
            region = nonempty_region(self.observed, AIRBNB_ATTRIBUTES, rng,
                                     columns)
            if index % 2:
                boroughs = rng.choice(len(BOROUGHS),
                                      size=int(rng.integers(1, 4)),
                                      replace=False)
                candidate = region.with_membership(
                    "neighbourhood_group",
                    [BOROUGHS[borough] for borough in sorted(boroughs)])
                if region_mask(candidate, columns).any():
                    region = candidate
            values = columns["price"][region_mask(region, columns)]
            self.regions[index] = (
                [query_for(aggregate, "price", region)
                 for aggregate in AGGREGATES],
                [true_answer(aggregate, values) for aggregate in AGGREGATES])
        return self.regions[index]

    def prepare(self, index: int) -> list[Step]:
        while index >= len(self.ranks):
            self.ranks = np.concatenate([self.ranks, self.stream_rng.choice(
                self.live, size=4096, p=self.popularity)])
        slot = int(self.slot_of_rank[self.ranks[index]])
        oldest = index // self.DRIFT
        number = oldest + (slot - oldest) % self.live
        queries, truths = self.region(number // len(AGGREGATES))
        query = queries[number % len(AGGREGATES)]
        truth = truths[number % len(AGGREGATES)]
        return [Step("read", lambda: self.service.analyze("listings", query),
                     checker([truth]), queries=1)]

    def close(self) -> None:
        super().close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class AppendBatch(Scenario):
    """Writes beside reads: each round appends one device's late-arriving
    rows, then answers one region-grouped batch over the process pool."""

    name = "append-batch"
    sizes = {
        "full": Sizes(rows=20_000, window=200, constraints=(16,), regions=60,
                      backlog_rows=(12, 25)),
        "small": Sizes(rows=4_000, window=10, constraints=(8,), regions=8,
                       backlog_rows=(4, 9)),
    }
    AGGREGATES = (AggregateFunction.COUNT, AggregateFunction.SUM,
                  AggregateFunction.MAX)
    COLUMNS = (*INTEL_ATTRIBUTES, "light")
    #: Hours of trace one backlog covers.
    BACKLOG_HOURS = 2.0

    def __init__(self, seed: int, scratch: str, size: str = "full",
                 workers: int = 2):
        super().__init__(seed, scratch, size)
        self.workers = workers

    def service_config(self):
        return {"pool_mode": "process", "max_workers": self.workers,
                "cache_dir": None}

    def setup(self) -> None:
        # Every version of the session keeps its own copy of the observed
        # rows, so the relation carries only the columns the workload uses.
        full = generate_intel_wireless(self.size.rows, seed=self.seed).project(
            self.COLUMNS)
        split = remove_correlated(full, 0.2, "light")
        self.columns = {name: full.column(name) for name in self.COLUMNS}
        self.schema = full.schema
        self.devices = int(self.columns["device_id"].max()) + 1
        self.duration = float(self.columns["time"].max())
        rng = self.shapes(2)
        # Partitions stretched to overlap keep the cell structure alike
        # across seeds, so the seed moves the data and regions, not the cost.
        pcset = build_overlapping_pcs(
            split.missing, INTEL_ATTRIBUTES, self.size.constraints[0],
            overlap_fraction=0.5, value_attributes=["light"])
        self.regions = [nonempty_region(split.observed, INTEL_ATTRIBUTES, rng,
                                        self.columns)
                        for _ in range(self.size.regions)]
        self.queries = [query_for(aggregate, "light", region)
                        for region in self.regions
                        for aggregate in self.AGGREGATES]
        # Running (count, sum, max) per region over every row so far.
        self.state = []
        for region in self.regions:
            values = self.columns["light"][region_mask(region, self.columns)]
            self.state.append([len(values), float(values.sum()),
                               float(values.max())])
        self.service = ContingencyService(**self.service_config())
        self.service.register("sensors", pcset, observed=split.observed)
        # Warm-up: pool start, session shipping, every decomposition and
        # program, and the first HiGHS solve.
        self.service.execute_batch("sensors", self.queries)

    def backlog(self, index: int) -> Relation:
        """One device's readings over a short window of the trace."""
        rng = self.rng(2, index)
        rows = int(rng.integers(*self.size.backlog_rows))
        generated = generate_intel_wireless(rows, num_devices=self.devices,
                                            duration_hours=self.BACKLOG_HOURS,
                                            seed=int(rng.integers(2**31)))
        start = float(rng.uniform(0.0, self.duration - self.BACKLOG_HOURS))
        columns = generated.project(self.COLUMNS).columns()
        columns["device_id"] = np.full(rows, int(rng.integers(self.devices)))
        columns["time"] = np.round(columns["time"] + start, 3)
        return Relation(self.schema, columns, name="backlog")

    def prepare(self, index: int) -> list[Step]:
        delta = self.backlog(index)
        delta_columns = {name: delta.column(name) for name in self.COLUMNS}
        truths = []
        for region, state in zip(self.regions, self.state):
            values = delta_columns["light"][region_mask(region, delta_columns)]
            if len(values):
                state[0] += len(values)
                state[1] += float(values.sum())
                state[2] = max(state[2], float(values.max()))
            truths.extend(state)

        def execute():
            result = self.service.execute_batch("sensors", self.queries)
            if index < self.window:
                self.batch_warm_s += result.statistics.warm_seconds
                self.batch_execute_s += result.statistics.execute_seconds
            return result.reports

        return [Step("write", lambda: self.service.append_rows("sensors",
                                                               delta)),
                Step("read", execute, checker(truths),
                     queries=len(self.queries))]


SCENARIOS = {scenario.name: scenario
             for scenario in (ColdMixed, ServeZipf, AppendBatch)}
