"""Shared experiment setup: datasets, standard estimator line-ups, defaults.

Every figure/table experiment needs the same ingredients — a synthetic
dataset, a missing-data scenario, a query workload, and a line-up of
estimators configured to receive comparable amounts of information (``n``
predicate-constraints vs. ``n`` or ``10n`` sampled rows vs. an ``n``-bucket
histogram).  This module centralises that setup so the per-figure modules
stay small and consistent.

Scale note: defaults are laptop-friendly (tens of thousands of rows, a few
hundred queries).  The paper's exact sizes (3M rows, 1000 queries, 2000 PCs)
can be requested through each experiment's configuration object; the shapes
of the results do not depend on the scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..baselines.gmm import GenerativeModelEstimator
from ..baselines.histogram import HistogramEstimator
from ..baselines.sampling import StratifiedSamplingEstimator, UniformSamplingEstimator
from ..core.bounds import BoundOptions
from ..datasets.airbnb import generate_airbnb
from ..datasets.border_crossing import generate_border_crossing
from ..datasets.intel_wireless import generate_intel_wireless
from ..relational.relation import Relation
from .estimators import CorrPCEstimator, RandPCEstimator

__all__ = ["DatasetSetup", "intel_setup", "airbnb_setup", "border_setup",
           "standard_estimators", "DEFAULT_CONFIDENCE"]

DEFAULT_CONFIDENCE = 0.99


@dataclass
class DatasetSetup:
    """A dataset plus the attribute roles the paper's experiments assign."""

    name: str
    relation: Relation
    target: str                       # the aggregated attribute
    predicate_attributes: tuple[str, ...]   # random query WHERE attributes
    pc_attributes: tuple[str, ...]          # attributes Corr-PC partitions on
    num_constraints: int

    @property
    def num_rows(self) -> int:
        return self.relation.num_rows


def intel_setup(num_rows: int = 20_000, num_constraints: int = 400,
                seed: int = 7) -> DatasetSetup:
    """Intel Wireless: aggregate ``light``, partition on device id and time."""
    relation = generate_intel_wireless(num_rows=num_rows, seed=seed)
    return DatasetSetup(
        name="intel_wireless",
        relation=relation,
        target="light",
        predicate_attributes=("device_id", "time"),
        pc_attributes=("device_id", "time"),
        num_constraints=num_constraints,
    )


def airbnb_setup(num_rows: int = 15_000, num_constraints: int = 400,
                 seed: int = 11) -> DatasetSetup:
    """Airbnb NYC: aggregate ``price``, partition on latitude and longitude."""
    relation = generate_airbnb(num_rows=num_rows, seed=seed)
    return DatasetSetup(
        name="airbnb_nyc",
        relation=relation,
        target="price",
        predicate_attributes=("latitude", "longitude"),
        pc_attributes=("latitude", "longitude"),
        num_constraints=num_constraints,
    )


def border_setup(num_rows: int = 20_000, num_constraints: int = 400,
                 seed: int = 13) -> DatasetSetup:
    """Border Crossing: aggregate ``value``, partition on port and date."""
    relation = generate_border_crossing(num_rows=num_rows, seed=seed)
    return DatasetSetup(
        name="border_crossing",
        relation=relation,
        target="value",
        predicate_attributes=("port_code", "date"),
        pc_attributes=("port_code", "date"),
        num_constraints=num_constraints,
    )


def standard_estimators(setup: DatasetSetup,
                        include: Sequence[str] = ("Corr-PC", "Rand-PC", "US-1n",
                                                  "ST-1n", "Histogram"),
                        confidence: float = DEFAULT_CONFIDENCE,
                        seed: int = 29) -> dict[str, object]:
    """The standard line-up of estimators for one dataset.

    Recognised names (mirroring the paper's legend): ``Corr-PC``,
    ``Rand-PC``, ``US-1p``, ``US-1n``, ``US-10p``, ``US-10n``, ``ST-1n``,
    ``ST-10n``, ``Histogram``, ``Gen``.  Sampling multipliers are relative to
    the number of predicate-constraints, as in the paper ("1x" = as many
    sampled rows as constraints).
    """
    rng_seed = seed
    estimators: dict[str, object] = {}
    n = setup.num_constraints
    options = BoundOptions(check_closure=False)

    def sampling(multiplier: int, method: str) -> UniformSamplingEstimator:
        return UniformSamplingEstimator(sample_size=multiplier * n,
                                        confidence=confidence, method=method,
                                        rng=np.random.default_rng(rng_seed))

    def stratified(multiplier: int, method: str) -> StratifiedSamplingEstimator:
        return StratifiedSamplingEstimator(sample_size=multiplier * n,
                                           strata_attributes=setup.pc_attributes,
                                           num_strata=min(n, 64),
                                           confidence=confidence, method=method,
                                           rng=np.random.default_rng(rng_seed + 1))

    factories: dict[str, Callable[[], object]] = {
        "Corr-PC": lambda: CorrPCEstimator(setup.target, n,
                                           candidates=list(setup.pc_attributes),
                                           options=options),
        "Rand-PC": lambda: RandPCEstimator(setup.pc_attributes, n,
                                           target=setup.target, options=options),
        "US-1p": lambda: sampling(1, "parametric"),
        "US-1n": lambda: sampling(1, "nonparametric"),
        "US-10p": lambda: sampling(10, "parametric"),
        "US-10n": lambda: sampling(10, "nonparametric"),
        "ST-1n": lambda: stratified(1, "nonparametric"),
        "ST-10n": lambda: stratified(10, "nonparametric"),
        "Histogram": lambda: HistogramEstimator(setup.pc_attributes,
                                                num_buckets=n,
                                                value_attributes=[setup.target]),
        "Gen": lambda: GenerativeModelEstimator(num_components=4, num_trials=8,
                                                rng=np.random.default_rng(rng_seed + 2)),
    }
    for name in include:
        if name not in factories:
            raise KeyError(f"unknown estimator {name!r}; known: {sorted(factories)}")
        estimators[name] = factories[name]()
    return estimators
