"""Generative-model baseline (paper §6.1.2): a Gaussian Mixture Model.

The paper fits a GMM to the missing rows and answers a query by generating
synthetic missing data from the model, evaluating the query on it, and
repeating the process to obtain a range of likely values.  scikit-learn is
not available offline, so this module implements a diagonal-covariance GMM
trained with expectation-maximisation directly on numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.engine import ContingencyQuery
from ..exceptions import WorkloadError
from ..relational.relation import Relation
from ..relational.schema import ColumnType, Schema
from .base import IntervalEstimate, MissingDataEstimator

__all__ = ["DiagonalGaussianMixture", "GenerativeModelEstimator"]


@dataclass
class DiagonalGaussianMixture:
    """A diagonal-covariance Gaussian mixture fit with EM.

    Attributes
    ----------
    weights:
        Mixture weights, shape ``(k,)``.
    means:
        Component means, shape ``(k, d)``.
    variances:
        Per-dimension variances, shape ``(k, d)``.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    @property
    def num_components(self) -> int:
        return self.weights.shape[0]

    @property
    def num_dimensions(self) -> int:
        return self.means.shape[1]

    # ------------------------------------------------------------------ #
    @classmethod
    def fit(cls, data: np.ndarray, num_components: int = 4,
            max_iterations: int = 100, tolerance: float = 1e-4,
            rng: np.random.Generator | None = None) -> "DiagonalGaussianMixture":
        """Fit by EM; initialisation picks random rows as component means."""
        if data.ndim != 2 or data.shape[0] == 0:
            raise WorkloadError("GMM fitting needs a non-empty 2-D data matrix")
        generator = rng if rng is not None else np.random.default_rng()
        samples, dims = data.shape
        k = min(num_components, samples)

        indices = generator.choice(samples, size=k, replace=False)
        means = data[indices].astype(np.float64).copy()
        global_variance = data.var(axis=0) + 1e-6
        variances = np.tile(global_variance, (k, 1))
        weights = np.full(k, 1.0 / k)

        previous_log_likelihood = -np.inf
        for _ in range(max_iterations):
            responsibilities, log_likelihood = cls._e_step(data, weights, means,
                                                           variances)
            weights, means, variances = cls._m_step(data, responsibilities)
            if abs(log_likelihood - previous_log_likelihood) < tolerance * samples:
                break
            previous_log_likelihood = log_likelihood
        return cls(weights, means, variances)

    @staticmethod
    def _e_step(data: np.ndarray, weights: np.ndarray, means: np.ndarray,
                variances: np.ndarray) -> tuple[np.ndarray, float]:
        samples = data.shape[0]
        k = weights.shape[0]
        log_probabilities = np.zeros((samples, k))
        for component in range(k):
            variance = variances[component]
            diff = data - means[component]
            log_probabilities[:, component] = (
                -0.5 * np.sum(diff * diff / variance, axis=1)
                - 0.5 * np.sum(np.log(2.0 * np.pi * variance))
                + math.log(max(weights[component], 1e-300))
            )
        max_log = log_probabilities.max(axis=1, keepdims=True)
        stabilised = np.exp(log_probabilities - max_log)
        totals = stabilised.sum(axis=1, keepdims=True)
        responsibilities = stabilised / np.maximum(totals, 1e-300)
        log_likelihood = float(np.sum(np.log(np.maximum(totals, 1e-300)) + max_log))
        return responsibilities, log_likelihood

    @staticmethod
    def _m_step(data: np.ndarray, responsibilities: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        samples = data.shape[0]
        component_mass = responsibilities.sum(axis=0) + 1e-12
        weights = component_mass / samples
        means = (responsibilities.T @ data) / component_mass[:, None]
        k, dims = means.shape
        variances = np.zeros((k, dims))
        for component in range(k):
            diff = data - means[component]
            variances[component] = (
                (responsibilities[:, component][:, None] * diff * diff).sum(axis=0)
                / component_mass[component]
            ) + 1e-6
        return weights, means, variances

    # ------------------------------------------------------------------ #
    def sample(self, count: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """Draw ``count`` synthetic rows from the mixture."""
        generator = rng if rng is not None else np.random.default_rng()
        components = generator.choice(self.num_components, size=count, p=self.weights)
        noise = generator.standard_normal((count, self.num_dimensions))
        return self.means[components] + noise * np.sqrt(self.variances[components])

    def log_likelihood(self, data: np.ndarray) -> float:
        """Average per-row log likelihood of ``data`` under the mixture."""
        _, total = self._e_step(data, self.weights, self.means, self.variances)
        return total / max(data.shape[0], 1)


class GenerativeModelEstimator(MissingDataEstimator):
    """Answer queries by simulating missing data from a fitted GMM.

    The estimate interval is the min/max of the query result across
    ``num_trials`` independently generated synthetic missing partitions.
    """

    name = "Gen"

    def __init__(self, num_components: int = 4, num_trials: int = 10,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if num_trials <= 0:
            raise WorkloadError("num_trials must be positive")
        self.num_components = num_components
        self.num_trials = num_trials
        self._rng = rng if rng is not None else np.random.default_rng()
        self._model: DiagonalGaussianMixture | None = None
        self._schema: Schema | None = None
        self._numeric_names: list[str] = []
        self._missing_count = 0

    def fit(self, missing: Relation) -> "GenerativeModelEstimator":
        self._numeric_names = list(missing.schema.numeric_names)
        self._schema = Schema.from_pairs(
            [(name, ColumnType.FLOAT) for name in self._numeric_names])
        self._missing_count = missing.num_rows
        if missing.num_rows == 0 or not self._numeric_names:
            self._model = None
        else:
            matrix = np.column_stack([
                missing.column(name).astype(np.float64)
                for name in self._numeric_names
            ])
            self._model = DiagonalGaussianMixture.fit(
                matrix, self.num_components, rng=self._rng)
        self._fitted = True
        return self

    def estimate(self, query: ContingencyQuery) -> IntervalEstimate:
        self._require_fitted()
        if self._model is None or self._missing_count == 0:
            return IntervalEstimate(0.0, 0.0, 0.0, self.name)
        results: list[float] = []
        for _ in range(self.num_trials):
            synthetic = self._generate()
            value = query.ground_truth(synthetic)
            results.append(0.0 if value is None else float(value))
        low, high = min(results), max(results)
        point = float(np.mean(results))
        return IntervalEstimate(low, high, point, self.name)

    def _generate(self) -> Relation:
        assert self._model is not None and self._schema is not None
        matrix = self._model.sample(self._missing_count, rng=self._rng)
        columns = {name: matrix[:, index]
                   for index, name in enumerate(self._numeric_names)}
        return Relation(self._schema, columns, name="gmm-synthetic")
