"""A thin linear-programming layer over ``scipy.optimize.linprog``.

The predicate-constraint framework needs two LP-shaped solvers:

* the LP relaxation used by the pure-Python branch-and-bound MILP backend
  (:mod:`repro.solvers.milp`), and
* the fractional-edge-cover LP used by the join bound (:mod:`repro.solvers.fec`).

Models are built declaratively (variables, ranged linear constraints, a
linear objective) and solved with HiGHS through SciPy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from ..exceptions import InfeasibleProblemError, SolverError, UnboundedProblemError

__all__ = [
    "Sense",
    "SolutionStatus",
    "Variable",
    "LinearConstraint",
    "LinearProgram",
    "LPSolution",
]


class Sense(enum.Enum):
    """Optimisation direction."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


class SolutionStatus(enum.Enum):
    """Normalised solver outcome."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


@dataclass(frozen=True)
class Variable:
    """A decision variable with box bounds."""

    name: str
    lower: float = 0.0
    upper: float = float("inf")
    is_integer: bool = False

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise SolverError(
                f"variable {self.name!r} has lower bound {self.lower} above upper "
                f"bound {self.upper}"
            )


@dataclass(frozen=True)
class LinearConstraint:
    """A ranged linear constraint ``lower <= coefficients . x <= upper``."""

    coefficients: dict[str, float]
    lower: float = float("-inf")
    upper: float = float("inf")
    name: str = ""

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise SolverError(
                f"constraint {self.name or self.coefficients} has lower bound "
                f"{self.lower} above upper bound {self.upper}"
            )


@dataclass
class LPSolution:
    """The result of solving a linear (or integer) program."""

    status: SolutionStatus
    objective: float | None
    values: dict[str, float] = field(default_factory=dict)
    message: str = ""
    #: A proven bound on the true optimum (HiGHS's MIP dual bound), when the
    #: backend reports one; ``objective`` may trail it by the MIP gap.
    dual_bound: float | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status is SolutionStatus.OPTIMAL

    def value(self, name: str) -> float:
        """The optimal value of variable ``name``."""
        if name not in self.values:
            raise SolverError(f"no value recorded for variable {name!r}")
        return self.values[name]

    def raise_for_status(self) -> "LPSolution":
        """Raise a descriptive exception unless the solution is optimal."""
        if self.status is SolutionStatus.OPTIMAL:
            return self
        if self.status is SolutionStatus.INFEASIBLE:
            raise InfeasibleProblemError(self.message or "problem is infeasible")
        if self.status is SolutionStatus.UNBOUNDED:
            raise UnboundedProblemError(self.message or "problem is unbounded")
        raise SolverError(self.message or "solver failed")


class LinearProgram:
    """A declaratively-built linear program.

    Variables and constraints are registered by name; :meth:`solve` lowers
    the model to SciPy's matrix form and normalises the result.
    """

    def __init__(self, sense: Sense = Sense.MAXIMIZE, name: str = "lp"):
        self.sense = sense
        self.name = name
        self._variables: list[Variable] = []
        self._variable_index: dict[str, int] = {}
        self._constraints: list[LinearConstraint] = []
        self._objective: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Model building
    # ------------------------------------------------------------------ #
    def add_variable(self, name: str, lower: float = 0.0,
                     upper: float = float("inf"),
                     is_integer: bool = False) -> Variable:
        """Register a new decision variable and return it."""
        if name in self._variable_index:
            raise SolverError(f"variable {name!r} already declared")
        variable = Variable(name, lower, upper, is_integer)
        self._variable_index[name] = len(self._variables)
        self._variables.append(variable)
        return variable

    def add_constraint(self, coefficients: dict[str, float],
                       lower: float = float("-inf"),
                       upper: float = float("inf"),
                       name: str = "") -> LinearConstraint:
        """Register a ranged constraint ``lower <= coeffs.x <= upper``."""
        for variable_name in coefficients:
            if variable_name not in self._variable_index:
                raise SolverError(
                    f"constraint references undeclared variable {variable_name!r}"
                )
        constraint = LinearConstraint(dict(coefficients), lower, upper, name)
        self._constraints.append(constraint)
        return constraint

    def set_objective(self, coefficients: dict[str, float]) -> None:
        """Set the linear objective (missing variables have coefficient 0)."""
        for variable_name in coefficients:
            if variable_name not in self._variable_index:
                raise SolverError(
                    f"objective references undeclared variable {variable_name!r}"
                )
        self._objective = dict(coefficients)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def variables(self) -> tuple[Variable, ...]:
        return tuple(self._variables)

    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        return tuple(self._constraints)

    @property
    def objective(self) -> dict[str, float]:
        return dict(self._objective)

    def num_variables(self) -> int:
        return len(self._variables)

    def num_constraints(self) -> int:
        return len(self._constraints)

    # ------------------------------------------------------------------ #
    # Lowering and solving
    # ------------------------------------------------------------------ #
    def to_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                                   list[tuple[float, float]]]:
        """Lower to ``(c, A, lower, upper, bounds)`` in variable order.

        ``c`` is the minimisation objective (negated when the model's sense
        is MAXIMIZE) so that callers can feed SciPy directly.
        """
        count = len(self._variables)
        c = np.zeros(count)
        for name, coefficient in self._objective.items():
            c[self._variable_index[name]] = coefficient
        if self.sense is Sense.MAXIMIZE:
            c = -c
        rows = max(len(self._constraints), 0)
        matrix = np.zeros((rows, count))
        lower = np.full(rows, -np.inf)
        upper = np.full(rows, np.inf)
        for row, constraint in enumerate(self._constraints):
            for name, coefficient in constraint.coefficients.items():
                matrix[row, self._variable_index[name]] = coefficient
            lower[row] = constraint.lower
            upper[row] = constraint.upper
        bounds = [(variable.lower, variable.upper) for variable in self._variables]
        return c, matrix, lower, upper, bounds

    def solve(self) -> LPSolution:
        """Solve the continuous relaxation with HiGHS."""
        if not self._variables:
            return LPSolution(SolutionStatus.OPTIMAL, 0.0, {})
        c, matrix, lower, upper, bounds = self.to_matrices()
        constraints = []
        if len(self._constraints) > 0:
            # linprog only supports A_ub/A_eq; encode ranged constraints as
            # two inequality blocks where needed.
            a_ub_blocks = []
            b_ub = []
            for row in range(matrix.shape[0]):
                if np.isfinite(upper[row]):
                    a_ub_blocks.append(matrix[row])
                    b_ub.append(upper[row])
                if np.isfinite(lower[row]):
                    a_ub_blocks.append(-matrix[row])
                    b_ub.append(-lower[row])
            a_ub = np.vstack(a_ub_blocks) if a_ub_blocks else None
            b_ub_arr = np.asarray(b_ub) if b_ub else None
        else:
            a_ub, b_ub_arr = None, None
        result = linprog(c, A_ub=a_ub, b_ub=b_ub_arr, bounds=bounds, method="highs")
        return self._normalise(result)

    def _normalise(self, result) -> LPSolution:
        if result.status == 0:
            objective = float(result.fun)
            if self.sense is Sense.MAXIMIZE:
                objective = -objective
            values = {
                variable.name: float(result.x[index])
                for index, variable in enumerate(self._variables)
            }
            return LPSolution(SolutionStatus.OPTIMAL, objective, values,
                              message=str(result.message))
        if result.status == 2:
            return LPSolution(SolutionStatus.INFEASIBLE, None, {},
                              message=str(result.message))
        if result.status == 3:
            return LPSolution(SolutionStatus.UNBOUNDED, None, {},
                              message=str(result.message))
        return LPSolution(SolutionStatus.ERROR, None, {}, message=str(result.message))
