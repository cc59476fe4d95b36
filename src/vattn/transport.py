"""Row-stochastic transport plans over a query/key batch.

The full n x m problem: each query is a unit source of attention mass,
the target side is unconstrained, and the entropy-regularized cost is
separable by row, so the global optimum is the row-wise softmax matrix.
``epsilon`` here and ``temperature`` elsewhere are the same knob; the
entropy weight of this module is spelled epsilon to match transport usage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle, solvers
from .core import (
    SIMPLEX_SUM_ATOL,
    NumericalFailure,
    QueryKeyBatch,
    RegularizerSpec,
    Scores,
    ValueSet,
    _check_positive_real,
)

__all__ = [
    "CostMatrix",
    "TransportPlan",
    "cost_matrix",
    "attention_matrix",
    "eot_matrix_objective",
    "solve_full_eot",
    "context",
]


@dataclass(frozen=True)
class CostMatrix:
    """Per-pair transport cost: C_ij = -<q_i, k_j>."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=np.float64)
        if e.ndim != 2 or e.size < 1:
            raise ValueError("cost entries must form a non-empty matrix")
        if not np.all(np.isfinite(e)):
            raise ValueError("cost entries must be finite")
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative n x m matrix whose rows each carry one unit of mass."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=np.float64)
        if e.ndim != 2 or e.size < 1:
            raise ValueError("plan entries must form a non-empty matrix")
        if not np.all(np.isfinite(e)):
            raise ValueError("plan entries must be finite")
        if np.any(e < 0.0):
            raise ValueError("plan entries must be nonnegative")
        row_sums = e.sum(axis=1)
        worst = float(np.max(np.abs(row_sums - 1.0)))
        if worst > SIMPLEX_SUM_ATOL:
            raise ValueError(
                f"every plan row must sum to 1 within {SIMPLEX_SUM_ATOL}, worst residual {worst!r}"
            )
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def _similarities(batch: QueryKeyBatch) -> np.ndarray:
    # Products that overflow come out inf or nan, which every caller
    # rejects with a ValueError; numpy's warning would only say it first.
    with np.errstate(over="ignore", invalid="ignore"):
        return batch.queries @ batch.keys.T


def cost_matrix(batch: QueryKeyBatch) -> CostMatrix:
    """Negative query-key similarities for the whole batch."""
    return CostMatrix(-_similarities(batch))


def attention_matrix(batch: QueryKeyBatch, temperature: float) -> TransportPlan:
    """Row-wise softmax of the similarity matrix at the given temperature."""
    scores = _similarities(batch)
    rows = [
        solvers.softmax(Scores(row), temperature).distribution.weights for row in scores
    ]
    return TransportPlan(np.vstack(rows))


def eot_matrix_objective(plan: TransportPlan, cost: CostMatrix, epsilon: float) -> float:
    """<P, C>_F + epsilon * sum P_ij log P_ij, with 0 log 0 = 0.

    Separable by row: this equals the sum of the per-row entropy objectives,
    which is why the global optimum factors into independent row solves.
    """
    if plan.entries.shape != cost.entries.shape:
        raise ValueError(
            f"shape mismatch: plan {plan.entries.shape} vs cost {cost.entries.shape}"
        )
    eps = _check_positive_real(epsilon, "epsilon")
    P = plan.entries
    safe = np.where(P > 0.0, P, 1.0)
    return float(np.sum(P * cost.entries) + eps * np.sum(P * np.log(safe)))


def solve_full_eot(
    batch: QueryKeyBatch, epsilon: float, cfg: oracle.SolverConfig | None = None
) -> TransportPlan:
    """Solve every row's problem with the iterative oracle, all rows in
    one lock-step descent, and assemble the plan; never touches the closed
    form it is meant to certify.

    A failure names the lowest-index row that fails, as solving the rows
    one after another would.
    """
    scores, pairs = _eot_rows(batch, epsilon)
    return _eot_plan(scores, oracle._minimize_many(pairs, cfg))


def _eot_rows(
    batch: QueryKeyBatch, epsilon: float
) -> tuple[np.ndarray, list[tuple[Scores, RegularizerSpec]]]:
    """The similarity matrix of ``solve_full_eot`` and the (row,
    regularizer) pairs it solves: the rows before the first non-finite one,
    which is never solved."""
    reg = RegularizerSpec.shannon(_check_positive_real(epsilon, "epsilon"))
    scores = _similarities(batch)
    finite = np.isfinite(scores).all(axis=1)
    solvable = len(scores) if finite.all() else int(finite.argmin())
    return scores, [(Scores(row), reg) for row in scores[:solvable]]


def _eot_plan(scores: np.ndarray, outcomes: list) -> TransportPlan:
    """The plan of ``_eot_rows``'s solved rows, or the error
    ``solve_full_eot`` raises: the lowest-index failing row's, else the
    rejection of the first non-finite row."""
    for index, outcome in enumerate(outcomes):
        if isinstance(outcome, NumericalFailure):
            raise outcome
        if not outcome.converged:
            raise NumericalFailure(
                f"row {index} did not converge within the iteration budget"
            )
    if len(outcomes) < len(scores):
        Scores(scores[len(outcomes)])
    return TransportPlan(np.vstack([outcome.distribution.weights for outcome in outcomes]))


def context(plan: TransportPlan, values: ValueSet) -> np.ndarray:
    """Mix the value rows by each plan row: output row i = sum_j P_ij v_j."""
    if plan.entries.shape[1] != values.values.shape[0]:
        raise ValueError(
            f"plan has {plan.entries.shape[1]} columns but {values.values.shape[0]} "
            "value rows were given"
        )
    return plan.entries @ values.values
