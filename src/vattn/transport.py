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
    ValueSet,
    _Adopt,
    _check_lengths,
    _check_positive_real,
    _frozen,
    _xlogx,
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
        object.__setattr__(self, "entries", _frozen(self.entries, "cost entries", 2))


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative n x m matrix whose rows each carry one unit of mass."""

    entries: np.ndarray

    def __post_init__(self):
        e = _frozen(self.entries, "plan entries", 2)
        if e.min() < 0.0:  # the entries are finite
            raise ValueError("plan entries must be nonnegative")
        worst = float(np.abs(e.sum(axis=1) - 1.0).max())
        if worst > SIMPLEX_SUM_ATOL:
            raise ValueError(
                f"every plan row must sum to 1 within {SIMPLEX_SUM_ATOL}, worst residual {worst!r}"
            )
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
    similarities = _similarities(batch)
    return CostMatrix(_Adopt(np.negative(similarities, out=similarities)))


def attention_matrix(batch: QueryKeyBatch, temperature: float) -> TransportPlan:
    """Softmax of the similarity matrix along its rows (``solvers._softmax_rows``
    picks each row's path); each row has the bits ``solvers.softmax`` gives it."""
    t = _check_positive_real(temperature)
    scores = _frozen(_Adopt(_similarities(batch)), "scores", 2)
    return TransportPlan(_Adopt(solvers._softmax_rows(scores, t)))


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
    return float(np.sum(P * cost.entries) + eps * np.sum(_xlogx(P)))


def solve_full_eot(
    batch: QueryKeyBatch, epsilon: float, cfg: oracle.SolverConfig | None = None
) -> TransportPlan:
    """Solve every row's problem with the iterative oracle, all rows in
    one lock-step descent, and assemble the plan; never touches the closed
    form it is meant to certify.

    Non-finite similarities are rejected before any row is solved, as in
    ``attention_matrix``.  A failure names the lowest-index row that fails,
    as solving the rows one after another would.
    """
    return next(_eot_plans([(batch, epsilon)], cfg))


def _eot_plans(instances, cfg: oracle.SolverConfig | None = None):
    """``solve_full_eot``'s plan of every ``(batch, epsilon)`` instance, in
    order.  Every instance is checked first; then the rows of all plans are
    solved in one descent, and a plan whose solve fails raises its error
    when its turn comes."""
    rows, regs, sizes = [], [], []
    for batch, epsilon in instances:
        reg = RegularizerSpec.shannon(_check_positive_real(epsilon, "epsilon"))
        scores = _frozen(_Adopt(_similarities(batch)), "scores", 2)
        rows += list(scores)
        regs += [reg] * len(scores)
        sizes.append(len(scores))
    outcomes = iter(oracle._descend(rows, regs, cfg))
    for size in sizes:
        weights = []
        for index, outcome in zip(range(size), outcomes):
            if isinstance(outcome, NumericalFailure):
                raise outcome
            if not outcome.converged:
                raise NumericalFailure(f"row {index} did not converge within the iteration budget")
            weights.append(outcome.distribution.weights)
        yield TransportPlan(_Adopt(np.vstack(weights)))


def context(plan: TransportPlan, values: ValueSet) -> np.ndarray:
    """Mix the value rows by each plan row: output row i = sum_j P_ij v_j."""
    _check_lengths(plan.entries.T, values.values, "plan columns", "value rows")
    return plan.entries @ values.values
