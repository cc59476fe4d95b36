"""Domain types and elementary functionals for simplex-constrained attention.

Every type validates its invariants on construction and is immutable
afterwards (the wrapped arrays are copied and marked read-only), so
instances are safe to share across threads.  All operations in this module
are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "SIMPLEX_SUM_ATOL",
    "INGEST_SUM_ATOL",
    "SHANNON",
    "L2",
    "TSALLIS",
    "ALIBI",
    "KL_PRIOR",
    "REGULARIZER_KINDS",
    "NumericalFailure",
    "Scores",
    "SimplexDistribution",
    "RegularizerSpec",
    "UtilityVector",
    "QueryKeyBatch",
    "ValueSet",
    "key_distances",
    "shannon_entropy",
    "kl_divergence",
    "regularizer_value",
    "objective_value",
    "objective_rows",
]

# Strict validation tolerance on |sum(p) - 1| for anything claiming to be a
# probability vector, and the looser bound under which file-loaded data is
# silently rescaled instead of rejected.
SIMPLEX_SUM_ATOL = 1e-12
INGEST_SUM_ATOL = 1e-9

SHANNON = "shannon"
L2 = "l2"
TSALLIS = "tsallis"
ALIBI = "alibi"
KL_PRIOR = "kl_prior"


class _Kind(NamedTuple):
    fields: tuple[str, ...]  # the RegularizerSpec fields the kind requires
    entropic: bool  # Omega carries tau * sum p log p


_KINDS = {
    SHANNON: _Kind(("temperature",), True),
    L2: _Kind((), False),
    TSALLIS: _Kind(("alpha",), False),
    ALIBI: _Kind(("temperature", "gamma", "query_position"), True),
    KL_PRIOR: _Kind(("temperature", "prior"), True),
}
REGULARIZER_KINDS = tuple(_KINDS)


class NumericalFailure(RuntimeError):
    """An iterative routine could not meet its numerical contract."""


def _frozen_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional vector, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError(f"{name} must have at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite (no NaN or Inf entries)")
    arr.flags.writeable = False
    return arr


def _frozen_matrix(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a two-dimensional matrix, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite (no NaN or Inf entries)")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Scores:
    """One row of query-key logits: finite real vector of length m >= 1."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_vector(self.values, "scores"))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class SimplexDistribution:
    """Attention weights: nonnegative entries summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = _frozen_vector(self.weights, "weights")
        if np.any(w < 0.0):
            raise ValueError("simplex entries must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > SIMPLEX_SUM_ATOL:
            raise ValueError(
                f"simplex entries must sum to 1 within {SIMPLEX_SUM_ATOL}, got sum {total!r}"
            )
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, m: int) -> "SimplexDistribution":
        if m < 1:
            raise ValueError("m must be at least 1")
        return cls(np.full(m, 1.0 / m))

    @classmethod
    def renormalized(cls, values) -> "SimplexDistribution":
        """Forgiving constructor for file-loaded data.

        Accepts vectors whose sum deviates from 1 by strictly less than
        1e-9 and rescales them exactly; anything further off is rejected as
        corrupt rather than silently fixed.
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1 or not np.all(np.isfinite(arr)):
            raise ValueError("expected a non-empty finite vector")
        total = float(arr.sum())
        if abs(total - 1.0) >= INGEST_SUM_ATOL:
            raise ValueError(
                f"refusing to renormalize: sum {total!r} deviates from 1 by >= {INGEST_SUM_ATOL}"
            )
        return cls(arr / total)


# One check per regularizer parameter.  Every entry point that takes the
# raw value calls the same function, which returns the value normalized.


def _number(value, name: str):
    # float() and int() would also read a string or a bool as a number.
    if isinstance(value, (str, bytes, bool, np.bool_)):
        raise TypeError(f"{name} must be a number, not {type(value).__name__}")
    return value


def _check_positive_real(value, name: str = "temperature") -> float:
    x = float(_number(value, name))
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"{name} must be a positive finite real")
    return x


def _check_alpha(alpha) -> float:
    a = float(_number(alpha, "alpha"))
    if not (math.isfinite(a) and a > 1.0):
        raise ValueError("alpha must exceed 1 (the alpha -> 1 limit is softmax)")
    return a


def _check_gamma(gamma) -> float:
    g = float(_number(gamma, "gamma"))
    if not (math.isfinite(g) and g >= 0.0):
        raise ValueError("gamma must be a nonnegative finite real")
    return g


def _check_query_position(query_position) -> int:
    try:
        i = int(_number(query_position, "query_position"))
        float(i)  # key distances are doubles
    except (ValueError, OverflowError):  # nan, inf, beyond the double range
        i = 0
    if i != query_position or i < 1:
        raise ValueError("query_position must be an integer index >= 1")
    return i


def _check_positive_distribution(dist, name: str = "prior") -> SimplexDistribution:
    if not isinstance(dist, SimplexDistribution):
        dist = SimplexDistribution(dist)
    if np.any(dist.weights <= 0.0):
        raise ValueError(f"{name} must be strictly positive")
    return dist


# In dataclass field order, which fixes which error a spec with several
# faults reports.
_FIELD_CHECKS = {
    "temperature": _check_positive_real,
    "alpha": _check_alpha,
    "gamma": _check_gamma,
    "query_position": _check_query_position,
    "prior": _check_positive_distribution,
}


@dataclass(frozen=True)
class RegularizerSpec:
    """Tagged choice of the penalty Omega(p) with exactly its required fields.

    Kinds and their penalties:

    * ``shannon``   -tau * H(p)                                (dense softmax weights)
    * ``l2``        0.5 * sum p_j^2                            (sparse projection)
    * ``tsallis``   [1/(alpha(alpha-1))] * sum(p_j^alpha - p_j) (sparsity dial)
    * ``alibi``     -tau * H(p) + gamma * sum p_j |i - j|      (locality bias)
    * ``kl_prior``  tau * KL(p || prior)                       (stay near a prior)

    Use the classmethod constructors; positional construction must still
    populate exactly the fields the kind requires.
    """

    kind: str
    temperature: float | None = None
    alpha: float | None = None
    gamma: float | None = None
    query_position: int | None = None
    prior: SimplexDistribution | None = None

    def __post_init__(self):
        if self.kind not in REGULARIZER_KINDS:
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        required = _KINDS[self.kind].fields
        for field_name in _FIELD_CHECKS:
            populated = getattr(self, field_name) is not None
            if populated and field_name not in required:
                raise ValueError(f"{self.kind!r} regularizer does not take {field_name!r}")
            if not populated and field_name in required:
                raise ValueError(f"{self.kind!r} regularizer requires {field_name!r}")
        for field_name in required:
            checked = _FIELD_CHECKS[field_name](getattr(self, field_name))
            object.__setattr__(self, field_name, checked)

    @classmethod
    def shannon(cls, temperature: float) -> "RegularizerSpec":
        return cls(SHANNON, temperature=temperature)

    @classmethod
    def l2(cls) -> "RegularizerSpec":
        return cls(L2)

    @classmethod
    def tsallis(cls, alpha: float) -> "RegularizerSpec":
        return cls(TSALLIS, alpha=alpha)

    @classmethod
    def alibi(cls, gamma: float, query_position: int, temperature: float) -> "RegularizerSpec":
        return cls(ALIBI, temperature=temperature, gamma=gamma, query_position=query_position)

    @classmethod
    def kl_prior(cls, prior, temperature: float) -> "RegularizerSpec":
        return cls(KL_PRIOR, temperature=temperature, prior=prior)


@dataclass(frozen=True)
class UtilityVector:
    """Per-key marginal utilities: loss decrease per unit of extra weight."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_vector(self.values, "utilities"))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class QueryKeyBatch:
    """n query rows and m key rows sharing an inner dimension d >= 1."""

    queries: np.ndarray
    keys: np.ndarray

    def __post_init__(self):
        q = _frozen_matrix(self.queries, "queries")
        k = _frozen_matrix(self.keys, "keys")
        if q.shape[1] != k.shape[1]:
            raise ValueError(
                f"queries and keys must share the inner dimension, got {q.shape} vs {k.shape}"
            )
        object.__setattr__(self, "queries", q)
        object.__setattr__(self, "keys", k)

    @property
    def n(self) -> int:
        return self.queries.shape[0]

    @property
    def m(self) -> int:
        return self.keys.shape[0]


@dataclass(frozen=True)
class ValueSet:
    """m value rows to be mixed by a distribution of matching length."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_matrix(self.values, "values"))

    def __len__(self) -> int:
        return self.values.shape[0]


def key_distances(query_position: int, m: int) -> np.ndarray:
    """|i - j| for 1-based key positions j = 1..m."""
    return np.abs(float(query_position) - np.arange(1, m + 1, dtype=np.float64))


def shannon_entropy(p: SimplexDistribution) -> float:
    """H(p) = -sum p_j log p_j, with the 0 log 0 = 0 convention by branch."""
    w = p.weights
    pos = w > 0.0
    return float(-np.sum(w[pos] * np.log(w[pos])))


def kl_divergence(p: SimplexDistribution, q: SimplexDistribution) -> float:
    """KL(p || q) = sum p_j log(p_j / q_j); q must be strictly positive."""
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    qw = _check_positive_distribution(q, "reference distribution").weights
    w = p.weights
    pos = w > 0.0
    return float(np.sum(w[pos] * (np.log(w[pos]) - np.log(qw[pos]))))


def regularizer_value(p: SimplexDistribution, reg: RegularizerSpec) -> float:
    """Omega(p) for the given regularizer kind."""
    return float(_omega_rows(p.weights[np.newaxis, :], reg)[0])


def objective_value(p: SimplexDistribution, s: Scores, reg: RegularizerSpec) -> float:
    """-<p, s> + Omega(p), the quantity every solver minimizes."""
    if len(p) != len(s):
        raise ValueError(f"length mismatch: distribution {len(p)} vs scores {len(s)}")
    return float(-np.dot(p.weights, s.values)) + regularizer_value(p, reg)


def objective_rows(
    candidates: np.ndarray, s: Scores, reg: RegularizerSpec, *, xlogx: np.ndarray | None = None
) -> np.ndarray:
    """Objective evaluated for every row of ``candidates`` at once.

    Rows are treated as probability vectors; used by the brute-force search
    and the random-point optimality certificates, where the per-call cost of
    the scalar entry point would dominate.  ``xlogx``, when given, holds
    sum_j P_ij log P_ij for every row as ``_xlogx_rows`` computes it; the
    entropic kinds then use it instead of recomputing it.
    """
    P = np.asarray(candidates, dtype=np.float64)
    if P.ndim != 2 or P.shape[1] != len(s):
        raise ValueError(f"candidate rows must have shape (k, {len(s)})")
    if xlogx is not None and np.shape(xlogx) != (P.shape[0],):
        raise ValueError(f"xlogx must hold one value per candidate row, {P.shape[0]}")
    return -(P @ s.values) + _omega_rows(P, reg, xlogx)


def _xlogx_rows(P: np.ndarray) -> np.ndarray:
    terms = np.where(P > 0.0, P, 1.0)
    np.log(terms, out=terms)
    terms *= P
    return np.sum(terms, axis=1)


def _omega_rows(P: np.ndarray, reg: RegularizerSpec, xlogx: np.ndarray | None = None) -> np.ndarray:
    kind = reg.kind
    if xlogx is None and _KINDS[kind].entropic:
        xlogx = _xlogx_rows(P)
    if kind == SHANNON:
        return reg.temperature * xlogx
    if kind == L2:
        return 0.5 * np.sum(P * P, axis=1)
    if kind == TSALLIS:
        a = reg.alpha
        return np.sum(P**a - P, axis=1) / (a * (a - 1.0))
    if kind == ALIBI:
        d = key_distances(reg.query_position, P.shape[1])
        return reg.temperature * xlogx + reg.gamma * (P @ d)
    if kind == KL_PRIOR:
        if len(reg.prior) != P.shape[1]:
            raise ValueError(
                f"length mismatch: prior {len(reg.prior)} vs distribution {P.shape[1]}"
            )
        return reg.temperature * (xlogx - P @ np.log(reg.prior.weights))
    raise ValueError(f"unknown regularizer kind {kind!r}")
