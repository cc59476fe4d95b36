"""Domain types and elementary functionals for simplex-constrained attention.

Every type validates its invariants on construction and is immutable
afterwards (a caller's arrays are copied, see ``_Adopt``, and marked
read-only), so instances are safe to share across threads.  All
operations in this module are pure functions of their inputs.
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
# The error of a penalty that overflows at every key: no logit is finite.
_OVERFLOWS = "the {} penalty overflows at every key, so no weight is defined"


class NumericalFailure(RuntimeError):
    """An iterative routine could not meet its numerical contract."""


# One check per array rule.  Every validated type freezes its arrays
# through ``_frozen``, and every entry point that pairs two sequences
# checks their lengths through ``_check_lengths``.

_AXES = {1: "a one-dimensional vector", 2: "a two-dimensional matrix"}


class _Adopt(NamedTuple):  # a float64 array the library just made: frozen uncopied
    array: np.ndarray


def _array(values, name: str, ndim: int = 1) -> np.ndarray:
    """A float64 copy of ``values`` (or the adopted array itself) with
    ``ndim`` axes and at least one entry."""
    arr = values.array if type(values) is _Adopt else np.array(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {_AXES[ndim]}, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError(f"{name} must have at least one entry")
    return arr


def _check_finite(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite (no NaN or Inf entries)")


def _frozen(values, name: str, ndim: int = 1) -> np.ndarray:
    """``_array``'s array, read-only, with only finite entries."""
    arr = _array(values, name, ndim)
    _check_finite(arr, name)
    arr.flags.writeable = False
    return arr


def _check_lengths(a, b, a_name: str, b_name: str) -> None:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {a_name} {len(a)} vs {b_name} {len(b)}")


@dataclass(frozen=True)
class Scores:
    """One row of query-key logits: finite real vector of length m >= 1."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, "scores"))

    def __len__(self) -> int:
        return self.values.size


def _check_simplex(w: np.ndarray) -> float:
    """Checks that ``w`` is finite, nonnegative and sums to 1, and returns
    its minimum.  A caller that wrote exact +0.0 everywhere else in a row
    may pass only the entries it wrote: every decision is the row's, and
    only the sum's grouping changes."""
    # A min >= 0 rules out NaN, -inf and negative entries and a max <= 2
    # rules out +inf and a sum that overflows: such a row is finite
    # without a pass of its own.  Any other row is checked finite, then
    # nonnegative, so only a finite nonnegative row is ever summed.
    low = float(np.minimum.reduce(w))
    if not (low >= 0.0 and np.maximum.reduce(w) <= 2.0):
        _check_finite(w, "weights")
        if low < 0.0:
            raise ValueError("simplex entries must be nonnegative")
    total = float(np.add.reduce(w))
    if abs(total - 1.0) > SIMPLEX_SUM_ATOL:
        raise ValueError(
            f"simplex entries must sum to 1 within {SIMPLEX_SUM_ATOL}, got sum {total!r}"
        )
    return low


@dataclass(frozen=True)
class SimplexDistribution:
    """Attention weights: nonnegative entries summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = _array(self.weights, "weights")
        _check_simplex(w)
        w.flags.writeable = False
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
        arr = _frozen(values, "weights")
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


def _check_count(value, name: str, least: int) -> int:
    count = _number(value, name)
    if not isinstance(count, (int, np.integer)) or count < least:
        raise ValueError(f"{name} must be an integer >= {least}")
    return int(count)


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


def _distribution(dist) -> SimplexDistribution:
    return dist if isinstance(dist, SimplexDistribution) else SimplexDistribution(dist)


def _check_positive_distribution(dist, name: str = "prior") -> SimplexDistribution:
    dist = _distribution(dist)
    if dist.weights.min() <= 0.0:
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
        object.__setattr__(self, "values", _frozen(self.values, "utilities"))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class QueryKeyBatch:
    """n query rows and m key rows sharing an inner dimension d >= 1."""

    queries: np.ndarray
    keys: np.ndarray

    def __post_init__(self):
        q = _frozen(self.queries, "queries", 2)
        k = _frozen(self.keys, "keys", 2)
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
        object.__setattr__(self, "values", _frozen(self.values, "values", 2))

    def __len__(self) -> int:
        return self.values.shape[0]


def key_distances(query_position: int, m: int) -> np.ndarray:
    """|i - j| for 1-based key positions j = 1..m."""
    d = np.arange(1, m + 1, dtype=np.float64)
    np.subtract(float(query_position), d, out=d)
    return np.abs(d, out=d)


def shannon_entropy(p: SimplexDistribution) -> float:
    """H(p) = -sum p_j log p_j, with 0 log 0 = 0, summed over the support."""
    w = p.weights
    return float(-np.sum(_xlogx(w)[w > 0.0]))


def kl_divergence(p: SimplexDistribution, q: SimplexDistribution) -> float:
    """KL(p || q) = sum p_j log(p_j / q_j); q must be strictly positive."""
    _check_lengths(p, q, "distribution", "reference distribution")
    qw = _check_positive_distribution(q, "reference distribution").weights
    w = p.weights
    pos = w > 0.0
    return float(np.sum(w[pos] * (np.log(w[pos]) - np.log(qw[pos]))))


def regularizer_value(p: SimplexDistribution, reg: RegularizerSpec) -> float:
    """Omega(p) for the given regularizer kind."""
    return float(_omega_rows(p.weights[np.newaxis, :], reg)[0])


def objective_value(p: SimplexDistribution, s: Scores, reg: RegularizerSpec) -> float:
    """-<p, s> + Omega(p), the quantity every solver minimizes."""
    _check_lengths(p, s, "distribution", "scores")
    return float(-np.dot(p.weights, s.values)) + regularizer_value(p, reg)


def objective_rows(candidates: np.ndarray, s: Scores, reg: RegularizerSpec) -> np.ndarray:
    """Objective evaluated for every row of ``candidates`` at once.

    Rows are treated as probability vectors; used by the random-point
    optimality certificates, where the per-call cost of the scalar entry
    point would dominate.
    """
    P = np.asarray(candidates, dtype=np.float64)
    if P.ndim != 2 or P.shape[1] != len(s):
        raise ValueError(f"candidate rows must have shape (k, {len(s)})")
    return -(P @ s.values) + _omega_rows(P, reg)


def _row_sums(q: np.ndarray) -> np.ndarray:
    """``np.sum(q, axis=1)``, bit for bit.  numpy adds a row of fewer than 8
    entries left to right from +0.0, so many rows of 1 to 3 entries are summed
    as columns, without its per-row loop; other shapes cost less in np.sum."""
    if q.shape[0] < 2 or not 1 <= q.shape[1] <= 3:
        return np.sum(q, axis=1)
    total = q[:, 0] + 0.0  # a row of -0.0 sums to +0.0
    for j in range(1, q.shape[1]):
        total += q[:, j]
    return total


def _xlogx(P: np.ndarray) -> np.ndarray:
    """P log P entrywise, as a new array, with 0 log 0 = 0 (a zero's log is
    taken of 1.0); every x log x of the library is this product."""
    terms = np.where(P > 0.0, P, 1.0)
    np.log(terms, out=terms)
    terms *= P
    return terms


# Below this alpha the Tsallis penalty sums p expm1((a-1) log p), as
# p^a - p cancels: on entmax's answers for U(-1, 1) scores at m=16 it is off
# by 1.4e-5 relative at alpha = 1 + 1e-12 and 1.9e-15 at 1.01, the expm1
# form by <= 3e-16 anywhere; from 1.1 up p^a - p is as close and keeps its bits.
_TSALLIS_EXPM1_BELOW = 1.1


def _tsallis_terms(P: np.ndarray, a: float) -> np.ndarray:
    """p^a - p for every entry of P >= 0, the Tsallis penalty's terms times
    a (a - 1)."""
    if a < _TSALLIS_EXPM1_BELOW:
        return P * np.expm1((a - 1.0) * np.log(np.where(P == 0.0, 1.0, P)))
    return P**a - P


# A penalty past the double range is +-inf, its rounded value (alibi's
# gamma * d, kl_prior's tau * KL): no warning.
@np.errstate(over="ignore")
def _omega_rows(P: np.ndarray, reg: RegularizerSpec, xlogx: np.ndarray | None = None) -> np.ndarray:
    kind = reg.kind
    if xlogx is None and _KINDS[kind].entropic:
        xlogx = _row_sums(_xlogx(P))
    if kind == SHANNON:
        return reg.temperature * xlogx
    if kind == L2:
        return 0.5 * _row_sums(P * P)
    if kind == TSALLIS:
        a = reg.alpha
        return _row_sums(_tsallis_terms(P, a)) / (a * (a - 1.0))
    if kind == ALIBI:
        d = key_distances(reg.query_position, P.shape[1])
        return reg.temperature * xlogx + reg.gamma * (P @ d)
    if kind == KL_PRIOR:
        _check_lengths(reg.prior, P.T, "prior", "distribution")
        return reg.temperature * (xlogx - P @ np.log(reg.prior.weights))
    raise ValueError(f"unknown regularizer kind {kind!r}")
