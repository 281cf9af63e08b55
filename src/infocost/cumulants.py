"""Moments and cumulants of finite-support distributions on R^n.

Implements the bounded multi-index set A = {0..N}^n minus zero, the moment
and cumulant vectors indexed by A, the conversion formulas in both
directions, and convolution of distributions.  Cumulants add under
convolution; that additivity is the property the rest of the library leans
on when it reasons about independent repetitions.

Conversions run the multivariate moment-cumulant recursion (McCullagh,
Tensor Methods in Statistics, 1987; Smith, Am. Stat. 49, 1995).
Differentiating M = exp(K) once along d, the last non-zero coordinate of
alpha, and then by Leibniz gives

    m(alpha) = sum over 0 < beta <= alpha with beta_d >= 1 of
               prod_j C(alpha_j - [j=d], beta_j - [j=d]) kappa(beta) m(alpha-beta)

with m(0) = 1.  It equals, term for term after grouping, the alternating
sum over ordered collections of multi-indices that `enumerate_lambda`
spells out, at a cost polynomial in the box size instead of in the (much
larger) number of collections.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    IncompleteInput,
    ValidationError,
)
from .experiments import LLRDistribution, _check_prob_matrix, _merge_point_rows

MultiIndex = tuple[int, ...]

MAX_DIM = 4
MAX_ORDER = 4
# refuse literal Lambda enumerations beyond this many ordered collections
ENUM_CAP = 2_000_000


def _check_box(n: int, order: int):
    if not 1 <= n <= MAX_DIM:
        raise DimensionTooLarge(f"dimension {n} outside 1..{MAX_DIM}")
    if not 1 <= order <= MAX_ORDER:
        raise DimensionTooLarge(f"order {order} outside 1..{MAX_ORDER}")


def multi_indices(n: int, order: int) -> list[MultiIndex]:
    """All alpha in {0..order}^n except the zero index, lexicographically."""
    _check_box(n, order)
    out = [a for a in itertools.product(range(order + 1), repeat=n) if any(a)]
    return out


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """Probability distribution with finitely many atoms in R^n."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        weights = np.asarray(self.weights, dtype=float).ravel()
        if atoms.shape[0] != weights.size:
            raise DimensionMismatch(
                f"{atoms.shape[0]} atoms against {weights.size} weights"
            )
        if atoms.size == 0:
            raise ValidationError("empty distribution")
        if not np.all(np.isfinite(atoms)):
            raise ValidationError("non-finite atom")
        _check_prob_matrix(weights, "weights", positive=False)
        if len({tuple(row) for row in atoms}) != atoms.shape[0]:
            raise ValidationError("duplicate atoms")
        atoms = atoms.copy()
        weights = weights.copy()
        atoms.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]


def finite_distribution(points, weights) -> FiniteDistribution:
    """Construct with nearby points (within 1e-12) merged first."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.asarray(weights, dtype=float).reshape(1, -1)
    merged_pts, merged_w = _merge_point_rows(pts, w, 1e-12)
    return FiniteDistribution(merged_pts, merged_w[0])


def finite_distribution_from_llr(
    dist: LLRDistribution, state: int
) -> FiniteDistribution:
    """State `state`'s distribution over the log-likelihood-ratio vector."""
    if not 0 <= state < dist.n_states:
        raise ValidationError(f"state index {state} out of range")
    return FiniteDistribution(dist.atoms, dist.weights[state])


def convolve(a: FiniteDistribution, b: FiniteDistribution) -> FiniteDistribution:
    """Distribution of X + Y for independent X ~ a, Y ~ b."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions {a.dim} and {b.dim}")
    sums = (a.atoms[:, None, :] + b.atoms[None, :, :]).reshape(-1, a.dim)
    w = (a.weights[:, None] * b.weights[None, :]).reshape(1, -1)
    pts, ws = _merge_point_rows(sums, w, 1e-12)
    return FiniteDistribution(pts, ws[0])


@dataclass(frozen=True)
class MomentVector:
    """Values on the index box: mixed moments m(alpha), or, under the alias
    CumulantVector, mixed cumulants kappa(alpha)."""

    dim: int
    order: int
    values: Mapping[MultiIndex, float]

    def __post_init__(self):
        _check_box(self.dim, self.order)
        vals = dict(self.values)
        for alpha in multi_indices(self.dim, self.order):
            if alpha not in vals:
                raise IncompleteInput(f"missing index {alpha}")
            if not math.isfinite(vals[alpha]):
                raise ValidationError(f"non-finite value at {alpha}")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, alpha: MultiIndex) -> float:
        return self.values[tuple(alpha)]


CumulantVector = MomentVector


def moments(dist: FiniteDistribution, order: int) -> MomentVector:
    """m(alpha) = sum of weight * atom^alpha over the support."""
    _check_box(dist.dim, order)
    # per-dimension power tables, then products across dimensions
    powers = [
        np.vander(dist.atoms[:, d], order + 1, increasing=True)
        for d in range(dist.dim)
    ]
    vals = {}
    for alpha in multi_indices(dist.dim, order):
        prod = np.ones(dist.n_atoms)
        for d, e in enumerate(alpha):
            if e:
                prod = prod * powers[d][:, e]
        vals[alpha] = float(np.dot(dist.weights, prod))
    return MomentVector(dist.dim, order, vals)


def _descending_nonzero(alpha: MultiIndex):
    ranges = [range(a, -1, -1) for a in alpha]
    for v in itertools.product(*ranges):
        if any(v):
            yield v


@lru_cache(maxsize=None)
def _lambda_count(alpha: MultiIndex) -> int:
    if not any(alpha):
        return 1
    total = 0
    for v in _descending_nonzero(alpha):
        total += _lambda_count(tuple(a - b for a, b in zip(alpha, v)))
    return total


def lambda_count(alpha) -> int:
    """Number of ordered collections of non-zero indices summing to alpha."""
    alpha = _check_alpha(alpha)
    return _lambda_count(alpha)


def _check_alpha(alpha) -> MultiIndex:
    alpha = tuple(int(a) for a in alpha)
    if not 1 <= len(alpha) <= MAX_DIM:
        raise DimensionTooLarge(f"dimension {len(alpha)} outside 1..{MAX_DIM}")
    if any(a < 0 for a in alpha):
        raise ValidationError(f"negative component in {alpha}")
    if not any(alpha):
        raise ValidationError("zero multi-index")
    if max(alpha) > MAX_ORDER:
        raise DimensionTooLarge(f"component above {MAX_ORDER} in {alpha}")
    return alpha


@lru_cache(maxsize=None)
def _enumerate(alpha: MultiIndex) -> tuple:
    out = []
    for v in _descending_nonzero(alpha):
        rem = tuple(a - b for a, b in zip(alpha, v))
        if not any(rem):
            out.append((v,))
        else:
            out.extend((v,) + tail for tail in _enumerate(rem))
    return tuple(out)


def enumerate_lambda(alpha) -> tuple:
    """All ordered collections (lambda^1..lambda^q) of non-zero multi-indices
    with componentwise sum alpha, first part descending lexicographically and
    the tail ordered recursively the same way.
    """
    alpha = _check_alpha(alpha)
    count = _lambda_count(alpha)
    if count > ENUM_CAP:
        raise DimensionTooLarge(
            f"{count} ordered collections for {alpha}; cap is {ENUM_CAP}"
        )
    return _enumerate(alpha)


@lru_cache(maxsize=None)
def _recursion(n: int, order: int) -> tuple:
    """(alpha, terms) for each alpha of the box in lexicographic order, where
    terms are the (beta, alpha - beta, coefficient) of the recursion with
    beta != alpha; the beta = alpha term is kappa(alpha) * m(0).  Every index
    a term reads precedes alpha.
    """
    table = []
    for alpha in multi_indices(n, order):
        d = max(j for j, a in enumerate(alpha) if a)
        # per coordinate j: (beta_j, alpha_j - beta_j, binomial factor)
        axes = [
            [(b, a - b, math.comb(a - (j == d), b - (j == d)))
             for b in range(j == d, a + 1)]
            for j, a in enumerate(alpha)
        ]
        terms = []
        for parts in itertools.product(*axes):
            beta, rest, coefs = zip(*parts)
            if any(rest):
                terms.append((beta, rest, float(math.prod(coefs))))
        table.append((alpha, tuple(terms)))
    return tuple(table)


def moments_to_cumulants(m: MomentVector) -> CumulantVector:
    """kappa(alpha): the recursion solved for its beta = alpha term."""
    mv = m.values
    k = {}
    for alpha, terms in _recursion(m.dim, m.order):
        k[alpha] = mv[alpha] - sum(c * k[b] * mv[r] for b, r, c in terms)
    return CumulantVector(m.dim, m.order, k)


def cumulants_to_moments(k: CumulantVector) -> MomentVector:
    """m(alpha) by the recursion, in lexicographic order of alpha."""
    kv = k.values
    m = {}
    for alpha, terms in _recursion(k.dim, k.order):
        m[alpha] = kv[alpha] + sum(c * kv[b] * m[r] for b, r, c in terms)
    return MomentVector(k.dim, k.order, m)


def cumulants(dist: FiniteDistribution, order: int) -> CumulantVector:
    return moments_to_cumulants(moments(dist, order))
