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

Every term of alpha's recursion reads only indices of lower total degree,
so the conversions run grade by grade from one cached plan per box: one
array expression forms all terms of a grade, and each alpha's terms are
summed strictly left to right (`np.add.accumulate`), the order and
rounding of a plain scalar loop on every interpreter.  Grade 1 has no
terms besides beta = alpha, so its values need no grade of their own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    IncompleteInput,
    ValidationError,
)
from .experiments import LLRDistribution, _check_prob_matrix, _floats, _merge_point_rows

MultiIndex = tuple[int, ...]

MAX_DIM = 4
MAX_ORDER = 4
# refuse literal Lambda enumerations beyond this many ordered collections
ENUM_CAP = 2_000_000
# entries of one block of the monomial table that `moments` builds
TABLE_BLOCK = 1 << 20


def _check_box(n: int, order: int):
    if not 1 <= n <= MAX_DIM:
        raise DimensionTooLarge(f"dimension {n} outside 1..{MAX_DIM}")
    if not 1 <= order <= MAX_ORDER:
        raise DimensionTooLarge(f"order {order} outside 1..{MAX_ORDER}")


def multi_indices(n: int, order: int) -> list[MultiIndex]:
    """All alpha in {0..order}^n except the zero index, lexicographically."""
    _check_box(n, order)
    return list(_plan(n, order).box)


class _Plan(NamedTuple):
    box: tuple[MultiIndex, ...]
    grades: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]


@lru_cache(maxsize=None)
def _plan(n: int, order: int) -> _Plan:
    """The box {0..order}^n minus zero in lexicographic order, and the
    recursion's terms grouped by total degree, from grade 2 up.

    Per grade: the box positions `tgt` of its alphas, and (T, len(tgt))
    arrays B, R, C whose column i holds alpha i's terms (positions of beta
    and alpha - beta, coefficient) with beta != alpha, beta ascending.  Row
    0 and the padding below each column point at slot len(box), which holds
    0.0, with C = 0: every sum starts from +0.0 as Python's `sum` does, and
    a padded term is exactly 0.0 even when a value has overflowed.
    """
    side = order + 1
    grid = np.indices((side,) * n).reshape(n, -1).T
    grade = grid.sum(axis=1)
    box = tuple(map(tuple, grid[1:].tolist()))
    # a, b: grid rows of alpha and beta; grid row r is box position r - 1
    a, b, c = _terms(n, order)
    # row of each term in its alpha's column, below the sentinel row 0
    idx = np.arange(a.size)
    first = np.r_[True, a[1:] != a[:-1]]
    rank = idx - np.maximum.accumulate(np.where(first, idx, 0)) + 1
    counts = np.bincount(a, minlength=grid.shape[0])
    col = np.empty(grid.shape[0], dtype=np.intp)
    grades = []
    for g in range(2, n * order + 1):
        rows = np.flatnonzero(grade == g)
        col[rows] = np.arange(rows.size)
        sel = grade[a] == g
        at = (rank[sel], col[a[sel]])
        shape = (1 + counts[rows].max(), rows.size)
        B = np.full(shape, len(box))
        R = np.full(shape, len(box))
        C = np.zeros(shape)
        B[at] = b[sel] - 1
        R[at] = a[sel] - b[sel] - 1
        C[at] = c[sel]
        grades.append((rows - 1, B, R, C))
    return _Plan(box, tuple(grades))


def _terms(n: int, order: int):
    """Grid rows of alpha and of beta, and the coefficient, of every
    recursion term with beta != alpha, grouped by alpha, beta ascending.

    Alpha's last non-zero coordinate d contributes C(alpha_d - 1, beta_d - 1)
    and every other coordinate C(alpha_j, beta_j); beta_j = alpha_j = 0
    after d.  Over the alphas sharing d, the coefficients on coordinates
    0..d form a Kronecker product of these binomial tables, zero exactly
    where some beta_j > alpha_j or beta_d = 0.
    """
    side = order + 1
    comb = np.array([[math.comb(i, j) for j in range(side)] for i in range(side)], float)
    shifted = np.zeros_like(comb)
    shifted[1:, 1:] = comb[:-1, :-1]
    parts = []
    for d in range(n):
        K = shifted[1:]
        for _ in range(d):
            K = np.kron(comb, K)
        ka, kb = np.nonzero(K)
        step = side ** (n - 1 - d)
        a = (ka // order * side + ka % order + 1) * step
        b = kb * step
        keep = a != b
        parts.append((a[keep], b[keep], K[ka, kb][keep]))
    return [np.concatenate(x) for x in zip(*parts)]


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """Probability distribution with finitely many atoms in R^n."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.atleast_2d(_floats(self.atoms, "atoms"))
        weights = _floats(self.weights, "weights").ravel()
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
    pts = np.atleast_2d(_floats(points, "points"))
    w = _floats(weights, "weights").reshape(1, -1)
    if w.shape[1] != pts.shape[0]:
        raise DimensionMismatch(f"{pts.shape[0]} points against {w.shape[1]} weights")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("non-finite atom")  # the merge would subtract inf from inf
    merged_pts, merged_w = _merge_point_rows(pts, w, 1e-12)
    return FiniteDistribution(merged_pts, merged_w[0])


def finite_distribution_from_llr(
    dist: LLRDistribution, state: int
) -> FiniteDistribution:
    """State `state`'s distribution over the log-likelihood-ratio vector."""
    if not isinstance(state, (int, np.integer)) or not 0 <= state < dist.n_states:
        raise ValidationError(f"state index {state!r} is not an integer in range")
    return FiniteDistribution(dist.atoms, dist.weights[state])


def convolve(a: FiniteDistribution, b: FiniteDistribution) -> FiniteDistribution:
    """Distribution of X + Y for independent X ~ a, Y ~ b."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions {a.dim} and {b.dim}")
    sums = (a.atoms[:, None, :] + b.atoms[None, :, :]).reshape(-1, a.dim)
    return finite_distribution(sums, a.weights[:, None] * b.weights[None, :])


@dataclass(frozen=True)
class MomentVector:
    """Values on the index box: mixed moments m(alpha), or, under the alias
    CumulantVector, mixed cumulants kappa(alpha)."""

    dim: int
    order: int
    values: Mapping[MultiIndex, float]

    def __post_init__(self):
        _check_box(self.dim, self.order)
        box = _plan(self.dim, self.order).box
        vals = dict(self.values)
        # a finite sum means every value is a finite real; fsum reads each
        # value as math.isfinite does, and never rounds a finite sum to inf
        # without raising
        try:
            finite = math.isfinite(math.fsum(map(vals.__getitem__, box)))
        except (KeyError, TypeError, ValueError, OverflowError):
            finite = False
        if not finite:
            # name the first bad index in lexicographic order; accept other
            # real types, such as Fraction, as math.isfinite does
            for alpha in box:
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
    n, k, side = dist.dim, dist.n_atoms, order + 1
    # powers[d, e] = atoms[:, d]**e by repeated multiplication, as np.vander
    powers = np.ones((n, side, k))
    powers[:, 1:] = dist.atoms.T[:, None, :]
    np.multiply.accumulate(powers[:, 1:], axis=1, out=powers[:, 1:])
    # The monomial table over the whole grid {0..order}^n, lexicographic,
    # is a product over dimensions in ascending order; a zero exponent
    # multiplies by exactly 1.0.  Loop over the leading n - inner coordinates
    # so that one block holds at most TABLE_BLOCK entries (or one row).
    inner = n
    while inner and side**inner * k > TABLE_BLOCK:
        inner -= 1
    vals = np.empty(side**n)
    for i, prefix in enumerate(itertools.product(range(side), repeat=n - inner)):
        factors = [powers[d, e : e + 1] for d, e in enumerate(prefix)]
        factors.extend(powers[n - inner :])
        # the product starts at its first factor: a leading 1.0 changes no bit
        table = factors[0]
        for f in factors[1:]:
            table = (table[:, None, :] * f).reshape(-1, k)
        # np.dot(weights, row) per row: one ddot from +0.0, or for a single
        # atom a plain product, which keeps the sign of a zero
        if k == 1:
            dots = table[:, 0] * dist.weights[0]
        else:
            dots = np.vecdot(table, dist.weights)
        vals[i * side**inner : (i + 1) * side**inner] = dots
    # row 0 is the zero index, outside the box
    return MomentVector(n, order, dict(zip(_plan(n, order).box, vals[1:].tolist())))


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


def _recurse(vec: MomentVector, to_cumulants: bool) -> dict:
    """The recursion over vec's box, grade by grade: solved for kappa(alpha)
    when vec holds moments, summed for m(alpha) when it holds cumulants."""
    plan = _plan(vec.dim, vec.order)
    # the values in box order, then the 0.0 that padded terms read
    x = np.fromiter(
        itertools.chain(map(vec.values.__getitem__, plan.box), (0.0,)),
        float,
        len(plan.box) + 1,
    )
    # kappa(alpha) = m(alpha) - sum, m(alpha) = kappa(alpha) + sum, and
    # every term is C kappa(beta) m(alpha - beta)
    sign = np.subtract if to_cumulants else np.add
    # grade 1, whose sums are empty (+0.0); the higher grades overwrite
    out = sign(x, 0.0)
    kappa, m = (out, x) if to_cumulants else (x, out)
    # overflow gives inf or nan, as Python floats do, and the result's
    # MomentVector refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        for tgt, B, R, C in plan.grades:
            terms = C * kappa[B] * m[R]
            out[tgt] = sign(x[tgt], np.add.accumulate(terms, axis=0)[-1])
    return dict(zip(plan.box, out[:-1].tolist()))


def moments_to_cumulants(m: MomentVector) -> CumulantVector:
    """kappa(alpha): the recursion solved for its beta = alpha term."""
    return CumulantVector(m.dim, m.order, _recurse(m, True))


def cumulants_to_moments(k: CumulantVector) -> MomentVector:
    """m(alpha) by the recursion, in order of total degree."""
    return MomentVector(k.dim, k.order, _recurse(k, False))


def cumulants(dist: FiniteDistribution, order: int) -> CumulantVector:
    return moments_to_cumulants(moments(dist, order))
