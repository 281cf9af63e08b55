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
    _cast,
    _integer,
    _is_real,
)
from .experiments import LLR_MERGE_TOL, LLRDistribution, _check_prob_matrix, _finite
from .experiments import _convolve_atoms, _floats, _freeze, _merge_point_rows

MultiIndex = tuple[int, ...]

MAX_DIM = 4
MAX_ORDER = 4
# refuse literal Lambda enumerations beyond this many ordered collections
ENUM_CAP = 2_000_000
# entries of one block of the monomial table that `moments` builds
TABLE_BLOCK = 1 << 20


def _check_box(n: int, order: int) -> tuple[int, int]:
    """(n, order) as ints, each in 1..its cap, else DimensionTooLarge."""
    return (
        _integer(n, "dimension", 1, MAX_DIM, DimensionTooLarge),
        _integer(order, "order", 1, MAX_ORDER, DimensionTooLarge),
    )


def multi_indices(n: int, order: int) -> list[MultiIndex]:
    """All alpha in {0..order}^n except the zero index, lexicographically."""
    return list(_plan(*_check_box(n, order)).box)


class _Plan(NamedTuple):
    box: tuple[MultiIndex, ...]
    grades: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]


@lru_cache(maxsize=None)
def _plan(n: int, order: int) -> _Plan:
    """The box {0..order}^n minus zero in lexicographic order, and the
    recursion's terms grouped by total degree, from grade 2 up.

    The terms are the pairs beta <= alpha, listed alpha first and then beta
    ascending, with beta != alpha and beta_d >= 1 for alpha's last non-zero
    coordinate d.  Per grade: the box positions `tgt` of its alphas, and
    (T, len(tgt)) arrays B, R, C whose column i holds alpha i's terms
    (positions of beta and alpha - beta, coefficient).  Row 0 and the
    padding below each column point at slot len(box), which holds 0.0, with
    C = 0: every sum starts from +0.0 as Python's `sum` does, and a padded
    term is exactly 0.0 even when a value has overflowed.
    """
    side = order + 1
    # column r of grid is the index at grid row r, box position r - 1; r is
    # linear in the index, so alpha - beta is at row a - b.  int16 keeps the
    # (n, pairs) arrays below small: a first build pays for every page touched
    grid = np.indices((side,) * n, np.int16).reshape(n, -1)
    grade = grid.sum(axis=0)
    box = tuple(map(tuple, grid[:, 1:].T.tolist()))
    a, b = np.nonzero((grid[:, :, None] >= grid[:, None]).all(axis=0))
    d = n - 1 - np.argmax(grid[::-1] > 0, axis=0)
    keep = (a != b) & (grid[d[a], b] >= 1)
    a, b = a[keep], b[keep]
    # prod_j C(alpha_j - [j=d], beta_j - [j=d]), with comb[i * side + j] = C(i, j)
    unit = np.arange(n)[:, None] == d[a]
    comb = np.array([math.comb(i, j) for i in range(side) for j in range(side)], float)
    c = comb[(grid[:, a] - unit) * side + grid[:, b] - unit].prod(axis=0)
    grade_a = grade[a]
    grades = []
    for g in range(2, n * order + 1):
        rows = np.flatnonzero(grade == g)
        sel = grade_a == g
        ga, gb = a[sel], b[sel]
        # each term's row below the sentinel row 0, and its column
        at = (np.arange(ga.size) - np.searchsorted(ga, ga) + 1, np.searchsorted(rows, ga))
        B, R = np.full((2, 1 + at[0].max(), rows.size), len(box))
        C = np.zeros(B.shape)
        B[at], R[at], C[at] = gb - 1, ga - gb - 1, c[sel]
        grades.append((rows - 1, B, R, C))
    return _Plan(box, tuple(grades))


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """Probability distribution with finitely many atoms in R^n."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = _freeze(_finite(self.atoms, "atoms"))
        weights = _floats(self.weights, "weights", (atoms.shape[0],))
        if atoms.size == 0:
            raise ValidationError("empty distribution")
        _check_prob_matrix(weights, "weights", positive=False)
        if len({tuple(row) for row in atoms}) != atoms.shape[0]:
            raise ValidationError("duplicate atoms")
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
    """Construct with nearby points (within LLR_MERGE_TOL = 1e-12) merged first."""
    # finite: the merge would subtract inf from inf
    pts = np.atleast_2d(_finite(points, "atoms"))
    w = _floats(weights, "weights").reshape(1, -1)
    if w.shape[1] != pts.shape[0]:
        raise DimensionMismatch(f"{pts.shape[0]} points against {w.shape[1]} weights")
    if pts.size == 0:
        raise ValidationError("empty distribution")  # the merge needs a row and a key
    with np.errstate(over="ignore"):  # gaps and sums past the range, as in convolve
        merged_pts, merged_w = _merge_point_rows(pts, w, LLR_MERGE_TOL)
    return FiniteDistribution(merged_pts, merged_w[0])


def finite_distribution_from_llr(
    dist: LLRDistribution, state: int
) -> FiniteDistribution:
    """State `state`'s distribution over the log-likelihood-ratio vector."""
    state = _integer(state, "state", 0, dist.n_states - 1)
    return FiniteDistribution(dist.atoms, dist.weights[state])


def convolve(a: FiniteDistribution, b: FiniteDistribution) -> FiniteDistribution:
    """Distribution of X + Y for independent X ~ a, Y ~ b."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions {a.dim} and {b.dim}")
    return FiniteDistribution(*_convolve_atoms(a, b))


@dataclass(frozen=True)
class MomentVector:
    """Values on the index box: mixed moments m(alpha), or, under the alias
    CumulantVector, mixed cumulants kappa(alpha); also kept as _x, no field:
    a read-only float array in box order, then the 0.0 padded terms read."""

    dim: int
    order: int
    values: Mapping[MultiIndex, float]

    def __post_init__(self):
        dim, order = _check_box(self.dim, self.order)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", order)
        box = _plan(dim, order).box
        try:
            vals = dict(self.values)
        except (TypeError, ValueError):
            raise ValidationError("values must map multi-indices to numbers") from None
        try:
            x = _finite([*map(vals.__getitem__, box), 0.0], "values", (len(box) + 1,))
        except (KeyError, ValidationError):
            # name the first bad index in lexicographic order
            for alpha in box:
                if alpha not in vals:
                    raise IncompleteInput(f"missing index {alpha}") from None
                value = vals[alpha]
                if isinstance(value, np.ndarray):
                    value = value[()]  # a 0-d array is read as its scalar
                if not _is_real(value):
                    raise ValidationError(
                        f"value at {alpha} = {value!r} is not a real number"
                    ) from None
                if not math.isfinite(_cast(value, float)):
                    raise ValidationError(f"non-finite value at {alpha}") from None
            raise
        x.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_x", x)

    def __getitem__(self, alpha: MultiIndex) -> float:
        return self.values[tuple(alpha)]


CumulantVector = MomentVector


@np.errstate(over="ignore", invalid="ignore")  # the MomentVector refuses inf and nan
def moments(dist: FiniteDistribution, order: int) -> MomentVector:
    """m(alpha) = sum of weight * atom^alpha over the support."""
    n, order = _check_box(dist.dim, order)
    k, side = dist.n_atoms, order + 1
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
    try:
        alpha = tuple(_integer(a, "component", 0) for a in alpha)
    except TypeError:
        raise ValidationError(f"multi-index {alpha!r} is not a sequence") from None
    if not 1 <= len(alpha) <= MAX_DIM:
        raise DimensionTooLarge(f"dimension {len(alpha)} outside 1..{MAX_DIM}")
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
    x = vec._x
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
