"""Dense phase-1 simplex for small feasibility systems.

Finds x >= 0 minimizing the total artificial infeasibility of A x = b.  Uses
Bland's smallest-index pivoting rule throughout, which rules out cycling and
makes the pivot sequence (and therefore the returned vertex) deterministic.
Problem sizes here are tiny, so exactness and reproducibility are worth more
than speed.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverFailure

_PIVOT_EPS = 1e-10


def phase1_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimize sum of artificials for A x = b, x >= 0; returns x.

    The caller decides feasibility by checking the residual of the returned
    point; this function only guarantees the phase-1 optimum was reached.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    m, n = A.shape
    if b.size != m:
        raise ValueError("rhs length mismatch")

    A = A.copy()
    b = b.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # tableau [A | I | b], artificial basis, objective row w = z - c
    T = np.hstack([A, np.eye(m), b[:, None]])
    basis = list(range(n, n + m))
    w = np.empty(n + m + 1)
    w[: n + m] = T[:, : n + m].sum(axis=0)
    w[n : n + m] -= 1.0  # cost 1 on artificials
    w[-1] = b.sum()

    for _ in range(200 * (m + n + 10)):
        entering = -1
        for j in range(n + m):
            if w[j] > _PIVOT_EPS:
                entering = j
                break
        if entering < 0:
            break
        col = T[:, entering]
        best_ratio = np.inf
        leave = -1
        for i in range(m):
            if col[i] > _PIVOT_EPS:
                ratio = T[i, -1] / col[i]
                # Bland tie-break: smallest basic variable index
                if ratio < best_ratio - 1e-15 or (
                    abs(ratio - best_ratio) <= 1e-15
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise SolverFailure("phase-1 column unbounded; inconsistent tableau")
        piv = T[leave, entering]
        T[leave] /= piv
        for i in range(m):
            if i != leave and T[i, entering] != 0.0:
                T[i] -= T[i, entering] * T[leave]
        if w[entering] != 0.0:
            w -= w[entering] * T[leave]
        basis[leave] = entering
    else:
        raise SolverFailure("phase-1 simplex hit the iteration cap")

    x = np.zeros(n + m)
    for i, var in enumerate(basis):
        x[var] = T[i, -1]
    return x[:n]
