"""Dense exact linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced into [0, p).  Shapes
with zero rows or zero columns are legal everywhere; they show up
constantly as zero modules and empty syzygies.

Every routine is deterministic: pivots are always the first nonzero entry
scanning down a column, so echelon forms, nullspace bases and particular
solutions are canonical functions of the input.  Nothing here mutates its
arguments.

Solutions are read off an elimination in one place, solve_each(a, b, p)
-> (ok, X): one rref of [a | b] decides every column of b, ok[k] says
whether a @ x = b[:, k] is consistent, and then X[:, k] is the canonical
solution for that column alone.  Columns of X where ok is False carry no
meaning.  solve is its all-or-nothing wrapper.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mat",
    "zeros",
    "identity",
    "modinv",
    "rref",
    "rank",
    "nullspace",
    "solve",
    "solve_each",
    "inverse",
    "column_space",
    "in_column_span",
    "extend_to_basis",
]


def mat(rows, p: int) -> np.ndarray:
    """Build an int64 matrix reduced mod p from nested lists or an array."""
    a = np.array(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return np.mod(a, p)


def zeros(nrows: int, ncols: int) -> np.ndarray:
    return np.zeros((nrows, ncols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def modinv(a: int, p: int) -> int:
    a = a % p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 mod %d" % p)
    return pow(a, p - 2, p)


def rref(a: np.ndarray, p: int,
         pivot_cols: int | None = None) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of a mod p.

    Returns (R, pivots) where pivots[i] is the column of the leading 1 in
    row i.  Rows below the pivot rows are zero.  With pivot_cols = k only
    the first k columns may hold pivots: the rest are carried along as
    right-hand sides, and rows below the pivot rows are zero on the first
    k columns only.
    """
    r = np.mod(a.astype(np.int64, copy=True), p)
    nrows, ncols = r.shape
    limit = ncols if pivot_cols is None else pivot_cols
    pivots = []
    row = 0
    for col in range(limit):
        if row >= nrows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        pivot_row = row + int(nz[0])
        if pivot_row != row:
            r[[row, pivot_row]] = r[[pivot_row, row]]
        r[row] = (r[row] * modinv(int(r[row, col]), p)) % p
        others = np.nonzero(r[:, col])[0]
        others = others[others != row]
        if others.size:
            r[others] = (r[others] - np.outer(r[others, col], r[row])) % p
        pivots.append(col)
        row += 1
    return r, tuple(pivots)


def rank(a: np.ndarray, p: int) -> int:
    return len(rref(a, p)[1])


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis of {x : a @ x = 0 mod p}, as matrix columns.

    Each free column of the echelon form contributes one basis vector with
    a 1 in that coordinate, so the basis is in "column echelon" shape and
    is unique for a given input.
    """
    r, pivots = rref(a, p)
    ncols = a.shape[1]
    free = [j for j in range(ncols) if j not in pivots]
    basis = zeros(ncols, len(free))
    for k, j in enumerate(free):
        basis[j, k] = 1
        for i, c in enumerate(pivots):
            basis[c, k] = (-r[i, j]) % p
    return basis


def solve_each(a: np.ndarray, b: np.ndarray,
               p: int) -> tuple[np.ndarray, np.ndarray]:
    """Solve a @ x = b[:, k] mod p for every column k by one elimination.

    The row operations depend on a only, so each consistent column gets
    the solution it would get alone: free variables set to 0.
    """
    if a.shape[0] != b.shape[0]:
        raise ValueError("shape mismatch: %s vs %s" % (a.shape, b.shape))
    ncols = a.shape[1]
    r, pivots = rref(np.hstack([a, b]), p, pivot_cols=ncols)
    ok = ~r[len(pivots):, ncols:].any(axis=0)
    x = zeros(ncols, b.shape[1])
    x[list(pivots)] = r[:len(pivots), ncols:]
    return ok, x


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """Particular solution X of a @ X = b mod p, or None if inconsistent.

    b may be a vector or a matrix; a matrix is solved column by column
    through solve_each and is None unless every column is consistent.
    """
    vec_in = b.ndim == 1
    ok, x = solve_each(a, b.reshape(-1, 1) if vec_in else b, p)
    if not ok.all():
        return None
    return x[:, 0] if vec_in else x


def inverse(a: np.ndarray, p: int) -> np.ndarray:
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("inverse of non-square matrix")
    x = solve(a, identity(n), p)
    if x is None or rank(a, p) != n:
        raise ValueError("matrix is singular mod %d" % p)
    return x


def column_space(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis of the column span: the pivot columns of a."""
    _, pivots = rref(a, p)
    return np.mod(a[:, list(pivots)], p)


def in_column_span(basis: np.ndarray, v: np.ndarray, p: int) -> bool:
    return solve(basis, v, p) is not None


def extend_to_basis(cols: np.ndarray, p: int) -> np.ndarray:
    """Standard basis vectors completing independent columns to a basis.

    Greedy over e_0, e_1, ...: e_j is taken when it lies outside the span
    of cols and the vectors taken before it.  Those are exactly the pivot
    columns of the I block in rref([cols | I]), so one elimination
    decides them all.  Returns an n x (n - k) matrix D such that
    [cols | D] is invertible.
    """
    n, k = cols.shape
    _, pivots = rref(np.hstack([cols, identity(n)]), p)
    if pivots[:k] != tuple(range(k)):
        raise ValueError("columns are not independent")
    return identity(n)[:, [c - k for c in pivots[k:]]]
