"""Dense exact linear algebra over a prime field F_p.

At the boundary matrices are numpy int64 arrays with entries reduced into
[0, p).  Shapes with zero rows or zero columns are legal everywhere; they
show up constantly as zero modules and empty syzygies.

Inside, every routine converts its input once to Python lists of ints
(one list per row), runs the one Gauss-Jordan kernel _eliminate on them
in place, reads its answer off the rows and converts back once.  The
systems the package builds are tiny and sparse: most have a handful of
cells, many are empty, and the larger ones are a few percent nonzero.
Their cost is per pivot, not per cell, and a list kernel that touches
only the rows with a nonzero in the pivot column, and only from the
pivot column on, does far less than the numpy calls a vectorised pivot
step needs.  On dense matrices it loses to a vectorised elimination from
a few dozen rows on (ROADMAP item 4 has the measured crossover), but
nothing in the package builds those.

Every routine is deterministic: pivots are always the first nonzero entry
scanning down a column, so echelon forms, nullspace bases and particular
solutions are canonical functions of the input.  Nothing here mutates its
arguments.

Solutions are read off an elimination in one place, _solution, under
solve_span(a, b, p) -> (W, X).  The row operations that reduce [a | b]
depend on a only, so they are one invertible E and the rref is
[E a | E b].  Hence for every combination c of b's columns the rref of
[a | b @ c] is [E a | E b c]: a @ x = b @ c is consistent exactly when
W @ c = 0, W the b-block below the pivots, and its canonical solution
(free variables 0) is X @ c, X the b-block on the pivot rows placed at
the pivot columns.  So a question whose right-hand side is linear in s
takes the d basis elements of R as right-hand sides, whatever the size
of S: the s that answer it form ker W.  solve_each is the case c = e_k,
and solve its all-or-nothing wrapper.  W has one row per row of a
outside the pivots, so a caller also reads rank(a) off it.  One routine
reads more than one answer off a single rref of [cols | I]:
complete_span(cols, p) -> (B, D, E) is a basis of the column span, its
completion and the inverse of both.  One routine reads coordinates
without an elimination: nullspace_coordinates against a basis nullspace
returned, whose free rows are an identity block.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "zeros",
    "identity",
    "modinv",
    "rref",
    "rank",
    "nullspace",
    "nullspace_coordinates",
    "solve",
    "solve_span",
    "solve_each",
    "column_space",
    "columns_outside_span",
    "in_column_span",
    "extend_to_basis",
    "complete_basis",
    "complete_span",
]


def zeros(nrows: int, ncols: int) -> np.ndarray:
    return np.zeros((nrows, ncols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def modinv(a: int, p: int) -> int:
    a = a % p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 mod %d" % p)
    return pow(a, p - 2, p)


def _rows(a: np.ndarray, p: int) -> list[list[int]]:
    """a reduced mod p as fresh Python row lists."""
    return (np.asarray(a, dtype=np.int64) % p).tolist()


def _array(rows: list[list[int]], nrows: int, ncols: int) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(nrows, ncols)


def _unit_rows(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _eliminate(rows: list[list[int]], p: int, limit: int) -> list[int]:
    """Gauss-Jordan elimination of rows in place; returns the pivot columns.

    rows are lists of ints in [0, p).  Only the first limit columns may
    hold pivots; the rest are carried along.  The pivot of a column is
    its first nonzero entry at or below the next pivot row.  A pivot row
    is zero left of its pivot, so each row operation touches only the
    columns from the pivot on, and rows already 0 in the pivot column are
    skipped.
    """
    nrows = len(rows)
    pivots = []
    top = 0
    for col in range(limit):
        if top == nrows:
            break
        for i in range(top, nrows):
            if rows[i][col]:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[top]
        rows[top] = prow
        lead = prow[col]
        if lead != 1:
            inv = modinv(lead, p)
            prow[col:] = [x * inv % p for x in prow[col:]]
        tail = prow[col:]
        for row in rows:
            f = row[col]
            if f and row is not prow:
                row[col:] = [(x - f * y) % p for x, y in zip(row[col:], tail)]
        pivots.append(col)
        top += 1
    return pivots


def rref(a: np.ndarray, p: int,
         pivot_cols: int | None = None) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of a mod p.

    Returns (R, pivots) where pivots[i] is the column of the leading 1 in
    row i.  Rows below the pivot rows are zero.  With pivot_cols = k only
    the first k columns may hold pivots: the rest are carried along as
    right-hand sides, and rows below the pivot rows are zero on the first
    k columns only.
    """
    nrows, ncols = a.shape
    rows = _rows(a, p)
    pivots = _eliminate(rows, p, ncols if pivot_cols is None else pivot_cols)
    return _array(rows, nrows, ncols), tuple(pivots)


def rank(a: np.ndarray, p: int) -> int:
    return len(_eliminate(_rows(a, p), p, a.shape[1]))


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis of {x : a @ x = 0 mod p}, as matrix columns.

    Each free column of the echelon form contributes one basis vector with
    a 1 in that coordinate, so the basis is in "column echelon" shape and
    is unique for a given input.
    """
    ncols = a.shape[1]
    rows = _rows(a, p)
    return _kernel(rows, _eliminate(rows, p, ncols), ncols, p)


def nullspace_coordinates(basis: np.ndarray, v: np.ndarray,
                          p: int) -> np.ndarray | None:
    """Coordinates c with basis @ c = v mod p for a basis nullspace
    returned, or None when v lies outside its span.  No elimination.

    nullspace gives free column f_j of the echelon form the basis vector
    with a 1 in row f_j, 0 in the other free rows and -R[i, f_j] in row
    c_i for each pivot column c_i.  A pivot row of R is 0 left of its
    pivot, so R[i, f_j] = 0 unless c_i < f_j: row f_j holds the last
    nonzero entry of column j, and basis[free] = I for free = (f_0, ...).
    Hence v = basis @ c forces v[free] = basis[free] @ c = c: v lies in
    the span exactly when basis @ v[free] = v, and v[free] is then its one
    coordinate vector.

    v may be a vector or a matrix; a matrix is None unless every column
    lies in the span.  Raises ValueError when basis[free] is not the
    identity, that is when basis is not in the shape nullspace returns.
    """
    n, k = basis.shape
    if v.shape[0] != n:
        raise ValueError("shape mismatch: %s vs %s" % (basis.shape, v.shape))
    v = np.asarray(v, dtype=np.int64) % p
    if not k:
        return None if v.any() else v[:0]
    free = n - 1 - (basis[::-1] != 0).argmax(0)
    if (basis[free] != identity(k)).any():
        raise ValueError("basis is not in nullspace shape")
    coords = v[free]
    if ((basis @ coords - v) % p).any():
        return None
    return coords


def _kernel(rows: list[list[int]], pivots: list[int], ncols: int,
            p: int) -> np.ndarray:
    """The nullspace basis read off rows eliminated on their first ncols."""
    taken = set(pivots)
    free = [j for j in range(ncols) if j not in taken]
    basis = [None] * ncols
    for row, c in zip(rows, pivots):
        basis[c] = [-row[j] % p for j in free]
    for j, unit in zip(free, _unit_rows(len(free))):
        basis[j] = unit
    return _array(basis, ncols, len(free))


def solve_span(a: np.ndarray, b: np.ndarray,
               p: int) -> tuple[np.ndarray, np.ndarray]:
    """(W, X): a @ x = b @ c mod p is consistent exactly when W @ c = 0,
    and X @ c is then its canonical solution (module docstring)."""
    if a.shape[0] != b.shape[0]:
        raise ValueError("shape mismatch: %s vs %s" % (a.shape, b.shape))
    ncols, width = a.shape[1], b.shape[1]
    rows = [ra + rb for ra, rb in zip(_rows(a, p), _rows(b, p))]
    pivots = _eliminate(rows, p, ncols)
    residual = _array([row[ncols:] for row in rows[len(pivots):]],
                      len(rows) - len(pivots), width)
    return residual, _solution(rows, pivots, ncols, width)


def solve_each(a: np.ndarray, b: np.ndarray,
               p: int) -> tuple[np.ndarray, np.ndarray]:
    """(ok, X): ok[k] whether a @ x = b[:, k] mod p is consistent, and
    X[:, k] then its canonical solution."""
    residual, x = solve_span(a, b, p)
    return ~residual.any(axis=0), x


def _solution(rows: list[list[int]], pivots: list[int], ncols: int,
              width: int) -> np.ndarray:
    """The canonical X of a @ X = b off the rref of [a | b]: free rows 0."""
    x = [[0] * width for _ in range(ncols)]
    for row, c in zip(rows, pivots):
        x[c] = row[ncols:]
    return _array(x, ncols, width)


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


def column_space(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis of the column span: the pivot columns of a."""
    reduced = np.asarray(a, dtype=np.int64) % p
    return reduced[:, _eliminate(reduced.tolist(), p, reduced.shape[1])]


def columns_outside_span(span: np.ndarray, cols: np.ndarray, p: int) -> list[int]:
    """Indices j of the columns of cols outside the span of span and cols[:, :j].

    They are the pivots of the cols block in rref([span | cols]), which
    depend on the column span of span only.
    """
    width = span.shape[1]
    _, pivots = rref(np.hstack([span, cols]), p)
    return [c - width for c in pivots if c >= width]


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
    return complete_basis(cols, p)[0]


def complete_basis(cols: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(D, E): D = extend_to_basis(cols, p) and E = [cols | D]^-1, for
    independent columns: complete_span's D and E, whose B is then cols."""
    basis, d, e = complete_span(cols, p)
    if basis.shape[1] != cols.shape[1]:
        raise ValueError("columns are not independent")
    return d, e


def complete_span(cols: np.ndarray,
                  p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, D, E): B = column_space(cols, p), D = extend_to_basis(B, p) and
    E = [B | D]^-1, all from the one rref of [cols | I].

    A pivot column of [cols | I] is a column outside the span of the
    columns before it.  In the cols block these are the pivots of cols
    alone, the columns column_space takes.  In the I block, e_j is one
    when it lies outside the span of cols, which is the span of B, and
    of the e_i before it: the greedy choice of extend_to_basis(B).  The
    right block E is the product of the row operations, so E @ [cols | I]
    is the rref.  The I block has rank n, so there are n pivots; the
    pivot columns are, in order, the columns of [B | D], and the rref
    turns them into the unit vectors: E @ [B | D] = I.
    """
    reduced = np.asarray(cols, dtype=np.int64) % p
    n, k = reduced.shape
    if not k:
        return reduced, identity(n), identity(n)
    rows = [row + unit for row, unit in zip(reduced.tolist(), _unit_rows(n))]
    pivots = _eliminate(rows, p, n + k)
    width = next((m for m, c in enumerate(pivots) if c >= k), len(pivots))
    d = [[0] * (n - width) for _ in range(n)]
    for m, c in enumerate(pivots[width:]):
        d[c - k][m] = 1
    return (reduced[:, pivots[:width]], _array(d, n, n - width),
            _array([row[k:] for row in rows], n, n))
