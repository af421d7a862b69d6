"""Exact integer matrix algebra on plain Python ints.

Matrices are lists of row lists.  Everything here is arbitrary precision:
no floats, no modular shortcuts.  The centrepiece is the Smith normal form
with minimal-pivot selection; the transforms it returns are checked for
unimodularity before they leave this module, so downstream lattice code
can trust U*A*V == D unconditionally.  The integer backend takes one
Smith form of each presentation matrix and reads everything else off it.
"""

from .errors import InputError, InternalInvariantViolation

IntMatrix = list


def shape(a):
    rows = len(a)
    cols = len(a[0]) if rows else 0
    for row in a:
        if len(row) != cols:
            raise InputError("ragged integer matrix")
    return rows, cols


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def copy(a):
    return [list(map(int, row)) for row in a]


def matmul(a, b):
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise InputError("matmul shape mismatch: %dx%d by %dx%d" % (ra, ca, rb, cb))
    out = zeros(ra, cb)
    for i in range(ra):
        arow = a[i]
        orow = out[i]
        for k in range(ca):
            aik = arow[k]
            if aik:
                brow = b[k]
                for j in range(cb):
                    orow[j] += aik * brow[j]
    return out


def det(a):
    """Exact determinant via fraction-free Bareiss elimination."""
    n, m = shape(a)
    if n != m:
        raise InputError("determinant of non-square matrix")
    if n == 0:
        return 1
    w = copy(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if w[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if w[i][k]), None)
            if pivot is None:
                return 0
            w[k], w[pivot] = w[pivot], w[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                w[i][j] = (w[i][j] * w[k][k] - w[i][k] * w[k][j]) // prev
            w[i][k] = 0
        prev = w[k][k]
    return sign * w[n - 1][n - 1]


def _min_pivot(a, t, rows, cols):
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = a[i][j]
            if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_normal_form(a):
    """Return (u, d, v) with u*a*v == d diagonal.

    Diagonal entries are nonnegative and satisfy d[i] | d[i+1]; u and v are
    unimodular.  Every call re-multiplies, takes determinants and checks
    the divisibility chain, raising InternalInvariantViolation on any
    discrepancy.
    """
    rows, cols = shape(a)
    work = copy(a)
    u = identity(rows)
    v = identity(cols)
    t = 0
    while True:
        pivot = _min_pivot(work, t, rows, cols)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            work[pi], work[t] = work[t], work[pi]
            u[pi], u[t] = u[t], u[pi]
        if pj != t:
            for row in work:
                row[pj], row[t] = row[t], row[pj]
            for row in v:
                row[pj], row[t] = row[t], row[pj]
        while True:
            restart = False
            for i in range(t + 1, rows):
                if work[i][t]:
                    q = work[i][t] // work[t][t]
                    for j in range(cols):
                        work[i][j] -= q * work[t][j]
                    for j in range(rows):
                        u[i][j] -= q * u[t][j]
                    if work[i][t]:
                        # remainder is strictly smaller: promote it
                        work[i], work[t] = work[t], work[i]
                        u[i], u[t] = u[t], u[i]
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, cols):
                if work[t][j]:
                    q = work[t][j] // work[t][t]
                    for row in work:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                    if work[t][j]:
                        for row in work:
                            row[j], row[t] = row[t], row[j]
                        for row in v:
                            row[j], row[t] = row[t], row[j]
                        restart = True
                        break
            if restart:
                continue
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if work[i][j] % work[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # fold the offending row in so the pivot absorbs its gcd
            for j in range(cols):
                work[t][j] += work[offender][j]
            for j in range(rows):
                u[t][j] += u[offender][j]
        t += 1
    for i in range(min(rows, cols)):
        if work[i][i] < 0:
            for j in range(cols):
                work[i][j] = -work[i][j]
            for j in range(rows):
                u[i][j] = -u[i][j]
    if matmul(matmul(u, copy(a)), v) != work:
        raise InternalInvariantViolation("smith transform does not reproduce input")
    if abs(det(u)) != 1 or abs(det(v)) != 1:
        raise InternalInvariantViolation("smith transform is not unimodular")
    diag = [work[i][i] for i in range(min(rows, cols))]
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            raise InternalInvariantViolation("zero before nonzero on smith diagonal")
        if x and y % x:
            raise InternalInvariantViolation("smith diagonal violates divisibility")
    return u, work, v


def diagonal_of(d):
    rows, cols = shape(d)
    return [d[i][i] for i in range(min(rows, cols))]

