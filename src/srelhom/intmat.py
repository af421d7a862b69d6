"""Exact integer matrix algebra on plain Python ints.

Matrices are lists of row lists.  Everything here is arbitrary precision:
no floats, no modular shortcuts.  The centrepiece is the Smith normal form
with minimal-pivot selection; the transforms it returns are checked for
unimodularity before they leave this module, so downstream lattice code
can trust U*A*V == D unconditionally.

Solutions are read off a Smith form in one place, solve_each(a, b) ->
(ok, X): one smith_normal_form(a) decides every column of b, ok[k] says
whether a@x == b[:, k] has an integer solution, and then X[:, k] is the
solution for that column alone.  solve is its all-or-nothing wrapper.

Module structure is read off a Smith form too.  cokernel_invariants(a)
gives the free rank and invariant factors of Z^rows / col(a) from one
smith_normal_form(a); quotient_invariants(basis, gens) handles a
sublattice quotient by first solving gens in the basis.
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

def transpose(a):
    rows, cols = shape(a)
    return [[a[i][j] for i in range(rows)] for j in range(cols)]


def hstack(a, b):
    ra, _ = shape(a)
    rb, _ = shape(b)
    if ra != rb and a and b:
        raise InputError("hstack row mismatch")
    if not a:
        return copy(b)
    if not b:
        return copy(a)
    return [list(a[i]) + list(b[i]) for i in range(ra)]


def kron(a, b):
    ra, ca = shape(a)
    rb, cb = shape(b)
    out = zeros(ra * rb, ca * cb)
    for i in range(ra):
        for j in range(ca):
            v = a[i][j]
            if v:
                for k in range(rb):
                    for l in range(cb):
                        out[i * rb + k][j * cb + l] = v * b[k][l]
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


def solve_each(a, b):
    """Solve a@x == b[:, k] over Z for every column k by one Smith form.

    Returns (ok, x): ok[k] says whether column k has an integer solution,
    and then x[:, k] is the solution solve would give that column alone
    (free coordinates in the Smith basis set to 0).  Columns of x where
    ok is False carry no meaning.
    """
    rows, cols = shape(a)
    rb, cb = shape(b)
    if rb != rows:
        raise InputError("solve shape mismatch")
    u, d, v = smith_normal_form(a)
    w = matmul(u, b)
    diag = diagonal_of(d)
    ok = [True] * cb
    y = zeros(cols, cb)
    for i in range(rows):
        di = diag[i] if i < len(diag) else 0
        wi = w[i]
        for j in range(cb):
            if di:
                if wi[j] % di:
                    ok[j] = False
                else:
                    y[i][j] = wi[j] // di
            elif wi[j]:
                ok[j] = False
    return ok, matmul(v, y)


def solve(a, b):
    """One integer solution x of a@x == b (column-stacked), or None."""
    ok, x = solve_each(a, b)
    return x if all(ok) else None


def kernel_basis(a):
    """Columns spanning {x : a@x == 0}; a saturated basis, possibly empty."""
    rows, cols = shape(a)
    _, d, v = smith_normal_form(a)
    diag = diagonal_of(d)
    keep = [j for j in range(cols) if j >= len(diag) or diag[j] == 0]
    return [[v[i][j] for j in keep] for i in range(cols)]


def column_lattice_basis(a):
    """Triangular basis of the lattice spanned by the columns of a."""
    rows, cols = shape(a)
    work = [[a[i][j] for i in range(rows)] for j in range(cols)]  # columns as rows
    basis_start = 0
    for r in range(rows):
        while True:
            live = [j for j in range(basis_start, len(work)) if work[j][r]]
            if not live:
                break
            if len(live) == 1:
                j = live[0]
                if work[j][r] < 0:
                    work[j] = [-x for x in work[j]]
                work[basis_start], work[j] = work[j], work[basis_start]
                basis_start += 1
                break
            live.sort(key=lambda j: abs(work[j][r]))
            small, big = live[0], live[1]
            q = work[big][r] // work[small][r]
            for i in range(rows):
                work[big][i] -= q * work[small][i]
    kept = work[:basis_start]
    return [[kept[j][i] for j in range(len(kept))] for i in range(rows)]


def solution_lattice(a, gens):
    """Basis of {x : a@x lies in the column lattice of gens}."""
    rows, cols = shape(a)
    stacked = hstack(a, gens) if gens and gens[0] else copy(a)
    ker = kernel_basis(stacked)
    _, kcols = shape(ker)
    projected = [[ker[i][j] for j in range(kcols)] for i in range(cols)]
    return column_lattice_basis(projected)


def cokernel_invariants(a):
    """Invariant factors of Z^rows / (column lattice of a), one Smith form.

    Returns (free_rank, factors) with factors > 1 in divisibility order.
    """
    rows, _ = shape(a)
    _, d, _ = smith_normal_form(a)
    diag = [x for x in diagonal_of(d) if x]
    return rows - len(diag), tuple(x for x in diag if x > 1)


def quotient_invariants(basis, gens):
    """Invariant factors of lattice(basis)/lattice(gens).

    gens must lie inside the basis lattice.  Returns (free_rank, factors)
    with factors > 1 in divisibility order.
    """
    rows, bcols = shape(basis)
    if bcols == 0:
        if gens and gens[0]:
            raise InputError("generators outside the trivial lattice")
        return 0, ()
    if not gens or not gens[0]:
        return bcols, ()
    y = solve(basis, gens)
    if y is None:
        raise InputError("generators outside the ambient lattice")
    return cokernel_invariants(y)
