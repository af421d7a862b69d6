"""Lattice algebra over Z, kept as the test oracle for the integer backend.

These routines solve integer systems, take kernels and quotients of
lattices, and resolve Z/m-modules by periodic syzygy lattices.  The
backend reads every answer off the one cached Smith form of a module's
presentation instead; tests compare it with these slower, independent
constructions, which start from a triangular basis of the relation
lattice (column_lattice_basis).  Each routine reads its Smith forms
from srelhom.intmat, the one place they are computed and checked.
"""

from srelhom.errors import InputError, InternalInvariantViolation
from srelhom.intmat import (
    copy,
    diagonal_of,
    identity,
    matmul,
    shape,
    smith_normal_form,
    zeros,
)
from srelhom.zmodules import ZMod, _ring_of, z_module_from_factors


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


def relation_lattice(mod: ZMod):
    """Triangular basis of the full integer relation lattice of mod (ring
    relations included over Z/m)."""
    rows = [list(row) for row in mod.rows]
    if mod.ring == "Z_mod":
        rows = [row + [mod.m if i == j else 0 for j in range(len(rows))]
                for i, row in enumerate(rows)]
    return column_lattice_basis(rows)


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


def lattice_z_ext(source: ZMod, target: ZMod, degree: int) -> ZMod:
    """Ext^degree(source, target) as a module over the common ring.

    Over Z this uses the length-one free resolution by the relation
    lattice; over Z/m the periodic resolution of lifted kernels, with
    cocycles and coboundaries handled as integer lattices.
    """
    ring, m = _ring_of(source, target)
    if degree < 0:
        raise InputError("negative Ext degree")
    if source.is_zero() or target.is_zero():
        return z_module_from_factors(ring, m, 0, ())
    h = target.generators
    g = source.generators
    if ring == "Z":
        if degree >= 2:
            return z_module_from_factors(ring, m, 0, ())
        p_lat = relation_lattice(source)
        r_lat = relation_lattice(target)
        k = shape(p_lat)[1]
        t = shape(r_lat)[1]
        if degree == 0:
            inside = kron(identity(g), r_lat) if t else zeros(h * g, 0)
            if k == 0:
                # free source: Hom is all of Z^(h*g) modulo the target relations
                free, tors = cokernel_invariants(inside)
            else:
                hom_basis = solution_lattice(
                    kron(transpose(p_lat), identity(h)),
                    kron(identity(k), r_lat) if t else zeros(h * k, 0))
                free, tors = quotient_invariants(hom_basis, inside)
            return z_module_from_factors(ring, m, free, tors)
        if k == 0:
            return z_module_from_factors(ring, m, 0, ())
        gens = kron(transpose(p_lat), identity(h))
        if t:
            gens = hstack(gens, kron(identity(k), r_lat))
        free, tors = cokernel_invariants(gens)
        return z_module_from_factors(ring, m, free, tors)
    lats = [relation_lattice(source)]
    for _ in range(degree):
        lats.append(solution_lattice(
            lats[-1], [[m if i == j else 0 for j in range(g)] for i in range(g)]))
    rn = relation_lattice(target)
    lam = kron(identity(g), rn)
    ker_basis = solution_lattice(
        kron(transpose(lats[degree]), identity(h)), lam)
    if degree == 0:
        img = lam
    else:
        img = hstack(
            kron(transpose(lats[degree - 1]), identity(h)), lam)
    free, tors = quotient_invariants(ker_basis, img)
    if free:
        raise InternalInvariantViolation("infinite Ext over a finite ring")
    return z_module_from_factors(ring, m, 0, tors)
