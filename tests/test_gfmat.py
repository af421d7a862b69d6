"""Exact linear algebra over prime fields: reduction, kernels, solving."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from conftest import inverse, kernel_and_right_inverse, mat

from srelhom import gfmat

PRIMES = [2, 3, 5]


def random_matrix(rng, rows, cols, p):
    flat = [rng.randrange(p) for _ in range(rows * cols)]
    return np.array(flat, dtype=np.int64).reshape(rows, cols)


@pytest.mark.parametrize("p", PRIMES)
def test_rref_shape_and_idempotence(p):
    rng = random.Random(100 + p)
    for _ in range(25):
        a = random_matrix(rng, rng.randrange(6), rng.randrange(6), p)
        r, pivots = gfmat.rref(a, p)
        assert r.shape == a.shape
        r2, pivots2 = gfmat.rref(r, p)
        assert np.array_equal(r, r2)
        assert pivots == pivots2
        for k, j in enumerate(pivots):
            col = r[:, j]
            assert col[k] == 1
            assert not np.any(np.delete(col, k))


@pytest.mark.parametrize("p", PRIMES)
def test_rank_nullspace_dimension_count(p):
    rng = random.Random(200 + p)
    for _ in range(25):
        a = random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7), p)
        ns = gfmat.nullspace(a, p)
        assert gfmat.rank(a, p) + ns.shape[1] == a.shape[1]
        assert not ((a @ ns) % p).any()
        # basis columns are independent
        assert gfmat.rank(ns, p) == ns.shape[1]


@pytest.mark.parametrize("p", PRIMES)
def test_solve_round_trip(p):
    rng = random.Random(300 + p)
    for _ in range(30):
        a = random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6), p)
        x = np.array([rng.randrange(p) for _ in range(a.shape[1])],
                     dtype=np.int64)
        b = (a @ x) % p
        got = gfmat.solve(a, b, p)
        assert got is not None
        assert np.array_equal((a @ got) % p, b)


def test_solve_detects_inconsistency():
    a = np.array([[1, 0], [0, 0]], dtype=np.int64)
    b = np.array([0, 1], dtype=np.int64)
    assert gfmat.solve(a, b, 2) is None


def test_solve_matrix_rhs():
    a = np.array([[1, 1], [0, 1]], dtype=np.int64)
    b = np.array([[1, 0], [1, 1]], dtype=np.int64)
    x = gfmat.solve(a, b, 2)
    assert np.array_equal((a @ x) % 2, b)


@pytest.mark.parametrize("p", PRIMES)
def test_inverse(p):
    rng = random.Random(400 + p)
    found = 0
    while found < 10:
        n = rng.randrange(1, 5)
        a = random_matrix(rng, n, n, p)
        if gfmat.rank(a, p) < n:
            continue
        inv = inverse(a, p)
        assert np.array_equal((a @ inv) % p, gfmat.identity(n))
        assert np.array_equal((inv @ a) % p, gfmat.identity(n))
        found += 1


@pytest.mark.parametrize("p", PRIMES)
def test_column_space_and_membership(p):
    rng = random.Random(500 + p)
    for _ in range(20):
        a = random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6), p)
        basis = gfmat.column_space(a, p)
        assert gfmat.rank(basis, p) == basis.shape[1] == gfmat.rank(a, p)
        for j in range(a.shape[1]):
            assert gfmat.in_column_span(basis, a[:, j], p)


@pytest.mark.parametrize("p", PRIMES)
def test_extend_to_basis(p):
    rng = random.Random(600 + p)
    for _ in range(20):
        n = rng.randrange(1, 6)
        a = random_matrix(rng, n, rng.randrange(n + 1), p)
        cols = gfmat.column_space(a, p)
        comp = gfmat.extend_to_basis(cols, p)
        full = np.hstack([cols, comp])
        assert full.shape == (n, n)
        assert gfmat.rank(full, p) == n


def test_zero_dimensions_are_legal():
    empty = gfmat.zeros(0, 3)
    assert gfmat.rank(empty, 2) == 0
    assert gfmat.nullspace(empty, 2).shape == (3, 3)
    tall = gfmat.zeros(3, 0)
    assert gfmat.nullspace(tall, 2).shape == (0, 0)
    assert gfmat.solve(tall, np.zeros(3, dtype=np.int64), 2).shape == (0,)


def test_modinv():
    for p in PRIMES:
        for a in range(1, p):
            assert (a * gfmat.modinv(a, p)) % p == 1


@pytest.mark.parametrize("p", PRIMES)
def test_rref_pivot_limit_keeps_right_hand_sides_out(p):
    rng = random.Random(700 + p)
    for _ in range(25):
        rows, k = rng.randrange(6), rng.randrange(6)
        a = random_matrix(rng, rows, k, p)
        b = random_matrix(rng, rows, rng.randrange(4), p)
        r, pivots = gfmat.rref(np.hstack([a, b]), p, pivot_cols=k)
        plain, plain_pivots = gfmat.rref(a, p)
        # the left block is eliminated exactly as on its own
        assert pivots == plain_pivots
        assert np.array_equal(r[:, :k], plain)
        # a column of b is consistent exactly when it vanishes below the pivots
        for j in range(b.shape[1]):
            consistent = not r[len(pivots):, k + j].any()
            assert consistent == (gfmat.solve(a, b[:, j], p) is not None)


@pytest.mark.parametrize("p", PRIMES)
def test_solve_each_matches_solving_one_column_at_a_time(p):
    rng = random.Random(800 + p)
    # (unknowns, right-hand sides): a with no columns, b with none, neither
    edge = [(0, 3), (4, 0), (0, 0)]
    for trial in range(60):
        rows = rng.randrange(6)
        k, width = (edge[trial] if trial < len(edge)
                    else (rng.randrange(5), rng.randrange(1, 5)))
        a = random_matrix(rng, rows, k, p)
        b = random_matrix(rng, rows, width, p)
        if width and rng.random() < 0.5:
            # plant a consistent column somewhere
            b[:, rng.randrange(width)] = (a @ random_matrix(rng, k, 1, p))[:, 0] % p
        ok, x = gfmat.solve_each(a, b, p)
        assert ok.shape == (width,) and x.shape == (k, width)
        _, pivots = gfmat.rref(a, p)
        free = [j for j in range(k) if j not in pivots]
        for j in range(width):
            # consistent exactly when b[:, j] does not raise the rank
            raises = gfmat.rank(np.hstack([a, b[:, j:j + 1]]), p) > len(pivots)
            assert bool(ok[j]) == (not raises)
            sol = gfmat.solve(a, b[:, j], p)
            assert (sol is not None) == bool(ok[j])
            if ok[j]:
                assert np.array_equal(x[:, j], sol)
                assert np.array_equal((a @ x[:, j]) % p, b[:, j])
                assert not x[free, j].any()


@pytest.mark.parametrize("p", PRIMES)
def test_solve_span_decides_every_combination_of_the_columns(p):
    """a @ x = b @ c is consistent exactly when W @ c = 0, and X @ c is
    then the canonical solution that solve gives for b @ c alone."""
    rng = random.Random(850 + p)
    for trial in range(40):
        rows, k, width = rng.randrange(6), rng.randrange(5), rng.randrange(4)
        a = random_matrix(rng, rows, k, p)
        b = random_matrix(rng, rows, width, p)
        if width and rng.random() < 0.5:
            b[:, 0] = (a @ random_matrix(rng, k, 1, p))[:, 0] % p
        w, x = gfmat.solve_span(a, b, p)
        assert w.shape == (rows - gfmat.rank(a, p), width) and x.shape == (k, width)
        for c in itertools.product(range(p), repeat=width):
            c = np.array(c, dtype=np.int64)
            sol = gfmat.solve(a, (b @ c) % p, p)
            assert (sol is not None) == (not ((w @ c) % p).any())
            if sol is not None:
                assert np.array_equal((x @ c) % p, sol)


def test_solve_each_rejects_mismatched_rows():
    with pytest.raises(ValueError):
        gfmat.solve_each(gfmat.zeros(2, 2), gfmat.zeros(3, 1), 2)


def greedy_extension(cols, p):
    """The greedy definition: take e_j whenever it raises the rank."""
    n = cols.shape[0]
    current, extra = cols, []
    for j in range(n):
        e = gfmat.zeros(n, 1)
        e[j, 0] = 1
        cand = np.hstack([current, e])
        if gfmat.rank(cand, p) == current.shape[1] + 1:
            current = cand
            extra.append(e)
    return np.hstack(extra) if extra else gfmat.zeros(n, 0)


@pytest.mark.parametrize("p", [2, 3])
def test_extend_to_basis_matches_greedy_definition(p):
    rng = random.Random(900 + p)
    for _ in range(40):
        n = rng.randrange(7)
        a = random_matrix(rng, n, rng.randrange(n + 2), p)
        cols = gfmat.column_space(a, p)
        assert np.array_equal(gfmat.extend_to_basis(cols, p), greedy_extension(cols, p))


@pytest.mark.parametrize("p", [2, 3])
def test_columns_outside_span_matches_greedy_definition(p):
    rng = random.Random(950 + p)
    for _ in range(40):
        n = rng.randrange(7)
        span = random_matrix(rng, n, rng.randrange(4), p)
        cols = random_matrix(rng, n, rng.randrange(6), p)
        # column j is taken when it raises the rank of span and cols[:, :j]
        want = [j for j in range(cols.shape[1])
                if gfmat.rank(np.hstack([span, cols[:, :j + 1]]), p)
                > gfmat.rank(np.hstack([span, cols[:, :j]]), p)]
        assert gfmat.columns_outside_span(span, cols, p) == want


@pytest.mark.parametrize("p", [2, 3])
def test_extend_to_basis_rejects_dependent_columns(p):
    v = np.array([[1], [2], [0]], dtype=np.int64) % p
    with pytest.raises(ValueError):
        gfmat.extend_to_basis(np.hstack([v, (2 * v) % p]), p)
    with pytest.raises(ValueError):
        gfmat.extend_to_basis(gfmat.zeros(3, 1), p)


# -- the numpy elimination as a test-local oracle ----------------------------


def oracle_rref(a, p, pivot_cols=None):
    """The vectorised per-pivot elimination gfmat used before its list kernel."""
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
        r[row] = (r[row] * gfmat.modinv(int(r[row, col]), p)) % p
        others = np.nonzero(r[:, col])[0]
        others = others[others != row]
        if others.size:
            r[others] = (r[others] - np.outer(r[others, col], r[row])) % p
        pivots.append(col)
        row += 1
    return r, tuple(pivots)


def oracle_nullspace(a, p):
    r, pivots = oracle_rref(a, p)
    ncols = a.shape[1]
    free = [j for j in range(ncols) if j not in pivots]
    basis = gfmat.zeros(ncols, len(free))
    for k, j in enumerate(free):
        basis[j, k] = 1
        for i, c in enumerate(pivots):
            basis[c, k] = (-r[i, j]) % p
    return basis


def oracle_solve_each(a, b, p):
    ncols = a.shape[1]
    r, pivots = oracle_rref(np.hstack([a, b]), p, pivot_cols=ncols)
    ok = ~r[len(pivots):, ncols:].any(axis=0)
    x = gfmat.zeros(ncols, b.shape[1])
    x[list(pivots)] = r[:len(pivots), ncols:]
    return ok, x


def oracle_inverse(a, p):
    n = a.shape[0]
    ok, x = oracle_solve_each(a, gfmat.identity(n), p)
    if not ok.all() or len(oracle_rref(a, p)[1]) != n:
        return None
    return x


def oracle_extend_to_basis(cols, p):
    n, k = cols.shape
    _, pivots = oracle_rref(np.hstack([cols, gfmat.identity(n)]), p)
    if pivots[:k] != tuple(range(k)):
        return None
    return gfmat.identity(n)[:, [c - k for c in pivots[k:]]]


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def oracle_matrices(rng, p):
    """Seeded matrices of every shape up to 9 x 9: dense, sparse, with
    repeated rows, all unreduced, some negative."""
    for rows in range(10):
        for cols in range(10):
            for density in (1.0, 0.25):
                flat = [rng.randrange(-2 * p, 3 * p) if rng.random() < density
                        else 0 for _ in range(rows * cols)]
                a = np.array(flat, dtype=np.int64).reshape(rows, cols)
                if rows > 1 and rng.random() < 0.5:
                    a[rng.randrange(rows)] = 2 * a[rng.randrange(rows)] - p
                yield a


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_rref_matches_the_numpy_oracle(p):
    rng = random.Random(1000 + p)
    for a in oracle_matrices(rng, p):
        before = a.copy()
        for pivot_cols in [None] + list(range(a.shape[1] + 1)):
            r, pivots = gfmat.rref(a, p, pivot_cols=pivot_cols)
            want_r, want_pivots = oracle_rref(a, p, pivot_cols=pivot_cols)
            assert_same_array(r, want_r)
            assert pivots == want_pivots
        assert_same_array(a, before)


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_routines_match_their_definitions_over_the_oracle(p):
    rng = random.Random(1100 + p)
    for a in oracle_matrices(rng, p):
        before = a.copy()
        rows, cols = a.shape
        reduced = a % p
        pivots = oracle_rref(a, p)[1]
        assert gfmat.rank(a, p) == len(pivots)
        assert_same_array(gfmat.nullspace(a, p), oracle_nullspace(a, p))
        assert_same_array(gfmat.column_space(a, p), reduced[:, list(pivots)])
        b = np.array([rng.randrange(-p, 2 * p) for _ in range(rows * 3)],
                     dtype=np.int64).reshape(rows, 3)
        if cols:
            b[:, 0] = a @ np.array([rng.randrange(p) for _ in range(cols)])
        b_before = b.copy()
        ok, x = gfmat.solve_each(a, b, p)
        want_ok, want_x = oracle_solve_each(a, b, p)
        assert_same_array(ok, want_ok)
        assert_same_array(x, want_x)
        assert_same_array(b, b_before)
        if rows == cols:
            want = oracle_inverse(a, p)
            if want is None:
                with pytest.raises(ValueError):
                    inverse(a, p)
            else:
                assert_same_array(inverse(a, p), want)
        for basis in (reduced, gfmat.column_space(a, p)):
            basis_before = basis.copy()
            want = oracle_extend_to_basis(basis, p)
            if want is None:
                with pytest.raises(ValueError):
                    gfmat.complete_basis(basis, p)
                continue
            assert_same_array(gfmat.extend_to_basis(basis, p), want)
            d, e = gfmat.complete_basis(basis, p)
            assert_same_array(d, want)
            assert_same_array(e, oracle_inverse(np.hstack([basis, d]), p))
            assert_same_array(basis, basis_before)
        assert_same_array(a, before)


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_kernel_and_right_inverse_equals_nullspace_and_solve(p):
    rng = random.Random(1200 + p)
    right_inverse_found = set()
    for a in oracle_matrices(rng, p):
        before = a.copy()
        rows = a.shape[0]
        kernel, right_inv = kernel_and_right_inverse(a, p)
        assert_same_array(kernel, gfmat.nullspace(a, p))
        want = gfmat.solve(a, gfmat.identity(rows), p)
        if want is None:
            assert right_inv is None
        else:
            assert_same_array(right_inv, want)
            assert_same_array((a @ right_inv) % p, gfmat.identity(rows))
        right_inverse_found.add(right_inv is not None)
        assert_same_array(a, before)
    # the 0-row and 0-column shapes are in the draw, and both outcomes occur
    assert right_inverse_found == {True, False}


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_kernel_and_right_inverse_of_a_rank_deficient_matrix(p):
    # rank 1, so no right inverse; the kernel is still the canonical one
    a = mat([[1, 2, 0], [2, 4, 0]], p)
    kernel, right_inv = kernel_and_right_inverse(a, p)
    assert right_inv is None
    assert_same_array(kernel, gfmat.nullspace(a, p))
    assert kernel.shape == (3, 3 - gfmat.rank(a, p))
    assert not ((a @ kernel) % p).any()
    for shape in [(0, 0), (0, 3), (3, 0)]:
        kernel, right_inv = kernel_and_right_inverse(gfmat.zeros(*shape), p)
        assert_same_array(kernel, gfmat.identity(shape[1]))
        if shape[0]:
            assert right_inv is None
        else:
            assert_same_array(right_inv, gfmat.zeros(shape[1], 0))


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_complete_span_matches_column_space_and_complete_basis(p):
    rng = random.Random(1300 + p)
    kinds = Counter()
    for a in oracle_matrices(rng, p):
        before = a.copy()
        rows, cols = a.shape
        rank = len(oracle_rref(a, p)[1])
        basis, d, e = gfmat.complete_span(a, p)
        want_basis = gfmat.column_space(a, p)
        want_d, want_e = gfmat.complete_basis(want_basis, p)
        assert_same_array(basis, want_basis)
        assert_same_array(d, want_d)
        assert_same_array(e, want_e)
        # and against the numpy oracle, which shares no code with either
        assert_same_array(d, oracle_extend_to_basis(want_basis, p))
        assert_same_array(e, oracle_inverse(np.hstack([basis, d]), p))
        assert_same_array(a, before)
        if not rows * cols:
            kinds["empty"] += 1
        elif rank == 0:
            kinds["zero"] += 1
        elif rank == rows:
            kinds["full rank"] += 1
        kinds["dependent"] += rank < cols
    assert min(kinds[k] for k in ("empty", "zero", "full rank", "dependent")) >= 5, kinds


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_nullspace_coordinates_match_solve(p):
    rng = random.Random(1400 + p)
    tally = Counter()
    for a in oracle_matrices(rng, p):
        basis = gfmat.nullspace(a, p)
        n, k = basis.shape
        inside = (basis @ random_matrix(rng, k, 3, p)) % p
        outside = random_matrix(rng, n, 3, p)
        for v in (inside, outside, inside[:, 0], outside[:, 0], inside + p,
                  outside[:, :0]):
            v_before = v.copy()
            got = gfmat.nullspace_coordinates(basis, v, p)
            want = gfmat.solve(basis, v, p)
            assert (got is None) == (want is None)
            tally["outside" if got is None else "inside"] += 1
            if got is not None:
                assert_same_array(got, want)
            assert_same_array(v, v_before)
    assert tally["outside"] > 100 and tally["inside"] > 100, tally


@pytest.mark.parametrize("p", [3, 5])
def test_nullspace_coordinates_reject_a_basis_of_another_shape(p):
    # the free rows must hold an identity block: scaled or zero columns
    # do not, though their span is the same or smaller
    basis = gfmat.nullspace(mat([[1, 1, 0]], p), p)
    v = basis[:, :1]
    for other in ((2 * basis) % p, np.hstack([basis, gfmat.zeros(3, 1)])):
        with pytest.raises(ValueError, match="nullspace shape"):
            gfmat.nullspace_coordinates(other, v, p)
    with pytest.raises(ValueError, match="shape mismatch"):
        gfmat.nullspace_coordinates(basis, v[:2], p)
