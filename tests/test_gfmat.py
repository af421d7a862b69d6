"""Exact linear algebra over prime fields: reduction, kernels, solving."""

import random

import numpy as np
import pytest

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
        inv = gfmat.inverse(a, p)
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
def test_extend_to_basis_rejects_dependent_columns(p):
    v = np.array([[1], [2], [0]], dtype=np.int64) % p
    with pytest.raises(ValueError):
        gfmat.extend_to_basis(np.hstack([v, (2 * v) % p]), p)
    with pytest.raises(ValueError):
        gfmat.extend_to_basis(gfmat.zeros(3, 1), p)
