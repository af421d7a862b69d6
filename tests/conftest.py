import numpy as np
import pytest

from srelhom import gfmat
from srelhom.dimensions import SplitWitness, _projective_at, _split_search
from srelhom.rings import (
    build_algebra,
    direct_product,
    mult_closure,
    prime_field,
    truncated_polynomial,
)
from srelhom.modules import (
    free_map_from_generator_images,
    free_module,
    regular_module,
    subquotient,
)
from srelhom.zmodules import z_module


def mat(rows, p):
    """An int64 matrix reduced mod p from nested lists or an array."""
    a = np.array(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return np.mod(a, p)


def inverse(a, p):
    """Inverse of a square matrix mod p, read off one rref of [a | I];
    ValueError when a is not square or is singular mod p."""
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("inverse of non-square matrix")
    rows = [row + unit for row, unit in zip(gfmat._rows(a, p), gfmat._unit_rows(n))]
    if gfmat._eliminate(rows, p, n) != list(range(n)):
        raise ValueError("matrix is singular mod %d" % p)
    return gfmat._array([row[n:] for row in rows], n, n)


def kernel_and_right_inverse(a, p):
    """(nullspace(a, p), solve(a, I, p)) from one rref of [a | I], the
    kernel and right inverse the split system once took: the right
    inverse is None unless every row of a holds a pivot."""
    nrows, ncols = a.shape
    rows = [row + unit for row, unit in zip(gfmat._rows(a, p), gfmat._unit_rows(nrows))]
    pivots = gfmat._eliminate(rows, p, ncols)
    kernel = gfmat._kernel(rows, pivots, ncols, p)
    if len(pivots) < nrows:
        return kernel, None
    return kernel, gfmat._solution(rows, pivots, ncols, nrows)


def product_ring():
    """F_2 x F_2[t]/(t^2) on basis e1, e2, f with f = (0, t)."""
    return direct_product(prime_field(2), truncated_polynomial(2, 2),
                          labels=["e1", "e2", "f"])


def square_zero_ring():
    """F_2[x, y]/(x, y)^2: local and not self-injective, so DR is not R."""
    table = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        table[0, i, i] = table[i, 0, i] = 1
    return build_algebra(2, ["1", "x", "y"], table, [1, 0, 0])


def socle_and_top_differ(mod):
    """Whether a module over square_zero_ring() has socle and top of
    different dimensions.  DN has the top of N as its socle, so such a
    module is not isomorphic to its character dual."""
    rad = mod.actions[1:]
    socle = gfmat.nullspace(np.vstack(rad), 2).shape[1]
    top = mod.vdim - gfmat.rank(np.hstack(rad), 2)
    return socle != top


def degenerate_multset(ring):
    """The closure of a nonzero nilpotent, or of 0 where there is none."""
    rad = ring.radical_basis()
    seed = rad[:, 0] if rad.shape[1] else np.zeros(ring.dim, dtype=np.int64)
    s_set = mult_closure(ring, [seed])
    assert s_set.degenerate and s_set.elements[0].is_zero()
    return s_set


def decide(cover, s_set):
    """The section question on a free cover C: F ->> X, decided as
    is_s_projective decides it on X: the block counts on X first, unless
    X = 0 or 0 is in S, and _split_search, which builds the promised
    section, only when they answer 0.  A failure is the counts' witness,
    with no cover."""
    s = s_set.idempotent
    if cover.target.vdim and not s_set.degenerate:
        counts = _projective_at(cover.target, s)
        if counts is not None:
            return SplitWitness("section", None, None, None, (s,), counts)
    return _split_search(cover, s_set)


def quotient_module(ring, relation_vectors):
    """R / (the submodule generated by the given ring elements)."""
    if not relation_vectors:
        return regular_module(ring)
    free = free_module(ring, len(relation_vectors))
    images = np.array(relation_vectors, dtype=np.int64).T
    rel = free_map_from_generator_images(free, regular_module(ring), images)
    mod, _ = subquotient(rel, "cokernel")
    return mod


def scrambled_z_module(rng, ring="Z", m=None):
    """Z^free + sum Z/d under a few unimodular row and column operations,
    which keep the module up to isomorphism.  Over Z/m each d divides m
    (d = m is a free summand); over Z, d runs over 2..12."""
    top = m or 12
    orders = [rng.choice([d for d in range(2, top + 1) if m is None or m % d == 0])
              for _ in range(rng.randint(0, 2))]
    free = rng.randint(0 if orders else 1, 1)
    gens, rels = free + len(orders), len(orders)
    rows = [[0] * rels for _ in range(gens)]
    for j, d in enumerate(orders):
        rows[free + j][j] = d
    for _ in range(3):
        if gens > 1:
            i, k = rng.sample(range(gens), 2)
            c = rng.choice((-1, 1))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[k])]
        if rels > 1:
            i, k = rng.sample(range(rels), 2)
            c = rng.choice((-1, 1))
            for row in rows:
                row[i] += c * row[k]
    return z_module(ring, rows, m=m)


@pytest.fixture
def ring2():
    return product_ring()


@pytest.fixture
def s_e1(ring2):
    return mult_closure(ring2, [ring2.element([1, 0, 0])])


@pytest.fixture
def s_one(ring2):
    return mult_closure(ring2, [])


@pytest.fixture
def m2(ring2):
    # R/(e1, f): only e2 survives, e1 and f act as zero
    return quotient_module(ring2, [[1, 0, 0], [0, 0, 1]])


@pytest.fixture
def t2():
    return truncated_polynomial(2, 2)
