"""Algebra construction, ideals, multiplicative sets, wire format."""

import itertools
import json
import random
from collections import Counter

import numpy as np
import pytest

from srelhom import gfmat, rings
from srelhom.errors import (
    BadUnit,
    CharacteristicTooLarge,
    InputError,
    InternalInvariantViolation,
    NonAssociative,
    NonCommutative,
    NotPrime,
    NotPrimeChar,
    RingMismatch,
)
from srelhom.instances import bundled_rings, random_element, random_multset
from srelhom.rings import (
    MAX_ENUMERABLE,
    FiniteAlgebra,
    Ideal,
    MultSet,
    RingElement,
    build_algebra,
    complement_multset,
    direct_product,
    enumerate_ideals,
    maximal_ideals,
    mult_closure,
    prime_field,
    quotient_algebra,
    radical_ideal,
    ring_from_spec,
    ring_to_spec,
    same_ring,
    truncated_polynomial,
)

from conftest import inverse, mat, product_ring, square_zero_ring


def test_prime_field_and_truncated_polynomial():
    k3 = prime_field(3)
    assert k3.dim == 1 and k3.size == 3
    r = truncated_polynomial(2, 3)
    assert r.dim == 3
    t = r.basis_element(1)
    assert (t * t).label() == "t2"
    assert (t * t * t).is_zero()


def test_characteristic_is_capped_at_the_int64_limit():
    # 65521 is the largest prime below 2^16; products of residues and
    # matrix products of them stay exact in int64
    top = prime_field(65521)
    minus_one = top.element([65520])
    assert minus_one * minus_one == top.one
    a = mat([[65520, 65519], [3, 65520]], 65521)
    assert np.array_equal((a @ inverse(a, 65521)) % 65521, gfmat.identity(2))
    # 65537 is the next prime, and the first characteristic refused
    with pytest.raises(CharacteristicTooLarge) as info:
        prime_field(65537)
    assert info.value.p == 65537 and info.value.limit == 65521
    with pytest.raises(InputError):
        truncated_polynomial(65537, 2)


def test_element_order_is_lexicographic(ring2):
    elems = ring2.elements()
    assert len(elems) == 8
    labels = [e.label() for e in elems[:3]]
    assert labels == ["0", "f", "e2"]
    e1 = ring2.element([1, 0, 0])
    one = ring2.one
    assert e1 < one  # (1,0,0) before (1,1,0)


def test_unit_of_product_ring(ring2):
    assert ring2.unit.tolist() == [1, 1, 0]
    assert ring2.one.label() == "e1+e2"


def test_validation_rejects_bad_inputs():
    with pytest.raises(NotPrimeChar):
        prime_field(6)
    # non-commutative table on two basis elements
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[0, 0] = [1, 0]
    table[0, 1] = [0, 1]
    table[1, 0] = [0, 0]  # x*y != y*x
    table[1, 1] = [0, 0]
    with pytest.raises(NonCommutative):
        build_algebra(2, ["u", "x"], table, [1, 0])
    # commutative but not associative: (x*x)*y = 0 while x*(x*y) = y
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[0, 0] = [0, 1]   # x*x = y
    table[0, 1] = [1, 0]   # x*y = x
    table[1, 0] = [1, 0]
    table[1, 1] = [0, 0]
    with pytest.raises(NonAssociative):
        build_algebra(2, ["x", "y"], table, [1, 0])
    # wrong unit
    table = np.zeros((1, 1, 1), dtype=np.int64)
    table[0, 0] = [1]
    with pytest.raises(BadUnit):
        build_algebra(2, ["e"], table, [0])


def loop_table_check(p, labels, table, unit):
    """The table checks as they were: one basis pair, then one basis
    product of left multiplication matrices, at a time."""
    d = len(labels)
    for i in range(d):
        for j in range(i + 1, d):
            if not np.array_equal(table[i, j], table[j, i]):
                raise NonCommutative(i, j, labels)
    lm = [table[i].T.copy() for i in range(d)]
    for i in range(d):
        for j in range(d):
            lhs_vec = table[i, j]
            lhs = sum(int(lhs_vec[k]) * lm[k] for k in range(d)) % p
            rhs = (lm[i] @ lm[j]) % p
            if not np.array_equal(lhs, rhs):
                # (e_i e_j) e_k != e_i (e_j e_k) for the first bad k
                bad = np.nonzero(np.any((lhs - rhs) % p, axis=0))[0]
                raise NonAssociative(i, j, int(bad[0]), labels)
    unit_mat = sum(int(unit[i]) * lm[i] for i in range(d)) % p
    diff = np.nonzero(np.any((unit_mat - np.eye(d, dtype=np.int64)) % p, axis=0))[0]
    if diff.size:
        raise BadUnit(int(diff[0]), labels)


def raised(call):
    """(class, args, message, attributes) of what call raises, else None."""
    try:
        call()
    except InputError as exc:
        return type(exc), exc.args, str(exc), vars(exc)
    return None


def corrupted_table(ring, rng, mode):
    """The ring's table and unit with one entry changed: table[i, j, k]
    alone ("asymmetric"), table[i, j, k] and table[j, i, k] alike
    ("symmetric"), or one unit coordinate ("unit")."""
    table, unit = ring.table.copy(), ring.unit.copy()
    d, p = ring.dim, ring.p
    i, j, k = (rng.randrange(d) for _ in range(3))
    shift = rng.randrange(1, p)
    if mode == "unit":
        unit[k] = (unit[k] + shift) % p
    else:
        table[i, j, k] = (table[i, j, k] + shift) % p
        if mode == "symmetric":
            table[j, i, k] = table[i, j, k]
    return table, unit


@pytest.mark.parametrize("block_entries", [rings._BLOCK_ENTRIES, 1])
def test_table_checks_match_the_loop_oracle(monkeypatch, block_entries):
    # with one entry per block every row of the associativity check is
    # its own block, so the first bad triple is found across blocks
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", block_entries)
    rng = random.Random(1812)
    pool = oracle_rings()
    seen = Counter()
    for _ in range(600):
        ring = rng.choice(pool)
        table, unit = corrupted_table(ring, rng, rng.choice(
            ["asymmetric", "symmetric", "unit"]))
        labels = ring.basis_labels
        got = raised(lambda: build_algebra(ring.p, labels, table, unit))
        want = raised(lambda: loop_table_check(ring.p, labels, table, unit))
        assert got == want
        seen[want[0].__name__ if want else "valid"] += 1
    # every check is reached
    assert min(seen[name] for name in
               ("NonCommutative", "NonAssociative", "BadUnit", "valid")) >= 20, seen
    # e_last^2 shifted by 1: the first bad triple lies past the first row
    first_rows = []
    for ring in pool[-5:]:
        p, d, labels = ring.p, ring.dim, ring.basis_labels
        table = ring.table.copy()
        table[d - 1, d - 1] = (table[d - 1, d - 1] + ring.unit) % p
        got = raised(lambda: build_algebra(p, labels, table, ring.unit))
        assert got == raised(lambda: loop_table_check(p, labels, table, ring.unit))
        if got and got[0] is NonAssociative:
            first_rows.append(got[3]["triple"][0])
    assert max(first_rows) > 0, first_rows


def test_lawful_constructors_build_tables_that_pass_the_law_checks(monkeypatch):
    # prime_field, truncated_polynomial and direct_product skip the table
    # laws, which hold by construction; the loop check confirms them
    primes = [2, 3, 5, 7, 65521]
    fields = [prime_field(p) for p in primes]
    truncated = [truncated_polynomial(p, k, var) for p in primes
                 for k, var in zip(range(1, 7), "tuvxyz")]
    pairs = [direct_product(a, b) for a, b in itertools.product(fields + truncated, repeat=2)
             if a.p == b.p]
    triples = [direct_product(pair, c, labels=["x%d" % n for n in range(pair.dim + 1)])
               for pair in pairs for c in fields if pair.p == c.p]
    built = fields + truncated + pairs + triples
    assert len(built) == 5 + 30 + 245 + 245
    for ring in built:
        loop_table_check(ring.p, ring.basis_labels, ring.table, ring.unit)
    # they never reach the law checks, and still check p, labels and shapes
    def refuse(self):
        raise AssertionError("table laws checked")
    monkeypatch.setattr(FiniteAlgebra, "_validate_laws", refuse)
    direct_product(truncated_polynomial(3, 4), prime_field(3))
    with pytest.raises(NotPrimeChar):
        truncated_polynomial(4, 2)
    with pytest.raises(InputError, match="distinct"):
        direct_product(prime_field(2), prime_field(2), labels=["e", "e"])
    with pytest.raises(InputError, match="shape"):
        FiniteAlgebra._lawful(2, ["1", "t"], [[[1]]], [1, 0])
    with pytest.raises(AssertionError, match="table laws"):
        build_algebra(2, ["1"], [[[1]]], [1])


def test_radical_of_truncated_polynomial(t2):
    rad = t2.radical_basis()
    assert rad.shape == (2, 1)
    assert rad[:, 0].tolist() == [0, 1]


def group_algebra(p, orders):
    """F_p[C_n1 x C_n2 x ...] on the basis of group elements."""
    elems = list(itertools.product(*(range(n) for n in orders)))
    index = {g: i for i, g in enumerate(elems)}
    d = len(elems)
    table = np.zeros((d, d, d), dtype=np.int64)
    for g in elems:
        for h in elems:
            gh = tuple((a + b) % n for a, b, n in zip(g, h, orders))
            table[index[g], index[h], index[gh]] = 1
    labels = ["g" + "".join(map(str, g)) for g in elems]
    return build_algebra(p, labels, table, [1] + [0] * (d - 1))


def oracle_rings():
    """The pool, every proper quotient of it, and five more rings."""
    rings = []
    for _, ring in bundled_rings():
        rings.append(ring)
        rings += [quotient_algebra(ring, ideal).algebra
                  for ideal in enumerate_ideals(ring).proper]
    return rings + [
        truncated_polynomial(3, 3),
        group_algebra(2, [4]),
        group_algebra(3, [3]),
        group_algebra(2, [2, 2]),
        direct_product(prime_field(7), truncated_polynomial(7, 2)),
    ]


# The element sweeps the linear algebra replaced, kept as oracles.

def sweep_radical(ring):
    """Span of the nilpotent elements, met in canonical order."""
    def is_nilpotent(elt):
        m = ring.left_mul_matrix(elt.array)
        power = np.eye(ring.dim, dtype=np.int64)
        for _ in range(ring.dim):
            power = (power @ m) % ring.p
        return not power.any()
    nil_vecs = [e.array for e in ring.elements() if is_nilpotent(e)]
    if not nil_vecs:
        return gfmat.zeros(ring.dim, 0)
    return gfmat.column_space(np.stack(nil_vecs, axis=1), ring.p)


def quotient_is_field(ring, basis):
    """Does every nonzero element of R / (span basis) act invertibly?"""
    d, k = ring.dim, basis.shape[1]
    if k == d:
        return False
    section, inv = gfmat.complete_basis(basis, ring.p)
    proj = inv[k:, :]
    for coeffs in itertools.product(range(ring.p), repeat=d - k):
        if not any(coeffs):
            continue
        rep = (section @ np.array(coeffs, dtype=np.int64)) % ring.p
        qmat = (proj @ ring.left_mul_matrix(rep) @ section) % ring.p
        if gfmat.rank(qmat, ring.p) != d - k:
            return False
    return True


def element_set(ideal):
    p = ideal.ring.p
    return frozenset(
        tuple(int(x) for x in (ideal.basis @ np.array(c, dtype=np.int64)) % p)
        for c in itertools.product(range(p), repeat=ideal.fdim))


def element_set_maximal(ideal, ideals):
    """Proper, and no proper ideal holds a strict superset of its elements."""
    dim = ideal.ring.dim
    if ideal.fdim == dim:
        return False
    mine = element_set(ideal)
    return not any(ideal.fdim < other.fdim < dim and mine < element_set(other)
                   for other in ideals)


def test_linear_algebra_matches_the_element_sweeps():
    rings = oracle_rings()
    assert len(rings) == 32
    primes_seen = 0
    for ring in rings:
        rad = ring.radical_basis()
        want = sweep_radical(ring)
        assert rad.dtype == want.dtype and np.array_equal(rad, want), ring
        ideals = enumerate_ideals(ring)
        for ideal in ideals:
            assert ideal.is_prime == quotient_is_field(ring, ideal.basis)
            assert ideal.is_maximal == element_set_maximal(ideal, ideals)
        for prime in ideals.primes:
            members = element_set(prime)
            want = tuple(e for e in ring.elements() if e.vec not in members)
            assert complement_multset(ring, prime).elements == want
            primes_seen += 1
    assert primes_seen == 41


def f4_rings():
    """F4 = F2[x]/(x^2 + x + 1), a residue field that is not prime, and
    two products with it."""
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[0, 0], table[0, 1], table[1, 0], table[1, 1] = [1, 0], [0, 1], [0, 1], [1, 1]
    f4 = build_algebra(2, ["1", "x"], table, [1, 0])
    return [f4, direct_product(f4, truncated_polynomial(2, 2)), direct_product(f4, f4)]


def split_polynomial_ring(p, roots, power):
    """F_p[x]/(prod (x - r)^power) on the basis 1, x, ..., x^(d-1): its
    primitive idempotents are dense in that basis, unlike a product's."""
    f = [1]
    for r in roots:
        for _ in range(power):
            f = [(a - r * b) % p for a, b in zip([0] + f, f + [0])]
    d = len(f) - 1
    reduced = np.zeros((2 * d - 1, d), dtype=np.int64)  # row k is x^k mod f
    reduced[:d] = np.eye(d, dtype=np.int64)
    for k in range(d, 2 * d - 1):
        # x^k = x * x^(k-1), and x^d = -(f_0 + ... + f_(d-1) x^(d-1))
        top = reduced[k - 1, d - 1]
        reduced[k, 1:] = reduced[k - 1, :-1]
        reduced[k] = (reduced[k] - top * np.array(f[:d])) % p
    table = np.array([[reduced[i + j] for j in range(d)] for i in range(d)])
    return build_algebra(p, ["x%d" % k for k in range(d)], table, [1] + [0] * (d - 1))


def test_radical_ideal_flags_match_the_ideal_lattice():
    # rad R is prime and maximal exactly when R is local, decided by the
    # Frobenius fixed points with no ideal listed
    local = Counter()
    for ring in oracle_rings() + f4_rings():
        got = radical_ideal(ring)
        assert np.array_equal(got.basis, ring.radical_basis())
        ideals = enumerate_ideals(ring)
        twin, = [i for i in ideals if i.key() == got.key()]
        assert (got.is_prime, got.is_maximal) == (twin.is_prime, twin.is_maximal)
        assert got.is_maximal == (len(ideals.maximals) == 1)
        local[got.is_maximal] += 1
    assert local[True] >= 5 and local[False] >= 5, local
    big = truncated_polynomial(2, 17)
    assert radical_ideal(big).is_maximal and radical_ideal(group_algebra(2, [2] * 5)).is_prime
    assert not radical_ideal(direct_product(big, prime_field(2))).is_maximal


def check_idempotent_laws(ring):
    """The structure pass's e_i are nonzero, orthogonal idempotents that
    sum to 1, one per maximal ideal, each outside its own P_i only."""
    found = ring.primitive_idempotents()
    primes = maximal_ideals(ring)
    assert len(found) == len(primes) == ring._frobenius_fixed().shape[1]
    for i, e in enumerate(found):
        e = ring.element(e)
        assert not e.is_zero() and e * e == e
        for f in found[i + 1:]:
            assert (e * ring.element(f)).is_zero()
    assert ring.element(found.sum(axis=0)) == ring.one
    for prime in primes:
        assert prime.is_prime and prime.is_maximal
        outside = [e for e in found if not prime.contains(ring.element(e))]
        assert len(outside) == 1
        assert complement_multset(ring, prime).idempotent == ring.element(outside[0])


def test_maximal_ideals_match_the_lattice_primes():
    # keys, order and bases of the P_i against the ideal lattice, and e_i
    # against e_S of the listed complement, taken from every member
    rings_ = oracle_rings() + f4_rings() + [
        square_zero_ring(), group_algebra(2, [2, 2, 2]), group_algebra(2, [4, 2]),
        split_polynomial_ring(2, [0, 1], 2), split_polynomial_ring(3, [0, 1], 2),
        split_polynomial_ring(5, [0, 1, 4], 1), split_polynomial_ring(7, [0, 1, 3], 1)]
    primes_seen = Counter()
    for ring in rings_:
        got = maximal_ideals(ring)
        want = enumerate_ideals(ring).primes
        assert [i.key() for i in got] == [i.key() for i in want], ring
        for mine, theirs in zip(got, want):
            assert mine.basis.tobytes() == theirs.basis.tobytes()
            assert mine.label() == theirs.label()
            members = complement_multset(ring, theirs).elements
            assert complement_multset(ring, mine).idempotent == rings._s_idempotent(ring, members)
        check_idempotent_laws(ring)
        primes_seen[ring.p] += len(got)
    assert primes_seen == {2: 36, 3: 15, 5: 3, 7: 5}, primes_seen


def oracle_row_powers(ring, rows, q):
    """Row a is rows[a]^q, square-and-multiply from the unit, taking each
    row-wise product as the diagonal of the all-pairs products."""
    powers = np.tile(ring.unit, (len(rows), 1))
    base = rows
    while q:
        if q & 1:
            powers = np.einsum("aak->ak", ring.products(powers, base))
        base = np.einsum("aak->ak", ring.products(base, base))
        q >>= 1
    return powers


def structure_arrays(ring):
    """Frobenius, its fixed space and the primitive idempotents of a copy
    of ring with nothing cached."""
    fresh = FiniteAlgebra._lawful(ring.p, ring.basis_labels, ring.table, ring.unit)
    return fresh._frobenius(), fresh._frobenius_fixed(), fresh.primitive_idempotents()


def test_row_powers_keep_the_structure_pass_byte_identical(monkeypatch):
    rings_ = oracle_rings() + f4_rings() + [
        split_polynomial_ring(3, [0, 1], 2), split_polynomial_ring(5, [0, 1, 4], 1),
        split_polynomial_ring(7, [0, 1, 3], 1)]
    got = [structure_arrays(ring) for ring in rings_]
    with monkeypatch.context() as patch:
        patch.setattr(FiniteAlgebra, "_row_powers", oracle_row_powers)
        want = [structure_arrays(ring) for ring in rings_]
    for ring, mine, theirs in zip(rings_, got, want):
        for a, b in zip(mine, theirs):
            assert a.dtype == b.dtype and a.shape == b.shape, ring
            assert a.tobytes() == b.tobytes(), ring


@pytest.mark.parametrize("p, squares, products", [(2, 1, 0), (3, 1, 1), (5, 2, 1),
                                                  (7, 2, 2)])
def test_row_powers_make_no_product_with_the_unit_and_no_last_square(
        monkeypatch, p, squares, products):
    # q = p: one squaring per bit below the highest, one product per set
    # bit after the lowest
    ring = direct_product(prime_field(p), truncated_polynomial(p, 2))
    made = []
    original = FiniteAlgebra._row_products

    def spy(self, xs, ys):
        made.append("square" if ys is xs else "product")
        return original(self, xs, ys)

    monkeypatch.setattr(FiniteAlgebra, "_row_products", spy)
    assert ring._frobenius().shape == (ring.dim, ring.dim)
    assert Counter(made) == Counter(square=squares, product=products)
    made.clear()
    rows = np.eye(ring.dim, dtype=np.int64)
    assert ring._row_powers(rows, 1) is rows and not made


def test_maximal_ideals_of_a_product_at_the_largest_characteristic():
    # 65521^4 elements, so no lattice: a product, and F_p[x]/(x (x - 1)
    # ... (x - 5)), whose e_i the shifts split off from 1
    p = rings.MAX_CHARACTERISTIC
    parts = [prime_field(p), truncated_polynomial(p, 2), prime_field(p)]
    ring = direct_product(direct_product(parts[0], parts[1]), parts[2],
                          labels=["a", "b", "t", "c"])
    check_idempotent_laws(ring)
    # the factors' units, and P_i the other factors plus rad of factor i
    units = {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)}
    assert {tuple(e) for e in ring.primitive_idempotents()} == units
    assert sorted(i.label() for i in maximal_ideals(ring)) == [
        "(a, b, t)", "(a, t, c)", "(b, t, c)"]
    dense = split_polynomial_ring(p, range(6), 1)
    assert len(maximal_ideals(dense)) == 6
    check_idempotent_laws(dense)


def test_structure_pass_checks_its_split(monkeypatch):
    # F2[x]/(x^2 (x + 1)^2): a split that stops early leaves fewer
    # idempotents than dim E = 2
    monkeypatch.setattr(FiniteAlgebra, "_splitting_idempotent", lambda self, f, b: None)
    with pytest.raises(InternalInvariantViolation, match="orthogonal idempotents"):
        split_polynomial_ring(2, [0, 1], 2).primitive_idempotents()
    # and 1 = x + (1 + x), two parts that are not idempotent, is caught
    # by the laws
    calls = []

    def bad_split(self, f, b):
        calls.append(b)
        return np.array([0, 1, 0, 0]) if len(calls) == 1 else None

    monkeypatch.setattr(FiniteAlgebra, "_splitting_idempotent", bad_split)
    with pytest.raises(InternalInvariantViolation, match="orthogonal idempotents"):
        split_polynomial_ring(2, [0, 1], 2).primitive_idempotents()
    # the split stops at dim E = 2 parts, after the one bad split
    assert len(calls) == 1
    # a split that never stops is cut off once it holds dim E parts
    calls.clear()

    def endless(self, f, b):
        calls.append(b)
        if len(calls) > 100:
            raise AssertionError("the split did not stop")
        return f

    monkeypatch.setattr(FiniteAlgebra, "_splitting_idempotent", endless)
    with pytest.raises(InternalInvariantViolation, match="orthogonal idempotents"):
        split_polynomial_ring(2, [0, 1], 2).primitive_idempotents()


def oracle_primitive_idempotents(ring):
    """The split before it stopped at dim E parts: every basis vector of
    E tries every part, on a copy of ring with nothing cached."""
    fresh = FiniteAlgebra._lawful(ring.p, ring.basis_labels, ring.table, ring.unit)
    parts = [fresh.unit]
    for b in fresh._frobenius_fixed().T:
        done, todo = [], parts
        while todo:
            f = todo.pop()
            g = fresh._splitting_idempotent(f, b)
            if g is None:
                done.append(f)
            else:
                todo += [g, (f - g) % ring.p]
        parts = done
    return np.array(parts, dtype=np.int64)


def oracle_radical_generators(ring):
    """radical_generators with its squares from two tensordots."""
    rad = ring.radical_basis()
    k = rad.shape[1]
    left = np.tensordot(rad.T, ring.table, 1) % ring.p
    squares = np.tensordot(left, rad, axes=(1, 0)) % ring.p
    squares = squares.transpose(1, 0, 2).reshape(ring.dim, k * k)
    return rad[:, gfmat.columns_outside_span(squares, rad, ring.p)]


def structure_pass_rings():
    """The pool, the F4 rings, dense split rings at p = 2, 3, 5 and group
    algebras, local and not."""
    return [ring for _, ring in bundled_rings()] + f4_rings() + [
        split_polynomial_ring(2, [0, 1], 2), split_polynomial_ring(3, [0, 1], 2),
        split_polynomial_ring(3, [0, 1, 2], 1), split_polynomial_ring(5, [0, 1, 4], 1),
        group_algebra(2, [2, 2]), group_algebra(2, [2, 2, 2]), group_algebra(2, [4, 2]),
        group_algebra(3, [3, 3]), group_algebra(2, [3]), group_algebra(3, [2]),
        group_algebra(5, [4]), group_algebra(2, [5])]


def test_the_stopped_split_keeps_the_rows_and_their_order():
    split = 0
    for ring in structure_pass_rings():
        fresh = FiniteAlgebra._lawful(ring.p, ring.basis_labels, ring.table, ring.unit)
        got = fresh.primitive_idempotents()
        if fresh.dim - fresh.radical_basis().shape[1] > 1:
            want = oracle_primitive_idempotents(ring)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), ring
            split += len(got) > 1
        assert got.tobytes() == ring.primitive_idempotents().tobytes()
    assert split >= 12, split


def test_radical_generators_by_matmul_match_the_tensordots():
    for ring in structure_pass_rings() + oracle_rings():
        got, want = ring.radical_generators(), oracle_radical_generators(ring)
        assert got.dtype == want.dtype and got.shape == want.shape, ring
        assert got.tobytes() == want.tobytes(), ring


def test_residue_lifts_are_bases_of_the_residue_fields():
    # L_i lies in e_i R, starts with e_i, and maps onto an F_p-basis of
    # e_i R / e_i rad R; when every k_i is 1, L is the idempotents
    wide = 0
    for ring in structure_pass_rings() + oracle_rings():
        p, rad = ring.p, ring.radical_basis()
        lifts, sizes = ring.residue_lifts()
        idems = ring.primitive_idempotents()
        assert sizes == tuple(ring.block_dimensions()[1].tolist())
        if sizes == (1,) * len(sizes):
            assert lifts is idems
            continue
        wide += 1
        ends = np.cumsum(sizes)
        for e, size, end in zip(idems, sizes, ends):
            block = lifts[end - size:end]
            assert np.array_equal(block[0], e)
            assert np.array_equal(ring.products(block, e[None])[:, 0], block)
            below = ring.products(e[None], rad.T)[0].T
            assert gfmat.rank(np.hstack([below, block.T]), p) == gfmat.rank(below, p) + size
    assert wide >= 4, wide


def test_radical_and_cap_above_the_enumeration_limit():
    # 2^17 elements: the radical is linear algebra, the ideal lattice is not
    ring = truncated_polynomial(2, 17)
    assert ring.size > MAX_ENUMERABLE
    rad = ring.radical_basis()
    assert rad.shape == (17, 16)
    # t^16, t^15, ..., t: the smallest vector first, as a sweep would meet them
    assert np.array_equal(rad, np.eye(17, dtype=np.int64)[:, :0:-1])
    with pytest.raises(InputError, match="too large to enumerate"):
        enumerate_ideals(ring)


def test_radical_generators_generate_the_radical_minimally():
    big = [group_algebra(2, [2] * 5), truncated_polynomial(2, 17)]
    for ring in oracle_rings() + big:
        p, rad, gens = ring.p, ring.radical_basis(), ring.radical_generators()
        # the ideal they generate is the radical
        ideal = np.hstack([gens] + [ring.table[i].T @ gens % p for i in range(ring.dim)])
        assert gfmat.rank(ideal, p) == rad.shape[1]
        assert gfmat.rank(np.hstack([rad, ideal]), p) == rad.shape[1]
        # and there are dim rad / rad^2 of them
        squares = np.hstack([gfmat.zeros(ring.dim, 0)] + [
            ring.left_mul_matrix(rad[:, a]) @ rad % p for a in range(rad.shape[1])])
        assert gens.shape[1] == rad.shape[1] - gfmat.rank(squares, p)
    assert [ring.radical_generators().shape[1] for ring in big] == [5, 1]


def pairwise_closure_ideals(ring):
    """enumerate_ideals as it was, as (basis, maximal) pairs in order: a
    column_space and a subspace key for every element's multiplication
    matrix and for every pairwise sum, maximality by one rank a pair."""
    p = ring.p

    def subspace_key(basis):
        r, pivots = gfmat.rref(basis.T, p)
        return tuple(tuple(int(c) for c in row) for row in r[: len(pivots)])

    seen = {}
    for elt in ring.elements():
        basis = gfmat.column_space(ring.left_mul_matrix(elt.array), p)
        seen.setdefault(subspace_key(basis), basis)
    work = list(seen.items())
    while work:
        new_work = []
        items = list(seen.items())
        for _, b1 in work:
            for _, b2 in items:
                summed = gfmat.column_space(np.hstack([b1, b2]), p)
                key = subspace_key(summed)
                if key not in seen:
                    seen[key] = summed
                    new_work.append((key, summed))
        work = new_work
    bases = [seen[key] for key in sorted(seen, key=lambda k: (len(k), k))]
    proper = [b for b in bases if b.shape[1] < ring.dim]
    out = []
    for basis in bases:
        k = basis.shape[1]
        maximal = k < ring.dim and not any(
            other.shape[1] > k
            and gfmat.rank(np.hstack([other, basis]), p) == other.shape[1]
            for other in proper)
        out.append((basis, maximal))
    return out


def test_ideal_lattice_matches_the_pairwise_closure():
    # the oracle rings hold the pool; three group algebras of 256
    # elements reach lattices of 9 to 47 ideals and sums of sums
    more = [group_algebra(2, [2, 2, 2]), group_algebra(2, [4, 2]), group_algebra(2, [8])]
    sizes = []
    for ring in oracle_rings() + more:
        got = enumerate_ideals(ring)
        want = pairwise_closure_ideals(ring)
        assert len(got) == len(want)
        for ideal, (basis, maximal) in zip(got, want):
            # the lattice keeps the reduced echelon rows of the old basis
            echelon = gfmat.rref(basis.T, ring.p)[0][: basis.shape[1]].T
            assert ideal.basis.dtype == basis.dtype and ideal.basis.shape == basis.shape
            assert ideal.basis.tobytes() == echelon.tobytes()
            assert ideal.is_maximal is maximal and ideal.is_prime is maximal
        sizes.append(len(got))
    assert sizes[-3:] == [47, 23, 9], sizes


def test_ideals_of_truncated_polynomial(t2):
    ideals = enumerate_ideals(t2)
    assert len(ideals) == 3
    dims = sorted(i.fdim for i in ideals)
    assert dims == [0, 1, 2]
    assert len(ideals.primes) == 1
    assert len(ideals.maximals) == 1


def test_ideals_of_product_ring(ring2):
    ideals = enumerate_ideals(ring2)
    assert len(ideals) == 6
    dims = sorted(i.fdim for i in ideals)
    assert dims == [0, 1, 1, 2, 2, 3]
    assert len(ideals.maximals) == 2
    assert all(m.is_prime for m in ideals.maximals)
    # (f) is not prime: e1*e2 = 0 lands in it, neither factor does
    f_ideal = [i for i in ideals if i.fdim == 1
               and i.contains(ring2.element([0, 0, 1]))][0]
    assert not f_ideal.is_prime


def test_mult_closure(ring2):
    e1 = ring2.element([1, 0, 0])
    s = mult_closure(ring2, [e1])
    assert s.labels() == ["e1", "e1+e2"]
    assert not s.degenerate
    assert ring2.one in s
    trivial = mult_closure(ring2, [])
    assert len(trivial) == 1
    degen = mult_closure(ring2, [ring2.zero])
    assert degen.degenerate
    assert len(degen) == 2


def all_pairs_closure(ring, seeds):
    """The closure as it was: every pairwise product in every round."""
    current = {ring.one} | set(seeds)
    while True:
        new = {x * y for x in current for y in current} - current
        if not new:
            return tuple(sorted(current))
        current |= new


def test_mult_closure_matches_the_all_pairs_fixpoint():
    # the closure multiplies new members by the seeds only
    rng = random.Random(2718)
    draws = [(ring, 12) for _, ring in bundled_rings()] + [
        (group_algebra(2, [2, 2, 2]), 3), (group_algebra(3, [3, 3]), 3),
        (truncated_polynomial(2, 5), 6)]
    for ring, count in draws:
        for _ in range(count):
            seeds = [random_element(ring, rng) for _ in range(rng.randrange(6))]
            closed = mult_closure(ring, seeds)
            assert closed.elements == all_pairs_closure(ring, seeds)
            assert closed.degenerate == any(e.is_zero() for e in closed.elements)
            closed.validate()


def test_closure_past_the_enumeration_cap_is_a_named_error(monkeypatch):
    ring = truncated_polynomial(2, 17)
    units = [ring.element([1] + [int(n == k) for n in range(1, 17)]) for k in range(1, 9)]
    big = mult_closure(ring, units)
    assert big.idempotent == ring.one and not big.degenerate
    monkeypatch.setattr(rings, "MAX_ENUMERABLE", 1000)
    with pytest.raises(InputError, match="too large to enumerate"):
        big.elements
    with pytest.raises(InputError, match="too large to enumerate"):
        len(mult_closure(ring, units))
    with pytest.raises(InputError, match="too large to enumerate"):
        ring.elements()
    monkeypatch.setattr(rings, "MAX_ENUMERABLE", 4096)
    assert len(mult_closure(ring, units)) == 4096


def idempotent_power(x):
    """The one idempotent among the powers of x."""
    power = x
    while power * power != power:
        power = power * x
    return power


def test_s_idempotent_is_the_idempotent_power_of_the_product_of_s():
    # e_S from the seeds (every member, for a prime complement) against
    # the product of every member of S
    rng = random.Random("s-idempotent")
    kinds = Counter()
    for ring in oracle_rings() + [square_zero_ring()]:
        sets = [random_multset(ring, rng, 3) for _ in range(8)]
        sets += [complement_multset(ring, prime) for prime in enumerate_ideals(ring).primes]
        # the group algebras' ideal lattices are too large to sweep here
        for big in (group_algebra(2, [2, 2, 2]), group_algebra(3, [3, 3])):
            sets += [random_multset(big, rng, 3)]
        for s_set in sets:
            ring = s_set.ring
            product = ring.one
            for s in s_set:
                product = product * s
            e = s_set.idempotent
            assert e == idempotent_power(product), (ring, s_set.labels())
            assert e in s_set and e * e == e
            assert s_set.degenerate == e.is_zero() == (ring.zero in s_set)
            kinds["one" if e == ring.one else "zero" if e.is_zero() else "proper"] += 1
    assert set(kinds) == {"one", "zero", "proper"}, kinds


def test_multset_validate_catches_gaps(ring2):
    e1 = ring2.element([1, 0, 0])
    broken = MultSet(ring2, (e1,), e1, (e1,))  # missing the unit
    with pytest.raises(InputError):
        broken.validate()


def pairwise_validate(s_set):
    """MultSet.validate as it was: one element product per pair."""
    if s_set.ring.one not in s_set.elements:
        raise InputError("multiplicative set must contain 1")
    members = set(s_set.elements)
    for x in s_set.elements:
        for y in s_set.elements:
            if x * y not in members:
                raise InputError(
                    "multiplicative set not closed: %s * %s = %s missing"
                    % (x.label(), y.label(), (x * y).label()))


@pytest.mark.parametrize("block_entries", [rings._BLOCK_ENTRIES, 16])
def test_multset_validate_matches_the_pairwise_oracle(monkeypatch, block_entries):
    # 16 entries hold at most one row of products per block
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", block_entries)
    rng = random.Random(4711)
    sets = []
    for ring in oracle_rings():
        if ring.size > 81:
            continue
        sets += [random_multset(ring, rng, 3) for _ in range(4)]
        sets += [complement_multset(ring, prime) for prime in enumerate_ideals(ring).primes]
    gaps = Counter()
    for full in sets:
        full.validate()
        pairwise_validate(full)
        for drop in rng.sample(range(len(full)), min(3, len(full))):
            members = full.elements[:drop] + full.elements[drop + 1:]
            rest = MultSet(full.ring, members, full.idempotent, members)
            got = raised(rest.validate)
            assert got == raised(lambda: pairwise_validate(rest))
            gaps["closed" if got is None else got[2].split(":")[0]] += 1
    assert len(sets) > 150, len(sets)
    assert gaps["multiplicative set must contain 1"] >= 50, gaps
    assert gaps["multiplicative set not closed"] >= 100, gaps


def test_closure_of_one_plus_odd_powers_is_every_unit(monkeypatch):
    # the units 1 + (t) of F_2[t]/(t^10), 512 of them; validating them
    # takes several blocks of products
    ring = truncated_polynomial(2, 10)
    seeds = [ring.element([1] + [int(n == k) for n in range(1, 10)]) for k in (1, 3, 5, 7, 9)]
    calls = []
    products = type(ring).products

    def recording(self, xs, ys):
        calls.append((len(xs), len(ys)))
        return products(self, xs, ys)

    monkeypatch.setattr(type(ring), "products", recording)
    closed = mult_closure(ring, seeds)
    calls.clear()  # the products of e_S
    assert [e.vec for e in closed] == [(1,) + rest for rest in
                                       itertools.product(range(2), repeat=9)]
    assert not closed.degenerate
    closure_calls = list(calls)
    closed.validate()
    d = ring.dim
    assert all(n * d * max(d, m) <= rings._BLOCK_ENTRIES for n, m in calls)
    # every round of the closure multiplies its frontier by the five seeds
    assert closure_calls and {m for _, m in closure_calls} == {5}
    assert len(calls) - len(closure_calls) > 1


def test_set_arithmetic_multiplies_no_element_pairs(monkeypatch, ring2):
    def refuse(self, other):
        raise AssertionError("per-element product")

    prime = enumerate_ideals(ring2).primes[0]
    monkeypatch.setattr(RingElement, "__mul__", refuse)
    closed = mult_closure(ring2, [ring2.element([1, 0, 1])])
    closed.validate()
    complement_multset(ring2, prime).validate()
    build_algebra(ring2.p, ring2.basis_labels, ring2.table, ring2.unit)
    quotient_algebra(ring2, prime)
    assert closed.labels() == ["e1", "e1+f", "e1+e2"]


def test_mult_closure_rejects_seeds_of_another_ring(ring2):
    t2 = truncated_polynomial(2, 2)
    with pytest.raises(RingMismatch, match="elements of different rings"):
        mult_closure(ring2, [t2.basis_element(1)])


def test_prime_complement_of_a_large_local_ring_lists_nothing(monkeypatch):
    # F3[C3 x C3] is local with 3^9 elements; R minus rad R is the 13,122
    # units, and e_S = 1 comes from the structure pass alone
    ring = group_algebra(3, [3, 3])

    def refuse(*args):
        raise AssertionError("elements listed")

    monkeypatch.setattr(FiniteAlgebra, "elements", refuse)
    monkeypatch.setattr(rings, "_closure", refuse)
    comp = complement_multset(ring, radical_ideal(ring))
    assert comp.idempotent == ring.one and not comp.degenerate
    assert complement_multset(ring, maximal_ideals(ring)[0]) is comp


def test_complement_closure_is_checked_when_listed(monkeypatch, ring2):
    # a P_i whose complement is not closed is an engine fault: the check
    # runs when the members are first read, and raises on every read
    f_ideal = [i for i in enumerate_ideals(ring2) if i.fdim == 1
               and i.contains(ring2.element([0, 0, 1]))][0]
    fake = Ideal(ring2, f_ideal.basis, True, True)
    monkeypatch.setattr(ring2, "_maximals", {fake.key(): (fake, ring2.unit)})
    comp = complement_multset(ring2, fake)
    for _ in range(2):
        with pytest.raises(InternalInvariantViolation, match="not closed"):
            comp.elements


def test_complement_multset(ring2):
    ideals = enumerate_ideals(ring2)
    e1 = ring2.element([1, 0, 0])
    for prime in ideals.primes:
        comp = complement_multset(ring2, prime)
        assert len(comp) == 4
        assert ring2.one in comp
        assert (e1 in comp) != prime.contains(e1)
    non_prime = [i for i in ideals if not i.is_prime][0]
    with pytest.raises(NotPrime):
        complement_multset(ring2, non_prime)


def test_complement_multset_is_built_once_per_prime(ring2):
    for prime in enumerate_ideals(ring2).primes:
        comp = complement_multset(ring2, prime)
        # an equal ideal held in another object shares the cached set
        twin = Ideal(ring2, prime.basis.copy(), True, prime.is_maximal)
        assert complement_multset(ring2, twin) is comp
    # (f) flagged prime by hand: its complement is not closed (e1*e2 = 0),
    # and the failure is raised on every call, never cached
    f_ideal = [i for i in enumerate_ideals(ring2) if i.fdim == 1
               and i.contains(ring2.element([0, 0, 1]))][0]
    fake = Ideal(ring2, f_ideal.basis, True, False)
    for _ in range(2):
        with pytest.raises(NotPrime, match="is not prime"):
            complement_multset(ring2, fake)


def test_quotient_algebra(ring2):
    ideals = enumerate_ideals(ring2)
    big = [i for i in ideals.maximals if i.fdim == 2][0]
    q = quotient_algebra(ring2, big)
    assert q.algebra.dim == 1
    assert q.theta(ring2.one).label() != "0"
    # projection then section is the identity on the quotient
    assert np.array_equal((q.proj @ q.section) % 2, np.identity(1, dtype=np.int64))


def test_ring_wire_round_trip(ring2):
    doc = ring_to_spec(ring2)
    blob = json.dumps(doc)
    back = ring_from_spec(json.loads(blob))
    assert same_ring(ring2, back)


def test_ring_from_spec_diagnostics():
    doc = ring_to_spec(truncated_polynomial(2, 2))
    del doc["mul"]["t*t"]
    with pytest.raises(InputError, match="mul"):
        ring_from_spec(doc)
    doc2 = ring_to_spec(prime_field(2))
    doc2["kind"] = "integers"
    with pytest.raises(InputError, match="kind"):
        ring_from_spec(doc2)


def test_direct_product_structure():
    a = direct_product(prime_field(3), prime_field(3))
    assert a.dim == 2
    assert a.size == 9
    ideals = enumerate_ideals(a)
    assert len(ideals) == 4
