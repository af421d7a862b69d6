import math
import random
import tracemalloc
from collections import Counter, deque
from itertools import product

import pytest

import lattice_oracle as oracle
from conftest import product_ring, scrambled_z_module

from srelhom import intmat, zmodules
from srelhom.checks import clear_memo
from srelhom.dimensions import DimValue
from srelhom.errors import (
    DividesS,
    InputError,
    InternalInvariantViolation,
    RingMismatch,
    UnsupportedPair,
)
from srelhom.modules import regular_module
from srelhom.rings import enumerate_ideals, mult_closure, quotient_algebra
from srelhom.zmodules import (
    RING_TAGS,
    FactorRingReport,
    ZMod,
    ZMultSet,
    ZSplitWitness,
    _diagonal_solve,
    _invariant_factors,
    _least_power,
    _product_expression,
    _split_modulus,
    change_of_rings_check,
    factor_ring_check,
    random_z_module,
    z_cyclic,
    z_ext,
    z_module,
    z_module_from_factors,
    z_module_from_spec,
    z_module_to_spec,
    z_multset,
    z_multset_from_spec,
    z_multset_to_spec,
    z_s_pd,
    z_uniform_torsion,
)


def z_free(ring, rank, m=None):
    """A free module over Z or Z/m: rank generators and no relations."""
    return z_module(ring, [[]] * rank, m=m)


def z_direct_sum(a, b):
    """a + b over one ring: the presentations side by side, block-diagonal."""
    rows = ([list(row) + [0] * b.relations for row in a.rows]
            + [[0] * a.relations + list(row) for row in b.rows])
    return z_module(a.ring, rows, m=a.m)


def random_int_matrix(rng, rows, cols, lo=-20, hi=20):
    return [[rng.randrange(lo, hi + 1) for _ in range(cols)] for _ in range(rows)]


# -- integer matrix layer -----------------------------------------------------


def test_smith_frozen_examples():
    _, d, _ = intmat.smith_normal_form([[1, 0], [0, 1]])
    assert d == [[1, 0], [0, 1]]
    _, d, _ = intmat.smith_normal_form([[2, 0], [0, 3]])
    assert intmat.diagonal_of(d) == [1, 6]
    _, d, _ = intmat.smith_normal_form([[0, 0], [0, 0]])
    assert d == [[0, 0], [0, 0]]


def test_smith_randomized_properties():
    rng = random.Random(20260815)
    for _ in range(120):
        rows = rng.randrange(0, 9)
        cols = rng.randrange(0, 9)
        a = random_int_matrix(rng, rows, cols)
        u, d, v = intmat.smith_normal_form(a)
        assert intmat.matmul(intmat.matmul(u, a), v) == d
        assert abs(intmat.det(u)) == 1
        assert abs(intmat.det(v)) == 1
        diag = intmat.diagonal_of(d)
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            assert x >= 0
            if x == 0:
                assert y == 0
            else:
                assert y % x == 0


def test_solve_and_kernel():
    rng = random.Random(7)
    for _ in range(60):
        a = random_int_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5), -9, 9)
        x = random_int_matrix(rng, len(a[0]), 2, -9, 9)
        b = intmat.matmul(a, x)
        found = oracle.solve(a, b)
        assert found is not None
        assert intmat.matmul(a, found) == b
        ker = oracle.kernel_basis(a)
        kcols = intmat.shape(ker)[1]
        zero = intmat.zeros(len(a), kcols)
        assert intmat.matmul(a, ker) == zero if kcols else True
    assert oracle.solve([[2]], [[3]]) is None
    assert oracle.solve([[2, 4], [0, 6]], [[6], [6]]) == [[1], [1]]


def lattice_pivots(a):
    """(row, value) of the leading entry of each triangular basis column."""
    basis = oracle.column_lattice_basis(a)
    _, cols = intmat.shape(basis)
    return [next((i, basis[i][j]) for i in range(len(basis)) if basis[i][j])
            for j in range(cols)]


def test_intmat_solve_each_matches_solving_one_column_at_a_time():
    rng = random.Random(808)
    # (rows, unknowns, right-hand sides): a with no columns, b with none, neither
    edge = [(3, 0, 3), (3, 4, 0), (2, 0, 0)]
    seen = {True: 0, False: 0}
    for trial in range(80):
        rows, k, width = (edge[trial] if trial < len(edge)
                          else (rng.randrange(1, 5), rng.randrange(1, 5), rng.randrange(1, 5)))
        a = random_int_matrix(rng, rows, k, -6, 6)
        if trial % 3 == 0:
            a = [[2 * x for x in row] for row in a]  # odd right-hand sides fail
        b = random_int_matrix(rng, rows, width, -6, 6)
        if width and rng.random() < 0.5:
            # plant a consistent column somewhere
            planted = intmat.matmul(a, random_int_matrix(rng, k, 1, -4, 4)) if k else \
                intmat.zeros(rows, 1)
            j = rng.randrange(width)
            for i in range(rows):
                b[i][j] = planted[i][0]
        ok, x = oracle.solve_each(a, b)
        assert len(ok) == width and len(x) == k
        for j in range(width):
            col = [[b[i][j]] for i in range(rows)]
            # consistent exactly when the column does not enlarge the lattice
            consistent = lattice_pivots(oracle.hstack(a, col)) == lattice_pivots(a)
            assert ok[j] == consistent
            seen[consistent] += 1
            sol = oracle.solve(a, col)
            assert (sol is not None) == ok[j]
            if ok[j]:
                assert [[x[i][j]] for i in range(k)] == sol
                assert intmat.matmul(a, sol) == col if k else not any(b[i][j] for i in range(rows))
    assert seen[True] > 20 and seen[False] > 20


def test_intmat_solve_each_rejects_mismatched_rows():
    with pytest.raises(InputError):
        oracle.solve_each(intmat.zeros(2, 2), intmat.zeros(3, 1))


def test_lattice_helpers():
    basis = oracle.column_lattice_basis([[2, 4, 3], [0, 0, 0]])
    assert basis == [[1], [0]]
    # {x : 2x in 4Z} = 2Z
    assert oracle.solution_lattice([[2]], [[4]]) == [[2]]
    free, tors = oracle.quotient_invariants(intmat.identity(2), [[2, 0], [0, 6]])
    assert (free, tors) == (0, (2, 6))
    free, tors = oracle.quotient_invariants(intmat.identity(3), [[2, 0], [0, 6], [0, 0]])
    assert (free, tors) == (1, (2, 6))
    with pytest.raises(InputError):
        oracle.quotient_invariants([[2]], [[3]])


def test_cokernel_invariants_match_the_quotient_of_the_identity_lattice():
    rng = random.Random(909)
    for trial in range(80):
        rows, cols = (2, 0) if trial == 0 else (rng.randrange(1, 5), rng.randrange(0, 5))
        a = random_int_matrix(rng, rows, cols, -8, 8)
        if trial % 4 == 1:
            a = [[3 * x for x in row] for row in a]
        assert oracle.cokernel_invariants(a) == \
            oracle.quotient_invariants(intmat.identity(rows), a)
    assert oracle.cokernel_invariants([]) == (0, ())
    assert oracle.cokernel_invariants([[2, 0], [0, 6], [0, 0]]) == (1, (2, 6))


# -- presentations ------------------------------------------------------------


def test_structure_frozen():
    assert z_cyclic(6).structure() == (0, (6,))
    assert z_cyclic(0).structure() == (1, ())
    assert z_module("Z", [[2, 0], [0, 3]]).structure() == (0, (6,))
    assert z_free("Z", 2).structure() == (2, ())
    assert str(z_module("Z", [[2, 0], [0, 4]])) == "Z/2 + Z/4"
    zm = z_module("Z_mod", [[2]], m=4)
    assert zm.structure() == (0, (2,))
    assert zm.exponent() == 2
    assert z_free("Z_mod", 1, m=4).structure() == (0, (4,))
    assert z_free("Z", 1).exponent() is None
    assert z_module("Z", [[1]]).is_zero()


def test_clear_memo_forgets_smith_forms(monkeypatch):
    # clear_memo resets the package as a fresh process starts, so a
    # structure cached before it is recomputed after it
    forms = Counter()
    real = intmat.smith_normal_form

    def spy(rows):
        forms[str(rows)] += 1
        return real(rows)

    monkeypatch.setattr(intmat, "smith_normal_form", spy)
    mod = z_module("Z", [[4, 2], [0, 6]])
    clear_memo()
    assert mod.structure() == mod.structure() == (0, (2, 12))
    assert sum(forms.values()) == 1
    clear_memo()
    assert mod.structure() == (0, (2, 12))
    assert sum(forms.values()) == 2 and zmodules._structure.cache_info().currsize == 1


def test_structure_order_matches_lattice_index():
    # for finite modules the group order equals the index of the relation
    # lattice, i.e. the absolute determinant of a square basis
    rng = random.Random(11)
    for _ in range(40):
        g = rng.randrange(1, 4)
        rows = [[rng.randrange(-6, 7) for _ in range(g)] for _ in range(g)]
        mod = z_module("Z", rows)
        free, tors = mod.structure()
        det = intmat.det(rows)
        if det == 0:
            assert free > 0
        else:
            assert free == 0
            assert math.prod(tors) == abs(det)


def test_presentation_validation():
    with pytest.raises(InputError):
        z_module("Z", [[1, 2], [3]])
    with pytest.raises(InputError):
        ZMod("Z", 4, ((2,),))
    with pytest.raises(InputError):
        ZMod("Z_mod", None, ((2,),))
    with pytest.raises(InputError):
        ZMod("Q", None, ())


def test_multset_validation():
    s = z_multset("Z_mod", [7, 3], m=4)
    assert s.generators == (3, 3)
    with pytest.raises(InputError):
        z_multset("Z", [2, 0])
    with pytest.raises(InputError):
        z_multset("Z_mod", [4], m=4)
    assert str(z_multset("Z", [2, 3])) == "<2, 3>"


# -- uniform torsion ----------------------------------------------------------


def test_torsion_frozen_examples():
    s2 = z_multset("Z", [2])
    report = z_uniform_torsion(z_cyclic(3), s2)
    assert not report.verdict and report.explored == 1
    assert "divisible by 3: its factor 3 is prime" in report.reason
    report = z_uniform_torsion(z_cyclic(12), z_multset("Z", [5, 2]))
    assert not report.verdict and report.explored == 3
    assert "divisible by 12: its factor 3 is prime" in report.reason
    report = z_uniform_torsion(z_cyclic(8), s2)
    assert report.verdict
    assert report.witness == 8
    assert report.expression == "2^3"
    assert report.explored == 4  # 1, 2, 4, 8
    report = z_uniform_torsion(z_cyclic(12), z_multset("Z", [5, 6, 3]))
    assert (report.witness, report.expression, report.explored) == (324, "6^2*3^2", 3)
    report = z_uniform_torsion(z_module("Z", [[1]]), s2)
    assert report.verdict and report.witness == 1 and report.expression == "1"
    report = z_uniform_torsion(z_free("Z", 1), s2)
    assert not report.verdict
    assert "free summand" in report.reason


def test_torsion_matches_exhaustive_products():
    rng = random.Random(404)
    for _ in range(80):
        mod = random_z_module(rng, max_gens=2, max_rels=3, span=5)
        gens = tuple(rng.choice([2, 3, 5, 6, 7]) for _ in range(rng.randrange(1, 3)))
        s = z_multset("Z", gens)
        report = z_uniform_torsion(mod, s)
        free, _ = mod.structure()
        if free:
            assert not report.verdict
            continue
        e = mod.exponent()
        seen = {1 % e}
        frontier = set(seen)
        for _ in range(e + 1):
            frontier = {(v * g) % e for v in frontier for g in gens} - seen
            seen |= frontier
        assert report.verdict == (0 in seen)
        if report.verdict:
            assert report.witness % e == 0


def monoid_orbit(generators, modulus):
    """All residues of products of the generators mod modulus, BFS order.

    Returns (order, links): the empty product 1 comes first, and links[r]
    is (previous residue, generator) for the step that first reached r
    (None for the start), so each residue costs one link, not a path.
    This search decided the S-questions before the gcd loop; it is the
    oracle for the loop's verdicts.
    """
    start = 1 % modulus
    links = {start: None}
    order = [start]
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for g in generators:
            w = (v * g) % modulus
            if w not in links:
                links[w] = (v, g)
                order.append(w)
                queue.append(w)
    return order, links


def orbit_path(links, r):
    """The generator sequence whose product first reached r."""
    path = []
    while links[r] is not None:
        r, g = links[r]
        path.append(g)
    return tuple(reversed(path))


def orbit_products(order, links):
    """The integer product of each residue's path, in BFS order."""
    products = {order[0]: 1}
    for r in order[1:]:
        v, g = links[r]
        products[r] = products[v] * g
    return [products[r] for r in order]


def orbit_reaches_zero(generators, e):
    """Is some product of the generators divisible by e, by the BFS?"""
    return 0 in monoid_orbit(generators, e)[1]


def least_power_fields(generators, e, m=None):
    """(s, expression, attempted) of a search by the gcd loop on e, by
    trying the powers t^0, t^1, ... of t, the product of the generators
    sharing a prime with e: the loop stops at the first n with
    gcd(e, t^n) = gcd(e, t^(n+1)), and succeeds when that gcd is e."""
    shared = [g for g in generators if math.gcd(g, e) > 1]
    t = math.prod(shared)
    n = next(n for n in range(e.bit_length() + 1)
             if math.gcd(e, t ** n) == math.gcd(e, t ** (n + 1)))
    s = t ** n % m if m else t ** n
    if math.gcd(e, t ** n) == e:
        return s, _product_expression(tuple(shared) * n), ()
    return None, None, (s,)


def old_monoid_orbit(generators, modulus):
    """The BFS as it was when it stored a full path per residue."""
    start = 1 % modulus
    paths = {start: ()}
    order = [start]
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for g in generators:
            w = (v * g) % modulus
            if w not in paths:
                paths[w] = paths[v] + (g,)
                order.append(w)
                queue.append(w)
    return order, paths


def test_orbit_links_rebuild_the_old_paths():
    for modulus in range(1, 41):
        for gens in ((2,), (3,), (2, 3), (5, 2), (6, 7), (4, 9, 11)):
            order, links = monoid_orbit(gens, modulus)
            old_order, paths = old_monoid_orbit(gens, modulus)
            assert order == old_order
            assert {r: orbit_path(links, r) for r in order} == paths
            assert orbit_products(order, links) == [math.prod(paths[r]) for r in order]


def test_orbit_memory_is_linear_in_its_size():
    # 2 has order 5003 mod 10007; a path per residue held 12.5 million entries
    tracemalloc.start()
    try:
        order, _ = monoid_orbit((2,), 10007)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(order) == 5003
    assert peak < 4 * 2 ** 20


def draw_generators(rng, ring, m):
    """1 to 3 generators, not all prime, and over Z/m none divisible by m."""
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    top = 2 * m if m else 30
    while True:
        gens = [rng.randrange(2, top) for _ in range(rng.randint(1, 3))]
        if m is not None and any(g % m == 0 for g in gens):
            continue
        if not primes.issuperset(gens):
            return gens


def test_gcd_loop_matches_the_orbit_oracle():
    rng = random.Random(2701)
    tally = Counter()
    for draw in range(2100):
        ring, m = ("Z", None) if draw % 3 == 0 else ("Z_mod", rng.randint(4, 100))
        gens = draw_generators(rng, ring, m)
        mod = random_z_module(rng, ring=ring, m=m, span=m or 6)
        e = _split_modulus(mod)
        residues = gens if m is None else [g % m for g in gens]
        # the helper against the orbit, and its power against divisibility
        for modulus in {e, m or e}:
            shared, n, rest = _least_power(residues, modulus)
            assert (rest == 1) == orbit_reaches_zero(residues, modulus)
            t = math.prod(shared)
            assert math.gcd(modulus, t ** n) * rest == modulus
            if rest == 1:
                assert n == 0 or t ** (n - 1) % modulus
            else:
                assert modulus % rest == 0 and rest > 1
                assert all(math.gcd(rest, g) == 1 for g in residues)
            tally[ring, rest == 1] += 1
        # the three questions against the orbit
        s_set = z_multset(ring, gens, m=m)
        level0 = z_s_pd(mod, s_set).levels[0]
        assert level0.verdict == orbit_reaches_zero(residues, e)
        assert (level0.s, level0.expression, level0.attempted) == \
            least_power_fields(residues, e, m)
        exponent = mod.exponent()
        torsion = z_uniform_torsion(mod, s_set)
        assert torsion.verdict == (exponent is not None
                                   and orbit_reaches_zero(residues, exponent))
        if m is not None:
            zmod = z_module("Z_mod", [[rng.choice([d for d in range(1, m + 1) if m % d == 0])]],
                            m=m)
            s_z = z_multset("Z", gens)
            try:
                factor_ring_check(m, zmod, s_z)
                divides = False
            except DividesS:
                divides = True
            assert divides == orbit_reaches_zero(gens, m)
            tally["divides", divides] += 1
    assert min(tally.values()) >= 100, tally


def test_s_questions_at_modulus_two_to_the_64():
    # <3, 5> is every unit mod 2^64: 2^63 residues, which an orbit search lists
    big = 2 ** 64
    s_z, s_big = z_multset("Z", [3, 5]), z_multset("Z_mod", [3, 5], m=big)
    half = z_module("Z_mod", [[2]], m=big)
    zmodules._structure.cache_clear()
    tracemalloc.start()
    try:
        over_z = z_s_pd(z_cyclic(big), s_z)
        over_big = z_s_pd(half, s_big)
        torsion = z_uniform_torsion(z_cyclic(big), s_z)
        report = factor_ring_check(big, half, s_z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert over_z.value == DimValue.exact(1) and over_z.levels[0].attempted == (1,)
    assert _split_modulus(half) == 2
    assert over_big.value == DimValue.over(8) and over_big.levels[0].attempted == (1,)
    assert not torsion.verdict and torsion.explored == 1
    assert "its factor %d is prime" % big in torsion.reason
    assert report.verdict == "vacuous" and report.z_result.value == DimValue.exact(1)
    assert peak < 2 ** 20
    # and where a generator shares the prime: 2 needs 64 steps
    res = z_s_pd(z_cyclic(big), z_multset("Z", [3, 2]))
    assert res.certificate.s == big and res.certificate.expression == "2^64"


def test_torsion_ring_mismatch():
    with pytest.raises(RingMismatch):
        z_uniform_torsion(z_cyclic(4), z_multset("Z_mod", [3], m=4))


# -- S-projective dimension ---------------------------------------------------


def test_spd_over_z_frozen():
    s2 = z_multset("Z", [2])
    res = z_s_pd(z_cyclic(2), s2)
    assert res.value == DimValue.exact(0)
    assert res.certificate.s == 2
    assert res.certificate.section == ((0,),)  # 2*id factors through the zero map
    res = z_s_pd(z_cyclic(3), s2)
    assert res.value == DimValue.exact(1)
    assert res.levels[0].attempted == (1,)  # t = 1: 2 shares no prime with 3
    assert res.certificate.s == 1 and res.certificate.expression == "1"
    res = z_s_pd(z_free("Z", 2), s2)
    assert res.value == DimValue.exact(0)
    assert res.certificate.s == 1
    assert res.certificate.section == ((1, 0), (0, 1))
    assert str(res) == "S-pd = 0 (bound 8)"


def test_spd_over_z_is_at_most_one():
    rng = random.Random(31)
    for _ in range(60):
        mod = random_z_module(rng)
        gens = tuple(rng.choice([2, 3, 5, 7]) for _ in range(rng.randrange(1, 3)))
        res = z_s_pd(mod, z_multset("Z", gens))
        assert res.value.known
        assert res.value.value <= 1


def test_spd_section_is_verifiable():
    # the returned section must satisfy phi@Q = 0 exactly over Z
    rng = random.Random(92)
    for _ in range(30):
        mod = random_z_module(rng, max_gens=2)
        res = z_s_pd(mod, z_multset("Z", [2, 3]))
        if res.value == DimValue.exact(0):
            assert_section_verifies(zmodules._structure(mod).q, res.certificate)


def assert_section_verifies(q, witness, m=None):
    """witness.section is a section of the cover scaled by witness.s: phi
    kills the relation lattice q (mod m; None = exact) and phi - s*I
    lies in q, so pi*phi = s."""
    phi = [list(row) for row in witness.section]
    assert not any((x % m) if m else x for row in intmat.matmul(phi, q) for x in row)
    shifted = [[x - (witness.s if i == j else 0) for j, x in enumerate(row)]
               for i, row in enumerate(phi)]
    assert oracle.solve(q, shifted) is not None


def old_section_solve(q, s, m):
    """The per-candidate section solve of the Z/m walk."""
    g, k = intmat.shape(q)
    if k == 0:
        return tuple(tuple(s % m if i == j else 0 for j in range(g)) for i in range(g))
    lhs = oracle.hstack(oracle.kron(oracle.transpose(q), q),
                        [[m if i == j else 0 for j in range(g * k)] for i in range(g * k)])
    sol = oracle.solve(lhs, [[-s * q[idx % g][idx // g]] for idx in range(g * k)])
    if sol is None:
        return None
    y = [[sol[j * k + i][0] for j in range(g)] for i in range(k)]
    phi = intmat.matmul(q, y)
    for i in range(g):
        phi[i][i] += s
    assert all(x % m == 0 for row in intmat.matmul(phi, q) for x in row)
    return tuple(tuple(x % m for x in row) for row in phi)


def multi_column_section_solve(q, candidates, order, links, modulus):
    """The level search before the orbit test: one right-hand side per
    candidate s, all decided by one solve_each call."""
    g, k = intmat.shape(q)
    c, phi = 0, intmat.zeros(g, g)
    if k:
        lhs = oracle.kron(oracle.transpose(q), q)
        if modulus:
            lhs = oracle.hstack(lhs, [[modulus if i == j else 0 for j in range(g * k)]
                                      for i in range(g * k)])
        rhs = [[-s * q[idx % g][idx // g] for s in candidates] for idx in range(g * k)]
        ok, sol = oracle.solve_each(lhs, rhs)
        c = next((c for c, good in enumerate(ok) if good), None)
        if c is None:
            return ZSplitWitness(None, None, None, tuple(candidates))
        phi = intmat.matmul(q, [[sol[j * k + i][c] for j in range(g)] for i in range(k)])
    s = candidates[c]
    for i in range(g):
        phi[i][i] += s
    assert not any((x % modulus) if modulus else x
                   for row in intmat.matmul(phi, q) for x in row)
    if modulus:
        phi = [[x % modulus for x in row] for row in phi]
    return ZSplitWitness(s, _product_expression(orbit_path(links, order[c])),
                         tuple(tuple(row) for row in phi))


def multi_column_levels(mod, s_set):
    """The levels of z_s_pd rebuilt on the multi-column search over a
    triangular basis of the relation lattice; over Z a failed level 0 is
    followed by level 1 whatever the bound."""
    q = oracle.relation_lattice(mod)
    if mod.ring == "Z_mod":
        order, links = monoid_orbit(s_set.generators, mod.m)
        return (multi_column_section_solve(q, order, order, links, mod.m),)
    _, tors = mod.structure()
    order, links = monoid_orbit(s_set.generators, tors[-1] if tors else 1)
    candidates = orbit_products(order, links)
    levels = (multi_column_section_solve(q, candidates, order, links, None),)
    if not levels[0].verdict:
        k = intmat.shape(q)[1]
        levels += (multi_column_section_solve(intmat.zeros(k, 0), candidates, order,
                                              links, None),)
    return levels


def witness_fields(levels):
    """Everything a search decides; the section is one choice among many,
    so it is checked by assert_section_verifies instead."""
    return [(w.s, w.expression, w.attempted) for w in levels]


def assert_levels_verify(mod, levels):
    # level 0 splits the module's cover, presented by q; level 1 (over Z)
    # its free syzygy, of the rank of the relation lattice
    lattice = zmodules._structure(mod)
    assert lattice.rank == intmat.shape(oracle.relation_lattice(mod))[1]
    lattices = (lattice.q, intmat.zeros(lattice.rank, 0))
    for q, witness in zip(lattices, levels):
        if witness.verdict:
            assert_section_verifies(q, witness, mod.m)


def test_orbit_test_matches_the_multi_column_search():
    rng = random.Random(8088)
    tally = Counter()
    cases = [("Z", None)] * 4 + [("Z_mod", m) for m in (4, 8, 9, 12, 16, 18, 27, 36, 72)]
    for ring, m in cases:
        if ring == "Z":
            coprime, sharing = [5, 7, 11], [2, 3, 4, 6, 9, 10, 12]
        else:
            coprime = [u for u in range(2, m) if math.gcd(u, m) == 1]
            sharing = [u for u in range(2, m) if math.gcd(u, m) > 1]
        divisors = [d for d in range(2, m or 13) if (m or 72) % d == 0]
        for trial in range(16):
            if trial % 2:
                mod = random_z_module(rng, ring=ring, m=m, span=m or 8)
            else:
                orders = [rng.choice(divisors) for _ in range(rng.randint(1, 2))]
                mod = z_module_from_factors(ring, m, rng.randint(0, 1), orders)
            pool = coprime if trial % 4 < 2 else sharing + coprime
            s_set = z_multset(ring, [rng.choice(pool) for _ in range(rng.randint(1, 2))], m=m)
            bound = rng.randint(0, 3)
            res = z_s_pd(mod, s_set, bound)
            want = multi_column_levels(mod, s_set)
            if ring == "Z":
                value = DimValue.exact(len(want) - 1)
            else:
                value = DimValue.exact(0) if want[0].verdict else DimValue.over(bound)
            assert res.value == value
            assert [w.verdict for w in res.levels] == [w.verdict for w in want]
            # the orbit decides the verdict; the witness is the gcd loop's power
            fields = witness_fields(res.levels)
            assert fields[0] == least_power_fields(s_set.generators, _split_modulus(mod), m)
            assert fields[1:] == witness_fields(want[1:])
            assert_levels_verify(mod, res.levels)
            tally[ring, res.levels[0].verdict] += 1
    assert min(tally[key] for key in product(RING_TAGS, (True, False))) >= 10, tally


def free_wide_and_empty_presentations(rng, ring, m):
    """Presentations of one module family in three shapes: scrambled with
    a free part, with more relations than generators (duplicated and
    combined columns), and with no relations at all."""
    span = m or 12
    free = rng.randint(1, 2)
    orders = [rng.choice([d for d in range(2, span + 1) if span % d == 0])
              for _ in range(rng.randint(1, 2))]
    base = [list(row) for row in z_module_from_factors(ring, m, free, orders).rows]
    gens = len(base)
    for _ in range(3):
        i, k = rng.sample(range(gens), 2)
        base[i] = [x + y for x, y in zip(base[i], base[k])]
    pad = [0] * rng.randint(1, 2)
    wide = [row + [2 * row[0], row[-1] - row[0]] + pad for row in base]
    return [base, wide, [[] for _ in range(rng.randint(1, 3))]]


def test_sections_verify_on_free_parts_wide_and_empty_presentations():
    rng = random.Random(2302)
    tally = Counter()
    for ring, m in [("Z", None)] + [("Z_mod", m) for m in (4, 8, 9, 12, 18)]:
        for _ in range(12):
            for shape, rows in enumerate(free_wide_and_empty_presentations(rng, ring, m)):
                mod = z_module(ring, rows, m=m)
                lattice = zmodules._structure(mod)
                if ring == "Z":
                    # a free part shows as zero diagonal entries
                    assert lattice.rank < mod.generators
                gens = [rng.choice([2, 3, 4, 5, 6, 7, 9, 12]) for _ in range(rng.randint(1, 2))]
                gens = [g for g in gens if m is None or g % m] or [1]
                res = z_s_pd(mod, z_multset(ring, gens, m=m))
                assert_levels_verify(mod, res.levels)
                tally[ring, shape, res.levels[0].verdict] += 1
                if res.levels[0].verdict and lattice.rank:
                    tally[ring, "corrected"] += 1
    for ring in RING_TAGS:
        assert tally[ring, "corrected"] >= 10, tally
        for shape in range(3):
            assert tally[ring, shape, True] >= 3, tally
    assert tally["Z", 0, False] + tally["Z", 1, False] >= 3, tally


def test_bound_zero_over_z_still_decides_level_one():
    # S-pd over Z is 0 or 1, so bound 0 truncates nothing: 3 never kills
    # Z/2, and the free syzygy splits with s = 1
    res = z_s_pd(z_cyclic(2), z_multset("Z", [3]), bound=0)
    assert res.value == DimValue.exact(1)
    assert len(res.levels) == 2 and not res.levels[0].verdict
    cert = res.certificate
    assert cert is res.levels[1] and cert.s == 1 and cert.expression == "1"
    assert cert.section == ((1,),)


def test_split_rule_on_cyclic_prime_powers():
    # Ext^1 over Z/p^k of Z/p^j is killed exactly by p^min(j, k-j)
    for p in (2, 3):
        for k in range(1, 5):
            m = p ** k
            for j in range(k + 1):
                mod = z_module("Z_mod", [[p ** j]], m=m)
                need = p ** min(j, k - j)
                assert _split_modulus(mod) == need
                q = zmodules._structure(mod).q
                for s in range(m):
                    assert (old_section_solve(q, s, m) is not None) == (s % need == 0)


def test_diagonal_solve_matches_the_kron_solve_at_every_residue():
    # the closed form of the section, residue by residue, against the
    # kron system and the split modulus on non-cyclic modules
    rng = random.Random(1407)
    for m in (4, 8, 9, 12, 16, 18, 27, 36, 72, 100):
        tried = 0
        while tried < 3:
            mod = random_z_module(rng, ring="Z_mod", m=m, max_gens=3, span=m)
            free, tors = mod.structure()
            if free + len(tors) < 2:
                continue
            tried += 1
            lattice = zmodules._structure(mod)
            diag = lattice.diag
            need = _split_modulus(mod)
            for s in range(m):
                ys = _diagonal_solve(diag, s, m)
                assert (ys is not None) == (old_section_solve(lattice.q, s, m) is not None)
                assert (ys is not None) == (s % need == 0)
                if ys is not None:
                    assert all((s * d + d * y * d) % m == 0 for d, y in zip(diag, ys))


def test_orbit_test_and_section_solve_must_agree(monkeypatch):
    # Z/2 over Z/4 needs s divisible by 2; claim every s splits
    monkeypatch.setattr(zmodules, "_split_modulus", lambda mod: 1)
    with pytest.raises(InternalInvariantViolation, match="disagree"):
        z_s_pd(z_module("Z_mod", [[2]], m=4), z_multset("Z_mod", [3], m=4))


def zmod_walk_oracle(mod, s_set, bound):
    """The Z/m syzygy walk: every syzygy lattice up to the bound, built
    first, then one section solve per candidate s per level."""
    m, g = mod.m, mod.generators
    order, paths = old_monoid_orbit(s_set.generators, m)
    lattices = [oracle.relation_lattice(mod)]
    for _ in range(bound):
        lattices.append(oracle.solution_lattice(
            lattices[-1], [[m if i == j else 0 for j in range(g)] for i in range(g)]))
    levels = []
    for level, q in enumerate(lattices):
        for s in order:
            phi = old_section_solve(q, s, m)
            if phi is not None:
                levels.append(ZSplitWitness(s, _product_expression(paths[s]), phi))
                return DimValue.exact(level), tuple(levels)
        levels.append(ZSplitWitness(None, None, None, tuple(order)))
    return DimValue.over(bound), tuple(levels)


def test_zmod_walk_never_certifies_past_level_zero():
    rng = random.Random(4242)
    tally = {True: 0, False: 0}
    for m in (4, 6, 8, 9, 12, 18, 27, 36):
        units = [u for u in range(2, m) if math.gcd(u, m) == 1]
        sharing = [u for u in range(2, m) if math.gcd(u, m) > 1]
        divisors = [d for d in range(2, m) if m % d == 0]
        for trial in range(12):
            if trial % 2:
                mod = random_z_module(rng, ring="Z_mod", m=m, span=m)
            else:
                # sums of cyclic Z/d with d | m: mostly not projective
                orders = [rng.choice(divisors) for _ in range(rng.randint(1, 2))]
                mod = z_module_from_factors("Z_mod", m, rng.randint(0, 1), orders)
            pool = units if trial % 4 < 2 else sharing + units
            gens = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
            s_set = z_multset("Z_mod", gens, m=m)
            bound = rng.randint(0, 3)
            res = z_s_pd(mod, s_set, bound)
            value, walk = zmod_walk_oracle(mod, s_set, bound)
            assert value in (DimValue.exact(0), DimValue.over(bound))
            assert res.value == value
            assert len(res.levels) == 1 and res.levels[0].verdict == walk[0].verdict
            level0 = res.levels[0]
            assert witness_fields(res.levels)[0] == \
                least_power_fields(s_set.generators, _split_modulus(mod), m)
            if level0.verdict:
                # the per-candidate solve of the old walk accepts the witness
                q = oracle.relation_lattice(mod)
                assert old_section_solve(q, level0.s, m) is not None
            assert_levels_verify(mod, res.levels)
            tally[value.known] += 1
    assert tally[True] >= 20 and tally[False] >= 20


def test_zmod_infinite_answers_keep_their_stall_factor():
    # a failed level 0 keeps the factor E' > 1 of the split modulus E at
    # which the gcd loop stalled: prime to every generator, so to every s
    # in S, it certifies that no s is divisible by E
    rng = random.Random("stall-factor")
    cases = [(z_module("Z_mod", [[2]], m=2 ** 64), z_multset("Z_mod", [3, 5], m=2 ** 64))]
    for m in (4, 8, 9, 12, 18, 36, 72, 100):
        units = [u for u in range(2, m) if math.gcd(u, m) == 1]
        sharing = [u for u in range(2, m) if math.gcd(u, m) > 1]
        divisors = [d for d in range(2, m) if m % d == 0]
        for trial in range(16):
            if trial % 2:
                mod = random_z_module(rng, ring="Z_mod", m=m, span=m)
            else:
                orders = [rng.choice(divisors) for _ in range(rng.randint(1, 2))]
                mod = z_module_from_factors("Z_mod", m, rng.randint(0, 1), orders)
            pool = units if trial % 4 < 2 else sharing + units
            gens = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
            cases.append((mod, z_multset("Z_mod", gens, m=m)))
    infinite = 0
    for mod, s_set in cases:
        (level0,) = z_s_pd(mod, s_set).levels
        if level0.verdict:
            assert level0.stall is None
            continue
        stall = level0.stall
        assert stall > 1 and _split_modulus(mod) % stall == 0
        assert all(math.gcd(stall, g) == 1 for g in s_set.generators)
        infinite += 1
    assert z_s_pd(*cases[0]).levels[0].stall == 2
    assert infinite >= 40, infinite


def test_spd_over_zmod_frozen():
    mod, s_set = z_module("Z_mod", [[2]], m=4), z_multset("Z_mod", [3], m=4)
    res = z_s_pd(mod, s_set)
    assert res.value == DimValue.over(8)
    assert len(res.levels) == 1
    assert not res.levels[0].verdict
    assert res.levels[0].attempted == (1,)  # t = 1: 3 is a unit mod 4
    # the old walk fails at all nine levels 0..8 on the way to the same answer
    value, walk = zmod_walk_oracle(mod, s_set, 8)
    assert value == res.value
    assert len(walk) == 9 and all(not lvl.verdict for lvl in walk)
    res = z_s_pd(z_free("Z_mod", 1, m=4), z_multset("Z_mod", [3], m=4))
    assert res.value == DimValue.exact(0)
    # once some product of the generators hits 0 mod m everything splits
    res = z_s_pd(z_module("Z_mod", [[2]], m=8), z_multset("Z_mod", [2], m=8))
    assert res.value == DimValue.exact(0)


def test_spd_over_prime_modulus_is_zero():
    # Z/p is a field, so every module splits at level zero
    rng = random.Random(55)
    for p in (2, 3, 5):
        for _ in range(10):
            mod = random_z_module(rng, ring="Z_mod", m=p, span=p)
            res = z_s_pd(mod, z_multset("Z_mod", [p - 1], m=p), bound=3)
            assert res.value == DimValue.exact(0)


def test_spd_input_errors():
    with pytest.raises(InputError):
        z_s_pd(z_cyclic(2), z_multset("Z", [2]), bound=-1)
    with pytest.raises(RingMismatch):
        z_s_pd(z_cyclic(2), z_multset("Z_mod", [3], m=4))


# -- Ext ----------------------------------------------------------------------


def primary_parts(structure):
    free, tors = structure
    parts = []
    for d in tors:
        left = d
        q = 2
        while q * q <= left:
            while left % q == 0:
                power = q
                while left % (power * q) == 0:
                    power *= q
                parts.append(power)
                left //= power
            q += 1
        if left > 1:
            parts.append(left)
    return free, sorted(parts)


def test_ext_gcd_grid():
    for d in range(2, 13):
        for e in range(2, 13):
            g = math.gcd(d, e)
            want = (0, (g,)) if g > 1 else (0, ())
            assert z_ext(z_cyclic(d), z_cyclic(e), 0).structure() == want
            assert z_ext(z_cyclic(d), z_cyclic(e), 1).structure() == want


def test_ext_z_frozen():
    assert z_ext(z_cyclic(4), z_cyclic(6), 1).structure() == (0, (2,))
    assert z_ext(z_free("Z", 1), z_cyclic(5), 1).is_zero()
    assert z_ext(z_cyclic(4), z_cyclic(6), 2).is_zero()
    assert z_ext(z_free("Z", 2), z_free("Z", 3), 0).structure() == (6, ())
    # Hom(Z/d, Z) = 0 but Hom(Z, Z/d) = Z/d
    assert z_ext(z_cyclic(4), z_free("Z", 1), 0).is_zero()
    assert z_ext(z_free("Z", 1), z_cyclic(4), 0).structure() == (0, (4,))


def test_ext_zmod_periodic():
    half = z_module("Z_mod", [[2]], m=4)
    for n in range(6):
        assert z_ext(half, half, n).structure() == (0, (2,))
    result = z_ext(half, half, 2)
    assert result.ring == "Z_mod" and result.m == 4


def test_ext_over_prime_modulus():
    # semisimple case: higher Ext vanishes, Hom has order p^(dim*dim)
    v = z_free("Z_mod", 2, m=3)
    w = z_free("Z_mod", 1, m=3)
    assert z_ext(v, w, 1).is_zero()
    assert z_ext(v, w, 3).is_zero()
    assert z_ext(v, w, 0).structure() == (0, (3, 3))


def test_ext_additive_in_first_argument():
    rng = random.Random(606)
    for _ in range(25):
        a = random_z_module(rng, max_gens=2, max_rels=2, span=4)
        b = random_z_module(rng, max_gens=2, max_rels=2, span=4)
        c = random_z_module(rng, max_gens=2, max_rels=2, span=4)
        for n in (0, 1):
            whole = z_ext(z_direct_sum(a, b), c, n).structure()
            left = z_ext(a, c, n).structure()
            right = z_ext(b, c, n).structure()
            merged = (left[0] + right[0], tuple(sorted(left[1] + right[1])))
            assert primary_parts(whole) == primary_parts(merged)


def test_ext_errors():
    with pytest.raises(RingMismatch):
        z_ext(z_cyclic(2), z_free("Z_mod", 1, m=4), 1)
    with pytest.raises(InputError):
        z_ext(z_cyclic(2), z_cyclic(2), -1)


def test_ext_matches_the_lattice_oracle_on_random_presentations():
    # the closed form against the lattice resolutions, as whole modules
    rng = random.Random(1501)
    tally = Counter()
    moduli = (2, 3, 4, 6, 8, 9, 12, 16, 18, 27, 30, 36, 72, 100)
    for ring, m in [("Z", None)] + [("Z_mod", m) for m in moduli]:
        for trial in range(60 if ring == "Z" else 20):
            draw = random_z_module if trial % 3 == 0 else scrambled_z_module
            a, b = (draw(rng, ring=ring, m=m) for _ in range(2))
            for degree in range(5):
                got = z_ext(a, b, degree)
                assert got == oracle.lattice_z_ext(a, b, degree), (a, b, degree)
                tally[ring, degree, got.is_zero()] += 1
    # squarefree m (2, 3, 6, 30) is a product of fields: no higher Ext
    nonzero = [("Z", 0), ("Z", 1)] + [("Z_mod", degree) for degree in range(5)]
    assert min(tally[ring, degree, False] for ring, degree in nonzero) >= 15, tally


def test_ext_matches_the_lattice_oracle_on_every_cyclic_pair():
    # every Z/d, Z/e with d, e | m (Z/1 = 0, Z/m free) in degrees 0-5:
    # the periodic resolution gives one order for odd and even degrees
    for m in range(2, 37):
        divisors = [d for d in range(1, m + 1) if m % d == 0]
        for d, e in product(divisors, divisors):
            a, b = z_module("Z_mod", [[d]], m=m), z_module("Z_mod", [[e]], m=m)
            want = [oracle.lattice_z_ext(a, b, degree) for degree in range(6)]
            assert all(w == want[1] for w in want[1:]), (m, d, e)
            assert [z_ext(a, b, degree) for degree in range(6)] == want, (m, d, e)


def test_invariant_factors_match_the_smith_form_of_the_diagonal():
    rng = random.Random(1502)
    cases = [[], [1], [1, 1], [4, 4, 4], [2, 3], [4, 9, 25], [8, 4, 2, 1], [6, 10, 15],
             [12, 18, 1, 12]]
    pool = [1, 2, 3, 4, 5, 7, 8, 9, 12, 25, 27, 30, 49, 72]
    cases += [[rng.choice(pool) for _ in range(rng.randrange(7))] for _ in range(300)]
    for orders in cases:
        diag = [[orders[i] if i == j else 0 for j in range(len(orders))]
                for i in range(len(orders))]
        assert (0, _invariant_factors(orders)) == oracle.cokernel_invariants(diag), orders


def test_ext_reads_one_smith_form_per_module(monkeypatch):
    # cold: one Smith form per distinct relation lattice; warm: none
    calls = []
    snf = intmat.smith_normal_form
    monkeypatch.setattr(intmat, "smith_normal_form", lambda a: calls.append(1) or snf(a))
    rng = random.Random(1503)
    for ring, m in (("Z", None), ("Z_mod", 12), ("Z_mod", 8)):
        for trial in range(30):
            a = random_z_module(rng, ring=ring, m=m, span=m or 6)
            # an equal copy shares the cache entry of a
            b = ZMod(ring, m, a.rows) if trial % 5 == 0 else \
                random_z_module(rng, ring=ring, m=m, span=m or 6)
            for degree in range(4):
                zmodules._structure.cache_clear()
                calls.clear()
                z_ext(a, b, degree)
                assert len(calls) == len({a, b})
                calls.clear()
                z_ext(a, b, degree)
                assert not calls


# -- factor ring comparison ---------------------------------------------------


def test_factor_ring_frozen_examples():
    report = factor_ring_check(3, z_free("Z_mod", 1, m=3), z_multset("Z", [2]))
    assert isinstance(report, FactorRingReport)
    assert report.verdict == "pass"
    assert report.z_result.value == DimValue.exact(1)
    assert report.bar_result.value == DimValue.exact(0)
    report = factor_ring_check(5, z_free("Z_mod", 2, m=5), z_multset("Z", [2, 3]))
    assert report.verdict == "pass"
    report = factor_ring_check(4, z_module("Z_mod", [[2]], m=4), z_multset("Z", [3]))
    assert report.verdict == "vacuous"
    assert not report.bar_result.value.known
    assert report.ok


def test_factor_ring_uniformly_torsion_module_is_inapplicable():
    # Z/3 over Z/18 is killed by 3 in S = <3>, so it is S-isomorphic to 0,
    # and 18 divides no power of 3
    mod = z_module("Z_mod", [[3]], m=18)
    assert mod.structure() == (0, (3,))
    report = factor_ring_check(18, mod, z_multset("Z", [3]))
    assert report.verdict == "inapplicable"
    assert report.statement.startswith("uniformly S-torsion module: ")
    assert report.ok
    zero = factor_ring_check(3, z_module("Z_mod", [[1]], m=3), z_multset("Z", [2]))
    assert zero.verdict == "inapplicable"
    assert zero.statement.startswith("zero module: ")


def test_factor_ring_checks_reduce_their_module_once(monkeypatch):
    # Z/3 as a Z/9-module and as a Z-module share one relation lattice,
    # so one Smith form serves both structures; S = <2> splits neither
    # side, so no section is solved
    calls = []
    snf = intmat.smith_normal_form
    monkeypatch.setattr(intmat, "smith_normal_form",
                        lambda a: calls.append(intmat.shape(a)) or snf(a))
    zmodules._structure.cache_clear()
    mod, s_set = z_module("Z_mod", [[3]], m=9), z_multset("Z", [2])
    rep = factor_ring_check(9, mod, s_set)
    assert str(rep.bar_result.value) == ">8" and rep.z_result.value == DimValue.exact(1)
    assert len(calls) == 1
    # change of rings adds only the Smith form of Z/9 itself
    calls.clear()
    zmodules._structure.cache_clear()
    change_of_rings_check(9, mod, s_set)
    assert len(calls) == 2


def test_factor_ring_checks_build_the_z_view_once(monkeypatch):
    # the Z view of a Z/a-module is read from its cache entry: built once
    # on a cold cache, never on a warm one
    calls = []
    as_z = zmodules._as_z_module
    monkeypatch.setattr(zmodules, "_as_z_module",
                        lambda mod: calls.append(mod) or as_z(mod))
    rng = random.Random(1601)
    for a in (3, 4, 9, 12):
        for _ in range(5):
            mod = random_z_module(rng, ring="Z_mod", m=a, span=a)
            s_set = z_multset("Z", [rng.choice([5, 7, 11])])
            for check in (factor_ring_check, change_of_rings_check):
                zmodules._structure.cache_clear()
                calls.clear()
                cold = check(a, mod, s_set)
                assert calls == [mod]
                calls.clear()
                assert check(a, mod, s_set) == cold
                assert not calls


def spy_smith_forms(monkeypatch):
    """The matrices intmat.smith_normal_form is called on, as tuples."""
    seen = []
    snf = intmat.smith_normal_form
    monkeypatch.setattr(intmat, "smith_normal_form",
                        lambda a: seen.append(zmodules._frozen(a)) or snf(a))
    return seen


def test_one_smith_form_per_question(monkeypatch):
    # one Smith form per presentation and no other lattice step: the
    # structure, the split modulus and the section all read one entry
    assert not hasattr(intmat, "column_lattice_basis")
    seen = spy_smith_forms(monkeypatch)

    def smith_forms(call):
        seen.clear()
        call()
        return len(seen)

    rows = [[2, 4], [6, 3]]
    mod12, modz = z_module("Z_mod", rows, m=12), z_module("Z", rows)
    s_set = z_multset("Z", [5, 2])
    questions = [
        # both searches split, so each builds a section
        (lambda: z_s_pd(mod12, z_multset("Z_mod", [5, 2], m=12)), 1),
        (lambda: z_s_pd(modz, z_multset("Z", [2, 9])), 1),
        (lambda: factor_ring_check(12, mod12, s_set), 1),
        (lambda: change_of_rings_check(12, mod12, s_set), 2),
    ]
    for call, want in questions:
        zmodules._structure.cache_clear()
        assert smith_forms(call) == want
        assert smith_forms(call) == 0
        zmodules._structure.cache_clear()
        assert smith_forms(call) == want
    assert z_s_pd(modz, z_multset("Z", [2, 9])).certificate.s == 18


def test_structure_takes_the_smith_form_of_the_presentation(monkeypatch):
    # the matrix handed to the Smith form is the presentation over Z
    # itself (ring relations appended over Z/m), once per distinct one
    seen = spy_smith_forms(monkeypatch)
    rng = random.Random(2301)
    for ring, m in (("Z", None), ("Z_mod", 4), ("Z_mod", 12), ("Z_mod", 18)):
        mods = [random_z_module(rng, ring=ring, m=m, span=m or 8) for _ in range(12)]
        mods += mods[:4]
        zmodules._structure.cache_clear()
        seen.clear()
        for mod in mods:
            mod.structure()
        views = [mod if ring == "Z" else zmodules._as_z_module(mod) for mod in mods]
        assert seen == list(dict.fromkeys(view.rows for view in views))


def test_cache_entries_are_immutable():
    rng = random.Random(1408)
    for ring, m in (("Z", None), ("Z_mod", 12), ("Z_mod", 8)):
        for _ in range(6):
            mod = random_z_module(rng, ring=ring, m=m, span=m or 6)
            s_set = z_multset(ring, [rng.choice([2, 3, 5])], m=m)
            zmodules._structure.cache_clear()
            lattice = zmodules._structure(mod)
            assert isinstance(lattice.diag, tuple)
            for mat in (lattice.q, lattice.u, lattice.v):
                assert isinstance(mat, tuple)
                assert all(isinstance(row, tuple) for row in mat)
            ext = z_ext(mod, mod, 1)
            zmodules._structure.cache_clear()
            spd = z_s_pd(mod, s_set)
            # the same calls on one warm entry give the cold answers
            zmodules._structure.cache_clear()
            assert z_ext(mod, mod, 1) == ext
            assert z_s_pd(mod, s_set) == spd


def test_factor_ring_divides_errors():
    with pytest.raises(DividesS, match="4 divides the product 2\\^2$"):
        factor_ring_check(4, z_module("Z_mod", [[2]], m=4), z_multset("Z", [2]))
    # no single generator is divisible by 6, but the product 2*3 is
    with pytest.raises(DividesS, match="6 divides the product 2\\*3$"):
        factor_ring_check(6, z_module("Z_mod", [[2]], m=6), z_multset("Z", [2, 3]))
    # 12 divides 6^2 = 36, and 7 is a unit mod 12
    with pytest.raises(DividesS, match="12 divides the product 6\\^2$"):
        factor_ring_check(12, z_module("Z_mod", [[2]], m=12), z_multset("Z", [7, 6]))
    with pytest.raises(InputError):
        factor_ring_check(1, z_module("Z_mod", [[2]], m=4), z_multset("Z", [3]))
    with pytest.raises(RingMismatch):
        factor_ring_check(3, z_module("Z_mod", [[2]], m=4), z_multset("Z", [2]))
    with pytest.raises(RingMismatch):
        factor_ring_check(4, z_module("Z_mod", [[2]], m=4),
                          z_multset("Z_mod", [3], m=4))


def test_factor_ring_sweep():
    rng = random.Random(777)
    for a in (3, 5, 7):
        for gens in ((2,), (2, 3)):
            if any(g % a == 0 for g in gens):
                continue
            for _ in range(12):
                mod = random_z_module(rng, ring="Z_mod", m=a, span=a)
                report = factor_ring_check(a, mod, z_multset("Z", gens))
                if mod.is_zero():
                    assert report.verdict == "inapplicable"
                else:
                    assert report.verdict == "pass", report.statement


# -- change of rings ----------------------------------------------------------


def test_change_of_rings_z_to_zmod():
    report = change_of_rings_check(3, z_free("Z_mod", 1, m=3), z_multset("Z", [2]))
    assert report.verdict == "pass"
    assert report.pair == "Z->Z/3"
    assert report.lhs.value == DimValue.exact(1)
    assert report.mid.value == DimValue.exact(0)
    assert report.rhs.value == DimValue.exact(1)
    rng = random.Random(13)
    for a in (3, 4, 5, 9):
        for _ in range(8):
            mod = random_z_module(rng, ring="Z_mod", m=a, span=a)
            gens = tuple(rng.choice([g for g in (2, 3, 5, 7) if g % a])
                         for _ in range(rng.randrange(1, 3)))
            report = change_of_rings_check(a, mod, z_multset("Z", gens), bound=4)
            assert report.verdict in ("pass", "vacuous"), report.statement


def test_change_of_rings_finite_quotient():
    ring = product_ring()
    ideals = enumerate_ideals(ring).ideals
    kill = next(i for i in ideals if i.label() == "(e2, f)")
    data = quotient_algebra(ring, kill)
    s = mult_closure(ring, [ring.element([1, 0, 0])])
    report = change_of_rings_check(data, regular_module(data.algebra), s)
    assert report.pair == "finite-quotient"
    assert report.verdict == "pass"
    assert report.lhs.value == DimValue.exact(0)
    assert report.mid.value == DimValue.exact(0)
    assert report.rhs.value == DimValue.exact(0)
    # quotient by the zero ideal is the identity map
    zero = next(i for i in ideals if i.fdim == 0)
    data0 = quotient_algebra(ring, zero)
    report = change_of_rings_check(data0, regular_module(data0.algebra), s, bound=4)
    assert report.verdict == "pass"


def test_change_of_rings_errors():
    with pytest.raises(UnsupportedPair):
        change_of_rings_check("Z->Q", z_cyclic(2), z_multset("Z", [2]))
    with pytest.raises(UnsupportedPair):
        change_of_rings_check(True, z_cyclic(2), z_multset("Z", [2]))
    with pytest.raises(DividesS):
        change_of_rings_check(4, z_module("Z_mod", [[2]], m=4), z_multset("Z", [4]))
    with pytest.raises(RingMismatch):
        change_of_rings_check(3, z_module("Z_mod", [[2]], m=4), z_multset("Z", [2]))
    # a product of generators may die in the quotient without blocking the
    # comparison: the induced set then reaches 0 and the middle term drops to 0
    report = change_of_rings_check(4, z_module("Z_mod", [[2]], m=4), z_multset("Z", [2]))
    assert report.verdict == "pass"
    assert report.mid.value == DimValue.exact(0)
    ring = product_ring()
    zero = next(i for i in enumerate_ideals(ring).ideals if i.fdim == 0)
    data = quotient_algebra(ring, zero)
    with pytest.raises(UnsupportedPair):
        change_of_rings_check(data, z_cyclic(2), z_multset("Z", [2]))


# -- wire format --------------------------------------------------------------


def test_zmod_spec_roundtrip():
    mod = z_module("Z_mod", [[2, 0], [1, 3]], m=6)
    doc = z_module_to_spec(mod)
    assert doc == {"kind": "z_presentation", "ring": "Z_mod", "m": 6,
                   "matrix": [[2, 0], [1, 3]]}
    assert z_module_from_spec(doc) == mod
    free = z_module_to_spec(z_free("Z", 2))
    assert free["m"] is None
    assert z_module_from_spec(free) == z_free("Z", 2)


def test_zmod_spec_errors():
    with pytest.raises(InputError, match="kind"):
        z_module_from_spec({"kind": "matrix"})
    with pytest.raises(InputError, match="ring"):
        z_module_from_spec({"kind": "z_presentation", "ring": "Q", "m": None,
                            "matrix": []})
    with pytest.raises(InputError, match=r"matrix\[0\]\[1\]"):
        z_module_from_spec({"kind": "z_presentation", "ring": "Z", "m": None,
                            "matrix": [[1, True]]})
    with pytest.raises(InputError, match="module"):
        z_module_from_spec({"kind": "z_presentation", "ring": "Z", "m": None,
                            "matrix": [[1], [2, 3]]})


def test_multset_spec_roundtrip():
    s = z_multset("Z", [2, 3])
    assert z_multset_to_spec(s) == {"generators": [2, 3]}
    assert z_multset_from_spec({"generators": [2, 3]}) == s
    back = z_multset_from_spec({"generators": [3]}, ring="Z_mod", m=4)
    assert back == z_multset("Z_mod", [3], m=4)
    with pytest.raises(InputError, match="generators"):
        z_multset_from_spec({})
    with pytest.raises(InputError, match=r"generators\[0\]"):
        z_multset_from_spec({"generators": ["2"]})
