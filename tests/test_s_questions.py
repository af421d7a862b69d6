"""The S-questions against the per-s systems they replaced.

Each S-question used to ask for the first s in S, in canonical order,
that makes a condition linear in s hold.  The questions now solve once
against the d basis elements of R (gfmat.solve_span) and test the one
element e_S of S (rings docstring).  The oracles below are the code as
it was before: one right-hand side per member of S, or a loop over S,
and first_member, the scan that picked the witness.  Verdicts,
witnesses, families and inverse witnesses must agree byte for byte on
seeded pool draws, the degenerate S and the zero module included; in
the constructors' bases, which list idempotents first, e_S is the first
member of S that works.  A failure is now certified by e_S alone, so
the failure lists are compared with the oracle's entry for e_S.  The
split search has its own per-s oracle, kron_search in
test_split_search.py.
"""

import random
from collections import Counter

import numpy as np
import pytest
from conftest import (
    degenerate_multset,
    inverse,
    mat,
    product_ring,
    quotient_module,
    square_zero_ring,
)

from srelhom import gfmat, rings
from srelhom.dimensions import (
    is_s_semisimple,
    s_gldim,
    s_id,
    s_pd,
    split_witness_from_retraction,
)
from srelhom.errors import InputError
from srelhom.instances import (
    bundled_rings,
    random_module,
    random_multset,
    random_s_exact_triple,
    random_s_iso,
    random_split_triple,
    s_torsion_module,
)
from srelhom.modules import (
    Module,
    ModuleMap,
    _intertwining_rows,
    cap_chain,
    direct_sum,
    free_module,
    is_s_isomorphism,
    is_uniformly_s_torsion,
    quotient_by_columns,
    regular_module,
    s_exactness_check,
    s_iso_inverse,
    submodule_from_columns,
    zero_module,
)
from srelhom.rings import (
    MultSet,
    complement_multset,
    direct_product,
    enumerate_ideals,
    mult_closure,
    prime_field,
    radical_ideal,
    truncated_polynomial,
)

RINGS = dict(bundled_rings())
# not self-injective, so Hom has room for more than one inverse witness
SQUARE_ZERO = {"F2[x,y]/(x,y)^2": square_zero_ring(),
               "F2[x,y]/(x,y)^2 x F2": direct_product(square_zero_ring(), prime_field(2)),
               "F2[x,y]/(x,y)^2 x F2[t]/(t^2)": direct_product(square_zero_ring(),
                                                               truncated_polynomial(2, 2))}


def first_member(s_set, w, target=0):
    """Index of the first member s, in canonical order, with
    w @ s = target mod p, or None: the scan that picked every witness
    before e_S did."""
    for rows in rings._row_blocks(len(s_set), len(w)):
        misses = ((s_set.vectors[rows] @ w.T - target) % s_set.ring.p).any(axis=1)
        if not misses.all():
            return rows.start + int(misses.argmin())
    return None


def actions_of(mod, elements):
    """Action matrices of several ring elements, stacked on the first axis."""
    s_vecs = np.array([s.vec for s in elements], dtype=np.int64)
    return np.einsum("si,iab->sab", s_vecs, mod.actions) % mod.ring.p


def oracle_torsion(mod, s_set):
    failures = []
    for s in s_set:
        act = mod.action_of(s)
        if not act.any():
            return True, s, ()
        failures.append((s, int(np.nonzero(act.any(axis=0))[0][0])))
    return False, None, tuple(failures)


def oracle_exactness(maps, s_set):
    p = maps[0].ring.p
    elements = tuple(s_set)
    witnesses = []
    for incoming, outgoing in zip(maps, maps[1:]):
        mod = outgoing.source
        ker = gfmat.nullspace(outgoing.matrix, p)
        img = gfmat.column_space(incoming.matrix, p)
        acts = actions_of(mod, elements)
        moved_ker = np.concatenate((acts @ ker) % p, axis=1)
        ker_in_img = gfmat.solve_each(img, moved_ker, p)[0].reshape(
            len(elements), ker.shape[1]).all(axis=1)
        img_in_ker = ~((outgoing.matrix @ ((acts @ img) % p)) % p).any(axis=(1, 2))
        hits = np.flatnonzero(ker_in_img & img_in_ker)
        witnesses.append(elements[hits[0]] if hits.size else None)
    return witnesses


def oracle_iso_inverse(f, s_set):
    src, tgt = f.source, f.target
    p = f.ring.p
    m, n = src.vdim, tgt.vdim
    elements = tuple(s_set)
    system = np.vstack([_intertwining_rows(tgt, src),
                        np.kron(f.matrix, gfmat.identity(n)) % p,
                        np.kron(gfmat.identity(m), f.matrix.T) % p])
    want = np.vstack([gfmat.zeros(f.ring.dim * m * n, len(elements)),
                      actions_of(tgt, elements).reshape(len(elements), n * n).T,
                      actions_of(src, elements).reshape(len(elements), m * m).T])
    ok, sols = gfmat.solve_each(system, want, p)
    k = int(np.argmax(ok))
    return sols[:, k].reshape(m, n), elements[k]


def oracle_retraction(f, retraction, s_set):
    comp = retraction.compose(f)
    tried = []
    for s in s_set:
        if np.array_equal(comp.matrix, f.source.action_of(s)):
            return s, tuple(tried)
        tried.append(s)
    return None, tuple(tried)


def oracle_gldim_witness(ring, s_set):
    rad = ring.radical_basis()
    return next((s for s in s_set
                 if not ((ring.left_mul_matrix(s.vec) @ rad) % ring.p).any()), None)


def oracle_semisimple(ring, s_set):
    """(s, family, failures) with ideals named by their keys."""
    p = ring.p
    ideals = enumerate_ideals(ring)
    elements = tuple(s_set)
    s_vecs = np.array([s.vec for s in elements], dtype=np.int64)
    solvable, solutions = [], []
    for ideal in ideals:
        basis, k = ideal.basis, ideal.fdim
        mults = np.einsum("aj,abc->jcb", basis, ring.table) % p
        coeff = (mults @ basis).reshape(k * ring.dim, k) % p
        rhs = (mults @ s_vecs.T).reshape(k * ring.dim, len(elements)) % p
        ok, x = gfmat.solve_each(coeff, rhs, p)
        solvable.append(ok)
        solutions.append((basis @ x) % p)
    failures = []
    for col, s in enumerate(elements):
        blocker = next((ideal for ideal, ok in zip(ideals, solvable)
                        if not ok[col]), None)
        if blocker is not None:
            failures.append((s, blocker.key()))
            continue
        family = [(ideal.key(), ring.element(ys[:, col]))
                  for ideal, ys in zip(ideals, solutions)]
        return s, family, failures
    return None, [], failures


def multsets(ring, rng):
    """{1}, a degenerate set, every maximal-ideal complement and two
    random closures."""
    sets = [mult_closure(ring, []), degenerate_multset(ring)]
    sets += [complement_multset(ring, m) for m in enumerate_ideals(ring).maximals]
    sets += [random_multset(ring, rng) for _ in range(2)]
    return sets


def assert_same_matrix(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", list(RINGS))
def test_uniform_torsion_matches_the_loop_over_s(name):
    ring = RINGS[name]
    rng = random.Random("torsion-oracle:%s" % name)
    verdicts = set()
    for s_set in multsets(ring, rng):
        s = s_set.elements[rng.randrange(len(s_set))]
        modules = [zero_module(ring), free_module(ring, 2), random_module(ring, rng),
                   s_torsion_module(ring, s, rng)]
        for mod in modules:
            got = is_uniformly_s_torsion(mod, s_set)
            verdict, witness, failures = oracle_torsion(mod, s_set)
            assert (got.verdict, got.witness) == (verdict, witness)
            e = s_set.idempotent
            assert got.failures == (() if verdict else ((e, dict(failures)[e]),))
            verdicts.add(got.verdict)
    assert verdicts == {True, False}


def test_torsion_failures_name_the_first_column_not_killed():
    # R/(e1) + R/(e2) over F2 x F2[t]/(t^2), with the first basis vector
    # moved to b_0 + b_2: e_S = e1, the idempotent power of e1 + f, then
    # sends b_2 to b_0 + b_2, so its first nonzero column (2) and row (0)
    # differ
    ring = product_ring()
    s_set = mult_closure(ring, [[1, 0, 1]])
    summed, _, _ = direct_sum(quotient_module(ring, [[1, 0, 0]]),
                              quotient_module(ring, [[0, 1, 0]]))
    move = mat([[1, 0, 1], [0, 1, 0], [0, 0, 1]], 2)
    mod = Module(ring, move @ summed.actions @ move % 2)
    assert s_set.idempotent.label() == "e1"
    assert np.flatnonzero(mod.action_of(s_set.idempotent).any(axis=1))[0] == 0
    got = is_uniformly_s_torsion(mod, s_set)
    assert [(s.label(), col) for s, col in got.failures] == [("e1", 2)]
    assert dict(oracle_torsion(mod, s_set)[2])[s_set.idempotent] == 2


@pytest.mark.parametrize("name", list(RINGS))
def test_exactness_witnesses_match_the_per_s_system(name):
    ring = RINGS[name]
    rng = random.Random("exactness-oracle:%s" % name)
    z = zero_module(ring)
    found = set()
    free = free_module(ring, 1)
    for s_set in multsets(ring, rng):
        chains = [cap_chain(list(random_s_exact_triple(ring, s_set, rng))),
                  cap_chain(list(random_s_exact_triple(ring, mult_closure(ring, []), rng))),
                  [ModuleMap.zero(z, free), ModuleMap.zero(free, z)],
                  [ModuleMap.zero(z, z), ModuleMap.zero(z, z)]]
        for chain in chains:
            got = s_exactness_check(chain, s_set).witnesses()
            assert got == oracle_exactness(chain, s_set)
            found.update(w is None for w in got)
    assert found == {True, False}


def test_exactness_solves_against_the_incoming_map_itself(monkeypatch):
    # a matrix and a basis of its column space have the same left null
    # space, so the check needs no basis of the image
    rng = random.Random("exactness-no-basis")
    cases = []
    for ring in RINGS.values():
        for s_set in multsets(ring, rng)[:3]:
            for triple in (random_s_exact_triple(ring, s_set, rng),
                           random_split_triple(ring, s_set, rng)[:2]):
                chain = cap_chain(list(triple))
                cases.append((chain, s_set, oracle_exactness(chain, s_set)))

    def no_basis(*args):
        raise AssertionError("s_exactness_check asked for a column-space basis")

    monkeypatch.setattr(gfmat, "column_space", no_basis)
    for chain, s_set, want in cases:
        assert s_exactness_check(chain, s_set).witnesses() == want


@pytest.mark.parametrize("name", list(RINGS) + list(SQUARE_ZERO))
def test_inverse_witness_matches_the_per_s_system(name):
    ring = {**RINGS, **SQUARE_ZERO}[name]
    rng = random.Random("inverse-oracle:%s" % name)
    z = zero_module(ring)
    for s_set in multsets(ring, rng):
        maps = [random_s_iso(ring, s_set, rng)[0] for _ in range(3)]
        maps.append(ModuleMap.zero(z, z))
        if s_set.degenerate:
            # S kills R only when 0 is in S
            maps.append(ModuleMap.zero(z, free_module(ring, 1)))
        for f in maps:
            inv, s = s_iso_inverse(f, s_set)
            want_matrix, want_s = oracle_iso_inverse(f, s_set)
            assert s == want_s
            assert_same_matrix(inv.matrix, want_matrix)


def random_invertible(n, p, rng):
    while True:
        m = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)],
                     dtype=np.int64).reshape(n, n)
        if gfmat.rank(m, p) == n:
            return m


def in_random_bases(f, rng):
    """f: M -> N with M and N in random bases."""
    p = f.ring.p
    moved = []
    for mod in (f.source, f.target):
        change = random_invertible(mod.vdim, p, rng)
        back = inverse(change, p) if mod.vdim else change
        moved.append((Module(f.ring, change @ mod.actions @ back % p), change, back))
    (src, _, src_inv), (tgt, tgt_change, _) = moved
    return ModuleMap(src, tgt, tgt_change @ f.matrix @ src_inv % p)


def test_inverse_is_f_inverted_on_e_s_m_in_any_basis():
    # in a random basis e_S M need not be spanned by basis vectors, so a
    # solution Y of (f E_M) Y = E_N need not lie in e_S M; g = E_M Y does,
    # and it is the one R-linear map with image in e_S M that kills
    # (1 - e_S) N and has f g = E_N
    rng = random.Random("inverse-any-basis")
    off_axis = 0
    for ring in RINGS.values():
        p = ring.p
        for s_set in multsets(ring, rng):
            for _ in range(4):
                f = in_random_bases(random_s_iso(ring, s_set, rng)[0], rng)
                inv, s = s_iso_inverse(f, s_set)
                assert s == s_set.idempotent
                e_m, e_n = f.source.action_of(s), f.target.action_of(s)
                assert np.array_equal(inv.matrix @ f.matrix % p, e_m)
                assert np.array_equal(f.matrix @ inv.matrix % p, e_n)
                assert np.array_equal(e_m @ inv.matrix % p, inv.matrix)
                assert np.array_equal(inv.matrix @ e_n % p, inv.matrix)
                ModuleMap(f.target, f.source, inv.matrix)  # checks R-linearity
                y = gfmat.solve(f.matrix @ e_m % p, e_n, p)
                off_axis += not np.array_equal(e_m @ y % p, y)
    assert off_axis


@pytest.mark.parametrize("name", list(RINGS))
def test_retraction_certificate_matches_the_loop_over_s(name):
    ring = RINGS[name]
    rng = random.Random("retraction-oracle:%s" % name)
    outcomes = set()
    for s_set in multsets(ring, rng):
        for _ in range(3):
            f, _, retraction = random_split_triple(ring, s_set, rng)
            for r in (retraction, ModuleMap.zero(retraction.source, retraction.target)):
                s, attempted = oracle_retraction(f, r, s_set)
                if s is None:
                    with pytest.raises(InputError, match="not s Id"):
                        split_witness_from_retraction(f, r, s_set)
                else:
                    got = split_witness_from_retraction(f, r, s_set)
                    assert (got.s, got.attempted) == (s, attempted)
                outcomes.add(s is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("name", list(RINGS))
def test_gldim_and_semisimple_witnesses_match_the_per_s_systems(name):
    ring = RINGS[name]
    rng = random.Random("semisimple-oracle:%s" % name)
    for s_set in multsets(ring, rng):
        assert s_gldim(ring, s_set, trials=0).witness == oracle_gldim_witness(ring, s_set)
        rep = is_s_semisimple(ring, s_set)
        s, family, failures = oracle_semisimple(ring, s_set)
        assert (rep.verdict, rep.s) == (s is not None, s)
        assert [(ideal.key(), y) for ideal, y in rep.family] == family
        e = s_set.idempotent
        # a failure names rad R, which e_S does not kill, whatever ideal
        # blocked e_S first in the oracle's order
        assert (s is None) == (e in dict(failures))
        rad = ring.radical_basis()
        assert (s is None) == bool(ring.products(e.array[None], rad.T).any())
        want = [] if s is not None else [(e, radical_ideal(ring).key())]
        assert [(t, ideal.key()) for t, ideal in rep.failures] == want


@pytest.mark.parametrize("name", list(RINGS))
def test_e_s_decides_membership_as_first_member_did(name):
    # random W whose kernel is an ideal: a random row mix of the
    # equations of every ideal and of the annihilators of random modules
    ring = RINGS[name]
    p, d = ring.p, ring.dim
    rng = random.Random("membership-oracle:%s" % name)
    bases = []
    for ideal in enumerate_ideals(ring):
        bases.append(gfmat.complete_basis(ideal.basis, p)[1][ideal.fdim:])
    bases += [random_module(ring, rng).actions.reshape(d, -1).T for _ in range(6)]
    found = Counter()
    for s_set in multsets(ring, rng):
        e = s_set.idempotent
        for base in bases:
            while True:
                mix = np.array([[rng.randrange(p) for _ in base] for _ in base],
                               dtype=np.int64).reshape(len(base), len(base))
                if gfmat.rank(mix, p) == len(base):
                    break
            w = mix @ base % p
            k = first_member(s_set, w)
            assert (k is not None) == (not (w @ e.array % p).any())
            if k is not None:
                assert s_set.elements[k] == e
            found[k is not None] += 1
    assert set(found) == {True, False}


def unit_seeds(ring, count):
    """The units 1 + t^k, k = 1..count, of a truncated polynomial ring."""
    return [ring.element([1] + [int(n == k) for n in range(1, ring.dim)])
            for k in range(1, count + 1)]


def refuse_enumeration(monkeypatch):
    def refuse(self):
        raise AssertionError("an S-question listed the members of S")

    monkeypatch.setattr(MultSet, "elements", property(refuse))


def s_question_cases(big):
    """(S, k, exact chain, projection) over R = F2[t]/(t^big) with 8 unit
    seeds, where e_S = 1, and over R x F2 with the idempotent seed of
    the F2 factor, where e_S = (0, 1).  k is the residue field of
    F2[t]/(t^big) as an R-module, and the chain and the projection are
    those of R onto R/(t), and of R x F2 onto F2."""
    poly = truncated_polynomial(2, big)
    prod = direct_product(poly, prime_field(2))
    cases = []
    for ring, seeds, kernel in ((poly, unit_seeds(poly, 8), slice(1, big)),
                                (prod, [prod.basis_element(big)], slice(0, big))):
        reg, eye = regular_module(ring), np.eye(ring.dim, dtype=np.int64)
        k = quotient_by_columns(reg, eye[:, 1:])[0]
        _, incl = submodule_from_columns(reg, eye[:, kernel])
        _, proj, _ = quotient_by_columns(reg, eye[:, kernel])
        cases.append((mult_closure(ring, seeds), k, cap_chain([incl, proj]), proj))
    return cases


def test_s_questions_list_no_member_of_s(monkeypatch):
    # F2[t]/(t^17) has 2^17 elements; 8 unit seeds generate 2^12 of them
    cases = s_question_cases(17)
    refuse_enumeration(monkeypatch)
    for (s_set, k, chain, proj), killed in zip(cases, (False, True)):
        ring, e = s_set.ring, s_set.idempotent
        assert e == (ring.basis_element(17) if killed else ring.one)
        for walk in (s_pd, s_id):
            assert walk(k, s_set).value.known == killed
            assert walk(regular_module(ring), s_set).certificate.s == e
        got = is_uniformly_s_torsion(k, s_set)
        assert (got.verdict, got.witness) == (killed, e if killed else None)
        assert got.failures == (() if killed else ((e, 0),))
        assert s_exactness_check(chain, s_set).witnesses() == [e] * 3
        assert is_s_isomorphism(proj, s_set).verdict == killed
        iso = proj if killed else ModuleMap.identity(k)
        inv, s = s_iso_inverse(iso, s_set)
        assert s == e
        assert np.array_equal(inv.matrix @ iso.matrix % 2, iso.source.action_of(e))
        assert np.array_equal(iso.matrix @ inv.matrix % 2, iso.target.action_of(e))
        gl = s_gldim(ring, s_set, trials=0)
        assert (gl.candidate.known, gl.witness) == (killed, e if killed else None)
        # e_S = 1 does not kill rad R, which answers "no" on rad R alone;
        # "yes" needs the family over the ideal lattice, which is listed
        # only for rings of at most 2^16 elements
        if killed:
            with pytest.raises(InputError, match="ring too large to enumerate"):
                is_s_semisimple(ring, s_set)
        else:
            rep = is_s_semisimple(ring, s_set)
            (s, rad), = rep.failures
            assert not rep.verdict and s == e
            assert np.array_equal(rad.basis, ring.radical_basis()) and rad.is_maximal
    # the split questions that need no system: X = 0, and 0 in S
    units, k = cases[0][:2]
    poly = units.ring
    degenerate = mult_closure(poly, unit_seeds(poly, 8) + [poly.basis_element(1)])
    assert degenerate.idempotent == poly.zero
    for s_set in (units, degenerate):
        for walk in (s_pd, s_id):
            assert walk(zero_module(poly), s_set).certificate.s == s_set.idempotent
    assert s_pd(k, degenerate).certificate.s == poly.zero


def test_s_semisimple_lists_no_member_of_s(monkeypatch):
    cases = s_question_cases(7)
    refuse_enumeration(monkeypatch)
    (units, _, _, _), (idem, _, _, _) = cases
    rep = is_s_semisimple(units.ring, units)
    assert not rep.verdict and [(s, i.label()) for s, i in rep.failures] == [
        (units.ring.one, "(t6, t5, t4, t3, t2, t)")]
    rep = is_s_semisimple(idem.ring, idem)
    assert rep.verdict and rep.s == idem.idempotent and rep.failures == ()
