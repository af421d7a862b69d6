"""The S-questions against the per-s systems they replaced.

Each S-question asks for the first s in S, in canonical order, that
makes a condition linear in s hold.  The questions now solve once
against the d basis elements of R (gfmat.solve_span) and pick the
witness with MultSet.first_member.  The oracles below are the code as
it was before: one right-hand side per member of S, or a loop over S.
Witnesses, attempted lists, families, failure lists and inverse
witnesses must agree byte for byte on seeded pool draws, the degenerate
S and the zero module included.  The split search has its own per-s
oracle, kron_search in test_split_search.py.
"""

import random

import numpy as np
import pytest
from conftest import degenerate_multset, product_ring, quotient_module

from srelhom import gfmat
from srelhom.dimensions import (
    is_s_semisimple,
    s_gldim,
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
    ModuleMap,
    _intertwining_rows,
    cap_chain,
    direct_sum,
    free_module,
    is_uniformly_s_torsion,
    s_exactness_check,
    s_iso_inverse,
    zero_module,
)
from srelhom.rings import complement_multset, enumerate_ideals, mult_closure

RINGS = dict(bundled_rings())


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
            want = oracle_torsion(mod, s_set)
            assert (got.verdict, got.witness, got.failures) == want
            verdicts.add(got.verdict)
    assert verdicts == {True, False}


def test_torsion_failures_name_the_first_column_not_killed():
    # R/(e1) + R/(e2) over F2 x F2[t]/(t^2): e1 + f sends the first basis
    # vector to the second, so its first nonzero column and row differ
    ring = product_ring()
    s_set = mult_closure(ring, [[1, 0, 1]])
    mod, _, _ = direct_sum(quotient_module(ring, [[1, 0, 0]]),
                           quotient_module(ring, [[0, 1, 0]]))
    got = is_uniformly_s_torsion(mod, s_set)
    assert [(s.label(), col) for s, col in got.failures] == [
        ("e1", 2), ("e1+f", 0), ("e1+e2", 0)]
    assert got.failures == oracle_torsion(mod, s_set)[2]


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


@pytest.mark.parametrize("name", list(RINGS))
def test_inverse_witness_matches_the_per_s_system(name):
    ring = RINGS[name]
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
        assert [(t, ideal.key()) for t, ideal in rep.failures] == failures
