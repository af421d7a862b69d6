"""The split search against the algorithms it replaced.

reference_search is the hom-space algorithm: a basis of Hom(target,
source) from the Kronecker system, then one solve per element of S in
canonical order.  The presentation-sized search, which tries e_S only,
must agree with it on verdict and witness, and every map it returns
must re-verify.  The oracles still return the elements they attempted
before the first that splits; the search attempts nothing on success
and (e_S,) on failure (attempted_now).

action_system is the split system as it was built before its
right-hand sides were read off the cover: from the actions on X and the
images of the generators, with the kernel rows from an einsum over the
dense actions of R^r.  The system _split_elimination solves must equal
it on every cover.

kron_search is the presentation-sized search as it was before it became
one elimination per question: a full system assembled with np.kron and
np.vstack on every question, one right-hand side per member of S, the
kernel from nullspace and the right inverse from a second solve.  The
search, which solves once against the d basis elements of R, must
return its s and mapping matrix byte for byte, the zero-map answers for
X = 0 and 0 in S included.  A shortcut answering elements[1], or a
right inverse read off the rows in the wrong order, fails that
comparison.
"""

import random

import numpy as np
import pytest
from conftest import degenerate_multset, quotient_module, square_zero_ring

from srelhom import dimensions, gfmat
from srelhom.dimensions import _split_search
from srelhom.homology import injective_cocover, resolution
from srelhom.instances import bundled_rings, random_module, random_multset
from srelhom.modules import (
    free_module,
    generator_images,
    hom_space,
    subquotient,
    zero_module,
)
from srelhom.rings import (
    complement_multset,
    direct_product,
    enumerate_ideals,
    mult_closure,
    prime_field,
    truncated_polynomial,
)


def reference_search(kind, cover, s_set):
    p = cover.ring.p
    basis = hom_space(cover.target, cover.source)
    if kind == "section":
        mats = [(cover.matrix @ h.matrix) % p for h in basis]
        certified = cover.target
    else:
        mats = [(h.matrix @ cover.matrix) % p for h in basis]
        certified = cover.source
    n = certified.vdim
    coeff = (np.stack([m.reshape(-1) for m in mats], axis=1) if basis
             else gfmat.zeros(n * n, 0))
    tried = []
    for s in s_set:
        if gfmat.solve(coeff, certified.action_of(s).reshape(-1), p) is not None:
            return s, tuple(tried)
        tried.append(s)
    return None, tuple(tried)


def attempted_now(s, s_set):
    """The attempted list of a split search whose oracle witness is s."""
    return () if s is not None else (s_set.idempotent,)


def multsets(ring, rng):
    maximals = enumerate_ideals(ring).maximals
    return (
        ("trivial", mult_closure(ring, [])),
        ("prime-complement",
         complement_multset(ring, maximals[rng.randrange(len(maximals))])),
        ("random-closure", random_multset(ring, rng)),
    )


def split_questions(module):
    """Sections at walk levels 0-2 and retractions at cosyzygy levels 0-1."""
    res = resolution(module)
    questions = [("section", res.cover(i)) for i in range(3)]
    current = module
    for _ in range(2):
        iota = injective_cocover(current)
        questions.append(("retraction", iota))
        current, _ = subquotient(iota, "cokernel")
    return questions


RINGS = dict(bundled_rings())


@pytest.mark.parametrize("name", list(RINGS))
def test_split_search_matches_hom_space_reference(name):
    ring = RINGS[name]
    rng = random.Random("split-oracle:%s" % name)
    seen = set()
    for _ in range(6):
        module = random_module(ring, rng)
        for s_kind, s_set in multsets(ring, rng):
            for kind, cover in split_questions(module):
                got = _split_search(kind, cover, s_set)
                s, _ = reference_search(kind, cover, s_set)
                assert (got.s, got.attempted) == (s, attempted_now(s, s_set)), \
                    (name, s_kind, kind)
                if got.verdict:
                    assert got.verify()
                    assert got.mapping.source is cover.target
                    assert got.mapping.target is cover.source
                seen.add((kind, got.verdict))
    # both kinds are exercised, and something is decided on every ring
    assert {kind for kind, _ in seen} == {"section", "retraction"}
    assert any(verdict for _, verdict in seen)


def kron_search(kind, cover, s_set):
    """(s, attempted, mapping matrix or None) by the full kron/vstack system."""
    ring = cover.ring
    p, d = ring.p, ring.dim
    if kind == "section":
        pres, x_acts = cover.matrix, cover.target.actions
        f_acts = cover.source.actions
    else:
        pres, x_acts = cover.matrix.T, cover.source.actions.transpose(0, 2, 1)
        f_acts = cover.target.actions.transpose(0, 2, 1)
    n_x, n_f = pres.shape
    r = n_f // d
    elements = tuple(s_set)
    kernel = gfmat.nullspace(pres, p)
    m = kernel.shape[1]
    kills = np.einsum("jim,iab->majb", kernel.reshape(r, d, m),
                      f_acts).reshape(m * n_f, r * n_f) % p
    hits = np.kron(gfmat.identity(r), pres)
    gens = (pres.reshape(n_x, r, d) @ ring.unit) % p
    moved = np.einsum("iab,bj->iaj", x_acts, gens) % p
    s_vecs = np.array([s.vec for s in elements], dtype=np.int64)
    rhs = np.einsum("si,iaj->jas", s_vecs, moved).reshape(r * n_x, len(elements)) % p
    coeff = np.vstack([kills, hits])
    rhs = np.vstack([gfmat.zeros(kills.shape[0], rhs.shape[1]), rhs])
    ok, ys = gfmat.solve_each(coeff, rhs, p)
    if not ok.any():
        return None, elements, None
    k = int(np.argmax(ok))
    images = ys[:, k].reshape(r, n_f)
    phi = np.einsum("iab,jb->aji", f_acts, images).reshape(n_f, n_f) % p
    psi = (phi @ gfmat.solve(pres, gfmat.identity(n_x), p)) % p
    return elements[k], elements[:k], np.ascontiguousarray(
        psi if kind == "section" else psi.T)


def edge_questions(module):
    """Covers at levels 0 and 1, a plain cover, and two injective cocovers."""
    iota = injective_cocover(module)
    cosyzygy, _ = subquotient(iota, "cokernel")
    return [("section", resolution(module).cover(0)),
            ("section", resolution(module).cover(1)),
            ("section", resolution(module, "plain").cover(0)),
            ("retraction", iota),
            ("retraction", injective_cocover(cosyzygy))]


@pytest.mark.parametrize("name", list(RINGS))
def test_split_search_matches_the_kron_system_byte_for_byte(name):
    ring = RINGS[name]
    rng = random.Random("kron-oracle:%s" % name)
    # R/rad R is the module that fails to split when the radical is not 0
    residue = quotient_module(ring, ring.radical_basis().T.tolist())
    modules = [zero_module(ring), free_module(ring, 2), residue]
    modules += [random_module(ring, rng) for _ in range(3)]
    s_sets = [mult_closure(ring, []), degenerate_multset(ring),
              random_multset(ring, rng)]
    s_sets += [complement_multset(ring, m) for m in enumerate_ideals(ring).maximals]
    outcomes = set()
    for module in modules:
        for s_set in s_sets:
            for kind, cover in edge_questions(module):
                got = _split_search(kind, cover, s_set)
                s, _, matrix = kron_search(kind, cover, s_set)
                assert (got.verdict, got.s) == (s is not None, s)
                assert got.attempted == attempted_now(s, s_set)
                if matrix is None:
                    assert got.mapping is None
                else:
                    assert got.mapping.matrix.dtype == matrix.dtype
                    assert got.mapping.matrix.shape == matrix.shape
                    assert got.mapping.matrix.tobytes() == matrix.tobytes()
                certified = cover.target if kind == "section" else cover.source
                outcomes.add((certified.vdim == 0, s_set.degenerate, got.verdict))
    # zero modules, degenerate sets, and hits and misses on the rest
    assert {(True, False, True), (False, True, True), (False, False, True)} <= outcomes
    if ring.radical_basis().shape[1]:
        assert (False, False, False) in outcomes


@pytest.mark.parametrize("name", ["F2[t]/(t^2)", "F3xF3[t]/(t^2)"])
def test_zero_module_and_zero_in_s_solve_nothing(name, monkeypatch):
    ring = RINGS[name]
    module = random_module(ring, random.Random("no-system:%s" % name))
    questions = [("section", resolution(module).cover(0)),
                 ("retraction", injective_cocover(module))]
    trivial = [(kind, cover, degenerate_multset(ring)) for kind, cover in questions]
    trivial += [(kind, cover, mult_closure(ring, []))
                for kind, cover in edge_questions(zero_module(ring))]

    def no_elimination(*args):
        raise AssertionError("a system was solved")

    monkeypatch.setattr(dimensions.gfmat, "solve_span", no_elimination)
    monkeypatch.setattr(dimensions.gfmat, "kernel_and_right_inverse", no_elimination)
    for kind, cover, s_set in trivial:
        got = _split_search(kind, cover, s_set)
        assert got.s == s_set.elements[0] and got.attempted == ()
        assert got.mapping.is_zero() and got.verify()


def test_split_system_has_d_right_hand_sides_whatever_the_size_of_s(monkeypatch):
    # F2 x F2[t]/(t^8): d = 9, and each prime complement has 256 members
    ring = direct_product(prime_field(2), truncated_polynomial(2, 8))
    rng = random.Random("large-s")
    residue = quotient_module(ring, ring.radical_basis().T.tolist())
    s_sets = [complement_multset(ring, prime) for prime in enumerate_ideals(ring).primes]
    assert [len(s_set) for s_set in s_sets] == [256, 256]
    modules = [residue, random_module(ring, rng), random_module(ring, rng)]
    cases = [(kind, cover, s_set)
             for module in modules
             for kind, cover in (("section", resolution(module).cover(0)),
                                 ("retraction", injective_cocover(module)))
             for s_set in s_sets]
    want = [kron_search(kind, cover, s_set) for kind, cover, s_set in cases]
    widths = []
    solve_span = gfmat.solve_span

    def spy(a, b, p):
        widths.append(b.shape[1])
        return solve_span(a, b, p)

    monkeypatch.setattr(dimensions.gfmat, "solve_span", spy)
    verdicts = set()
    for (kind, cover, s_set), (s, _, matrix) in zip(cases, want):
        got = _split_search(kind, cover, s_set)
        assert (got.s, got.attempted) == (s, attempted_now(s, s_set))
        assert (got.mapping is None) == (matrix is None)
        if matrix is not None:
            assert got.mapping.matrix.tobytes() == matrix.tobytes()
        verdicts.add(got.verdict)
    assert verdicts == {True, False}
    assert widths and set(widths) == {ring.dim}


def action_system(kind, cover):
    """(coefficients, right-hand sides) of the split system, from the
    actions on X: row (j, a), column i of the lower block is e_i C(1_j)."""
    ring = cover.ring
    p, d = ring.p, ring.dim
    if kind == "section":
        pres, x_acts = cover.matrix, cover.target.actions
        f_acts = cover.source.actions
    else:
        pres, x_acts = cover.matrix.T, cover.source.actions.transpose(0, 2, 1)
        f_acts = cover.target.actions.transpose(0, 2, 1)
    n_x, n_f = pres.shape
    r = n_f // d
    kernel = gfmat.nullspace(pres, p)
    m = kernel.shape[1]
    kills = np.einsum("jim,iab->majb", kernel.reshape(r, d, m),
                      f_acts).reshape(m * n_f, r * n_f) % p
    moved = np.einsum("iab,bj->iaj", x_acts, generator_images(ring, pres)) % p
    rhs = np.vstack([gfmat.zeros(m * n_f, d),
                     moved.transpose(2, 1, 0).reshape(r * n_x, d)])
    return np.vstack([kills, np.kron(gfmat.identity(r), pres)]), rhs


def oracle_rings():
    """The pool, square_zero_ring and its products with F_2 and F_2[t]/(t^2)."""
    square = square_zero_ring()
    rings = [ring for _, ring in bundled_rings()]
    return rings + [square, direct_product(square, prime_field(2)),
                    direct_product(square, truncated_polynomial(2, 2))]


class _Captured(Exception):
    """The system handed to solve_span, which is not solved."""


def test_split_right_hand_sides_are_the_columns_of_the_cover(monkeypatch):
    def capture(a, b, p):
        raise _Captured(a, b)

    rng = random.Random("split-rhs-oracle")
    covers, kinds = 0, set()
    for ring in oracle_rings():
        for _ in range(34):
            for kind, cover in edge_questions(random_module(ring, rng)):
                certified = cover.target if kind == "section" else cover.source
                if certified.vdim == 0:
                    continue
                pres = cover.matrix if kind == "section" else cover.matrix.T
                with monkeypatch.context() as patch, pytest.raises(_Captured) as system:
                    patch.setattr(dimensions.gfmat, "solve_span", capture)
                    dimensions._split_elimination(ring, pres)
                a, b = system.value.args
                coeff, rhs = action_system(kind, cover)
                assert b.shape == rhs.shape and b.tobytes() == rhs.tobytes()
                assert np.array_equal(a % ring.p, coeff)
                covers += 1
                kinds.add(kind)
    assert covers >= 1000 and kinds == {"section", "retraction"}
