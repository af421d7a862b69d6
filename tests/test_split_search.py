"""The split search against the algorithms it replaced.

decide answers a section question on a free cover and is_s_injective
a retraction question on a module (ask); both decide by the block
counts, and only a 0 answer reaches _split_search, which builds the
section the counts promise: psi = (C restricted to Q)^-1 . e_S on the
minimal cover C: F ->> X, with Q the sum of the f_t R 1_t (dimensions
docstring).

reference_search is the hom-space algorithm: a basis of Hom(target,
source) from the Kronecker system, then one solve per element of S in
canonical order.  The presentation-sized search, which tries e_S only,
must agree with it on verdict and witness, and every map it returns
must re-verify.  The oracles still return the elements they attempted
before the first that splits; the search attempts nothing on success
and (e_S,) on failure (attempted_now).

routes decides each section question four ways: by the engine's block
counts (_projective_at), by oracle_tor_residual, by the split system
alone (oracle_split_elimination, as s_pd and s_id decided before the
residual did: e_S splits exactly when the system's residual kills it)
and by a hom-space basis.  s_id compared its retraction route with the
split system on DM; that comparison lives here now.  oracle_tor_residual
decided before the counts did: with K the kernel of the cover
C: F ->> X, Tor_1(X, R/J) is (K cap JF)/JK, and its residual W has
W e = 0 exactly when e (K cap JF) lies in JK, that is when
e Tor_1(X, R/J) = 0.

kron_search is the presentation-sized search as it was before it became
one elimination per question: a full system assembled with np.kron and
np.vstack on every question, one right-hand side per member of S.  Its
map is kron_section: the R-linear psi with C psi = s Id and image in Q,
from the Kronecker system of those three conditions.  On a minimal cover
with a 0 answer that psi is unique, so the search must return it byte
for byte; where the Kronecker system leaves psi free (a cover that is
not minimal), the search must raise.
"""

import itertools
import random
from collections import Counter

import numpy as np
import pytest
from conftest import (
    decide,
    degenerate_multset,
    kernel_and_right_inverse,
    quotient_module,
    square_zero_ring,
)

from srelhom import dimensions, gfmat, homology, modules
from srelhom.checks import clear_memo
from srelhom.dimensions import (
    _projective_at,
    is_s_injective,
    s_id,
    s_pd,
)
from srelhom.errors import InternalInvariantViolation
from srelhom.homology import Resolution, injective_cocover, resolution
from srelhom.instances import bundled_rings, random_module, random_multset
from srelhom.modules import (
    Module,
    _containment_residual,
    _hom_block_matrix,
    character_dual,
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
    maximal_ideals,
    mult_closure,
    prime_field,
    truncated_polynomial,
)
import test_rings
from test_rings import group_algebra


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


def ask(kind, subject, s_set):
    """decide on a cover for a section, is_s_injective on a module for a
    retraction."""
    if kind == "section":
        return decide(subject, s_set)
    return is_s_injective(subject, s_set)


def cover_of(kind, subject):
    """The map a question on subject splits: the cover, or the cocover."""
    return subject if kind == "section" else injective_cocover(subject)


def split_questions(module):
    """Sections at walk levels 0-2 and retractions at cosyzygy levels 0-1."""
    res = resolution(module)
    questions = [("section", res.cover(i)) for i in range(3)]
    current = module
    for _ in range(2):
        questions.append(("retraction", current))
        current, _ = subquotient(injective_cocover(current), "cokernel")
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
            for kind, subject in split_questions(module):
                got = ask(kind, subject, s_set)
                cover = cover_of(kind, subject)
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


def oriented(kind, cover):
    """(C, actions on X, actions on F) of a question: the cover itself, or
    for a retraction the cover of DM that the cocover transposes."""
    if kind == "section":
        return cover.matrix, cover.target.actions, cover.source.actions
    return (cover.matrix.T, cover.source.actions.transpose(0, 2, 1),
            cover.target.actions.transpose(0, 2, 1))


def q_projection(ring, pres, x_acts, f_acts, s):
    """P_Q on F = R^r from the dense actions: block t acts by f_t, the sum
    of the primitive idempotents e with e s = e and e C(1_t) != 0."""
    p, d = ring.p, ring.dim
    n_f = pres.shape[1]
    gens = generator_images(ring, pres)
    proj = gfmat.zeros(n_f, n_f)
    for vec in ring.primitive_idempotents():
        e = ring.element(vec)
        if e * s != e:
            continue
        on_x, on_f = (np.tensordot(vec, acts, 1) % p for acts in (x_acts, f_acts))
        for t in range(n_f // d):
            if (on_x @ gens[:, t] % p).any():
                proj[:, t * d:(t + 1) * d] += on_f[:, t * d:(t + 1) * d]
    return proj % p


def kron_section(kind, cover, s):
    """The R-linear psi: X -> F with C psi = s Id_X and image in Q, from
    one Kronecker system in the entries of psi (row-major), or None when
    that system leaves psi free; the transpose for a retraction."""
    ring = cover.ring
    p = ring.p
    pres, x_acts, f_acts = oriented(kind, cover)
    n_x, n_f = pres.shape
    eye_x, eye_f = gfmat.identity(n_x), gfmat.identity(n_f)
    proj = q_projection(ring, pres, x_acts, f_acts, s)
    linear = [np.kron(eye_f, a.T) - np.kron(b, eye_x) for a, b in zip(x_acts, f_acts)]
    coeff = np.vstack(linear + [np.kron(pres, eye_x), np.kron(eye_f - proj, eye_x)]) % p
    scale = np.tensordot(s.array, x_acts, 1) % p
    rhs = gfmat.zeros(len(coeff), 1)
    rhs[len(coeff) - n_f * n_x - n_x * n_x:len(coeff) - n_f * n_x, 0] = scale.reshape(-1)
    residual, psi = gfmat.solve_span(coeff, rhs, p)
    assert not residual.any(), "a 0 answer has a section into Q"
    if len(coeff) - len(residual) < n_f * n_x:
        return None
    psi = psi.reshape(n_f, n_x)
    return np.ascontiguousarray(psi if kind == "section" else psi.T)


def kron_search(kind, cover, s_set):
    """(s, attempted, psi) by the full kron/vstack system, one right-hand
    side per member of S, with psi = kron_section(kind, cover, s); psi is
    None when no s splits, and when kron_section leaves it free."""
    ring = cover.ring
    p, d = ring.p, ring.dim
    pres, x_acts, f_acts = oriented(kind, cover)
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
    ok, _ = gfmat.solve_each(coeff, rhs, p)
    if not ok.any():
        return None, elements, None
    k = int(np.argmax(ok))
    return elements[k], elements[:k], kron_section(kind, cover, elements[k])


def check_against_kron(kind, subject, s_set, want):
    """ask on the question agrees with kron_search's answer want: verdict
    and s exactly, psi byte for byte, and a raise where psi is free."""
    s, _, matrix = want
    if s is not None and matrix is None:
        with pytest.raises(InternalInvariantViolation, match="does not split the cover on Q"):
            ask(kind, subject, s_set)
        return None
    got = ask(kind, subject, s_set)
    assert (got.verdict, got.s) == (s is not None, s)
    assert got.attempted == attempted_now(s, s_set)
    if matrix is None:
        assert got.mapping is None
    else:
        assert got.mapping.matrix.dtype == matrix.dtype
        assert got.mapping.matrix.shape == matrix.shape
        assert got.mapping.matrix.tobytes() == matrix.tobytes()
    return got


def edge_questions(module):
    """Covers at levels 0 and 1, a plain cover, and the retraction
    questions of the module and its first cosyzygy."""
    cosyzygy, _ = subquotient(injective_cocover(module), "cokernel")
    return [("section", resolution(module).cover(0)),
            ("section", resolution(module).cover(1)),
            ("section", resolution(module, "plain").cover(0)),
            ("retraction", module),
            ("retraction", cosyzygy)]


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
            for kind, subject in edge_questions(module):
                cover = cover_of(kind, subject)
                got = check_against_kron(kind, subject, s_set, kron_search(kind, cover, s_set))
                certified = cover.target if kind == "section" else cover.source
                outcomes.add((certified.vdim == 0, s_set.degenerate,
                              "raised" if got is None else got.verdict))
    # zero modules, degenerate sets, and hits and misses on the rest; the
    # plain cover of R^2 is not minimal where R is not semisimple
    assert {(True, False, True), (False, True, True), (False, False, True)} <= outcomes
    if ring.radical_basis().shape[1]:
        assert {(False, False, False), (False, False, "raised")} <= outcomes


@pytest.mark.parametrize("name", ["F2[t]/(t^2)", "F3xF3[t]/(t^2)"])
def test_zero_module_and_zero_in_s_solve_nothing(name, monkeypatch):
    ring = RINGS[name]
    module = random_module(ring, random.Random("no-system:%s" % name))
    questions = [("section", resolution(module).cover(0)), ("retraction", module)]
    trivial = [(kind, subject, degenerate_multset(ring)) for kind, subject in questions]
    trivial += [(kind, subject, mult_closure(ring, []))
                for kind, subject in edge_questions(zero_module(ring))]
    # the cocovers and their resolutions, built before the spy
    for kind, subject, _ in trivial:
        cover_of(kind, subject)

    def no_elimination(*args):
        raise AssertionError("a system was solved")

    for name in ("solve_span", "nullspace"):
        monkeypatch.setattr(dimensions.gfmat, name, no_elimination)
    for kind, subject, s_set in trivial:
        got = ask(kind, subject, s_set)
        assert got.s == s_set.elements[0] and got.attempted == ()
        assert got.mapping.is_zero() and got.verify()


def test_section_system_has_dim_x_rows_whatever_the_size_of_s(monkeypatch):
    # F2 x F2[t]/(t^8): d = 9, and each prime complement has 256 members
    ring = direct_product(prime_field(2), truncated_polynomial(2, 8))
    rng = random.Random("large-s")
    residue = quotient_module(ring, ring.radical_basis().T.tolist())
    s_sets = [complement_multset(ring, prime) for prime in enumerate_ideals(ring).primes]
    assert [len(s_set) for s_set in s_sets] == [256, 256]
    modules = [residue, random_module(ring, rng), random_module(ring, rng)]
    cases = [(kind, subject, s_set)
             for module in modules
             for kind, subject in (("section", resolution(module).cover(0)),
                                   ("retraction", module))
             for s_set in s_sets]
    want = [kron_search(kind, cover_of(kind, subject), s_set)
            for kind, subject, s_set in cases]
    # a section is one solve of e_S C Y = e_S Id_X: dim X rows and dim X
    # right-hand sides, not |S|, and the counts that decide solve nothing
    shapes = {"section": [], "counts": []}
    solve_span, section = gfmat.solve_span, dimensions._section_matrix
    phase = ["counts"]

    def spy(a, b, p):
        shapes[phase[0]].append((a.shape, b.shape))
        return solve_span(a, b, p)

    def section_phase(ring, pres, scale, s):
        phase[0] = "section"
        try:
            return section(ring, pres, scale, s)
        finally:
            phase[0] = "counts"

    monkeypatch.setattr(dimensions.gfmat, "solve_span", spy)
    monkeypatch.setattr(dimensions, "_section_matrix", section_phase)
    clear_memo()
    verdicts = set()
    for (kind, subject, s_set), answer in zip(cases, want):
        before = len(shapes["section"])
        got = check_against_kron(kind, subject, s_set, answer)
        verdicts.add(got.verdict)
        for a, b in shapes["section"][before:]:
            n, n_f = got.cover.matrix.shape[::1 if kind == "section" else -1]
            assert (a, b) == ((n, n_f), (n, n))
    assert verdicts == {True, False}
    assert shapes["section"] and shapes["counts"] == []
    clear_memo()


def oracle_rings():
    """The pool, square_zero_ring and its products with F_2 and F_2[t]/(t^2)."""
    square = square_zero_ring()
    rings = [ring for _, ring in bundled_rings()]
    return rings + [square, direct_product(square, prime_field(2)),
                    direct_product(square, truncated_polynomial(2, 2))]


class _Captured(Exception):
    """The system handed to solve_span, which is not solved."""


def test_section_system_is_e_s_times_the_cover(monkeypatch):
    # the section solves e_S C Y = e_S Id_X, and e_S C = C P_Q with P_Q
    # read off the dense actions of R^r (q_projection): C is R-linear and
    # e_S C(1_t) = f_t C(1_t).  Plain covers are in the draw, since the
    # system is built before its rank is checked
    def capture(a, b, p):
        raise _Captured(a, b)

    rng = random.Random("split-rhs-oracle")
    covers, kinds = 0, set()
    for ring in oracle_rings():
        for _ in range(40):
            questions = edge_questions(random_module(ring, rng))
            for (kind, subject), (_, s_set) in itertools.product(questions,
                                                                 multsets(ring, rng)):
                cover = cover_of(kind, subject)
                pres, x_acts, f_acts = oriented(kind, cover)
                if pres.shape[0] == 0 or s_set.degenerate:
                    continue
                s = s_set.idempotent
                scale = np.tensordot(s.array, x_acts, 1) % ring.p
                with monkeypatch.context() as patch, pytest.raises(_Captured) as system:
                    patch.setattr(dimensions.gfmat, "solve_span", capture)
                    dimensions._section_matrix(ring, pres, scale, s)
                a, b = system.value.args
                coeff = pres @ q_projection(ring, pres, x_acts, f_acts, s) % ring.p
                assert a.dtype == coeff.dtype and np.array_equal(a, coeff)
                assert b.shape == scale.shape and b.tobytes() == scale.tobytes()
                covers += 1
                kinds.add(kind)
    assert covers >= 1000 and kinds == {"section", "retraction"}


# -- the counts decide, the section builds --------------------------------------


def oracle_tor_residual(ring, pres):
    """W with e Tor_1(X, R/J) = 0 exactly when W e = 0, for C = pres:
    F ->> X: K from a nullspace of the cover, the rows killing J from
    nullspace(radical_basis().T), and JK and e_i (K cap JF) from the
    dense actions of R^r."""
    p, d = ring.p, ring.dim
    n_f, kernel = pres.shape[1], gfmat.nullspace(pres, p)
    r, m = n_f // d, kernel.shape[1]
    top = gfmat.nullspace(ring.radical_basis().T, p).T
    tops = (top @ kernel.reshape(r, d, m) % p).reshape(r * len(top), m)
    meet = kernel @ gfmat.nullspace(tops, p) % p
    if not meet.shape[1]:
        return np.zeros((0, d), dtype=np.int64)
    free = free_module(ring, r)
    rad_k = np.tensordot(ring.radical_generators().T, free.actions, 1) % p @ kernel % p
    return _containment_residual(free, meet, rad_k.transpose(1, 0, 2).reshape(n_f, -1))


def oracle_split_elimination(ring, pres):
    """(W, Y, L) of the split system that built sections before the one
    solve on Q: psi = Phi . L for the right inverse L of C = pres, with
    Phi: F -> F sending 1_j to y_j and killing Ker C.  The unknowns are the
    r images y_j, one row block per F_p basis vector of Ker C, and C y_j =
    s C(1_j) below them, with the right-hand sides of s = e_i; so s splits
    exactly when W s = 0, and Y s then holds the images."""
    p, d = ring.p, ring.dim
    n_x, n_f = pres.shape
    r = n_f // d
    kernel, right_inv = kernel_and_right_inverse(pres, p)
    assert right_inv is not None, "the cover is onto"
    m = kernel.shape[1]
    top = m * n_f
    coeff = np.zeros((top + r * n_x, r * n_f), dtype=np.int64)
    coeff[:top] = _hom_block_matrix(free_module(ring, r), kernel.T.reshape(m, r, d))
    hits = coeff[top:].reshape(r, n_x, r, n_f)
    hits[range(r), :, range(r), :] = pres
    rhs = np.zeros((top + r * n_x, d), dtype=np.int64)
    rhs[top:] = pres.reshape(n_x, r, d).transpose(1, 0, 2).reshape(r * n_x, d)
    residual, ys = gfmat.solve_span(coeff, rhs, p)
    return residual, ys, right_inv


def routes(module, s_sets):
    """For each S, whether e_S splits the module's cover, four ways: by the
    engine's block counts, by the Tor residual, by the split system alone
    (as s_pd and s_id decided before Tor did) and by one hom-space
    basis."""
    cover = resolution(module).cover(0)
    p, target = cover.ring.p, cover.target
    tor = oracle_tor_residual(cover.ring, cover.matrix)
    split = (oracle_split_elimination(cover.ring, cover.matrix)[0] if module.vdim
             else gfmat.zeros(0, cover.ring.dim))
    mats = [(cover.matrix @ h.matrix) % p for h in hom_space(target, cover.source)]
    coeff = (np.stack([m.reshape(-1) for m in mats], axis=1) if mats
             else gfmat.zeros(target.vdim ** 2, 0))
    for s_set in s_sets:
        e = s_set.idempotent
        hom = gfmat.solve(coeff, target.action_of(e).reshape(-1), p) is not None
        counts = target.vdim == 0 or _projective_at(target, e) is None
        yield (counts, not (tor @ e.array % p).any(),
               s_set.degenerate or not (split @ e.array % p).any(), hom)


def test_tor_residual_split_route_and_hom_reference_agree():
    # prime complements of the group algebras list thousands of members,
    # so they meet random seed sets only, on fewer modules: their hom
    # spaces are the costly part.  The F_4 rings have residue fields of
    # dimension k = 2, and the split polynomial ring has dense idempotents
    groups = [group_algebra(2, [2, 2, 2]), group_algebra(3, [3, 3])]
    extra = test_rings.f4_rings() + [test_rings.split_polynomial_ring(3, [0, 1], 2)]
    rng = random.Random("tor-oracle")
    draws, outcomes = 0, Counter()
    for ring in oracle_rings() + extra + groups:
        for _ in range(4 if ring in groups else 12 if ring in extra else 50):
            module = random_module(ring, rng)
            dual = character_dual(module)
            if ring in groups:
                s_sets = [mult_closure(ring, []), random_multset(ring, rng),
                          random_multset(ring, rng, 3)]
            else:
                s_sets = [s_set for _, s_set in multsets(ring, rng)]
            verdicts = {}
            for name, x in (("M", module), ("DM", dual)):
                for s_set, (counts, tor, split, hom) in zip(s_sets, routes(x, s_sets)):
                    assert counts == tor == split == hom, (ring, name)
                    assert s_pd(x, s_set).value.known == counts
                    verdicts[name, s_set] = counts
                    outcomes[name, counts] += 1
            for s_set in s_sets:
                # s_id's former comparison of its two routes
                assert s_id(module, s_set).value.known == verdicts["DM", s_set]
                assert s_id(dual, s_set).value.known == verdicts["M", s_set]
                draws += 1
    assert draws >= 1500
    # both answers on both sides, and S-pd != S-id somewhere
    assert min(outcomes.values()) >= 100, outcomes
    assert outcomes["M", True] != outcomes["DM", True]


def test_a_split_system_that_blocks_e_s_raises_on_a_zero_answer(monkeypatch):
    # the counts answer 0 and the section solve must then build the map: a
    # system that blocks e_S is an engine fault, not an infinite dimension
    ring = square_zero_ring()
    s_one = mult_closure(ring, [])
    reg = free_module(ring, 1)
    assert s_pd(reg, s_one).value.known and s_id(character_dual(reg), s_one).value.known
    real = gfmat.solve_span

    def blocking(a, b, p):
        residual, x = real(a, b, p)
        return np.vstack([residual, np.ones((1, b.shape[1]), dtype=np.int64)]), x

    clear_memo()
    monkeypatch.setattr(dimensions.gfmat, "solve_span", blocking)
    for ask_zero in (lambda: s_pd(reg, s_one), lambda: s_id(character_dual(reg), s_one)):
        with pytest.raises(InternalInvariantViolation, match="does not split"):
            ask_zero()
    # an infinite answer never reaches the system
    assert not s_id(reg, s_one).value.known
    assert not s_pd(character_dual(reg), s_one).value.known
    clear_memo()


def test_an_infinite_answer_runs_no_split_elimination(monkeypatch):
    # every 0 answer asks for its section, cached or not; an infinite one
    # never does
    solved = []
    real = dimensions._section

    def spy(cover, s):
        solved.append(cover.matrix.shape)
        return real(cover, s)

    monkeypatch.setattr(dimensions, "_section", spy)
    rng = random.Random("no-system-on-infinity")
    answers = Counter()
    clear_memo()
    for ring in oracle_rings():
        for _ in range(10):
            module = random_module(ring, rng)
            for _, s_set in multsets(ring, rng):
                for engine in (s_pd, s_id):
                    before = len(solved)
                    got = engine(module, s_set)
                    known = got.value.known
                    if not known:
                        assert len(solved) == before, (ring, engine.__name__)
                    elif module.vdim and not s_set.degenerate:
                        assert len(solved) == before + 1, (ring, engine.__name__)
                    answers[known] += 1
    assert min(answers.values()) >= 50, answers
    assert solved
    clear_memo()


# -- the section on Q ------------------------------------------------------------


def section_rings():
    """The 32 rings of test_rings.oracle_rings, the F_4 rings,
    square_zero_ring and its products with F_2 and F_2[t]/(t^2), a split
    polynomial ring and three group algebras of dimension 8 and 9.  On a
    basis that splits along the blocks, every solution of e_S C Y = e_S Id
    already lies in Q; the split polynomial ring's idempotents are dense,
    so there P_Q matters."""
    square = square_zero_ring()
    return (test_rings.oracle_rings() + test_rings.f4_rings()
            + [square, direct_product(square, prime_field(2)),
               direct_product(square, truncated_polynomial(2, 2)),
               test_rings.split_polynomial_ring(3, [0, 1], 2),
               group_algebra(2, [2, 2, 2]), group_algebra(3, [3, 3]),
               group_algebra(2, [4, 2])])


def section_draws(seed, per_ring, per_group):
    """(ring, module, S) over section_rings: random modules, each with
    S = {1}, a random closure and every prime complement."""
    rng = random.Random(seed)
    for ring in section_rings():
        for _ in range(per_group if ring.dim >= 8 else per_ring):
            module = random_module(ring, rng)
            s_sets = [mult_closure(ring, []), random_multset(ring, rng)]
            s_sets += [complement_multset(ring, prime) for prime in maximal_ideals(ring)]
            for s_set in s_sets:
                yield ring, module, s_set


def test_every_section_is_r_linear_and_maps_into_q():
    # levels 0 and 1 of the minimal resolutions of M and DM: every 0 answer
    # has C psi = e_S Id, commutes with the action of every basis element
    # of R, and has its image in Q = sum of the f_t R 1_t (q_projection).
    # The group algebras are local and self-injective, so a syzygy there is
    # free only when it is 0, and their 0 answers are at level 0
    zeros, kinds = 0, Counter()
    for ring, module, s_set in section_draws("section-on-q", 12, 4):
        p, s = ring.p, s_set.idempotent
        for x in (module, character_dual(module)):
            for level in (0, 1):
                cover = resolution(x).cover(level)
                got = decide(cover, s_set)
                if not got.verdict or not cover.target.vdim or s_set.degenerate:
                    continue
                psi = got.mapping.matrix
                assert got.verify()
                for a, b in zip(cover.target.actions, cover.source.actions):
                    assert np.array_equal(psi @ a % p, b @ psi % p)
                proj = q_projection(ring, cover.matrix, cover.target.actions,
                                    cover.source.actions, s)
                assert np.array_equal(proj @ psi % p, psi)
                zeros += 1
                kinds[ring.dim >= 8, level] += 1
    assert zeros >= 1500 and set(kinds) == {(False, 0), (False, 1), (True, 0)}, kinds
    assert min(kinds.values()) >= 10, kinds


def test_a_cold_zero_answer_solves_one_system_of_dim_m_rows(monkeypatch):
    # S-pd solves on M's cover, S-id on DM's, which has dim M rows too
    systems = []
    real = gfmat.solve_span

    def spy(a, b, p):
        systems.append((a.shape, b.shape))
        return real(a, b, p)

    monkeypatch.setattr(gfmat, "solve_span", spy)
    zeros = 0
    for ring, module, s_set in section_draws("one-section-solve", 3, 1):
        if not module.vdim or s_set.degenerate:
            continue
        for engine in (s_pd, s_id):
            cold = Module(ring, module.actions.copy())
            clear_memo()
            systems.clear()
            if not engine(cold, s_set).value.known:
                assert systems == []
                continue
            n = cold.vdim
            ((rows, _), rhs), = systems
            assert rows == n and rhs == (n, n)
            zeros += 1
    assert zeros >= 200, zeros
    clear_memo()


def test_a_cover_that_is_not_minimal_raises():
    # the plain cover of R over F_2[t]/(t^2) has two generators, 1 and t:
    # Q is all of R^2, of dimension 4 > dim R = 2, so it cannot map onto
    # e_S R = R isomorphically
    ring = truncated_polynomial(2, 2)
    reg, s_one = free_module(ring, 1), mult_closure(ring, [])
    plain = resolution(reg, "plain").cover(0)
    assert plain.source.vdim == 4 and decide(resolution(reg).cover(0), s_one).verify()
    clear_memo()
    with pytest.raises(InternalInvariantViolation,
                       match="e_S C has rank 2, Q has dimension 4"):
        decide(plain, s_one)
    clear_memo()


def test_counts_that_lie_raise(monkeypatch):
    # counts that answer 0 on R/J over F_2[t]/(t^2), which is not free, hand
    # the section a minimal cover R ->> R/J that is not injective on Q = R:
    # an engine fault, never an input error from the map's validation
    ring = truncated_polynomial(2, 2)
    residue = quotient_module(ring, ring.radical_basis().T.tolist())
    s_one = mult_closure(ring, [])
    assert not s_pd(residue, s_one).value.known and not s_id(residue, s_one).value.known
    monkeypatch.setattr(dimensions, "_projective_at", lambda module, s: None)
    clear_memo()
    for engine in (s_pd, s_id):
        with pytest.raises(InternalInvariantViolation, match="does not split the cover on Q"):
            engine(residue, s_one)
    clear_memo()


# -- what the counts read, and what checks them ----------------------------------


def oracle_block_counts(module, block, kind):
    """(dim N_i, dim top N_i) for kind "section", (dim N_i, dim soc N_i)
    for "retraction", with N_i = e_i M: JN_i from every radical basis
    element, soc N_i as e_i times the annihilator of J in M."""
    ring, p = module.ring, module.ring.p
    proj = module.action_of(ring.element(ring.primitive_idempotents()[block]))
    rad = np.tensordot(ring.radical_basis().T, module.actions, 1) % p
    size = gfmat.rank(proj, p)
    if kind == "section":
        return size, size - gfmat.rank(proj @ np.hstack(list(rad)) % p, p)
    return size, gfmat.rank(proj @ gfmat.nullspace(np.vstack(list(rad)), p) % p, p)


def test_a_cold_infinite_s_pd_eliminates_its_cover_once(monkeypatch):
    # the counts read the module's own actions, so a cold infinite answer
    # eliminates no cover and builds no free module; the cover asked for
    # afterwards takes the one nullspace of its resolution level
    nullspaces, frees = [], []
    real_nullspace, real_free = gfmat.nullspace, modules.free_module

    def spy_nullspace(a, p):
        nullspaces.append(np.array(a))
        return real_nullspace(a, p)

    def spy_free(ring, k):
        frees.append(k)
        return real_free(ring, k)

    monkeypatch.setattr(gfmat, "nullspace", spy_nullspace)
    for host in (modules, homology):
        monkeypatch.setattr(host, "free_module", spy_free)
    rng = random.Random("cold-infinite-s-pd")
    infinite = 0
    for ring in oracle_rings():
        if not ring.radical_basis().shape[1]:
            continue
        # R/J with S = {1} is infinite wherever J != 0
        residue = quotient_module(ring, ring.radical_basis().T.tolist())
        draws = [residue] + [random_module(ring, rng) for _ in range(12)]
        for module in draws:
            for _, s_set in multsets(ring, rng):
                module = character_dual(character_dual(module))  # no resolution yet
                clear_memo()
                nullspaces.clear()
                frees.clear()
                if s_pd(module, s_set).value.known:
                    continue
                assert nullspaces == [] and frees == [], ring
                pres = resolution(module).cover(0).matrix
                hits = [a for a in nullspaces
                        if a.shape == pres.shape and np.array_equal(a, pres)]
                assert len(hits) == 1, ring
                infinite += 1
    assert infinite >= 50, infinite
    clear_memo()


def test_a_cold_infinite_answer_solves_no_system(monkeypatch):
    # the counts are ranks of the module's own actions: a cold infinite
    # s_pd or s_id builds no resolution level, no cocover and no free
    # module, and takes no kernel and solves no system, whatever the ring.
    # Its witness holds counts that break size k_i = top d_i on a block
    # of I_S.  A 0 answer builds the one level-0 cover of M (of DM for
    # S-id), and S-id its one cocover
    calls = Counter()
    ensured = []
    real_ensure = Resolution.ensure

    def spy(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    def spy_ensure(self, index):
        ensured.append((self, index))
        return real_ensure(self, index)

    monkeypatch.setattr(Resolution, "ensure", spy_ensure)
    cocover = spy("injective_cocover", homology.injective_cocover)
    free = spy("free_module", modules.free_module)
    for host in (homology, dimensions):
        monkeypatch.setattr(host, "injective_cocover", cocover)
    for host in (modules, homology):
        monkeypatch.setattr(host, "free_module", free)
    for name in ("solve_span", "nullspace"):
        monkeypatch.setattr(gfmat, name, spy(name, getattr(gfmat, name)))
    rng = random.Random("cold-infinite-no-solve")
    answers = Counter()
    for ring in oracle_rings() + test_rings.f4_rings():
        # the ring's structure pass is the ring's, not the question's
        ring.primitive_idempotents(), ring.block_dimensions(), ring.radical_generators()
        for _ in range(8):
            module = random_module(ring, rng)
            for _, s_set in multsets(ring, rng):
                for engine in (s_pd, s_id):
                    cold = Module(ring, module.actions.copy())  # no resolution yet
                    clear_memo()
                    calls.clear()
                    ensured.clear()
                    got = engine(cold, s_set)
                    (witness,) = got.levels
                    known = got.value.known
                    answers[engine.__name__, known] += 1
                    if known:
                        covered = cold if engine is s_pd else character_dual(cold)
                        assert {res for res, _ in ensured} == {resolution(covered)}
                        assert len(resolution(covered).frees) == 1
                        assert calls["injective_cocover"] == int(engine is s_id)
                        continue
                    assert not ensured and not calls, (ring, engine.__name__, calls)
                    counts = witness.counts
                    assert witness.cover is None and witness.mapping is None
                    assert counts.module is cold and witness.certified_module() is cold
                    assert witness.attempted == (s_set.idempotent,)
                    e_i = ring.element(ring.primitive_idempotents()[counts.block])
                    assert e_i * s_set.idempotent == e_i
                    kind = "section" if engine is s_pd else "retraction"
                    assert (counts.size, counts.top) == \
                        oracle_block_counts(cold, counts.block, kind)
                    dims, residues = ring.block_dimensions()
                    assert counts.size * residues[counts.block] != \
                        counts.top * dims[counts.block]
    assert min(answers.values()) >= 30 and len(answers) == 4, answers
    clear_memo()


def test_corrupted_block_counts_raise(monkeypatch):
    # per ring, k_i >= 1 and k_i divides d_i: a radical taken as all of
    # F_2[t]/(t^2) gives k = 0, and one of dimension 1 in F_2[t]/(t^3)
    # gives k = 2, which does not divide d = 3
    whole = truncated_polynomial(2, 2)
    monkeypatch.setattr(whole, "radical_basis", lambda: np.eye(2, dtype=np.int64))
    cube = truncated_polynomial(2, 3)
    line = cube.radical_basis()[:, :1]
    monkeypatch.setattr(cube, "radical_basis", lambda: line)
    for ring in (whole, cube):
        with pytest.raises(InternalInvariantViolation, match="residue dimensions"):
            ring.block_dimensions()
    # per block, k_i divides the top t of e_i X and dim e_i X k_i <= t d_i:
    # R = F_2[t]/(t^2) itself has dimension 2 and top 1, against the true
    # counts d = 2 and k = 1; k = 2 breaks the first, d = 1 the second
    for dims, residues in (([2], [2]), ([1], [1])):
        ring = truncated_polynomial(2, 2)
        assert [c.tolist() for c in ring.block_dimensions()] == [[2], [1]]
        assert s_pd(free_module(ring, 1), mult_closure(ring, [])).value.known
        ring._block_dims = (np.array(dims), np.array(residues))
        clear_memo()
        with pytest.raises(InternalInvariantViolation, match="no quotient"):
            s_pd(free_module(ring, 1), mult_closure(ring, []))
    clear_memo()
