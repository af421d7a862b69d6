"""The split search against the algorithms it replaced.

decide answers a section question on a free cover and is_s_injective
a retraction question on a module (ask); both decide by the block
counts, and only a 0 answer reaches _split_search, which solves the
split system.

reference_search is the hom-space algorithm: a basis of Hom(target,
source) from the Kronecker system, then one solve per element of S in
canonical order.  The presentation-sized search, which tries e_S only,
must agree with it on verdict and witness, and every map it returns
must re-verify.  The oracles still return the elements they attempted
before the first that splits; the search attempts nothing on success
and (e_S,) on failure (attempted_now).

routes decides each section question four ways: by the engine's block
counts (_projective_at), by oracle_tor_residual, by the split system
alone (as s_pd and s_id decided before the residual did: e_S splits
exactly when the system's residual kills it) and by a hom-space basis.
s_id compared its retraction route with the split system on DM; that
comparison lives here now.  oracle_tor_residual decided before the
counts did: with K the kernel of the cover C: F ->> X, Tor_1(X, R/J) is
(K cap JF)/JK, and its residual W has W e = 0 exactly when e (K cap JF)
lies in JK, that is when e Tor_1(X, R/J) = 0.

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
from collections import Counter

import numpy as np
import pytest
from conftest import decide, degenerate_multset, quotient_module, square_zero_ring

from srelhom import dimensions, gfmat, homology, modules
from srelhom.checks import clear_memo
from srelhom.dimensions import (
    _projective_at,
    _split_elimination,
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
                got = ask(kind, subject, s_set)
                cover = cover_of(kind, subject)
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
    questions = [("section", resolution(module).cover(0)), ("retraction", module)]
    trivial = [(kind, subject, degenerate_multset(ring)) for kind, subject in questions]
    trivial += [(kind, subject, mult_closure(ring, []))
                for kind, subject in edge_questions(zero_module(ring))]
    # the cocovers and their resolutions, built before the spy
    for kind, subject, _ in trivial:
        cover_of(kind, subject)

    def no_elimination(*args):
        raise AssertionError("a system was solved")

    for name in ("solve_span", "kernel_and_right_inverse", "nullspace"):
        monkeypatch.setattr(dimensions.gfmat, name, no_elimination)
    for kind, subject, s_set in trivial:
        got = ask(kind, subject, s_set)
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
    cases = [(kind, subject, s_set)
             for module in modules
             for kind, subject in (("section", resolution(module).cover(0)),
                                   ("retraction", module))
             for s_set in s_sets]
    want = [kron_search(kind, cover_of(kind, subject), s_set)
            for kind, subject, s_set in cases]
    # the split system has the d basis elements of R as right-hand sides,
    # not |S|, and the counts that decide solve nothing
    widths = {"split": [], "counts": []}
    solve_span, elimination = gfmat.solve_span, dimensions._split_elimination
    phase = ["counts"]

    def spy(a, b, p):
        widths[phase[0]].append(b.shape[1])
        return solve_span(a, b, p)

    def split_phase(ring, pres):
        phase[0] = "split"
        try:
            return elimination(ring, pres)
        finally:
            phase[0] = "counts"

    monkeypatch.setattr(dimensions.gfmat, "solve_span", spy)
    monkeypatch.setattr(dimensions, "_split_elimination", split_phase)
    verdicts = set()
    for (kind, subject, s_set), (s, _, matrix) in zip(cases, want):
        got = ask(kind, subject, s_set)
        assert (got.s, got.attempted) == (s, attempted_now(s, s_set))
        assert (got.mapping is None) == (matrix is None)
        if matrix is not None:
            assert got.mapping.matrix.tobytes() == matrix.tobytes()
        verdicts.add(got.verdict)
    assert verdicts == {True, False}
    assert widths["split"] and set(widths["split"]) == {ring.dim}
    assert widths["counts"] == []


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
        for _ in range(40):
            for kind, subject in edge_questions(random_module(ring, rng)):
                cover = cover_of(kind, subject)
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


# -- the counts decide, the split system builds ---------------------------------


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


def routes(module, s_sets):
    """For each S, whether e_S splits the module's cover, four ways: by the
    engine's block counts, by the Tor residual, by the split system alone
    (as s_pd and s_id decided before Tor did) and by one hom-space
    basis."""
    cover = resolution(module).cover(0)
    p, target = cover.ring.p, cover.target
    tor = oracle_tor_residual(cover.ring, cover.matrix)
    split = (_split_elimination(cover.ring, cover.matrix)[0] if module.vdim
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
    # the counts answer 0 and the split system must then build the map: a system
    # that blocks e_S is an engine fault, not an infinite dimension
    ring = square_zero_ring()
    s_one = mult_closure(ring, [])
    reg = free_module(ring, 1)
    assert s_pd(reg, s_one).value.known and s_id(character_dual(reg), s_one).value.known
    real = dimensions._split_elimination

    def blocking(ring, pres):
        residual, ys, right_inv = real(ring, pres)
        return np.vstack([residual, np.eye(ring.dim, dtype=np.int64)]), ys, right_inv

    clear_memo()
    monkeypatch.setattr(dimensions, "_split_elimination", blocking)
    for ask_zero in (lambda: s_pd(reg, s_one), lambda: s_id(character_dual(reg), s_one)):
        with pytest.raises(InternalInvariantViolation, match="does not split"):
            ask_zero()
    # an infinite answer never reaches the system
    assert not s_id(reg, s_one).value.known
    assert not s_pd(character_dual(reg), s_one).value.known
    clear_memo()


def test_an_infinite_answer_runs_no_split_elimination(monkeypatch):
    solved = []
    real = dimensions._split_elimination

    def spy(ring, pres):
        solved.append(pres.shape)
        return real(ring, pres)

    monkeypatch.setattr(dimensions, "_split_elimination", spy)
    rng = random.Random("no-system-on-infinity")
    answers = Counter()
    clear_memo()
    for ring in oracle_rings():
        for _ in range(10):
            module = random_module(ring, rng)
            for _, s_set in multsets(ring, rng):
                for engine in (s_pd, s_id):
                    before = len(solved)
                    known = engine(module, s_set).value.known
                    if not known:
                        assert len(solved) == before, (ring, engine.__name__)
                    answers[known] += 1
    assert min(answers.values()) >= 50, answers
    assert solved
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
    real_nullspace, real_free = gfmat.nullspace, dimensions.free_module

    def spy_nullspace(a, p):
        nullspaces.append(np.array(a))
        return real_nullspace(a, p)

    def spy_free(ring, k):
        frees.append(k)
        return real_free(ring, k)

    monkeypatch.setattr(gfmat, "nullspace", spy_nullspace)
    monkeypatch.setattr(dimensions, "free_module", spy_free)
    rng = random.Random("cold-infinite-s-pd")
    infinite = 0
    for ring in oracle_rings():
        if not ring.radical_basis().shape[1]:
            continue
        # R/J with S = {1} is infinite wherever J != 0
        residue = quotient_module(ring, ring.radical_basis().T.tolist())
        modules = [residue] + [random_module(ring, rng) for _ in range(12)]
        for module in modules:
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
                assert frees == [], ring
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
    for host in (modules, homology, dimensions):
        monkeypatch.setattr(host, "free_module", free)
    for name in ("kernel_and_right_inverse", "solve_span", "nullspace"):
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
