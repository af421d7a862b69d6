import gc
import random
import weakref
from collections import Counter

import numpy as np
import pytest

from conftest import (
    decide,
    product_ring,
    quotient_module,
    socle_and_top_differ,
    square_zero_ring,
)
from les_oracle import shift_search

from srelhom import dimensions, gfmat, modules, rings
from srelhom.checks import _multset_menu, clear_memo
from srelhom.rings import (
    FiniteAlgebra,
    Ideal,
    complement_multset,
    direct_product,
    enumerate_ideals,
    mult_closure,
    prime_field,
    truncated_polynomial,
)
from srelhom.modules import (
    Module,
    ModuleMap,
    character_dual,
    direct_sum,
    free_module,
    is_uniformly_s_torsion,
    quotient_by_columns,
    regular_module,
    submodule_from_columns,
    subquotient,
)
from srelhom.homology import Resolution, ext, injective_cocover, resolution
from srelhom.dimensions import (
    DimValue,
    SplitWitness,
    check_inequalities,
    dim_add,
    dim_max,
    dimension_shift_check,
    is_s_injective,
    is_s_projective,
    is_s_semisimple,
    local_profile,
    s_gldim,
    s_id,
    s_pd,
)
from srelhom.instances import (
    bundled_rings,
    middle_free_triple,
    nested_multsets,
    random_module,
    random_multset,
    random_s_iso,
    random_split_triple,
)
from srelhom.errors import (
    InputError,
    InternalInvariantViolation,
    MiddleNotCertified,
    NotSExact,
    RingMismatch,
)


# -- DimValue arithmetic -------------------------------------------------------


def test_dim_value_rendering():
    assert str(DimValue.exact(3)) == "3"
    assert str(DimValue.over(8)) == ">8"
    assert DimValue.exact(2).known
    assert not DimValue.over(2).known


def test_dim_value_le_is_two_valued():
    two, five, ten = DimValue.exact(2), DimValue.exact(5), DimValue.exact(10)
    over3, over8 = DimValue.over(3), DimValue.over(8)
    # ">n" is infinity: above every exact value whatever n, and equal to
    # every other ">m"
    table = [
        (two, five, True), (five, two, False), (two, two, True),
        (two, over8, True), (ten, over8, True), (ten, over3, True),
        (over8, five, False), (over3, five, False), (over3, ten, False),
        (over3, over8, True), (over8, over3, True),
    ]
    for a, b, want in table:
        assert a.le(b) is want, (a, b)


def test_dim_value_eq_lt_are_two_valued():
    four, five, nine = DimValue.exact(4), DimValue.exact(5), DimValue.exact(9)
    over4, over8 = DimValue.over(4), DimValue.over(8)
    eq_table = [
        (four, four, True), (four, five, False), (four, over8, False),
        (nine, over8, False), (over8, nine, False), (over8, over8, True),
        (over4, over8, True),
    ]
    lt_table = [
        (four, five, True), (five, four, False), (four, four, False),
        (DimValue.exact(0), over8, True), (nine, over8, True),
        (over8, four, False), (over8, nine, False), (over8, over8, False),
        (over4, over8, False), (over8, over4, False),
    ]
    for a, b, want in eq_table:
        assert a.eq(b) is want, (a, b)
    for a, b, want in lt_table:
        assert a.lt(b) is want, (a, b)
    # structural equality also compares the printed bound
    assert DimValue.over(8) == DimValue.over(8)
    assert DimValue.over(8) != DimValue.over(7)


def test_dim_max_and_shift():
    one, two, four = DimValue.exact(1), DimValue.exact(2), DimValue.exact(4)
    over3, over8 = DimValue.over(3), DimValue.over(8)
    assert dim_max(one, four) == four
    assert dim_max(DimValue.exact(0)) == DimValue.exact(0)
    assert dim_max(over8, two) == over8
    # infinity is on top whatever its printed bound; among infinite
    # values the largest bound is the one printed
    assert dim_max(over3, DimValue.exact(6)) == over3
    assert dim_max(over3, over8) == dim_max(over8, over3) == over8
    # infinity absorbs shift and dim_add
    assert over8.shift(1) == over8 and over8.shift(-1) == over8
    assert str(over8.shift(1)) == ">8"
    assert DimValue.exact(3).shift(-1) == two
    assert dim_add(one, two) == DimValue.exact(3)
    assert dim_add(over3, two) == over3 and dim_add(two, over3) == over3
    assert dim_add(over3, over8).eq(over8)


# -- split certification -------------------------------------------------------


def test_free_module_is_projective_with_identity_like_section(t2):
    s_one = mult_closure(t2, [])
    w = is_s_projective(free_module(t2, 2), s_one)
    assert w.verdict and w.s == t2.one
    assert w.kind == "section"
    comp = w.cover.compose(w.mapping)
    assert np.array_equal(comp.matrix, np.eye(comp.source.vdim, dtype=np.int64))
    assert w.verify()


def test_torsion_module_certified_by_zero_section(ring2, s_e1, m2):
    w = is_s_projective(m2, s_e1)
    assert w.verdict
    assert w.s == ring2.element([1, 0, 0])
    assert not w.mapping.matrix.any()
    assert w.verify()
    # the failed searches before e1 are recorded; e1 is canonically first
    assert w.attempted == ()


def test_classical_non_projectivity_is_a_failure(t2):
    s_one = mult_closure(t2, [])
    f2 = quotient_module(t2, [[0, 1]])
    w = is_s_projective(f2, s_one)
    assert not w.verdict
    assert w.s is None and w.mapping is None
    assert [s.label() for s in w.attempted] == ["1"]


def test_dual_of_ring_is_injective(ring2, t2):
    for ring in (ring2, t2):
        s_one = mult_closure(ring, [])
        dual = character_dual(regular_module(ring))
        w = is_s_injective(dual, s_one)
        assert w.verdict and w.s == ring.one
        assert w.verify()


def test_torsion_module_certified_by_zero_retraction(ring2, s_e1, m2):
    w = is_s_injective(m2, s_e1)
    assert w.verdict and w.s == ring2.element([1, 0, 0])
    assert w.kind == "retraction"
    assert not w.mapping.matrix.any()


def test_simple_module_not_injective_classically(t2):
    s_one = mult_closure(t2, [])
    f2 = quotient_module(t2, [[0, 1]])
    w = is_s_injective(f2, s_one)
    assert not w.verdict
    assert [s.label() for s in w.attempted] == ["1"]


def test_tampered_witness_fails_verification(t2):
    s_one = mult_closure(t2, [])
    w = is_s_projective(free_module(t2, 1), s_one)
    wrong = SplitWitness(w.kind, w.cover, w.s,
                         ModuleMap.zero(w.mapping.source, w.mapping.target))
    assert not wrong.verify()


def test_multiplicative_set_over_another_ring_is_rejected(ring2, t2):
    # F2 x F2 has the dimension of F2[t]/(t^2), so only the ring check
    # tells them apart; ring2 has another dimension altogether
    reg = regular_module(t2)
    f2xf2 = direct_product(prime_field(2), prime_field(2))
    for s_set in (mult_closure(f2xf2, []), mult_closure(ring2, [])):
        calls = (lambda: s_pd(reg, s_set), lambda: s_id(reg, s_set),
                 lambda: is_s_projective(reg, s_set),
                 lambda: is_s_injective(reg, s_set),
                 lambda: s_gldim(t2, s_set, trials=0),
                 lambda: is_s_semisimple(t2, s_set))
        for call in calls:
            with pytest.raises(RingMismatch, match="different rings"):
                call()


# -- projective dimension ------------------------------------------------------


def test_free_modules_have_dimension_zero(ring2, s_e1, s_one):
    for s_set in (s_e1, s_one):
        r = s_pd(free_module(ring2, 2), s_set)
        assert r.value == DimValue.exact(0)
        assert r.certificate is not None and r.certificate.verify()
        assert r.levels == (r.certificate,)


def test_every_module_has_dimension_zero_when_e1_inverted(ring2, s_e1):
    rng = random.Random(42)
    for _ in range(12):
        mod = random_module(ring2, rng)
        assert s_pd(mod, s_e1).value == DimValue.exact(0)


def walk_oracle(kind, module, s_set, bound):
    """The bounded (co)syzygy walk that s_pd and s_id replaced.

    Sections walk the syzygies of the minimal free resolution,
    retractions the cosyzygies through injective cocovers; the first
    level whose split search succeeds is the value.  Returns the value
    and the split search of every level walked.
    """
    res = resolution(module)
    current, levels = module, []
    for i in range(bound + 1):
        if kind == "section":
            witness = decide(res.cover(i), s_set)
        else:
            witness = is_s_injective(current, s_set)
        levels.append(witness)
        if witness.verdict:
            return DimValue.exact(i), levels
        if kind == "retraction":
            current, _ = subquotient(injective_cocover(current), "cokernel")
    return DimValue.over(bound), levels


def test_second_factor_simple_exceeds_bound_classically(ring2, s_one, m2):
    r = s_pd(m2, s_one, bound=8)
    assert r.value == DimValue.over(8)
    assert str(r.value) == ">8"
    assert r.certificate is None
    # the level-0 search alone decides: it exhausted the whole of S
    assert len(r.levels) == 1
    assert [s.label() for s in r.levels[0].attempted] == ["e1+e2"]
    # the bounded walk fails at each of its bound + 1 levels
    value, levels = walk_oracle("section", m2, s_one, 8)
    assert value == r.value
    assert len(levels) == 9
    assert all(not w.verdict for w in levels)
    assert all([s.label() for s in w.attempted] == ["e1+e2"] for w in levels)


def test_bound_is_honoured(ring2, s_one, m2):
    r = s_pd(m2, s_one, bound=2)
    assert r.value == DimValue.over(2)
    assert r.certificate is None
    assert len(r.levels) == 1
    value, levels = walk_oracle("section", m2, s_one, 2)
    assert value == r.value
    assert len(levels) == 3 and all(not w.verdict for w in levels)
    with pytest.raises(InputError):
        s_pd(m2, s_one, bound=-1)


POOL = dict(bundled_rings())


@pytest.mark.parametrize("name", list(POOL))
def test_walk_never_certifies_past_level_zero(name):
    # the Artinian dichotomy: over a finite ring both dimensions are 0 or
    # infinite, so the walk's value is the level-0 decision of s_pd/s_id
    ring = POOL[name]
    multsets = list(_multset_menu(name, ring))
    multsets += [complement_multset(ring, prime)
                 for prime in enumerate_ideals(ring).primes]
    rng = random.Random("dichotomy:%s" % name)
    seen = set()
    for _ in range(12):
        module = random_module(ring, rng)
        for s_set in multsets:
            for kind, engine in (("section", s_pd), ("retraction", s_id)):
                value, levels = walk_oracle(kind, module, s_set, 3)
                assert value.beyond or value.value == 0, (name, kind, value)
                got = engine(module, s_set, 3)
                assert got.value == value, (name, kind)
                (search,) = got.levels
                assert search.certified_module() is module
                assert (search.s, search.attempted) == (levels[0].s, levels[0].attempted)
                seen.add(value.known)
    # rings with a radical exercise both outcomes
    assert seen == ({True} if name in ("F2", "F3", "F2xF2") else {True, False})


def test_walk_metadata(ring2, s_e1, m2):
    r = s_pd(m2, s_e1)
    assert r.kind == "S-pd" and r.bound == 8
    assert str(r) == "S-pd = 0 (bound 8)"


# -- injective dimension -------------------------------------------------------


def test_injective_dimension_of_dual_ring_is_zero(ring2):
    s_one = mult_closure(ring2, [])
    r = s_id(character_dual(regular_module(ring2)), s_one)
    assert r.value == DimValue.exact(0)
    assert r.cross_check == DimValue.exact(0)


def test_duality_swaps_the_dimensions_over_a_ring_that_is_not_self_injective():
    # every pool ring is a product of chain rings, over which N and DN are
    # isomorphic; over F_2[x, y]/(x, y)^2, R is free but not injective and
    # DR the other way round
    ring = square_zero_ring()
    s_one = mult_closure(ring, [])
    reg = regular_module(ring)
    dual = character_dual(reg)
    assert s_pd(reg, s_one).value == DimValue.exact(0)
    assert s_id(reg, s_one).value == DimValue.over(8)
    assert s_pd(dual, s_one).value == DimValue.over(8)
    r = s_id(dual, s_one)
    assert r.value == DimValue.exact(0)
    assert r.certificate.kind == "retraction" and r.certificate.verify()
    assert r.cross_check == r.value


def test_injective_dimension_zero_when_e1_inverted(ring2, s_e1):
    rng = random.Random(7)
    for _ in range(10):
        mod = random_module(ring2, rng)
        r = s_id(mod, s_e1)
        assert r.value == DimValue.exact(0)
        assert r.cross_check == r.value


def test_injective_dimension_beyond_bound_over_truncated_ring(t2):
    s_one = mult_closure(t2, [])
    f2 = quotient_module(t2, [[0, 1]])
    r = s_id(f2, s_one, bound=8)
    assert r.value == DimValue.over(8)
    assert r.cross_check == DimValue.over(8)


def test_dual_route_agreement(ring2, s_e1, s_one):
    rng = random.Random(3)
    for s_set in (s_e1, s_one):
        for _ in range(4):
            mod = random_module(ring2, rng)
            direct = s_id(mod, s_set, bound=4)
            dual = s_pd(character_dual(mod), s_set, bound=4)
            assert direct.value == dual.value


def test_s_id_builds_the_dual_cover_once(monkeypatch):
    ring = truncated_polynomial(2, 3)
    s_one = mult_closure(ring, [])
    built = []
    original = Resolution._generator_columns

    def spy(self, host, basis, level):
        built.append((self.module, level))
        return original(self, host, basis, level)

    monkeypatch.setattr(Resolution, "_generator_columns", spy)
    # an equal ring built by an earlier test shares its content entries
    clear_memo()
    # R/(t^2) is not injective: the counts on its dual decide, and no
    # cover is built
    assert not s_id(quotient_module(ring, [[0, 0, 1]]), s_one, bound=0).value.known
    assert built == []
    # R is: the split search and the cocover resolve one shared dual object
    mod = regular_module(ring)
    assert s_id(mod, s_one, bound=0).value.known
    assert character_dual(mod) is character_dual(mod)
    assert len(built) == 1
    assert built[0][0] is character_dual(mod) and built[0][1] == 0


def test_each_split_search_verifies_its_witness_once(monkeypatch):
    # _split_search re-verifies a witness it found; nothing downstream in
    # s_pd or s_id repeats that check.  Only a 0 answer reaches the
    # search, once; an infinite one, decided by the counts, never does
    searched, verified, alive = [], Counter(), []
    real_search, real_verify = dimensions._split_search, SplitWitness.verify

    def search(*args):
        verified["in flight"] = 0
        witness = real_search(*args)
        searched.append((witness, verified["in flight"]))
        return witness

    def verify(self):
        verified["in flight"] += 1
        verified[id(self)] += 1
        # is_s_injective verifies its retraction too; keeping it alive
        # keeps its id from passing to a later search's witness
        alive.append(self)
        return real_verify(self)

    monkeypatch.setattr(dimensions, "_split_search", search)
    monkeypatch.setattr(SplitWitness, "verify", verify)
    rng = random.Random("verify-once")
    answers = Counter()
    for _ in range(30):
        _, ring = rng.choice(bundled_rings())
        mod, s_set = random_module(ring, rng), random_multset(ring, rng)
        for engine in (s_pd, s_id):
            before = len(searched)
            known = engine(mod, s_set).value.known
            assert len(searched) - before == int(known)
            answers[known] += 1
    assert answers[True] > 10 and answers[False]
    for witness, inside in searched:
        assert witness.verdict
        assert inside == verified[id(witness)] == 1


# -- degenerate multiplicative sets ---------------------------------------------


def test_zero_in_s_collapses_both_dimensions(ring2, t2):
    for ring in (ring2, t2):
        s_zero = mult_closure(ring, [ring.zero])
        assert s_zero.degenerate
        rng = random.Random(11)
        for _ in range(5):
            mod = random_module(ring, rng)
            assert s_pd(mod, s_zero).value == DimValue.exact(0)
            assert s_id(mod, s_zero).value == DimValue.exact(0)


# -- monotonicity and invariance ------------------------------------------------


def test_larger_multiplicative_set_never_increases_dimension(ring2):
    rng = random.Random(19)
    for _ in range(6):
        small, large = nested_multsets(ring2, rng)
        mod = random_module(ring2, rng)
        lo = s_pd(mod, large, bound=4).value
        hi = s_pd(mod, small, bound=4).value
        # beyond-bound on both sides counts as agreement, never a violation
        assert lo.le(hi) is not False


def test_s_isomorphic_modules_share_dimensions(ring2, s_e1, s_one):
    rng = random.Random(23)
    for s_set in (s_e1, s_one):
        for _ in range(4):
            f, s = random_s_iso(ring2, s_set, rng)
            left = s_pd(f.source, s_set, bound=4).value
            right = s_pd(f.target, s_set, bound=4).value
            assert left == right
            left = s_id(f.source, s_set, bound=4).value
            right = s_id(f.target, s_set, bound=4).value
            assert left == right


def test_exact_dimension_kills_next_ext(ring2, s_e1):
    # when S-pd(M) = n is exact, Ext^{n+1}(M, N) must be uniformly
    # S-torsion; with n >= 1 some cyclic N must keep Ext^n alive, which
    # the bundled rings never exercise (their values are 0 or beyond),
    # so that clause is asserted vacuously here.
    rng = random.Random(29)
    ideals = enumerate_ideals(ring2)
    for _ in range(6):
        mod = random_module(ring2, rng)
        r = s_pd(mod, s_e1, bound=4)
        assert r.value.known
        n = r.value.value
        for _ in range(3):
            other = random_module(ring2, rng)
            e = ext(mod, other, n + 1)
            assert is_uniformly_s_torsion(e.module, s_e1).verdict
        if n >= 1:
            alive = [ideal for ideal in ideals
                     if not is_uniformly_s_torsion(
                         ext(mod, quotient_module(ring2, [
                             ideal.basis[:, j] for j in range(ideal.fdim)]),
                             n).module, s_e1).verdict]
            assert alive


# -- global dimension ------------------------------------------------------------


def test_field_has_global_dimension_zero():
    f3 = prime_field(3)
    rep = s_gldim(f3, mult_closure(f3, []), trials=10, seed=1)
    assert rep.candidate == DimValue.exact(0)
    assert rep.witness == f3.one


def test_product_ring_semisimple_relative_to_e1(ring2, s_e1):
    rep = s_gldim(ring2, s_e1, trials=30, seed=0)
    assert rep.candidate == DimValue.exact(0)
    assert rep.trials == 30 and rep.seed == 0
    # 1 does not kill the radical (f), e1 does
    assert rep.witness == ring2.element([1, 0, 0])


def test_negative_trials_are_rejected(ring2, s_one):
    with pytest.raises(InputError, match="trials"):
        s_gldim(ring2, s_one, trials=-1)
    # a negative bound is rejected even when no audit runs
    with pytest.raises(InputError, match="bound"):
        s_gldim(ring2, s_one, bound=-1, trials=0)


def test_product_ring_classical_dimension_beyond_bound(ring2, s_one):
    rep = s_gldim(ring2, s_one, bound=8, trials=3, seed=5)
    assert rep.candidate == DimValue.over(8)
    assert rep.witness is None


def test_audit_exceedance_raises(monkeypatch, ring2, s_one):
    # a radical wrongly reported as 0 makes the closed form claim S-gl.dim
    # 0, and the block counts claim a residue field of dimension 2 on the
    # block F_2[t]/(t^2), so they answer 0 on every module whose part there
    # has even dimension.  A cover picked against that radical is not
    # minimal, and the first section finds it not injective on Q, before
    # any S-gl.dim comparison and before a part of dimension 1 breaks the
    # counts
    monkeypatch.setattr(ring2, "radical_basis", lambda: np.zeros((3, 0), dtype=np.int64))
    with pytest.raises(InternalInvariantViolation, match="does not split the cover on Q"):
        s_gldim(ring2, s_one, trials=16, seed=1)


def cyclic_sweep_gldim(ring, s_set, bound, trials, seed):
    """S-gl.dim as s_gldim computed it before the closed form: the max of
    S-pd and S-id over every cyclic module R/I, raised by any of `trials`
    random modules that exceeds it."""
    reg = regular_module(ring)
    value = DimValue.exact(0)
    for ideal in enumerate_ideals(ring):
        cyc, _, _ = quotient_by_columns(reg, ideal.basis)
        value = dim_max(value, s_pd(cyc, s_set, bound).value,
                        s_id(cyc, s_set, bound).value)
    rng = random.Random("sgldim:%d" % seed)
    for _ in range(trials):
        mod = random_module(ring, rng)
        sampled = dim_max(s_pd(mod, s_set, bound).value, s_id(mod, s_set, bound).value)
        if sampled.le(value) is False:
            value = dim_max(value, sampled)
    return value


def gldim_cases():
    """The ring pool, each with its menu sets, prime complements and six
    random closures."""
    for name, ring in bundled_rings():
        rng = random.Random("gldim-cases:%s" % name)
        sets = list(_multset_menu(name, ring))
        sets += [complement_multset(ring, prime)
                 for prime in enumerate_ideals(ring).primes]
        sets += [random_multset(ring, rng) for _ in range(6)]
        for s_set in sets:
            yield name, ring, s_set


def test_closed_form_matches_the_cyclic_sweep():
    cases = list(gldim_cases())
    assert len(cases) == 66
    decided = Counter()
    for name, ring, s_set in cases:
        witness = is_s_semisimple(ring, s_set).s
        for bound in (0, 4, 8):
            rep = s_gldim(ring, s_set, bound=bound, trials=2, seed=bound)
            want = cyclic_sweep_gldim(ring, s_set, bound, trials=2, seed=bound)
            assert rep.candidate == want, (name, s_set.labels(), bound)
            assert rep.witness == witness, (name, s_set.labels(), bound)
            decided[rep.candidate.known] += 1
    assert decided[True] and decided[False]


# -- semisimplicity --------------------------------------------------------------


def test_dimensions_above_the_enumeration_cap():
    # F2[t]/(t^17) has 2^17 elements; the dimension code needs only the
    # radical, which is linear algebra at any size
    ring = truncated_polynomial(2, 17)
    s_one = mult_closure(ring, [])
    k = quotient_module(ring, [ring.basis_element(1).vec])
    assert k.vdim == 1
    assert s_pd(k, s_one, 4).value == DimValue.over(4)
    assert s_id(k, s_one, 4).value == DimValue.over(4)
    assert s_gldim(ring, s_one, 4).candidate == DimValue.over(4)
    assert ext(k, k, 1).dim == 1


def test_field_semisimple_with_unit_witness():
    f2 = prime_field(2)
    rep = is_s_semisimple(f2, mult_closure(f2, []))
    assert rep.verdict and rep.s == f2.one
    family = dict((ideal.label(), y) for ideal, y in rep.family)
    assert family["(0)"] == f2.zero
    assert family["(1)"] == f2.one


def test_product_ring_semisimple_witness_is_e1(ring2, s_e1):
    rep = is_s_semisimple(ring2, s_e1)
    assert rep.verdict
    assert rep.s == ring2.element([1, 0, 0])
    assert len(rep.family) == 6
    for ideal, y in rep.family:
        assert ideal.contains(y)
        for j in range(ideal.fdim):
            gen = ring2.element(ideal.basis[:, j])
            assert gen * y == rep.s * gen


def test_truncated_ring_not_semisimple(monkeypatch):
    # the answer "no" is read off rad R alone: no ideal lattice is listed
    t2 = truncated_polynomial(2, 2)
    s_set = mult_closure(t2, [])

    def refuse(ring):
        raise AssertionError("a negative answer listed the ideals")

    monkeypatch.setattr(dimensions, "enumerate_ideals", refuse)
    rep = is_s_semisimple(t2, s_set)
    assert not rep.verdict and rep.s is None and rep.family == ()
    (s, ideal), = rep.failures
    assert s == t2.one
    assert ideal.label() == "(t)" and ideal.is_prime and ideal.is_maximal
    monkeypatch.undo()
    rad = next(i for i in enumerate_ideals(t2) if i.label() == "(t)")
    assert ideal.key() == rad.key()


def test_semisimple_matches_global_dimension_zero(ring2, s_e1, s_one):
    t2 = truncated_polynomial(2, 2)
    cases = [
        (ring2, s_e1),
        (ring2, s_one),
        (t2, mult_closure(t2, [])),
        (prime_field(2), mult_closure(prime_field(2), [])),
    ]
    for ring, s_set in cases:
        sem = is_s_semisimple(ring, s_set).verdict
        rep = s_gldim(ring, s_set, bound=4, trials=6, seed=2)
        glzero = rep.candidate == DimValue.exact(0)
        assert sem == glzero


# -- local profiles ---------------------------------------------------------------


def test_local_profile_over_field_is_flat():
    f5 = prime_field(5)
    prof = local_profile(regular_module(f5), "pd", bound=4)
    assert all(e.result.value == DimValue.exact(0) for e in prof.entries)
    assert prof.classical.value == DimValue.exact(0)
    assert prof.formula_ok


def test_local_profile_splits_m2_by_factor(ring2, m2):
    prof = local_profile(m2, "pd", bound=8)
    table = dict((e.prime.label(), str(e.result.value)) for e in prof.entries)
    assert table == {"(e2, f)": "0", "(e1, f)": ">8"}
    assert str(prof.classical.value) == ">8"
    assert prof.sup_value == DimValue.over(8)
    assert prof.formula_ok


def test_local_profile_injective_kind(ring2, m2):
    prof = local_profile(m2, "id", bound=6)
    table = dict((e.prime.label(), str(e.result.value)) for e in prof.entries)
    assert table == {"(e2, f)": "0", "(e1, f)": ">6"}
    assert prof.formula_ok


def test_local_profile_of_free_module(ring2):
    prof = local_profile(regular_module(ring2), "pd", bound=4)
    assert all(e.result.value == DimValue.exact(0) for e in prof.entries)
    assert prof.classical.value == DimValue.exact(0)
    assert prof.formula_ok


def test_local_profile_rejects_unknown_kind(ring2, m2):
    with pytest.raises(InputError):
        local_profile(m2, "flat")


def test_local_entries_use_prime_complements(ring2, m2):
    prof = local_profile(m2, "pd", bound=2)
    for entry in prof.entries:
        expected = complement_multset(ring2, entry.prime)
        assert entry.multset.elements == expected.elements


def test_local_profile_lists_no_ideal_and_no_element(monkeypatch, ring2, m2):
    # the primes and each e_S come from the primitive idempotents
    def refuse(*args):
        raise AssertionError("local_profile listed the ideals or the elements")

    monkeypatch.setattr(dimensions, "enumerate_ideals", refuse)
    monkeypatch.setattr(rings, "enumerate_ideals", refuse)
    monkeypatch.setattr(FiniteAlgebra, "elements", refuse)
    prof = local_profile(m2, "pd", bound=8)
    assert [(e.prime.label(), str(e.result.value), e.multset.idempotent.label())
            for e in prof.entries] == [("(e2, f)", "0", "e1"), ("(e1, f)", ">8", "e2")]
    # F2 x F2[t]/(t^17), 2^18 elements; the simple module of the second
    # factor is S-torsion at the first prime and of infinite S-id at the other
    big = direct_product(prime_field(2), truncated_polynomial(2, 17))
    simple = quotient_module(big, [[1] + [0] * 17, [0, 0, 1] + [0] * 15])
    prof = local_profile(simple, "id", bound=4)
    assert [(str(e.result.value), e.multset.idempotent.label())
            for e in prof.entries] == [("0", "a.1"), (">4", "b.1")]
    assert prof.formula_ok and str(prof.classical.value) == ">4"
    # its repr names each complement by its prime and e_S, listing no member
    assert "complement of (b.1, b.t, " in repr(prof) and "idempotent=b.1)" in repr(prof)


# -- inequalities along short sequences -------------------------------------------


def _t2_short_sequence(t2):
    reg = regular_module(t2)
    cols = np.array([[0], [1]], dtype=np.int64)
    sub, incl = submodule_from_columns(reg, cols)
    quot, proj, _ = quotient_by_columns(reg, cols)
    return incl, proj


def test_classical_sequence_decides_every_clause(t2):
    # 0 -> (t) -> R -> k -> 0 over F_2[t]/(t^2): pd and id are infinite
    # at both ends and 0 in the middle, and every clause decides
    s_one = mult_closure(t2, [])
    incl, proj = _t2_short_sequence(t2)
    rep = check_inequalities((incl, proj), s_one, bound=8)
    assert rep.ok
    assert [str(r.value) for r in rep.pd_results] == [">8", "0", ">8"]
    assert [str(r.value) for r in rep.id_results] == [">8", "0", ">8"]
    quotient_bound = rep.by_name("pd-bound-on-quotient")
    assert quotient_bound.verdict == "pass"
    assert quotient_bound.statement == "pd(C) = >8 <= 1 + max(pd(A), pd(B)) = >8"
    # pd(B) = 0 < infinity = pd(C), so pd(A) = infinity - 1 = infinity
    for name in ("pd-gap", "id-bound-on-sub", "id-gap"):
        assert rep.by_name(name).verdict == "pass", name
    assert rep.by_name("pd-split-additivity").verdict == "inapplicable"
    assert {a.verdict for a in rep.assertions} == {"pass", "inapplicable"}


def test_direct_sum_satisfies_additivity_exactly(t2):
    s_one = mult_closure(t2, [])
    a = regular_module(t2)
    c = free_module(t2, 2)
    total, (inj_a, _), (pr_a, pr_c) = direct_sum(a, c)
    rep = check_inequalities((inj_a, pr_c), s_one, bound=4, retraction=pr_a)
    assert rep.split is not None and rep.split.s == t2.one
    assert rep.by_name("pd-split-additivity").verdict == "pass"
    assert rep.by_name("id-split-additivity").verdict == "pass"
    assert rep.ok


def test_generated_split_triples_pass_everything(ring2, s_e1):
    rng = random.Random(31)
    for _ in range(4):
        f, g, retraction = random_split_triple(ring2, s_e1, rng)
        rep = check_inequalities((f, g), s_e1, bound=8, retraction=retraction)
        assert rep.ok
        for a in rep.assertions:
            assert a.verdict in ("pass", "inapplicable")
        assert all(r.value == DimValue.exact(0) for r in rep.pd_results)
        assert all(r.value == DimValue.exact(0) for r in rep.id_results)


def test_non_exact_sequence_is_rejected(t2):
    s_one = mult_closure(t2, [])
    reg = regular_module(t2)
    ident = ModuleMap.identity(reg)
    with pytest.raises(NotSExact):
        check_inequalities((ident, ident), s_one)


def test_bad_retraction_is_rejected(t2):
    s_one = mult_closure(t2, [])
    incl, proj = _t2_short_sequence(t2)
    # zero is not s Id for any s in {1} on a nonzero module
    bad = ModuleMap.zero(incl.target, incl.source)
    with pytest.raises(InputError):
        check_inequalities((incl, proj), s_one, retraction=bad)


def test_missing_assertion_name(t2):
    s_one = mult_closure(t2, [])
    incl, proj = _t2_short_sequence(t2)
    rep = check_inequalities((incl, proj), s_one, bound=2)
    with pytest.raises(InputError):
        rep.by_name("no-such-relation")


# -- dimension shifting ------------------------------------------------------------


def test_shift_across_free_middle_is_classical_iso(t2):
    s_one = mult_closure(t2, [])
    incl, proj = _t2_short_sequence(t2)
    other = quotient_module(t2, [[0, 1]])
    rep = dimension_shift_check((incl, proj), other, 1, s_one)
    assert rep.ok and rep.variance == "contravariant"
    assert rep.mapping.source.vdim == 1 and rep.mapping.target.vdim == 1
    assert rep.witness.kernel.witness == t2.one
    assert np.array_equal(rep.mapping.matrix, np.array([[1]], dtype=np.int64))


def test_shift_for_second_factor_simple(ring2, s_e1):
    # A = (f) inside R is the second-factor simple; the middle is free,
    # so degree n data of A matches degree n+1 data of R/(f).
    reg = regular_module(ring2)
    cols = np.array([[0], [0], [1]], dtype=np.int64)
    sub, incl = submodule_from_columns(reg, cols)
    quot, proj, _ = quotient_by_columns(reg, cols)
    rng = random.Random(13)
    for other in [quotient_module(ring2, [[1, 0, 0], [0, 0, 1]]),
                  random_module(ring2, rng),
                  random_module(ring2, rng)]:
        rep = dimension_shift_check((incl, proj), other, 1, s_e1)
        assert rep.ok and rep.variance == "contravariant"
        assert rep.witness.kernel.verdict and rep.witness.cokernel.verdict


def test_shift_degenerate_degree_zero_between_torsion_sides(ring2, s_e1, m2):
    total, (inj, _), (_, proj) = direct_sum(m2, m2)
    rep = dimension_shift_check((inj, proj), m2, 0, s_e1)
    assert rep.ok
    assert not rep.mapping.matrix.any()


def test_shift_requires_certified_middle(t2):
    s_one = mult_closure(t2, [])
    f2 = quotient_module(t2, [[0, 1]])
    total, (inj, _), (_, proj) = direct_sum(f2, f2)
    with pytest.raises(MiddleNotCertified):
        dimension_shift_check((inj, proj), f2, 1, s_one)


def test_shift_against_k7_is_decided_without_a_search(t2):
    # against k^7 both Ext modules are k^7, so a search over the maps
    # between them would face 2^49 candidates
    s_one = mult_closure(t2, [])
    incl, proj = _t2_short_sequence(t2)
    k7, _, _ = direct_sum(*[quotient_module(t2, [[0, 1]])] * 7)
    rep = dimension_shift_check((incl, proj), k7, 1, s_one)
    assert rep.ok and rep.variance == "contravariant"
    assert rep.mapping.matrix.shape == (7, 7)
    assert gfmat.rank(rep.mapping.matrix, 2) == 7


def test_shift_matches_the_search_oracle():
    # the snake map of the exact core against a search over every map
    # between the shifted Ext modules; the dimensions catch a route that
    # forgets to dualise N, which the verdict alone does not
    tally = Counter()
    square_zero = square_zero_ring()
    for seed in range(240):
        rng = random.Random("shift-oracle:%d" % seed)
        _, ring = rng.choice(bundled_rings())
        if seed % 4 == 0:
            ring = square_zero
        s = random_multset(ring, rng)
        f, g = middle_free_triple(ring, rng)
        other = random_module(ring, rng, max_rank=2)
        n = rng.randint(1, 2)
        rep = dimension_shift_check((f, g), other, n, s)
        assert rep.variance == "contravariant" and rep.ok == rep.witness.verdict
        assert rep.mapping.source.vdim == ext(f.source, other, n).dim, seed
        assert rep.mapping.target.vdim == ext(g.target, other, n + 1).dim, seed
        try:
            want = shift_search((f, g), other, n, s)
        except InputError:
            tally["over cap"] += 1
        else:
            assert rep.ok == want.ok, seed
        if ring is square_zero:
            tally["dual differs"] += socle_and_top_differ(other)
    assert tally["over cap"] <= 40, tally
    assert tally["dual differs"] >= 10, tally


def test_shift_rejects_negative_degree(t2):
    s_one = mult_closure(t2, [])
    incl, proj = _t2_short_sequence(t2)
    with pytest.raises(InputError):
        dimension_shift_check((incl, proj), regular_module(t2), -1, s_one)


def test_shift_rejects_other_rings(ring2, t2):
    s_one = mult_closure(t2, [])
    incl, proj = _t2_short_sequence(t2)
    with pytest.raises(RingMismatch, match="Ext between modules over different rings"):
        dimension_shift_check((incl, proj), regular_module(ring2), 1, s_one)
    with pytest.raises(RingMismatch, match="multiplicative set over different rings"):
        dimension_shift_check((incl, proj), regular_module(t2), 1, mult_closure(ring2, []))


def test_generated_middle_free_triples_shift(ring2, s_e1):
    rng = random.Random(37)
    for _ in range(3):
        f, g = middle_free_triple(ring2, rng)
        other = random_module(ring2, rng)
        rep = dimension_shift_check((f, g), other, 1, s_e1)
        assert rep.ok


# -- content caches ----------------------------------------------------------------


def _spy_eliminations(monkeypatch):
    """Count the section solves from here on: each is one solve_span.  The
    counts that decide S-pd and S-id solve nothing, and a resolution level
    takes a nullspace."""
    calls = Counter()
    real = gfmat.solve_span

    def spy(*args):
        calls["solve_span"] += 1
        return real(*args)
    monkeypatch.setattr(gfmat, "solve_span", spy)
    return calls


def _twin(module):
    """Another module object with the same actions."""
    return Module(module.ring, module.actions.copy())


def _content_arrays():
    return [arr for value in modules._memo[modules._CONTENT].entries.values()
            for arr in value]


def test_equal_modules_share_one_split_elimination(monkeypatch, ring2, s_e1, s_one, m2):
    clear_memo()
    calls = _spy_eliminations(monkeypatch)
    twin = _twin(m2)
    first, second = s_pd(m2, s_e1), s_pd(twin, s_e1)
    assert calls == {"solve_span": 1}
    assert first.value == second.value == DimValue.exact(0)
    # the hit builds its witness on the caller's own cover
    assert first.certificate.certified_module() is m2
    assert second.certificate.certified_module() is twin
    assert second.certificate.cover is resolution(twin).cover(0)
    assert second.certificate.verify()
    assert first.certificate.mapping.matrix.tobytes() == \
        second.certificate.mapping.matrix.tobytes()
    # another S is decided by the counts, which solve nothing, and its
    # failure solves no split system
    failed = s_pd(_twin(m2), s_one)
    assert calls == {"solve_span": 1}
    assert not failed.value.known and failed.levels[0].attempted == s_one.elements
    # a cleared memo solves both again
    clear_memo()
    third = _twin(m2)
    assert s_pd(third, s_e1).certificate.certified_module() is third
    assert calls == {"solve_span": 2}
    clear_memo()


def test_content_entries_name_the_ring_by_content(monkeypatch):
    # no entry keeps its ring alive, and equal rings built apart share
    # one elimination while the memo lives
    clear_memo()
    calls = _spy_eliminations(monkeypatch)

    def ask():
        ring = product_ring()
        m2 = quotient_module(ring, [[1, 0, 0], [0, 0, 1]])
        result = s_pd(m2, mult_closure(ring, [ring.element([1, 0, 0])]))
        assert result.value == DimValue.exact(0) and result.certificate.verify()
        return weakref.ref(ring)

    first = ask()
    gc.collect()
    assert first() is None
    assert modules._memo[modules._CONTENT].entries
    assert calls == {"solve_span": 1}
    second = ask()
    assert calls == {"solve_span": 1}
    gc.collect()
    assert second() is None
    clear_memo()


def test_s_id_runs_one_split_elimination(monkeypatch):
    # one route: the counts on DM decide and solve nothing, and only a 0
    # answer solves for the section of DM's cover
    rng = random.Random("one-elimination")
    answers = set()
    for _ in range(40):
        _, ring = rng.choice(bundled_rings())
        module, s_set = random_module(ring, rng), random_multset(ring, rng)
        if module.vdim == 0 or s_set.degenerate:
            continue
        clear_memo()
        calls = _spy_eliminations(monkeypatch)
        got = s_id(module, s_set)
        known = got.value.known
        assert calls == ({"solve_span": 1} if known else {})
        assert got.cross_check == got.value
        assert got.levels[0].certified_module() is module
        answers.add(known)
    assert answers == {True, False}
    clear_memo()


def test_two_multiplicative_sets_share_one_cover(monkeypatch, ring2, s_e1, s_one, m2):
    clear_memo()
    calls = _spy_eliminations(monkeypatch)
    assert not s_pd(m2, s_one).value.known
    assert calls == {}
    # the second set reads the same resolution level and solves only its
    # section
    assert s_pd(m2, s_e1).value.known
    assert calls == {"solve_span": 1}
    names = Counter(key[0] for key in modules._memo[modules._CONTENT].entries)
    assert names == {"resolution": 1, "split": 1}
    clear_memo()


def test_one_section_entry_per_cover_and_e_s(monkeypatch, ring2, s_e1, s_one):
    # R is free, so both sets answer 0 on it.  Equal covers with one e_S
    # share the "split" entry psi; e_S = e1 and e_S = 1 on the one cover
    # make two, each solved once
    clear_memo()
    calls = _spy_eliminations(monkeypatch)
    reg = regular_module(ring2)
    first, second = s_pd(reg, s_e1), s_pd(_twin(reg), s_e1)
    assert first.certificate.cover.matrix.tobytes() == \
        second.certificate.cover.matrix.tobytes()
    entries = modules._memo[modules._CONTENT].entries
    assert Counter(key[0] for key in entries) == {"resolution": 1, "split": 1}
    assert calls == {"solve_span": 1}
    (psi,) = next(value for key, value in entries.items() if key[0] == "split")
    assert first.certificate.mapping.matrix.tobytes() == psi.tobytes()
    assert s_pd(_twin(reg), s_one).value.known
    assert Counter(key[0] for key in entries) == {"resolution": 1, "split": 2}
    assert calls == {"solve_span": 2}
    clear_memo()


def test_cached_arrays_are_read_only(ring2, s_e1, m2):
    clear_memo()
    s_pd(m2, s_e1)
    s_id(m2, s_e1)
    arrays = _content_arrays()
    res = resolution(m2)
    # M and DM have equal 1 x 1 actions, so both answers share the
    # resolution level's three arrays and the one section psi
    assert any(arr is res._kernels[0] for arr in arrays)
    assert len(arrays) == 4 and any(arr.size for arr in arrays)
    for arr in arrays:
        with pytest.raises(ValueError):
            arr += 0
    clear_memo()


def _reachable_bytes(store):
    """Bytes the store's keys and values hold, each object once."""
    held, stack = {}, [part for key in store.entries for part in key]
    while stack:
        part = stack.pop()
        if isinstance(part, tuple):
            stack.extend(part)
        elif isinstance(part, bytes):
            held[id(part)] = len(part)
    arrays = {id(arr): arr.nbytes for value in store.entries.values() for arr in value}
    return sum(held.values()) + sum(arrays.values())


def test_content_budget_counts_the_ring_contents_its_keys_hold():
    # each copy of the ring is built apart, so each holds its own table
    # bytes; the store keeps and counts one of them
    clear_memo()
    for k in range(1, 4):
        ring = truncated_polynomial(2, 40)
        module = quotient_module(ring, [[0] * k + [1] + [0] * (39 - k)])
        s_pd(module, mult_closure(ring, []))
        s_id(module, mult_closure(ring, []))
        assert s_pd(regular_module(ring), mult_closure(ring, [])).value.known
    store = modules._memo[modules._CONTENT]
    # the answers on M are infinite and build nothing; the copies of R
    # share the one resolution level and section of their 0 answer
    assert Counter(key[0] for key in store.entries) == {"resolution": 1, "split": 1}
    assert _reachable_bytes(store) > len(ring.table.tobytes())
    assert store.nbytes >= _reachable_bytes(store)
    clear_memo()


def test_content_budget_clears_only_its_sub_entry(monkeypatch):
    rng = random.Random("content-budget")
    cases = []
    for _ in range(12):
        _, ring = rng.choice(bundled_rings())
        cases.append((random_module(ring, rng), random_multset(ring, rng)))

    def answers(sizes):
        out = []
        for module, s_set in cases:
            module = _twin(module)
            for result in (s_pd(module, s_set), s_id(module, s_set)):
                cert = result.certificate
                out.append((str(result.value), cert and cert.s.label(),
                            cert and cert.mapping.matrix.tobytes()))
            out.append(ext(module, module, 1).dim)
            store = modules._memo[modules._CONTENT]
            sizes.append((len(store.entries), store.nbytes))
        return out

    clear_memo()
    full = []
    want = answers(full)
    budget = full[-1][1] // 4
    clear_memo()
    pool = modules._memo[("pool",)] = object()
    monkeypatch.setattr(modules, "_CONTENT_BUDGET", budget)
    small = []
    assert answers(small) == want
    counts = [count for count, _ in small]
    assert any(b < a for a, b in zip(counts, counts[1:]))
    assert all(nbytes <= budget for _, nbytes in small)
    assert modules._memo[("pool",)] is pool
    clear_memo()


# -- comparison and hashing ----------------------------------------------------


def test_results_that_hold_maps_compare_and_hash(ring2, s_e1, m2):
    # maps and ideals compare by identity, as modules and rings do, so
    # results that hold them compare and hash instead of raising
    first, second = s_pd(m2, s_e1), s_pd(_twin(m2), s_e1)
    mapping = first.certificate.mapping
    twin_map = ModuleMap(mapping.source, mapping.target, mapping.matrix.copy())
    ideal = enumerate_ideals(ring2).maximals[0]
    twin_ideal = Ideal(ring2, ideal.basis.copy(), ideal.is_prime, ideal.is_maximal)
    pairs = [(first, second), (s_id(m2, s_e1), s_id(m2, s_e1)),
             (first.certificate, second.certificate),
             (local_profile(m2), local_profile(m2)),
             (mapping, twin_map), (ideal, twin_ideal)]
    for a, b in pairs:
        assert a == a and not a != a
        assert (a == b) in (True, False)
        assert hash(a) == hash(a) and isinstance(hash(b), int)
        assert len({a, b, a}) in (1, 2)
    # the structural comparisons stay available
    assert mapping != twin_map and np.array_equal(mapping.matrix, twin_map.matrix)
    assert ideal != twin_ideal and ideal.key() == twin_ideal.key()
