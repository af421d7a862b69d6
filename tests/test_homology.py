"""Resolutions, Ext, connecting maps, long S-exact sequences."""

import json
import random
from collections import Counter
from math import comb

import numpy as np
import pytest

from srelhom import gfmat, homology, modules
from srelhom.checks import _cyclic_triple, _nonunit_element, clear_memo
from srelhom.dimensions import s_pd
from srelhom.errors import (
    InputError,
    InternalInvariantViolation,
    NotSExact,
    NotSIso,
    RingMismatch,
)
from srelhom.instances import (
    bundled_rings,
    middle_free_triple,
    random_module,
    random_multset,
    random_s_exact_triple,
    random_split_triple,
)
from srelhom.rings import (
    direct_product,
    enumerate_ideals,
    maximal_ideals,
    mult_closure,
    prime_field,
    radical_ideal,
    truncated_polynomial,
)
from srelhom.modules import (
    Module,
    ModuleMap,
    _hom_block_matrix,
    cap_chain,
    character_dual,
    free_map_from_generator_images,
    free_module,
    hom_space,
    regular_module,
    ring_matrix_of_free_map,
    s_exactness_check,
    scaling_map,
    submodule_from_columns,
    subquotient,
    zero_module,
)
from srelhom.homology import (
    STYLES,
    AssembledResolution,
    HomCochain,
    Resolution,
    chain_lift,
    ext,
    ext_map_on_target,
    ext_from_cochain,
    ext_with_resolution,
    injective_cocover,
    long_ext_sequence,
    resolution,
    resolution_from_spec,
    resolution_to_spec,
)

from conftest import (
    product_ring,
    quotient_module,
    socle_and_top_differ,
    square_zero_ring,
)
import les_oracle
from les_oracle import comparison_isomorphisms, direct_long_ext_sequence, horseshoe
import test_rings
from test_rings import group_algebra


def residue_field(t2):
    return quotient_module(t2, [[0, 1]])


def free_resolution(module, depth, style="minimal"):
    """The cached resolution of module, extended through depth."""
    res = resolution(module, style)
    res.ensure(depth)
    return res


def test_resolution_of_residue_field_is_periodic(t2):
    k = residue_field(t2)
    res = free_resolution(k, 6)
    assert [res.rank(i) for i in range(7)] == [1] * 7
    assert [res.syzygy(i).vdim for i in range(7)] == [1] * 7


def test_resolution_of_free_module_stops(t2):
    res = free_resolution(free_module(t2, 2), 3)
    assert [res.rank(i) for i in range(4)] == [2, 0, 0, 0]


def test_resolution_cache_is_shared(m2):
    assert resolution(m2) is resolution(m2)
    assert resolution(m2) is not resolution(m2, "plain")


def test_resolution_ranks_product_ring(m2):
    res = free_resolution(m2, 4)
    # m2 is the residue field of the F2[t]/(t^2) block; each syzygy has a
    # top of dimension at most 1 in each block, so one generator covers it
    assert [res.rank(i) for i in range(5)] == [1, 1, 1, 1, 1]
    assert [res.syzygy(i).vdim for i in range(5)] == [1, 2, 1, 2, 1]


def test_boundary_composites_vanish(m2):
    res = free_resolution(m2, 3)
    for k in range(1, 3):
        comp = (res.boundary(k).matrix @ res.boundary(k + 1).matrix) % 2
        assert not comp.any()
    aug = (res.augmentation.matrix @ res.boundary(1).matrix) % 2
    assert not aug.any()


def test_ext_residue_field(t2):
    k = residue_field(t2)
    reg = regular_module(t2)
    for n in range(4):
        assert ext(k, k, n).dim == 1
    assert ext(k, reg, 0).dim == 1
    for n in range(1, 4):
        assert ext(k, reg, n).dim == 0


def test_ext_zero_module(ring2, m2):
    z = zero_module(ring2)
    assert ext(z, m2, 1).dim == 0
    assert ext(m2, z, 2).dim == 0


def test_ext_negative_degree_rejected(m2):
    with pytest.raises(InputError):
        ext(m2, m2, -1)


def test_ext_rejects_modules_over_different_rings(ring2, t2):
    # both directions: a target over another ring, a source over another
    for source, target in ((regular_module(t2), regular_module(ring2)),
                           (regular_module(ring2), regular_module(t2))):
        with pytest.raises(RingMismatch, match="different rings"):
            ext(source, target, 1)


def test_ext_with_resolution_checks_the_degree_and_the_ring(t2):
    # F2 x F2 and F2[t]/(t^2) have the same dimension, so only the ring
    # check tells them apart; F2 x F2[t]/(t^2) has another dimension
    f2xf2 = direct_product(prime_field(2), prime_field(2))
    t2_product = direct_product(prime_field(2), t2)
    for source, target in ((f2xf2, t2), (t2, t2_product)):
        res = resolution(regular_module(source))
        with pytest.raises(RingMismatch, match="different rings"):
            ext_with_resolution(res, regular_module(target), 0)
    res = resolution(regular_module(t2))
    with pytest.raises(InputError, match="nonnegative"):
        ext_with_resolution(res, regular_module(t2), -1)
    assert ext_with_resolution(res, regular_module(t2), 0).dim == 2


def test_ext_m2_frozen_values(ring2, m2):
    e1 = ring2.element([1, 0, 0])
    reg = regular_module(ring2)
    for n in range(4):
        e = ext(m2, m2, n)
        assert e.dim == 1
        assert not e.module.action_of(e1).any()
    assert ext(m2, reg, 1).dim == 0
    assert ext(m2, reg, 0).dim == 1


def test_ext_zero_degree_matches_hom(ring2, m2, t2):
    assert ext(m2, m2, 0).dim == len(hom_space(m2, m2))
    assert ext(m2, regular_module(ring2), 0).dim == len(
        hom_space(m2, regular_module(ring2)))
    k = residue_field(t2)
    assert ext(k, regular_module(t2), 0).dim == len(
        hom_space(k, regular_module(t2)))


def test_ext_style_independence(m2):
    for n in range(3):
        dims = {ext(m2, m2, n, style).dim
                for style in ("minimal", "plain", "seeded-random")}
        assert len(dims) == 1


def test_class_of_representatives(m2):
    e = ext(m2, m2, 2)
    for j in range(e.dim):
        cls = e.class_of(e.reps[:, j])
        expected = np.zeros(e.dim, dtype=np.int64)
        expected[j] = 1
        assert np.array_equal(cls, expected)


def test_induced_map_of_identity_is_identity(ring2, m2):
    res = resolution(m2)
    res.ensure(3)
    from srelhom.homology import HomCochain, ext_from_cochain
    hc = HomCochain(res, m2)
    e = ext_from_cochain(hc, 2)
    ind = ext_map_on_target(e, e, ModuleMap.identity(m2))
    assert np.array_equal(ind.matrix, np.identity(e.dim, dtype=np.int64))


def test_chain_lift_commutes(t2):
    k = residue_field(t2)
    reg = regular_module(t2)
    h = hom_space(k, reg)[0]
    res_k = Resolution(k, "minimal")
    res_r = Resolution(reg, "minimal")
    lifts = chain_lift(h, res_k, res_r, 2)
    aug_s = res_k.augmentation.matrix
    aug_t = res_r.augmentation.matrix
    assert np.array_equal((aug_t @ lifts[0].matrix) % 2, (h.matrix @ aug_s) % 2)
    for n in range(1, 3):
        left = (res_r.boundary(n).matrix @ lifts[n].matrix) % 2
        right = (lifts[n - 1].matrix @ res_k.boundary(n).matrix) % 2
        assert np.array_equal(left, right)


def exact_core_sequence(ring2):
    """0 -> (e1) -> R -> R/(e1) -> 0, genuinely exact."""
    reg = regular_module(ring2)
    e1 = ring2.element([1, 0, 0])
    img, incl = subquotient(scaling_map(reg, e1), "image")
    quot, proj = subquotient(incl, "cokernel")
    return incl, proj


def test_horseshoe_produces_valid_resolution(ring2):
    incl, proj = exact_core_sequence(ring2)
    res_sub = free_resolution(incl.source, 4)
    res_quot = free_resolution(proj.target, 4)
    assembled, taus = horseshoe(incl, proj, res_sub, res_quot, 4)
    # construction validates exactness; freeze the rank pattern
    assert [assembled.rank(i) for i in range(5)] == [2] * 5
    assert len(taus) == 5
    ext_direct = ext(incl.target, proj.target, 2).dim
    ext_via = ext_with_resolution(assembled, proj.target, 2).dim
    assert ext_direct == ext_via


def test_assembled_resolution_rejects_broken_input(ring2):
    incl, proj = exact_core_sequence(ring2)
    res_sub = free_resolution(incl.source, 3)
    res_quot = free_resolution(proj.target, 3)
    assembled, _ = horseshoe(incl, proj, res_sub, res_quot, 3)
    maps = list(assembled.maps)
    maps[1] = ModuleMap.zero(maps[1].source, maps[1].target)
    with pytest.raises(InputError):
        AssembledResolution(incl.target, maps)


def test_long_sequence_classical_both_variances(t2):
    s_one = mult_closure(t2, [])
    reg = regular_module(t2)
    t = t2.basis_element(1)
    img, incl = subquotient(scaling_map(reg, t), "image")
    k, proj = subquotient(incl, "cokernel")
    expected_dims = [0, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1]
    for variance in ("covariant", "contravariant"):
        data = long_ext_sequence((incl, proj), k, 3, variance, s_one)
        assert data.ok
        assert [m.vdim for m in data.modules] == expected_dims
        assert all(w.label() == "1" for w in data.report.witnesses())
        d1 = data.delta(1)
        assert d1.source.vdim == d1.target.vdim == 1
        assert d1.matrix.any()


def test_long_sequence_s_relative(ring2, m2, s_e1):
    reg = regular_module(ring2)
    e1 = ring2.element([1, 0, 0])
    f = scaling_map(reg, e1)
    c, g = subquotient(f, "cokernel")
    for variance in ("covariant", "contravariant"):
        data = long_ext_sequence((f, g), m2, 2, variance, s_e1)
        assert data.ok
        assert all(w.label() == "e1" for w in data.report.witnesses())
    # kernel corrector witnesses are recorded
    data = long_ext_sequence((f, g), m2, 1, "covariant", s_e1)
    assert data.correctors["t1_witness"].label() == "e1"


def test_exact_core_decides_each_corrector_once(monkeypatch, ring2, m2, s_e1):
    # s_iso_inverse decides each corrector; no separate is_s_isomorphism
    reg = regular_module(ring2)
    f = scaling_map(reg, ring2.element([1, 0, 0]))
    _, g = subquotient(f, "cokernel")
    s_mid = s_exactness_check(cap_chain([f, g]), s_e1).positions[1].witness
    decided = []
    real = modules.is_s_isomorphism
    monkeypatch.setattr(modules, "is_s_isomorphism",
                        lambda t, s_set: decided.append(t) or real(t, s_set))
    core = homology._exact_core(f, g, s_e1, s_mid)
    assert decided == [core["t1"], core["t2"]]

    # a corrector that is no S-isomorphism is an engine fault, named as before
    def refuse(t, s_set):
        raise NotSIso("map is not an S-isomorphism; no inverse witness exists")

    monkeypatch.setattr(homology, "s_iso_inverse", refuse)
    with pytest.raises(InternalInvariantViolation, match="^kernel corrector is not an S-iso$"):
        long_ext_sequence((f, g), m2, 1, "covariant", s_e1)


def test_long_sequence_with_nonzero_higher_terms(ring2, m2, s_e1, s_one):
    # 0 -> M2 -> R/(e1) -> M2 -> 0, genuinely exact with nonzero higher Ext
    quot = quotient_module(ring2, [[1, 0, 0]])
    f = next(h for h in hom_space(m2, quot)
             if np.linalg.matrix_rank(h.matrix) == 1)
    c, g = subquotient(f, "cokernel")
    for variance in ("covariant", "contravariant"):
        # over S = {1} the connecting maps must carry the exactness
        data = long_ext_sequence((f, g), m2, 2, variance, s_one)
        assert data.ok
        assert [m.vdim for m in data.modules] == [0, 1, 1, 1, 1, 0, 1, 1, 0, 1]
        assert data.delta(1).matrix.any()
        assert data.delta(2).matrix.any()
        # with e1 in S every term is torsion, so the zero corrector is a
        # legitimate S-iso inverse and the deltas may collapse to zero
        relaxed = long_ext_sequence((f, g), m2, 2, variance, s_e1)
        assert relaxed.ok
        assert all(w.label() == "e1" for w in relaxed.report.witnesses())


def test_long_sequence_rejects_non_s_exact(ring2, s_one):
    reg = regular_module(ring2)
    e1 = ring2.element([1, 0, 0])
    f = scaling_map(reg, e1)
    c, g = subquotient(f, "cokernel")
    for variance in ("covariant", "contravariant"):
        with pytest.raises(NotSExact, match="position 1$"):
            long_ext_sequence((f, g), reg, 1, variance, s_one)


def test_long_sequence_rejects_other_rings(ring2, t2):
    # the other module and S each over F_2 x F_2[t]/(t^2), the sequence
    # over F_2[t]/(t^2)
    reg = regular_module(t2)
    img, incl = subquotient(scaling_map(reg, t2.basis_element(1)), "image")
    k, proj = subquotient(incl, "cokernel")
    s_one = mult_closure(t2, [])
    for variance in ("covariant", "contravariant"):
        with pytest.raises(RingMismatch, match="Ext between modules over different rings"):
            long_ext_sequence((incl, proj), regular_module(ring2), 1, variance, s_one)
        with pytest.raises(RingMismatch, match="multiplicative set over different rings"):
            long_ext_sequence((incl, proj), k, 1, variance, mult_closure(ring2, []))


def _les_oracle_case(seed, non_fields, square_zero):
    """(ring, S, f, g, N, n) for one seeded comparison.

    Seeds below 150 cycle through the three triple families on the pool,
    degenerate S included.  Random triples rarely force a nonzero
    connecting map, so seeds 150-199 take 0 -> Rv -> R -> R/(v) -> 0
    against R/(w) over the non-field pool rings at S = {1}.  Every pool
    ring is a product of chain rings, over which every module is
    isomorphic to its dual, so seeds 200-239 draw the families over
    F_2[x, y]/(x, y)^2, where it need not be.
    """
    rng = random.Random("les-oracle:%d" % seed)
    _, ring = rng.choice(bundled_rings())
    if seed >= 200:
        ring = square_zero
    s = random_multset(ring, rng)
    if 150 <= seed < 200:
        ring = rng.choice(non_fields)
        s = mult_closure(ring, [])
        f, g = _cyclic_triple(ring, _nonunit_element(ring, rng))
        other = quotient_module(ring, [list(_nonunit_element(ring, rng).vec)])
    else:
        if seed % 3 == 0:
            f, g = random_s_exact_triple(ring, s, rng)
        elif seed % 3 == 1:
            f, g, _ = random_split_triple(ring, s, rng)
        else:
            f, g = middle_free_triple(ring, rng)
        other = random_module(ring, rng, max_rank=2)
    return ring, s, f, g, other, rng.randint(0, 2 if seed >= 200 else 3)


def test_contravariant_sequence_matches_the_horseshoe_oracle():
    # the dual route against the direct horseshoe construction: the same
    # verdict, module dimensions, position witnesses and delta ranks
    tally = Counter()
    non_fields = [ring for _, ring in bundled_rings() if ring.dim > 1]
    square_zero = square_zero_ring()
    for seed in range(240):
        ring, s, f, g, other, n = _les_oracle_case(seed, non_fields, square_zero)
        got = long_ext_sequence((f, g), other, n, "contravariant", s)
        want = direct_long_ext_sequence((f, g), other, n, s)
        assert got.variance == "contravariant"
        assert got.ok == want.ok, seed
        assert [m.vdim for m in got.modules] == [m.vdim for m in want.modules], seed
        assert got.report.witnesses() == want.report.witnesses(), seed
        ranks = [gfmat.rank(got.delta(k).matrix, ring.p) for k in range(1, n + 1)]
        assert ranks == [gfmat.rank(want.delta(k).matrix, ring.p)
                         for k in range(1, n + 1)], seed
        tally["nonzero delta"] += any(ranks)
        if ring is square_zero:
            tally["dual differs"] += socle_and_top_differ(other)
    assert tally["nonzero delta"] >= 15, tally
    assert tally["dual differs"] >= 10, tally


def test_comparison_isomorphisms_are_exact_inverses(m2):
    res_a = free_resolution(m2, 4, "minimal")
    res_b = Resolution(m2, "seeded-random", seed=7)
    res_b.ensure(4)
    ext_a, ext_b, a2b, b2a = comparison_isomorphisms(res_a, res_b, m2, 3)
    assert ext_a.dim == ext_b.dim == 1
    assert np.array_equal((b2a.matrix @ a2b.matrix) % 2,
                          np.identity(ext_a.dim, dtype=np.int64))
    assert np.array_equal((a2b.matrix @ b2a.matrix) % 2,
                          np.identity(ext_b.dim, dtype=np.int64))


def test_comparison_rejects_resolutions_of_different_modules(ring2, m2):
    # the two simple modules of F2 x F2[t]/(t^2) have equal dimension
    other = quotient_module(ring2, [[0, 1, 0], [0, 0, 1]])
    assert other.vdim == m2.vdim
    with pytest.raises(InputError, match="different modules"):
        comparison_isomorphisms(free_resolution(m2, 2), free_resolution(other, 2), m2, 1)


def test_injective_cocover(ring2, m2):
    iota = injective_cocover(m2)
    assert iota.source is m2
    assert np.linalg.matrix_rank(iota.matrix) == m2.vdim
    # the envelope is the dual of a free module
    reg = regular_module(ring2)
    assert iota.target.vdim % reg.vdim == 0


def cocover_oracle_rings():
    """The pool, square_zero_ring and its products, and group algebras."""
    square = square_zero_ring()
    rings = [ring for _, ring in bundled_rings()]
    rings += [square, direct_product(square, prime_field(2)),
              direct_product(square, truncated_polynomial(2, 2))]
    return rings + [group_algebra(2, [2, 2]), group_algebra(2, [4]), group_algebra(3, [3]),
                    group_algebra(2, [2, 2, 2]), group_algebra(3, [3, 3])]


def test_injective_cocover_is_the_validated_transpose_of_the_dual_cover():
    # injective_cocover stores iota unchecked; rebuilt with the validating
    # constructor, which checks that it intertwines the actions, it must
    # give the same target object and the same bytes
    rng = random.Random("cocover-oracle")
    count = 0
    for ring in cocover_oracle_rings():
        modules = [regular_module(ring), character_dual(regular_module(ring))]
        modules += [random_module(ring, rng) for _ in range(4 if ring.dim > 6 else 12)]
        for mod in modules:
            iota = injective_cocover(mod)
            cover = resolution(character_dual(mod)).cover(0)
            want = ModuleMap(mod, character_dual(cover.source), cover.matrix.T)
            assert iota.source is mod and iota.target is want.target
            assert same_bytes(iota.matrix, want.matrix)
            ModuleMap(iota.source, iota.target, iota.matrix)
            count += 1
    assert count >= 190, count


def test_resolution_wire_round_trip(ring2, m2):
    res = free_resolution(m2, 3)
    doc = resolution_to_spec(res, 3)
    back = resolution_from_spec(ring2, json.loads(json.dumps(doc)))
    assert ext_with_resolution(back, m2, 2).dim == ext(m2, m2, 2).dim


def test_resolution_wire_depth_guard(ring2, m2):
    res = free_resolution(m2, 2)
    doc = resolution_to_spec(res, 2)
    back = resolution_from_spec(ring2, doc)
    with pytest.raises(InputError):
        ext_with_resolution(back, m2, 2)  # needs boundary at level 3


# -- the syzygy-module walk that ambient coordinates replaced -----------------


class SyzygyWalkResolution:
    """The resolution built syzygy by syzygy, kept as an oracle.

    Level i builds K_i as a Module, picks generators against rad K_i in
    its own coordinates, covers it and builds K_{i+1} from the kernel of
    the cover through submodule_from_columns; d_i is inclusion . cover.
    The generators follow the block rule: for each primitive idempotent
    e_i in turn, the columns of e_i's action that leave rad K_i and the
    blocks before it, and generator t sums the t-th such column of every
    block.
    """

    def __init__(self, module, style="minimal", seed=0):
        self.module, self.style, self.seed = module, style, seed
        self.frees, self.covers = [], []
        self.syzygies, self.inclusions = [module], [None]

    def _generator_columns(self, k_mod, level):
        ring, p = self.module.ring, self.module.ring.p
        if self.style == "plain":
            return gfmat.identity(k_mod.vdim)
        rad = ring.radical_basis()
        rad_cols = [k_mod.action_of(rad[:, j]) for j in range(rad.shape[1])]
        span = (gfmat.column_space(np.hstack(rad_cols), p) if rad_cols
                else gfmat.zeros(k_mod.vdim, 0))
        tops = []
        for e in ring.primitive_idempotents():
            act = k_mod.action_of(e)
            tops.append(act[:, gfmat.columns_outside_span(span, act, p)])
            span = np.hstack([span, act])
        gens = gfmat.zeros(k_mod.vdim, max(top.shape[1] for top in tops))
        for top in tops:
            gens[:, :top.shape[1]] += top
        gens %= p
        if self.style == "seeded-random" and k_mod.vdim:
            rng = random.Random("res:%d:%d:%d" % (self.seed, level, k_mod.vdim))
            extra = []
            for _ in range(rng.randint(1, 2)):
                vec = np.array([rng.randrange(p) for _ in range(k_mod.vdim)],
                               dtype=np.int64)
                if vec.any():
                    extra.append(vec.reshape(-1, 1))
            if extra:
                gens = np.hstack([gens] + extra)
        return gens

    def ensure(self, index):
        ring = self.module.ring
        while len(self.frees) <= index:
            level = len(self.frees)
            k_mod = self.syzygies[level]
            gens = self._generator_columns(k_mod, level)
            free = free_module(ring, gens.shape[1])
            cover = free_map_from_generator_images(free, k_mod, gens)
            if gfmat.rank(cover.matrix, ring.p) != k_mod.vdim:
                raise InternalInvariantViolation("cover is not surjective")
            self.frees.append(free)
            self.covers.append(cover)
            nxt, incl = submodule_from_columns(
                free, gfmat.nullspace(cover.matrix, ring.p))
            self.syzygies.append(nxt)
            self.inclusions.append(incl)

    def boundary(self, k):
        self.ensure(k)
        if k == 0:
            return self.covers[0]
        return self.inclusions[k].compose(self.covers[k])


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def oracle_modules():
    """random_module draws and every cyclic quotient R/I, over the pool
    and over F2[C2 x C2], whose maximal ideal needs two generators."""
    rng = random.Random(20)
    rings = [ring for _, ring in bundled_rings()] + [group_algebra(2, [2, 2])]
    for ring in rings:
        for _ in range(4):
            yield random_module(ring, rng)
        for ideal in enumerate_ideals(ring).proper:
            yield quotient_module(ring, ideal.basis.T.tolist())


def test_ambient_resolution_matches_the_syzygy_walk():
    count = 0
    for mod in oracle_modules():
        for style in STYLES:
            # plain ranks grow by a factor of dim R per level
            depth = 2 if style == "plain" else 4
            for seed in (0, 3) if style == "seeded-random" else (0,):
                res = Resolution(mod, style, seed)
                walk = SyzygyWalkResolution(mod, style, seed)
                for k in range(depth + 1):
                    assert same_bytes(res.boundary(k).matrix, walk.boundary(k).matrix)
                    assert res.frees[k] is walk.frees[k]
                for i in range(1, depth + 1):
                    assert same_bytes(res.syzygy(i).actions, walk.syzygies[i].actions)
                    assert same_bytes(res.inclusion(i).matrix,
                                      walk.inclusions[i].matrix)
                    assert same_bytes(res.cover(i).matrix, walk.covers[i].matrix)
                    assert res.cover(i).target is res.syzygy(i)
                assert same_bytes(res.cover(0).matrix, walk.covers[0].matrix)
                # the kernel a level holds is the canonical one of its cover
                for k in range(depth):
                    assert same_bytes(res._kernels[k],
                                      gfmat.nullspace(res.cover(k).matrix, mod.ring.p))
                count += 1
    assert count > 100


def test_ensure_builds_no_syzygy_module(monkeypatch):
    built_on = []
    original = homology.submodule_from_columns

    def spy(mod, cols):
        built_on.append(mod)
        return original(mod, cols)

    monkeypatch.setattr(homology, "submodule_from_columns", spy)
    ring = product_ring()
    rng = random.Random(5)
    s_one = mult_closure(ring, [])
    for _ in range(6):
        mod = random_module(ring, rng)
        for n in range(3):
            ext(mod, mod, n)
        s_pd(mod, s_one)
        res = resolution(mod)
        assert not any(any(m is f for f in res.frees) for m in built_on)
    # built on demand, on the free module the syzygy sits in
    k1 = res.syzygy(1)
    assert built_on[-1] is res.frees[0] and k1.vdim == res.inclusion(1).matrix.shape[1]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_ext_of_the_trivial_module_over_elementary_abelian_groups(r):
    # Ext^*(k, k) over F2[C2^r] is a polynomial ring in r generators of
    # degree 1, so Ext^n has dimension C(n + r - 1, n)
    ring = group_algebra(2, [2] * r)
    unit = ring.unit.tolist()
    augmentation = [[u + int(i == j) for i, u in enumerate(unit)]
                    for j in range(1, ring.dim)]
    k = quotient_module(ring, augmentation)
    assert k.vdim == 1
    for n in range(3):
        assert ext(k, k, n).dim == comb(n + r - 1, n)


# -- generators block by block: ranks follow the largest block top ----------


class FpTopResolution(Resolution):
    """The "minimal" style before generators were picked block by block:
    the basis columns of K that leave rad K and the columns before them,
    an F_p-basis of K / rad K, one generator each.  Its levels are keyed
    apart from the engine's in the content cache by a style name of its
    own."""

    def __init__(self, module):
        super().__init__(module, "minimal")
        self.style = "fp-top"

    def _generator_columns(self, host, basis, level):
        p, k = self.ring.p, basis.shape[1]
        rad = self.ring.radical_generators()
        d, n, t = self.ring.dim, host.vdim, rad.shape[1]
        acts = (rad.T @ host.actions.reshape(d, n * n) % p).reshape(t, n, n)
        rad_k = (acts @ basis % p).transpose(1, 0, 2).reshape(n, t * k)
        return basis[:, gfmat.columns_outside_span(rad_k, basis, p)]


def block_rule_rings():
    """Local and product rings: test_rings' oracle rings, the F4 rings,
    products with F2[x, y]/(x, y)^2 and F2 x F2[C2^3]."""
    square = square_zero_ring()
    return test_rings.oracle_rings() + test_rings.f4_rings() + [
        square, direct_product(square, prime_field(2)),
        direct_product(square, truncated_polynomial(2, 2)),
        direct_product(square, square),
        direct_product(prime_field(2), group_algebra(2, [2, 2, 2]))]


def largest_block_top(mod):
    """max_i mu_i, with mu_i = dim e_i (K / rad K) / k_i the dimension of
    block i's top over its residue field, from ranks of K's own action
    matrices: dim e_i K - dim e_i rad K, with e_i rad K spanned by the
    columns of e_i r over a basis r of rad R."""
    ring, p = mod.ring, mod.ring.p
    rad = ring.radical_basis()
    _, residues = ring.block_dimensions()
    tops = [0]
    for e, k in zip(ring.primitive_idempotents(), residues):
        act = mod.action_of(e)
        moved = [act @ mod.action_of(rad[:, j]) % p for j in range(rad.shape[1])]
        below = gfmat.rank(np.hstack(moved), p) if moved else 0
        top = gfmat.rank(act, p) - below
        assert top % k == 0
        tops.append(top // k)
    return max(tops)


def block_rule_cases():
    """(ring, modules, target): R, then R / J and R / P for each maximal
    ideal P, whose tops lie in every block or in one, and two random
    modules."""
    rng = random.Random("block-rule")
    for ring in block_rule_rings():
        ideals = [radical_ideal(ring)] + list(maximal_ideals(ring))
        mods = [regular_module(ring)]
        mods += [quotient_module(ring, ideal.basis.T.tolist()) for ideal in ideals]
        mods += [random_module(ring, rng, max_rank=2) for _ in range(2)]
        yield ring, mods, random_module(ring, rng, max_rank=1)


def test_ranks_are_the_largest_block_top_of_each_syzygy():
    blocks = Counter()
    for ring, mods, _ in block_rule_cases():
        for mod in mods:
            res = resolution(mod)
            for n in range(4):
                assert res.rank(n) == largest_block_top(res.syzygy(n)), (ring, n)
        blocks[len(ring.primitive_idempotents()) > 1] += 1
        blocks["F_q"] += max(ring.block_dimensions()[1]) > 1
    assert blocks[True] >= 10 and blocks[False] >= 20 and blocks["F_q"] == 3, blocks


def test_a_field_with_four_elements_is_its_own_cover():
    # F4 is a field, so R^1 -> R is the whole resolution of R; a block
    # top over F4 takes one generator per F4-dimension, not two per
    # F2-dimension
    f4, with_t2, square = test_rings.f4_rings()
    for ring in (f4, with_t2, square):
        res = resolution(regular_module(ring))
        assert [res.rank(n) for n in range(5)] == [1, 0, 0, 0, 0], ring
    top = quotient_module(with_t2, with_t2.radical_basis().T.tolist())
    res = resolution(top)
    assert [res.rank(n) for n in range(5)] == [1] * 5
    assert [ext(top, top, n).dim for n in range(4)] == [3, 1, 1, 1]


def test_ext_is_the_same_from_every_cover_rule():
    # Ext^n for n <= 3 from the block rule, from the F_p-top rule and, on
    # rings of dimension at most 3, from "plain" (past that its ranks grow
    # by a factor of dim R per level); on a local ring with residue field
    # F_p the two minimal rules give the same bytes
    compared = Counter()
    for ring, mods, target in block_rule_cases():
        local = len(ring.primitive_idempotents()) == 1
        residue_fp = ring.residue_lifts()[1] == (1,)
        for mod in mods[1:]:
            res, old = resolution(mod), FpTopResolution(mod)
            for n in range(4):
                dim = ext(mod, target, n).dim
                assert ext_with_resolution(old, target, n).dim == dim, (ring, n)
                if ring.dim <= 3:
                    assert ext(mod, target, n, style="plain").dim == dim, (ring, n)
                    compared["plain"] += 1
                if residue_fp:
                    assert same_bytes(res.boundary(n).matrix, old.boundary(n).matrix)
            compared["local" if local else "product"] += 1
    assert compared["plain"] >= 100 and compared["product"] >= 20, compared


def test_ext_cubed_of_the_residue_field_of_the_big_block():
    # F2 x F2[C2^4]: the ranks are the Betti numbers C(n + 3, 3) of the
    # block, where the F_p-top rule gave 1, 5, 15, 35, 70
    ring = direct_product(prime_field(2), group_algebra(2, [2] * 4))
    # kill the F2 factor and g - 1 for every group element g of the block
    eye = np.eye(ring.dim, dtype=np.int64)
    k = quotient_module(ring, [eye[0].tolist()] + [(eye[1] + eye[j]).tolist()
                                                    for j in range(2, ring.dim)])
    assert k.vdim == 1
    res = resolution(k)
    assert [res.rank(n) for n in range(4)] == [1, 4, 10, 20]
    assert ext(k, k, 3).dim == 20


def test_a_cover_missing_one_block_is_caught(monkeypatch):
    # dropping the columns of the last block leaves that block of the
    # syzygy uncovered, which the surjectivity check refuses; block i
    # holds k_i columns per basis column of K, so the last block starts
    # at (q - k_m) columns per basis column for q = k_1 + ... + k_m
    original = gfmat.columns_outside_span
    checked = 0
    for ring in block_rule_rings():
        m = len(ring.primitive_idempotents())
        if m == 1:
            continue
        ring.radical_generators()
        sizes = ring.residue_lifts()[1]
        q = sum(sizes)

        def drop_last_block(span, cols, p):
            last = cols.shape[1] // q * (q - sizes[-1])
            return [c for c in original(span, cols, p) if c < last]

        clear_memo()
        with monkeypatch.context() as patch:
            patch.setattr(gfmat, "columns_outside_span", drop_last_block)
            with pytest.raises(InternalInvariantViolation, match="not surjective"):
                resolution(regular_module(ring)).ensure(0)
        checked += 1
    assert checked >= 10


# -- blockwise cochain operations against the dense forms they replaced -------


def random_matrix(rng, p, rows, cols):
    return np.array([rng.randrange(p) for _ in range(rows * cols)],
                    dtype=np.int64).reshape(rows, cols)


def cochain_cases():
    """(C, k, rng): seeded pool draws of Hom(F_., N) in degree k, then
    every pool ring at the edge shapes r_k = 0 (R^2 past level 0) and
    n = 0 (N = 0)."""
    rng = random.Random("blockwise-cochains")
    pool = [ring for _, ring in bundled_rings()]
    for _ in range(80):
        ring = rng.choice(pool)
        res = resolution(random_module(ring, rng))
        yield HomCochain(res, random_module(ring, rng)), rng.randrange(3), rng
    for ring in pool:
        yield HomCochain(resolution(free_module(ring, 2)), random_module(ring, rng)), 1, rng
        yield HomCochain(resolution(random_module(ring, rng)), zero_module(ring)), 1, rng


def test_push_matches_the_kron_product():
    # ext_map_on_target's map on cochains: kron(I_r, h) @ cols
    shapes = Counter()
    for hc, k, rng in cochain_cases():
        p, r, n = hc.target.ring.p, hc.res.rank(k), hc.target.vdim
        shapes["r = 0"] += r == 0
        shapes["n = 0"] += n == 0
        shapes["both > 0"] += r * n > 0
        for out in (0, 1, 3):
            h = random_matrix(rng, p, out, n)
            for c in (0, 1, 3):
                cols = random_matrix(rng, p, r * n, c)
                want = (np.kron(gfmat.identity(r), h) @ cols) % p
                assert same_bytes(hc.push(k, h, cols), want)
    assert min(shapes.values()) >= 7, shapes


def test_pull_matches_the_kron_solve():
    # the snake map's two solves: kron(I_r, h) x = cols, canonical x
    tally = Counter()
    for hc, k, rng in cochain_cases():
        p, r = hc.target.ring.p, hc.res.rank(k)
        for rows, width in ((0, 2), (2, 0), (3, 2), (2, 3), (3, 3)):
            h = random_matrix(rng, p, rows, width)
            if rows:
                h[rng.randrange(rows)] = 0  # h is not onto
            for c in (0, 1, 3):
                x = random_matrix(rng, p, r * width, c)
                for cols in (hc.push(k, h, x), random_matrix(rng, p, r * rows, c)):
                    got = hc.pull(k, h, cols)
                    want = gfmat.solve(np.kron(gfmat.identity(r), h), cols, p)
                    assert (got is None) == (want is None)
                    tally["inconsistent"] += got is None
                    if got is not None:
                        assert same_bytes(got, want)
                        assert same_bytes(hc.push(k, h, got), cols)
    assert tally["inconsistent"] > 50, tally


def test_hom_block_matrix_matches_the_block_loop():
    rng = random.Random("hom-block-matrix")
    for hc, k, _ in cochain_cases():
        # the differential's coefficients, a transposed view
        coeffs = hc.res.ring_matrix(k + 1).transpose(1, 0, 2)
        assert same_bytes(_hom_block_matrix(hc.target, coeffs),
                          les_oracle.hom_block_matrix(hc.target, coeffs))
        ring = hc.target.ring
        for out, inn in ((0, 2), (2, 0), (0, 0), (2, 3)):
            coeffs = random_matrix(rng, ring.p, out * inn, ring.dim)
            coeffs = coeffs.reshape(out, inn, ring.dim)
            assert same_bytes(_hom_block_matrix(hc.target, coeffs),
                              les_oracle.hom_block_matrix(hc.target, coeffs))


def test_ring_matrix_of_free_map_matches_the_generator_loop():
    rng = random.Random("ring-matrix")
    for _, ring in bundled_rings():
        for ra in range(4):
            for rb in range(4):
                images = random_matrix(rng, ring.p, rb * ring.dim, ra)
                f = free_map_from_generator_images(
                    free_module(ring, ra), free_module(ring, rb), images)
                assert same_bytes(ring_matrix_of_free_map(f),
                                  les_oracle.ring_matrix_of_free_map(f))
    for hc, k, _ in cochain_cases():
        bd = hc.res.boundary(k + 1)
        assert same_bytes(ring_matrix_of_free_map(bd),
                          les_oracle.ring_matrix_of_free_map(bd))


def dense_cochain_module(hc, k):
    """C^k = N^{r_k} as a module with dense block-diagonal actions."""
    r = hc.res.rank(k)
    ring, n = hc.target.ring, hc.target.vdim
    acts = np.zeros((ring.dim, r, n, r, n), dtype=np.int64)
    acts[:, range(r), :, range(r), :] = hc.target.actions
    return Module(ring, acts.reshape(ring.dim, r * n, r * n))


def test_cycle_module_matches_the_dense_cochain_module():
    for hc, k, _ in cochain_cases():
        cycles = gfmat.nullspace(hc.diff_matrix(k + 1), hc.target.ring.p)
        for cols in (cycles, cycles[:, :0]):
            want, _ = submodule_from_columns(dense_cochain_module(hc, k), cols)
            assert same_bytes(hc.cycle_module(k, cols).actions, want.actions)


def syzygy_key(res, k):
    """What level k of res is computed from: M at level 0, else the rank
    of F_{k-1} and the kernel columns there, with the seed and k for
    "seeded-random"."""
    if k == 0:
        key = ("M",)
    else:
        kernel = res._kernels[k - 1]
        key = (res.rank(k - 1), kernel.shape, kernel.tobytes())
    return key + ((res.seed, k) if res.style == "seeded-random" else ())


class LevelSpy:
    """Records the index of every level Resolution builds."""

    def __init__(self, monkeypatch):
        self.levels = []
        level = Resolution._level

        def spy(res, host, basis, k):
            self.levels.append(k)
            return level(res, host, basis, k)

        monkeypatch.setattr(Resolution, "_level", spy)


@pytest.mark.parametrize("style", STYLES)
def test_resolution_levels_are_shared_by_content(style, monkeypatch):
    # a cold resolution builds one level per distinct syzygy key; a module
    # object with the actions of one resolved before builds none and
    # reuses its levels' arrays, around its own boundaries, syzygies and
    # covers
    levels = LevelSpy(monkeypatch).levels
    rng = random.Random("shared-levels:%s" % style)
    depth = 3
    repeats = 0
    for _ in range(6):
        _, ring = rng.choice(bundled_rings())
        module = random_module(ring, rng)
        clear_memo()
        cold = Resolution(module, style, seed=4)
        cold.ensure(depth)
        keys = [syzygy_key(cold, k) for k in range(depth + 1)]
        firsts = [k for k, key in enumerate(keys) if key not in keys[:k]]
        assert levels[-len(firsts):] == firsts
        repeats += depth + 1 - len(firsts)
        built = len(levels)
        twin = Module(ring, module.actions.copy())
        warm = Resolution(twin, style, seed=4)
        warm.ensure(depth)
        assert len(levels) == built
        assert warm.boundary(0).target is twin
        for k in range(depth + 1):
            assert warm.frees[k] is cold.frees[k]
            assert same_bytes(warm.boundary(k).matrix, cold.boundary(k).matrix)
            assert same_bytes(warm._kernels[k], cold._kernels[k])
        if module.vdim:
            assert warm.syzygy(1) is not cold.syzygy(1)
            assert same_bytes(warm.syzygy(1).actions, cold.syzygy(1).actions)
            assert warm.cover(1).target is warm.syzygy(1)
        # the seed is in the key of "seeded-random" only, and a cleared
        # memo recomputes
        Resolution(twin, style, seed=5).ensure(0)
        clear_memo()
        Resolution(twin, style, seed=4).ensure(0)
        assert levels[built:] == ([0, 0] if style == "seeded-random" else [0])
    # a "seeded-random" key holds its level index, so nothing repeats
    assert (repeats == 0) == (style == "seeded-random"), repeats
    clear_memo()


def t4_residue_field():
    """R/(t) over R = F2[t]/(t^4), whose minimal resolution has period 2:
    the syzygies alternate between (t) and (t^3)."""
    ring = truncated_polynomial(2, 4)
    return quotient_module(ring, np.eye(4, dtype=np.int64)[1:].tolist())


def test_a_periodic_resolution_builds_one_period(monkeypatch):
    # K_1 = (t) comes back as K_3, so levels 3, 4, ... are levels 1, 2
    levels = LevelSpy(monkeypatch).levels
    clear_memo()
    k = t4_residue_field()
    res = resolution(k)
    res.ensure(12)
    assert levels == [0, 1, 2]
    assert [res.rank(n) for n in range(13)] == [1] * 13
    assert [res.syzygy(n).vdim for n in range(1, 13)] == [3, 1] * 6
    for n in range(3, 13):
        assert same_bytes(res.boundary(n).matrix, res.boundary(n - 2).matrix)
    # and the ranks agree with Ext^n(k, k) = F2 in every degree
    assert [ext(k, k, n).dim for n in range(8)] == [1] * 8
    assert levels == [0, 1, 2]
    clear_memo()


def test_a_resolution_with_growing_ranks_shares_no_level(monkeypatch):
    # the residue field of F2[x, y]/(x^2, y^2) = F2[C2 x C2]: the ranks
    # grow, so no syzygy comes back and every level is built
    levels = LevelSpy(monkeypatch).levels
    clear_memo()
    ring = group_algebra(2, [2, 2])
    eye = np.eye(ring.dim, dtype=np.int64)
    k = quotient_module(ring, [(eye[0] + eye[j]).tolist() for j in range(1, ring.dim)])
    res = resolution(k)
    res.ensure(4)
    assert levels == [0, 1, 2, 3, 4]
    assert [res.rank(n) for n in range(5)] == [1, 2, 3, 4, 5]
    clear_memo()


def test_seeded_random_levels_never_share(monkeypatch):
    # its extra generators read the seed and the level index, so the
    # periodic resolution of t4_residue_field builds every level, for
    # every seed; a twin module with the same seed builds none
    levels = LevelSpy(monkeypatch).levels
    clear_memo()
    k = t4_residue_field()
    for seed in (0, 1):
        Resolution(k, "seeded-random", seed).ensure(8)
        assert levels[-9:] == list(range(9))
    Resolution(Module(k.ring, k.actions.copy()), "seeded-random", 1).ensure(8)
    assert len(levels) == 18
    clear_memo()


def deep_walk_rings():
    """The rings perfbench's fp_deep_walks resolves over, F2[x, y]/(x^2,
    y^2) as F2[C2 x C2]."""
    return [truncated_polynomial(2, 4), truncated_polynomial(3, 3), group_algebra(2, [2, 2]),
            direct_product(prime_field(2), truncated_polynomial(2, 2)),
            direct_product(truncated_polynomial(2, 3), truncated_polynomial(2, 2))]


def test_shared_levels_match_levels_built_alone(monkeypatch):
    # a resolution grown one level at a time with the memo cleared in
    # between shares nothing; one grown at once reuses every repeated
    # syzygy, and must hold the same bytes
    levels = LevelSpy(monkeypatch).levels
    rng = random.Random("levels-alone")
    rings = [ring for _, ring in bundled_rings()] + deep_walk_rings()
    shared = Counter()
    for ring in rings:
        top = quotient_module(ring, ring.radical_basis().T.tolist())
        mods = [top, regular_module(ring)] + [random_module(ring, rng) for _ in range(3)]
        for mod in mods:
            for style in STYLES:
                # plain ranks grow by a factor of dim R per level
                depth = 2 if style == "plain" else 6
                alone = Resolution(mod, style, seed=1)
                for n in range(depth + 1):
                    clear_memo()
                    alone.ensure(n)
                clear_memo()
                before = len(levels)
                res = Resolution(twin(mod), style, seed=1)
                res.ensure(depth)
                shared[style] += depth + 1 - (len(levels) - before)
                for n in range(depth + 1):
                    assert same_bytes(res.boundary(n).matrix, alone.boundary(n).matrix)
                    assert same_bytes(res._kernels[n], alone._kernels[n])
                    assert same_bytes(res._gens[n], alone._gens[n])
    assert shared["minimal"] > 100 and shared["seeded-random"] == 0, shared
    clear_memo()


# -- Ext by content ------------------------------------------------------------


def oracle_ext_arrays(hc, n):
    """ext_from_cochain before its content cache, as an oracle: the cycle
    module and the boundary coordinates by gfmat.solve, the quotient by
    column_space and complete_basis, recomputed on every call."""
    ring, p = hc.target.ring, hc.target.ring.p
    cycles = gfmat.nullspace(hc.diff_matrix(n + 1), p)
    r, m, c = hc.res.rank(n), hc.target.vdim, cycles.shape[1]
    moved = np.einsum("iab,jbc->jaic", hc.target.actions, cycles.reshape(r, m, c))
    sol = gfmat.solve(cycles, moved.reshape(r * m, ring.dim * c) % p, p)
    z_acts = np.ascontiguousarray(sol.reshape(c, ring.dim, c).transpose(1, 0, 2))
    boundaries = gfmat.zeros(cycles.shape[0], 0) if n == 0 else hc.diff_matrix(n)
    in_z = gfmat.solve(cycles, boundaries, p)
    assert in_z is not None
    basis = gfmat.column_space(in_z, p)
    k = basis.shape[1]
    if k == 0:
        return cycles, z_acts, gfmat.identity(c), (cycles @ gfmat.identity(c)) % p
    comp, inv = gfmat.complete_basis(basis, p)
    proj = inv[k:, :]
    return cycles, (proj @ z_acts) % p @ comp % p, proj, (cycles @ comp) % p


def twin(module):
    """A separate Module object with the same actions."""
    return Module(module.ring, module.actions.copy())


def ext_oracle_pairs():
    """(M, N): seeded draws over the pool, over F2[x, y]/(x, y)^2 and over
    its products with F2 and F2[t]/(t^2), each ring also with its top
    R/rad R on either side, whose Ext groups are nonzero in every degree
    over a ring that is not semisimple."""
    rng = random.Random("ext-by-content")
    sq = square_zero_ring()
    rings = [ring for _, ring in bundled_rings()] + [
        sq, direct_product(sq, prime_field(2)),
        direct_product(truncated_polynomial(2, 2), sq)]
    for ring in rings:
        top = quotient_module(ring, ring.radical_basis().T.tolist())
        yield top, top
        yield random_module(ring, rng), top
        yield top, random_module(ring, rng)
        for _ in range(2):
            yield random_module(ring, rng), random_module(ring, rng)


@pytest.mark.parametrize("style", ["minimal", "seeded-random"])
def test_ext_arrays_match_the_uncached_oracle(style):
    tally = Counter()
    clear_memo()
    for source, target in ext_oracle_pairs():
        for n in range(4):
            # cold, then warm from separate objects with equal actions
            for src, tgt in ((source, target), (twin(source), twin(target))):
                res = Resolution(src, style, seed=2)
                res.ensure(n + 1)
                got = ext_from_cochain(HomCochain(res, tgt), n)
                cycles, acts, proj, reps = oracle_ext_arrays(HomCochain(res, tgt), n)
                assert same_bytes(got.cycle_basis, cycles)
                assert same_bytes(got.module.actions, acts)
                assert same_bytes(got.proj, proj)
                assert same_bytes(got.reps, reps)
                assert got.source is src and got.target is tgt
            tally["nonzero"] += got.dim > 0
            tally["killed boundaries"] += 0 < got.dim < got.cycle_basis.shape[1]
    assert tally["nonzero"] >= 60 and tally["killed boundaries"] >= 20, tally
    clear_memo()


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_equal_ext_from_separate_objects_costs_no_elimination(monkeypatch):
    clear_memo()
    nullspaces = count_calls(monkeypatch, gfmat, "nullspace")
    rng = random.Random("ext-hit")
    for _, ring in bundled_rings():
        source, target = random_module(ring, rng), random_module(ring, rng)
        n = rng.randrange(4)
        first = ext(source, target, n)
        first.reps
        source2, target2 = twin(source), twin(target)
        before = len(nullspaces)
        second = ext(source2, target2, n)
        second.reps
        assert len(nullspaces) == before
        assert second.module is not first.module
        assert second.cochain is not first.cochain
        assert second.source is source2 and second.target is target2
        assert same_bytes(second.module.actions, first.module.actions)
        assert second.reps is first.reps
    clear_memo()


def test_ext_key_holds_style_seed_target_and_degree(monkeypatch, ring2, m2):
    builds = count_calls(monkeypatch, homology, "_ext_arrays")
    clear_memo()
    reg = regular_module(ring2)
    ext(m2, m2, 1).module
    assert len(builds) == 1
    ext(twin(m2), twin(m2), 1).module
    assert len(builds) == 1
    for source, target, n, style, seed in ((m2, m2, 1, "plain", 0),
                                           (m2, m2, 1, "seeded-random", 0),
                                           (m2, m2, 1, "seeded-random", 1),
                                           (m2, reg, 1, "minimal", 0),
                                           (m2, m2, 2, "minimal", 0)):
        before = len(builds)
        ext(source, target, n, style, seed).module
        assert len(builds) == before + 1
    clear_memo()
    ext(m2, m2, 1).module
    assert len(builds) == 7
    clear_memo()


def test_cached_ext_arrays_are_read_only(m2):
    clear_memo()
    for e in (ext(m2, m2, 2), ext(twin(m2), m2, 2)):
        for arr in (e.cycle_basis, e.module.actions, e.proj, e.reps):
            assert not arr.flags.writeable
    clear_memo()


def test_ext_over_an_assembled_resolution_is_not_cached(monkeypatch, ring2, m2):
    builds = count_calls(monkeypatch, homology, "_ext_arrays")
    clear_memo()
    back = resolution_from_spec(ring2, resolution_to_spec(free_resolution(m2, 3), 3))
    for _ in range(2):
        e = ext_with_resolution(back, m2, 2)
        assert e.cycle_basis.flags.writeable
    assert len(builds) == 2
    store = modules._memo.get(modules._CONTENT)
    assert store is None or not any(key[0] == "ext" for key in store.entries)
    clear_memo()


def test_ext_map_on_target_still_needs_one_resolution(m2):
    # the second Ext is served from the first one's arrays, over another
    # resolution object
    clear_memo()
    first = ext(m2, m2, 1)
    reps = first.reps
    other = Resolution(twin(m2))
    second = ext_with_resolution(other, m2, 1)
    assert second.reps is reps
    with pytest.raises(InputError, match="share a resolution"):
        ext_map_on_target(first, second, ModuleMap.identity(m2))
    clear_memo()


def test_class_of_a_non_cocycle_raises():
    rng = random.Random("non-cocycle")
    for _ in range(200):
        _, ring = rng.choice(bundled_rings())
        e = ext(random_module(ring, rng), random_module(ring, rng), rng.randrange(3))
        rows, cols = e.cycle_basis.shape
        if cols < rows:
            break
    else:
        pytest.fail("no Ext with a nonzero next differential")
    outside = gfmat.columns_outside_span(e.cycle_basis, gfmat.identity(rows), ring.p)
    with pytest.raises(InternalInvariantViolation, match="not a cocycle"):
        e.class_of(gfmat.identity(rows)[:, outside[0]])
    with pytest.raises(InternalInvariantViolation, match="not a cocycle"):
        e.class_of(np.hstack([e.reps, gfmat.identity(rows)[:, outside]]))


def test_cycle_module_rejects_a_span_that_is_not_invariant():
    rng = random.Random("non-invariant")
    for hc, k, _ in cochain_cases():
        p, size = hc.target.ring.p, hc.res.rank(k) * hc.target.vdim
        if hc.target.ring.dim == 1 or size < 2:
            continue
        for _ in range(20):
            cols = gfmat.nullspace(random_matrix(rng, p, 1, size), p)
            r, m, c = hc.res.rank(k), hc.target.vdim, cols.shape[1]
            moved = np.einsum("iab,jbc->jaic", hc.target.actions,
                              cols.reshape(r, m, c)).reshape(size, -1) % p
            if gfmat.solve(cols, moved, p) is None:
                with pytest.raises(InputError, match="action-invariant"):
                    hc.cycle_module(k, cols)
                return
    pytest.fail("no span that is not invariant")


# -- Ext dimension from two ranks ------------------------------------------------


def rank_dim_cases():
    """(resolution, target, n) over test_rings.oracle_rings() and the F_4
    rings, in degrees 0-3: every style, and each minimal resolution
    again as an AssembledResolution read back from its document.  The
    modules are the ring's top R / rad R, whose Ext is nonzero in every
    degree over a ring that is not semisimple, and seeded draws.  A
    "plain" cover takes every basis column, so its ranks grow by a factor
    of up to dim R per level; it reaches degree 3 from the top and stops
    at degree 2 from the draws."""
    rng = random.Random("ext-dim-from-ranks")
    for ring in test_rings.oracle_rings() + test_rings.f4_rings():
        top = quotient_module(ring, ring.radical_basis().T.tolist())
        for source, target in ((top, top), (random_module(ring, rng), top),
                               (random_module(ring, rng), random_module(ring, rng))):
            for style in STYLES:
                depth = 3 if style == "plain" and source is not top else 4
                res = Resolution(source, style, seed=1)
                res.ensure(depth)
                resolutions = [res]
                if style == "minimal":
                    resolutions.append(
                        resolution_from_spec(ring, resolution_to_spec(res, depth)))
                for one in resolutions:
                    for n in range(depth):
                        yield one, target, n


def test_ext_dim_from_ranks_is_the_module_dimension():
    clear_memo()
    tally = Counter()
    for res, target, n in rank_dim_cases():
        # ranks first: the build checks them against the module
        by_ranks = ext_with_resolution(res, target, n)
        dim = by_ranks.dim
        assert by_ranks.module.vdim == dim and by_ranks.dim == dim
        # module first: dim reads it, and the ranks count the same
        built = ext_with_resolution(res, target, n)
        assert built.module.vdim == dim and built.dim == dim
        assert homology._ext_dim(built.cochain, n) == dim
        tally["nonzero"] += dim > 0
        tally["killed boundaries"] += 0 < dim < built.cycle_basis.shape[1]
        tally["assembled"] += isinstance(res, AssembledResolution)
    assert tally["nonzero"] >= 300 and tally["killed boundaries"] >= 100, tally
    assert tally["assembled"] == 4 * 3 * 35, tally
    clear_memo()


def test_a_cold_ext_dim_builds_no_cycle_module_and_no_quotient(monkeypatch):
    clear_memo()
    builds = count_calls(monkeypatch, homology, "_ext_arrays")
    spies = [count_calls(monkeypatch, HomCochain, "cycle_module"),
             count_calls(monkeypatch, homology, "quotient_by_columns"),
             count_calls(monkeypatch, gfmat, "nullspace_coordinates")]
    rng = random.Random("cold-ext-dim")
    nonzero = 0
    for _, ring in bundled_rings():
        top = quotient_module(ring, ring.radical_basis().T.tolist())
        for n in range(4):
            e = ext(top, top if n % 2 else random_module(ring, rng), n)
            nonzero += e.dim > 0
            assert not builds and not any(spies)
            e.module
            assert len(builds) == 1
            e.reps, e.proj, e.cycle_basis, e.class_of(e.reps)
            assert len(builds) == 1
            builds.clear()
            for calls in spies:
                calls.clear()
    assert nonzero >= 10, nonzero
    clear_memo()


def corrupted_cochains():
    """(cochain, n) with one entry of d^n changed where d^{n+1} has a
    nonzero column: the boundaries are then not all cocycles."""
    rng = random.Random("corrupt-d")
    found = 0
    for _, ring in bundled_rings():
        for _ in range(10):
            n = rng.randrange(1, 4)
            res = free_resolution(random_module(ring, rng), n + 1)
            hc = HomCochain(res, random_module(ring, rng))
            after, before = hc.diff_matrix(n + 1), hc.diff_matrix(n).copy()
            rows = np.flatnonzero(after.any(axis=0))
            if not rows.size or not before.shape[1]:
                continue
            i, j = rows[rng.randrange(rows.size)], rng.randrange(before.shape[1])
            before[i, j] = (before[i, j] + 1) % ring.p
            hc._diffs[n] = before
            yield hc, n
            found += 1
            break
    assert found >= 3, found


def test_a_corrupted_differential_raises_on_the_dim_path():
    for hc, n in corrupted_cochains():
        clear_memo()
        with pytest.raises(InternalInvariantViolation, match="not cocycles"):
            ext_from_cochain(hc, n).dim
        with pytest.raises(InternalInvariantViolation, match="not cocycles"):
            ext_from_cochain(hc, n).module
    clear_memo()


def test_ranks_that_disagree_with_the_module_raise(monkeypatch, m2):
    clear_memo()
    e = ext(m2, m2, 1)
    monkeypatch.setattr(homology, "_ext_dim", lambda hc, n: 7)
    assert e.dim == 7
    with pytest.raises(InternalInvariantViolation, match="by ranks"):
        e.module
    clear_memo()
