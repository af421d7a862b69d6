"""Module construction, hom spaces, subquotients, S-relative notions."""

import itertools
import json
import random
from collections import Counter

import numpy as np
import pytest

from srelhom import gfmat, rings
from srelhom.errors import InputError, NotSIso, RingMismatch
from srelhom.instances import bundled_rings
from srelhom.rings import mult_closure, prime_field, truncated_polynomial
from srelhom.modules import (
    Module,
    ModuleMap,
    cap_chain,
    character_dual,
    direct_sum,
    dual_map,
    free_map_from_generator_images,
    free_module,
    generator_images,
    hom_space,
    image_factorization,
    is_s_isomorphism,
    is_uniformly_s_torsion,
    map_from_spec,
    map_to_spec,
    module_from_spec,
    module_to_spec,
    quotient_by_columns,
    regular_module,
    ring_matrix_of_free_map,
    s_exactness_check,
    s_iso_inverse,
    scaling_map,
    same_module,
    submodule_from_columns,
    subquotient,
    zero_module,
)

from conftest import product_ring, quotient_module


def test_module_validation_rejects_non_representation(t2):
    acts = np.zeros((2, 1, 1), dtype=np.int64)
    acts[0, 0, 0] = 1
    acts[1, 0, 0] = 1  # t would act as identity, but t^2 = 0
    with pytest.raises(InputError):
        Module(t2, acts)


def loop_module_check(ring, acts):
    """Module._validate as it was: for each pair i <= j, one product and
    one sum over the table, then the commuted product; the unit last."""
    p, d, m = ring.p, ring.dim, acts.shape[1]
    for i in range(d):
        for j in range(i, d):
            lhs = (acts[i] @ acts[j]) % p
            rhs = np.zeros((m, m), dtype=np.int64)
            for k in range(d):
                c = int(ring.table[i, j, k])
                if c:
                    rhs = (rhs + c * acts[k]) % p
            if not np.array_equal(lhs, rhs):
                raise InputError("representation property fails at %s*%s"
                                 % (ring.basis_labels[i], ring.basis_labels[j]))
            if not np.array_equal(lhs, (acts[j] @ acts[i]) % p):
                raise InputError("action matrices for %s and %s do not commute"
                                 % (ring.basis_labels[i], ring.basis_labels[j]))
    unit_action = np.tensordot(ring.unit, acts, 1) % p
    if not np.array_equal(unit_action, gfmat.identity(m)):
        raise InputError("unit does not act as the identity")


def module_check_outcome(call):
    try:
        call()
    except InputError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("block_entries", [rings._BLOCK_ENTRIES, 1])
def test_module_validation_matches_the_loop_oracle(monkeypatch, block_entries):
    # with one entry per block every ring basis element i is its own block
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", block_entries)
    rng = random.Random(1913)
    valid = []
    for _, ring in bundled_rings():
        valid += [free_module(ring, 1), free_module(ring, 2),
                  character_dual(free_module(ring, 1)),
                  quotient_module(ring, [[rng.randrange(ring.p) for _ in range(ring.dim)]])]
    seen = Counter()

    def compare(ring, acts):
        got = module_check_outcome(lambda: Module(ring, acts))
        assert got == module_check_outcome(lambda: loop_module_check(ring, acts))
        seen["valid" if got is None else got[1].split(" ")[0]] += 1
        return got

    for mod in valid:
        assert compare(mod.ring, mod.actions) is None
        # every action zero: a representation in which the unit acts as 0
        zero = np.zeros_like(mod.actions)
        assert compare(mod.ring, zero) == (
            None if mod.vdim == 0 else (InputError, "unit does not act as the identity"))
    for _ in range(300):
        mod = rng.choice(valid)
        if mod.vdim == 0:
            continue
        acts = mod.actions.copy()
        i, a, b = rng.randrange(mod.ring.dim), rng.randrange(mod.vdim), rng.randrange(mod.vdim)
        acts[i, a, b] = (acts[i, a, b] + rng.randrange(1, mod.ring.p)) % mod.ring.p
        compare(mod.ring, acts)
    # F2 x F2: e1 e2 = 0 holds for the pair, but e2 e1 does not vanish
    ring = rings.direct_product(prime_field(2), prime_field(2), labels=["e1", "e2"])
    acts = np.array([[[1, 0], [0, 0]], [[0, 0], [1, 1]]], dtype=np.int64)
    assert compare(ring, acts) == (InputError, "action matrices for e1 and e2 do not commute")
    # F2[t]/(t^3) with t^2 acting wrongly: 1 acts as the identity, so the
    # first failing pair is (t, t), past the block of the unit
    ring = truncated_polynomial(2, 3)
    acts = free_module(ring, 1).actions.copy()
    acts[2, 0, 0] = 1
    assert compare(ring, acts) == (InputError, "representation property fails at t*t")
    assert seen["valid"] >= 28 and seen["unit"] >= 50, seen
    assert seen["representation"] >= 100 and seen["action"] >= 10, seen


def test_map_validation_rejects_non_intertwining(t2):
    reg = regular_module(t2)
    k = quotient_module(t2, [[0, 1]])
    bad = np.array([[1, 1]], dtype=np.int64)
    with pytest.raises(InputError):
        ModuleMap(reg, k, bad)


def test_free_module_and_generators(ring2):
    free = free_module(ring2, 2)
    assert free.free_rank == 2
    assert free.vdim == 6
    # the generator images of the identity of R^2 are its generators
    gens = generator_images(ring2, ModuleMap.identity(free).matrix)
    assert gens.T.tolist() == [[1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0]]


def test_free_module_is_one_object_per_ring_and_rank(ring2):
    free = free_module(ring2, 2)
    assert free_module(ring2, 2) is free
    assert free.free_rank == 2
    assert regular_module(ring2) is free_module(ring2, 1)
    assert free_module(ring2, 0).vdim == 0
    assert free_module(product_ring(), 2) is not free


def test_free_module_matches_the_kron_build():
    for _, ring in bundled_rings():
        for k in range(5):
            got = free_module(ring, k).actions
            want = np.stack([np.kron(gfmat.identity(k), ring.table[i].T)
                             for i in range(ring.dim)])
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want) and got.flags.c_contiguous


@pytest.mark.parametrize("rank", [True, False, -1, 2.0, "2", None])
def test_free_module_rejects_a_rank_that_is_not_a_natural_number(ring2, rank):
    with pytest.raises(InputError):
        free_module(ring2, rank)
    # a rejected rank never reaches the cache, so True cannot alias R^1
    assert ring2._free_modules == {}


def test_derived_constructors_check_the_facts_they_rely_on(t2, ring2):
    reg = regular_module(t2)
    # span of the unit is not invariant: t * 1 = t lies outside it
    unit_col = np.array([[1], [0]], dtype=np.int64)
    with pytest.raises(InputError, match="invariant"):
        submodule_from_columns(reg, unit_col)
    with pytest.raises(InputError, match="invariant"):
        quotient_by_columns(reg, unit_col)
    # the span of t is invariant, but the columns repeat it
    t_col = np.array([[0], [1]], dtype=np.int64)
    with pytest.raises(InputError, match="independent"):
        submodule_from_columns(reg, np.hstack([t_col, t_col]))
    sub, incl = submodule_from_columns(reg, t_col + 2)
    assert sub.vdim == 1 and incl.matrix.tolist() == [[0], [1]]
    quot, proj, _ = quotient_by_columns(reg, t_col)
    assert quot.vdim == 1 and proj.matrix.tolist() == [[1, 0]]
    with pytest.raises(RingMismatch):
        ModuleMap.zero(reg, regular_module(ring2))
    with pytest.raises(RingMismatch):
        free_map_from_generator_images(free_module(ring2, 1), reg,
                                       np.zeros((2, 1), dtype=np.int64))


def test_ring_matrix_round_trip(ring2):
    rng = random.Random(11)
    src = free_module(ring2, 2)
    tgt = free_module(ring2, 3)
    images = np.array([[rng.randrange(2) for _ in range(2)]
                       for _ in range(9)], dtype=np.int64)
    f = free_map_from_generator_images(src, tgt, images)
    coeffs = ring_matrix_of_free_map(f)
    assert coeffs.shape == (3, 2, 3)
    rebuilt = free_map_from_generator_images(
        src, tgt, np.stack([coeffs[:, j, :].reshape(-1) for j in range(2)],
                           axis=1))
    assert np.array_equal(rebuilt.matrix, f.matrix)


def test_hom_space_dimensions(ring2, m2, t2):
    assert len(hom_space(regular_module(ring2), m2)) == 1
    k = quotient_module(t2, [[0, 1]])
    assert len(hom_space(k, regular_module(t2))) == 1
    assert len(hom_space(k, k)) == 1
    # Hom(R, M) recovers the underlying space of M
    reg = regular_module(t2)
    assert len(hom_space(reg, reg)) == 2


def test_subquotients_of_scaling(t2):
    reg = regular_module(t2)
    t = t2.basis_element(1)
    mult = scaling_map(reg, t)
    ker, incl = subquotient(mult, "kernel")
    img, _ = subquotient(mult, "image")
    cok, proj = subquotient(mult, "cokernel")
    assert ker.vdim == img.vdim == cok.vdim == 1
    assert not ker.action_of(t).any()
    assert not img.action_of(t).any()
    assert incl.source.vdim == 1 and proj.target.vdim == 1
    composed = incl.compose(ModuleMap.identity(ker))
    assert np.array_equal(composed.matrix, incl.matrix)


def test_image_factorization(ring2, m2):
    cover = hom_space(regular_module(ring2), m2)[0]
    img, incl, cores = image_factorization(cover)
    assert np.array_equal((incl.matrix @ cores.matrix) % 2, cover.matrix)


def test_direct_sum_projections(ring2, m2):
    total, injs, projs = direct_sum(m2, regular_module(ring2))
    assert total.vdim == 4
    for inj, proj in zip(injs, projs):
        comp = proj.compose(inj)
        assert np.array_equal(comp.matrix,
                              np.identity(inj.source.vdim, dtype=np.int64))


def test_uniform_torsion(ring2, m2, s_e1):
    report = is_uniformly_s_torsion(m2, s_e1)
    assert report.verdict
    assert report.witness.label() == "e1"
    free = free_module(ring2, 1)
    report2 = is_uniformly_s_torsion(free, s_e1)
    assert not report2.verdict
    assert report2.witness is None
    # e_S = e1 does not kill the generator, so no s in S does
    assert [(s.label(), col) for s, col in report2.failures] == [("e1", 0)]


def test_degenerate_multset_makes_everything_torsion(ring2):
    degen = mult_closure(ring2, [ring2.zero])
    free = free_module(ring2, 2)
    report = is_uniformly_s_torsion(free, degen)
    assert report.verdict
    assert report.witness.is_zero()


def test_exactness_witnesses_classical(t2):
    s_one = mult_closure(t2, [])
    reg = regular_module(t2)
    t = t2.basis_element(1)
    mult = scaling_map(reg, t)
    img, incl = subquotient(mult, "image")
    k, proj = subquotient(incl, "cokernel")
    report = s_exactness_check(cap_chain([incl, proj]), s_one)
    assert report.ok
    assert [w.label() for w in report.witnesses()] == ["1", "1", "1"]


def test_exactness_witnesses_s_relative(ring2, s_e1):
    reg = regular_module(ring2)
    e1 = ring2.element([1, 0, 0])
    f = scaling_map(reg, e1)
    c, g = subquotient(f, "cokernel")
    report = s_exactness_check(cap_chain([f, g]), s_e1)
    assert report.ok
    assert [w.label() for w in report.witnesses()] == ["e1", "e1", "e1"]
    # fails without e1 in S
    s_one = mult_closure(ring2, [])
    report2 = s_exactness_check(cap_chain([f, g]), s_one)
    assert not report2.ok


def test_exactness_failure_has_no_witness(ring2, m2, s_one):
    z = zero_module(ring2)
    chain = [ModuleMap.zero(z, m2), ModuleMap.zero(m2, z)]
    report = s_exactness_check(chain, s_one)
    assert not report.ok
    assert report.positions[0].witness is None


def test_s_isomorphism_and_inverse(ring2, s_e1):
    reg = regular_module(ring2)
    e1 = ring2.element([1, 0, 0])
    img, incl = subquotient(scaling_map(reg, e1), "image")
    wit = is_s_isomorphism(incl, s_e1)
    assert wit.verdict
    assert wit.cokernel.witness.label() == "e1"
    inv, s = s_iso_inverse(incl, s_e1)
    assert s.label() == "e1"
    assert np.array_equal((incl.matrix @ inv.matrix) % 2, reg.action_of(s))
    assert np.array_equal((inv.matrix @ incl.matrix) % 2, img.action_of(s))


def test_s_iso_inverse_rejects_non_iso(ring2, m2, s_one):
    z = zero_module(ring2)
    with pytest.raises(NotSIso):
        s_iso_inverse(ModuleMap.zero(m2, z), s_one)


def test_zero_map_between_torsion_modules_is_s_iso(ring2, m2, s_e1):
    f = ModuleMap.zero(m2, m2)
    assert is_s_isomorphism(f, s_e1).verdict
    inv, s = s_iso_inverse(f, s_e1)
    assert s.label() == "e1"


def test_s_iso_inverse_with_a_zero_endpoint(ring2, m2, s_e1):
    # no unknowns: the empty system is consistent exactly when s kills
    # both ends, which 1 does not and e1 does
    z = zero_module(ring2)
    for f in (ModuleMap.zero(m2, z), ModuleMap.zero(z, m2)):
        inv, s = s_iso_inverse(f, s_e1)
        assert s.label() == "e1"
        assert same_module(inv.source, f.target) and same_module(inv.target, f.source)
        assert inv.matrix.shape == (f.source.vdim, f.target.vdim)
        assert inv.is_zero()


def test_character_dual_is_involutive(ring2, m2, t2):
    for mod in (m2, regular_module(ring2), quotient_module(t2, [[0, 1]])):
        double = character_dual(character_dual(mod))
        assert same_module(double, mod)


def test_dual_map_transposes(t2):
    reg = regular_module(t2)
    t = t2.basis_element(1)
    f = scaling_map(reg, t)
    g = dual_map(f)
    assert np.array_equal(g.matrix, f.matrix.T)


def exhaustive_isomorphism(a, b):
    """An invertible R-map a -> b found by trying every F_p-combination
    of a hom-space basis, or None when there is none."""
    if a.vdim != b.vdim:
        return None
    p = a.ring.p
    basis = [h.matrix for h in hom_space(a, b)]
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        mat = sum((c * h for c, h in zip(coeffs, basis)),
                  np.zeros((b.vdim, a.vdim), dtype=np.int64)) % p
        if gfmat.rank(mat, p) == a.vdim:
            return ModuleMap(a, b, mat)
    return None


def test_self_dual_regular_module(t2):
    reg = regular_module(t2)
    dual = character_dual(reg)
    iso = exhaustive_isomorphism(reg, dual)
    assert iso is not None
    assert np.linalg.matrix_rank(iso.matrix) == reg.vdim


def test_module_wire_round_trip(ring2, m2):
    doc = module_to_spec(m2)
    back = module_from_spec(ring2, json.loads(json.dumps(doc)))
    assert same_module(m2, back)


def test_presentation_wire(ring2, m2):
    doc = {"kind": "presentation", "free_rank": 1,
           "relations": [[[1, 0, 0]], [[0, 0, 1]]]}
    built = module_from_spec(ring2, doc)
    assert built.vdim == m2.vdim
    assert exhaustive_isomorphism(built, m2) is not None


def test_map_wire_round_trip(ring2, m2):
    f = hom_space(regular_module(ring2), m2)[0]
    doc = map_to_spec(f)
    back = map_from_spec(regular_module(ring2), m2, json.loads(json.dumps(doc)))
    assert np.array_equal(back.matrix, f.matrix)


def test_map_wire_diagnostics(ring2, m2):
    with pytest.raises(InputError, match="matrix"):
        map_from_spec(regular_module(ring2), m2, {"matrix": [[1], [0]]})


def loop_action_of(module, vec):
    """The action of a ring element as a sum over basis coordinates."""
    p = module.ring.p
    out = gfmat.zeros(module.vdim, module.vdim)
    for i in range(module.ring.dim):
        c = int(vec[i]) % p
        if c:
            out = (out + c * module.actions[i]) % p
    return out


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_action_of_matches_the_sum_over_basis_coordinates(p):
    ring = truncated_polynomial(p, 3)
    rng = random.Random("action-of:%d" % p)
    modules = [zero_module(ring), free_module(ring, 2), regular_module(ring)]
    modules.append(character_dual(free_module(ring, 1)))
    for module in modules:
        for _ in range(10):
            # unreduced and negative coordinates, as raw vectors and elements
            vec = [rng.randrange(-2 * p, 3 * p) for _ in range(ring.dim)]
            got = module.action_of(vec)
            want = loop_action_of(module, vec)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            element = ring.element([c % p for c in vec])
            assert np.array_equal(module.action_of(element), want)
