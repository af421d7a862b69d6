"""Seeded property sweeps over the library's structural claims.

Each registry entry turns one statement into a repeatable trial over
generated finite instances: never "for all modules", always "for the
family produced by these caps and this seed".  A trial ends pass, fail
(with a replayable counterexample dump), or vacuous when the instance
falsifies the statement's hypothesis (an infinite dimension where a
finite one is assumed), or when no instance could be drawn; vacuous
trials never count as violations.  Dimensions are exact, infinity
included, so every dimension comparison decides, and cor-1.4 tests the
connecting map itself, so it decides too.

Trial seeds derive from the master seed as "<seed>:<entry>:<index>", so
any single trial replays in isolation.  Reports are deterministic
functions of (entry, seed, trials, caps); expensive per-(ring, multset)
aggregates are memoized, and resolution levels and split systems are
cached by content (modules._content_cached), which changes timing only.
The memo is the one object modules._memo.  Wall time is kept
on the report object but stays out of the JSON so artifacts are
byte-stable.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from .dimensions import (
    DimValue,
    check_inequalities,
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
from .errors import InputError, NotSIso, UnknownTheorem
from .homology import (
    chain_lift,
    ext,
    ext_map_on_source,
    ext_map_on_target,
    ext_with_resolution,
    long_ext_sequence,
    resolution,
)
from .instances import (
    bundled_rings,
    middle_free_triple,
    nested_multsets,
    random_element,
    random_module,
    random_multset,
    random_s_exact_triple,
    random_s_iso,
    random_split_triple,
)
from .modules import (
    _memo,
    free_map_from_generator_images,
    free_module,
    image_factorization,
    is_s_isomorphism,
    is_uniformly_s_torsion,
    map_to_spec,
    module_to_spec,
    quotient_by_columns,
    regular_module,
    s_iso_inverse,
)
from .rings import (
    complement_multset,
    enumerate_ideals,
    mult_closure,
    multset_to_spec,
    quotient_algebra,
    ring_to_spec,
)
from .zmodules import (
    _structure,
    change_of_rings_check,
    factor_ring_check,
    random_z_module,
    z_module_to_spec,
    z_multset,
    z_multset_to_spec,
)


@dataclass(frozen=True)
class TheoremCase:
    """One verification request; None fields fall back to entry defaults."""

    theorem: str
    trials: int | None = None
    seed: int = 0
    bound: int | None = None
    max_rank: int | None = None


@dataclass(frozen=True)
class TrialOutcome:
    verdict: str  # pass | fail | vacuous
    detail: str = ""
    dump: dict | None = None


@dataclass(frozen=True)
class VerifyReport:
    theorem: str
    trials: int
    seed: int
    bound: int
    passes: int
    failures: int
    vacuous: int
    counterexamples: tuple
    wall_time: float

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        # fixed schema; wall time deliberately excluded so identical
        # (entry, seed, caps) runs serialize byte-identically
        return {
            "theorem": self.theorem,
            "trials": self.trials,
            "passes": self.passes,
            "failures": self.failures,
            "vacuous": self.vacuous,
            "counterexamples": [dict(c) for c in self.counterexamples],
            "seed": self.seed,
        }


@dataclass(frozen=True)
class _Config:
    seed: int
    bound: int
    max_rank: int


def clear_memo() -> None:
    """Forget every memoized sweep block, every content cache (the
    resolution levels, split systems and Ext groups of
    modules._content_cached) and the Smith forms of zmodules._structure,
    as a fresh process starts."""
    _memo.clear()
    _structure.cache_clear()


def _memoized(key, build):
    if key not in _memo:
        _memo[key] = build()
    return _memo[key]


def _pool():
    return _memoized(("pool",), bundled_rings)


def _ring_multset(rng):
    name, ring = rng.choice(_pool())
    return name, ring, random_multset(ring, rng)


def _multset_menu(name, ring):
    """Small fixed family of multsets per ring, for memoizable sweeps."""
    menu = [mult_closure(ring, [])]
    one = ring.one
    for i in range(ring.dim):
        e = ring.element([1 if j == i else 0 for j in range(ring.dim)])
        if e * e == e and not e.is_zero() and e != one:
            menu.append(mult_closure(ring, [e]))
            break
    for i in range(ring.dim):
        e = ring.element([1 if j == i else 0 for j in range(ring.dim)])
        if not e.is_zero() and (e * e).is_zero():
            menu.append(mult_closure(ring, [e]))
            break
    return tuple(menu)


def _menu_multset(rng, name, ring):
    menu = _memoized(("menu", name), lambda: _multset_menu(name, ring))
    return rng.choice(menu)


def _s_key(s_set):
    return tuple(s_set.labels())


def _ideals(name, ring):
    return _memoized(("ideals", name), lambda: enumerate_ideals(ring).ideals)


def _cyclic(ring, ideal):
    return quotient_by_columns(regular_module(ring), ideal.basis)[0]


def _map_doc(f):
    return {
        "source": module_to_spec(f.source),
        "target": module_to_spec(f.target),
        "map": map_to_spec(f),
    }


def _context_doc(ring, s_set, **extra):
    doc = {"ring": ring_to_spec(ring), "multset": multset_to_spec(s_set)}
    doc.update(extra)
    return doc


# -- registry entries ---------------------------------------------------------


def _trial_lemma_1_1(rng, cfg):
    name, ring, s = _ring_multset(rng)
    f, _ = random_s_iso(ring, s, rng, max_rank=cfg.max_rank)
    try:
        inv, witness = s_iso_inverse(f, s)
    except NotSIso:
        return TrialOutcome("fail", "constructed map failed the S-iso certificate",
                            _context_doc(ring, s, map=_map_doc(f)))
    p = ring.p
    ok_src = np.array_equal((inv.matrix @ f.matrix) % p,
                            f.source.action_of(witness))
    ok_tgt = np.array_equal((f.matrix @ inv.matrix) % p,
                            f.target.action_of(witness))
    if ok_src and ok_tgt:
        return TrialOutcome("pass", "two-sided inverse scales by %s" % witness.label())
    return TrialOutcome("fail", "inverse composites do not equal the scaled identity",
                        _context_doc(ring, s, map=_map_doc(f), inverse=_map_doc(inv),
                                     witness=witness.label()))


def _trial_lemma_1_2(rng, cfg):
    name, ring, s = _ring_multset(rng)
    f, _ = random_s_iso(ring, s, rng, max_rank=cfg.max_rank)
    x = random_module(ring, rng, max_rank=cfg.max_rank)
    n = rng.randrange(3)
    res_x = resolution(x)
    into_m = ext_with_resolution(res_x, f.source, n)
    into_n = ext_with_resolution(res_x, f.target, n)
    covariant = ext_map_on_target(into_m, into_n, f)
    res_m = resolution(f.source)
    res_n = resolution(f.target)
    lifts = chain_lift(f, res_m, res_n, n)
    from_n = ext_with_resolution(res_n, x, n)
    from_m = ext_with_resolution(res_m, x, n)
    contravariant = ext_map_on_source(lifts[n], from_n, from_m)
    bad = []
    if not is_s_isomorphism(covariant, s).verdict:
        bad.append("Ext^%d(X,-) image" % n)
    if not is_s_isomorphism(contravariant, s).verdict:
        bad.append("Ext^%d(-,X) image" % n)
    if bad:
        return TrialOutcome("fail", "induced map is not an S-iso: %s" % ", ".join(bad),
                            _context_doc(ring, s, map=_map_doc(f),
                                         other=module_to_spec(x), degree=n))
    return TrialOutcome("pass", "both induced maps are S-isos in degree %d" % n)


def _nonunit_element(ring, rng):
    from . import gfmat
    for _ in range(12):
        v = random_element(ring, rng)
        if v.is_zero():
            continue
        if gfmat.rank(ring.left_mul_matrix(v.array), ring.p) < ring.dim:
            return v
    return None


def _cyclic_triple(ring, v):
    """The genuinely exact 0 -> Rv -> R -> R/(v) -> 0."""
    reg = regular_module(ring)
    fmap = free_map_from_generator_images(
        free_module(ring, 1), reg, v.array.reshape(-1, 1))
    _, incl, _ = image_factorization(fmap)
    quot, proj, _ = quotient_by_columns(reg, incl.matrix)
    return incl, proj


def _trial_theorem_1_3(rng, cfg):
    # random triples rarely force a nonzero connecting map, so a planted
    # cyclic sub-family (tested at trivial S, where S-exact means exact)
    # keeps the entry sensitive to snake-map defects
    planted = rng.random() < 0.4
    name, ring, s = _ring_multset(rng)
    if planted:
        v = _nonunit_element(ring, rng)
        w = _nonunit_element(ring, rng)
        if v is None or w is None:
            planted = False
    if planted:
        s = mult_closure(ring, [])
        f, g = _cyclic_triple(ring, v)
        other = quotient_by_columns(regular_module(ring),
                                    ring.left_mul_matrix(w.array))[0]
        family = "cyclic submodule family"
    else:
        f, g = random_s_exact_triple(ring, s, rng, max_rank=cfg.max_rank)
        other = random_module(ring, rng, max_rank=cfg.max_rank)
        family = "random family"
    variance = rng.choice(("covariant", "contravariant"))
    data = long_ext_sequence((f, g), other, 2, variance, s)
    if data.ok:
        return TrialOutcome(
            "pass", "%s: %s chain of %d maps is S-exact"
            % (family, variance, len(data.chain_maps)))
    failed = [pos.index for pos in data.report.positions if pos.witness is None]
    return TrialOutcome("fail", "long sequence fails S-exactness at %s" % failed,
                        _context_doc(ring, s, f=_map_doc(f), g=_map_doc(g),
                                     other=module_to_spec(other), variance=variance))


def _trial_cor_1_4(rng, cfg):
    name, ring, s = _ring_multset(rng)
    f, g = middle_free_triple(ring, rng, max_rank=cfg.max_rank)
    other = random_module(ring, rng, max_rank=1)
    if dimension_shift_check((f, g), other, 1, s).ok:
        return TrialOutcome("pass", "degree-1 connecting map is an S-isomorphism")
    return TrialOutcome("fail", "degree-1 connecting map is not an S-isomorphism",
                        _context_doc(ring, s, f=_map_doc(f), g=_map_doc(g),
                                     other=module_to_spec(other)))


def _trial_lemma_2_3(rng, cfg):
    name, ring, s = _ring_multset(rng)
    f, _ = random_s_iso(ring, s, rng, max_rank=cfg.max_rank)
    pd_cmp = s_pd(f.source, s, cfg.bound).value.eq(s_pd(f.target, s, cfg.bound).value)
    id_cmp = s_id(f.source, s, cfg.bound).value.eq(s_id(f.target, s, cfg.bound).value)
    if not (pd_cmp and id_cmp):
        return TrialOutcome("fail", "S-isomorphic modules got different dimensions",
                            _context_doc(ring, s, map=_map_doc(f)))
    return TrialOutcome("pass", "S-pd and S-id agree across the S-iso")


def _trial_prop_2_5(rng, cfg):
    name, ring, s = _ring_multset(rng)
    mod = random_module(ring, rng, max_rank=cfg.max_rank)
    result = s_pd(mod, s, cfg.bound)
    if not result.value.known:
        return TrialOutcome("vacuous", "S-pd is infinite (>bound %d is a proof on a finite ring)" % cfg.bound)
    level = result.value.value
    witness = result.certificate
    if witness is not None and not witness.verify():
        return TrialOutcome("fail", "terminating split witness failed re-verification",
                            _context_doc(ring, s, module=module_to_spec(mod)))
    for _ in range(3):
        other = random_module(ring, rng, max_rank=cfg.max_rank)
        higher = ext(mod, other, level + 1)
        if not is_uniformly_s_torsion(higher.module, s).verdict:
            return TrialOutcome(
                "fail", "Ext^%d sample is not uniformly S-torsion" % (level + 1),
                _context_doc(ring, s, module=module_to_spec(mod),
                             other=module_to_spec(other)))
    return TrialOutcome("pass", "S-pd = %d certified and Ext^%d samples are S-torsion"
                        % (level, level + 1))


def _trial_prop_2_6(rng, cfg):
    name, ring, s = _ring_multset(rng)
    mod = random_module(ring, rng, max_rank=cfg.max_rank)
    result = s_id(mod, s, cfg.bound)
    if not result.value.known:
        return TrialOutcome("vacuous", "S-id is infinite (>bound %d is a proof on a finite ring)" % cfg.bound)
    level = result.value.value
    for _ in range(3):
        other = random_module(ring, rng, max_rank=cfg.max_rank)
        higher = ext(other, mod, level + 1)
        if not is_uniformly_s_torsion(higher.module, s).verdict:
            return TrialOutcome(
                "fail", "Ext^%d into the module is not uniformly S-torsion" % (level + 1),
                _context_doc(ring, s, module=module_to_spec(mod),
                             other=module_to_spec(other)))
    return TrialOutcome("pass", "S-id = %d and Ext^%d samples into it are S-torsion"
                        % (level, level + 1))


def _trial_cor_2_7(rng, cfg):
    name, ring = rng.choice(_pool())
    small, large = nested_multsets(ring, rng)
    mod = random_module(ring, rng, max_rank=cfg.max_rank)
    wide = s_pd(mod, large, cfg.bound).value
    narrow = s_pd(mod, small, cfg.bound).value
    if not wide.le(narrow):
        return TrialOutcome("fail", "S-pd grew after enlarging S (%s vs %s)"
                            % (wide, narrow),
                            _context_doc(ring, large, module=module_to_spec(mod),
                                         smaller=multset_to_spec(small)))
    return TrialOutcome("pass", "monotone: %s <= %s" % (wide, narrow))


def _trial_prop_2_9(rng, cfg):
    name, ring, s = _ring_multset(rng)
    f, g = random_s_exact_triple(ring, s, rng, max_rank=cfg.max_rank)
    rep = check_inequalities((f, g), s, cfg.bound)
    bad = [a.name for a in rep.assertions if a.verdict == "fail"]
    if bad:
        return TrialOutcome("fail", "inequalities violated: %s" % ", ".join(bad),
                            _context_doc(ring, s, f=_map_doc(f), g=_map_doc(g)))
    hits = sum(a.verdict == "pass" for a in rep.assertions)
    return TrialOutcome("pass", "%d inequality clauses decided and held" % hits)


def _trial_prop_2_10(rng, cfg):
    name, ring, s = _ring_multset(rng)
    f, g, retraction = random_split_triple(ring, s, rng, max_rank=cfg.max_rank)
    rep = check_inequalities((f, g), s, cfg.bound, retraction=retraction)
    pd_add = rep.by_name("pd-split-additivity")
    id_add = rep.by_name("id-split-additivity")
    if "fail" in (pd_add.verdict, id_add.verdict):
        return TrialOutcome("fail", "split additivity violated",
                            _context_doc(ring, s, f=_map_doc(f), g=_map_doc(g),
                                         retraction=_map_doc(retraction)))
    return TrialOutcome("pass", "middle dimension equals the split maximum")


def _trial_prop_2_12(rng, cfg):
    name, ring, s = _ring_multset(rng)
    mod = random_module(ring, rng, max_rank=cfg.max_rank)
    kind = rng.choice(("pd", "id"))
    prof = local_profile(mod, kind, cfg.bound)
    if not prof.classical.value.eq(prof.sup_value):
        return TrialOutcome(
            "fail", "classical %s differs from the prime-local supremum" % kind,
            _context_doc(ring, s, module=module_to_spec(mod),
                         table=[(e.prime.label(), str(e.result.value))
                                for e in prof.entries]))
    return TrialOutcome("pass", "%s supremum over primes matches (%s)"
                        % (kind, prof.sup_value))


def _gldim_block(name, ring, s_set, cfg):
    return _memoized(
        ("gldim", name, _s_key(s_set), cfg.bound, cfg.seed),
        lambda: s_gldim(ring, s_set, bound=cfg.bound, trials=4, seed=cfg.seed))


def _cyclic_suprema(name, ring, s_set, cfg):
    """Suprema of S-pd and S-id over the cyclic modules R/I."""

    def sweep():
        cyclic = [_cyclic(ring, ideal) for ideal in _ideals(name, ring)]
        return (dim_max(*(s_pd(c, s_set, cfg.bound).value for c in cyclic)),
                dim_max(*(s_id(c, s_set, cfg.bound).value for c in cyclic)))

    return _memoized(("cyclic", name, _s_key(s_set), cfg.bound), sweep)


def _trial_prop_3_2(rng, cfg):
    name, ring = rng.choice(_pool())
    s = _menu_multset(rng, name, ring)
    pd_sup, id_sup = _cyclic_suprema(name, ring, s, cfg)
    gldim = _gldim_block(name, ring, s, cfg).candidate
    if not pd_sup.eq(id_sup):
        return TrialOutcome("fail", "cyclic S-pd and S-id suprema differ (%s vs %s)"
                            % (pd_sup, id_sup), _context_doc(ring, s))
    cyclic_sup = dim_max(pd_sup, id_sup)
    if not cyclic_sup.eq(gldim):
        return TrialOutcome("fail", "cyclic supremum %s differs from S-gl.dim %s"
                            % (cyclic_sup, gldim), _context_doc(ring, s))
    mod = random_module(ring, rng, max_rank=cfg.max_rank)
    if not (s_pd(mod, s, cfg.bound).value.le(gldim)
            and s_id(mod, s, cfg.bound).value.le(gldim)):
        return TrialOutcome("fail", "random module exceeds S-gl.dim",
                            _context_doc(ring, s, module=module_to_spec(mod)))
    return TrialOutcome("pass", "suprema agree at %s and samples stay below"
                        % cyclic_sup)


def _trial_cor_3_3(rng, cfg):
    name, ring = rng.choice(_pool())

    def block():
        trivial = mult_closure(ring, [])
        lhs = _gldim_block(name, ring, trivial, cfg).candidate
        maximals = [i for i in _ideals(name, ring) if i.is_maximal]
        locals_ = [(m, s_gldim(ring, complement_multset(ring, m), bound=cfg.bound,
                               trials=4, seed=cfg.seed).candidate)
                   for m in maximals]
        sup = dim_max(*[v for _, v in locals_])
        return trivial, lhs, locals_, sup

    trivial, lhs, locals_, sup = _memoized(("cor33", name, cfg.bound, cfg.seed), block)
    if not lhs.eq(sup):
        return TrialOutcome(
            "fail", "S-gl.dim %s differs from maximal-local supremum %s"
            % (lhs, sup),
            _context_doc(ring, trivial,
                         table=[(m.label(), str(v)) for m, v in locals_]))
    mod = random_module(ring, rng, max_rank=1)
    for maximal, _ in locals_:
        local_pd = s_pd(mod, complement_multset(ring, maximal), cfg.bound).value
        if not local_pd.le(lhs):
            return TrialOutcome(
                "fail", "local dimension at %s exceeds S-gl.dim"
                % maximal.label(),
                _context_doc(ring, trivial, module=module_to_spec(mod)))
    return TrialOutcome("pass", "global = maximal-local supremum = %s" % lhs)


def _trial_cor_3_5(rng, cfg):
    name, ring = rng.choice(_pool())
    s = _menu_multset(rng, name, ring)

    def block():
        sem = is_s_semisimple(ring, s)
        gld = _gldim_block(name, ring, s, cfg)
        dim_zero = gld.candidate == DimValue.exact(0)
        ext_route = True
        for ideal in _ideals(name, ring):
            cyc = _cyclic(ring, ideal)
            for other in (regular_module(ring), cyc):
                if not is_uniformly_s_torsion(ext(cyc, other, 1).module, s).verdict:
                    ext_route = False
                    break
            if not ext_route:
                break
        return sem, dim_zero, ext_route

    sem, dim_zero, ext_route = _memoized(
        ("cor35", name, _s_key(s), cfg.bound, cfg.seed), block)
    if not (sem.verdict == dim_zero == ext_route):
        return TrialOutcome(
            "fail", "criteria disagree: family=%s, dim0=%s, ext-route=%s"
            % (sem.verdict, dim_zero, ext_route), _context_doc(ring, s))
    if sem.verdict:
        mod = random_module(ring, rng, max_rank=cfg.max_rank)
        if not is_s_projective(mod, s).verdict or not is_s_injective(mod, s).verdict:
            return TrialOutcome(
                "fail", "S-semisimple ring admits a non-split module",
                _context_doc(ring, s, module=module_to_spec(mod)))
        return TrialOutcome("pass", "all criteria hold; witness %s" % sem.s.label())
    return TrialOutcome("pass", "all criteria fail together")


def _demo_ring():
    pool = dict(_pool())
    return pool["F2xF2[t]/(t^2)"]


def _trial_example_3_6(rng, cfg):
    ring = _memoized(("demo",), _demo_ring)

    def block():
        s = mult_closure(ring, [ring.element([1, 0, 0])])
        s_trivial = mult_closure(ring, [])
        sem = is_s_semisimple(ring, s)
        gld = s_gldim(ring, s, bound=8, trials=16, seed=cfg.seed)
        m2 = quotient_by_columns(
            regular_module(ring),
            np.array([[1, 0], [0, 0], [0, 1]], dtype=np.int64))[0]
        walk = s_pd(m2, s_trivial, 8)
        checks = {
            "semisimple witness e1": sem.verdict and sem.s.label() == "e1",
            "S-gl.dim 0 with witness e1":
                gld.candidate == DimValue.exact(0) and gld.witness.label() == "e1",
            "trivial-S walk exceeds bound 8": walk.value == DimValue.over(8),
        }
        return s, checks

    s, checks = _memoized(("example36", cfg.seed), block)
    bad = [k for k, v in checks.items() if not v]
    if bad:
        return TrialOutcome("fail", "reproduction failed: %s" % ", ".join(bad),
                            _context_doc(ring, s))
    mod = random_module(ring, rng, max_rank=cfg.max_rank)
    value = s_pd(mod, s, cfg.bound).value
    if value != DimValue.exact(0):
        return TrialOutcome("fail", "sampled module has nonzero S-pd (%s)" % value,
                            _context_doc(ring, s, module=module_to_spec(mod)))
    return TrialOutcome("pass", "fixed checks hold and sampled S-pd is 0")


def _trial_prop_4_1(rng, cfg):
    if rng.random() < 0.5:
        a = rng.choice((3, 4, 5, 6, 7, 8, 9))
        gens = None
        for _ in range(8):
            trial_gens = tuple(rng.choice((2, 3, 5, 7))
                               for _ in range(rng.randrange(1, 3)))
            if all(g % a for g in trial_gens):
                gens = trial_gens
                break
        if gens is None:
            return TrialOutcome("vacuous", "no coprime generator draw for a=%d" % a)
        mod = random_z_module(rng, ring="Z_mod", m=a, span=a)
        s_set = z_multset("Z", gens)
        rep = change_of_rings_check(a, mod, s_set, bound=cfg.bound)
        dump = {"a": a, "module": z_module_to_spec(mod),
                "multset": z_multset_to_spec(s_set)}
    else:
        name, ring = rng.choice(_pool())
        proper = [i for i in _ideals(name, ring) if i.fdim < ring.dim]
        ideal = rng.choice(proper)
        data = _memoized(("quotient", name, ideal.label()),
                         lambda: quotient_algebra(ring, ideal))
        mod = random_module(data.algebra, rng, max_rank=cfg.max_rank)
        s_set = random_multset(ring, rng)
        rep = change_of_rings_check(data, mod, s_set, bound=cfg.bound)
        dump = _context_doc(ring, s_set, ideal=ideal.label(),
                            module=module_to_spec(mod))
    if rep.verdict == "fail":
        return TrialOutcome("fail", "change-of-rings bound violated: %s"
                            % rep.statement, dump)
    return TrialOutcome("pass", rep.statement)


def _trial_prop_4_3(rng, cfg):
    a = rng.choice((3, 5, 7))
    choices = [g for g in ((2,), (3,), (2, 3)) if all(x % a for x in g)]
    gens = rng.choice(choices)
    mod = None
    for _ in range(8):
        candidate = random_z_module(rng, ring="Z_mod", m=a, span=a)
        if not candidate.is_zero():
            mod = candidate
            break
    if mod is None:
        return TrialOutcome("vacuous", "sampling produced only zero modules")
    s_set = z_multset("Z", gens)
    rep = factor_ring_check(a, mod, s_set, bound=cfg.bound)
    dump = {"a": a, "module": z_module_to_spec(mod),
            "multset": z_multset_to_spec(s_set)}
    if rep.verdict == "fail":
        return TrialOutcome("fail", "offset identity violated: %s" % rep.statement,
                            dump)
    if rep.verdict == "pass":
        return TrialOutcome("pass", rep.statement)
    return TrialOutcome("vacuous", rep.statement)


@dataclass(frozen=True)
class RegistryEntry:
    statement: str
    fn: object
    trials: int = 100
    bound: int = 8
    max_rank: int = 2


REGISTRY = {
    "lemma-1.1": RegistryEntry(
        "every S-isomorphism admits a two-sided inverse up to multiplication by "
        "some s in S", _trial_lemma_1_1),
    "lemma-1.2": RegistryEntry(
        "Ext in either argument sends S-isomorphisms to S-isomorphisms",
        _trial_lemma_1_2, max_rank=1),
    "theorem-1.3": RegistryEntry(
        "a short S-exact sequence induces a long S-exact Ext sequence with "
        "connecting maps", _trial_theorem_1_3, max_rank=1),
    "cor-1.4": RegistryEntry(
        "with an S-projective middle term, Ext shifts degree across the sequence "
        "up to S-isomorphism", _trial_cor_1_4, max_rank=1),
    "lemma-2.3": RegistryEntry(
        "S-isomorphic modules share S-pd and S-id", _trial_lemma_2_3, bound=4),
    "prop-2.5": RegistryEntry(
        "a certified S-pd level makes the next Ext uniformly S-torsion",
        _trial_prop_2_5, bound=6),
    "prop-2.6": RegistryEntry(
        "a certified S-id level makes the next Ext into the module uniformly "
        "S-torsion", _trial_prop_2_6, bound=4),
    "cor-2.7": RegistryEntry(
        "S-pd is monotone nonincreasing as S grows", _trial_cor_2_7, bound=4),
    "prop-2.9": RegistryEntry(
        "short S-exact sequences obey the pd/id bound and gap inequalities, "
        "here on values in {0, infinity}, so a gap only meets 0 < infinity",
        _trial_prop_2_9, bound=4),
    "prop-2.10": RegistryEntry(
        "S-split sequences give middle dimension = max of the ends, here a max "
        "over {0, infinity}",
        _trial_prop_2_10, bound=4),
    "prop-2.12": RegistryEntry(
        "classical dimension equals the supremum of prime-local dimensions",
        _trial_prop_2_12, bound=6),
    "prop-3.2": RegistryEntry(
        "the cyclic S-pd and S-id suprema agree, equal S-gl.dim and bound "
        "sampled modules", _trial_prop_3_2, bound=4),
    "cor-3.3": RegistryEntry(
        "S-gl.dim for S = {1} equals the supremum of S-gl.dim over the "
        "maximal-ideal complements", _trial_cor_3_3, bound=4, max_rank=1),
    "cor-3.5": RegistryEntry(
        "S-semisimplicity criteria (scaling family, S-gl.dim 0, Ext route) agree",
        _trial_cor_3_5, bound=4),
    "example-3.6": RegistryEntry(
        "the bundled product ring has S-gl.dim 0 for S={1,e1}, as e1 kills its "
        "radical, yet an infinite classical walk", _trial_example_3_6),
    "prop-4.1": RegistryEntry(
        "change of rings along a quotient obeys the two-term upper bound",
        _trial_prop_4_1, bound=6),
    "prop-4.3": RegistryEntry(
        "factor-ring dimension over Z exceeds the Z/a dimension by exactly one",
        _trial_prop_4_3, bound=6),
}


def _trial_rng(seed, theorem, index):
    return random.Random("%s:%s:%d" % (seed, theorem, index))


def verify(case: TheoremCase) -> VerifyReport:
    """Run one registry entry as a seeded trial sweep."""
    if case.theorem not in REGISTRY:
        raise UnknownTheorem("no registry entry %r" % case.theorem)
    entry = REGISTRY[case.theorem]
    trials = entry.trials if case.trials is None else case.trials
    bound = entry.bound if case.bound is None else case.bound
    max_rank = entry.max_rank if case.max_rank is None else case.max_rank
    if trials < 0 or bound < 0 or max_rank < 1:
        raise InputError("trials and bound must be >= 0, max_rank >= 1")
    cfg = _Config(case.seed, bound, max_rank)
    start = time.perf_counter()
    passes = failures = vacuous = 0
    counterexamples = []
    for index in range(trials):
        outcome = entry.fn(_trial_rng(case.seed, case.theorem, index), cfg)
        if outcome.verdict == "pass":
            passes += 1
        elif outcome.verdict == "vacuous":
            vacuous += 1
        else:
            failures += 1
            counterexamples.append({
                "theorem": case.theorem,
                "trial": index,
                "seed": case.seed,
                "trial_seed": "%s:%s:%d" % (case.seed, case.theorem, index),
                "bound": bound,
                "max_rank": max_rank,
                "detail": outcome.detail,
                "instances": outcome.dump or {},
            })
    elapsed = time.perf_counter() - start
    return VerifyReport(case.theorem, trials, case.seed, bound,
                        passes, failures, vacuous, tuple(counterexamples), elapsed)


def replay(dump: dict) -> TrialOutcome:
    """Re-run the exact trial a counterexample dump came from."""
    for key in ("theorem", "trial", "seed", "bound", "max_rank"):
        if key not in dump:
            raise InputError("counterexample dump is missing %r" % key)
    theorem = dump["theorem"]
    if theorem not in REGISTRY:
        raise UnknownTheorem("no registry entry %r" % theorem)
    cfg = _Config(dump["seed"], dump["bound"], dump["max_rank"])
    rng = _trial_rng(dump["seed"], theorem, dump["trial"])
    return REGISTRY[theorem].fn(rng, cfg)


def full_suite(seed: int = 0, trials: int | None = None,
               bound: int | None = None) -> dict:
    """Verify every registry entry; summary is JSON-ready and deterministic."""
    reports = [verify(TheoremCase(name, trials=trials, seed=seed, bound=bound))
               for name in REGISTRY]
    return {
        "seed": seed,
        "failures": sum(r.failures for r in reports),
        "trials": sum(r.trials for r in reports),
        "ok": all(r.ok for r in reports),
        "reports": [r.to_json() for r in reports],
    }


def generate_instance(kind: str, ring, s_set=None, cap: int = 6, seed: int = 0):
    """Deterministic instance factory for library callers; the registry
    trials draw their instances directly.

    kind is one of module, s-exact-triple, s-iso-pair, nested-multsets.
    """
    rng = random.Random("instance:%s:%s:%d:%d"
                        % (kind, ",".join(ring.basis_labels), cap, seed))
    max_rank = max(1, cap // max(1, ring.dim))
    if s_set is None:
        s_set = mult_closure(ring, [])
    if kind == "module":
        return random_module(ring, rng, max_rank=max_rank)
    if kind == "s-exact-triple":
        return random_s_exact_triple(ring, s_set, rng, max_rank=min(max_rank, 2))
    if kind == "s-iso-pair":
        return random_s_iso(ring, s_set, rng, max_rank=min(max_rank, 2))
    if kind == "nested-multsets":
        return nested_multsets(ring, rng)
    raise InputError("unknown instance kind %r" % kind)
