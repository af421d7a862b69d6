"""The horseshoe construction of the contravariant long Ext sequence.

The library builds Hom(-, N) applied to an S-exact 0 -> A -> B -> C -> 0
as Hom(DN, -) applied to its character dual 0 -> DC -> DB -> DA -> 0.
This module keeps the direct construction as a test oracle: resolutions
of A, C and of the exact core's ends, a horseshoe resolution of B, chain
lifts of f, g and the inverse correctors, and a snake map that
precomposes with the horseshoe's correction maps.  Tests compare the two
routes on seeded triples.

It also keeps the brute-force check of Corollary 1.4, shift_search: it
enumerates every map between Ext^n(A, N) and Ext^{n+1}(C, N) (or the
covariant pair) and reports the first S-isomorphism, under a cap on the
number of candidates.  The library decides the corollary by the snake
map of the exact core instead.

comparison_isomorphisms is the resolution-independence oracle: the maps
that chain lifts of the identity induce between Ext computed over two
resolutions of one module.

The oracle reads free modules through its own loop-and-kron forms of
the R^k and N^r layouts (generator_vector, ring_matrix_of_free_map,
hom_block_matrix), so it does not run the blockwise code it checks.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from srelhom import gfmat
from srelhom.dimensions import SplitWitness, is_s_injective, is_s_projective
from srelhom.errors import (
    InputError,
    InternalInvariantViolation,
    MiddleNotCertified,
    NotSExact,
)
from srelhom.homology import (
    AssembledResolution,
    ConnectingData,
    HomCochain,
    Resolution,
    _exact_core,
    chain_lift,
    ext,
    ext_from_cochain,
    ext_map_on_source,
    ext_with_resolution,
    resolution,
)
from srelhom.modules import (
    Module,
    ModuleMap,
    SIsoWitness,
    _require_s_exact,
    cap_chain,
    free_map_from_generator_images,
    free_module,
    hom_space,
    is_s_isomorphism,
    s_exactness_check,
    same_module,
    zero_module,
)
from srelhom.rings import FiniteAlgebra, MultSet


def generator_vector(ring: FiniteAlgebra, k: int, j: int) -> np.ndarray:
    """F_p coordinates of the j-th module generator 1_j of R^k."""
    v = gfmat.zeros(k * ring.dim, 1).reshape(-1)
    v[j * ring.dim:(j + 1) * ring.dim] = ring.unit
    return v


def ring_matrix_of_free_map(f: ModuleMap) -> np.ndarray:
    """A map between free modules as a (target_rank, source_rank, d) array
    of ring entries, one generator image at a time."""
    ring = f.ring
    ra, rb = f.source.free_rank, f.target.free_rank
    if ra is None or rb is None:
        raise InputError("both endpoints must be free modules")
    out = np.zeros((rb, ra, ring.dim), dtype=np.int64)
    for j in range(ra):
        col = (f.matrix @ generator_vector(ring, ra, j)) % ring.p
        out[:, j, :] = col.reshape(rb, ring.dim)
    return out


def hom_block_matrix(target: Module, coeffs: np.ndarray) -> np.ndarray:
    """Matrix of shape (n*out, n*in) with block (l, j) = action of
    coeffs[l, j], for coeffs of shape (out, in, d), one block at a time."""
    out_count, in_count = coeffs.shape[0], coeffs.shape[1]
    n = target.vdim
    mat = np.zeros((n * out_count, n * in_count), dtype=np.int64)
    for l in range(out_count):
        for j in range(in_count):
            if coeffs[l, j].any():
                mat[l * n:(l + 1) * n, j * n:(j + 1) * n] = \
                    target.action_of(coeffs[l, j])
    return mat


def horseshoe(incl: ModuleMap, proj: ModuleMap, res_sub: Resolution,
              res_quot: Resolution, depth: int
              ) -> tuple[AssembledResolution, list[ModuleMap]]:
    """Resolution of the middle of an exact 0 -> A -> B -> C -> 0.

    Levelwise F^A_k + F^C_k with boundary [[a_k, tau_k], [0, c_k]]; the
    correction maps tau_k: F^C_k -> F^A_{k-1} are solved level by level so
    composites vanish.  Returns the assembled resolution and the taus
    (tau_k at list index k, index 0 unused).
    """
    ring = incl.ring
    p = ring.p
    mid = incl.target
    res_sub.ensure(depth)
    res_quot.ensure(depth)
    # sigma_0 lifts the quotient augmentation through proj
    r_q0 = res_quot.rank(0)
    gens0 = np.stack([generator_vector(ring, r_q0, j) for j in range(r_q0)],
                     axis=1) if r_q0 else gfmat.zeros(res_quot.frees[0].vdim, 0)
    lifted = gfmat.solve(proj.matrix,
                         (res_quot.augmentation.matrix @ gens0) % p, p)
    if lifted is None:
        raise InternalInvariantViolation("projection is not surjective")
    sigma0 = free_map_from_generator_images(res_quot.frees[0], mid, lifted)
    taus: list[ModuleMap | None] = [None]
    maps: list[ModuleMap] = []
    frees: list[Module] = []
    for k in range(depth + 1):
        r_a, r_c = res_sub.rank(k), res_quot.rank(k)
        free_b = free_module(ring, r_a + r_c)
        frees.append(free_b)
        if k == 0:
            aug_mat = np.hstack([
                (incl.matrix @ res_sub.augmentation.matrix) % p,
                sigma0.matrix,
            ])
            maps.append(ModuleMap(free_b, mid, aug_mat))
            continue
        # solve tau_k on generators of F^C_k
        gens = np.stack([generator_vector(ring, r_c, j) for j in range(r_c)],
                        axis=1) if r_c else gfmat.zeros(res_quot.frees[k].vdim, 0)
        if k == 1:
            rhs = (-(sigma0.matrix @ res_quot.boundary(1).matrix @ gens)) % p
            sys_mat = (incl.matrix @ res_sub.augmentation.matrix) % p
        else:
            rhs = (-(taus[k - 1].matrix @ res_quot.boundary(k).matrix @ gens)) % p
            sys_mat = res_sub.boundary(k - 1).matrix
        images = gfmat.solve(sys_mat, rhs, p)
        if images is None:
            raise InternalInvariantViolation("horseshoe correction inconsistent")
        tau_k = free_map_from_generator_images(res_quot.frees[k],
                                               res_sub.frees[k - 1], images)
        taus.append(tau_k)
        top = np.hstack([res_sub.boundary(k).matrix, tau_k.matrix])
        bottom = np.hstack([
            gfmat.zeros(res_quot.frees[k - 1].vdim, res_sub.frees[k].vdim),
            res_quot.boundary(k).matrix,
        ])
        maps.append(ModuleMap(frees[k], frees[k - 1], np.vstack([top, bottom])))
    assembled = AssembledResolution(mid, maps)
    return assembled, taus


def direct_long_ext_sequence(short: tuple[ModuleMap, ModuleMap], other: Module,
                             n: int, s_set) -> ConnectingData:
    """Hom(-, other) applied to an S-exact 0 -> A -> B -> C -> 0, directly.

    The chain runs 0 -> Ext^0(C,N) -> Ext^0(B,N) -> Ext^0(A,N) ->
    Ext^1(C,N) -> ... through degree n.  The connecting maps are the snake
    maps of the exact core over a horseshoe resolution of B, corrected by
    the maps that chain lifts of the inverse correctors induce.
    """
    f, g = short
    if n < 0:
        raise InputError("degree must be nonnegative")
    base = s_exactness_check(cap_chain([f, g]), s_set)
    if not base.ok:
        bad = [pos.index for pos in base.positions if pos.witness is None]
        raise NotSExact("input sequence is not S-exact; first failure at "
                        "position %d" % bad[0])
    s_mid = base.positions[1].witness
    core = _exact_core(f, g, s_set, s_mid)
    ker_g, incl_k = core["kernel"], core["kernel_inclusion"]
    img_g = core["image"]
    cores_g = core["corestriction"]
    res_a = resolution(f.source, "minimal")
    res_c = resolution(g.target, "minimal")
    res_k = resolution(ker_g, "minimal")
    res_i = resolution(img_g, "minimal")
    for r in (res_a, res_c, res_k, res_i):
        r.ensure(n + 1)
    res_b, taus = horseshoe(incl_k, cores_g, res_k, res_i, n + 1)
    lift_f = chain_lift(f, res_a, res_b, n + 1)
    lift_g = chain_lift(g, res_b, res_c, n + 1)
    lift_t1i = chain_lift(core["t1_inv"], res_k, res_a, n + 1)
    lift_t2i = chain_lift(core["t2_inv"], res_c, res_i, n + 1)
    hcs = {"A": HomCochain(res_a, other), "B": HomCochain(res_b, other),
           "C": HomCochain(res_c, other), "K": HomCochain(res_k, other),
           "I": HomCochain(res_i, other)}
    exts = {name: [ext_from_cochain(hcs[name], k) for k in range(n + 1)]
            for name in ("A", "B", "C", "K")}
    ext_i_next = [ext_from_cochain(hcs["I"], k) for k in range(n + 2)]
    chain = []
    deltas = []
    for k in range(n + 1):
        chain.append(ext_map_on_source(lift_g[k], exts["C"][k], exts["B"][k]))
        chain.append(ext_map_on_source(lift_f[k], exts["B"][k], exts["A"][k]))
        if k < n:
            to_ker = ext_map_on_source(lift_t1i[k], exts["A"][k], exts["K"][k])
            # snake: precompose a representative with tau_{k+1}
            tau_ring = ring_matrix_of_free_map(taus[k + 1])
            u = hom_block_matrix(other, tau_ring.transpose(1, 0, 2))
            mat = ext_i_next[k + 1].class_of((u @ exts["K"][k].reps) % f.ring.p)
            snake = ModuleMap(exts["K"][k].module,
                              ext_i_next[k + 1].module, mat)
            fix = ext_map_on_source(lift_t2i[k + 1], ext_i_next[k + 1],
                                    exts["C"][k + 1])
            deltas.append(len(chain))
            chain.append(fix.compose(snake).compose(to_ker))
    z = zero_module(f.ring)
    full = [ModuleMap.zero(z, chain[0].source)] + chain
    deltas = [i + 1 for i in deltas]
    report = s_exactness_check(full, s_set)
    modules = [z] + [m.target for m in full]
    return ConnectingData("contravariant", n, modules, full, deltas, report, core)


def comparison_isomorphisms(res_a, res_b, target: Module, n: int):
    """Canonical mutually inverse isos between Ext computed two ways.

    Lifting the identity both ways gives chain maps whose composites are
    homotopic to the identity, hence act as the identity on cohomology;
    the returned maps are exact inverses.
    """
    if not same_module(res_a.module, res_b.module):
        raise InputError("resolutions of different modules")
    ide = ModuleMap.identity(res_a.module)
    lift_ab = chain_lift(ide, res_a, res_b, n)
    lift_ba = chain_lift(ide, res_b, res_a, n)
    ext_a = ext_with_resolution(res_a, target, n)
    ext_b = ext_with_resolution(res_b, target, n)
    a_to_b = ext_map_on_source(lift_ba[n], ext_a, ext_b)
    b_to_a = ext_map_on_source(lift_ab[n], ext_b, ext_a)
    return ext_a, ext_b, a_to_b, b_to_a


@dataclass(frozen=True)
class ShiftReport:
    """Outcome of the degree-shift comparison across a certified middle term.

    ok means some map between the two Ext modules is an S-isomorphism;
    searched counts the candidates tried before finding it (or all of
    them, on failure).
    """

    variance: str
    degree: int
    middle: SplitWitness
    source_dim: int
    target_dim: int
    mapping: ModuleMap | None
    witness: SIsoWitness | None
    searched: int
    ok: bool


def shift_search(triple: tuple[ModuleMap, ModuleMap], other: Module,
                 n: int, s_set: MultSet, variance: str = "auto",
                 search_cap: int = 65536) -> ShiftReport:
    """Compare Ext across a short sequence whose middle term S-splits.

    With the middle term S-projective the contravariant comparison runs
    Ext^n(A, other) against Ext^{n+1}(C, other); with it S-injective the
    covariant one runs Ext^n(other, C) against Ext^{n+1}(other, A).  The
    check searches the full hom space between the two Ext modules for an
    S-isomorphism, so a zero map between uniformly S-torsion sides
    qualifies.
    """
    if n < 0:
        raise InputError("degree must be nonnegative")
    f, g = triple
    _require_s_exact(f, g, s_set)
    mid = f.target
    middle = None
    if variance in ("auto", "contravariant"):
        candidate = is_s_projective(mid, s_set)
        if candidate.verdict:
            variance, middle = "contravariant", candidate
        elif variance == "contravariant":
            raise MiddleNotCertified("middle term is not S-projective")
    if middle is None:
        candidate = is_s_injective(mid, s_set)
        if candidate.verdict:
            variance, middle = "covariant", candidate
        else:
            raise MiddleNotCertified("middle term certifies neither way")
    if variance == "contravariant":
        src = ext(f.source, other, n)
        tgt = ext(g.target, other, n + 1)
    else:
        src = ext(other, g.target, n)
        tgt = ext(other, f.source, n + 1)
    basis = hom_space(src.module, tgt.module)
    p = s_set.ring.p
    if p ** len(basis) > search_cap:
        raise InputError("hom search space has %d candidates, over the cap %d"
                         % (p ** len(basis), search_cap))
    searched = 0
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        mat = gfmat.zeros(tgt.module.vdim, src.module.vdim)
        for c, h in zip(coeffs, basis):
            mat = (mat + c * h.matrix) % p
        cand = ModuleMap(src.module, tgt.module, mat)
        searched += 1
        witness = is_s_isomorphism(cand, s_set)
        if witness.verdict:
            return ShiftReport(variance, n, middle, src.dim, tgt.dim,
                               cand, witness, searched, True)
    return ShiftReport(variance, n, middle, src.dim, tgt.dim,
                       None, None, searched, False)
