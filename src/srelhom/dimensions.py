"""Relative projective and injective dimensions with split certificates.

A module M is S-projective exactly when some s in S admits a section pi'
of a free cover pi with pi . pi' = s Id, and dually S-injective with a
retraction of the canonical embedding into an injective module.  Each
such question is linear in s: the s that split form an ideal, which
meets S exactly when it holds the idempotent e_S of S (rings docstring).
So e_S decides the question and is the witness, and a failure of e_S
proves that no s in S splits.

Over a finite F_p-algebra R both dimensions are 0 or infinite.  S is
finite, so one s kills an Ext group uniformly exactly when t = prod(S)
does, and t^d = u e_S for a unit u and an idempotent e_S (d = dim R);
hence S-pd_R M = pd(e_S M) over e_S R, and likewise for S-id.  e_S R is
Artinian, a product of local rings of depth 0, so by Auslander-Buchsbaum
(pd) and Bass (id) a finite dimension there is 0.  A failure of e_S at
level 0 proves the dimension infinite, reported as the ">bound" value.

Which of the two is decided by counts on the local blocks.  Let e_1, ...,
e_m be the primitive idempotents of R (rings docstring), R_i = e_i R,
J = rad R, d_i = dim R_i and k_i = d_i - dim e_i J, the dimension of the
residue field of the local ring R_i (FiniteAlgebra.block_dimensions).
e_S is an idempotent, so it is the sum of the e_i over
I_S = {i : e_i e_S = e_i}.  Let N_i = e_i M.
  - e_S M is the direct sum of the N_i over I_S, so it is projective over
    e_S R exactly when every such N_i is projective over R_i, that is
    free, as R_i is local.
  - Nakayama (J is nilpotent): N_i/JN_i is a vector space over the
    residue field, of dimension mu with mu k_i = dim N_i/JN_i, and
    lifting a basis of it gives a minimal cover R_i^mu ->> N_i.  So
    dim N_i <= mu d_i, with equality exactly when that cover is
    injective, that is when N_i is free.
Hence S-pd M = 0 exactly when dim N_i k_i = dim(N_i/JN_i) d_i for every i
in I_S.  Each term is a rank of M's own action matrices: N_i is the image
of e_i, and JN_i = e_i JM is the image of e_i [g_1 | ... | g_t] for the
radical generators g acting on M, which generate J (rings docstring).
No kernel of a cover and no elimination is needed.  The counts check
themselves: N_i/JN_i is a vector space over the residue field, so k_i
divides its dimension, and N_i is a quotient of R_i^mu, so
dim N_i k_i <= dim(N_i/JN_i) d_i; a count that breaks either is an
engine fault and raises.  S-id M = 0 is the same test on the character
dual DM, whose cover transposes to M's injective cocover; top(DN_i) is
dual to the socle of N_i, so no socle is computed.

e_S M is projective exactly when a free cover C: F ->> M splits at e_S: a
section of e_S F ->> e_S M composed with e_S is a map psi with
C . psi = e_S Id, and such a psi makes e_S M a summand of e_S F.  The
counts come first.  Only when they answer 0 is a cover built (and, for
S-id, the cocover) and the section they promise built by one solve;
a 0 answer without one is an engine fault and raises.  Every split map
is re-verified before it is returned.  An infinite answer builds no
cover, dual cover or cocover; the failed witness carries the block
counts.

The section needs no kernel of C.  The minimal cover C: R^r ->> M
(homology.Resolution) lifts, on each block i, an (e_i R/e_i J)-basis of
N_i/JN_i of mu_i elements, and generator t is the sum of the t-th lifts,
so e_i C(1_t) is the t-th lift of block i for t < mu_i and 0 otherwise.
Let f_t be the sum of the e_i, i in I_S, with e_i C(1_t) != 0, and
Q = sum of the f_t R 1_t in R^r, the direct sum over i in I_S of
R_i^mu_i.  C maps Q onto e_S M: on block i it sends R_i^mu_i onto the
submodule of N_i the lifts generate, which is N_i by Nakayama.  When
the counts answer 0, dim N_i = mu_i d_i = dim R_i^mu_i, so that onto map
is an isomorphism, and psi = (C restricted to Q)^-1 . e_S is R-linear
with C . psi = e_S Id (Anderson-Fuller, Rings and Categories of Modules,
section 27: mu_i generators of a free R_i-module of rank mu_i are a
basis).  C f_t 1_t = e_S C(1_t), so C P_Q = e_S C for the projection
P_Q onto Q; psi is P_Q Y for a solution Y of e_S C Y = e_S Id, one
solve with dim M rows, whose rank must be dim Q: the check that C is
injective on Q, which a cover that is not minimal, or counts that lie,
fail (_section).

The same reduction decides the S-global dimension in closed form: it is
the global dimension of e_S R, which is Artinian, so it is 0 when e_S R
is semisimple and infinite otherwise.  e_S R is semisimple exactly when
its radical e_S rad R is 0.  Hence S-gl.dim R = 0 with witness e_S when
e_S kills rad R, and infinite otherwise.

So every value computed here is exact: 0, or infinity, which prints as
">bound" (the bound shapes only that token); over Z the integer backend
adds the value 1.  Comparisons on values are the total order of
{0, 1, 2, ...} with infinity on top, and always decide.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np

from . import gfmat
from .errors import (
    InputError,
    InternalInvariantViolation,
    MiddleNotCertified,
    RingMismatch,
)
from .rings import (
    FiniteAlgebra,
    Ideal,
    MultSet,
    RingElement,
    _row_blocks,
    complement_multset,
    enumerate_ideals,
    maximal_ideals,
    mult_closure,
    radical_ideal,
    same_ring,
)
from .modules import (
    Module,
    ModuleMap,
    SIsoWitness,
    _content_cached,
    _content_key,
    _require_s_exact,
    character_dual,
    dual_map,
    is_s_isomorphism,
)
from .homology import _require_one_ring, core_connecting_map, injective_cocover, resolution
from .instances import random_module

__all__ = [
    "DEFAULT_BOUND",
    "DimValue",
    "dim_max",
    "SplitWitness",
    "DimResult",
    "GlobalDimReport",
    "SemisimpleReport",
    "LocalEntry",
    "LocalProfile",
    "Assertion",
    "InequalityReport",
    "ShiftReport",
    "is_s_projective",
    "is_s_injective",
    "s_pd",
    "s_id",
    "s_gldim",
    "is_s_semisimple",
    "local_profile",
    "check_inequalities",
    "dimension_shift_check",
]

DEFAULT_BOUND = 8


# -- dimension values ----------------------------------------------------------


@dataclass(frozen=True)
class DimValue:
    """An exact dimension: n, or infinity, printed ">n" (beyond=True).

    A failed search proves the dimension infinite (module docstring), so
    ">n" is infinity and n only shapes the printed token.  The methods
    le/lt/eq are the two-valued order with infinity on top, and infinity
    absorbs shift and dim_add.  Structural equality (==) also compares
    the printed bound, so ">8" != ">7" although both are infinity.
    """

    value: int
    beyond: bool = False

    @staticmethod
    def exact(n: int) -> "DimValue":
        return DimValue(n, False)

    @staticmethod
    def over(bound: int) -> "DimValue":
        return DimValue(bound, True)

    @property
    def known(self) -> bool:
        return not self.beyond

    @property
    def _rank(self) -> float:
        return math.inf if self.beyond else self.value

    def shift(self, k: int) -> "DimValue":
        return self if self.beyond else DimValue.exact(self.value + k)

    def le(self, other: "DimValue") -> bool:
        return self._rank <= other._rank

    def lt(self, other: "DimValue") -> bool:
        return self._rank < other._rank

    def eq(self, other: "DimValue") -> bool:
        return self._rank == other._rank

    def __str__(self) -> str:
        return (">" if self.beyond else "") + str(self.value)


def dim_max(*vals: DimValue) -> DimValue:
    """Plain maximum with infinity on top (the largest printed bound among
    infinite values)."""
    return max(vals, key=lambda v: (v.beyond, v.value))


def dim_add(a: DimValue, b: DimValue) -> DimValue:
    """Sum; an infinite side absorbs the other."""
    if a.beyond or b.beyond:
        return a if a.beyond else b
    return DimValue.exact(a.value + b.value)


# -- split certificates --------------------------------------------------------


@dataclass(frozen=True)
class BlockCounts:
    """The counts on the first block i in I_S at which e_S M is not free.

    size is dim N_i and top is dim N_i/JN_i for N_i = e_i M; on this block
    size k_i != top d_i (module docstring).  For S-id the counts are
    those of the dual, so top is dim soc(N_i); module is M either way.
    """

    module: Module
    block: int
    size: int
    top: int


@dataclass(frozen=True)
class SplitWitness:
    """Certificate (or failed search) for an S-splitting.

    kind "section": cover is pi: F ->> P and mapping is pi': P -> F with
    pi . pi' = s Id_P.  kind "retraction": cover is iota: E -> I and
    mapping is q: I -> E with q . iota = s Id_E.  The one element tried
    is e_S (module docstring): a success has s = e_S and nothing in
    attempted.  A section of the minimal cover C is the one with image
    in Q, which C maps onto e_S P isomorphically by Nakayama once the
    counts answer 0 (module docstring); a retraction is the transposed
    section of the cover of DE.  A failure of the block counts builds no
    cover: cover, s and mapping are None, attempted = (e_S,) and counts
    holds the BlockCounts of the failing block, which certify that no s
    in S splits.
    """

    kind: str
    cover: ModuleMap | None
    s: RingElement | None
    mapping: ModuleMap | None
    attempted: tuple[RingElement, ...] = ()
    counts: BlockCounts | None = None

    @property
    def verdict(self) -> bool:
        return self.s is not None

    def certified_module(self) -> Module:
        if self.cover is None:
            return self.counts.module
        return self.cover.target if self.kind == "section" else self.cover.source

    def verify(self) -> bool:
        """Re-check the defining identity as exact matrix equality."""
        if not self.verdict:
            return False
        if self.kind == "section":
            comp = self.cover.compose(self.mapping)
        else:
            comp = self.mapping.compose(self.cover)
        want = self.certified_module().action_of(self.s)
        return bool(np.array_equal(comp.matrix, want))


def _require_same_ring(ring: FiniteAlgebra, s_set: MultSet) -> None:
    if not same_ring(ring, s_set.ring):
        raise RingMismatch("module and multiplicative set over different rings")


def _require_verified(witness: SplitWitness) -> SplitWitness:
    if witness.verdict and not witness.verify():
        raise InternalInvariantViolation("split witness failed re-verification")
    return witness


def _split_search(cover: ModuleMap, s_set: MultSet) -> SplitWitness:
    """The section psi of the minimal free cover C: F ->> X with
    C . psi = e_S Id_X, re-verified.

    The caller has decided by the block counts that e_S X is projective
    (is_s_projective); this builds the section they promise.  When X = 0,
    every s splits; when 0 is in S, e_S = 0 lies in every ideal.  Either
    way the answer is e_S with the zero map and no system is solved.
    Otherwise _section inverts C on Q = sum of the f_t R 1_t, which C
    maps isomorphically onto e_S X exactly when the counts are right and
    C is minimal (module docstring).  It raises when they are not, so a
    caller that skipped the counts, or a cover that is not minimal,
    fails loudly.
    """
    _require_same_ring(cover.ring, s_set)
    s = s_set.idempotent
    if cover.target.vdim == 0 or s_set.degenerate:
        return _require_verified(SplitWitness(
            "section", cover, s, ModuleMap.zero(cover.target, cover.source)))
    return _require_verified(_section(cover, s))


def _support(ring: FiniteAlgebra, s: RingElement) -> list[int]:
    """I_S for s = e_S: the blocks i with e_i e_S = e_i, all of them when
    e_S = 1."""
    idems = ring.primitive_idempotents()
    if np.array_equal(s.array, ring.unit):
        return list(range(len(idems)))
    parts = ring.products(idems, s.array[None])[:, 0]
    return [i for i in range(len(idems)) if np.array_equal(parts[i], idems[i])]


def _projective_at(module: Module, s: RingElement) -> BlockCounts | None:
    """None when e_S M is projective over e_S R, for s = e_S and M != 0:
    on every block i in I_S, dim N_i k_i = dim(N_i/JN_i) d_i (module
    docstring).  Otherwise the BlockCounts of the first block that
    breaks it.

    I_S needs no product when e_S = 1, and dim N_i = dim M needs no rank
    when e_i = 1.  The radical generators' actions on M are stacked once,
    [g_1 | ... | g_t], and JN_i is the image of e_i times that stack.
    """
    ring = module.ring
    p, n = ring.p, module.vdim
    idems = ring.primitive_idempotents()
    dims, residues = ring.block_dimensions()
    gens = ring.radical_generators()
    stack = (gens.T @ module.actions.reshape(ring.dim, n * n) % p).reshape(-1, n, n)
    stack = stack.transpose(1, 0, 2).reshape(n, -1)
    for i in _support(ring, s):
        if len(idems) == 1:
            size, radical = n, gfmat.rank(stack, p)
        else:
            proj = module.action_of(idems[i])
            size, radical = gfmat.rank(proj, p), gfmat.rank(proj @ stack % p, p)
        top, k = size - radical, residues[i]
        if top % k or size * k > top * dims[i]:
            raise InternalInvariantViolation(
                "block %d of the module has dimension %d and top %d, which no "
                "quotient of a free module over a block of dimension %d with "
                "residue dimension %d has" % (i, size, top, dims[i], k))
        if size * k != top * dims[i]:
            return BlockCounts(module, i, size, top)
    return None


def _section(cover: ModuleMap, s: RingElement) -> SplitWitness:
    """The section psi = (C restricted to Q)^-1 . e_S of the minimal cover
    C: R^r ->> X at s = e_S, which the counts promised (module docstring).

    C P_Q = e_S C for the projection P_Q onto Q, so psi = P_Q Y for a
    solution Y of e_S C Y = e_S Id_X: one solve of dim X rows.  Its rank
    is dim C(Q), so the system is consistent with rank dim Q exactly when
    C maps Q isomorphically onto e_S X; a cover that is not minimal, or
    counts that lie, fail that and raise.

    psi reads the ring, C and e_S only (C is R-linear and onto, so it
    fixes the action of e_S on X), so it is computed once per distinct
    (ring content, C, e_S) (modules._content_cached); the witness is
    built on the caller's own cover.
    """
    ring, pres = cover.ring, cover.matrix
    (psi,) = _content_cached(
        ("split", ring.content, *_content_key(pres, s.array)),
        lambda: (_section_matrix(ring, pres, cover.target.action_of(s), s),))
    return SplitWitness("section", cover, s, ModuleMap(cover.target, cover.source, psi))


def _section_matrix(ring: FiniteAlgebra, pres: np.ndarray, scale: np.ndarray,
                    s: RingElement) -> np.ndarray:
    """psi of _section, for C = pres: R^r ->> X and scale = e_S Id_X.

    Q is the sum of the f_t R 1_t, f_t the sum of the e_i, i in I_S, with
    C(e_i 1_t) != 0, which is column block t of C times e_i; so
    dim Q = sum over t of the d_i in f_t.
    """
    p, d = ring.p, ring.dim
    n, r = pres.shape[0], pres.shape[1] // d
    support = _support(ring, s)
    idems = ring.primitive_idempotents()[support]
    hits = (pres.reshape(n, r, d) @ idems.T % p).any(axis=0).astype(np.int64)
    size = int((hits @ ring.block_dimensions()[0][support]).sum())
    residual, y = gfmat.solve_span(scale @ pres % p, scale, p)
    if residual.any() or n - len(residual) != size:
        raise InternalInvariantViolation(
            "the counts make e_S X projective but e_S does not split the cover "
            "on Q: e_S C has rank %d, Q has dimension %d" % (n - len(residual), size))
    # block t of P_Q Y is f_t times block t of Y; mults[t, b] = f_t b_b
    mults = (hits @ idems % p @ ring.table.reshape(d, d * d) % p).reshape(r, d, d)
    return (mults.transpose(0, 2, 1) @ y.reshape(r, d, n) % p).reshape(r * d, n)


def is_s_projective(module: Module, s_set: MultSet) -> SplitWitness:
    """A section pi': M -> F of the minimal free cover pi, for s = e_S.

    The block counts decide first (_projective_at); only a 0 answer
    builds the cover and its section (_split_search).
    """
    _require_same_ring(module.ring, s_set)
    s = s_set.idempotent
    if module.vdim and not s_set.degenerate:
        counts = _projective_at(module, s)
        if counts is not None:
            return SplitWitness("section", None, None, None, (s,), counts)
    return _split_search(resolution(module).cover(0), s_set)


def is_s_injective(module: Module, s_set: MultSet) -> SplitWitness:
    """A retraction q: I -> M of the injective cocover iota, for s = e_S.

    iota is the transpose of the cover of DM (injective_cocover), so
    q . iota = s Id_M exactly when q^T is a section of that cover at s:
    the question is is_s_projective(DM), and q its transposed section.
    DM is a cached transpose; a failure carries its counts, with module
    M, and builds no cocover.
    """
    dual = is_s_projective(character_dual(module), s_set)
    if not dual.verdict:
        return SplitWitness("retraction", None, None, None, dual.attempted,
                            replace(dual.counts, module=module))
    iota = injective_cocover(module)
    q = ModuleMap._trusted(iota.target, module, dual.mapping.matrix.T.copy())
    return _require_verified(SplitWitness("retraction", iota, dual.s, q))


# -- dimensions ----------------------------------------------------------------


@dataclass(frozen=True)
class DimResult:
    """Outcome of the split searches of an S-dimension, one per level.

    Over a finite algebra levels holds the one level-0 search: a success
    makes the value exactly 0 and is the certificate; a failure of e_S,
    a witness with no cover that carries the block counts, rules out all
    of S, so the dimension is infinite and value is DimValue.over(bound).
    cross_check is value itself on S-id results and None otherwise.  It
    is kept for its readers only: the independent check of a 0 answer is
    now the re-verified split map of a separate elimination (module
    docstring).  zmodules.z_s_pd returns one too, with a ZMod, a ZMultSet
    and ZSplitWitness levels: over Z/m the same single level 0, over Z a
    failed level 0 followed by level 1, so the value is 0 or 1.
    certificate is the last search of a known value.
    """

    kind: str
    module: Module
    s_set: MultSet
    bound: int
    value: DimValue
    levels: tuple[SplitWitness, ...]
    cross_check: DimValue | None = None

    @property
    def certificate(self) -> SplitWitness | None:
        return self.levels[-1] if self.value.known else None

    def __str__(self) -> str:
        return "%s = %s (bound %d)" % (self.kind, self.value, self.bound)


def _level_zero(kind: str, module: Module, s_set: MultSet, bound: int,
                search) -> DimResult:
    """The dimension the level-0 split search decides: 0 or infinite.

    search re-verifies a successful witness itself.
    """
    if bound < 0:
        raise InputError("bound must be nonnegative")
    witness = search(module, s_set)
    value = DimValue.exact(0) if witness.verdict else DimValue.over(bound)
    return DimResult(kind, module, s_set, bound, value, (witness,),
                     value if kind == "S-id" else None)


def s_pd(module: Module, s_set: MultSet, bound: int = DEFAULT_BOUND) -> DimResult:
    """S-relative projective dimension: 0 or infinite (module docstring).

    The block counts decide (is_s_projective).  A 0 answer's certificate
    is an S-section of the first cover of the minimal free resolution; an
    infinite one, reported as DimValue.over(bound), builds no cover.
    """
    return _level_zero("S-pd", module, s_set, bound, is_s_projective)


def s_id(module: Module, s_set: MultSet, bound: int = DEFAULT_BOUND) -> DimResult:
    """S-relative injective dimension: 0 or infinite (module docstring).

    The block counts on DM decide (is_s_injective).  A 0 answer's
    certificate is an S-retraction of the injective cocover; an infinite
    one builds no cocover.  cross_check equals value (DimResult).
    """
    return _level_zero("S-id", module, s_set, bound, is_s_injective)


# -- global dimension ----------------------------------------------------------


@dataclass(frozen=True)
class GlobalDimReport:
    """S-global dimension in closed form, with the audit it passed.

    candidate is DimValue.exact(0) with witness e_S, which kills rad R,
    or DimValue.over(bound), a proof of infinity, with witness None.
    trials random modules were checked against it.
    """

    ring: FiniteAlgebra
    s_set: MultSet
    bound: int
    candidate: DimValue
    witness: RingElement | None
    trials: int
    seed: int


def s_gldim(ring: FiniteAlgebra, s_set: MultSet, bound: int = DEFAULT_BOUND,
            trials: int = 16, seed: int = 0) -> GlobalDimReport:
    """S-global dimension: 0 when e_S kills rad R, else infinite.

    The proof is in the module docstring; the witness is e_S.  Each of
    the trials draws a random module whose S-pd and S-id must not exceed
    the value; an exceedance is an engine bug and raises.
    """
    _require_same_ring(ring, s_set)
    if bound < 0:
        raise InputError("bound must be nonnegative")
    if trials < 0:
        raise InputError("trials must be >= 0")
    e = s_set.idempotent
    witness = None if ring.products(e.array[None], ring.radical_basis().T).any() else e
    value = DimValue.exact(0) if witness is not None else DimValue.over(bound)
    rng = random.Random("sgldim:%d" % seed)
    for _ in range(trials):
        mod = random_module(ring, rng)
        sampled = dim_max(s_pd(mod, s_set, bound).value, s_id(mod, s_set, bound).value)
        if not sampled.le(value):
            raise InternalInvariantViolation(
                "sampled module has dimension %s above S-gl.dim %s" % (sampled, value))
    return GlobalDimReport(ring, s_set, bound, value, witness, trials, seed)


# -- semisimplicity ------------------------------------------------------------


@dataclass(frozen=True)
class SemisimpleReport:
    """Witness s with a projection family f_I(r) = r y_I, or the failures.

    family pairs each ideal with the element y = f_I(1) in I satisfying
    i y = s i for every i in I.  On failure, failures is the one pair of
    e_S and rad R, whose linear system e_S does not solve.
    """

    ring: FiniteAlgebra
    s_set: MultSet
    verdict: bool
    s: RingElement | None
    family: tuple[tuple[Ideal, RingElement], ...]
    failures: tuple[tuple[RingElement, Ideal], ...]


def is_s_semisimple(ring: FiniteAlgebra, s_set: MultSet) -> SemisimpleReport:
    """Does e_S project onto every ideal at once?

    For a candidate s, every ideal I must admit an R-linear
    f_I: R -> I with f_I(i) = s i for all i in I; the single s has to
    work for all ideals simultaneously.  f_I is determined by y = f_I(1)
    in I, and f_I(g) = s g for each basis vector g of I is one system per
    ideal, solved for s = e_i: s works for I exactly when W_I @ s = 0,
    with y = X_I @ s in the basis of I.  The s that work for every I
    form an ideal, so some s in S works exactly when e_S does.

    rad R decides the answer.  If e_S works for rad R with some y in it,
    then j = e_S i satisfies j = e_S j = j y for every i in rad R, so
    j = j y^n = 0 as y is nilpotent: e_S works for rad R exactly when
    e_S rad R = 0.  Then e_S R is semisimple and e_S works for every
    ideal, so only a positive answer lists the ideal lattice.
    """
    _require_same_ring(ring, s_set)
    p, d = ring.p, ring.dim
    s = s_set.idempotent

    def system(ideal):
        basis, k = ideal.basis, ideal.fdim
        # mults[j] is multiplication by the j-th basis vector of I
        mults = ring.products(basis.T, np.eye(d, dtype=np.int64)).transpose(0, 2, 1)
        coeff = (mults @ basis).reshape(k * d, k) % p
        w, x = gfmat.solve_span(coeff, mults.reshape(k * d, d), p)
        return bool((w @ s.array % p).any()), x

    rad = radical_ideal(ring)
    if system(rad)[0]:
        return SemisimpleReport(ring, s_set, False, None, (), ((s, rad),))
    family = []
    for ideal in enumerate_ideals(ring).ideals:
        blocked, x = system(ideal)
        if blocked:
            raise InternalInvariantViolation("e_S kills rad R but blocks an ideal")
        y = ring.element(ideal.basis @ (x @ s.array % p))
        gens = ideal.basis.T
        if (ring.products(gens, y.array[None]) != ring.products(gens, s.array[None])).any():
            raise InternalInvariantViolation("semisimple generator fails re-check")
        family.append((ideal, y))
    return SemisimpleReport(ring, s_set, True, s, tuple(family), ())


# -- local profiles ------------------------------------------------------------


@dataclass(frozen=True)
class LocalEntry:
    prime: Ideal
    multset: MultSet
    result: DimResult


@dataclass(frozen=True)
class LocalProfile:
    """Dimension of one module localized at every prime, with the sup test.

    formula_ok records whether the supremum of the per-prime values
    equals the classical value (S = {1}), infinity equal to infinity.
    """

    module: Module
    kind: str
    bound: int
    entries: tuple[LocalEntry, ...]
    classical: DimResult
    sup_value: DimValue
    formula_ok: bool


def local_profile(module: Module, kind: str = "pd",
                  bound: int = DEFAULT_BOUND) -> LocalProfile:
    """Per-prime dimension table via complement multiplicative sets.

    The primes are the maximal ideals P_i = (1 - e_i)R + e_i rad R of
    rings.maximal_ideals, one per primitive idempotent e_i, and the
    complement S = R minus P_i has e_S = e_i, so neither the ideal lattice
    nor an element of R is listed.  Proof: e_i lies in S, as e_i is not
    in e_i rad R.  For s in S, e_i s is not in e_i rad R, the maximal
    ideal of the local ring e_i R, so e_i s is a unit of e_i R and e_i
    lies in sR.  An idempotent of S that lies in sR for every s in S is
    e_S (rings docstring), and there is only one: if e and e' both are,
    then e = e e' = e'.  So e_S = e_i, and S-pd and S-id at P_i are the
    dimensions over e_i R, the localisation R_{P_i} (Atiyah-Macdonald,
    Theorem 8.7).
    """
    if kind not in ("pd", "id"):
        raise InputError("kind must be 'pd' or 'id', got %r" % (kind,))
    walker = s_pd if kind == "pd" else s_id
    ring = module.ring
    entries = []
    for prime in maximal_ideals(ring):
        mult = complement_multset(ring, prime)
        entries.append(LocalEntry(prime, mult, walker(module, mult, bound)))
    classical = walker(module, mult_closure(ring, []), bound)
    sup_value = dim_max(*(e.result.value for e in entries))
    formula_ok = sup_value.eq(classical.value)
    return LocalProfile(module, kind, bound, tuple(entries), classical,
                        sup_value, formula_ok)


# -- short exact sequence inequalities ------------------------------------------


@dataclass(frozen=True)
class Assertion:
    """One checked relation: verdict is pass, fail, or inapplicable."""

    name: str
    statement: str
    verdict: str
    note: str = ""


@dataclass(frozen=True)
class InequalityReport:
    s_set: MultSet
    bound: int
    pd_results: tuple[DimResult, DimResult, DimResult]
    id_results: tuple[DimResult, DimResult, DimResult]
    split: SplitWitness | None
    assertions: tuple[Assertion, ...]

    @property
    def ok(self) -> bool:
        return all(a.verdict != "fail" for a in self.assertions)

    def by_name(self, name: str) -> Assertion:
        for a in self.assertions:
            if a.name == name:
                return a
        raise InputError("no assertion named %r" % (name,))


def _decided(name: str, statement: str, holds: bool) -> Assertion:
    return Assertion(name, statement, "pass" if holds else "fail")


def _conditional(name: str, statement: str, hypothesis: bool,
                 conclusions: list[bool]) -> Assertion:
    if not hypothesis:
        return Assertion(name, statement, "inapplicable", "hypothesis fails")
    return _decided(name, statement, all(conclusions))


def split_witness_from_retraction(f: ModuleMap, retraction: ModuleMap,
                                  s_set: MultSet) -> SplitWitness:
    """Certify a retraction of the first map of a short sequence.

    Finds the first s in canonical order with retraction . f = s Id
    exactly, and packages it; raises InputError when no element of S
    matches, since an uncertified retraction proves nothing.  The s that
    match form a coset of an ideal, not an ideal, so e_S does not decide
    this one: the members are scanned, one product per row block.
    """
    if retraction.source is not f.target and retraction.source.vdim != f.target.vdim:
        raise InputError("retraction source does not match the middle term")
    comp = retraction.compose(f).matrix.reshape(-1)
    acts = f.source.actions.reshape(f.ring.dim, -1)
    for rows in _row_blocks(len(s_set), acts.shape[1]):
        misses = ((s_set.vectors[rows] @ acts - comp) % f.ring.p).any(axis=1)
        if not misses.all():
            k = rows.start + int(misses.argmin())
            return SplitWitness("retraction", f, s_set.elements[k], retraction,
                                s_set.elements[:k])
    raise InputError("retraction is not s Id for any s in S")


def check_inequalities(triple: tuple[ModuleMap, ModuleMap], s_set: MultSet,
                       bound: int = DEFAULT_BOUND,
                       retraction: ModuleMap | None = None) -> InequalityReport:
    """Dimension inequalities along an S-exact 0 -> A -> B -> C -> 0.

    Unconditional bounds and conditional gap statements are always
    evaluated; the split additivity equalities run only when a
    retraction certifying the S-splitting accompanies the input.  Every
    value is exact, infinity included, so each relation passes, fails,
    or is inapplicable; none is vacuous.
    """
    f, g = triple
    _require_s_exact(f, g, s_set)
    split = None
    if retraction is not None:
        split = split_witness_from_retraction(f, retraction, s_set)
    pd_res = tuple(s_pd(m, s_set, bound) for m in (f.source, f.target, g.target))
    id_res = tuple(s_id(m, s_set, bound) for m in (f.source, f.target, g.target))
    pd_a, pd_b, pd_c = (r.value for r in pd_res)
    id_a, id_b, id_c = (r.value for r in id_res)
    assertions = []

    rhs = dim_max(pd_a, pd_b).shift(1)
    assertions.append(_decided(
        "pd-bound-on-quotient",
        "pd(C) = %s <= 1 + max(pd(A), pd(B)) = %s" % (pd_c, rhs),
        pd_c.le(rhs)))

    gap = pd_c.shift(-1)
    assertions.append(_conditional(
        "pd-gap",
        "pd(B) = %s < pd(C) = %s implies pd(A) = pd(C) - 1 > pd(B)" % (pd_b, pd_c),
        pd_b.lt(pd_c),
        [pd_a.eq(gap), pd_b.lt(gap)]))

    rhs = dim_max(id_b, id_c).shift(1)
    assertions.append(_decided(
        "id-bound-on-sub",
        "id(A) = %s <= 1 + max(id(B), id(C)) = %s" % (id_a, rhs),
        id_a.le(rhs)))

    gap = id_a.shift(-1)
    assertions.append(_conditional(
        "id-gap",
        "id(B) = %s < id(A) = %s implies id(C) = id(A) - 1 > id(B)" % (id_b, id_a),
        id_b.lt(id_a),
        [id_c.eq(gap), id_b.lt(gap)]))

    if split is None:
        assertions.append(Assertion(
            "pd-split-additivity", "pd(B) = max(pd(A), pd(C))",
            "inapplicable", "no split witness supplied"))
        assertions.append(Assertion(
            "id-split-additivity", "id(B) = max(id(A), id(C))",
            "inapplicable", "no split witness supplied"))
    else:
        rhs = dim_max(pd_a, pd_c)
        assertions.append(_decided(
            "pd-split-additivity",
            "pd(B) = %s equals max(pd(A), pd(C)) = %s" % (pd_b, rhs),
            pd_b.eq(rhs)))
        rhs = dim_max(id_a, id_c)
        assertions.append(_decided(
            "id-split-additivity",
            "id(B) = %s equals max(id(A), id(C)) = %s" % (id_b, rhs),
            id_b.eq(rhs)))
    return InequalityReport(s_set, bound, pd_res, id_res, split, tuple(assertions))


# -- dimension shifting ----------------------------------------------------------


@dataclass(frozen=True)
class ShiftReport:
    """Outcome of the degree-shift check across a certified middle term.

    mapping is the snake map that dimension_shift_check decides (in the
    contravariant case, between Ext groups against DN), witness its
    S-isomorphism verdict, and ok that verdict.
    """

    variance: str
    degree: int
    middle: SplitWitness
    mapping: ModuleMap
    witness: SIsoWitness
    ok: bool


def dimension_shift_check(triple: tuple[ModuleMap, ModuleMap], other: Module,
                          n: int, s_set: MultSet) -> ShiftReport:
    """Corollary 1.4: is the degree-n connecting map an S-isomorphism?

    For an S-exact 0 -> A -> B -> C -> 0 with B S-projective (tried
    first; "contravariant") the map is Ext^n(A, N) -> Ext^{n+1}(C, N),
    with B S-injective ("covariant") Ext^n(N, C) -> Ext^{n+1}(N, A), where
    N = other.  The corollary claims an S-isomorphism for n >= 1; at
    n = 0, ok is still the verdict on that map.

    ok is decided on the snake map of the exact core
    0 -> Ker g -> B -> Im g -> 0 against L = N (core_connecting_map).
    The connecting map of long_ext_sequence is
    Ext^{n+1}(L, t1^-1) . snake . Ext^n(L, t2^-1), where t1^-1 and t2^-1
    invert the S-isomorphisms A -> Ker g and Im g -> C, so are
    S-isomorphisms, and Ext keeps S-isomorphisms (Lemma 1.2).  A map is
    an S-isomorphism exactly when e_S times it is an isomorphism, so
    two-out-of-three holds: the connecting map is one exactly when the
    snake map is, and no corrector is built.  The contravariant case is
    the covariant one of 0 -> DC -> DB -> DA -> 0 against L = DN (see
    long_ext_sequence), whose core is that of Df.
    """
    if n < 0:
        raise InputError("degree must be nonnegative")
    f, g = triple
    _require_one_ring(f.source, other)
    _require_s_exact(f, g, s_set)
    mid = f.target
    middle = is_s_projective(mid, s_set)
    if middle.verdict:
        variance, g, other = "contravariant", dual_map(f), character_dual(other)
    else:
        middle = is_s_injective(mid, s_set)
        if not middle.verdict:
            raise MiddleNotCertified("middle term certifies neither way")
        variance = "covariant"
    snake = core_connecting_map(g, other, n)
    witness = is_s_isomorphism(snake, s_set)
    return ShiftReport(variance, n, middle, snake, witness, witness.verdict)
