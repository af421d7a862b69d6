"""Free resolutions, Ext, and the S-relative long exact sequence.

The resolution of M is built in ambient coordinates.  Each syzygy K_i is
kept as a basis of columns in the previous free module F_{i-1} (M itself
at level 0): choose generators among those columns, map a free module
F_i onto them, and one nullspace of that boundary is the basis of K_{i+1}
in F_i.  A syzygy is built as a Module only when a caller asks for it.
A level's arrays are keyed in the content store by the syzygy they are
computed from, its basis and its host, not by the module resolved and
the level index, so a syzygy that comes back (the resolutions over chain
rings and their products are periodic) reuses the level built for it
(Resolution.ensure).
The "minimal" style works block by block over the primitive idempotents
e_i of R: it lifts a basis of each e_i(K / rad K) over the residue field
e_i R / e_i rad R of the block and sums the t-th lifts of all blocks
into generator t, so a cover has rank max_i dim e_i(K / rad K) / k_i,
with k_i the F_p-dimension of that residue field: the largest block top
and not the sum of them (proof at Resolution._generator_columns).  Over
a local ring that is a minimal generating set.  "plain" covers every
basis column, and "seeded-random" pads the minimal generators with
random redundant ones for resolution-independence testing.

Ext^n(M, N) is computed as cohomology of Hom(F_., N) = N^{r_.}, whose
layout HomCochain owns.  Its dimension is dim C^n - rank d^{n+1} -
rank d^n, two ranks, which is all `srelhom ext` computes.  Ext results
keep cocycle representatives, built with the Ext module and the cocycle
basis on the first read of any of them (ExtResult), so maps induced in
either variable descend to cohomology explicitly; connecting maps are
built exactly as in the snake construction, with S-isomorphism
correctors splicing the exact core of an S-exact sequence back to its
stated endpoints.

The long sequence has one construction, Hom(L, -) over one resolution of
L.  The character dual D is exact and Ext^k(DN, DM) = Ext^k(M, N)
naturally, so Hom(-, N) of 0 -> A -> B -> C -> 0 is built as Hom(DN, -)
of 0 -> DC -> DB -> DA -> 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import gfmat
from .errors import (
    InputError,
    InternalInvariantViolation,
    NotSIso,
    RingMismatch,
)
from .rings import FiniteAlgebra, MultSet, RingElement, is_json_int, same_ring
from .modules import (
    Module,
    ModuleMap,
    SExactReport,
    _content_cached,
    _content_key,
    _derived_module,
    _hom_block_matrix,
    _require_s_exact,
    _span_module,
    character_dual,
    dual_map,
    free_map_from_generator_images,
    free_module,
    generator_images,
    image_factorization,
    map_from_spec,
    map_to_spec,
    module_from_spec,
    module_to_spec,
    ring_matrix_of_free_map,
    s_exactness_check,
    s_iso_inverse,
    submodule_from_columns,
    subquotient,
    quotient_by_columns,
    zero_module,
)

__all__ = [
    "Resolution",
    "AssembledResolution",
    "resolution",
    "HomCochain",
    "ExtResult",
    "ext",
    "ext_with_resolution",
    "ext_map_on_target",
    "ext_map_on_source",
    "chain_lift",
    "core_connecting_map",
    "ConnectingData",
    "long_ext_sequence",
    "injective_cocover",
    "resolution_to_spec",
    "resolution_from_spec",
]

STYLES = ("minimal", "plain", "seeded-random")


class BaseResolution:
    """Shared interface: ranks, boundaries, and their ring matrices."""

    module: Module
    frees: list[Module]

    def ensure(self, index: int) -> None:
        raise NotImplementedError

    def rank(self, k: int) -> int:
        self.ensure(k)
        return self.frees[k].free_rank

    def boundary(self, k: int) -> ModuleMap:
        """d_k: F_k -> F_{k-1} for k >= 1; k = 0 gives the augmentation."""
        raise NotImplementedError

    @property
    def augmentation(self) -> ModuleMap:
        return self.boundary(0)

    def ring_matrix(self, k: int) -> np.ndarray:
        """Boundary k >= 1 as a (r_{k-1}, r_k, d) array of ring vectors."""
        cache = getattr(self, "_ring_mats", None)
        if cache is None:
            cache = self._ring_mats = {}
        if k not in cache:
            cache[k] = ring_matrix_of_free_map(self.boundary(k))
        return cache[k]


class Resolution(BaseResolution):
    """A lazily extended free resolution of a module, in ambient coordinates.

    Level i keeps the free module F_i, the boundary d_i: F_i -> F_{i-1}
    (d_0 is the augmentation F_0 ->> M) and the kernel columns of d_i in
    F_i, which are the basis of the syzygy K_{i+1}.  The basis of K_0 = M
    is the unit vectors of M.  "minimal" picks the generators block by
    block (_generator_columns), so rank F_i is max_j dim e_j(K_i / rad K_i)
    / k_j over the primitive idempotents e_j, with k_j the F_p-dimension of
    the residue field of e_j R.  No syzygy is built as a Module while the
    resolution grows: syzygy(i), inclusion(i) and cover(i) build K_i, its
    embedding K_i -> F_{i-1} and the cover F_i ->> K_i when they are
    called, and give the same objects the syzygy-by-syzygy construction
    gives.
    """

    def __init__(self, module: Module, style: str = "minimal", seed: int = 0):
        if style not in STYLES:
            raise InputError("unknown resolution style %r" % style)
        self.module = module
        self.style = style
        self.seed = seed
        self.frees: list[Module] = []
        self._boundaries: list[ModuleMap] = []
        self._kernels: list[np.ndarray] = []
        self._gens: list[np.ndarray] = []
        self._syzygies: dict[int, tuple[Module, ModuleMap]] = {}
        self._covers: dict[int, ModuleMap] = {}

    @property
    def ring(self) -> FiniteAlgebra:
        return self.module.ring

    def _basis(self, level: int) -> tuple[Module, np.ndarray]:
        """(host, columns): the basis of K_level as columns in its host.

        The host is M at level 0 and F_{level-1} above it.
        """
        if level == 0:
            return self.module, gfmat.identity(self.module.vdim)
        return self.frees[level - 1], self._kernels[level - 1]

    def _generator_columns(self, host: Module, basis: np.ndarray,
                           level: int) -> np.ndarray:
        """Generators of K_level, as columns in its host.

        "minimal" picks them block by block over the primitive idempotents
        e_1, ..., e_m, with L_i the lift of an F_p-basis of the residue
        field e_i R / e_i rad R, k_i elements with e_i first
        (FiniteAlgebra.residue_lifts).  With B the basis columns b_j in the
        host, block i lists the group L_i.b_j for each j in turn.  The
        groups before a group, and rad K, span rad K plus an
        (e_i R / e_i rad R)-subspace of e_i(K / rad K) (rad K + e_1 K + ...
        + e_{i-1} K meets e_i K in e_i rad K), so the columns outside the
        span of rad.K and the columns before them fill whole groups: the
        group of c = e_i.b_j when c itself is one of them, none of it
        otherwise.  The c kept are a (e_i R / e_i rad R)-basis J_i of
        e_i(K / rad K), of mu_i = dim e_i(K / rad K) / k_i columns.
        Generator t sums the t-th column of every J_i, so e_i times it is
        that column; by Nakayama on each local ring e_i R the max_i mu_i
        generators span K.  rad.K is spanned by the radical's ideal
        generators acting on B.  When every k_i is 1, L_i = {e_i} and block
        i is e_i.B.  A local ring with residue field F_p is the case m = 1,
        L_1 = {1}: the generators are the columns of B that extend_to_basis
        picks against rad K in the coordinates of K.
        """
        ring, p = self.ring, self.ring.p
        k = basis.shape[1]
        if self.style == "plain":
            return basis
        rad, (lifts, sizes) = ring.radical_generators(), ring.residue_lifts()
        d, n, t, q = ring.dim, host.vdim, rad.shape[1], len(lifts)
        acts = np.vstack([rad.T, lifts]) @ host.actions.reshape(d, n * n) % p
        cols = (acts.reshape(t + q, n, n) @ basis % p).transpose(1, 0, 2)
        cols = cols.reshape(n, (t + q) * k)
        rad_k, tops = cols[:, :t * k], cols[:, t * k:]
        if q > len(sizes):
            # block i from lift-major to column-major, so L_i.b_j is one
            # group; with every k_i = 1 the two orders are the same
            ends = np.cumsum(sizes)
            tops = tops.reshape(n, q, k)
            tops = np.hstack([tops[:, e - s:e].transpose(0, 2, 1).reshape(n, k * s)
                              for s, e in zip(sizes, ends)])
        picks = gfmat.columns_outside_span(rad_k, tops, p)
        blocks, start = [], 0
        for s in sizes:
            blocks.append([c for c in picks if start <= c < start + k * s
                           and (c - start) % s == 0])
            start += k * s
        gens = gfmat.zeros(n, max(map(len, blocks)))
        for block in blocks:
            gens[:, :len(block)] += tops[:, block]
        gens %= p
        if self.style == "seeded-random" and k:
            rng = random.Random("res:%d:%d:%d" % (self.seed, level, k))
            extra = []
            for _ in range(rng.randint(1, 2)):
                vec = np.array([rng.randrange(p) for _ in range(k)],
                               dtype=np.int64)
                if vec.any():
                    extra.append(basis @ vec.reshape(-1, 1) % p)
            if extra:
                gens = np.hstack([gens] + extra)
        return gens

    def ensure(self, index: int) -> None:
        """Extend so that frees[0..index] and their boundaries exist.

        d_i sends the generators to their columns in the host, so its
        matrix is basis @ A for the matrix A of the cover F_i ->> K_i, which
        cover(i) reads off those columns.  The basis is injective, so
        basis @ A and A have the same row space and the same canonical
        nullspace: one nullspace of d_i is both the surjectivity check
        (rank dim K_i) and the basis of K_{i+1}.

        A level's arrays (the generator columns, the matrix of d_i and the
        kernel basis) are a function of what _level reads: the ring, the
        style, the host and the basis of K_i.  The host is M at level 0,
        keyed by its actions, and R^r above it, keyed by r; the basis is
        the identity at level 0 and the previous kernel above it.
        "seeded-random" also reads the seed and the level index.  So the
        arrays are computed once per distinct syzygy
        (modules._content_cached): a periodic resolution builds one
        period, and modules with equal actions, or equal syzygies, share
        levels.  Every resolution still wraps them in its own boundary,
        onto its own module.
        """
        if index < len(self.frees):
            return
        head = ("resolution", self.ring.content, self.style)
        while len(self.frees) <= index:
            level = len(self.frees)
            host, basis = self._basis(level)
            if level == 0:
                key = head + _content_key(host.actions)
            else:
                key = head + (host.free_rank,) + _content_key(basis)
            if self.style == "seeded-random":
                key += (self.seed, level)
            gens, matrix, kernel = _content_cached(
                key, lambda: self._level(host, basis, level))
            free = free_module(self.ring, gens.shape[1])
            self.frees.append(free)
            self._boundaries.append(ModuleMap._trusted(free, host, matrix))
            self._kernels.append(kernel)
            self._gens.append(gens)

    def _level(self, host: Module, basis: np.ndarray,
               level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(generator columns in the host, matrix of d_level, its kernel
        basis) for ensure, with the surjectivity check."""
        p = self.ring.p
        gens = self._generator_columns(host, basis, level)
        free = free_module(self.ring, gens.shape[1])
        bd = free_map_from_generator_images(free, host, gens)
        kernel = gfmat.nullspace(bd.matrix, p)
        if free.vdim - kernel.shape[1] != basis.shape[1]:
            raise InternalInvariantViolation("cover is not surjective")
        return gens, bd.matrix, kernel

    def _syzygy_with_inclusion(self, i: int) -> tuple[Module, ModuleMap]:
        if i not in self._syzygies:
            self.ensure(i - 1)
            self._syzygies[i] = submodule_from_columns(*self._basis(i))
        return self._syzygies[i]

    def syzygy(self, i: int) -> Module:
        """K_i, with K_0 = M and K_{i+1} = Ker(F_i ->> K_i)."""
        if i == 0:
            return self.module
        return self._syzygy_with_inclusion(i)[0]

    def inclusion(self, i: int) -> ModuleMap:
        """The embedding K_i -> F_{i-1} (i >= 1) on the kernel columns."""
        if i < 1:
            raise InputError("syzygy inclusions start at level 1")
        return self._syzygy_with_inclusion(i)[1]

    def cover(self, i: int) -> ModuleMap:
        """The surjection F_i ->> K_i; cover(0) is the augmentation."""
        if i == 0:
            return self.boundary(0)
        if i not in self._covers:
            self.ensure(i)
            # the basis of K_i is a nullspace: no elimination reads A
            gens = gfmat.nullspace_coordinates(self._kernels[i - 1], self._gens[i],
                                               self.ring.p)
            if gens is None:
                raise InternalInvariantViolation("a syzygy is not an R-submodule")
            self._covers[i] = free_map_from_generator_images(
                self.frees[i], self.syzygy(i), gens)
        return self._covers[i]

    def boundary(self, k: int) -> ModuleMap:
        if k >= len(self.frees):
            self.ensure(k)
        return self._boundaries[k]


class AssembledResolution(BaseResolution):
    """A fixed-depth resolution given by explicit boundary maps.

    maps[0] is the augmentation F_0 -> M and maps[k] the boundary
    F_k -> F_{k-1}.  Validation checks surjectivity of the augmentation,
    vanishing composites, and exactness by rank counting.
    """

    def __init__(self, module: Module, maps: list[ModuleMap]):
        if not maps:
            raise InputError("resolution needs at least the augmentation")
        self.module = module
        self.maps = list(maps)
        self.frees = [m.source for m in maps]
        for free in self.frees:
            if free.free_rank is None:
                raise InputError("resolution terms must be free modules")
        self._validate()

    def _validate(self):
        p = self.module.ring.p
        aug = self.maps[0]
        if aug.target.vdim != self.module.vdim:
            raise InputError("augmentation target does not match the module")
        if gfmat.rank(aug.matrix, p) != self.module.vdim:
            raise InputError("augmentation is not surjective")
        for k in range(1, len(self.maps)):
            comp = (self.maps[k - 1].matrix @ self.maps[k].matrix) % p
            if comp.any():
                raise InputError("boundary composite at level %d is nonzero" % k)
            null = self.frees[k - 1].vdim - gfmat.rank(self.maps[k - 1].matrix, p)
            if gfmat.rank(self.maps[k].matrix, p) != null:
                raise InputError("resolution is not exact at level %d" % (k - 1))

    @property
    def depth(self) -> int:
        return len(self.maps) - 1

    def ensure(self, index: int) -> None:
        if index >= len(self.frees):
            raise InputError(
                "resolution of depth %d too shallow for level %d"
                % (self.depth, index))

    def boundary(self, k: int) -> ModuleMap:
        self.ensure(k)
        return self.maps[k]


def resolution(module: Module, style: str = "minimal", seed: int = 0) -> Resolution:
    """The module's resolution; one instance per (module object, style, seed).

    The instance is cached on the module, so its syzygies and covers are
    built once.  Modules with equal actions share each level's arrays
    through the content cache (Resolution.ensure), not the instance.
    """
    key = ("resolution", style, seed)
    if key not in module._cache:
        module._cache[key] = Resolution(module, style, seed)
    return module._cache[key]


# -- hom cochains and ext -----------------------------------------------------


class HomCochain:
    """The cochain complex Hom_R(F_., N) for one resolution and target.

    F_k = R^{r_k}, and a map F_k -> N is fixed by its values on the
    generators, so C^k = N^{r_k}: a k-cochain is a column of r_k blocks of
    N-coordinates, block j its value on 1_j (Weibel, An Introduction to
    Homological Algebra, ch. 3).  This class is the one owner of that
    layout.  A map h: N -> N' and the action of R act on each block
    alike, so they are taken blockwise, on cols.reshape(r_k, n, c); the
    differential into degree k is precomposition with the boundary d_k,
    the block matrix of its ring entries acting on N.
    """

    def __init__(self, res: BaseResolution, target: Module):
        self.res = res
        self.target = target
        self._diffs: dict[int, np.ndarray] = {}

    def diff_matrix(self, k: int) -> np.ndarray:
        """Matrix of C^{k-1} -> C^k (k >= 1)."""
        if k not in self._diffs:
            g = self.res.ring_matrix(k)  # (r_{k-1}, r_k, d)
            self._diffs[k] = _hom_block_matrix(self.target, g.transpose(1, 0, 2))
        return self._diffs[k]

    def push(self, k: int, h: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The k-cochains cols of N carried to N' by h: N -> N' blockwise."""
        r, c = self.res.rank(k), cols.shape[1]
        out, n = h.shape
        moved = h @ cols.reshape(r, n, c) % self.target.ring.p
        return moved.reshape(r * out, c)

    def pull(self, k: int, h: np.ndarray, cols: np.ndarray) -> np.ndarray | None:
        """The canonical x with push(k, h, x) = cols, for h: N' -> N.

        The blocks are the r_k * c right-hand sides of one solve with h.
        As one system, kron(I_{r_k}, h) x = cols is block-diagonal, so its
        pivot columns are the union of the blocks' and its canonical
        solution (free variables 0) is this blockwise one.  None when a
        block has no solution.
        """
        r, c = self.res.rank(k), cols.shape[1]
        n, m = h.shape
        rhs = cols.reshape(r, n, c).transpose(1, 0, 2).reshape(n, r * c)
        x = gfmat.solve(h, rhs, self.target.ring.p)
        if x is None:
            return None
        return x.reshape(m, r, c).transpose(1, 0, 2).reshape(r * m, c)

    def cycle_module(self, k: int, cycles: np.ndarray) -> Module:
        """The submodule of C^k spanned by invariant columns that
        gfmat.nullspace returned.

        R acts on C^k by its action on N in each block, so the images of
        the columns under the basis of R are taken blockwise, and their
        coordinates are read off the nullspace basis without a solve.
        """
        ring, n = self.target.ring, self.target.vdim
        r, c = self.res.rank(k), cycles.shape[1]
        moved = np.einsum("iab,jbc->jaic", self.target.actions,
                          cycles.reshape(r, n, c))
        return _span_module(ring, cycles, moved.reshape(r * n, ring.dim * c) % ring.p,
                            gfmat.nullspace_coordinates)


class ExtResult:
    """Ext^n(source, target) as the cohomology of cochain in degree n.

    dim is dim C^n - rank d^{n+1} - rank d^n (no d^n at n = 0), by
    rank-nullity, read off the cochain's cached differentials
    (_ext_dim).  module is the Ext value as an R-module; cycle_basis is
    the nullspace of d^{n+1} (columns, in C^n coordinates); proj sends
    cycle coordinates to module coordinates; reps holds one cocycle
    representative per basis vector of module; class_of sends a
    cocycle, or a matrix whose columns are cocycles, to its class in
    module coordinates.

    module, cycle_basis, proj and reps are built together by _ext_arrays
    on the first read of any of them (class_of reads two), through the
    content store under the "ext" key over a Resolution (the key and the
    checks are described at ext_from_cochain).  dim reads module.vdim
    once that is built and the two ranks otherwise, so a caller that
    reads only dim builds no cycle module and no quotient.  When both
    exist, they must agree, or InternalInvariantViolation is raised.
    """

    def __init__(self, cochain: HomCochain, n: int):
        self.n = n
        self.cochain = cochain
        self.source = cochain.res.module
        self.target = cochain.target
        self._built: tuple | None = None  # (cycle basis, module, proj, reps)
        self._rank_dim: int | None = None

    def _arrays(self) -> tuple:
        if self._built is None:
            hc, n, ring, res = self.cochain, self.n, self.target.ring, self.cochain.res
            if isinstance(res, Resolution) and same_ring(res.ring, ring):
                key = ("ext", ring.content, res.style, res.seed,
                       *_content_key(res.module.actions, hc.target.actions), n)
                cycles, acts, proj, reps = _content_cached(
                    key, lambda: _ext_arrays(hc, n))
            else:
                cycles, acts, proj, reps = _ext_arrays(hc, n)
            if self._rank_dim is not None and self._rank_dim != acts.shape[1]:
                raise InternalInvariantViolation(
                    "Ext^%d has dimension %d by ranks but %d as a module"
                    % (n, self._rank_dim, acts.shape[1]))
            self._built = (cycles, _derived_module(ring, acts), proj, reps)
        return self._built

    @property
    def cycle_basis(self) -> np.ndarray:
        return self._arrays()[0]

    @property
    def module(self) -> Module:
        return self._arrays()[1]

    @property
    def proj(self) -> np.ndarray:
        return self._arrays()[2]

    @property
    def reps(self) -> np.ndarray:
        return self._arrays()[3]

    @property
    def dim(self) -> int:
        if self._built is not None:
            return self._built[1].vdim
        if self._rank_dim is None:
            self._rank_dim = _ext_dim(self.cochain, self.n)
        return self._rank_dim

    def class_of(self, cocycles: np.ndarray) -> np.ndarray:
        p = self.target.ring.p
        coords = gfmat.nullspace_coordinates(self.cycle_basis, cocycles, p)
        if coords is None:
            raise InternalInvariantViolation("vector is not a cocycle")
        return (self.proj @ coords) % p


def ext_from_cochain(hc: HomCochain, n: int) -> ExtResult:
    """Ext^n as the cohomology of hc in degree n, built as it is read.

    No work is done here: ExtResult.dim costs two ranks and one product
    (_ext_dim), and the first read of its module, cycle basis, proj or
    reps builds all four (_ext_arrays).  The cycle basis is the
    nullspace of the next differential, so the coordinates of the
    boundaries and of the cycle module's actions are read off it
    (gfmat.nullspace_coordinates), and one rref gives the quotient.

    Over a Resolution the arrays (cycle basis, actions on Ext, proj,
    reps) are a deterministic function of the ring, the style, the seed,
    the actions of M and of N and n: the resolution's levels are a
    function of the first four (Resolution.ensure), and the rest is
    computed from them and N alone.  So they are computed once per
    distinct key (modules._content_cached, on the first read), and every
    result still wraps them in its own Ext module.  The checks of the
    computation run where the work runs.  That the boundaries are
    cocycles is checked by each computation of dim from ranks (as
    d^{n+1} d^n = 0) and by each build of the arrays (as boundary
    coordinates in the cycle basis); that the cycle span is invariant
    is checked by each build.  A build runs on a miss only: on a hit the
    same arrays would pass again.  An AssembledResolution is input, not
    a function of such a key, and is never cached.
    """
    return ExtResult(hc, n)


def _ext_dim(hc: HomCochain, n: int) -> int:
    """dim Ext^n = dim C^n - rank d^{n+1} - rank d^n, by rank-nullity,
    with the check that the boundaries are cocycles: Im d^n lies in
    Ker d^{n+1} exactly when d^{n+1} d^n = 0."""
    p = hc.target.ring.p
    after = hc.diff_matrix(n + 1)
    dim = hc.res.rank(n) * hc.target.vdim - gfmat.rank(after, p)
    if n:
        before = hc.diff_matrix(n)
        if (after @ before % p).any():
            raise InternalInvariantViolation("boundaries are not cocycles")
        dim -= gfmat.rank(before, p)
    return dim


def _ext_arrays(hc: HomCochain, n: int) -> tuple[np.ndarray, ...]:
    """(cycle basis, actions on Ext^n, proj, reps) for ExtResult, with
    its checks."""
    p = hc.target.ring.p
    cycles = gfmat.nullspace(hc.diff_matrix(n + 1), p)
    z_mod = hc.cycle_module(n, cycles)
    if n == 0:
        boundaries = gfmat.zeros(cycles.shape[0], 0)
    else:
        boundaries = hc.diff_matrix(n)
    in_z = gfmat.nullspace_coordinates(cycles, boundaries, p)
    if in_z is None:
        raise InternalInvariantViolation("boundaries are not cocycles")
    q_mod, proj_map, section = quotient_by_columns(z_mod, in_z)
    return cycles, q_mod.actions, proj_map.matrix, (cycles @ section) % p


def _require_one_ring(a: Module, b: Module) -> None:
    if not same_ring(a.ring, b.ring):
        raise RingMismatch("Ext between modules over different rings")


def ext(source: Module, target: Module, n: int, style: str = "minimal",
        seed: int = 0) -> ExtResult:
    """Ext^n_R(source, target) via a cached free resolution of source."""
    return ext_with_resolution(resolution(source, style, seed), target, n)


def ext_with_resolution(res: BaseResolution, target: Module, n: int) -> ExtResult:
    """Ext^n_R(M, target) over a given resolution of M."""
    if n < 0:
        raise InputError("ext degree must be nonnegative")
    _require_one_ring(res.module, target)
    res.ensure(n + 1)
    return ext_from_cochain(HomCochain(res, target), n)


# -- functoriality ------------------------------------------------------------


def ext_map_on_target(src_ext: ExtResult, tgt_ext: ExtResult,
                      h: ModuleMap) -> ModuleMap:
    """Induced map Ext^k(M, N) -> Ext^k(M, N') from h: N -> N'.

    Both Ext results must come from the same resolution of M.
    """
    if src_ext.cochain.res is not tgt_ext.cochain.res or src_ext.n != tgt_ext.n:
        raise InputError("ext results must share a resolution and degree")
    pushed = src_ext.cochain.push(src_ext.n, h.matrix, src_ext.reps)
    return ModuleMap(src_ext.module, tgt_ext.module, tgt_ext.class_of(pushed))


def chain_lift(h: ModuleMap, res_src: BaseResolution, res_tgt: BaseResolution,
               depth: int) -> list[ModuleMap]:
    """Lift h: X -> Y to a chain map between resolutions of X and Y.

    Returns maps h_k: F^X_k -> F^Y_k for k <= depth with
    aug_Y . h_0 = h . aug_X and d^Y_k . h_k = h_{k-1} . d^X_k.  Each
    generator image is a particular solution of a consistent linear
    system, so the lift is deterministic.
    """
    res_src.ensure(depth)
    res_tgt.ensure(depth)
    ring = h.ring
    lifts: list[ModuleMap] = []
    for k in range(depth + 1):
        if k == 0:
            need = (h.matrix @ res_src.augmentation.matrix) % ring.p
            sys_mat = res_tgt.augmentation.matrix
        else:
            need = (lifts[k - 1].matrix @ res_src.boundary(k).matrix) % ring.p
            sys_mat = res_tgt.boundary(k).matrix
        images = gfmat.solve(sys_mat, generator_images(ring, need), ring.p)
        if images is None:
            raise InternalInvariantViolation("chain lift system inconsistent")
        lifts.append(free_map_from_generator_images(
            res_src.frees[k], res_tgt.frees[k], images))
    return lifts


def ext_map_on_source(lift_k: ModuleMap, src_ext: ExtResult,
                      tgt_ext: ExtResult) -> ModuleMap:
    """Induced map Ext^k(Y, N) -> Ext^k(X, N) from a chain lift of h: X -> Y.

    lift_k is the degree-k component F^X_k -> F^Y_k of the lift of h;
    src_ext is over the resolution of Y, tgt_ext over the resolution of X.
    """
    if src_ext.n != tgt_ext.n:
        raise InputError("degree mismatch")
    p = src_ext.target.ring.p
    hmat = ring_matrix_of_free_map(lift_k)  # (r^Y_k, r^X_k, d)
    u = _hom_block_matrix(src_ext.target, hmat.transpose(1, 0, 2))
    mat = tgt_ext.class_of((u @ src_ext.reps) % p)
    return ModuleMap(src_ext.module, tgt_ext.module, mat)


# -- connecting maps and the long sequence ------------------------------------


def _connecting_on_target(hc_mid: HomCochain, incl: ModuleMap,
                          proj: ModuleMap, ext_quot_k: ExtResult,
                          ext_sub_k1: ExtResult) -> ModuleMap:
    """Snake map Ext^k(L, C'') -> Ext^{k+1}(L, A') for exact 0->A'->B->C''->0.

    All three cochains share one resolution of L.  The representatives
    are lifted blockwise through proj, pushed through the differential
    of the middle complex, and pulled back blockwise along incl, all at
    once.
    """
    p = incl.ring.p
    k = ext_quot_k.n
    w = hc_mid.pull(k, proj.matrix, ext_quot_k.reps)
    if w is None:
        raise InternalInvariantViolation("cochain lift through projection failed")
    dw = (hc_mid.diff_matrix(k + 1) @ w) % p
    y = hc_mid.pull(k + 1, incl.matrix, dw)
    if y is None:
        raise InternalInvariantViolation("connecting pullback failed")
    return ModuleMap(ext_quot_k.module, ext_sub_k1.module, ext_sub_k1.class_of(y))


def core_connecting_map(g: ModuleMap, other: Module, n: int) -> ModuleMap:
    """Snake map Ext^n(L, Im g) -> Ext^{n+1}(L, Ker g), with L = other.

    0 -> Ker g -> B -> Im g -> 0 is exact whatever g: B -> C is; this is
    its connecting map over one minimal resolution of L, with no
    corrector.  For an S-exact 0 -> A -> B -> C -> 0 it is the middle
    factor of the connecting map long_ext_sequence builds.
    """
    if n < 0:
        raise InputError("degree must be nonnegative")
    ker, incl = subquotient(g, "kernel")
    img, _, cores = image_factorization(g)
    res = resolution(other, "minimal")
    return _connecting_on_target(HomCochain(res, g.source), incl, cores,
                                 ext_with_resolution(res, img, n),
                                 ext_with_resolution(res, ker, n + 1))


@dataclass
class ConnectingData:
    """Assembled long sequence in Ext with its S-exactness verdict.

    modules and chain_maps give the capped chain 0 -> X_0 -> X_1 -> ...;
    delta_indices locates the connecting maps inside chain_maps.  The
    correctors record the S-isomorphisms splicing the exact core of the
    input back to its stated end terms, with their inverse witnesses; in
    the contravariant case, those of the dual sequence's exact core.
    """

    variance: str
    degree: int
    modules: list[Module]
    chain_maps: list[ModuleMap]
    delta_indices: list[int]
    report: SExactReport
    correctors: dict

    @property
    def ok(self) -> bool:
        return self.report.ok

    def delta(self, k: int) -> ModuleMap:
        """The connecting map landing in degree k (1-based)."""
        return self.chain_maps[self.delta_indices[k - 1]]


def _exact_core(f: ModuleMap, g: ModuleMap, s_set: MultSet, s_mid: RingElement):
    """Split an S-exact 0->A->B->C->0 into its exact core and correctors.

    The core is 0 -> Ker g -> B -> Im g -> 0, genuinely exact.  The
    corrector into Ker g is the corestriction of (s_mid . f), which lands
    there because s_mid squeezes Im f into Ker g; the corrector out of
    Im g is the inclusion into C.  Both are S-isomorphisms and get
    inverse witnesses; s_iso_inverse decides each S-isomorphism once.
    """
    mid = f.target
    p = f.ring.p
    ker_g, incl_k = subquotient(g, "kernel")
    img_g, incl_i, cores_g = image_factorization(g)
    t1_mat = gfmat.solve(incl_k.matrix,
                         (mid.action_of(s_mid) @ f.matrix) % p, p)
    if t1_mat is None:
        raise InternalInvariantViolation("scaled map does not land in the kernel")
    t1 = ModuleMap(f.source, ker_g, t1_mat)
    t1_inv, s1 = _corrector_inverse(t1, s_set, "kernel")
    t2_inv, s2 = _corrector_inverse(incl_i, s_set, "image")
    return {
        "kernel": ker_g, "kernel_inclusion": incl_k,
        "image": img_g, "image_inclusion": incl_i, "corestriction": cores_g,
        "t1": t1, "t1_inv": t1_inv, "t1_witness": s1,
        "t2": incl_i, "t2_inv": t2_inv, "t2_witness": s2,
    }


def _corrector_inverse(t: ModuleMap, s_set: MultSet,
                       name: str) -> tuple[ModuleMap, RingElement]:
    try:
        return s_iso_inverse(t, s_set)
    except NotSIso:
        raise InternalInvariantViolation("%s corrector is not an S-iso" % name) from None


def long_ext_sequence(short: tuple[ModuleMap, ModuleMap], other: Module,
                      n: int, variance: str, s_set: MultSet) -> ConnectingData:
    """The long S-exact Ext sequence of an S-exact 0 -> A -> B -> C -> 0.

    variance "covariant" applies Hom(other, -): the chain runs
    0 -> Ext^0(L,A) -> Ext^0(L,B) -> Ext^0(L,C) -> Ext^1(L,A) -> ...
    through degree n.  variance "contravariant" applies Hom(-, other) and
    runs 0 -> Ext^0(C,N) -> Ext^0(B,N) -> Ext^0(A,N) -> Ext^1(C,N) -> ...

    Connecting maps are the classical snake maps of the exact core over
    one resolution of L, corrected on both sides by the induced maps of
    the inverse S-isomorphisms.  The returned report checks S-exactness
    at every interior position.

    The contravariant chain is the covariant one of the character dual
    0 -> DC -> DB -> DA -> 0 (maps Dg, Df) with L = DN.  D is exact and
    R-linear, so the dual sequence is S-exact; Hom_R(DN, DP) = Hom_R(P, N),
    so Ext^k(DN, DM) = Ext^k(M, N) naturally in both arguments.  Since
    Ker Df = Ann(Im f) and Im Dg = Ann(Ker g), s Ker Df <= Im Dg exactly
    when s Ker g <= Im f, and s Im Dg <= Ker Df exactly when
    s Im f <= Ker g: the middle witness of the original sequence, which
    is checked first so that NotSExact names its positions, serves the
    dual one.
    """
    f, g = short
    if variance not in ("covariant", "contravariant"):
        raise InputError("variance must be 'covariant' or 'contravariant'")
    if n < 0:
        raise InputError("degree must be nonnegative")
    _require_one_ring(f.source, other)
    s_mid = _require_s_exact(f, g, s_set).positions[1].witness
    if variance == "contravariant":
        f, g, other = dual_map(g), dual_map(f), character_dual(other)
    core = _exact_core(f, g, s_set, s_mid)
    res = resolution(other, "minimal")
    res.ensure(n + 1)
    cochains = {name: HomCochain(res, mod) for name, mod in
                (("A", f.source), ("B", f.target), ("C", g.target),
                 ("K", core["kernel"]), ("I", core["image"]))}
    # the chain reads Ext^k of A, B, C for k <= n, of I for k < n and
    # of K for 1 <= k <= n
    exts = {name: [ext_from_cochain(cochains[name], k) for k in range(n + 1)]
            for name in ("A", "B", "C")}
    exts["I"] = [ext_from_cochain(cochains["I"], k) for k in range(n)]
    ext_k_next = {k: ext_from_cochain(cochains["K"], k) for k in range(1, n + 1)}
    chain: list[ModuleMap] = []
    deltas: list[int] = []
    for k in range(n + 1):
        chain.append(ext_map_on_target(exts["A"][k], exts["B"][k], f))
        chain.append(ext_map_on_target(exts["B"][k], exts["C"][k], g))
        if k < n:
            to_img = ext_map_on_target(exts["C"][k], exts["I"][k],
                                       core["t2_inv"])
            snake = _connecting_on_target(
                cochains["B"], core["kernel_inclusion"], core["corestriction"],
                exts["I"][k], ext_k_next[k + 1])
            fix = ext_map_on_target(ext_k_next[k + 1], exts["A"][k + 1],
                                    core["t1_inv"])
            deltas.append(len(chain) + 1)  # full below starts with 0 -> X_0
            chain.append(fix.compose(snake).compose(to_img))
    z = zero_module(f.ring)
    full = [ModuleMap.zero(z, chain[0].source)] + chain
    report = s_exactness_check(full, s_set)
    modules = [z] + [m.target for m in full]
    return ConnectingData(variance, n, modules, full, deltas, report, core)


# -- injective side ------------------------------------------------------------


def injective_cocover(module: Module) -> ModuleMap:
    """An embedding of the module into an injective module.

    Dualize a minimal free cover of the character dual: the double dual
    is the identity in these coordinates, so transposing the cover matrix
    embeds the module into the dual of a free module, which is injective.

    iota is stored unchecked (ModuleMap._trusted).  The cover C is
    R-linear, C a_i = b_i C for the actions a_i on F and b_i on DM, and
    transposing gives C^T b_i^T = a_i^T C^T: C^T intertwines the actions
    of M (the b_i^T) and of DF (the a_i^T).  The rank check below stays;
    the tests rebuild every cocover with the validating constructor.
    """
    dual = character_dual(module)
    cover = resolution(dual, "minimal").cover(0)
    env = character_dual(cover.source)
    iota = ModuleMap._trusted(module, env, cover.matrix.T.copy())
    if gfmat.rank(iota.matrix, module.ring.p) != module.vdim:
        raise InternalInvariantViolation("cocover is not injective")
    return iota


# -- resolution wire format ----------------------------------------------------


def resolution_to_spec(res: BaseResolution, depth: int) -> dict:
    if depth < 0:
        raise InputError("resolution depth must be nonnegative")
    res.ensure(depth)
    return {
        "kind": "resolution",
        "module": module_to_spec(res.module),
        "depth": depth,
        "ranks": [res.rank(k) for k in range(depth + 1)],
        "augmentation": map_to_spec(res.augmentation),
        "boundaries": [map_to_spec(res.boundary(k)) for k in range(1, depth + 1)],
    }


def resolution_from_spec(ring: FiniteAlgebra, doc: dict,
                         where: str = "resolution") -> AssembledResolution:
    if not isinstance(doc, dict) or doc.get("kind") != "resolution":
        raise InputError("%s/kind: expected 'resolution'" % where)
    for key in ("module", "depth", "ranks", "augmentation", "boundaries"):
        if key not in doc:
            raise InputError("%s/%s: missing" % (where, key))
    module = module_from_spec(ring, doc["module"], "%s/module" % where)
    depth, ranks = doc["depth"], doc["ranks"]
    if not is_json_int(depth) or depth < 0:
        raise InputError("%s/depth: expected a nonnegative integer" % where)
    if (not isinstance(ranks, list) or len(ranks) != depth + 1
            or not all(is_json_int(r) and r >= 0 for r in ranks)):
        raise InputError("%s/ranks: expected %d nonnegative integers"
                         % (where, depth + 1))
    frees = [free_module(ring, r) for r in ranks]
    maps = [map_from_spec(frees[0], module, doc["augmentation"],
                          "%s/augmentation" % where)]
    bdocs = doc["boundaries"]
    if not isinstance(bdocs, list) or len(bdocs) != len(ranks) - 1:
        raise InputError("%s/boundaries: expected %d entries"
                         % (where, len(ranks) - 1))
    for k, bdoc in enumerate(bdocs, start=1):
        maps.append(map_from_spec(frees[k], frees[k - 1], bdoc,
                                  "%s/boundaries/%d" % (where, k - 1)))
    return AssembledResolution(module, maps)
