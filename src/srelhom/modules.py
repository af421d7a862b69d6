"""Finitely generated modules over a finite commutative F_p-algebra.

A module is an F_p-vector space of dimension m together with one m x m
action matrix per ring basis element, satisfying the representation
property.  Maps are matrices intertwining the actions.  On top of the
plain linear algebra this module implements the S-relative notions:
uniform S-torsion, S-exactness of a chain of maps, S-isomorphisms and
their inverse witnesses, and the character dual that exchanges
projectives with injectives.

Each S-question here (s M = 0, s Ker <= Im and s Im <= Ker, f g = s Id
= g f) is linear in s, so the s that answer it are the kernel of one
matrix W built from the basis of R, not from S.  That ideal meets S
exactly when it holds the idempotent e_S of S (rings docstring), so
W e_S = 0 decides the question and e_S is the witness, or the
certificate of failure.  An S-isomorphism f: M -> N is inverted on
e_S M: e_S kills Ker f and Coker f, so f maps e_S M onto e_S N
bijectively, and its inverse composed with e_S is the witness.

Validation happens at the trust boundary.  The public constructors
check in full: Module(...) the representation property, commutativity
and the unit, ModuleMap(...) that the matrix intertwines the actions;
module_from_spec and map_from_spec build through them.  So do the maps
that come out of a solved system whose correctness is the point (split
witnesses, maps induced on Ext, injective cocovers), so that a wrong
solve raises.  Module(...) takes every product A_i A_j and every sum
over the table as arrays, in row blocks of i whose arrays hold at most
about rings._BLOCK_ENTRIES (2^20) entries each.

Objects derived here from valid ones, by operations that keep them
valid, skip the check.  _derived_module builds direct sums, submodules,
quotients, character duals, zero and free modules; ModuleMap._trusted
builds composites, sums, identities, zero maps, scalings, maps out of
free modules, direct-sum injections and projections, the hom_space
basis, inclusions, projections, corestrictions, inverse witnesses and
dual maps.  Where such a constructor takes raw input it checks the one
fact its derivation needs: that the span is invariant
(submodule_from_columns, quotient_by_columns) and the columns
independent (submodule_from_columns).  The test suite swaps both private
constructors for the validating ones, replays a registry sample and
expects the same verdicts, so every skipped check stays reachable.

Free modules are cached on their ring, one object per rank.  R^k stores
its dense block-diagonal action array, filled by one strided assignment.
This module owns the R^k layout, basis vector (j, i) = e_i 1_j: a map
out of R^k is fixed by its generator images (generator_images reads them
off its matrix, free_map_from_generator_images builds it back), and
_hom_block_matrix acts by a matrix of ring entries on copies of a module.

The process-wide memo lives here, in the lowest layer that homology and
dimensions share; checks.clear_memo() empties it.  Besides the registry's
blocks it holds one sub-entry of content caches (_content_cached), with
three users: the levels of free resolutions, the sections that certify
S-splittings, and Ext groups over a Resolution, each computed once per
distinct input and keyed by the ring's content and the bytes of the
arrays the computation reads (for a resolution level, the syzygy and its
host, not the module resolved).  They hold read-only arrays only, never
rings, modules or maps, so every caller still builds its own objects
around them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gfmat
from .errors import (
    InputError,
    InternalInvariantViolation,
    NotComposable,
    NotSExact,
    NotSIso,
    RingMismatch,
)
from .rings import FiniteAlgebra, MultSet, RingElement, _row_blocks, is_json_int, same_ring

__all__ = [
    "Module",
    "ModuleMap",
    "STorsionWitness",
    "SIsoWitness",
    "PositionReport",
    "SExactReport",
    "same_module",
    "zero_module",
    "free_module",
    "regular_module",
    "generator_images",
    "free_map_from_generator_images",
    "ring_matrix_of_free_map",
    "scaling_map",
    "direct_sum",
    "hom_space",
    "submodule_from_columns",
    "quotient_by_columns",
    "subquotient",
    "image_factorization",
    "is_uniformly_s_torsion",
    "cap_chain",
    "s_exactness_check",
    "is_s_isomorphism",
    "s_iso_inverse",
    "character_dual",
    "dual_map",
    "module_to_spec",
    "module_from_spec",
    "map_to_spec",
    "map_from_spec",
]


# -- process-wide memo ----------------------------------------------------------

_memo: dict = {}

_CONTENT = ("content",)
_CONTENT_BUDGET = 64 << 20  # bytes of cached arrays, key bytes and ring contents


class _ContentStore:
    """The memo's content sub-entry: key -> tuple of arrays, with its size,
    and the one ring content tuple its keys share per distinct value."""

    def __init__(self):
        self.entries: dict = {}
        self.rings: dict = {}
        self.nbytes = 0


def _content_key(*arrays: np.ndarray) -> tuple:
    """The shape and C-order bytes of each array, as hashable key parts."""
    return tuple(part for a in arrays for part in (a.shape, a.tobytes()))


def _content_cached(key: tuple, build) -> tuple:
    """build()'s tuple of arrays, computed once per key while the memo lives.

    Three names use it: "resolution" (homology.Resolution.ensure, one
    entry per distinct syzygy: keyed by the host, M's actions at level 0
    and the rank r of R^r above it, and the syzygy's basis there, so a
    periodic resolution makes one period of entries), "split"
    (dimensions._section, one entry psi per distinct cover C and e_S,
    so two multiplicative sets with different e_S on one cover make two)
    and "ext"
    (homology.ExtResult, one entry per resolution key, target and
    degree, made on the first read of an Ext result's module, cycle
    basis, proj or reps; reading only its dim makes none).  key is
    (name, ring.content, ...) and holds everything the result depends
    on: the ring's content (so equal rings share entries and no entry
    keeps a ring alive), then names, integers and _content_key parts.
    The arrays are made read-only, so no caller can change what later
    callers get.
    They sit under one sub-entry of the memo, so the memo's other blocks
    are never evicted; when an insertion would take the sub-entry past
    _CONTENT_BUDGET bytes (arrays, key bytes and the bytes of each
    distinct ring content once), the sub-entry is emptied first.
    """
    store = _memo.get(_CONTENT)
    if store is None:
        store = _memo[_CONTENT] = _ContentStore()
    value = store.entries.get(key)
    if value is not None:
        return value
    value = build()
    size = sum(len(part) for part in key[2:] if isinstance(part, bytes))
    for arr in value:
        arr.flags.writeable = False
        size += arr.nbytes
    ring_size = sum(len(part) for part in key[1] if isinstance(part, bytes))
    if store.nbytes + size + (key[1] not in store.rings) * ring_size > _CONTENT_BUDGET:
        store.entries.clear()
        store.rings.clear()
        store.nbytes = 0
    if size + ring_size <= _CONTENT_BUDGET:
        ring = store.rings.get(key[1])
        if ring is None:
            ring = store.rings[key[1]] = key[1]
            store.nbytes += ring_size
        store.entries[(key[0], ring) + key[2:]] = value
        store.nbytes += size
    return value


class Module:
    """A finite-dimensional module given by per-basis-element actions.

    actions has shape (ring.dim, vdim, vdim); actions[i] is the matrix of
    multiplication by the i-th ring basis element.  Validation checks the
    representation property (products of action matrices follow the
    structure table) and that the unit acts as the identity.
    """

    def __init__(self, ring: FiniteAlgebra, actions):
        arr = np.array(actions, dtype=np.int64)
        if arr.ndim != 3 or arr.shape[0] != ring.dim or arr.shape[1] != arr.shape[2]:
            raise InputError("actions must have shape (%d, m, m)" % ring.dim)
        self._store(ring, np.mod(arr, ring.p))
        self._validate()

    def _store(self, ring: FiniteAlgebra, actions: np.ndarray) -> None:
        self.ring = ring
        self.actions = actions
        self.vdim = int(actions.shape[1])
        self.free_rank: int | None = None
        self._cache: dict = {}

    def _validate(self):
        """Check the representation property, commutativity and the unit.

        For every pair i <= j in row-major order, A_i A_j must equal
        sum_k c_ijk A_k and then A_j A_i; the first pair that fails names
        the check, and the unit is checked last.  The products are taken
        as arrays, one row block of i at a time, cut as in rings so that
        each array of a block holds at most about rings._BLOCK_ENTRIES
        entries (d m^2 a row, at least one row a block).
        """
        ring, acts = self.ring, self.actions
        p, d, m = ring.p, ring.dim, self.vdim
        flat = acts.reshape(d, m * m)
        for rows in _row_blocks(d, d * m * m):
            # [a, j] holds A_i A_j, A_j A_i and sum_k c_ijk A_k for
            # i = rows.start + a; the sums stay below d * p^2
            left = (acts[rows, None] @ acts) % p
            right = (acts @ acts[rows, None]) % p
            table = (ring.table[rows].reshape(-1, d) @ flat % p).reshape(left.shape)
            bad_rep = (left != table).any(axis=(2, 3))
            upper = np.arange(d) >= np.arange(rows.start, rows.stop)[:, None]
            bad = upper & (bad_rep | (left != right).any(axis=(2, 3)))
            if bad.any():
                a, j = np.argwhere(bad)[0]
                labels = (ring.basis_labels[rows.start + a], ring.basis_labels[j])
                if bad_rep[a, j]:
                    raise InputError("representation property fails at %s*%s" % labels)
                raise InputError("action matrices for %s and %s do not commute" % labels)
        unit_action = self.action_of(ring.unit)
        if not np.array_equal(unit_action, gfmat.identity(m)):
            raise InputError("unit does not act as the identity")

    def action_of(self, elt) -> np.ndarray:
        """Action matrix of an arbitrary ring element."""
        vec = elt.array if isinstance(elt, RingElement) else np.array(elt, dtype=np.int64)
        n, p = self.vdim, self.ring.p
        # one product over the basis: entries stay below dim * p^2
        return ((vec % p) @ self.actions.reshape(self.ring.dim, n * n) % p).reshape(n, n)

    def is_zero(self) -> bool:
        return self.vdim == 0

    def __repr__(self):
        tag = " free(%d)" % self.free_rank if self.free_rank is not None else ""
        return "Module(dim=%d%s over %r)" % (self.vdim, tag, self.ring)


def _derived_module(ring: FiniteAlgebra, acts: np.ndarray) -> Module:
    """A module whose actions form a representation by construction.

    acts is a reduced int64 array of shape (ring.dim, m, m) that nothing
    mutates afterwards; it is stored unchecked.
    """
    mod = Module.__new__(Module)
    mod._store(ring, acts)
    return mod


def same_module(a: Module, b: Module) -> bool:
    if a is b:
        return True
    return (same_ring(a.ring, b.ring) and a.vdim == b.vdim
            and np.array_equal(a.actions, b.actions))


@dataclass(eq=False)
class ModuleMap:
    """An R-linear map, stored as its matrix on the F_p bases; == is identity."""

    source: Module
    target: Module
    matrix: np.ndarray

    def __post_init__(self):
        if not same_ring(self.source.ring, self.target.ring):
            raise RingMismatch("map between modules over different rings")
        mat = np.array(self.matrix, dtype=np.int64)
        if mat.shape != (self.target.vdim, self.source.vdim):
            raise InputError("matrix shape %s, expected (%d, %d)"
                             % (mat.shape, self.target.vdim, self.source.vdim))
        p = self.source.ring.p
        self.matrix = np.mod(mat, p)
        for i in range(self.source.ring.dim):
            lhs = (self.matrix @ self.source.actions[i]) % p
            rhs = (self.target.actions[i] @ self.matrix) % p
            if not np.array_equal(lhs, rhs):
                raise InputError(
                    "matrix does not intertwine the action of %s"
                    % self.source.ring.basis_labels[i])

    @classmethod
    def _trusted(cls, source: Module, target: Module,
                 matrix: np.ndarray) -> "ModuleMap":
        """A map that is R-linear by construction, stored unchecked.

        matrix is a reduced int64 array of shape (target.vdim,
        source.vdim) that nothing mutates afterwards.
        """
        f = cls.__new__(cls)
        f.source, f.target, f.matrix = source, target, matrix
        return f

    @property
    def ring(self) -> FiniteAlgebra:
        return self.source.ring

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other."""
        if not same_module(self.source, other.target):
            raise NotComposable("composition source/target mismatch")
        return ModuleMap._trusted(other.source, self.target,
                                  (self.matrix @ other.matrix) % self.ring.p)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        if not (same_module(self.source, other.source)
                and same_module(self.target, other.target)):
            raise NotComposable("sum of maps with different endpoints")
        return ModuleMap._trusted(self.source, self.target,
                                  (self.matrix + other.matrix) % self.ring.p)

    def is_zero(self) -> bool:
        return not self.matrix.any()

    @staticmethod
    def identity(m: Module) -> "ModuleMap":
        return ModuleMap._trusted(m, m, gfmat.identity(m.vdim))

    @staticmethod
    def zero(source: Module, target: Module) -> "ModuleMap":
        if not same_ring(source.ring, target.ring):
            raise RingMismatch("map between modules over different rings")
        return ModuleMap._trusted(source, target,
                                  gfmat.zeros(target.vdim, source.vdim))


def scaling_map(m: Module, elt: RingElement) -> ModuleMap:
    """Multiplication by a ring element as an endomorphism."""
    return ModuleMap._trusted(m, m, m.action_of(elt))


# -- basic constructors ------------------------------------------------------


def zero_module(ring: FiniteAlgebra) -> Module:
    return _derived_module(ring, np.zeros((ring.dim, 0, 0), dtype=np.int64))


def free_module(ring: FiniteAlgebra, k: int) -> Module:
    """R^k with basis blocks of ring coordinates, generator j in block j.

    Built once per (ring, k) and cached on the ring, so every caller
    shares one module object.
    """
    if not is_json_int(k) or k < 0:
        raise InputError("free rank must be a nonnegative integer, got %r" % (k,))
    mod = ring._free_modules.get(k)
    if mod is None:
        d = ring.dim
        # block-diagonal: L_i = table[i].T repeated on each of k blocks
        acts = np.zeros((d, k, d, k, d), dtype=np.int64)
        acts[:, range(k), :, range(k), :] = ring.table.transpose(0, 2, 1)
        mod = _derived_module(ring, acts.reshape(d, k * d, k * d))
        mod.free_rank = k
        mod = ring._free_modules.setdefault(k, mod)
    return mod


def regular_module(ring: FiniteAlgebra) -> Module:
    return free_module(ring, 1)


def free_map_from_generator_images(free_src: Module, target: Module,
                                   images: np.ndarray) -> ModuleMap:
    """The unique R-linear map R^k -> target sending 1_j to images[:, j].

    images has shape (target.vdim, k).  Column (j, i) of the matrix is the
    action of e_i applied to the j-th image.  generator_images inverts it.
    """
    ring = target.ring
    if not same_ring(free_src.ring, ring):
        raise RingMismatch("map between modules over different rings")
    k = free_src.free_rank
    if k is None or free_src.vdim != k * ring.dim:
        raise InputError("source must be a free module built by free_module")
    if images.shape != (target.vdim, k):
        raise InputError("need one image column per generator")
    # (target.actions @ images)[i, :, j] is e_i applied to image j
    mat = (target.actions @ images % ring.p).transpose(1, 2, 0)
    return ModuleMap._trusted(free_src, target,
                              mat.reshape(target.vdim, k * ring.dim))


def generator_images(ring: FiniteAlgebra, matrix: np.ndarray) -> np.ndarray:
    """Images of the generators 1_j of R^k under the map with this matrix.

    matrix has shape (n, k * d) for a map R^k -> X with dim X = n; column
    j of the result is the image of 1_j, the sum of the columns of block
    j weighted by the ring coordinates of the unit.
    """
    d = ring.dim
    n, k = matrix.shape[0], matrix.shape[1] // d
    return matrix.reshape(n, k, d) @ ring.unit % ring.p


def ring_matrix_of_free_map(f: ModuleMap) -> np.ndarray:
    """Read a map between free modules as a matrix of ring elements.

    Returns an array of shape (target_rank, source_rank, d): entry (l, j)
    is the coefficient vector of the (l, j) ring entry, block l of the
    image of generator j.
    """
    ra, rb = f.source.free_rank, f.target.free_rank
    if ra is None or rb is None:
        raise InputError("both endpoints must be free modules")
    images = generator_images(f.ring, f.matrix).reshape(rb, f.ring.dim, ra)
    return np.ascontiguousarray(images.transpose(0, 2, 1))


def _hom_block_matrix(target: Module, coeffs: np.ndarray) -> np.ndarray:
    """Matrix of shape (n*out, n*in) with block (l, j) = action of coeffs[l, j].

    coeffs has shape (out, in, d); blocks act on column stacks of
    target-components.
    """
    out_count, in_count = coeffs.shape[0], coeffs.shape[1]
    n = target.vdim
    blocks = np.einsum("lji,iab->lajb", coeffs, target.actions) % target.ring.p
    return blocks.reshape(out_count * n, in_count * n)


def direct_sum(*mods: Module) -> tuple[Module, list[ModuleMap], list[ModuleMap]]:
    """Direct sum with canonical injections and projections."""
    if not mods:
        raise InputError("direct_sum of nothing")
    ring = mods[0].ring
    for m in mods[1:]:
        if not same_ring(ring, m.ring):
            raise RingMismatch("direct sum over different rings")
    total = sum(m.vdim for m in mods)
    acts = np.zeros((ring.dim, total, total), dtype=np.int64)
    offs = []
    pos = 0
    for m in mods:
        offs.append(pos)
        acts[:, pos:pos + m.vdim, pos:pos + m.vdim] = m.actions
        pos += m.vdim
    summed = _derived_module(ring, acts)
    injections, projections = [], []
    for m, off in zip(mods, offs):
        inj = gfmat.zeros(total, m.vdim)
        inj[off:off + m.vdim] = gfmat.identity(m.vdim)
        injections.append(ModuleMap._trusted(m, summed, inj))
        projections.append(ModuleMap._trusted(summed, m, inj.T.copy()))
    return summed, injections, projections


# -- hom spaces ---------------------------------------------------------------


def _intertwining_rows(src: Module, tgt: Module) -> np.ndarray:
    """Rows of F A^src_i = A^tgt_i F for every i, on F row-major flattened."""
    n, m = tgt.vdim, src.vdim
    return np.vstack([np.kron(gfmat.identity(n), a.T) - np.kron(b, gfmat.identity(m))
                      for a, b in zip(src.actions, tgt.actions)]) % src.ring.p


def hom_space(src: Module, tgt: Module) -> list[ModuleMap]:
    """Canonical F_p-basis of Hom_R(src, tgt).

    Solves the intertwining constraints F A^src_i = A^tgt_i F as one
    nullspace computation; the basis order is fixed by the canonical
    nullspace of gfmat.
    """
    if not same_ring(src.ring, tgt.ring):
        raise RingMismatch("hom between modules over different rings")
    n, m = tgt.vdim, src.vdim
    if n * m == 0:
        return []
    basis = gfmat.nullspace(_intertwining_rows(src, tgt), src.ring.p)
    return [ModuleMap._trusted(src, tgt, basis[:, j].reshape(n, m))
            for j in range(basis.shape[1])]


# -- sub and quotient structure ----------------------------------------------


def submodule_from_columns(mod: Module, cols: np.ndarray) -> tuple[Module, ModuleMap]:
    """Submodule spanned by independent columns, with its inclusion.

    The span must be invariant under the ring action.  The solve for the
    actions on the columns proves invariance, and the unit then acts as
    the identity exactly when the columns are independent, so the
    submodule is valid with no further check.
    """
    return _submodule(mod, cols, gfmat.solve)


def _submodule(mod: Module, cols: np.ndarray, coordinates) -> tuple[Module, ModuleMap]:
    """submodule_from_columns, with coordinates(cols, moved, p) solving
    for the actions: gfmat.solve, or gfmat.nullspace_coordinates when
    cols is a basis gfmat.nullspace returned."""
    p, d = mod.ring.p, mod.ring.dim
    cols = np.mod(np.asarray(cols, dtype=np.int64), p)
    n, k = cols.shape
    moved = np.einsum("iab,bc->aic", mod.actions, cols).reshape(n, d * k) % p
    sub = _span_module(mod.ring, cols, moved, coordinates)
    return sub, ModuleMap._trusted(sub, mod, cols)


def _span_module(ring: FiniteAlgebra, cols: np.ndarray, moved: np.ndarray,
                 coordinates) -> Module:
    """submodule_from_columns' module, from reduced columns (n, k) and
    their images under every basis action side by side: column
    (i, c) of moved (n, d * k) is e_i times column c.  coordinates is
    _submodule's."""
    p, d, k = ring.p, ring.dim, cols.shape[1]
    sol = coordinates(cols, moved, p)
    if sol is None:
        raise InputError("columns do not span an action-invariant subspace")
    acts = np.ascontiguousarray(sol.reshape(k, d, k).transpose(1, 0, 2))
    if not np.array_equal(np.tensordot(ring.unit, acts, 1) % p, gfmat.identity(k)):
        raise InputError("columns are not independent")
    return _derived_module(ring, acts)


def quotient_by_columns(mod: Module, cols: np.ndarray
                        ) -> tuple[Module, ModuleMap, np.ndarray]:
    """Quotient of a module by an invariant column span.

    Returns (Q, projection, section) where section is a matrix choosing
    coset representatives, with projection @ section = identity.  The
    span must be invariant under the ring action; the projection killing
    the moved span is that check, and it makes Q valid.  One rref
    (gfmat.complete_span) gives the basis of the span, the section and
    the projection.
    """
    p = mod.ring.p
    basis, comp, inv = gfmat.complete_span(cols, p)
    k = basis.shape[1]
    if k == 0:
        q = _derived_module(mod.ring, mod.actions)
        return q, ModuleMap._trusted(mod, q, inv), comp
    proj = inv[k:, :]
    moved = (proj @ mod.actions) % p
    if ((moved @ basis) % p).any():
        raise InputError("columns do not span an action-invariant subspace")
    q = _derived_module(mod.ring, (moved @ comp) % p)
    return q, ModuleMap._trusted(mod, q, proj), comp


def subquotient(f: ModuleMap, part: str) -> tuple[Module, ModuleMap]:
    """Kernel, image or cokernel of a map, with its canonical arrow.

    kernel -> (K, inclusion K -> source)
    image -> (I, inclusion I -> target)
    cokernel -> (Q, projection target -> Q)
    """
    p = f.ring.p
    if part == "kernel":
        return _submodule(f.source, gfmat.nullspace(f.matrix, p),
                          gfmat.nullspace_coordinates)
    if part == "image":
        cols = gfmat.column_space(f.matrix, p)
        return submodule_from_columns(f.target, cols)
    if part == "cokernel":
        q, proj, _ = quotient_by_columns(f.target, f.matrix)
        return q, proj
    raise InputError("unknown part %r" % part)


def image_factorization(f: ModuleMap) -> tuple[Module, ModuleMap, ModuleMap]:
    """Factor f as inclusion . corestriction through its image.

    Returns (I, incl: I -> target, cores: source -> I) with
    incl . cores = f.
    """
    img, incl = subquotient(f, "image")
    cores_mat = gfmat.solve(incl.matrix, f.matrix, f.ring.p)
    if cores_mat is None:
        raise InternalInvariantViolation("image columns do not span the image")
    return img, incl, ModuleMap._trusted(f.source, img, cores_mat)


# -- S-relative notions -------------------------------------------------------


@dataclass(frozen=True)
class STorsionWitness:
    """Outcome of a uniform S-torsion test.

    On success, witness is e_S, whose action matrix vanishes.  On
    failure, failures is the one pair of e_S and the first basis index
    its action does not kill: if e_S does not kill M, no s in S does.
    """

    verdict: bool
    module: Module
    witness: RingElement | None
    failures: tuple[tuple[RingElement, int], ...]


def is_uniformly_s_torsion(mod: Module, s_set: MultSet) -> STorsionWitness:
    if not same_ring(mod.ring, s_set.ring):
        raise RingMismatch("module and multiplicative set over different rings")
    e = s_set.idempotent
    act = mod.action_of(e)
    if not act.any():
        return STorsionWitness(True, mod, e, ())
    return STorsionWitness(False, mod, None, ((e, int(act.any(axis=0).argmax())),))


@dataclass(frozen=True)
class PositionReport:
    index: int
    module: Module
    witness: RingElement | None


@dataclass(frozen=True)
class SExactReport:
    """Per-position witnesses for S-exactness of a chain of maps.

    Position i covers the module between maps[i-1] and maps[i].  A None
    witness means that e_S failed one of the containments
    s Ker(out) <= Im(in) and s Im(in) <= Ker(out), so every s in S does.
    """

    positions: tuple[PositionReport, ...]

    @property
    def ok(self) -> bool:
        return all(p.witness is not None for p in self.positions)

    def witnesses(self) -> list[RingElement | None]:
        return [p.witness for p in self.positions]


def cap_chain(maps: list[ModuleMap]) -> list[ModuleMap]:
    """Pad a chain with zero maps from and to the zero module.

    Capping a two-map chain A -> B -> C makes all three modules interior,
    so s_exactness_check inspects the full short sequence.
    """
    z = zero_module(maps[0].ring)
    return ([ModuleMap.zero(z, maps[0].source)] + list(maps)
            + [ModuleMap.zero(maps[-1].target, z)])


def s_exactness_check(maps: list[ModuleMap], s_set: MultSet) -> SExactReport:
    """Per interior position, whether e_S squeezes Ker into Im and back.

    At each interior module the check asks whether s = e_S has
    s Ker(outgoing) <= Im(incoming) and s Im(incoming) <= Ker(outgoing);
    the s that do form an ideal, so e_S decides for all of S.  The first
    holds when the residual
    of one elimination against the incoming map, with the images of each
    kernel vector under e_0..e_{d-1} as right-hand sides, kills s; the
    second when the products outgoing . e_i . incoming, weighted by s,
    are 0.  A matrix and a basis of its column space have the same left
    null space, so no basis is taken.
    """
    if len(maps) < 2:
        raise InputError("need at least two maps to have an interior position")
    for f, g in zip(maps, maps[1:]):
        if not same_module(f.target, g.source):
            raise NotComposable("chain does not compose")
    if not same_ring(maps[0].ring, s_set.ring):
        raise RingMismatch("module and multiplicative set over different rings")
    p, d = maps[0].ring.p, maps[0].ring.dim
    reports = []
    for idx in range(1, len(maps)):
        incoming, outgoing = maps[idx - 1], maps[idx]
        mod = outgoing.source
        ker = gfmat.nullspace(outgoing.matrix, p)
        ker_in_img = _containment_residual(mod, ker, incoming.matrix)
        img_in_ker = ((outgoing.matrix @ mod.actions) % p @ incoming.matrix) % p
        e = s_set.idempotent
        residual = np.vstack([ker_in_img, img_in_ker.reshape(d, -1).T])
        witness = None if (residual @ e.array % p).any() else e
        reports.append(PositionReport(idx, mod, witness))
    return SExactReport(tuple(reports))


def _containment_residual(mod: Module, cols: np.ndarray, span: np.ndarray) -> np.ndarray:
    """W with s cols inside the column span of span exactly when W s = 0.

    Column (j, i) of the right-hand side is e_i times column j of cols,
    so the residual's rows (row, j) hold the coefficients of s_i in
    column i.
    """
    p, d = mod.ring.p, mod.ring.dim
    moved = np.einsum("iab,bj->aji", mod.actions, cols) % p
    moved = moved.reshape(mod.vdim, cols.shape[1] * d)
    return gfmat.solve_span(span, moved, p)[0].reshape(-1, d)


def _require_s_exact(f: ModuleMap, g: ModuleMap, s_set: MultSet) -> SExactReport:
    """The report of 0 -> A -> B -> C -> 0 (f, g); NotSExact names the
    first position where it fails."""
    report = s_exactness_check(cap_chain([f, g]), s_set)
    if not report.ok:
        bad = [pos.index for pos in report.positions if pos.witness is None][0]
        raise NotSExact("sequence is not S-exact at position %d" % bad)
    return report


@dataclass(frozen=True)
class SIsoWitness:
    verdict: bool
    kernel: STorsionWitness
    cokernel: STorsionWitness


def is_s_isomorphism(f: ModuleMap, s_set: MultSet) -> SIsoWitness:
    """A map is an S-isomorphism when Ker and Coker are uniformly S-torsion."""
    ker, _ = subquotient(f, "kernel")
    cok, _ = subquotient(f, "cokernel")
    kw = is_uniformly_s_torsion(ker, s_set)
    cw = is_uniformly_s_torsion(cok, s_set)
    return SIsoWitness(kw.verdict and cw.verdict, kw, cw)


def s_iso_inverse(f: ModuleMap, s_set: MultSet) -> tuple[ModuleMap, RingElement]:
    """Inverse witness g with f.g = e_S id and g.f = e_S id.

    g is the inverse of f restricted to e_S M, composed with e_S (module
    docstring), so it is R-linear.  With E_M and E_N the actions of e_S,
    one solve gives Y with (f E_M) Y = E_N, and g = E_M Y: its columns lie
    in e_S M and f maps them to those of E_N, which fixes them.  Both
    composites are checked.
    """
    report = is_s_isomorphism(f, s_set)
    if not report.verdict:
        raise NotSIso("map is not an S-isomorphism; no inverse witness exists")
    p, e = f.ring.p, s_set.idempotent
    e_src, e_tgt = f.source.action_of(e), f.target.action_of(e)
    y = gfmat.solve(f.matrix @ e_src % p, e_tgt, p)
    g = None if y is None else e_src @ y % p
    if g is None or not (np.array_equal(g @ f.matrix % p, e_src)
                         and np.array_equal(f.matrix @ g % p, e_tgt)):
        raise InternalInvariantViolation(
            "S-isomorphism has no inverse on e_S M; this is an engine bug")
    return ModuleMap._trusted(f.target, f.source, g), e


# -- character duality --------------------------------------------------------


def character_dual(mod: Module) -> Module:
    """F_p-linear dual with the transposed actions.

    This is the exact contravariant duality on finite modules; it swaps
    free covers with injective envelopes-of-sorts, and applying it twice
    returns the same matrices, so the double dual is the identity on the
    nose in these coordinates.  The dual is built once per module object
    and cached with it, so repeated calls give one object; resolutions of
    duals with equal actions share their levels through the content
    cache (homology.Resolution.ensure) whichever object asks.
    """
    if "dual" not in mod._cache:
        acts = np.ascontiguousarray(mod.actions.transpose(0, 2, 1))
        mod._cache["dual"] = _derived_module(mod.ring, acts)
    return mod._cache["dual"]


def dual_map(f: ModuleMap) -> ModuleMap:
    return ModuleMap._trusted(character_dual(f.target), character_dual(f.source),
                              f.matrix.T.copy())


# -- JSON wire format ---------------------------------------------------------


def module_to_spec(mod: Module) -> dict:
    action = {}
    for i, label in enumerate(mod.ring.basis_labels):
        action[label] = [int(c) for c in mod.actions[i].reshape(-1)]
    return {"kind": "action", "dim": mod.vdim, "action": action}


def _parse_matrix(entries, nrows, ncols, p, where):
    flat = entries
    if isinstance(flat, list) and flat and all(isinstance(row, list) for row in flat):
        flat = [c for row in flat for c in row]
    if (not isinstance(flat, list) or len(flat) != nrows * ncols
            or not all(map(is_json_int, flat))):
        raise InputError("%s: expected %d integer entries" % (where, nrows * ncols))
    # reduced as Python ints, so no entry can overflow int64
    return np.array([c % p for c in flat], dtype=np.int64).reshape(nrows, ncols)


def module_from_spec(ring: FiniteAlgebra, doc: dict, where: str = "module") -> Module:
    if not isinstance(doc, dict):
        raise InputError("%s: expected an object" % where)
    kind = doc.get("kind")
    if kind == "action":
        if "dim" not in doc or "action" not in doc:
            raise InputError("%s: need 'dim' and 'action'" % where)
        m = doc["dim"]
        if not is_json_int(m) or m < 0:
            raise InputError("%s/dim: expected a nonnegative integer" % where)
        if not isinstance(doc["action"], dict):
            raise InputError("%s/action: expected an object" % where)
        acts = np.zeros((ring.dim, m, m), dtype=np.int64)
        for i, label in enumerate(ring.basis_labels):
            if label not in doc["action"]:
                raise InputError("%s/action/%s: missing" % (where, label))
            acts[i] = _parse_matrix(doc["action"][label], m, m, ring.p,
                                    "%s/action/%s" % (where, label))
        return Module(ring, acts)
    if kind == "presentation":
        from_rank = doc.get("free_rank")
        rels = doc.get("relations")
        if not is_json_int(from_rank) or from_rank < 0:
            raise InputError("%s/free_rank: expected a nonnegative integer" % where)
        if not isinstance(rels, list):
            raise InputError("%s/relations: expected a list" % where)
        free = free_module(ring, from_rank)
        cols = []
        for rdx, rel in enumerate(rels):
            if not isinstance(rel, list) or len(rel) != from_rank:
                raise InputError("%s/relations/%d: expected %d ring elements"
                                 % (where, rdx, from_rank))
            parts = []
            for cdx, coeffs in enumerate(rel):
                if (not isinstance(coeffs, list) or len(coeffs) != ring.dim
                        or not all(map(is_json_int, coeffs))):
                    raise InputError("%s/relations/%d/%d: expected %d integers"
                                     % (where, rdx, cdx, ring.dim))
                parts.append(np.array([c % ring.p for c in coeffs], dtype=np.int64))
            cols.append(np.concatenate(parts))
        if cols:
            rel_free = free_module(ring, len(cols))
            rel_map = free_map_from_generator_images(
                rel_free, free, np.stack(cols, axis=1))
            quotient, _ = subquotient(rel_map, "cokernel")
            return quotient
        return free
    raise InputError("%s/kind: expected 'action' or 'presentation', got %r"
                     % (where, kind))


def map_to_spec(f: ModuleMap) -> dict:
    return {"matrix": [int(c) for c in f.matrix.reshape(-1)]}


def map_from_spec(source: Module, target: Module, doc: dict,
                  where: str = "map") -> ModuleMap:
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise InputError("%s: expected an object with 'matrix'" % where)
    mat = _parse_matrix(doc["matrix"], target.vdim, source.vdim, source.ring.p,
                        "%s/matrix" % where)
    return ModuleMap(source, target, mat)
