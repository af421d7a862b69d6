"""Finite commutative F_p-algebras presented by structure constants.

A ring here is an F_p-vector space with basis e_0..e_{d-1}, a symmetric
multiplication table e_i * e_j = sum_k c_ijk e_k, and a declared unit
vector.  Everything downstream (modules, resolutions, dimensions) works
relative to a multiplicative subset S of such a ring, so this module also
houses multiplicative sets, ideal enumeration, and prime complements.

One element of S decides every S-question.  Let t be the product of
the seeds of S, d = dim R and x = t^N for some N >= d.  By Fitting's
lemma R = xR + Ann x, multiplication by t is bijective on xR and
nilpotent on Ann x, and the component e_S of 1 in xR is an idempotent
with xR = e_S R.  x is a unit of e_S R, so x^2 y = x has a solution and
e_S = x y for every solution y (y - x^-1 lies in Ann x^2 = Ann x).  x
has finite order in the units of e_S R, so e_S is a power of t and lies
in S.  Every s in S divides a power of t, which is a unit of e_S R, so
s e_S is a unit of e_S R as well and e_S lies in sR.  Hence for any
ideal I of R: I meets S exactly when e_S lies in I.  Every S-question
asks whether its ideal of working s (if s works, so does r s) meets S,
so e_S answers it, as the witness when it works and as the certificate
of failure when it does not: an s in S that worked would make e_S work.
In particular 0 lies in S exactly when e_S = 0.  MultSet computes e_S
once, from the seeds and with at most one d x d solve, and lists its
members only when something reads them (random draws of s,
serialisation, the affine retraction check and the tests' oracles).

The primes come from linear algebra, not from the ideal lattice.  R is
a product of m local rings, and the fixed points E = {x : x^p = x} of
Frobenius, one nullspace of F - I for its matrix F, are the F_p-span of
the primitive idempotents e_1, ..., e_m (Berlekamp), so m = dim E.  The
structure pass (FiniteAlgebra.primitive_idempotents) splits 1 by a basis
of E into the e_i and checks the result.  In a finite ring every prime
is maximal, and the maximal ideals are P_i = (1 - e_i)R + e_i rad R
(maximal_ideals), with R/P_i the residue field of the local ring e_i R.
The complement R minus P_i has e_S = e_i (dimensions.local_profile), so
complement_multset lists its members only when something reads them.

Arithmetic on many elements is batched: FiniteAlgebra.products multiplies
every row of one coefficient array by every row of another in one array
product.  Closures, closure checks, table validation, quotient tables and
the generators of the cyclic ideals go through it and never multiply
RingElements one pair at a time; they cut their rows into blocks so that
no intermediate array holds more than about 2^20 entries.  The ideal
lattice compares subspaces by their reduced echelon keys: one rref per
cyclic ideal and per pairwise sum.  Every ideal is stored on its reduced
echelon rows, so the lattice and the structure pass label an ideal the
same way.

Table laws (commutativity, associativity, the unit) are checked where a
table arrives from outside or from a caller's ideal; the named
constructors, whose tables satisfy them by construction, skip them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import gfmat
from .errors import (
    BadUnit,
    CharacteristicTooLarge,
    InputError,
    InternalInvariantViolation,
    NonAssociative,
    NonCommutative,
    NotPrime,
    NotPrimeChar,
    RingMismatch,
)

__all__ = [
    "RingElement",
    "FiniteAlgebra",
    "MultSet",
    "Ideal",
    "IdealList",
    "QuotientData",
    "build_algebra",
    "prime_field",
    "truncated_polynomial",
    "direct_product",
    "mult_closure",
    "enumerate_ideals",
    "maximal_ideals",
    "radical_ideal",
    "complement_multset",
    "quotient_algebra",
    "same_ring",
    "ring_to_spec",
    "ring_from_spec",
]

# Listing the elements (for the ideal lattice, prime complements and
# everything that ranges over them) is only sensible for small rings;
# this cap keeps it honest.
MAX_ENUMERABLE = 1 << 16

# Matrices are int64 arrays reduced into [0, p); products and matrix
# products sum terms below p^2, so p^2 times a few billion must stay under
# 2^63.  65521 is the largest prime below 2^16.
MAX_CHARACTERISTIC = 65521

# Batched products are cut into row blocks so that no intermediate array
# holds more than about this many int64 entries.
_BLOCK_ENTRIES = 1 << 20


def _row_blocks(n: int, row_entries: int) -> list[slice]:
    """Consecutive slices of range(n), each of at most _BLOCK_ENTRIES
    entries when one row costs row_entries (at least one row each)."""
    step = max(1, _BLOCK_ENTRIES // max(1, row_entries))
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


@dataclass(frozen=True, order=True)
class RingElement:
    """An element of a FiniteAlgebra, ordered lexicographically by vector.

    The ring reference is excluded from ordering and hashing so elements
    sort purely by coefficient vector, the canonical order of every list
    of elements.
    """

    vec: tuple[int, ...]
    ring: "FiniteAlgebra" = field(compare=False, repr=False)

    def __post_init__(self):
        if len(self.vec) != self.ring.dim:
            raise InputError("element vector length %d, ring dimension %d"
                             % (len(self.vec), self.ring.dim))

    @property
    def array(self) -> np.ndarray:
        return np.array(self.vec, dtype=np.int64)

    def __mul__(self, other: "RingElement") -> "RingElement":
        if not same_ring(self.ring, other.ring):
            raise RingMismatch("elements of different rings")
        return self.ring.element(self.ring.products(self.array[None], other.array[None])[0, 0])

    def __add__(self, other: "RingElement") -> "RingElement":
        if not same_ring(self.ring, other.ring):
            raise RingMismatch("elements of different rings")
        return self.ring.element((self.array + other.array) % self.ring.p)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.vec)

    def label(self) -> str:
        """Human-readable form like '0', 'e1', or 'e1+2*f'."""
        parts = []
        for c, name in zip(self.vec, self.ring.basis_labels):
            if c == 0:
                continue
            parts.append(name if c == 1 else "%d*%s" % (c, name))
        return "+".join(parts) if parts else "0"


class FiniteAlgebra:
    """Commutative F_p-algebra given by a validated structure table.

    Attributes:
        p: prime characteristic.
        dim: F_p-dimension d.
        basis_labels: tuple of d distinct label strings.
        table: (d, d, d) int64 array, table[i, j] = vector of e_i * e_j.
        unit: length-d int64 array, the multiplicative identity.

    Arithmetic on many elements is batched through products(), one array
    product per call; its callers in this module cut their rows into
    blocks of at most about 2^20 intermediate entries.

    The constructor checks p, the labels and the shapes, then the table
    laws: commutativity, associativity and the unit.  prime_field,
    truncated_polynomial and direct_product build through _lawful, which
    skips the laws their tables satisfy by construction; build_algebra,
    ring_from_spec and quotient_algebra (which trusts its caller's Ideal)
    check them in full.

    Instances are immutable by convention.  Derived data (the radical and
    its ideal generators, the Frobenius fixed space, the primitive
    idempotents, their block dimensions and residue lifts, the maximal
    ideals, the element list, the ideal list, the prime complements and
    the free modules R^k) is cached on first use; caches only ever gain
    entries, so sharing an instance across threads is safe for readers.
    Only the element list and what is built from it are bound by
    MAX_ENUMERABLE.
    """

    def __init__(self, p: int, basis_labels, table, unit):
        self._store(p, basis_labels, table, unit)
        self._validate_laws()

    @classmethod
    def _lawful(cls, p: int, basis_labels, table, unit) -> "FiniteAlgebra":
        """An algebra whose table is commutative and associative with the
        given unit by construction: p, the labels and the shapes are
        checked, the table laws are not."""
        ring = cls.__new__(cls)
        ring._store(p, basis_labels, table, unit)
        return ring

    def _store(self, p: int, basis_labels, table, unit) -> None:
        self.p = int(p)
        if self.p > MAX_CHARACTERISTIC:
            # checked before any array is reduced mod p
            raise CharacteristicTooLarge(self.p, MAX_CHARACTERISTIC)
        self.basis_labels = tuple(str(s) for s in basis_labels)
        self.dim = len(self.basis_labels)
        self.table = np.mod(np.array(table, dtype=np.int64), self.p)
        self.unit = np.mod(np.array(unit, dtype=np.int64), self.p)
        self._validate_shapes()
        # what same_ring compares, and what content caches key a ring by
        self.content = (self.p, self.dim, self.table.tobytes(), self.unit.tobytes())
        self._radical = None
        self._radical_gens = None
        self._frob = None
        self._fixed = None
        self._idempotents = None
        self._block_dims = None
        self._lifts = None
        self._maximals = None  # key -> (P_i, e_i), filled by _maximal_table
        self._ideal_list = None
        self._elements = None
        self._free_modules: dict = {}  # rank k -> R^k, filled by free_module
        self._complements: dict = {}  # prime key -> R minus the prime

    # -- construction-time validation ------------------------------------

    def _validate_shapes(self):
        if not _is_prime(self.p):
            raise NotPrimeChar(self.p)
        d = self.dim
        if d == 0:
            raise InputError("ring dimension must be positive")
        if len(set(self.basis_labels)) != d:
            raise InputError("basis labels must be distinct")
        if self.table.shape != (d, d, d):
            raise InputError("structure table must have shape (%d, %d, %d)" % (d, d, d))
        if self.unit.shape != (d,):
            raise InputError("unit vector must have length %d" % d)

    def _validate_laws(self):
        p, d, table = self.p, self.dim, self.table
        # the mask is symmetric with a false diagonal, so its first entry
        # in row-major order is the first (i, j) with i < j
        bad = (table != table.transpose(1, 0, 2)).any(axis=2)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise NonCommutative(int(i), int(j), self.basis_labels)
        eye = np.eye(d, dtype=np.int64)
        for rows in _row_blocks(d, d ** 3):
            # [i, j, k] compares (e_i e_j) e_k with e_i (e_j e_k)
            lhs = (table[rows].reshape(-1, d) @ table.reshape(d, d * d)) % p
            rhs = self.products(eye[rows], table.reshape(d * d, d))
            bad = (lhs.reshape(-1, d, d, d) != rhs.reshape(-1, d, d, d)).any(axis=3)
            if bad.any():
                i, j, k = np.argwhere(bad)[0]
                raise NonAssociative(rows.start + int(i), int(j), int(k), self.basis_labels)
        # row c is unit * e_c
        bad = (self.products(self.unit[None], eye)[0] != eye).any(axis=1)
        if bad.any():
            raise BadUnit(int(bad.argmax()), self.basis_labels)

    # -- elements ---------------------------------------------------------

    def element(self, vec) -> RingElement:
        arr = np.mod(np.array(vec, dtype=np.int64).reshape(-1), self.p)
        return RingElement(tuple(int(c) for c in arr), self)

    @property
    def zero(self) -> RingElement:
        return self.element([0] * self.dim)

    @property
    def one(self) -> RingElement:
        return self.element(self.unit)

    def basis_element(self, i: int) -> RingElement:
        vec = [0] * self.dim
        vec[i] = 1
        return self.element(vec)

    def products(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Every product xs[a] * ys[b], as a (len(xs), len(ys), d) array.

        Rows are coefficient vectors reduced into [0, p).  Two matrix
        products, xs with the table and then ys with that, each summing d
        terms below p^2 before it is reduced mod p; d * p^2 < 2^63 for
        every p up to MAX_CHARACTERISTIC, so int64 is exact.
        """
        d = self.dim
        # left[a, j] = xs[a] * e_j
        left = (xs @ self.table.reshape(d, d * d)).reshape(-1, d, d) % self.p
        return (ys @ left) % self.p

    def left_mul_matrix(self, vec) -> np.ndarray:
        """Matrix of multiplication by the element on the ring itself;
        column j is vec * e_j."""
        arr = np.mod(np.array(vec, dtype=np.int64).reshape(-1), self.p)
        d = self.dim
        return (arr @ self.table.reshape(d, d * d)).reshape(d, d).T % self.p

    @property
    def size(self) -> int:
        return self.p ** self.dim

    def elements(self) -> list[RingElement]:
        """All ring elements in canonical (lexicographic) order."""
        if self._elements is None:
            if self.size > MAX_ENUMERABLE:
                raise InputError("ring too large to enumerate (%d elements)" % self.size)
            self._elements = [
                self.element(v)
                for v in itertools.product(range(self.p), repeat=self.dim)
            ]
        return self._elements

    def radical_basis(self) -> np.ndarray:
        """Basis (columns) of the ideal of nilpotent elements.

        For a finite-dimensional commutative algebra this is the Jacobson
        radical.  x -> x^p is F_p-linear, and a nilpotent x has x^d = 0,
        so the radical is the kernel of Frobenius^k for any p^k >= d: its
        matrix is F^k for the Frobenius matrix F.  The basis is the rows of the
        kernel's reduced echelon form in reverse order, which is what a
        greedy pass over the nilpotent elements in canonical order picks:
        the smallest nonzero one, then the smallest outside the span so
        far, and so on.
        """
        if self._radical is None:
            q, power = 1, np.eye(self.dim, dtype=np.int64)
            while q < self.dim:
                q, power = q * self.p, power @ self._frobenius() % self.p
            kernel = gfmat.nullspace(power.T, self.p)
            echelon, _ = gfmat.rref(kernel.T, self.p)
            self._radical = echelon[::-1].T.copy()
        return self._radical

    def _frobenius(self) -> np.ndarray:
        """The Frobenius matrix F, row i e_i^p: x -> x^p is F_p-linear, so
        x^p = x F on row vectors.  Cached."""
        if self._frob is None:
            self._frob = self._row_powers(np.eye(self.dim, dtype=np.int64), self.p)
        return self._frob

    def _row_powers(self, rows: np.ndarray, q: int) -> np.ndarray:
        """Row a is rows[a]^q for q >= 1 and reduced rows, by
        square-and-multiply on all rows at once: the powers start at the
        lowest set bit of q, and the base is not squared after the
        highest, so q = 2 makes one row product and q = 1 none."""
        powers, base = None, rows
        while True:
            if q & 1:
                powers = base if powers is None else self._row_products(powers, base)
            q >>= 1
            if not q:
                return powers
            base = self._row_products(base, base)

    def _row_products(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Row a is xs[a] * ys[a]: products' two matrix products, the
        second taken row by row rather than for every pair."""
        d = self.dim
        left = (xs @ self.table.reshape(d, d * d)).reshape(-1, d, d) % self.p
        return np.einsum("aj,ajk->ak", ys, left) % self.p

    def _frobenius_fixed(self) -> np.ndarray:
        """Basis (columns) of E = {x : x^p = x}, the kernel of F - I for
        the Frobenius matrix F: the span of the primitive idempotents."""
        if self._fixed is None:
            shift = self._frobenius().T - np.eye(self.dim, dtype=np.int64)
            self._fixed = gfmat.nullspace(shift % self.p, self.p)
        return self._fixed

    def primitive_idempotents(self) -> np.ndarray:
        """The primitive idempotents e_1, ..., e_m of R, as rows.

        R is a product of m local rings, and on a local ring of
        characteristic p the roots of x^p - x are 0, 1, ..., p - 1, so E =
        {x : x^p = x} is F_p^m, spanned by the e_i.  Starting from {1},
        every basis vector b of E splits each idempotent f it is not
        constant on (f b not in F_p f), until none is left to split.  With
        f b = sum c_i e_i over the e_i under f:
          - p = 2: f b is idempotent, so f splits into f b and f - f b;
          - odd p: z = (f b + a f)^((p - 1)/2) has the coordinates
            chi(c_i + a) in {0, 1, -1} (chi the quadratic character), so
            g = (z^2 + z)/2 sums the e_i with c_i + a a nonzero square.
            The nonzero squares are not invariant under a nonzero shift,
            so for c_i != c_j some a in F_p separates e_i from e_j; a = 0,
            1, ... is tried in turn until one splits f.
        The order of the rows is fixed by the basis of E.  The split stops
        once it holds dim E parts: a sound one splits none of them further,
        so each pass left would only reverse their order, and the order is
        reversed once for each.  The result is checked for m = dim E
        nonzero orthogonal idempotents that sum to 1 (_primitive), which
        are then the primitive ones, and InternalInvariantViolation is
        raised when it fails.  When dim R - dim rad R = 1, R / rad R = F_p:
        R is local, its one idempotent is 1, and E is not computed.  Cached
        on the ring.
        """
        if self._idempotents is None and self.dim - self.radical_basis().shape[1] == 1:
            self._idempotents = self.unit[None].copy()
        if self._idempotents is None:
            p, fixed = self.p, self._frobenius_fixed()
            m = fixed.shape[1]
            fault = InternalInvariantViolation(
                "the split of the Frobenius fixed space is not %d orthogonal "
                "idempotents summing to 1" % m)
            parts = [self.unit]
            for used, b in enumerate(fixed.T, start=1):
                done, todo = [], parts
                while todo:
                    if len(done) + len(todo) == m:
                        # dim E parts: a sound split splits none of them,
                        # so this pass would only reverse those left
                        done += todo[::-1]
                        break
                    f = todo.pop()
                    g = self._splitting_idempotent(f, b)
                    if g is None:
                        done.append(f)
                    else:
                        todo += [g, (f - g) % p]
                parts = done
                if len(parts) == m:
                    # and each basis vector of E left would reverse them all
                    parts = parts[::-1] if (m - used) % 2 else parts
                    break
            found = np.array(parts, dtype=np.int64)
            if not self._primitive(found):
                raise fault
            self._idempotents = found
        return self._idempotents

    def block_dimensions(self) -> tuple[np.ndarray, np.ndarray]:
        """(d, k) for the rows e_i of primitive_idempotents: d_i = dim e_i R,
        and k_i = d_i - dim e_i rad R, the dimension of the residue field
        of the local ring e_i R.

        Every composition factor of e_i R is that residue field, so k_i >= 1
        and k_i divides d_i; counts that break this raise
        InternalInvariantViolation.  Cached on the ring.
        """
        if self._block_dims is None:
            p, rad = self.p, self.radical_basis()
            # mults[i] is multiplication by e_i: column j is e_i e_j
            mults = self.products(self.primitive_idempotents(),
                                  np.eye(self.dim, dtype=np.int64)).transpose(0, 2, 1)
            dims = np.array([gfmat.rank(m, p) for m in mults], dtype=np.int64)
            residues = dims - [gfmat.rank(m @ rad % p, p) for m in mults]
            if (residues < 1).any() or (dims % np.maximum(residues, 1)).any():
                raise InternalInvariantViolation(
                    "block dimensions %s are not multiples of residue "
                    "dimensions %s" % (dims.tolist(), residues.tolist()))
            self._block_dims = (dims, residues)
        return self._block_dims

    def residue_lifts(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """(L, k): the rows of L are, block after block, a lift L_i of an
        F_p-basis of the residue field e_i R / e_i rad R, e_i first, and k
        holds the block sizes |L_i| = k_i.

        R / rad R is the product of the m residue fields, so when
        dim R - dim rad R = m every k_i is 1 and L is primitive_idempotents
        itself.  Otherwise L_i is e_i and the columns e_i e_j that leave
        e_i rad R and the columns before them; |L_i| other than
        block_dimensions' k_i raises InternalInvariantViolation.  Cached
        on the ring.
        """
        if self._lifts is None:
            p, rad, idems = self.p, self.radical_basis(), self.primitive_idempotents()
            if self.dim - rad.shape[1] == len(idems):
                self._lifts = (idems, (1,) * len(idems))
            else:
                _, residues = self.block_dimensions()
                mults = self.products(idems, np.eye(self.dim, dtype=np.int64)).transpose(0, 2, 1)
                lifts = []
                for e, mult, k in zip(idems, mults, residues):
                    cols = np.hstack([e[:, None], mult])
                    picks = gfmat.columns_outside_span(mult @ rad % p, cols, p)
                    if len(picks) != k or picks[0] != 0:
                        raise InternalInvariantViolation(
                            "a residue field of dimension %d has a lifted basis of "
                            "%d elements" % (k, len(picks)))
                    lifts.append(cols[:, picks].T)
                self._lifts = (np.vstack(lifts), tuple(int(k) for k in residues))
        return self._lifts

    def _primitive(self, found: np.ndarray) -> bool:
        """Whether the rows are dim E nonzero idempotents, pairwise
        orthogonal and summing to 1: then they are the primitive ones."""
        m = len(found)
        want = np.zeros((m, m, self.dim), dtype=np.int64)
        want[np.arange(m), np.arange(m)] = found
        return (m == self._frobenius_fixed().shape[1] and found.any(axis=1).all()
                and np.array_equal(self.products(found, found), want)
                and np.array_equal(found.sum(axis=0) % self.p, self.unit))

    def _splitting_idempotent(self, f: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """An idempotent g with g f = g, g != 0 and g != f, read off the
        element b of E (primitive_idempotents); None when f b lies in F_p f."""
        p = self.p
        y = self.products(f[None], b[None])[0, 0]
        lead = int(np.flatnonzero(f)[0])
        if np.array_equal(y, y[lead] * gfmat.modinv(int(f[lead]), p) * f % p):
            return None
        if p == 2:
            return y
        for a in range(p):
            z = self._row_powers((y + a * f)[None] % p, (p - 1) // 2)[0]
            g = (self.products(z[None], z[None])[0, 0] + z) * ((p + 1) // 2) % p
            if g.any() and not np.array_equal(g, f):
                return g
        raise InternalInvariantViolation("no shift splits an idempotent of E")

    def radical_generators(self) -> np.ndarray:
        """Columns of radical_basis() that generate the radical as an ideal.

        Each lies outside rad^2 plus the columns before it, so they span
        rad modulo rad^2, and by Nakayama's lemma (rad is nilpotent) they
        generate rad.  Hence rad.K is the span of g.K over these g, for
        every module K.
        """
        if self._radical_gens is None:
            p, d, rad = self.p, self.dim, self.radical_basis()
            k = rad.shape[1]
            # left[a, j] = rad_a * e_j; column (a, b) of squares is rad_a * rad_b
            left = (rad.T @ self.table.reshape(d, d * d) % p).reshape(k, d, d)
            squares = (rad.T @ left % p).reshape(k * k, d).T
            self._radical_gens = rad[:, gfmat.columns_outside_span(squares, rad, p)]
        return self._radical_gens

    def __repr__(self):
        return "FiniteAlgebra(p=%d, basis=%s)" % (self.p, list(self.basis_labels))


def same_ring(a: FiniteAlgebra, b: FiniteAlgebra) -> bool:
    """Structural ring equality; survives serialization round trips."""
    return a is b or a.content == b.content


# -- constructors ----------------------------------------------------------


def build_algebra(p: int, basis_labels, table, unit) -> FiniteAlgebra:
    """Validate and build an algebra from raw structure data.

    Raises NotPrimeChar, NonCommutative, NonAssociative or BadUnit naming
    the first violating basis tuple.
    """
    return FiniteAlgebra(p, basis_labels, table, unit)


def prime_field(p: int) -> FiniteAlgebra:
    return FiniteAlgebra._lawful(p, ("1",), [[[1]]], [1])


def truncated_polynomial(p: int, k: int, var: str = "t") -> FiniteAlgebra:
    """F_p[t] / (t^k) on the basis 1, t, ..., t^{k-1}."""
    if k < 1:
        raise InputError("truncation order must be >= 1")
    labels = ["1"] + [var if n == 1 else "%s%d" % (var, n) for n in range(1, k)]
    table = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            if i + j < k:
                table[i, j, i + j] = 1
    unit = [1] + [0] * (k - 1)
    return FiniteAlgebra._lawful(p, labels, table, unit)


def direct_product(a: FiniteAlgebra, b: FiniteAlgebra,
                   labels: tuple[str, ...] | None = None) -> FiniteAlgebra:
    """Product ring a x b with componentwise operations.

    The basis is the concatenation of the two bases; the unit is the sum
    of the two units.  Optional labels override the default qualified
    names.
    """
    if a.p != b.p:
        raise RingMismatch("direct product needs equal characteristic")
    d1, d2 = a.dim, b.dim
    d = d1 + d2
    if labels is None:
        labels = tuple("a.%s" % s for s in a.basis_labels) + tuple(
            "b.%s" % s for s in b.basis_labels)
    table = np.zeros((d, d, d), dtype=np.int64)
    table[:d1, :d1, :d1] = a.table
    table[d1:, d1:, d1:] = b.table
    unit = np.concatenate([a.unit, b.unit])
    return FiniteAlgebra._lawful(a.p, labels, table, unit)


# -- multiplicative sets ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class MultSet:
    """A multiplicatively closed subset of a finite ring, 1 included.

    S is the set of products of its seeds, and idempotent is its e_S, the
    one element that decides every S-question (module docstring).
    members is the full member list when the set was given by it, else
    None: the members are then listed, in canonical order, the first time
    elements, vectors, iteration, len or a membership test asks for them.
    A prime complement (complement_multset) is built from e_S alone and
    lists its members, which are also its seeds, the same way.  S is
    degenerate when 0 is a member, that is when e_S = 0 (every module is
    then uniformly S-torsion).  == and hash are identity.
    """

    ring: FiniteAlgebra
    seeds: tuple[RingElement, ...]
    idempotent: RingElement
    members: tuple[RingElement, ...] | None = None

    @cached_property
    def elements(self) -> tuple[RingElement, ...]:
        return _closure(self.ring, self.seeds) if self.members is None else self.members

    @property
    def degenerate(self) -> bool:
        return self.idempotent.is_zero()

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def labels(self) -> list[str]:
        return [e.label() for e in self.elements]

    @cached_property
    def vectors(self) -> np.ndarray:
        """The members' coefficient vectors as rows, in canonical order."""
        return np.array([e.vec for e in self.elements],
                        dtype=np.int64).reshape(-1, self.ring.dim)

    def validate(self) -> None:
        """Check closure and unit membership; raises InputError if violated.

        All pairwise products are taken in row blocks; a gap is reported
        for the first missing pair (x, y) in row-major order.
        """
        ring = self.ring
        if ring.one not in self.elements:
            raise InputError("multiplicative set must contain 1")
        members = {e.vec for e in self.elements}
        vecs = self.vectors
        for start, prods in _product_blocks(ring, vecs, vecs):
            if members.issuperset(prods):
                continue
            at = next(k for k, v in enumerate(prods) if v not in members)
            a, b = divmod(at, len(vecs))
            raise InputError(
                "multiplicative set not closed: %s * %s = %s missing"
                % (self.elements[start + a].label(), self.elements[b].label(),
                   RingElement(prods[at], ring).label()))


def _product_blocks(ring: FiniteAlgebra, xs: np.ndarray, ys: np.ndarray):
    """Every product xs[a] * ys[b], one row block of xs at a time: yields
    the block's first row and its products as coefficient tuples in
    row-major order."""
    d = ring.dim
    for rows in _row_blocks(len(xs), d * max(d, len(ys))):
        yield rows.start, list(map(tuple, ring.products(xs[rows], ys).reshape(-1, d).tolist()))


def mult_closure(ring: FiniteAlgebra, seeds) -> MultSet:
    """The multiplicative set generated by 1 and the seeds.

    Accepts RingElement or raw coefficient vectors.  Only e_S is computed
    here (_s_idempotent); the members are listed on first use (_closure).
    """
    checked = []
    for s in seeds:
        if not isinstance(s, RingElement):
            s = ring.element(s)
        elif not same_ring(s.ring, ring):
            raise RingMismatch("elements of different rings")
        checked.append(s)
    return MultSet(ring, tuple(checked), _s_idempotent(ring, checked))


def _s_idempotent(ring: FiniteAlgebra, seeds) -> RingElement:
    """e_S of the set generated by the seeds (module docstring).

    x = t^(2^j) with 2^j >= d for t the product of the seeds, and
    e_S = x y for a solution y of x^2 y = x: y = 1 when x is idempotent
    already, otherwise one d x d solve.  With no seeds e_S = 1.
    """
    if not seeds:
        return ring.one
    p, d, x = ring.p, ring.dim, ring.unit
    vecs = np.array([s.vec for s in seeds], dtype=np.int64)
    for rows in _row_blocks(len(vecs), d * d):
        # row j of mul is s e_j, so x @ mul is s x
        for mul in ring.products(vecs[rows], np.eye(d, dtype=np.int64)):
            x = x @ mul % p
    for _ in range((d - 1).bit_length()):
        x = ring.left_mul_matrix(x) @ x % p
    mul = ring.left_mul_matrix(x)
    if not np.array_equal(mul @ x % p, x):
        # mul @ mul multiplies by x^2, and mul @ y is x y
        x = mul @ gfmat.solve(mul @ mul % p, x, p) % p
    return ring.element(x)


def _closure(ring: FiniteAlgebra, seeds) -> tuple[RingElement, ...]:
    """Every product of seeds, 1 included, in canonical order.

    Semi-naive fixpoint on coefficient tuples.  Every member is a product
    of seeds, so each round multiplies only the members new in the last
    round by the seeds, in one batched product per row block.  Past
    MAX_ENUMERABLE members it raises InputError, as FiniteAlgebra.elements
    does.
    """
    members = {ring.one.vec}
    seed_vecs = np.array([s.vec for s in seeds], dtype=np.int64).reshape(-1, ring.dim)
    frontier = members
    while frontier:
        new = set()
        for _, prods in _product_blocks(ring, np.array(list(frontier), dtype=np.int64),
                                        seed_vecs):
            new.update(prods)
        frontier = new - members
        members |= frontier
        if len(members) > MAX_ENUMERABLE:
            raise InputError("multiplicative set too large to enumerate (over %d elements)"
                             % MAX_ENUMERABLE)
    return tuple(RingElement(v, ring) for v in sorted(members))


# -- ideals -----------------------------------------------------------------


def _echelon_key(rows: np.ndarray, p: int) -> tuple[tuple, np.ndarray]:
    """Canonical key of the span of the rows: the nonzero rows of their
    rref, as a tuple of tuples and as an array."""
    echelon, pivots = gfmat.rref(rows, p)
    echelon = echelon[: len(pivots)]
    return tuple(map(tuple, echelon.tolist())), echelon


def _membership_block(echelon: np.ndarray, d: int) -> np.ndarray:
    """B with v @ B = v - v[P] E, for reduced echelon rows E of a subspace
    and their pivot columns P: v @ B = 0 exactly when v lies in the span.

    E[:, P] is the identity, so v = c E gives v[P] = c and v - v[P] E = 0;
    conversely v = v[P] E is in the span.  Entries are not reduced mod p.
    """
    block = np.eye(d, dtype=np.int64)
    block[(echelon != 0).argmax(axis=1)] -= echelon
    return block


def _subspace_key(basis: np.ndarray, p: int) -> tuple:
    """Canonical key for a subspace spanned by the given columns."""
    return _echelon_key(basis.T, p)[0]


@dataclass(frozen=True, eq=False)
class Ideal:
    """An ideal of a finite algebra, stored as an F_p-subspace basis.

    basis is a basis of columns.  enumerate_ideals and maximal_ideals
    store the reduced echelon rows of the subspace, in order, so both
    give an ideal the same basis and the same label(); radical_ideal
    stores radical_basis(), and a caller may pass any basis.  key() is
    the canonical form, the reduced echelon rows, the same for every
    basis of the same subspace; == and hash are identity.
    """

    ring: FiniteAlgebra
    basis: np.ndarray  # dim x k independent columns, a representative
    is_prime: bool
    is_maximal: bool

    @property
    def fdim(self) -> int:
        return self.basis.shape[1]

    def contains(self, elt: RingElement) -> bool:
        if self.fdim == 0:
            return elt.is_zero()
        return gfmat.in_column_span(self.basis, elt.array, self.ring.p)

    def label(self) -> str:
        if self.fdim == 0:
            return "(0)"
        gens = [self.ring.element(self.basis[:, j]).label() for j in range(self.fdim)]
        return "(" + ", ".join(gens) + ")"

    def key(self) -> tuple:
        return _subspace_key(self.basis, self.ring.p)


@dataclass(frozen=True)
class IdealList:
    ring: FiniteAlgebra
    ideals: tuple[Ideal, ...]

    def __iter__(self):
        return iter(self.ideals)

    def __len__(self):
        return len(self.ideals)

    @property
    def primes(self) -> tuple[Ideal, ...]:
        return tuple(i for i in self.ideals if i.is_prime)

    @property
    def maximals(self) -> tuple[Ideal, ...]:
        return tuple(i for i in self.ideals if i.is_maximal)

    @property
    def proper(self) -> tuple[Ideal, ...]:
        return tuple(i for i in self.ideals if i.fdim < self.ring.dim)


def enumerate_ideals(ring: FiniteAlgebra) -> IdealList:
    """All ideals of the ring, with primality and maximality flags.

    Every ideal is a sum of cyclic ideals, so we collect the distinct
    cyclic ideals Rx and close the collection under pairwise sum.
    Exhaustive over ring elements; guarded by the enumeration cap.
    Results are cached on the ring.  x and cx generate the same ideal
    for every c in F_p^*, and the x whose first nonzero coefficient is 1
    comes first in canonical order, so only those x (and 0) are keyed.

    An ideal is keyed by the reduced echelon form of a spanning set (the
    subspace key), and its basis is those echelon rows, in order.  Rx is
    spanned by the rows x*e_j, which one products call per row block
    gives for every x; its key is one rref of them.  The key of a sum
    I + J is one rref of the two stacked keys.  A pair is skipped when
    its sum is already known: a pair of equal ideals, and (J, I) when
    (I, J) came earlier in the same round.  The list is sorted by
    dimension and then by key.

    In a finite ring every prime P is maximal (R/P is a finite domain,
    hence a field), and the maximal ideals are those of maximal_ideals,
    so both flags are a key lookup among them.
    """
    if ring._ideal_list is not None:
        return ring._ideal_list
    p, d = ring.p, ring.dim
    seen: dict[tuple, np.ndarray] = {}  # key -> reduced echelon rows
    vecs = np.array([e.vec for e in ring.elements()], dtype=np.int64)
    vecs = vecs[vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)] <= 1]
    eye = np.eye(d, dtype=np.int64)
    for rows in _row_blocks(len(vecs), d * d):
        # gens[j] = x * e_j, column j of the multiplication matrix of x
        for gens in ring.products(vecs[rows], eye):
            key, echelon = _echelon_key(gens, p)
            seen.setdefault(key, echelon)
    work = list(seen)
    while work:
        new_work = []
        items = list(seen.items())
        done = set()
        for key1 in work:
            e1 = seen[key1]
            done.add(key1)
            for key2, e2 in items:
                if key2 in done:
                    continue
                key, echelon = _echelon_key(np.vstack([e1, e2]), p)
                if key not in seen:
                    seen[key] = echelon
                    new_work.append(key)
        work = new_work
    maximal = _maximal_table(ring)
    ideals = tuple(Ideal(ring, np.ascontiguousarray(seen[key].T), key in maximal, key in maximal)
                   for key in sorted(seen, key=lambda k: (len(k), k)))
    ring._ideal_list = IdealList(ring, ideals)
    return ring._ideal_list


def maximal_ideals(ring: FiniteAlgebra) -> tuple[Ideal, ...]:
    """The maximal ideals, which are the primes, with no ideal or element
    listed: P_i = (1 - e_i)R + e_i rad R for the primitive idempotents
    e_i, each on its reduced echelon rows, flagged prime and maximal, and
    sorted by (dimension, key) as enumerate_ideals(ring).primes is.

    R is the product of the local rings e_j R, and P_i is R with the
    factor e_i R replaced by its maximal ideal e_i rad R, so R/P_i is the
    residue field of e_i R.
    """
    return tuple(ideal for ideal, _ in _maximal_table(ring).values())


def _maximal_table(ring: FiniteAlgebra) -> dict[tuple, tuple[Ideal, np.ndarray]]:
    """key -> (P_i, e_i) in the order of maximal_ideals; cached on the ring."""
    if ring._maximals is None:
        p, rad, found = ring.p, ring.radical_basis(), ring.primitive_idempotents()
        # row j of left[i] is (1 - e_i) e_j, and of right[i] is e_i e_j
        left, right = np.split(ring.products(np.vstack([ring.unit - found, found]) % p,
                                             np.eye(ring.dim, dtype=np.int64)), 2)
        table = {}
        for e, ones, es in zip(found, left, right):
            # the rows span (1 - e)R and e rad R
            key, echelon = _echelon_key(np.vstack([ones, rad.T @ es % p]), p)
            table[key] = (Ideal(ring, np.ascontiguousarray(echelon.T), True, True), e)
        ring._maximals = {key: table[key] for key in sorted(table, key=lambda k: (len(k), k))}
    return ring._maximals


def radical_ideal(ring: FiniteAlgebra) -> Ideal:
    """rad R as an Ideal, on radical_basis(), without the ideal lattice.

    rad R is prime, and then maximal, exactly when R is local, that is
    when R has one primitive idempotent: when the Frobenius fixed space
    E, of dimension m for m local factors, is the line F_p 1.
    """
    local = ring._frobenius_fixed().shape[1] == 1
    return Ideal(ring, ring.radical_basis(), local, local)


def complement_multset(ring: FiniteAlgebra, prime: Ideal) -> MultSet:
    """The multiplicative set R minus a prime ideal, cached on the ring.

    The primes are the P_i of maximal_ideals, and e_S of R minus P_i is
    the primitive idempotent e_i, the one e_j outside P_i
    (dimensions.local_profile has the proof), so the set is built from
    the structure pass alone, keyed by the ideal's subspace key.  Raises
    NotPrime, on every call, when the ideal is not flagged prime or is
    none of the P_i.  The members are listed, in canonical order, only
    when something reads them; their closure is checked then, and a gap
    raises InternalInvariantViolation (it cannot happen for a genuine
    prime).
    """
    if not prime.is_prime:
        raise NotPrime("complement requires a prime ideal, got %s" % prime.label())
    key = prime.key()
    ms = ring._complements.get(key)
    if ms is None:
        found = _maximal_table(ring).get(key)
        if found is None:
            raise NotPrime("ideal %s is not prime: it is none of the maximal ideals"
                           % prime.label())
        maximal, idempotent = found
        ms = ring._complements.setdefault(
            key, _Complement(ring, ring.element(idempotent), maximal))
    return ms


class _Complement(MultSet):
    """R minus a maximal ideal P, from its e_S: the members, which are
    also the seeds, are listed and checked for closure on first read."""

    def __init__(self, ring: FiniteAlgebra, idempotent: RingElement, prime: Ideal):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "idempotent", idempotent)
        object.__setattr__(self, "_prime", prime)

    seeds = property(lambda self: self.elements)
    members = property(lambda self: self.elements)

    def __repr__(self):
        # the dataclass repr would list, and check, every member
        return "MultSet(ring=%r, complement of %s, idempotent=%s)" % (
            self.ring, self._prime.label(), self.idempotent.label())

    @cached_property
    def elements(self) -> tuple[RingElement, ...]:
        ring, prime = self.ring, self._prime
        everything = ring.elements()
        vecs = np.array([e.vec for e in everything], dtype=np.int64)
        # P's basis is its reduced echelon rows: x lies in P exactly when
        # x - x[pivots] E = 0
        block = _membership_block(prime.basis.T, ring.dim)
        outside = (vecs @ block % ring.p).any(axis=1)
        members = tuple(e for e, out in zip(everything, outside) if out)
        try:
            MultSet(ring, members, self.idempotent, members).validate()
        except InputError as exc:
            raise InternalInvariantViolation(
                "R minus %s is not closed: %s" % (prime.label(), exc)) from exc
        return members


# -- quotient rings ---------------------------------------------------------


@dataclass(frozen=True)
class QuotientData:
    """A quotient algebra R/I together with coordinate translation maps.

    proj maps R-coordinates onto quotient coordinates (the map theta on
    coefficient vectors); section picks coset representatives.
    """

    source: FiniteAlgebra
    algebra: FiniteAlgebra
    ideal: Ideal
    proj: np.ndarray      # q x d
    section: np.ndarray   # d x q

    def theta(self, elt: RingElement) -> RingElement:
        return self.algebra.element((self.proj @ elt.array) % self.source.p)

    def theta_multset(self, s: MultSet) -> MultSet:
        return mult_closure(self.algebra, [self.theta(x) for x in s.seeds])


def quotient_algebra(ring: FiniteAlgebra, ideal: Ideal) -> QuotientData:
    """Quotient ring R/I on a complement basis of coset representatives."""
    if ideal.fdim == ring.dim:
        raise InputError("cannot form quotient by the improper ideal")
    p, d, k = ring.p, ring.dim, ideal.fdim
    section, inv = gfmat.complete_basis(ideal.basis, p)
    proj = inv[k:, :]
    q = d - k
    table = (ring.products(section.T, section.T) @ proj.T) % p
    unit = (proj @ ring.unit) % p
    labels = ["q%d" % i for i in range(q)]
    algebra = FiniteAlgebra(p, labels, table, unit)
    return QuotientData(ring, algebra, ideal, proj, section)


# -- JSON wire format --------------------------------------------------------


def is_json_int(x) -> bool:
    """An integer in a parsed JSON document; true and false do not count."""
    return isinstance(x, int) and not isinstance(x, bool)


def multset_to_spec(s_set: MultSet) -> dict:
    return {
        "kind": "multset",
        "seeds": [[int(c) for c in e.array] for e in s_set.elements],
    }


def multset_from_spec(ring: FiniteAlgebra, doc: dict, where: str = "multset") -> MultSet:
    """Parse a multset document; seeds are closed under multiplication."""
    if not isinstance(doc, dict):
        raise InputError("%s: expected an object" % where)
    if doc.get("kind") != "multset":
        raise InputError("%s/kind: expected 'multset', got %r" % (where, doc.get("kind")))
    seeds = doc.get("seeds")
    if not isinstance(seeds, list):
        raise InputError("%s/seeds: expected a list" % where)
    elements = []
    for i, coeffs in enumerate(seeds):
        if not isinstance(coeffs, list) or len(coeffs) != ring.dim:
            raise InputError("%s/seeds[%d]: expected %d coefficients" % (where, i, ring.dim))
        for j, c in enumerate(coeffs):
            if not is_json_int(c):
                raise InputError("%s/seeds[%d][%d]: expected an integer" % (where, i, j))
        elements.append(ring.element([c % ring.p for c in coeffs]))
    return mult_closure(ring, elements)


def ring_to_spec(ring: FiniteAlgebra) -> dict:
    mul = {}
    for i in range(ring.dim):
        for j in range(i, ring.dim):
            key = "%s*%s" % (ring.basis_labels[i], ring.basis_labels[j])
            mul[key] = [int(c) for c in ring.table[i, j]]
    return {
        "kind": "fp_algebra",
        "p": ring.p,
        "basis": list(ring.basis_labels),
        "mul": mul,
        "unit": [int(c) for c in ring.unit],
    }


def ring_from_spec(doc: dict, where: str = "ring") -> FiniteAlgebra:
    """Parse the fp_algebra wire format with pointer-style diagnostics."""
    if not isinstance(doc, dict):
        raise InputError("%s: expected an object" % where)
    if doc.get("kind") != "fp_algebra":
        raise InputError("%s/kind: expected 'fp_algebra', got %r" % (where, doc.get("kind")))
    for key in ("p", "basis", "mul", "unit"):
        if key not in doc:
            raise InputError("%s/%s: missing" % (where, key))
    p = doc["p"]
    if not is_json_int(p):
        raise InputError("%s/p: expected an integer" % where)
    # checked before any entry is reduced mod p
    if p > MAX_CHARACTERISTIC:
        raise CharacteristicTooLarge(p, MAX_CHARACTERISTIC)
    if not _is_prime(p):
        raise NotPrimeChar(p)
    labels = doc["basis"]
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise InputError("%s/basis: expected a list of strings" % where)
    d = len(labels)
    index = {s: i for i, s in enumerate(labels)}
    if len(index) != d:
        raise InputError("%s/basis: labels must be distinct" % where)
    table = np.zeros((d, d, d), dtype=np.int64)
    filled = np.zeros((d, d), dtype=bool)
    if not isinstance(doc["mul"], dict):
        raise InputError("%s/mul: expected an object" % where)
    for key, val in doc["mul"].items():
        if "*" not in key:
            raise InputError("%s/mul/%s: key must look like 'ei*ej'" % (where, key))
        left, right = key.split("*", 1)
        if left not in index or right not in index:
            raise InputError("%s/mul/%s: unknown basis label" % (where, key))
        if (not isinstance(val, list) or len(val) != d
                or not all(map(is_json_int, val))):
            raise InputError("%s/mul/%s: expected a list of %d integers" % (where, key, d))
        i, j = index[left], index[right]
        vec = np.array([c % p for c in val], dtype=np.int64)
        for a, b in ((i, j), (j, i)):
            if filled[a, b] and not np.array_equal(table[a, b], vec):
                raise NonCommutative(a, b, labels)
            table[a, b] = vec
            filled[a, b] = True
    missing = np.argwhere(~filled)
    if missing.size:
        i, j = missing[0]
        raise InputError("%s/mul: missing product %s*%s" % (where, labels[i], labels[j]))
    unit = doc["unit"]
    if (not isinstance(unit, list) or len(unit) != d
            or not all(map(is_json_int, unit))):
        raise InputError("%s/unit: expected a list of %d integers" % (where, d))
    return build_algebra(p, labels, table, [c % p for c in unit])
