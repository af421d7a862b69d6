"""Finitely generated modules over Z and Z/m, with S-relative dimensions.

A module is a cokernel presentation: rows index generators, columns index
relations.  Over Z/m the ring relations m*e_i stay implicit in the stored
matrix and are appended on demand; every kernel over Z/m is computed by
lifting to Z and solving x with A@x in m*Z^g, so all arithmetic stays
exact and arbitrary precision.

Multiplicative sets are given by generator lists and never enumerated.
Every S-question here asks whether some s in S is divisible by one
number E: the split modulus below for S-pd, the exponent of the module
for uniform S-torsion, and a for the factor-ring comparison.  Over Z/m,
E divides m, so this is a property of residues.  A generator prime to E
is a unit mod E, so only t_E, the product of the generators g with
gcd(g, E) > 1, matters: some s in S is divisible by E exactly when some
power t_E^n is.  The loop E <- E / gcd(E, t_E) decides this without
factoring.  A prime p with p^a || E and p^b || t_E, b >= 1, loses b from
its exponent at each step, so after n steps what is left is
E / gcd(E, t_E^n).  The loop reaches 1 exactly at the least n with
E | t_E^n, within ceil(log2 E) steps since each step at least halves E,
and the witness is t_E^n, written as a product of the generators.
Otherwise it stalls at a factor E' > 1 of E with gcd(E', t_E) = 1.  Then
E' is prime to every generator, hence to every s in S, so no s in S is
divisible by E' or by E: E' certifies the failure.

Over Z/m, S-pd is 0 or infinite, so the split search at level 0 decides
it.  Z/m is the product of the local Artinian rings Z/p^k over the primes
p | m.  On a factor where p divides some s in S, a power of s lies in S
and is 0 there, so every module splits.  On every other factor S acts by
units, S-pd is the classical pd, and depth 0 makes it 0 or infinite by
Auslander-Buchsbaum; a product of the factors' witnesses is one s for all
of them.  A stalled gcd loop proves that no s in S-bar splits, so the
dimension is infinite, reported as ">bound".  Over Z relation lattices are free, so
S-pd is 0 or 1: a failed level 0 is always followed by level 1, which
splits with s = 1.

Which s split at level 0 is read off the invariant factors.  s*id_M
factors through the free cover exactly when s kills the class of the
cover in Ext^1(M, syzygy), that is when s kills Ext^1(M, -).  Over Z,
Ext^1(Z/d, Z/d) = Z/d, so this holds exactly when the torsion exponent
divides s.  Over Z/p^k the periodic resolution of Z/p^j gives
Ext^1(Z/p^j, N) = ker(p^(k-j) on N) / p^j N, which p^j and p^(k-j)
both kill, and for N = Z/p^j it is Z/p^min(j, k-j); so s splits M
exactly when p^max min(j, k-j) divides s, the max running over the
invariant factors of M.  Across the primes of m this is divisibility
by the split modulus E = lcm over invariant factors d of gcd(d, m/d),
whose p-part is exactly that power.  So the split search at level 0 is
the gcd loop on E: t_E^n is the witness, and a stall at E' proves that
no s in S splits.

The certificate of that s is read off the Smith form U*q*V = D of the
presentation matrix q over Z, with the ring relations m*I appended over
Z/m: the one Smith form that also gives the structure, since every
relation matrix of a module has its invariant factors and free rank.
A section is phi = s*I + q*y with phi*q = 0 (mod m over Z/m).  Put
y = V*Y*U with Y diagonal; then U*phi*q*V = s*D + D*Y*D, so a Y with
s*d + d*Y*d = 0 at each diagonal entry d of D gives one, and Y = 0 at
every d = 0 does.  Over Z that is Y = -s/d at each nonzero d, which
exists exactly when every such d divides s.  Over Z/m every d divides
m, and Y solves d*Y = -s (mod m/d), which exists exactly when
gcd(d, m/d) divides s: the split modulus again.  Over Z the relation
lattice, the first syzygy, is free of rank the number of nonzero d.
No further system is solved.

Ext is read off the invariant factors as well, one pair of cyclic
summands at a time, since Ext is additive in both arguments.  Over Z
write M = Z^a + sum Z/d_i and N = Z^b + sum Z/e_j.  The resolution
0 -> Z -(d)-> Z -> Z/d gives Hom(Z/d, Z/e) = Ext^1(Z/d, Z/e) =
Z/gcd(d, e), Hom(Z/d, Z) = 0 and Ext^1(Z/d, Z) = Z/d, and Z is free.
So Hom(M, N) = Z^(ab) + (Z/e_j)^a + sum Z/gcd(d_i, e_j), Ext^1(M, N) =
(Z/d_i)^b + sum Z/gcd(d_i, e_j), and Ext^n = 0 for n >= 2, Z being
hereditary.  Over Z/m every invariant factor divides m, a free summand
showing as m.  Z/d has the periodic resolution
... -> Z/m -(m/d)-> Z/m -(d)-> Z/m -> Z/d, which Hom(-, Z/e) turns into
Z/e -(d)-> Z/e -(m/d)-> Z/e -(d)-> ...  So Hom(Z/d, Z/e) = Z/gcd(d, e),
and for n >= 1 Ext^n is ker(m/d)/d*(Z/e) in odd degrees and
ker(d)/(m/d)*(Z/e) in even ones.  On Z/e, ker(c) has order gcd(c, e)
and c*(Z/e) has order e/gcd(c, e), so both are cyclic of order
gcd(d, e)*gcd(m/d, e)/e: odd and even degrees agree.  The cyclic orders
are gathered into invariant factors by gcd/lcm insertion into a
divisibility chain, with no Smith form and no factoring.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import intmat
from .dimensions import DimResult, DimValue, dim_add, s_pd
from .errors import (
    DividesS,
    InputError,
    InternalInvariantViolation,
    RingMismatch,
    UnsupportedPair,
)
from .modules import Module, regular_module
from .rings import MultSet, QuotientData, is_json_int, same_ring

RING_TAGS = ("Z", "Z_mod")


def _check_ring_tag(ring, m):
    if ring not in RING_TAGS:
        raise InputError("unknown ring tag %r" % (ring,))
    if ring == "Z":
        if m is not None:
            raise InputError("modulus given for ring Z")
    else:
        if not isinstance(m, int) or m < 2:
            raise InputError("ring Z_mod needs an integer modulus >= 2")


@dataclass(frozen=True)
class ZMod:
    """Cokernel presentation of a module over Z or Z/m.

    rows[i][j] is the coefficient of generator i in relation j; a module
    with no relations has rows of length zero.  Structure invariants
    (free rank, invariant factors) are computed lazily from the Smith
    form of this matrix and cached by _structure.
    """

    ring: str
    m: int | None
    rows: tuple

    def __post_init__(self):
        _check_ring_tag(self.ring, self.m)
        norm = tuple(tuple(int(x) for x in row) for row in self.rows)
        widths = {len(row) for row in norm}
        if len(widths) > 1:
            raise InputError("ragged presentation matrix")
        object.__setattr__(self, "rows", norm)

    @property
    def generators(self) -> int:
        return len(self.rows)

    @property
    def relations(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def structure(self):
        """(free_rank, invariant factors > 1) as an abelian group."""
        lattice = _structure(self)
        return lattice.free, lattice.tors

    def exponent(self) -> int | None:
        """Smallest e > 0 with e*torsion = 0; None when a free part survives."""
        free, tors = self.structure()
        if self.ring == "Z" and free:
            return None
        return tors[-1] if tors else 1

    def is_zero(self) -> bool:
        return self.structure() == (0, ())

    def __str__(self):
        free, tors = self.structure()
        parts = []
        if free:
            base = "Z" if self.ring == "Z" else "Z/%d" % self.m
            parts.append(base if free == 1 else "%s^%d" % (base, free))
        parts.extend("Z/%d" % d for d in tors)
        return " + ".join(parts) if parts else "0"


def z_module(ring: str, rows, m: int | None = None) -> ZMod:
    return ZMod(ring, m, tuple(tuple(row) for row in rows))


def z_cyclic(n: int) -> ZMod:
    """Z/n as a Z-module (n = 0 gives Z)."""
    return ZMod("Z", None, ((n,) if n else (),))


def random_z_module(rng, ring: str = "Z", m: int | None = None,
                    max_gens: int = 3, max_rels: int = 3, span: int = 6) -> ZMod:
    """Random presentation with the given caps; may be zero or free."""
    gens = rng.randrange(1, max_gens + 1)
    rels = rng.randrange(max_rels + 1)
    rows = [[rng.randrange(-span, span + 1) for _ in range(rels)]
            for _ in range(gens)]
    return z_module(ring, rows, m=m)


def z_module_from_factors(ring: str, m: int | None, free_rank: int, torsion) -> ZMod:
    tors = tuple(int(d) for d in torsion)
    width = len(tors)
    rows = [tuple(0 for _ in range(width)) for _ in range(free_rank)]
    rows += [tuple(d if j == i else 0 for j in range(width)) for i, d in enumerate(tors)]
    return ZMod(ring, m, tuple(rows))


def _as_z_module(mod: ZMod) -> ZMod:
    """Reinterpret a Z/m-module as a Z-module (ring relations made explicit)."""
    g = mod.generators
    return ZMod("Z", None, tuple(row + tuple(mod.m if i == j else 0 for j in range(g))
                                 for i, row in enumerate(mod.rows)))


class _Lattice(NamedTuple):
    """A module's presentation over Z and its one verified Smith form.

    z_view is the module over Z with the same relation lattice (ring
    relations m*I appended over Z/m) and q its presentation matrix;
    u*q*v is the Smith form of q, diag its nonzero diagonal entries, and
    (free, tors) the structure read off them.  Matrices are tuples of
    tuples, so a cached entry cannot be changed by its readers.
    """

    u: tuple
    v: tuple
    diag: tuple
    free: int
    tors: tuple
    z_view: ZMod

    @property
    def q(self) -> tuple:
        return self.z_view.rows

    @property
    def rank(self) -> int:
        """The rank of the relation lattice: the nonzero diagonal entries."""
        return len(self.diag)


def _frozen(a) -> tuple:
    return tuple(tuple(row) for row in a)


@lru_cache(maxsize=None)
def _structure(mod: ZMod) -> _Lattice:
    # a Z/m-module and its Z view have one presentation over Z, so they
    # share one cache entry and one Smith form
    if mod.ring == "Z_mod":
        return _structure(_as_z_module(mod))
    u, d, v = intmat.smith_normal_form([list(row) for row in mod.rows])
    diag = tuple(x for x in intmat.diagonal_of(d) if x)
    return _Lattice(_frozen(u), _frozen(v), diag,
                    mod.generators - len(diag), tuple(x for x in diag if x > 1),
                    mod)


# -- multiplicative sets ------------------------------------------------------


@dataclass(frozen=True)
class ZMultSet:
    """Multiplicative set given by nonzero generators; closure implicit."""

    ring: str
    m: int | None
    generators: tuple

    def __post_init__(self):
        _check_ring_tag(self.ring, self.m)
        gens = tuple(int(g) for g in self.generators)
        if self.ring == "Z_mod":
            gens = tuple(g % self.m for g in gens)
        for g in gens:
            if g == 0:
                raise InputError("multiplicative set generators must be nonzero")
        object.__setattr__(self, "generators", gens)

    def __str__(self):
        return "<%s>" % ", ".join(str(g) for g in self.generators)


def z_multset(ring: str, generators, m: int | None = None) -> ZMultSet:
    return ZMultSet(ring, m, tuple(generators))


def _match_rings(mod, s_set):
    if mod.ring != s_set.ring or mod.m != s_set.m:
        raise RingMismatch(
            "module over %s and multiplicative set over %s"
            % (_ring_name(mod.ring, mod.m), _ring_name(s_set.ring, s_set.m)))


def _ring_name(ring, m):
    return "Z" if ring == "Z" else "Z/%d" % m


def _least_power(generators, e):
    """(shared, n, rest) of the gcd loop on e (module docstring).

    shared lists the generators with a prime in common with e, t their
    product, and n the number of steps.  rest is 1 when e divides t^n,
    for the least such n; otherwise it is the factor e' > 1 of e, prime
    to every generator, at which the loop stalled.
    """
    shared = tuple(g for g in generators if math.gcd(g, e) > 1)
    t = math.prod(shared)
    n, rest = 0, e
    while rest > 1:
        g = math.gcd(rest, t)
        if g == 1:
            break
        rest //= g
        n += 1
    return shared, n, rest


def _product_expression(path) -> str:
    if not path:
        return "1"
    counts = Counter()
    seen = []
    for g in path:
        if g not in counts:
            seen.append(g)
        counts[g] += 1
    return "*".join("%d^%d" % (g, counts[g]) if counts[g] > 1 else "%d" % g for g in seen)


# -- uniform torsion ----------------------------------------------------------


@dataclass(frozen=True)
class ZTorsionWitness:
    """Outcome of the gcd loop on the exponent E of the module.

    On success witness is t_E^n, the least power of the product of the
    generators sharing a prime with E that E divides (module docstring),
    as an integer, with its factorization in expression.  explored
    counts the powers t_E^0, ..., t_E^n tried, n + 1.  On failure reason
    names the factor E' > 1 of E, prime to every generator, that
    certifies it.
    """

    verdict: bool
    module: ZMod
    witness: int | None
    expression: str | None
    exponent: int | None
    explored: int
    reason: str = ""


def z_uniform_torsion(mod: ZMod, s_set: ZMultSet) -> ZTorsionWitness:
    _match_rings(mod, s_set)
    free, _ = mod.structure()
    if mod.ring == "Z" and free:
        return ZTorsionWitness(
            False, mod, None, None, None, 0,
            "a free summand survives every nonzero multiplier")
    e = mod.exponent()
    shared, n, rest = _least_power(s_set.generators, e)
    path = shared * n
    if rest == 1:
        return ZTorsionWitness(
            True, mod, math.prod(path), _product_expression(path), e, n + 1)
    return ZTorsionWitness(
        False, mod, None, None, e, n + 1,
        "no product of the generators is divisible by %d: its factor %d is "
        "prime to every generator" % (e, rest))


# -- S-projective dimension ---------------------------------------------------


@dataclass(frozen=True)
class ZSplitWitness:
    """Split search outcome at one syzygy level.

    section is the matrix of a generator-level map phi with pi*phi equal
    to multiplication by s = t_E^n, the witness of the gcd loop on the
    split modulus E (module docstring), a residue over Z/m.  attempted
    is () on success and (t_E^n,) on failure, the power at which the
    loop stalled, and stall is then the factor E' > 1 of E, prime to
    every generator, that certifies the failure (None on success).
    Which s split is read off the invariant factors, and the section of
    that s is read off the Smith form of the presentation, so no search
    solves a system.  The section is one valid choice among many.
    """

    s: int | None
    expression: str | None
    section: tuple | None
    attempted: tuple = ()
    stall: int | None = None

    @property
    def verdict(self) -> bool:
        return self.s is not None


def _split_modulus(mod: ZMod) -> int:
    """The E with: s splits the free cover of mod exactly when E | s.

    Over Z this is the torsion exponent.  Over Z/m it is the lcm of
    gcd(d, m/d) over the invariant factors d, whose p-part is
    p^(max min(j, k-j)) for p^k || m (see the module docstring).
    """
    _, tors = mod.structure()
    if mod.ring == "Z":
        return tors[-1] if tors else 1
    return math.lcm(*(math.gcd(d, mod.m // d) for d in tors))


def _diagonal_solve(diag, s, modulus):
    """The diagonal of Y with s*d + d*Y*d == 0 at each nonzero d in diag,
    or None.

    Over Z (modulus None) Y = -s/d, so every d must divide s.  Over Z/m
    each d divides m, and Y solves d*Y == -s (mod m/d), which needs
    gcd(d, m/d) to divide s; Y is the least such residue.
    """
    ys = []
    for d in diag:
        if modulus is None:
            if s % d:
                return None
            ys.append(-s // d)
            continue
        n = modulus // d
        g = math.gcd(d, n)
        if s % g:
            return None
        ys.append(-s // g * pow(d // g, -1, n // g) % (n // g))
    return ys


def _section_solve(lattice, s, modulus) -> tuple:
    """The section of the cover scaled by s, re-checked.

    A section is phi = s*I + q@y with phi@q == 0 (mod modulus; None =
    exact); q = lattice.q presents a module on len(q) generators, so phi
    is a well-defined section of the free cover scaled by s.  s is a
    multiple of the split modulus, and y = v@Y@u with Y diagonal from
    _diagonal_solve and 0 at the zero entries of d (module docstring).
    """
    q = lattice.q
    g = len(q)
    phi = intmat.zeros(g, g)
    if lattice.rank:
        ys = _diagonal_solve(lattice.diag, s, modulus)
        if ys is None:
            raise InternalInvariantViolation("gcd loop and section solve disagree")
        # Y is zero past the rank, so only that many columns of v enter
        yu = [[y * x for x in row] for y, row in zip(ys, lattice.u)]
        vy = intmat.matmul([row[:lattice.rank] for row in lattice.v], yu)
        phi = intmat.matmul(q, vy)
    for i in range(g):
        phi[i][i] += s
    check = intmat.matmul(phi, q)
    for row in check:
        for x in row:
            if (x % modulus) if modulus else x:
                raise InternalInvariantViolation("solved section fails to kill relations")
    if modulus:
        phi = [[x % modulus for x in row] for row in phi]
    return _frozen(phi)


def z_s_pd(mod: ZMod, s_set: ZMultSet, bound: int = 8) -> DimResult:
    """S-projective dimension by one split search per level.

    The search at level 0 is the gcd loop on the split modulus of the
    module, and a success reads its section off the Smith form of the
    presentation, the one cached with structure(): no system is solved.
    Over Z/m that search decides the value, and a failure is a proof of
    infinity reported as ">bound" (see the module docstring).  Over Z
    the relation lattice is free, so a failure at level 0 is followed by
    level 1, which splits with s = 1, whatever the bound.  The result is
    the DimResult of the finite backend, with levels of ZSplitWitness
    and no cross_check.
    """
    _match_rings(mod, s_set)
    if bound < 0:
        raise InputError("bound must be >= 0")
    lattice = _structure(mod)
    shared, n, rest = _least_power(s_set.generators, _split_modulus(mod))
    s = math.prod(shared) ** n
    if mod.m:
        s %= mod.m
    if rest > 1:
        level0 = ZSplitWitness(None, None, None, (s,), stall=rest)
    else:
        level0 = ZSplitWitness(s, _product_expression(shared * n),
                               _section_solve(lattice, s, mod.m))
    if mod.ring == "Z_mod":
        value = DimValue.exact(0) if level0.verdict else DimValue.over(bound)
        return DimResult("S-pd", mod, s_set, bound, value, (level0,))
    if level0.verdict:
        return DimResult("S-pd", mod, s_set, bound, DimValue.exact(0), (level0,))
    # the relation lattice is free of rank lattice.rank, so s = 1 splits
    # its cover by the identity
    level1 = ZSplitWitness(1, _product_expression(()), _frozen(intmat.identity(lattice.rank)))
    return DimResult("S-pd", mod, s_set, bound, DimValue.exact(1), (level0, level1))


# -- Ext ----------------------------------------------------------------------


def _ring_of(a: ZMod, b: ZMod):
    if a.ring != b.ring or a.m != b.m:
        raise RingMismatch(
            "Ext needs both modules over one ring, got %s and %s"
            % (_ring_name(a.ring, a.m), _ring_name(b.ring, b.m)))
    return a.ring, a.m


def _invariant_factors(orders) -> tuple:
    """Invariant factors (> 1, each dividing the next) of a sum of Z/n.

    Each order x enters the divisibility chain from the top:
    Z/c + Z/x = Z/lcm(c, x) + Z/gcd(c, x), so the top entry becomes the
    lcm, which every entry below still divides, and the gcd moves down.
    What is left at the bottom divides the old bottom entry.
    """
    chain = []
    for x in orders:
        for i in range(len(chain) - 1, -1, -1):
            if x == 1:
                break
            g = math.gcd(chain[i], x)
            chain[i] = chain[i] // g * x
            x = g
        if x > 1:
            chain.insert(0, x)
    return tuple(chain)


def z_ext(source: ZMod, target: ZMod, degree: int) -> ZMod:
    """Ext^degree(source, target) as a module over the common ring.

    Read off the invariant factors of both modules, summand by summand
    (see the module docstring): no lattice is built and no system is
    solved, so the only Smith forms are the cached ones behind
    structure().
    """
    ring, m = _ring_of(source, target)
    if degree < 0:
        raise InputError("negative Ext degree")
    a, ds = source.structure()
    b, es = target.structure()
    if ring == "Z":
        if degree >= 2:
            return z_module_from_factors(ring, m, 0, ())
        if degree == 0:
            free, orders = a * b, [e for e in es for _ in range(a)]
        else:
            free, orders = 0, [d for d in ds for _ in range(b)]
        orders += [math.gcd(d, e) for d in ds for e in es]
    elif degree == 0:
        free, orders = 0, [math.gcd(d, e) for d in ds for e in es]
    else:
        free, orders = 0, [math.gcd(d, e) * math.gcd(m // d, e) // e for d in ds for e in es]
    return z_module_from_factors(ring, m, free, _invariant_factors(orders))


# -- factor ring comparison ---------------------------------------------------


@dataclass(frozen=True)
class FactorRingReport:
    a: int
    s_set: ZMultSet
    bound: int
    z_result: DimResult
    bar_result: DimResult
    verdict: str
    statement: str

    @property
    def ok(self) -> bool:
        return self.verdict != "fail"


def factor_ring_check(a: int, mod: ZMod, s_set: ZMultSet, bound: int = 8) -> FactorRingReport:
    """Compare S-pd over Z with the induced dimension over Z/a.

    The dimension of a Z/a-module M over Z exceeds its dimension over
    Z/a by exactly one, provided no product of the generators of S is
    divisible by a (DividesS otherwise).  A
    uniformly S-torsion module is S-isomorphic to 0, so, like the zero
    module, it is outside the identity's reach: "inapplicable".  ">bound"
    over Z/a is a proof of infinity, where the identity, which assumes a
    finite dimension, does not apply: "vacuous", decided before any
    comparison (over Z the value is 0 or 1, never infinity + 1 = infinity).
    Whether a divides some s in S is the gcd loop on a (module
    docstring); DividesS names the witness t_a^n.
    """
    if not isinstance(a, int) or a < 2:
        raise InputError("factor modulus must be an integer >= 2")
    if mod.ring != "Z_mod" or mod.m != a:
        raise RingMismatch("module must live over Z/%d" % a)
    if s_set.ring != "Z":
        raise RingMismatch("multiplicative set must live over Z")
    shared, n, rest = _least_power(s_set.generators, a)
    if rest == 1:
        raise DividesS("%d divides the product %s" % (a, _product_expression(shared * n)))
    sbar = ZMultSet("Z_mod", a, tuple(g % a for g in s_set.generators))
    bar_result = z_s_pd(mod, sbar, bound)
    z_result = z_s_pd(_structure(mod).z_view, s_set, bound)
    statement = "S-pd over Z = %s vs %s + 1 over Z/%d" % (
        z_result.value, bar_result.value, a)
    if z_uniform_torsion(mod, sbar).verdict:
        # both dimensions degenerate on a module S-isomorphic to 0; the
        # offset identity only speaks about the others
        verdict = "inapplicable"
        kind = "zero module" if mod.is_zero() else "uniformly S-torsion module"
        statement = "%s: %s" % (kind, statement)
    elif not bar_result.value.known:
        verdict = "vacuous"
    else:
        verdict = "pass" if z_result.value.eq(bar_result.value.shift(1)) else "fail"
    return FactorRingReport(a, s_set, bound, z_result, bar_result, verdict, statement)


# -- change of rings ----------------------------------------------------------


@dataclass(frozen=True)
class ChangeOfRingsReport:
    pair: str
    lhs: object
    mid: object
    rhs: object
    verdict: str
    statement: str

    @property
    def ok(self) -> bool:
        return self.verdict != "fail"


def _pull_back_module(data: QuotientData, mod: Module) -> Module:
    """View a module over R/I as a module over R through the projection."""
    if not same_ring(mod.ring, data.algebra):
        raise RingMismatch("module does not live over the quotient algebra")
    src = data.source
    acts = [mod.action_of(data.algebra.element(data.proj[:, i] % src.p))
            for i in range(src.dim)]
    return Module(src, np.array(acts, dtype=np.int64))


def change_of_rings_check(theta, mod, s_set, bound: int = 8) -> ChangeOfRingsReport:
    """Check S-pd_R(M) <= theta(S)-pd_T(M) + S-pd_R(T) along a quotient.

    theta is either an integer a >= 2 (the projection Z -> Z/a, with M a
    Z/a-module and S over Z) or a QuotientData for a finite algebra.
    Any other shape raises UnsupportedPair.  Every value is exact, with
    infinity absorbing the sum, so the verdict is pass or fail.
    """
    if isinstance(theta, bool) or not isinstance(theta, (int, QuotientData)):
        raise UnsupportedPair("theta must be an integer modulus or a finite quotient")
    if isinstance(theta, int):
        a = theta
        if a < 2:
            raise InputError("quotient modulus must be >= 2")
        if not isinstance(mod, ZMod) or mod.ring != "Z_mod" or mod.m != a:
            raise RingMismatch("module must live over Z/%d" % a)
        if not isinstance(s_set, ZMultSet) or s_set.ring != "Z":
            raise RingMismatch("multiplicative set must live over Z")
        if any(g % a == 0 for g in s_set.generators):
            raise DividesS("the projection kills a generator of S")
        induced = ZMultSet("Z_mod", a, tuple(g % a for g in s_set.generators))
        lhs = z_s_pd(_structure(mod).z_view, s_set, bound)
        mid = z_s_pd(mod, induced, bound)
        rhs = z_s_pd(z_cyclic(a), s_set, bound)
        pair = "Z->Z/%d" % a
    else:
        if not isinstance(mod, Module) or not isinstance(s_set, MultSet):
            raise UnsupportedPair("finite quotient needs a finite module and multset")
        if not same_ring(s_set.ring, theta.source):
            raise RingMismatch("multiplicative set must live over the source ring")
        lhs = s_pd(_pull_back_module(theta, mod), s_set, bound)
        mid = s_pd(mod, theta.theta_multset(s_set), bound)
        rhs = s_pd(_pull_back_module(theta, regular_module(theta.algebra)), s_set, bound)
        pair = "finite-quotient"
    verdict = "pass" if lhs.value.le(dim_add(mid.value, rhs.value)) else "fail"
    statement = "S-pd over the source = %s vs %s + %s" % (
        lhs.value, mid.value, rhs.value)
    return ChangeOfRingsReport(pair, lhs, mid, rhs, verdict, statement)


# -- JSON wire format ---------------------------------------------------------


def z_module_to_spec(mod: ZMod) -> dict:
    return {
        "kind": "z_presentation",
        "ring": mod.ring,
        "m": mod.m,
        "matrix": [list(row) for row in mod.rows],
    }


def z_module_from_spec(doc: dict, where: str = "module") -> ZMod:
    if not isinstance(doc, dict):
        raise InputError("%s: expected an object" % where)
    if doc.get("kind") != "z_presentation":
        raise InputError("%s/kind: expected 'z_presentation', got %r" % (where, doc.get("kind")))
    ring = doc.get("ring")
    if ring not in RING_TAGS:
        raise InputError("%s/ring: expected 'Z' or 'Z_mod', got %r" % (where, ring))
    m = doc.get("m")
    matrix = doc.get("matrix")
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise InputError("%s/matrix: expected a list of rows" % where)
    for i, row in enumerate(matrix):
        for j, x in enumerate(row):
            if not is_json_int(x):
                raise InputError("%s/matrix[%d][%d]: expected an integer" % (where, i, j))
    try:
        return ZMod(ring, m, tuple(tuple(r) for r in matrix))
    except InputError as exc:
        raise InputError("%s: %s" % (where, exc)) from None


def z_multset_to_spec(s_set: ZMultSet) -> dict:
    return {"generators": list(s_set.generators)}


def z_multset_from_spec(doc: dict, ring: str = "Z", m: int | None = None,
                        where: str = "multset") -> ZMultSet:
    if not isinstance(doc, dict) or "generators" not in doc:
        raise InputError("%s: expected an object with 'generators'" % where)
    gens = doc["generators"]
    if not isinstance(gens, list):
        raise InputError("%s/generators: expected a list" % where)
    for i, x in enumerate(gens):
        if not is_json_int(x):
            raise InputError("%s/generators[%d]: expected an integer" % (where, i))
    try:
        return ZMultSet(ring, m, tuple(gens))
    except InputError as exc:
        raise InputError("%s: %s" % (where, exc)) from None
