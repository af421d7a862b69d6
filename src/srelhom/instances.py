"""Seeded generators for modules, maps, and short chains.

Every generator takes an explicit random.Random so callers control
reproducibility.  Random modules are cokernels of random free maps, which
over a finite ring reaches every finitely generated module up to
isomorphism.  The chain generators produce certified inputs: each one
returns data whose defining property (exactness, S-exactness, splitness,
S-isomorphy) holds by construction, so trial harnesses can feed them to
the checkers without a separate screening pass.
"""

from __future__ import annotations

import random

import numpy as np

from .rings import (
    FiniteAlgebra,
    MultSet,
    RingElement,
    direct_product,
    mult_closure,
    prime_field,
    truncated_polynomial,
)
from .modules import (
    Module,
    ModuleMap,
    direct_sum,
    free_map_from_generator_images,
    free_module,
    image_factorization,
    quotient_by_columns,
    scaling_map,
)

__all__ = [
    "bundled_rings",
    "random_element",
    "random_free_map",
    "random_module",
    "random_multset",
    "s_torsion_module",
    "random_s_exact_triple",
    "random_split_triple",
    "middle_free_triple",
    "random_s_iso",
    "nested_multsets",
]


def bundled_rings() -> tuple:
    """The named ring pool the verification sweeps draw from."""
    return (
        ("F2", prime_field(2)),
        ("F3", prime_field(3)),
        ("F2[t]/(t^2)", truncated_polynomial(2, 2)),
        ("F2[t]/(t^3)", truncated_polynomial(2, 3)),
        ("F2xF2[t]/(t^2)", direct_product(prime_field(2), truncated_polynomial(2, 2),
                                          labels=["e1", "e2", "f"])),
        ("F2xF2", direct_product(prime_field(2), prime_field(2),
                                 labels=["e1", "e2"])),
        ("F3xF3[t]/(t^2)", direct_product(prime_field(3), truncated_polynomial(3, 2),
                                          labels=["e1", "e2", "f"])),
    )


def random_multset(ring: FiniteAlgebra, rng: random.Random,
                   max_seeds: int = 2) -> MultSet:
    """Closure of up to max_seeds random elements; may be degenerate."""
    seeds = [random_element(ring, rng) for _ in range(rng.randrange(max_seeds + 1))]
    return mult_closure(ring, seeds)




def random_element(ring: FiniteAlgebra, rng: random.Random) -> RingElement:
    return ring.element([rng.randrange(ring.p) for _ in range(ring.dim)])


def random_free_map(ring: FiniteAlgebra, rng: random.Random,
                    src_rank: int, tgt_rank: int) -> ModuleMap:
    """A map of free modules with uniformly random generator images."""
    src = free_module(ring, src_rank)
    tgt = free_module(ring, tgt_rank)
    gens = np.zeros((tgt.vdim, src_rank), dtype=np.int64)
    for j in range(src_rank):
        for i in range(tgt.vdim):
            gens[i, j] = rng.randrange(ring.p)
    return free_map_from_generator_images(src, tgt, gens)


def random_module(ring: FiniteAlgebra, rng: random.Random,
                  max_rank: int = 3) -> Module:
    """Cokernel of a random free map; may be free, torsion, or mixed."""
    tgt_rank = rng.randint(1, max_rank)
    src_rank = rng.randint(0, max_rank + 1)
    f = random_free_map(ring, rng, src_rank, tgt_rank)
    quot, _, _ = quotient_by_columns(f.target, f.matrix)
    return quot


def s_torsion_module(ring: FiniteAlgebra, s: RingElement,
                     rng: random.Random, max_rank: int = 2) -> Module:
    """A module killed by s: the cokernel of s acting on a random module."""
    base = random_module(ring, rng, max_rank)
    quot, _, _ = quotient_by_columns(base, base.action_of(s))
    return quot


def _random_submodule_inclusion(mod: Module, rng: random.Random,
                                gens: int) -> ModuleMap:
    free = free_module(mod.ring, gens)
    images = np.zeros((mod.vdim, gens), dtype=np.int64)
    for j in range(gens):
        for i in range(mod.vdim):
            images[i, j] = rng.randrange(mod.ring.p)
    f = free_map_from_generator_images(free, mod, images)
    sub, incl, _ = image_factorization(f)
    return incl


def random_s_exact_triple(ring: FiniteAlgebra, s_set: MultSet,
                          rng: random.Random, max_rank: int = 2
                          ) -> tuple[ModuleMap, ModuleMap]:
    """An S-exact 0 -> A -> B -> C -> 0, S-exact by construction.

    Starts from a genuinely exact submodule/quotient pair and then,
    depending on the drawn variant, scales the injection by some s in S
    or pads one term with a uniformly S-torsion direct summand.  Each
    modification preserves S-exactness with the chosen s as witness.
    """
    mid = random_module(ring, rng, max_rank)
    incl = _random_submodule_inclusion(mid, rng, rng.randint(1, max_rank))
    quot, proj, _ = quotient_by_columns(mid, incl.matrix)
    f, g = incl, proj
    variant = rng.choice(["exact", "scaled", "pad-middle", "pad-sub", "pad-quot"])
    if variant == "exact":
        return f, g
    s = rng.choice(list(s_set.elements))
    if variant == "scaled":
        return scaling_map(mid, s).compose(f), g
    tors = s_torsion_module(ring, s, rng, 1)
    if variant == "pad-middle":
        # B' = B + T with g killing T; Ker g' = Ker g + T stays inside
        # Im f up to multiplication by s.
        total, (inj_b, _), (pr_b, _) = direct_sum(mid, tors)
        f2 = inj_b.compose(f)
        g2 = g.compose(pr_b)
        return f2, g2
    if variant == "pad-sub":
        total, (inj_a, _), (pr_a, _) = direct_sum(f.source, tors)
        return f.compose(pr_a), g
    total, (inj_c, _), _ = direct_sum(quot, tors)
    return f, inj_c.compose(g)


def random_split_triple(ring: FiniteAlgebra, s_set: MultSet,
                        rng: random.Random, max_rank: int = 2
                        ) -> tuple[ModuleMap, ModuleMap, ModuleMap]:
    """A direct-sum triple 0 -> A -> A + C -> C -> 0 plus a retraction.

    The returned retraction r satisfies r . f = s Id_A exactly, where s
    is drawn from S (s = 1 gives the classically split case).
    """
    a = random_module(ring, rng, max_rank)
    c = random_module(ring, rng, max_rank)
    total, (inj_a, inj_c), (pr_a, pr_c) = direct_sum(a, c)
    s = rng.choice(list(s_set.elements))
    retraction = scaling_map(a, s).compose(pr_a)
    return inj_a, pr_c, retraction


def middle_free_triple(ring: FiniteAlgebra, rng: random.Random,
                       max_rank: int = 2) -> tuple[ModuleMap, ModuleMap]:
    """A genuinely exact 0 -> K -> F -> M -> 0 with F free."""
    from .homology import resolution

    mod = random_module(ring, rng, max_rank)
    res = resolution(mod)
    return res.inclusion(1), res.cover(0)


def random_s_iso(ring: FiniteAlgebra, s_set: MultSet,
                 rng: random.Random, max_rank: int = 2
                 ) -> tuple[ModuleMap, RingElement]:
    """An S-isomorphism built as (pad in torsion) . (kill torsion submodule).

    Returns (f, s) where s kills both Ker f and Coker f.
    """
    mod = random_module(ring, rng, max_rank)
    s = rng.choice(list(s_set.elements))
    # submodule of the s-annihilator: any subspace of Ker(act s) closed
    # under the action works; the image of a random endomorphism of that
    # kernel under inclusion is the easy certified choice.
    from . import gfmat

    ann = gfmat.nullspace(mod.action_of(s), ring.p)
    cols = [ann[:, j] for j in range(ann.shape[1]) if rng.random() < 0.5]
    killed = np.stack(cols, axis=1) if cols else gfmat.zeros(mod.vdim, 0)
    # close under the ring action by appending images under the basis muls
    span = killed
    for b in range(ring.dim):
        act = mod.action_of(ring.basis_element(b))
        span = np.hstack([span, (act @ killed) % ring.p])
    quot, proj, _ = quotient_by_columns(mod, span)
    tors = s_torsion_module(ring, s, rng, 1)
    total, (inj_q, _), _ = direct_sum(quot, tors)
    return inj_q.compose(proj), s


def nested_multsets(ring: FiniteAlgebra, rng: random.Random
                    ) -> tuple[MultSet, MultSet]:
    """A nested pair (small, large) of generated multiplicative sets."""
    pool = [random_element(ring, rng) for _ in range(3)]
    k = rng.randint(0, len(pool))
    small = mult_closure(ring, pool[:k])
    large = mult_closure(ring, pool)
    return small, large
