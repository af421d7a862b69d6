"""The split search against the hom-space algorithm it replaced.

The reference below is the earlier algorithm: a basis of Hom(target,
source) from the Kronecker system, then one solve per element of S in
canonical order.  The presentation-sized search must agree with it on
verdict, witness and the attempted elements, and every map it returns
must re-verify.
"""

import random

import numpy as np
import pytest

from srelhom import gfmat
from srelhom.dimensions import _split_search
from srelhom.homology import injective_cocover, resolution
from srelhom.instances import bundled_rings, random_module, random_multset
from srelhom.modules import hom_space, subquotient
from srelhom.rings import complement_multset, enumerate_ideals, mult_closure


def reference_search(kind, cover, s_set):
    p = cover.ring.p
    basis = hom_space(cover.target, cover.source)
    if kind == "section":
        mats = [(cover.matrix @ h.matrix) % p for h in basis]
        certified = cover.target
    else:
        mats = [(h.matrix @ cover.matrix) % p for h in basis]
        certified = cover.source
    n = certified.vdim
    coeff = (np.stack([m.reshape(-1) for m in mats], axis=1) if basis
             else gfmat.zeros(n * n, 0))
    tried = []
    for s in s_set:
        if gfmat.solve(coeff, certified.action_of(s).reshape(-1), p) is not None:
            return s, tuple(tried)
        tried.append(s)
    return None, tuple(tried)


def multsets(ring, rng):
    maximals = enumerate_ideals(ring).maximals
    return (
        ("trivial", mult_closure(ring, [])),
        ("prime-complement",
         complement_multset(ring, maximals[rng.randrange(len(maximals))])),
        ("random-closure", random_multset(ring, rng)),
    )


def split_questions(module):
    """Sections at walk levels 0-2 and retractions at cosyzygy levels 0-1."""
    res = resolution(module)
    questions = [("section", res.cover(i)) for i in range(3)]
    current = module
    for _ in range(2):
        iota = injective_cocover(current)
        questions.append(("retraction", iota))
        current, _ = subquotient(iota, "cokernel")
    return questions


RINGS = dict(bundled_rings())


@pytest.mark.parametrize("name", list(RINGS))
def test_split_search_matches_hom_space_reference(name):
    ring = RINGS[name]
    rng = random.Random("split-oracle:%s" % name)
    seen = set()
    for _ in range(6):
        module = random_module(ring, rng)
        for s_kind, s_set in multsets(ring, rng):
            for kind, cover in split_questions(module):
                got = _split_search(kind, cover, s_set)
                assert (got.s, got.attempted) == reference_search(kind, cover, s_set), \
                    (name, s_kind, kind)
                if got.verdict:
                    assert got.verify()
                    assert got.mapping.source is cover.target
                    assert got.mapping.target is cover.source
                seen.add((kind, got.verdict))
    # both kinds are exercised, and something is decided on every ring
    assert {kind for kind, _ in seen} == {"section", "retraction"}
    assert any(verdict for _, verdict in seen)
