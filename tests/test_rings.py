"""Algebra construction, ideals, multiplicative sets, wire format."""

import json
import random

import numpy as np
import pytest

from srelhom import gfmat
from srelhom.errors import (
    BadUnit,
    CharacteristicTooLarge,
    InputError,
    NonAssociative,
    NonCommutative,
    NotPrime,
    NotPrimeChar,
)
from srelhom.instances import bundled_rings, random_element
from srelhom.rings import (
    Ideal,
    MultSet,
    build_algebra,
    complement_multset,
    direct_product,
    enumerate_ideals,
    mult_closure,
    prime_field,
    quotient_algebra,
    ring_from_spec,
    ring_to_spec,
    same_ring,
    truncated_polynomial,
)

from conftest import product_ring


def test_prime_field_and_truncated_polynomial():
    k3 = prime_field(3)
    assert k3.dim == 1 and k3.size == 3
    r = truncated_polynomial(2, 3)
    assert r.dim == 3
    t = r.basis_element(1)
    assert (t * t).label() == "t2"
    assert (t * t * t).is_zero()


def test_characteristic_is_capped_at_the_int64_limit():
    # 65521 is the largest prime below 2^16; products of residues and
    # matrix products of them stay exact in int64
    top = prime_field(65521)
    minus_one = top.element([65520])
    assert minus_one * minus_one == top.one
    a = gfmat.mat([[65520, 65519], [3, 65520]], 65521)
    assert np.array_equal((a @ gfmat.inverse(a, 65521)) % 65521, gfmat.identity(2))
    # 65537 is the next prime, and the first characteristic refused
    with pytest.raises(CharacteristicTooLarge) as info:
        prime_field(65537)
    assert info.value.p == 65537 and info.value.limit == 65521
    with pytest.raises(InputError):
        truncated_polynomial(65537, 2)


def test_element_order_is_lexicographic(ring2):
    elems = ring2.elements()
    assert len(elems) == 8
    labels = [e.label() for e in elems[:3]]
    assert labels == ["0", "f", "e2"]
    e1 = ring2.element([1, 0, 0])
    one = ring2.one
    assert e1 < one  # (1,0,0) before (1,1,0)


def test_unit_of_product_ring(ring2):
    assert ring2.unit.tolist() == [1, 1, 0]
    assert ring2.one.label() == "e1+e2"


def test_validation_rejects_bad_inputs():
    with pytest.raises(NotPrimeChar):
        prime_field(6)
    # non-commutative table on two basis elements
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[0, 0] = [1, 0]
    table[0, 1] = [0, 1]
    table[1, 0] = [0, 0]  # x*y != y*x
    table[1, 1] = [0, 0]
    with pytest.raises(NonCommutative):
        build_algebra(2, ["u", "x"], table, [1, 0])
    # commutative but not associative: (x*x)*y = 0 while x*(x*y) = y
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[0, 0] = [0, 1]   # x*x = y
    table[0, 1] = [1, 0]   # x*y = x
    table[1, 0] = [1, 0]
    table[1, 1] = [0, 0]
    with pytest.raises(NonAssociative):
        build_algebra(2, ["x", "y"], table, [1, 0])
    # wrong unit
    table = np.zeros((1, 1, 1), dtype=np.int64)
    table[0, 0] = [1]
    with pytest.raises(BadUnit):
        build_algebra(2, ["e"], table, [0])


def test_radical_of_truncated_polynomial(t2):
    rad = t2.radical_basis()
    assert rad.shape == (2, 1)
    assert rad[:, 0].tolist() == [0, 1]


def test_ideals_of_truncated_polynomial(t2):
    ideals = enumerate_ideals(t2)
    assert len(ideals) == 3
    dims = sorted(i.fdim for i in ideals)
    assert dims == [0, 1, 2]
    assert len(ideals.primes) == 1
    assert len(ideals.maximals) == 1


def test_ideals_of_product_ring(ring2):
    ideals = enumerate_ideals(ring2)
    assert len(ideals) == 6
    dims = sorted(i.fdim for i in ideals)
    assert dims == [0, 1, 1, 2, 2, 3]
    assert len(ideals.maximals) == 2
    assert all(m.is_prime for m in ideals.maximals)
    # (f) is not prime: e1*e2 = 0 lands in it, neither factor does
    f_ideal = [i for i in ideals if i.fdim == 1
               and i.contains(ring2.element([0, 0, 1]))][0]
    assert not f_ideal.is_prime


def test_mult_closure(ring2):
    e1 = ring2.element([1, 0, 0])
    s = mult_closure(ring2, [e1])
    assert s.labels() == ["e1", "e1+e2"]
    assert not s.degenerate
    assert ring2.one in s
    trivial = mult_closure(ring2, [])
    assert len(trivial) == 1
    degen = mult_closure(ring2, [ring2.zero])
    assert degen.degenerate
    assert len(degen) == 2


def all_pairs_closure(ring, seeds):
    """The closure as it was: every pairwise product in every round."""
    current = {ring.one} | set(seeds)
    while True:
        new = {x * y for x in current for y in current} - current
        if not new:
            return tuple(sorted(current))
        current |= new


def test_mult_closure_matches_the_all_pairs_fixpoint():
    rng = random.Random(2718)
    for _, ring in bundled_rings():
        for _ in range(12):
            seeds = [random_element(ring, rng) for _ in range(rng.randrange(4))]
            closed = mult_closure(ring, seeds)
            assert closed.elements == all_pairs_closure(ring, seeds)
            assert closed.degenerate == any(e.is_zero() for e in closed.elements)
            closed.validate()


def test_multset_validate_catches_gaps(ring2):
    e1 = ring2.element([1, 0, 0])
    broken = MultSet(ring2, (e1,), False)  # missing the unit
    with pytest.raises(InputError):
        broken.validate()


def test_complement_multset(ring2):
    ideals = enumerate_ideals(ring2)
    e1 = ring2.element([1, 0, 0])
    for prime in ideals.primes:
        comp = complement_multset(ring2, prime)
        assert len(comp) == 4
        assert ring2.one in comp
        assert (e1 in comp) != prime.contains(e1)
    non_prime = [i for i in ideals if not i.is_prime][0]
    with pytest.raises(NotPrime):
        complement_multset(ring2, non_prime)


def test_complement_multset_is_built_once_per_prime(ring2):
    for prime in enumerate_ideals(ring2).primes:
        comp = complement_multset(ring2, prime)
        # an equal ideal held in another object shares the cached set
        twin = Ideal(ring2, prime.basis.copy(), True, prime.is_maximal)
        assert complement_multset(ring2, twin) is comp
    # (f) flagged prime by hand: its complement is not closed (e1*e2 = 0),
    # and the failure is raised on every call, never cached
    f_ideal = [i for i in enumerate_ideals(ring2) if i.fdim == 1
               and i.contains(ring2.element([0, 0, 1]))][0]
    fake = Ideal(ring2, f_ideal.basis, True, False)
    for _ in range(2):
        with pytest.raises(NotPrime, match="is not prime"):
            complement_multset(ring2, fake)


def test_quotient_algebra(ring2):
    ideals = enumerate_ideals(ring2)
    big = [i for i in ideals.maximals if i.fdim == 2][0]
    q = quotient_algebra(ring2, big)
    assert q.algebra.dim == 1
    assert q.theta(ring2.one).label() != "0"
    # projection then section is the identity on the quotient
    assert np.array_equal((q.proj @ q.section) % 2, np.identity(1, dtype=np.int64))


def test_ring_wire_round_trip(ring2):
    doc = ring_to_spec(ring2)
    blob = json.dumps(doc)
    back = ring_from_spec(json.loads(blob))
    assert same_ring(ring2, back)


def test_ring_from_spec_diagnostics():
    doc = ring_to_spec(truncated_polynomial(2, 2))
    del doc["mul"]["t*t"]
    with pytest.raises(InputError, match="mul"):
        ring_from_spec(doc)
    doc2 = ring_to_spec(prime_field(2))
    doc2["kind"] = "integers"
    with pytest.raises(InputError, match="kind"):
        ring_from_spec(doc2)


def test_direct_product_structure():
    a = direct_product(prime_field(3), prime_field(3))
    assert a.dim == 2
    assert a.size == 9
    ideals = enumerate_ideals(a)
    assert len(ideals) == 4
