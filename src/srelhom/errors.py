"""Named errors raised by the workbench.

Construction errors report the first offending datum (basis triple, pair,
index, ...) so a bad input table can be fixed without guessing.
"""

from __future__ import annotations

__all__ = [
    "WorkbenchError",
    "InputError",
    "NotPrimeChar",
    "CharacteristicTooLarge",
    "NonAssociative",
    "NonCommutative",
    "BadUnit",
    "RingMismatch",
    "NotPrime",
    "NotComposable",
    "NotSExact",
    "NotSIso",
    "MiddleNotCertified",
    "DividesS",
    "UnsupportedPair",
    "UnknownTheorem",
    "InternalInvariantViolation",
]


class WorkbenchError(Exception):
    """Base class for all errors raised by this package."""


class InputError(WorkbenchError, ValueError):
    """Malformed user input (bad table, bad JSON document, bad flag)."""


class NotPrimeChar(InputError):
    def __init__(self, p):
        super().__init__("characteristic %r is not a prime" % (p,))
        self.p = p


class CharacteristicTooLarge(InputError):
    """The characteristic is past the range int64 arithmetic keeps exact."""

    def __init__(self, p, limit):
        super().__init__("characteristic %r exceeds %d, the largest prime p with "
                         "exact int64 arithmetic mod p" % (p, limit))
        self.p = p
        self.limit = limit


class NonAssociative(InputError):
    def __init__(self, i, j, k, labels=None):
        triple = (i, j, k) if labels is None else tuple(labels[t] for t in (i, j, k))
        super().__init__("multiplication table is not associative at %r" % (triple,))
        self.triple = (i, j, k)


class NonCommutative(InputError):
    def __init__(self, i, j, labels=None):
        pair = (i, j) if labels is None else (labels[i], labels[j])
        super().__init__("multiplication table is not commutative at %r" % (pair,))
        self.pair = (i, j)


class BadUnit(InputError):
    def __init__(self, i, labels=None):
        name = i if labels is None else labels[i]
        super().__init__("declared unit fails unit law on basis element %r" % (name,))
        self.index = i


class RingMismatch(InputError):
    """Operands live over different rings."""


class NotPrime(InputError):
    """An ideal expected to be prime is not."""


class NotComposable(InputError):
    """A chain of maps does not compose (target/source mismatch)."""


class NotSExact(WorkbenchError):
    """A sequence required to be S-exact failed the witness search."""


class NotSIso(WorkbenchError):
    """A map required to be an S-isomorphism is not one."""


class MiddleNotCertified(WorkbenchError):
    """Dimension shifting requires the middle term to carry a split witness."""


class DividesS(InputError):
    """The factor element divides an element of the multiplicative set."""


class UnsupportedPair(InputError):
    """change-of-rings got a ring pair it does not support."""


class UnknownTheorem(InputError):
    """verify was asked for an id missing from the registry."""


class InternalInvariantViolation(WorkbenchError):
    """An internal consistency check failed; this is an engine bug."""
