"""Exception hierarchy shared by all hilbsam modules."""

from __future__ import annotations


class HilbsamError(Exception):
    """Base class for all errors raised by this package."""


class InputError(HilbsamError):
    """Malformed user input (problem files, CLI arguments, bad names)."""


class PolySyntaxError(InputError):
    """Polynomial text does not conform to the grammar.

    Carries the 0-based position of the offending character.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(InputError):
    """Polynomial text references a variable not in the ring."""


class MixedRings(HilbsamError):
    """Operands belong to different polynomial rings."""


class ZeroDivisor(HilbsamError):
    """Colon by the zero element requested."""


class ResourceLimit(HilbsamError):
    """A computational budget was exhausted: the Groebner pair budget
    (which also bounds every basis that intersect, colon and saturate build),
    the packed monomial range (PackedRangeExceeded), or a local colength
    that is not finite, or not certified below the cutoff cap
    (NotLocallyFinite)."""


class PackedRangeExceeded(ResourceLimit):
    """A monomial degree left the Groebner engine's packed range (every
    exponent and degree below 2**15)."""


class NotLocallyFinite(ResourceLimit):
    """No finite colength at the origin: the weight-0 local standard basis
    has an infinite staircase (the ideal is not primary to the irrelevant
    maximal ideal locally at the origin), or its top degree t breaks
    t + 2 <= cap, the cutoff cap too small to certify the value."""


class NoPolynomialTail(HilbsamError):
    """Sampled values never became polynomial: request more samples."""


class BoundViolation(HilbsamError):
    """A proven inequality failed; signals a bug."""


class SamplingExhausted(HilbsamError):
    """Random reduction sampling used up its retry budget."""
