"""Integer jumps at rational locations over one common denominator: the
canonical form shared by the signature jump functions
(`signature.JumpFunction`) and the Upsilon derivative jumps
(`upsilon.PiecewiseLinearFunction`).

It imports no polynomial code, so the Upsilon layer loads without the
polynomial and signature layers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import MAX_DENSE_BREADTH, ValidationError

# a #-sum merges at most this many jumps, so its memory stays bounded (eight
# summands near pq = 99,000 built 779,008 jumps in 307 MB); twice the torus
# limit lets two summands from the top of the admitted range still answer
MAX_JUMPS = 2 * MAX_DENSE_BREADTH


def check_jump_count(total: int) -> None:
    """Refuse a #-sum whose summands hold `total` jumps: ValidationError
    above the limit."""
    if total > MAX_JUMPS:
        raise ValidationError(f"#-sum jump count exceeds the limit {MAX_JUMPS}")


class RationalJumps:
    """Finite set of nonzero integer jumps at rational locations.

    A jump at x = n/N is held as the integer numerator n over one common
    denominator N, sorted by n and reduced so that gcd(N, n_1, ..., n_k) = 1
    (N = 1 when there are no jumps), so every function has exactly one form
    and its arithmetic is integer arithmetic.  Locations become Fractions
    only where they enter (the constructor) or leave (the readers).
    Each subclass admits its jumps in ``_check(den, jumps)``, which gets
    the nonzero jumps sorted by numerator and raises ValidationError for one
    it does not admit.
    """

    __slots__ = ("_den", "_jumps")

    def __init__(self, jumps):
        data = {Fraction(x): int(j) for x, j in dict(jumps).items()}
        den = math.lcm(*(x.denominator for x in data))
        self._store(den, {x.numerator * (den // x.denominator): j for x, j in data.items()})

    @classmethod
    def _over(cls, den: int, jumps: dict):
        """The function with jump jumps[n] at n/den; zero jumps are dropped."""
        out = object.__new__(cls)
        out._store(den, jumps)
        return out

    def _store(self, den: int, jumps: dict) -> None:
        """Check the jumps n/den and keep them in the canonical form."""
        jumps = {n: jumps[n] for n in sorted(jumps) if jumps[n]}
        self._check(den, jumps)
        g = math.gcd(den, *jumps)
        if g > 1:
            den //= g
            jumps = {n // g: j for n, j in jumps.items()}
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_jumps", jumps)

    @classmethod
    def _sum(cls, parts):
        """Sum of functions: one common denominator, one merge, one validation.
        The parts' jump counts are added up as they arrive, before any merge."""
        kept, total = [], 0
        for f in parts:
            total += len(f._jumps)
            check_jump_count(total)
            kept.append(f)
        den = math.lcm(*(f._den for f in kept))
        out: dict[int, int] = {}
        for f in kept:
            k = den // f._den
            for n, j in f._jumps.items():
                n *= k
                out[n] = out.get(n, 0) + j
        return cls._over(den, out)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return self._over, (self._den, self._jumps)

    def _located(self):
        """(location, jump) pairs with each location as a Fraction."""
        return ((Fraction(n, self._den), j) for n, j in self._jumps.items())

    def __bool__(self) -> bool:
        return bool(self._jumps)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._den == other._den
            and self._jumps == other._jumps
        )

    def __hash__(self):
        return hash((self._den, tuple(self._jumps.items())))

    def __add__(self, other):
        return self._sum((self, other))

    def __neg__(self):
        return self._over(self._den, {n: -j for n, j in self._jumps.items()})

    def scale(self, c: int):
        return self._over(self._den, {n: c * j for n, j in self._jumps.items()})

    def __repr__(self):
        inner = ", ".join(f"{x}: {j:+d}" for x, j in self._located())
        return f"{type(self).__name__}({{{inner}}})"
