"""Deterministic pseudo-randomness for seeded checks.

SplitMix64 is implemented directly so that identical seeds give bit-identical
draws on every interpreter version; reports quote their seed and must
reproduce exactly.
"""

from __future__ import annotations

from .exactalg import Matrix, Scalar

_MASK = (1 << 64) - 1


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi], inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)


def random_scalar(rng: SplitMix64, bound: int) -> Scalar:
    """Gaussian integer entry with both parts in [-bound, bound]."""
    re = rng.randint(-bound, bound)
    im = rng.randint(-bound, bound)
    return Scalar(re, im)


def random_matrix(rng: SplitMix64, rows: int, cols: int, bound: int) -> Matrix:
    return Matrix([[random_scalar(rng, bound) for _ in range(cols)] for _ in range(rows)])


def random_invertible(rng: SplitMix64, n: int, bound: int = 3) -> Matrix:
    while True:
        g = random_matrix(rng, n, n, bound)
        if not g.det().is_zero():
            return g
