"""Stability of framed representations via cyclic generation, and critical-locus
membership.  All tests are exact zero tests; no tolerances exist here."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactalg import commutator, matrix_from_columns
from .potential import FramedRep, gradient


@dataclass(frozen=True)
class SubspaceBasis:
    ambient_dim: int
    vectors: tuple

    def __post_init__(self):
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise ValueError("basis vector has wrong length")
        if self.vectors:
            stacked = matrix_from_columns(self.vectors, self.ambient_dim)
            if stacked.rank() != len(self.vectors):
                raise ValueError("vectors are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.vectors)


def krylov_closure(rep: FramedRep) -> SubspaceBasis:
    """Smallest subspace containing the framing columns and invariant under A, B, C.

    Saturates the span under left multiplication until the dimension stops
    growing; a vector joins the basis when it raises the rank.  Processing
    order is deterministic (framing columns first, then images under A, B, C
    in that order).
    """
    if rep.r < 1:
        raise ValueError("needs at least one framing vector")
    n = rep.n
    basis = []
    queue = [rep.V.column(j) for j in range(rep.r)]
    head = 0
    while head < len(queue):
        vec = queue[head]
        head += 1
        if matrix_from_columns(basis + [vec], n).rank() == len(basis):
            continue
        basis.append(vec)
        for m in (rep.A, rep.B, rep.C):
            queue.append(m.apply(vec))
    return SubspaceBasis(n, tuple(basis))


def is_stable(rep: FramedRep) -> bool:
    """True iff the framing vectors generate the whole underlying representation."""
    if rep.r < 1:
        raise ValueError("stability needs at least one framing vector")
    return krylov_closure(rep).dim == rep.n


def is_critical(rep: FramedRep) -> bool:
    """True iff A, B, C pairwise commute exactly."""
    return (
        commutator(rep.A, rep.B).is_zero()
        and commutator(rep.B, rep.C).is_zero()
        and commutator(rep.C, rep.A).is_zero()
    )


def _gradient_norm(rep: FramedRep) -> Fraction:
    g = gradient(rep)
    total = Fraction(0)
    for m in (g.G_A, g.G_B, g.G_C):
        for row in m.entries:
            for v in row:
                total += v.re * v.re + v.im * v.im
    return total


def quot_point_check(rep: FramedRep) -> dict:
    """Flags and diagnostics; the point sits on the Quot scheme iff both flags hold."""
    critical = is_critical(rep)
    krylov_dim = krylov_closure(rep).dim if rep.r >= 1 else 0
    stable = rep.r >= 1 and krylov_dim == rep.n
    return {
        "is_critical": critical,
        "is_stable": stable,
        "gradient_norm": str(_gradient_norm(rep)),
        "krylov_dim": krylov_dim,
        "quot_point": critical and stable,
    }
