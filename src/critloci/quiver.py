"""Quiver data, dimension vectors, slope pairing, and the framed stability scan."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .exactalg import Scalar


@dataclass(frozen=True)
class Quiver:
    vertex_count: int
    edges: tuple  # (source, target, label) triples

    def __post_init__(self):
        labels = set()
        for s, t, label in self.edges:
            if not (0 <= s < self.vertex_count and 0 <= t < self.vertex_count):
                raise ValueError(f"edge ({s},{t},{label}) leaves the vertex range")
            if label in labels:
                raise ValueError(f"duplicate edge label {label!r}")
            labels.add(label)

    def loops_at(self, vertex: int) -> list:
        return [e for e in self.edges if e[0] == vertex and e[1] == vertex]

    def edges_between(self, source: int, target: int) -> list:
        return [e for e in self.edges if e[0] == source and e[1] == target]

    def to_json(self):
        return {
            "vertex_count": self.vertex_count,
            "edges": [[s, t, label] for s, t, label in self.edges],
        }


@dataclass(frozen=True)
class DimVector:
    """One nonnegative count per vertex; entry 0 is the framing vertex when present."""

    entries: tuple

    def __post_init__(self):
        if any(e < 0 for e in self.entries):
            raise ValueError("dimension vector entries must be nonnegative")

    def __len__(self):
        return len(self.entries)

    def to_json(self):
        return list(self.entries)


@dataclass(frozen=True)
class StabilityParam:
    entries: tuple  # Fractions

    @staticmethod
    def of(values: Sequence) -> "StabilityParam":
        return StabilityParam(tuple(Fraction(v) for v in values))

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class PolystableData:
    """k pairwise-distinct points of affine 3-space with positive multiplicities."""

    points: tuple  # of (Scalar, Scalar, Scalar)
    mults: tuple  # of positive ints

    def __post_init__(self):
        if len(self.points) != len(self.mults) or not self.points:
            raise ValueError("need matching, nonempty point and multiplicity lists")
        if any(m < 1 for m in self.mults):
            raise ValueError("multiplicities must be positive")
        seen = set()
        for p in self.points:
            if len(p) != 3:
                raise ValueError("points live in 3-space")
            key = tuple((c.re, c.im) for c in p)
            if key in seen:
                raise ValueError("points must be pairwise distinct")
            seen.add(key)

    @property
    def k(self) -> int:
        return len(self.points)

    @property
    def n(self) -> int:
        return sum(self.mults)

    def to_json(self):
        return {
            "points": [[c.to_json() for c in p] for p in self.points],
            "mults": list(self.mults),
        }

    @staticmethod
    def from_json(data) -> "PolystableData":
        points = tuple(
            tuple(Scalar.from_json(c) for c in p) for p in data["points"]
        )
        mults = tuple(data["mults"])
        if any(type(m) is not int for m in mults):
            raise ValueError("multiplicities must be integers")
        return PolystableData(points, mults)


def framed_3loop(r: int) -> Quiver:
    """Two vertices (framing vertex 0, loop vertex 1), three loops, r framing arrows."""
    if r < 1:
        raise ValueError("need at least one framing arrow")
    edges = [(1, 1, "A"), (1, 1, "B"), (1, 1, "C")]
    edges += [(0, 1, f"v{j}") for j in range(1, r + 1)]
    return Quiver(2, tuple(edges))


def loop_label(vertex: int, slot: int) -> str:
    """Label of loop number slot (1..3) at a 1-based vertex."""
    return f"e_{vertex}_{slot}"


def ext_quiver(data: PolystableData) -> Quiver:
    """One vertex per summand, three loops each, no arrows between distinct vertices."""
    k = data.k
    edges = []
    for i in range(1, k + 1):
        for m in (1, 2, 3):
            edges.append((i - 1, i - 1, loop_label(i, m)))
    return Quiver(k, tuple(edges))


def pairing(d: DimVector, theta: StabilityParam) -> Fraction:
    if len(d) != len(theta):
        raise ValueError("dimension vector and stability parameter lengths differ")
    total = Fraction(0)
    for a, b in zip(d.entries, theta.entries):
        total += a * b
    return total


def destabilizing_subvector_scan(a: Sequence[int]) -> dict:
    """Brute-force the slope arithmetic behind the framed stable-locus comparison.

    Enumerates every subvector (d_inf, d_1, ..., d_k) with 0 <= d_i <= a_i
    against theta = (n, -1, ..., -1), listing the ones of nonnegative slope
    and confirming that each proper one with d_inf = 1 has strictly positive
    slope (so it can never destabilize the full framed representation).
    """
    a = tuple(int(x) for x in a)
    if any(x < 1 for x in a):
        raise ValueError("multiplicities must be positive")
    n = sum(a)
    theta = StabilityParam.of([n] + [-1] * len(a))
    nonnegative = []
    counterexamples = []
    total = 0
    for d_inf in (0, 1):
        for d_rest in product(*[range(x + 1) for x in a]):
            total += 1
            vec = DimVector((d_inf,) + d_rest)
            slope = pairing(vec, theta)
            if slope >= 0:
                nonnegative.append({"vector": list(vec.entries), "pairing": str(slope)})
            proper = d_inf == 1 and any(d < x for d, x in zip(d_rest, a))
            if proper and slope <= 0:
                counterexamples.append(list(vec.entries))
    full = DimVector((1,) + a)
    return {
        "mults": list(a),
        "theta": [str(t) for t in theta.entries],
        "total_scanned": total,
        "nonnegative": nonnegative,
        "full_vector_pairing": str(pairing(full, theta)),
        "implication_holds": not counterexamples,
        "counterexamples": counterexamples,
    }
