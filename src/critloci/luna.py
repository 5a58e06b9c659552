"""Slice analysis at a polystable point of the unframed representation space.

The base point has scalar diagonal blocks, so the infinitesimal conjugation
action, its conjugate-linear complement, and the resulting three-way splitting
of the tangent space can all be computed by exact linear algebra.  The
complement really does use complex conjugation of the point coordinates;
over Gaussian rationals that operation is exact, so the splitting is verified
as an equality of subspaces, never approximately.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError
from .exactalg import (
    Matrix,
    Scalar,
    ZERO,
    form_restrict,
    matrix_from_columns,
)
from .potential import FramedRep, hessian
from .quiver import PolystableData
from .stability import SubspaceBasis


@dataclass(frozen=True)
class SlicePoint:
    """A polystable configuration together with its block-scalar base point."""

    data: PolystableData
    y: FramedRep

    @staticmethod
    def from_data(data: PolystableData) -> "SlicePoint":
        n = data.n
        diag = {0: [], 1: [], 2: []}
        for (a, b, c), mult in zip(data.points, data.mults):
            diag[0].extend([a] * mult)
            diag[1].extend([b] * mult)
            diag[2].extend([c] * mult)
        rep = FramedRep(
            n,
            0,
            Matrix.diagonal(diag[0]),
            Matrix.diagonal(diag[1]),
            Matrix.diagonal(diag[2]),
            Matrix([[] for _ in range(n)]),
        )
        return SlicePoint(data, rep)

    @property
    def n(self) -> int:
        return self.data.n

    def block_of(self, index: int) -> int:
        """Which summand a matrix row/column index belongs to."""
        acc = 0
        for i, m in enumerate(self.data.mults):
            acc += m
            if index < acc:
                return i
        raise IndexError(index)

    def point_of(self, index: int):
        return self.data.points[self.block_of(index)]


@dataclass(frozen=True)
class Decomposition:
    basis_Ya: tuple
    basis_imSigma: tuple
    basis_Yslice: tuple

    @property
    def dims(self):
        return (len(self.basis_Ya), len(self.basis_imSigma), len(self.basis_Yslice))


def sigma_matrix(p: SlicePoint) -> Matrix:
    """Matrix of X -> ([X, A], [X, B], [X, C]) at the block-scalar base point.

    Columns are indexed by the elementary matrices E_pq in row-major order;
    rows by the flattened (A, B, C) coordinates.
    """
    n = p.n
    columns = []
    for a in range(n):
        for b in range(n):
            # for a diagonal M, [E_ab, M] = (M_bb - M_aa) E_ab
            col = [ZERO] * (3 * n * n)
            for slot, m in enumerate((p.y.A.entries, p.y.B.entries, p.y.C.entries)):
                col[_coord(slot, n, a, b)] = m[b][b] - m[a][a]
            columns.append(col)
    return matrix_from_columns(columns, 3 * n * n)


def _coord(slot: int, n: int, i: int, j: int) -> int:
    return slot * n * n + i * n + j


def _perp_constraint_rows(p: SlicePoint) -> list:
    """One linear condition per off-diagonal-block matrix position."""
    n = p.n
    rows = []
    for i in range(n):
        for j in range(n):
            if p.block_of(i) == p.block_of(j):
                continue
            pi, pj = p.point_of(i), p.point_of(j)
            row = [ZERO] * (3 * n * n)
            for slot in range(3):
                row[_coord(slot, n, i, j)] = (pi[slot] - pj[slot]).conj()
            rows.append(row)
    return rows


def im_sigma_perp(p: SlicePoint) -> SubspaceBasis:
    """Solution space of the conjugated linear conditions cutting out the
    complement of the orbit directions."""
    n = p.n
    rows = _perp_constraint_rows(p)
    if not rows:
        basis = tuple(
            tuple(Scalar(1) if t == s else ZERO for t in range(3 * n * n))
            for s in range(3 * n * n)
        )
        return SubspaceBasis(3 * n * n, basis)
    return SubspaceBasis(3 * n * n, tuple(Matrix(rows).kernel_basis()))


def slice_decomposition(p: SlicePoint) -> Decomposition:
    """Exact three-way splitting: diagonal blocks + orbit directions + slice."""
    n = p.n
    total = 3 * n * n
    stabilizer_dim = sum(m * m for m in p.data.mults)

    basis_ya = []
    for slot in range(3):
        for i in range(n):
            for j in range(n):
                if p.block_of(i) == p.block_of(j):
                    vec = [ZERO] * total
                    vec[_coord(slot, n, i, j)] = Scalar(1)
                    basis_ya.append(tuple(vec))

    sigma = sigma_matrix(p)
    _, pivots = sigma._echelon()
    expected_rank = n * n - stabilizer_dim
    if len(pivots) != expected_rank:
        raise ValueError(
            "orbit directions dropped rank; the configuration has coincident points"
        )
    basis_im = [sigma.column(c) for _, c in pivots]

    # the unit vectors of Y_a, as rows, pin every diagonal-block coordinate to zero
    constraint = _perp_constraint_rows(p) + [list(vec) for vec in basis_ya]
    basis_slice = Matrix(constraint).kernel_basis()

    dims = (len(basis_ya), len(basis_im), len(basis_slice))
    if sum(dims) != total:
        raise InternalCheckError(f"splitting dimensions {dims} do not fill {total}")
    stacked = matrix_from_columns(
        list(basis_ya) + list(basis_im) + list(basis_slice), total
    )
    if stacked.rank() != total:
        raise InternalCheckError("three-way splitting is not a direct sum")
    return Decomposition(tuple(basis_ya), tuple(basis_im), tuple(basis_slice))


def slice_hessian_nondegenerate(p: SlicePoint, dec: Decomposition | None = None) -> bool:
    """Restrict the Hessian at the base point to the slice; exact rank test.

    dec is the slice decomposition of p, computed here when not given.
    """
    if dec is None:
        dec = slice_decomposition(p)
    if not dec.basis_Yslice:
        return True
    form = hessian(p.y)
    restricted = form_restrict(form, dec.basis_Yslice)
    return restricted.is_nondegenerate()
