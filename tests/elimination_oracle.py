"""The elimination routines critloci used before its single Bareiss kernel.

Kept unchanged as the reference that the differential tests compare the
kernel against: Scalar-object elimination in ``_echelon``, ``det`` and
``inverse``, the plain-int fast path of ``rank`` with its fallback, and the
incremental span tracker of ``krylov_closure``.  Only the class they hang
off (``OracleMatrix``) and the matrix ``solve_exact`` augments are renamed.
"""

from typing import Sequence

from critloci.exactalg import ONE, ZERO, Matrix, Scalar, _to_scalar_row
from critloci.potential import FramedRep
from critloci.stability import SubspaceBasis


class OracleMatrix(Matrix):
    """A Matrix whose elimination methods are the old hand-rolled loops."""

    __slots__ = ()

    def _echelon(self):
        """Fraction-free forward elimination.

        Returns (grid, pivots) where grid is an upper-echelon copy of the
        matrix and pivots is the list of (row, col) pivot positions.  Pivot
        choice is the first row with a nonzero entry, scanning columns left
        to right, which makes the result deterministic.
        """
        grid = [list(row) for row in self.entries]
        pivots = []
        prev = ONE
        r = 0
        for c in range(self.cols):
            pivot_row = None
            for i in range(r, self.rows):
                if not grid[i][c].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            if pivot_row != r:
                grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
            p = grid[r][c]
            for i in range(r + 1, self.rows):
                if grid[i][c].is_zero():
                    # keep the Bareiss rescale so later exact divisions hold
                    for j in range(c + 1, self.cols):
                        if not grid[i][j].is_zero():
                            grid[i][j] = p * grid[i][j] / prev
                    continue
                q = grid[i][c]
                for j in range(c + 1, self.cols):
                    grid[i][j] = (p * grid[i][j] - q * grid[r][j]) / prev
                grid[i][c] = ZERO
            pivots.append((r, c))
            prev = p
            r += 1
            if r == self.rows:
                break
        return grid, pivots

    def _int_grid(self):
        """Plain-int copy of the entries, or None if any entry is not a rational integer."""
        out = []
        for row in self.entries:
            int_row = []
            for v in row:
                if v.im != 0 or v.re.denominator != 1:
                    return None
                int_row.append(v.re.numerator)
            out.append(int_row)
        return out

    def rank(self) -> int:
        ints = self._int_grid()
        if ints is not None:
            try:
                return _int_rank(ints, self.cols)
            except _InexactDivision:
                pass
        return len(self._echelon()[1])

    def det(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        grid = [list(row) for row in self.entries]
        prev = ONE
        sign = 1
        for k in range(self.rows):
            pivot_row = None
            for i in range(k, self.rows):
                if not grid[i][k].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                return ZERO
            if pivot_row != k:
                grid[k], grid[pivot_row] = grid[pivot_row], grid[k]
                sign = -sign
            p = grid[k][k]
            for i in range(k + 1, self.rows):
                q = grid[i][k]
                for j in range(k + 1, self.rows):
                    grid[i][j] = (p * grid[i][j] - q * grid[k][j]) / prev
                grid[i][k] = ZERO
            prev = p
        d = grid[self.rows - 1][self.rows - 1]
        return d if sign > 0 else -d

    def kernel_basis(self) -> list:
        """Exact basis of the right null space, one vector per free column."""
        grid, pivots = self._echelon()
        pivot_cols = [c for _, c in pivots]
        pivot_set = set(pivot_cols)
        free_cols = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for f in free_cols:
            vec = [ZERO] * self.cols
            vec[f] = ONE
            for r in range(len(pivots) - 1, -1, -1):
                c = pivot_cols[r]
                if c > f:
                    continue
                acc = ZERO
                for j in range(c + 1, self.cols):
                    if not vec[j].is_zero() and not grid[r][j].is_zero():
                        acc = acc + grid[r][j] * vec[j]
                if not acc.is_zero():
                    vec[c] = -acc / grid[r][c]
            basis.append(tuple(vec))
        return basis

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        grid = [list(row) + list(Matrix.identity(n).entries[i]) for i, row in enumerate(self.entries)]
        r = 0
        for c in range(n):
            pivot_row = None
            for i in range(r, n):
                if not grid[i][c].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                raise ValueError("matrix is singular")
            grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
            p = grid[r][c]
            grid[r] = [v / p for v in grid[r]]
            for i in range(n):
                if i != r and not grid[i][c].is_zero():
                    q = grid[i][c]
                    grid[i] = [grid[i][j] - q * grid[r][j] for j in range(2 * n)]
            r += 1
        return Matrix([row[n:] for row in grid])


class _InexactDivision(ArithmeticError):
    pass


def _int_rank(grid: list, cols: int) -> int:
    """Bareiss rank over plain Python ints; grid is consumed.

    Every row below the pivot gets the full one-step update, including rows
    with a zero entry in the pivot column: the rescale by the pivot is what
    keeps each entry a bordered minor, so the division by the previous pivot
    stays exact.  Divisibility is asserted; the caller falls back to the
    field elimination if it ever fails.
    """
    rows = len(grid)
    prev = 1
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if grid[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
        p = grid[r][c]
        row_r = grid[r]
        for i in range(r + 1, rows):
            row_i = grid[i]
            q = row_i[c]
            for j in range(c + 1, cols):
                num = p * row_i[j] - q * row_r[j]
                if num % prev:
                    raise _InexactDivision
                row_i[j] = num // prev
            row_i[c] = 0
        prev = p
        r += 1
        if r == rows:
            break
    return r


def solve_exact(a: Matrix, b: Sequence):
    """One exact solution of a*x = b, or None when the system is inconsistent.

    Requires a to have full column rank (solutions, when they exist, are
    unique); found by running the kernel computation on the augmented matrix.
    """
    b = _to_scalar_row(b)
    if len(b) != a.rows:
        raise ValueError("right-hand side has the wrong length")
    augmented = OracleMatrix([list(row) + [bv] for row, bv in zip(a.entries, b)])
    for vec in augmented.kernel_basis():
        t = vec[-1]
        if not t.is_zero():
            return tuple(-v / t for v in vec[:-1])
    return None


class _SpanTracker:
    """Incremental exact span membership via echelonized vectors."""

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows = []  # (pivot_index, vector) with vec[pivot] == 1

    def reduce(self, vec):
        vec = list(vec)
        for pivot, row in self.rows:
            c = vec[pivot]
            if not c.is_zero():
                for j in range(self.ambient):
                    vec[j] = vec[j] - c * row[j]
        return vec

    def add(self, vec) -> bool:
        """Reduce and absorb; returns True when the vector enlarged the span."""
        vec = self.reduce(vec)
        pivot = next((i for i, v in enumerate(vec) if not v.is_zero()), None)
        if pivot is None:
            return False
        inv = vec[pivot]
        vec = [v / inv for v in vec]
        self.rows.append((pivot, vec))
        self.rows.sort(key=lambda pr: pr[0])
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


def krylov_closure(rep: FramedRep) -> SubspaceBasis:
    """Smallest subspace containing the framing columns and invariant under A, B, C.

    Saturates the span under left multiplication until the dimension stops
    growing; processing order is deterministic (framing columns first, then
    images under A, B, C in that order).
    """
    if rep.r < 1:
        raise ValueError("needs at least one framing vector")
    n = rep.n
    tracker = _SpanTracker(n)
    queue = [rep.V.column(j) for j in range(rep.r)]
    head = 0
    while head < len(queue):
        vec = queue[head]
        head += 1
        if not tracker.add(vec):
            continue
        for m in (rep.A, rep.B, rep.C):
            queue.append(m.apply(vec))
    basis = tuple(tuple(row) for _, row in tracker.rows)
    return SubspaceBasis(n, basis)
