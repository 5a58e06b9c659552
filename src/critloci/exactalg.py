"""Exact arithmetic kernel: Gaussian-rational scalars, dense matrices,
sparse multivariate polynomials, and symmetric quadratic forms.

Everything here is exact; there are no floats and no tolerances anywhere.
All linear algebra runs through one elimination kernel, Matrix._echelon: a
fraction-free (Bareiss) pass over Gaussian integers held as int pairs, with
deterministic pivoting (first nonzero entry in column order).  Rank, kernel,
determinant, inverse and solve derive from its echelon form, and every basis
they return is canonical, so identical inputs always produce identical bases.
"""

from __future__ import annotations

import re as _re
from bisect import bisect_left
from fractions import Fraction
from functools import cmp_to_key
from math import lcm, prod
from typing import Iterable, Sequence

from .errors import InternalCheckError


class Scalar:
    """A Gaussian rational a + b*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @staticmethod
    def coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        raise TypeError(f"cannot coerce {value!r} to Scalar")

    @staticmethod
    def _lift(value):
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        return None

    def __add__(self, other):
        other = Scalar._lift(other)
        if other is None:
            return NotImplemented
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = Scalar._lift(other)
        if other is None:
            return NotImplemented
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = Scalar._lift(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        other = Scalar._lift(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return Scalar(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.coerce(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Scalar")
        a, b, c, d = self.re, self.im, other.re, other.im
        return Scalar((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        return Scalar.coerce(other).__truediv__(self)

    def conj(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def norm(self) -> "Scalar":
        """s * conj(s); always has zero imaginary part and re >= 0."""
        return Scalar(self.re * self.re + self.im * self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real Scalar equals its Fraction, so it must hash like one
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self):
        return f"Scalar({self})"

    def to_json(self):
        if self.im == 0:
            return str(self.re)
        return {"re": str(self.re), "im": str(self.im)}

    @staticmethod
    def from_json(data) -> "Scalar":
        if isinstance(data, dict):
            return Scalar(_fraction(data.get("re", 0)), _fraction(data.get("im", 0)))
        if isinstance(data, int):
            return Scalar(data)
        if isinstance(data, str):
            return Scalar.parse(data)
        raise ValueError(f"cannot read Scalar from {data!r}")

    _PATTERN = _re.compile(
        r"^\s*(?P<re>[+-]?\d+(?:/\d+)?)?\s*"
        r"(?P<im>[+-]\s*\d+(?:/\d+)?|[+-])?\s*(?P<i>i)?\s*$"
    )

    @staticmethod
    def parse(text: str) -> "Scalar":
        """Parse "p/q", "a+bi", "-i", "2i" and friends."""
        m = Scalar._PATTERN.match(text)
        if not m or (m.group("im") and not m.group("i")):
            raise ValueError(f"cannot parse Scalar from {text!r}")
        re_part, im_part, has_i = m.group("re"), m.group("im"), m.group("i")
        if has_i:
            if im_part is None:
                # forms like "i", "2i", "-1/2i": the 're' capture is the im part
                im_part, re_part = (re_part or "+"), None
            im_part = im_part.replace(" ", "")
            if im_part in ("+", "-"):
                im_part += "1"
            return Scalar(_fraction(re_part) if re_part else 0, _fraction(im_part))
        if re_part is None:
            raise ValueError(f"cannot parse Scalar from {text!r}")
        return Scalar(_fraction(re_part))


def _fraction(value) -> Fraction:
    """Fraction(value), reporting a zero denominator as malformed input."""
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


ZERO = Scalar(0)
ONE = Scalar(1)


def _to_scalar_row(row) -> tuple:
    return tuple(Scalar.coerce(v) for v in row)


class Matrix:
    """Dense matrix over Scalar. Immutable after construction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        grid = tuple(_to_scalar_row(row) for row in entries)
        if not grid:
            raise ValueError("matrix needs at least one row")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("ragged rows in matrix")
        self.rows = len(grid)
        self.cols = width
        self.entries = grid

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix([[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def unit(n: int, i: int, j: int) -> "Matrix":
        """The elementary matrix with a single 1 in position (i, j)."""
        return Matrix([[ONE if (r, c) == (i, j) else ZERO for c in range(n)] for r in range(n)])

    @staticmethod
    def diagonal(values: Sequence) -> "Matrix":
        vals = _to_scalar_row(values)
        n = len(vals)
        return Matrix([[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def block_diagonal(blocks: Sequence["Matrix"]) -> "Matrix":
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        grid = [[ZERO] * cols for _ in range(rows)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    grid[r0 + i][c0 + j] = b.entries[i][j]
            r0 += b.rows
            c0 += b.cols
        return Matrix(grid)

    @staticmethod
    def vstack(blocks: Sequence["Matrix"]) -> "Matrix":
        cols = blocks[0].cols
        if any(b.cols != cols for b in blocks):
            raise ValueError("vstack needs equal column counts")
        return Matrix([row for b in blocks for row in b.entries])

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other):
        self._check_same_shape(other)
        return Matrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other):
        self._check_same_shape(other)
        return Matrix(
            [
                [self.entries[i][j] - other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __neg__(self):
        return Matrix([[-v for v in row] for row in self.entries])

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = ZERO
                for k in range(self.cols):
                    a = self.entries[i][k]
                    if a.is_zero():
                        continue
                    acc = acc + a * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return Matrix(out)

    def scale(self, s) -> "Matrix":
        s = Scalar.coerce(s)
        return Matrix([[s * v for v in row] for row in self.entries])

    def transpose(self) -> "Matrix":
        return Matrix([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def conj(self) -> "Matrix":
        return Matrix([[v.conj() for v in row] for row in self.entries])

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(v.is_zero() for row in self.entries for v in row)

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def apply(self, vec: Sequence) -> tuple:
        vec = _to_scalar_row(vec)
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(
            sum(
                (self.entries[i][k] * vec[k] for k in range(self.cols) if vec[k]),
                start=ZERO,
            )
            for i in range(self.rows)
        )

    # -- elimination ---------------------------------------------------

    def _echelon(self):
        """The elimination kernel: one fraction-free pass over Gaussian integers.

        Each row is scaled by the lcm of its denominators, so it holds
        Gaussian integers, kept as plain-int grids of real and imaginary
        parts; zero rows are left out.  One Bareiss pass (Bareiss 1968) then
        clears each pivot column; every entry stays a minor of the scaled
        matrix, so each division by the previous pivot is exact, and a
        remainder raises InternalCheckError.  The pivot is the first row with
        a nonzero entry, scanning columns left to right, so the pivot columns
        are the leftmost independent columns.  A row swap negates the row
        moved down, which keeps the determinant: on a square matrix of full
        rank the last pivot is the determinant of the scaled matrix.

        Returns ((re, im), pivots): the echelon form as its two int grids and
        the list of (row, col) pivot positions.
        """
        re, im = [], []
        for row in self.entries:
            scale = _row_scale(row)
            row_re = [v.re.numerator * (scale // v.re.denominator) for v in row]
            row_im = [v.im.numerator * (scale // v.im.denominator) for v in row]
            if any(row_re) or any(row_im):  # a zero row takes no part
                re.append(row_re)
                im.append(row_im)
        rows = len(re)
        # real input stays real, and its row update skips the imaginary parts
        real = not any(map(any, im))
        pivots = []
        # history[k] is the pivot of step k, after history[0] = 1.  A step
        # only multiplies a row with a zero in its pivot column by the pivot
        # over the previous pivot, and over several steps these factors
        # telescope, so such a row is left as it is: with since[i] = s, the
        # values of row i after k steps are its stored values times
        # history[k] / history[s], and the row is brought up to date only
        # when a step needs its values.
        history = [(1, 0)]
        since = [0] * rows
        r = 0
        for c in range(self.cols):
            if r == rows:
                break
            pivot_row = next((i for i in range(r, rows) if re[i][c] or im[i][c]), None)
            if pivot_row is None:
                continue
            if pivot_row != r:
                re[r], re[pivot_row] = re[pivot_row], [-v for v in re[r]]
                im[r], im[pivot_row] = im[pivot_row], [-v for v in im[r]]
                since[r], since[pivot_row] = since[pivot_row], since[r]
            step = len(pivots)
            prev_re, prev_im = history[step]
            _catch_up(re[r], im[r], c, history[step], history[since[r]])
            p_re, p_im = re[r][c], im[r][c]
            top_re, top_im = re[r][c + 1 :], im[r][c + 1 :]
            # (p*a - q*t) / prev, computed as (p'*a - q'*t) / |prev|^2 with
            # p' = p * conj(prev) and q' = q * conj(prev)
            norm = prev_re * prev_re + prev_im * prev_im
            pc_re, pc_im = p_re * prev_re + p_im * prev_im, p_im * prev_re - p_re * prev_im
            for i in range(r + 1, rows):
                row_re, row_im = re[i], im[i]
                if not (row_re[c] or row_im[c]):
                    continue
                _catch_up(row_re, row_im, c, history[step], history[since[i]])
                since[i] = step + 1
                q_re, q_im = row_re[c], row_im[c]
                if real:
                    row_re[c + 1 :] = _exact_quotients(
                        [p_re * a - q_re * t for a, t in zip(row_re[c + 1 :], top_re)], prev_re
                    )
                else:
                    qc_re, qc_im = q_re * prev_re + q_im * prev_im, q_im * prev_re - q_re * prev_im
                    tail = list(zip(row_re[c + 1 :], row_im[c + 1 :], top_re, top_im))
                    row_re[c + 1 :] = _exact_quotients(
                        [pc_re * a - pc_im * b - qc_re * s + qc_im * t for a, b, s, t in tail], norm
                    )
                    row_im[c + 1 :] = _exact_quotients(
                        [pc_re * b + pc_im * a - qc_re * t - qc_im * s for a, b, s, t in tail], norm
                    )
                row_re[c] = row_im[c] = 0
            pivots.append((r, c))
            history.append((p_re, p_im))
            r += 1
        return (re, im), pivots

    def rank(self) -> int:
        return len(self._echelon()[1])

    def det(self) -> Scalar:
        """The last pivot of the kernel over the product of the row scales."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        (re, im), pivots = self._echelon()
        if len(pivots) < self.rows:
            return ZERO
        return Scalar(re[-1][-1], im[-1][-1]) / prod(_row_scale(row) for row in self.entries)

    def kernel_basis(self) -> list:
        """Exact basis of the right null space, one vector per free column.

        The vector of free column f has 1 at f and 0 at every other free column.
        """
        grid, pivots = self._echelon()
        return _kernel_from_echelon(grid, pivots, self.cols)

    def inverse(self) -> "Matrix":
        """Read off the kernel of [M | I]: its vector for column n + j is
        (-M^-1 e_j, e_j).  M is singular exactly when a pivot lands in I."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        unit = Matrix.identity(n).entries
        augmented = Matrix([list(row) + list(e) for row, e in zip(self.entries, unit)])
        grid, pivots = augmented._echelon()
        if pivots[-1][1] >= n:
            raise ValueError("matrix is singular")
        columns = _kernel_from_echelon(grid, pivots, 2 * n)
        return Matrix([[-col[i] for col in columns] for i in range(n)])

    def to_json(self):
        return [[v.to_json() for v in row] for row in self.entries]

    @staticmethod
    def from_json(data) -> "Matrix":
        return Matrix([[Scalar.from_json(v) for v in row] for row in data])

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def _row_scale(row) -> int:
    """The lcm of the denominators in a row of Scalars."""
    return lcm(*(v.re.denominator for v in row), *(v.im.denominator for v in row))


def _catch_up(row_re: list, row_im: list, c: int, num: tuple, den: tuple) -> None:
    """Multiply the row from column c on by the Gaussian-integer quotient
    num / den, in place; the product is the row as an eager Bareiss pass
    would hold it, so every division is exact."""
    if num == den:
        return
    # num / den = num * conj(den) / |den|^2
    (n_re, n_im), (d_re, d_im) = num, den
    m_re, m_im = n_re * d_re + n_im * d_im, n_im * d_re - n_re * d_im
    norm = d_re * d_re + d_im * d_im
    pairs = list(zip(row_re[c:], row_im[c:]))
    row_re[c:] = _exact_quotients([a * m_re - b * m_im for a, b in pairs], norm)
    row_im[c:] = _exact_quotients([a * m_im + b * m_re for a, b in pairs], norm)


def _exact_quotients(values: list, divisor: int) -> list:
    """Each value divided by divisor; in fraction-free elimination every such
    division is exact, so a remainder means a broken invariant."""
    if divisor == 1:
        return values
    if divisor == -1:  # the usual pivot of a sparse 0/1 matrix
        return [-v for v in values]
    if any([v % divisor for v in values]):
        raise InternalCheckError("inexact division in fraction-free elimination")
    return [v // divisor for v in values]


def _kernel_from_echelon(grid, pivots, cols: int) -> list:
    """Kernel basis of an echelon form from Matrix._echelon, by fraction-free
    back-substitution.

    For free column f, let D be the last pivot left of f.  By Cramer's rule D
    times the kernel vector of f is a Gaussian-integer vector y, so each
    back-substitution step is an exact division; the vector is y / D.
    """
    re, im = grid
    pivot_cols = [c for _, c in pivots]
    pivot_set = set(pivot_cols)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        vec = [ZERO] * cols
        vec[f] = ONE
        k = bisect_left(pivot_cols, f)
        if k:
            d_re, d_im = re[k - 1][pivot_cols[k - 1]], im[k - 1][pivot_cols[k - 1]]
            known = [(f, d_re, d_im)]  # (column j, y_j) for the nonzero y_j
            for r in range(k - 1, -1, -1):
                row_re, row_im = re[r], im[r]
                s_re = s_im = 0
                for j, y_re, y_im in known:
                    a, b = row_re[j], row_im[j]
                    s_re += a * y_re - b * y_im
                    s_im += a * y_im + b * y_re
                if s_re or s_im:
                    # y_c = -s / p, computed as -s * conj(p) / |p|^2
                    c = pivot_cols[r]
                    p_re, p_im = row_re[c], row_im[c]
                    y_re, y_im = _exact_quotients(
                        [-(s_re * p_re + s_im * p_im), s_re * p_im - s_im * p_re],
                        p_re * p_re + p_im * p_im,
                    )
                    known.append((c, y_re, y_im))
            d = Scalar(d_re, d_im)
            for j, y_re, y_im in known[1:]:
                vec[j] = Scalar(y_re, y_im) / d
        basis.append(tuple(vec))
    return basis


def solve_exact(a: Matrix, b: Sequence):
    """One exact solution of a*x = b, or None when the system is inconsistent.

    Requires a to have full column rank (solutions, when they exist, are
    unique); found by running the kernel computation on the augmented matrix.
    """
    b = _to_scalar_row(b)
    if len(b) != a.rows:
        raise ValueError("right-hand side has the wrong length")
    augmented = Matrix([list(row) + [bv] for row, bv in zip(a.entries, b)])
    for vec in augmented.kernel_basis():
        t = vec[-1]
        if not t.is_zero():
            return tuple(-v / t for v in vec[:-1])
    return None


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """AB - BA for square matrices of equal size."""
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ValueError("commutator needs square matrices of equal size")
    return a @ b - b @ a


def matrix_from_columns(columns: Sequence[Sequence], length: int) -> Matrix:
    if not columns:
        raise ValueError("need at least one column")
    return Matrix([[Scalar.coerce(col[i]) for col in columns] for i in range(length)])


# -- quadratic forms ----------------------------------------------------


class QuadraticForm:
    """A symmetric Gram matrix; evaluation at v is v^T * gram * v."""

    __slots__ = ("dim", "gram")

    def __init__(self, gram: Matrix):
        if gram.rows != gram.cols:
            raise ValueError("Gram matrix must be square")
        if gram != gram.transpose():
            raise ValueError("Gram matrix must be symmetric")
        self.dim = gram.rows
        self.gram = gram

    def evaluate(self, vec: Sequence) -> Scalar:
        vec = _to_scalar_row(vec)
        if len(vec) != self.dim:
            raise ValueError("vector length does not match form dimension")
        acc = ZERO
        for i, vi in enumerate(vec):
            if vi.is_zero():
                continue
            row = self.gram.entries[i]
            for j, vj in enumerate(vec):
                if not vj.is_zero() and not row[j].is_zero():
                    acc = acc + vi * row[j] * vj
        return acc

    def pair(self, u: Sequence, v: Sequence) -> Scalar:
        """The symmetric bilinear pairing u^T * gram * v."""
        u = _to_scalar_row(u)
        gv = self.gram.apply(v)
        acc = ZERO
        for ui, wi in zip(u, gv):
            if not ui.is_zero() and not wi.is_zero():
                acc = acc + ui * wi
        return acc

    def in_radical(self, vec: Sequence) -> bool:
        return all(v.is_zero() for v in self.gram.apply(vec))

    def rank(self) -> int:
        return self.gram.rank()

    def is_nondegenerate(self) -> bool:
        return self.rank() == self.dim


def form_restrict(q: QuadraticForm, subspace: Sequence[Sequence]) -> QuadraticForm:
    """Gram matrix of q restricted to the span of the given basis vectors."""
    vectors = [_to_scalar_row(v) for v in subspace]
    if not vectors:
        raise ValueError("restriction basis is empty")
    for v in vectors:
        if len(v) != q.dim:
            raise ValueError("basis vector length does not match form dimension")
    span = matrix_from_columns(vectors, q.dim)
    if span.rank() != len(vectors):
        raise ValueError("restriction basis is linearly dependent")
    # u^T G v as a sum over the supports of u and v, which are small in practice
    supports = [[(k, x) for k, x in enumerate(v) if x] for v in vectors]
    g = q.gram.entries
    gram = []
    for su in supports:
        row = []
        for sv in supports:
            acc = ZERO
            for i, x in su:
                for k, y in sv:
                    if g[i][k]:
                        acc = acc + x * g[i][k] * y
            row.append(acc)
        gram.append(row)
    return QuadraticForm(Matrix(gram))


# -- sparse multivariate polynomials ------------------------------------


def _drl_cmp(a: tuple, b: tuple) -> int:
    """Degrevlex comparison; returns positive when a is the larger monomial."""
    da, db = sum(a), sum(b)
    if da != db:
        return 1 if da > db else -1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x < y else -1
    return 0


class Poly:
    """Sparse multivariate polynomial over Scalar with a fixed variable order."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms=None):
        self.variables = tuple(variables)
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = Scalar.coerce(coeff)
                if len(exps) != len(self.variables):
                    raise ValueError("exponent vector length does not match variables")
                if not coeff.is_zero():
                    key = tuple(exps)
                    if key in clean:
                        total = clean[key] + coeff
                        if total.is_zero():
                            del clean[key]
                        else:
                            clean[key] = total
                    else:
                        clean[key] = coeff
        self.terms = clean

    @staticmethod
    def zero(variables) -> "Poly":
        return Poly(variables)

    @staticmethod
    def const(variables, value) -> "Poly":
        value = Scalar.coerce(value)
        n = len(tuple(variables))
        return Poly(variables, {(0,) * n: value} if not value.is_zero() else None)

    @staticmethod
    def var(variables, name) -> "Poly":
        variables = tuple(variables)
        idx = variables.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return Poly(variables, {exps: ONE})

    def _check_ring(self, other: "Poly"):
        if self.variables != other.variables:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Poly.const(self.variables, other)
        self._check_ring(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            if exps in terms:
                total = terms[exps] + coeff
                if total.is_zero():
                    del terms[exps]
                else:
                    terms[exps] = total
            else:
                terms[exps] = coeff
        out = Poly.__new__(Poly)
        out.variables = self.variables
        out.terms = terms
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Poly.const(self.variables, other)
        return self.__add__(-other)

    def __neg__(self):
        out = Poly.__new__(Poly)
        out.variables = self.variables
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            s = Scalar.coerce(other)
            if s.is_zero():
                return Poly.zero(self.variables)
            out = Poly.__new__(Poly)
            out.variables = self.variables
            out.terms = {e: c * s for e, c in self.terms.items()}
            return out
        self._check_ring(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                if key in terms:
                    total = terms[key] + c
                    if total.is_zero():
                        del terms[key]
                    else:
                        terms[key] = total
                else:
                    terms[key] = c
        out = Poly.__new__(Poly)
        out.variables = self.variables
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def derivative(self, name: str) -> "Poly":
        idx = self.variables.index(name)
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[idx]
            if e == 0:
                continue
            key = tuple(v - 1 if i == idx else v for i, v in enumerate(exps))
            add = coeff * e
            if key in terms:
                terms[key] = terms[key] + add
            else:
                terms[key] = add
        return Poly(self.variables, terms)

    def evaluate(self, values: dict) -> Scalar:
        point = [Scalar.coerce(values[name]) for name in self.variables]
        acc = ZERO
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(point, exps):
                for _ in range(e):
                    term = term * v
            acc = acc + term
        return acc

    def constant_term(self) -> Scalar:
        zero_key = (0,) * len(self.variables)
        return self.terms.get(zero_key, ZERO)

    def sorted_terms(self):
        """Terms in descending degrevlex order (the canonical presentation)."""
        return sorted(self.terms.items(), key=cmp_to_key(lambda a, b: _drl_cmp(a[0], b[0])), reverse=True)

    def leading_coefficient(self) -> Scalar:
        if self.is_zero():
            return ZERO
        return self.sorted_terms()[0][1]

    def sign_canonical(self) -> "Poly":
        """Either p or -p, normalized so the leading coefficient is 'positive'.

        Used when comparing generator sets where a global sign is irrelevant.
        """
        lc = self.leading_coefficient()
        if lc.re < 0 or (lc.re == 0 and lc.im < 0):
            return -self
        return self

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                f"{name}^{e}" if e > 1 else name
                for name, e in zip(self.variables, exps)
                if e
            )
            if mono and coeff == ONE:
                parts.append(mono)
                continue
            if mono and coeff == Scalar(-1):
                parts.append(f"-{mono}")
                continue
            c = str(coeff)
            if "+" in c[1:] or "-" in c[1:]:
                c = f"({c})"
            parts.append(f"{c}*{mono}" if mono else c)
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


# -- polynomial matrices (plain nested tuples of Poly) -------------------


def pmat(entries) -> tuple:
    return tuple(tuple(row) for row in entries)


def pmat_zero(rows: int, cols: int, variables) -> tuple:
    z = Poly.zero(variables)
    return tuple(tuple(z for _ in range(cols)) for _ in range(rows))


def pmat_add(a, b) -> tuple:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def pmat_sub(a, b) -> tuple:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def pmat_neg(a) -> tuple:
    return tuple(tuple(-x for x in row) for row in a)


def pmat_scale(a, s) -> tuple:
    return tuple(tuple(x * s for x in row) for row in a)


def pmat_mul(a, b) -> tuple:
    rows, inner, cols = len(a), len(b), len(b[0])
    if len(a[0]) != inner:
        raise ValueError("polynomial matrix shapes do not compose")
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = None
            for k in range(inner):
                term = a[i][k] * b[k][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def pmat_is_zero(a) -> bool:
    return all(x.is_zero() for row in a for x in row)


def pmat_eval(a, values: dict) -> Matrix:
    return Matrix([[x.evaluate(values) for x in row] for row in a])


def pmat_commutator(a, b) -> tuple:
    return pmat_sub(pmat_mul(a, b), pmat_mul(b, a))


def pmat_trace(a) -> Poly:
    acc = None
    for i in range(len(a)):
        acc = a[i][i] if acc is None else acc + a[i][i]
    return acc


def span_rank(polys: Iterable[Poly]) -> int:
    """Rank of the linear span of a family of polynomials."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return 0
    monomials = sorted({e for p in polys for e in p.terms}, key=cmp_to_key(_drl_cmp))
    index = {m: i for i, m in enumerate(monomials)}
    rows = []
    for p in polys:
        row = [ZERO] * len(monomials)
        for e, c in p.terms.items():
            row[index[e]] = c
        rows.append(row)
    return Matrix(rows).rank()


def spans_equal(first: Sequence[Poly], second: Sequence[Poly]) -> bool:
    """Exact equality of linear spans of two finite polynomial families."""
    r1 = span_rank(first)
    r2 = span_rank(second)
    return r1 == r2 == span_rank(list(first) + list(second))
