"""Differential tests: the single Bareiss kernel against the old elimination
loops kept in elimination_oracle.py."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critloci.errors import InternalCheckError
from critloci.exactalg import ZERO, Matrix, Scalar, _exact_quotients, solve_exact
from critloci.potential import FramedRep
from critloci.stability import krylov_closure

import elimination_oracle as oracle
from elimination_oracle import OracleMatrix

SMALL = st.integers(-4, 4)
RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
ENTRIES = {
    "int": st.builds(Scalar, SMALL),
    "gaussian_int": st.builds(Scalar, SMALL, SMALL),
    "gaussian_rational": st.builds(Scalar, RATIONAL, RATIONAL),
}
KINDS = st.sampled_from(sorted(ENTRIES))
EXAMPLES = settings(max_examples=150, deadline=None)


@st.composite
def matrices(draw, square=False, max_size=5):
    """Dense, rank-deficient (rows that combine earlier rows), and with zeroed
    rows and columns; rectangular unless square."""
    entry = st.one_of(st.just(ZERO), ENTRIES[draw(KINDS)])
    rows = draw(st.integers(1, max_size))
    cols = rows if square else draw(st.integers(1, max_size))
    grid = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    base = draw(st.integers(1, rows))
    for i in range(base, rows):
        coeffs = [draw(entry) for _ in range(base)]
        grid[i] = [sum((c * grid[k][j] for k, c in enumerate(coeffs)), ZERO) for j in range(cols)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        grid[i] = [ZERO] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for row in grid:
            row[j] = ZERO
    order = draw(st.permutations(range(rows)))
    return Matrix([grid[i] for i in order])


@st.composite
def sparse_symmetric(draw):
    """Mostly zero symmetric int matrices: the shape whose skipped columns once
    broke the exact divisions of the int fast path."""
    size = draw(st.integers(2, 7))
    value = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-6, 6))
    grid = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            grid[i][j] = grid[j][i] = draw(value)
    return Matrix(grid)


@st.composite
def sparse_gaussian(draw):
    """Mostly zero Gaussian-rational matrices: most rows have a zero in most
    pivot columns, so the kernel leaves them unscaled across several steps."""
    rows, cols = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    value = st.one_of(st.just(ZERO), st.just(ZERO), ENTRIES["gaussian_rational"])
    return Matrix([[draw(value) for _ in range(cols)] for _ in range(rows)])


def _old(m: Matrix) -> OracleMatrix:
    return OracleMatrix(m.entries)


def _assert_same_elimination(m: Matrix):
    old = _old(m)
    assert m.rank() == old.rank() == len(old._echelon()[1])
    assert m._echelon()[1] == old._echelon()[1]
    assert m.kernel_basis() == old.kernel_basis()


def _assert_same_square(m: Matrix):
    old = _old(m)
    assert m.det() == old.det()
    try:
        expected = old.inverse()
    except ValueError:
        with pytest.raises(ValueError):
            m.inverse()
    else:
        assert m.inverse() == expected


@EXAMPLES
@given(matrices())
def test_rank_pivots_and_kernel_match_oracle(m):
    _assert_same_elimination(m)


@EXAMPLES
@given(matrices(square=True))
def test_det_and_inverse_match_oracle(m):
    _assert_same_elimination(m)
    _assert_same_square(m)


@EXAMPLES
@given(sparse_symmetric())
def test_sparse_symmetric_matches_oracle(m):
    _assert_same_elimination(m)
    _assert_same_square(m)


@EXAMPLES
@given(sparse_gaussian())
def test_sparse_gaussian_matches_oracle(m):
    _assert_same_elimination(m)
    if m.rows == m.cols:
        _assert_same_square(m)


@EXAMPLES
@given(matrices(), st.data())
def test_solve_exact_matches_oracle(a, data):
    entry = ENTRIES[data.draw(KINDS)]
    if data.draw(st.booleans()):
        b = [data.draw(entry) for _ in range(a.rows)]
    else:  # consistent by construction
        b = a.apply([data.draw(entry) for _ in range(a.cols)])
    expected = oracle.solve_exact(a, b)
    assert solve_exact(a, b) == expected


@EXAMPLES
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_krylov_dim_matches_oracle(n, r, data):
    entry = st.one_of(st.just(ZERO), ENTRIES[data.draw(KINDS)])

    def block(rows, cols):
        return Matrix([[data.draw(entry) for _ in range(cols)] for _ in range(rows)])

    rep = FramedRep(n, r, block(n, n), block(n, n), block(n, n), block(n, r))
    assert krylov_closure(rep).dim == oracle.krylov_closure(rep).dim


def test_inexact_division_is_an_internal_error():
    assert _exact_quotients([6, -4], 2) == [3, -2]
    with pytest.raises(InternalCheckError):
        _exact_quotients([6, 5], 2)
