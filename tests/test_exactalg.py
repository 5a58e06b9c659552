from fractions import Fraction

import pytest

from critloci.exactalg import (
    Matrix,
    Poly,
    QuadraticForm,
    Scalar,
    ZERO,
    commutator,
    form_restrict,
    solve_exact,
    spans_equal,
)
from critloci.rng import SplitMix64, random_matrix, random_scalar

from elimination_oracle import OracleMatrix
from helpers import random_rational_scalar


class TestScalar:
    def test_conjugation_involution_and_multiplicativity(self):
        rng = SplitMix64(11)
        for _ in range(100):
            s = random_rational_scalar(rng)
            t = random_rational_scalar(rng)
            assert s.conj().conj() == s
            assert (s * t).conj() == s.conj() * t.conj()

    def test_norm_is_real_nonnegative(self):
        rng = SplitMix64(12)
        for _ in range(100):
            s = random_rational_scalar(rng)
            n = s.norm()
            assert n.im == 0
            assert n.re >= 0
            assert n == s * s.conj()

    def test_division(self):
        a = Scalar(Fraction(3, 2), Fraction(-1, 3))
        b = Scalar(2, 5)
        assert (a / b) * b == a
        with pytest.raises(ZeroDivisionError):
            a / Scalar(0)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1/2", Scalar(Fraction(1, 2))),
            ("-3", Scalar(-3)),
            ("1+2i", Scalar(1, 2)),
            ("1-1/2i", Scalar(1, Fraction(-1, 2))),
            ("2i", Scalar(0, 2)),
            ("-i", Scalar(0, -1)),
            ("i", Scalar(0, 1)),
        ],
    )
    def test_parse(self, text, expected):
        assert Scalar.parse(text) == expected

    def test_json_round_trip(self):
        rng = SplitMix64(13)
        for _ in range(50):
            s = random_rational_scalar(rng)
            assert Scalar.from_json(s.to_json()) == s

    def test_hash_agrees_with_equality(self):
        assert len({Scalar(1), 1}) == 1
        assert len({Scalar(Fraction(1, 2)), Fraction(1, 2)}) == 1
        assert hash(Scalar(1, 2)) == hash(Scalar(Fraction(2, 2), 2))


class TestCommutator:
    def test_identity_commutes(self):
        rng = SplitMix64(21)
        b = random_matrix(rng, 3, 3, 4)
        assert commutator(Matrix.identity(3), b).is_zero()

    def test_self_commutator_vanishes(self):
        rng = SplitMix64(22)
        a = random_matrix(rng, 4, 4, 4)
        assert commutator(a, a).is_zero()

    def test_elementary_pair(self):
        e12 = Matrix.unit(2, 0, 1)
        e21 = Matrix.unit(2, 1, 0)
        assert commutator(e12, e21) == Matrix.diagonal([1, -1])

    def test_trace_always_zero(self):
        rng = SplitMix64(23)
        for _ in range(25):
            a = random_matrix(rng, 3, 3, 3)
            b = random_matrix(rng, 3, 3, 3)
            assert commutator(a, b).trace().is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(Matrix.identity(2), Matrix.identity(3))


class TestKernel:
    def test_zero_matrix(self):
        assert len(Matrix.zeros(3, 3).kernel_basis()) == 3

    def test_identity(self):
        assert Matrix.identity(4).kernel_basis() == []

    def test_rank_one(self):
        m = Matrix([[1, 1], [2, 2]])
        basis = m.kernel_basis()
        assert len(basis) == 1
        v = basis[0]
        # proportional to (1, -1)
        assert v[0] == -v[1]
        assert not v[0].is_zero()

    def test_kernel_vectors_annihilate(self):
        rng = SplitMix64(31)
        for _ in range(20):
            rows = rng.randint(2, 5)
            cols = rng.randint(2, 5)
            m = random_matrix(rng, rows, cols, 2)
            for v in m.kernel_basis():
                assert all(x.is_zero() for x in m.apply(v))

    def test_rank_nullity(self):
        rng = SplitMix64(32)
        for _ in range(30):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = random_matrix(rng, rows, cols, 2)
            assert m.rank() + len(m.kernel_basis()) == cols

    def test_kernel_over_rational_imaginary_entries(self):
        rng = SplitMix64(37)
        for _ in range(20):
            rows = rng.randint(2, 4)
            cols = rng.randint(2, 5)
            m = Matrix(
                [
                    [random_rational_scalar(rng, bound=3, den=4) for _ in range(cols)]
                    for _ in range(rows)
                ]
            )
            basis = m.kernel_basis()
            assert m.rank() + len(basis) == cols
            for v in basis:
                assert all(x.is_zero() for x in m.apply(v))

    def test_int_fast_path_agrees_with_scalar_path(self):
        rng = SplitMix64(33)
        for _ in range(25):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = Matrix(
                [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            )
            old = OracleMatrix(m.entries)
            slow = len(old._echelon()[1])
            assert m.rank() == old.rank() == slow

    def test_int_fast_path_on_sparse_structured_matrices(self):
        # regression: rows with a zero pivot-column entry must still be
        # rescaled during fraction-free elimination, or later exact divisions
        # break; sparse symmetric matrices with skipped columns hit this
        rng = SplitMix64(35)
        for _ in range(40):
            size = rng.randint(3, 7)
            grid = [[0] * size for _ in range(size)]
            for i in range(size):
                for j in range(i, size):
                    value = rng.randint(-6, 6) if rng.randint(0, 2) == 0 else 0
                    grid[i][j] = value
                    grid[j][i] = value
            m = Matrix(grid)
            old = OracleMatrix(m.entries)
            assert m.rank() == old.rank() == len(old._echelon()[1])

    def test_rank_full_iff_det_nonzero(self):
        rng = SplitMix64(36)
        for _ in range(30):
            size = rng.randint(1, 5)
            m = random_matrix(rng, size, size, 3)
            assert (m.rank() == size) == (not m.det().is_zero())

    def test_det_and_inverse(self):
        rng = SplitMix64(34)
        for _ in range(10):
            m = random_matrix(rng, 3, 3, 3)
            if m.det().is_zero():
                with pytest.raises(ValueError):
                    m.inverse()
            else:
                assert m @ m.inverse() == Matrix.identity(3)

    def test_solve_exact(self):
        a = Matrix([[1, 2], [0, 1], [1, 0]])
        x = (Scalar(3), Scalar(-2))
        b = a.apply(x)
        assert solve_exact(a, b) == x
        assert solve_exact(a, (Scalar(1), Scalar(0), Scalar(0))) is None


class TestQuadraticForm:
    def test_restrict_to_standard_basis_is_identity(self):
        rng = SplitMix64(41)
        g = random_matrix(rng, 3, 3, 3)
        form = QuadraticForm(g + g.transpose())
        basis = [tuple(Matrix.identity(3).entries[i]) for i in range(3)]
        assert form_restrict(form, basis).gram == form.gram

    def test_restrict_to_null_vector(self):
        gram = Matrix([[1, 0], [0, 0]])
        form = QuadraticForm(gram)
        restricted = form_restrict(form, [(ZERO, Scalar(1))])
        assert restricted.gram == Matrix([[0]])

    def test_hyperbolic_pairing(self):
        # q = 2*x1*x3 + 2*x2*x4 on 4 coordinates
        gram = Matrix(
            [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
        )
        form = QuadraticForm(gram)
        e = lambda i: tuple(Scalar(1) if t == i else ZERO for t in range(4))
        restricted = form_restrict(form, [e(0), e(2)])
        assert restricted.gram == Matrix([[0, 1], [1, 0]])

    def test_change_of_basis_congruence(self):
        rng = SplitMix64(42)
        g = random_matrix(rng, 3, 3, 2)
        form = QuadraticForm(g + g.transpose())
        p = Matrix([[1, 1, 0], [0, 1, 0], [2, 0, 1]])
        basis = [p.column(j) for j in range(3)]
        restricted = form_restrict(form, basis)
        assert restricted.gram == p.transpose() @ form.gram @ p

    def test_dependent_basis_rejected(self):
        form = QuadraticForm(Matrix.identity(2))
        with pytest.raises(ValueError):
            form_restrict(form, [(Scalar(1), ZERO), (Scalar(2), ZERO)])

    def test_evaluate_matches_gram(self):
        rng = SplitMix64(43)
        g = random_matrix(rng, 4, 4, 2)
        form = QuadraticForm(g + g.transpose())
        v = tuple(random_scalar(rng, 3) for _ in range(4))
        gv = form.gram.apply(v)
        direct = sum((a * b for a, b in zip(v, gv)), start=ZERO)
        assert form.evaluate(v) == direct


class TestPoly:
    V = ("x", "y", "z")

    def test_no_zero_terms_stored(self):
        x = Poly.var(self.V, "x")
        assert (x - x).terms == {}

    def test_product(self):
        x = Poly.var(self.V, "x")
        y = Poly.var(self.V, "y")
        p = (x + y) * (x - y)
        assert p == x * x - y * y

    def test_degrevlex_display_order(self):
        x, y, z = (Poly.var(self.V, v) for v in self.V)
        p = z * z + x * y
        leading = p.sorted_terms()[0][0]
        assert leading == (1, 1, 0)  # x*y beats z^2 in degrevlex

    def test_derivative(self):
        x, y, _ = (Poly.var(self.V, v) for v in self.V)
        p = x * x * y + y
        assert p.derivative("x") == Scalar(2) * x * y
        assert p.derivative("y") == x * x + Poly.const(self.V, 1)

    def test_evaluate(self):
        x, y, z = (Poly.var(self.V, v) for v in self.V)
        p = x * y - z
        value = p.evaluate({"x": Scalar(2), "y": Scalar(0, 1), "z": Scalar(1)})
        assert value == Scalar(-1, 2)

    def test_spans_equal(self):
        x, y, _ = (Poly.var(self.V, v) for v in self.V)
        assert spans_equal([x, y], [x + y, x - y])
        assert not spans_equal([x], [x, y])
