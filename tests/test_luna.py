import pytest

from critloci.exactalg import Scalar, ZERO, form_restrict, matrix_from_columns
from critloci.luna import (
    SlicePoint,
    im_sigma_perp,
    sigma_matrix,
    slice_decomposition,
    slice_hessian_nondegenerate,
)
from critloci.potential import hessian
from critloci.quiver import PolystableData
from critloci.rng import SplitMix64

from helpers import random_direction, random_polystable, slice_hessian_block_oracle

S = Scalar


def _data(points, mults):
    return PolystableData(tuple(tuple(S.coerce(c) for c in p) for p in points), tuple(mults))


TWO_POINTS = _data([(0, 0, 0), (1, 0, 0)], (1, 1))


class TestSigma:
    def test_single_point_gives_zero_map(self):
        for mult in (1, 3):
            point = SlicePoint.from_data(_data([(2, 3, 4)], (mult,)))
            assert sigma_matrix(point).is_zero()

    def test_two_simple_points_rank_two(self):
        point = SlicePoint.from_data(TWO_POINTS)
        sigma = sigma_matrix(point)
        assert sigma.rank() == 2
        # only the off-diagonal entries of the first slot move
        for col in range(4):
            column = sigma.column(col)
            for slot in (1, 2):  # B and C slots stay fixed
                assert all(
                    column[slot * 4 + t].is_zero() for t in range(4)
                )

    def test_diagonal_blocks_of_image_vanish(self):
        rng = SplitMix64(31)
        for _ in range(10):
            total = rng.randint(2, 4)
            data = random_polystable(rng, rng.randint(1, min(3, total)), total)
            point = SlicePoint.from_data(data)
            sigma = sigma_matrix(point)
            n = point.n
            for col in range(n * n):
                column = sigma.column(col)
                for slot in range(3):
                    for i in range(n):
                        for j in range(n):
                            if point.block_of(i) == point.block_of(j):
                                assert column[slot * n * n + i * n + j].is_zero()

    def test_columns_match_coordinate_difference_formula(self):
        # block formula: the column for E_pq carries (c_block(q) - c_block(p))
        # at position (p, q) of each slot, and nothing else
        rng = SplitMix64(39)
        for _ in range(6):
            total = rng.randint(2, 4)
            data = random_polystable(rng, rng.randint(1, min(3, total)), total)
            point = SlicePoint.from_data(data)
            n = point.n
            sigma = sigma_matrix(point)
            for p in range(n):
                for q in range(n):
                    column = sigma.column(p * n + q)
                    for slot in range(3):
                        coeff = point.point_of(q)[slot] - point.point_of(p)[slot]
                        for i in range(n):
                            for j in range(n):
                                expected = coeff if (i, j) == (p, q) else ZERO
                                assert column[slot * n * n + i * n + j] == expected

    def test_kernel_is_stabilizer_algebra(self):
        rng = SplitMix64(32)
        for _ in range(10):
            total = rng.randint(2, 4)
            data = random_polystable(rng, rng.randint(1, min(3, total)), total)
            point = SlicePoint.from_data(data)
            kernel = sigma_matrix(point).kernel_basis()
            assert len(kernel) == sum(m * m for m in data.mults)


class TestPerp:
    def test_single_point_everything(self):
        point = SlicePoint.from_data(_data([(1, 2, 3)], (2,)))
        assert im_sigma_perp(point).dim == 3 * 4

    def test_two_points_codimension(self):
        point = SlicePoint.from_data(TWO_POINTS)
        assert im_sigma_perp(point).dim == 12 - 2

    def test_contains_diagonal_blocks(self):
        rng = SplitMix64(33)
        data = random_polystable(rng, 2, 3)
        point = SlicePoint.from_data(data)
        dec = slice_decomposition(point)
        perp = im_sigma_perp(point)
        tracker_rows = matrix_from_columns(perp.vectors, 3 * point.n * point.n)
        from critloci.exactalg import solve_exact

        for vec in dec.basis_Ya:
            assert solve_exact(tracker_rows, vec) is not None


class TestDecomposition:
    def test_single_point_dims(self):
        point = SlicePoint.from_data(_data([(5, -1, 2)], (2,)))
        assert slice_decomposition(point).dims == (12, 0, 0)

    def test_two_simple_points_dims(self):
        point = SlicePoint.from_data(TWO_POINTS)
        assert slice_decomposition(point).dims == (6, 2, 4)

    def test_2_1_dims(self):
        point = SlicePoint.from_data(_data([(0, 1, 2), (1, -1, 0)], (2, 1)))
        assert slice_decomposition(point).dims == (15, 4, 8)

    def test_direct_sum_property(self):
        rng = SplitMix64(34)
        for _ in range(8):
            total = rng.randint(2, 4)
            data = random_polystable(rng, rng.randint(1, min(3, total)), total)
            point = SlicePoint.from_data(data)
            dec = slice_decomposition(point)
            n = point.n
            assert sum(dec.dims) == 3 * n * n
            stacked = matrix_from_columns(
                list(dec.basis_Ya) + list(dec.basis_imSigma) + list(dec.basis_Yslice),
                3 * n * n,
            )
            assert stacked.rank() == 3 * n * n

    def test_imaginary_coordinates_exercise_conjugation(self):
        data = _data(
            [(S(0, 1), S(0), S(0)), (S(1), S(0, 2), S(0)), (S(0), S(1), S(1, 1))],
            (1, 1, 1),
        )
        point = SlicePoint.from_data(data)
        dec = slice_decomposition(point)
        assert sum(dec.dims) == 27
        assert slice_hessian_nondegenerate(point)
        # without conjugation the first condition row would differ: check the
        # constraint really uses the conjugate of the coordinate differences
        sigma = sigma_matrix(point)
        for vec in dec.basis_Yslice:
            # slice vectors pair to zero against every orbit direction under
            # the conjugate-linear pairing sum conj(w_i) * v_i
            for col in range(sigma.cols):
                column = sigma.column(col)
                pairing = ZERO
                for a, b in zip(column, vec):
                    pairing = pairing + a.conj() * b
                assert pairing.is_zero()


class TestSliceHessian:
    def test_single_point_vacuous(self):
        point = SlicePoint.from_data(_data([(0, 0, 0)], (3,)))
        assert slice_hessian_nondegenerate(point)

    def test_two_points_hyperbolic_structure(self):
        point = SlicePoint.from_data(TWO_POINTS)
        dec = slice_decomposition(point)
        form = hessian(point.y)
        restricted = form_restrict(form, dec.basis_Yslice)
        assert restricted.is_nondegenerate()
        assert not restricted.gram.det().is_zero()
        # hand computation: the slice holds the off-diagonal B and C entries,
        # the value pairs them antisymmetrically, and nothing pairs with itself
        n = point.n
        b_vectors = [v for v in dec.basis_Yslice if _support_slot(v, n) == {1}]
        c_vectors = [v for v in dec.basis_Yslice if _support_slot(v, n) == {2}]
        assert len(b_vectors) == 2 and len(c_vectors) == 2
        for u in b_vectors:
            assert form.evaluate(u).is_zero()
            for w in b_vectors:
                assert form.pair(u, w).is_zero()
        for u in c_vectors:
            for w in c_vectors:
                assert form.pair(u, w).is_zero()

    def test_matches_block_sum_oracle(self):
        rng = SplitMix64(35)
        for _ in range(6):
            total = rng.randint(2, 4)
            data = random_polystable(rng, rng.randint(1, min(3, total)), total)
            point = SlicePoint.from_data(data)
            form = hessian(point.y)
            for _ in range(4):
                tangent = random_direction(rng, 3 * point.n * point.n)
                assert form.evaluate(tangent) == Scalar(2) * slice_hessian_block_oracle(
                    point, tangent
                )

    def test_three_generic_points_nondegenerate(self):
        point = SlicePoint.from_data(
            _data([(0, 0, 0), (1, 2, 3), (-1, 1, 4)], (1, 1, 1))
        )
        assert slice_hessian_nondegenerate(point)

    def test_given_decomposition_gives_same_verdict(self):
        rng = SplitMix64(37)
        for _ in range(6):
            total = rng.randint(2, 4)
            data = random_polystable(rng, rng.randint(1, min(3, total)), total)
            point = SlicePoint.from_data(data)
            dec = slice_decomposition(point)
            assert slice_hessian_nondegenerate(point, dec) == slice_hessian_nondegenerate(point)

    def test_sigma_columns_in_hessian_radical(self):
        rng = SplitMix64(36)
        for _ in range(6):
            total = rng.randint(2, 4)
            data = random_polystable(rng, rng.randint(1, min(3, total)), total)
            point = SlicePoint.from_data(data)
            form = hessian(point.y)
            sigma = sigma_matrix(point)
            for col in range(sigma.cols):
                assert form.in_radical(sigma.column(col))


def _support_slot(vec, n):
    slots = set()
    for idx, value in enumerate(vec):
        if not value.is_zero():
            slots.add(idx // (n * n))
    return slots


class TestDegeneracies:
    def test_coincident_points_rejected_at_construction(self):
        with pytest.raises(ValueError):
            _data([(1, 1, 1), (1, 1, 1)], (1, 1))
