"""Unit tests for Gauss-Jordan elimination, inversion, solve and the
incremental rank tracker."""

import numpy as np
import pytest

from repro.gf import (
    GF,
    FieldError,
    IncrementalRank,
    SingularMatrixError,
    inv_matrix,
    invertible_stack,
    is_invertible,
    random_invertible,
    rank,
    row_reduce,
    solve,
)


def identity(field, n):
    eye = field.zeros((n, n))
    eye[np.arange(n), np.arange(n)] = 1
    return eye


class TestRowReduce:
    def test_identity_is_fixed_point(self, field):
        eye = identity(field, 5)
        reduced, r = row_reduce(field, eye)
        assert r == 5
        assert np.array_equal(reduced, eye)

    def test_zero_matrix(self, field):
        reduced, r = row_reduce(field, field.zeros((3, 4)))
        assert r == 0
        assert np.all(reduced == 0)

    def test_input_not_modified(self, field, rng):
        A = field.random((4, 4), rng)
        original = A.copy()
        row_reduce(field, A)
        assert np.array_equal(A, original)

    def test_duplicated_rows_lose_rank(self, field, rng):
        A = field.random((3, 5), rng)
        stacked = np.vstack([A, A])
        assert rank(field, stacked) == rank(field, A)

    def test_rectangular_wide_and_tall(self, field, rng):
        wide = field.random((3, 10), rng)
        tall = field.random((10, 3), rng)
        assert rank(field, wide) <= 3
        assert rank(field, tall) <= 3

    def test_rejects_non_2d(self, field):
        with pytest.raises(FieldError):
            row_reduce(field, field.zeros(4))


class TestRank:
    def test_linear_combination_rows(self, field_fast, rng):
        F = field_fast
        A = F.random((3, 6), rng)
        while rank(F, A) < 3:
            A = F.random((3, 6), rng)
        combo = F.mul(np.uint32(3 % F.q), A[0]) ^ A[1]
        B = np.vstack([A, combo[None, :]])
        assert rank(F, B) == 3

    def test_random_square_full_rank_whp(self, field_fast, rng):
        # For q >= 256 a random 8x8 is invertible with prob > 0.99.
        F = field_fast
        full = sum(rank(F, F.random((8, 8), rng)) == 8 for _ in range(20))
        assert full >= 18


class TestInverse:
    def test_roundtrip(self, field, rng):
        A = random_invertible(field, 7, rng)
        Ainv = inv_matrix(field, A)
        assert np.array_equal(field.matmul(A, Ainv), identity(field, 7))
        assert np.array_equal(field.matmul(Ainv, A), identity(field, 7))

    def test_inverse_of_identity(self, field):
        eye = identity(field, 4)
        assert np.array_equal(inv_matrix(field, eye), eye)

    def test_singular_raises(self, field):
        singular = field.zeros((3, 3))
        singular[0, 0] = 1
        with pytest.raises(SingularMatrixError):
            inv_matrix(field, singular)

    def test_non_square_raises(self, field, rng):
        with pytest.raises(FieldError):
            inv_matrix(field, field.random((2, 3), rng))

    def test_1x1(self, field):
        A = field.asarray([[3 % field.q or 1]])
        Ainv = inv_matrix(field, A)
        assert field.mul(A[0, 0], Ainv[0, 0]) == 1


class TestSolve:
    def test_vector_rhs(self, field, rng):
        A = random_invertible(field, 6, rng)
        x = field.random(6, rng)
        b = field.matmul(A, x[:, None])[:, 0]
        assert np.array_equal(solve(field, A, b), x)

    def test_matrix_rhs(self, field, rng):
        A = random_invertible(field, 6, rng)
        X = field.random((6, 9), rng)
        B = field.matmul(A, X)
        assert np.array_equal(solve(field, A, B), X)

    def test_singular_raises(self, field):
        with pytest.raises(SingularMatrixError):
            solve(field, field.zeros((2, 2)), field.zeros(2))

    def test_shape_mismatch(self, field, rng):
        A = random_invertible(field, 3, rng)
        with pytest.raises(FieldError):
            solve(field, A, field.zeros(4))


class TestIsInvertible:
    def test_detects(self, field, rng):
        assert is_invertible(field, random_invertible(field, 5, rng))
        assert not is_invertible(field, field.zeros((5, 5)))
        assert not is_invertible(field, field.random((3, 4), rng))


#: Every backend the stacked elimination runs on: table, tower, clmul.
STACK_FIELDS = [
    GF(4, "table"), GF(8, "table"), GF(16, "table"), GF(32, "tower"),
    GF(8, "clmul"), GF(32, "clmul"),
]


class TestInvertibleStack:
    @pytest.fixture(params=STACK_FIELDS, ids=repr)
    def stack_field(self, request):
        return request.param

    def expected(self, field, stack):
        return np.array([rank(field, M) == M.shape[0] for M in stack], dtype=bool)

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_random_stacks_agree_with_rank(self, stack_field, rng, k):
        stack = stack_field.random((40, k, k), rng)
        assert np.array_equal(
            invertible_stack(stack_field, stack), self.expected(stack_field, stack)
        )

    @pytest.mark.parametrize("k", [2, 5, 8])
    def test_singular_stacks_detected(self, stack_field, rng, k):
        stack = stack_field.random((30, k, k), rng)
        stack[0::3, k - 1] = stack[0::3, 0]  # duplicated row
        stack[1::3, :, k // 2] = 0  # zero column
        stack[2::6, 1] = stack_field.mul(stack[2::6, 0], np.uint32(3 % stack_field.q))
        got = invertible_stack(stack_field, stack)
        assert np.array_equal(got, self.expected(stack_field, stack))
        assert not got[0::3].any() and not got[1::3].any()

    def test_identity_and_permutation_invertible(self, stack_field):
        eye = identity(stack_field, 6)
        stack = np.stack([eye, eye[::-1], eye[[1, 0, 3, 2, 5, 4]]])
        assert invertible_stack(stack_field, stack).all()

    def test_input_not_modified(self, stack_field, rng):
        stack = stack_field.random((5, 4, 4), rng)
        original = stack.copy()
        invertible_stack(stack_field, stack)
        assert np.array_equal(stack, original)

    def test_empty_stack(self, stack_field):
        assert invertible_stack(stack_field, stack_field.zeros((0, 3, 3))).shape == (0,)

    def test_non_square_rejected(self, stack_field):
        with pytest.raises(FieldError):
            invertible_stack(stack_field, stack_field.zeros((2, 3, 4)))
        with pytest.raises(FieldError):
            invertible_stack(stack_field, stack_field.zeros((3, 3)))


class TestIncrementalRank:
    def test_matches_batch_rank(self, field_fast, rng):
        F = field_fast
        A = F.random((10, 6), rng)
        inc = IncrementalRank(F, 6)
        for row in A:
            inc.offer(row)
        assert inc.rank == rank(F, A)

    def test_rejects_dependent_rows(self, field, rng):
        F = field
        base = F.random(8, rng)
        inc = IncrementalRank(F, 8)
        assert inc.offer(base)
        assert not inc.offer(base)  # identical
        scaled = F.mul(np.uint32(2 % F.q or 1), base)
        if not np.array_equal(scaled, base):
            assert not inc.offer(scaled)  # scalar multiple

    def test_zero_row_rejected(self, field):
        inc = IncrementalRank(field, 5)
        assert not inc.offer(field.zeros(5))
        assert inc.rank == 0

    def test_wrong_width_raises(self, field):
        inc = IncrementalRank(field, 5)
        with pytest.raises(FieldError):
            inc.offer(field.zeros(4))

    def test_rank_caps_at_width(self, field_fast, rng):
        F = field_fast
        inc = IncrementalRank(F, 4)
        added = sum(inc.offer(F.random(4, rng)) for _ in range(50))
        assert inc.rank == 4
        assert added == 4


class TestRandomInvertible:
    def test_always_invertible(self, field_fast, rng):
        for n in (1, 2, 5):
            A = random_invertible(field_fast, n, rng)
            assert is_invertible(field_fast, A)
