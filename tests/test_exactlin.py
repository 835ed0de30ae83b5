from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomcheck.exactlin import (
    BilinearOp,
    LinearMap,
    NotInvertibleError,
    ShapeError,
    Tensor2,
    bilinear_equal,
    compose,
    compose_delta,
    frac,
    invert,
    is_algebra_map,
    is_coalgebra_map,
    map_tensor2,
    nonzero_entries,
    power,
    tensor_sum,
)

F = Fraction


def diag(*values):
    return LinearMap.diagonal(values)


scalars = st.fractions(min_value=-2, max_value=2, max_denominator=2)


def linear_maps(dim):
    return st.lists(
        st.lists(scalars, min_size=dim, max_size=dim),
        min_size=dim, max_size=dim).map(LinearMap)


def tensors2(dim):
    return st.lists(
        st.lists(scalars, min_size=dim, max_size=dim),
        min_size=dim, max_size=dim).map(Tensor2)


class TestCompose:
    def test_identity(self, id2):
        assert compose(id2, id2) == id2

    def test_involution_squares_to_identity(self, id2, sgn):
        assert compose(sgn, sgn) == id2

    def test_diagonal_product(self):
        assert compose(diag(1, 2), diag(1, 2)) == diag(1, 4)

    def test_shape_mismatch(self, id2, id4):
        with pytest.raises(ShapeError):
            compose(id2, id4)

    @settings(max_examples=60)
    @given(linear_maps(2), linear_maps(2), linear_maps(2))
    def test_associative(self, f, g, h):
        assert compose(f, compose(g, h)) == compose(compose(f, g), h)

    def test_power(self, sgn, id2):
        assert power(sgn, 0) == id2
        assert power(sgn, 2) == id2
        assert power(diag(2, 3), 2) == diag(4, 9)


class TestInvert:
    def test_identity(self, id2):
        assert invert(id2) == id2

    def test_diagonal(self):
        assert invert(diag(1, 2)) == diag(1, F(1, 2))

    def test_singular(self):
        with pytest.raises(NotInvertibleError):
            invert(LinearMap.zero(2, 2))

    def test_off_diagonal(self):
        m = LinearMap([[0, 1], [1, 0]])
        assert invert(m) == m

    @settings(max_examples=60)
    @given(linear_maps(3))
    def test_left_inverse(self, f):
        try:
            g = invert(f)
        except NotInvertibleError:
            return
        assert compose(g, f) == LinearMap.identity(3)
        assert compose(f, g) == LinearMap.identity(3)


class TestApplyBilinear:
    def test_n2_generator_square(self, n2):
        u = (F(1), F(0))
        assert n2.mu.apply(u, u) == (F(0), F(1))

    def test_zero_argument(self, n2):
        v = (F(3), F(5))
        assert n2.mu.apply((F(0), F(0)), v) == (F(0), F(0))

    def test_matrix_units(self, m2):
        e12 = (F(0), F(1), F(0), F(0))
        e21 = (F(0), F(0), F(1), F(0))
        e11 = (F(1), F(0), F(0), F(0))
        assert m2.mu.apply(e12, e21) == e11

    def test_shape_error(self, n2):
        with pytest.raises(ShapeError):
            n2.mu.apply((F(1),), (F(1), F(0)))


class TestMapTensor2:
    def test_identity(self, id2):
        t = Tensor2([[1, 2], [3, 4]])
        assert map_tensor2(id2, id2, t) == t

    def test_double_negation(self, conj_d):
        t = Tensor2.from_pairs(4, {(1, 1): 1})  # e12 (x) e12
        assert map_tensor2(conj_d, conj_d, t) == t

    def test_sign_bookkeeping(self, sgn):
        t = Tensor2.from_pairs(2, {(0, 1): 1})  # u (x) v
        assert map_tensor2(sgn, sgn, t) == Tensor2.from_pairs(2, {(0, 1): -1})

    @settings(max_examples=40)
    @given(linear_maps(2), linear_maps(2), tensors2(2), tensors2(2))
    def test_linear_in_tensor(self, f, g, t1, t2):
        def plus(s, t):
            return Tensor2([[a + b for a, b in zip(u, v)]
                            for u, v in zip(s.coeffs, t.coeffs)])

        assert (map_tensor2(f, g, plus(t1, t2))
                == plus(map_tensor2(f, g, t1), map_tensor2(f, g, t2)))


class TestTensorSum:
    def test_rank_1(self):
        assert tensor_sum(2, 1, [(F(2), (1, 3)), (F(-1), (0, 1))]) == [2, 5]

    def test_rank_2(self):
        terms = [(F(1), (1, 0), (0, 1)), (F(1, 2), (2, 2), (1, 0))]
        assert tensor_sum(2, 2, terms) == [[1, 1], [1, 0]]

    def test_rank_3(self):
        out = tensor_sum(2, 3, [(F(3), (1, 0), (0, 1), (1, -1)),
                                (F(1), (1, 0), (0, 1), (0, 3))])
        assert out == [[[0, 0], [3, 0]], [[0, 0], [0, 0]]]

    def test_zero_coefficients_and_coordinates_are_skipped(self):
        # a skipped factor is never read, so None stands in for it
        assert tensor_sum(1, 1, [(F(0), None)]) == [0]
        assert tensor_sum(1, 2, [(F(0), None, None), (F(1), (0,), None)]) == [[0]]
        assert tensor_sum(1, 3, [(F(1), (1,), (0,), None)]) == [[[0]]]

    def test_empty_sum_is_a_zero_tensor(self):
        assert tensor_sum(3, 1, []) == [0] * 3
        assert tensor_sum(3, 2, []) == [[0] * 3] * 3
        assert tensor_sum(3, 3, []) == [[[0] * 3] * 3] * 3

    def test_entries_are_fractions(self):
        out = tensor_sum(2, 3, [(2, (1, 0), (1, 0), (1, 1))])
        flat = [x for plane in out for row in plane for x in row]
        assert flat == [2, 2, 0, 0, 0, 0, 0, 0]
        # exact, never float: integral sums stay int
        assert all(type(x) in (int, Fraction) for x in flat)
        half = tensor_sum(2, 3, [(F(1, 2), (1, 0), (1, 0), (1, 1))])
        assert half[0][0] == [F(1, 2), F(1, 2)]
        assert all(type(x) is Fraction for x in half[0][0])

    def test_unsupported_rank(self):
        with pytest.raises(ValueError):
            tensor_sum(2, 4, [])

    def test_nonzero_entries(self):
        assert nonzero_entries([[0, 1], [F(1, 2), 0]]) == [(0, 1, 1), (1, 0, F(1, 2))]


class TestIsAlgebraMap:
    def test_identity_always_passes(self, n2, dx2, m2, id2, id4):
        assert is_algebra_map(id2, n2.mu).passed
        assert is_algebra_map(id2, dx2.mu).passed
        assert is_algebra_map(id4, m2.mu).passed

    def test_sign_flip_on_n2(self, n2, sgn):
        assert is_algebra_map(sgn, n2.mu).passed

    def test_scaling_fails_at_first_pair(self, n2):
        f = diag(1, 2)  # f(uu) = 2v but f(u)f(u) = v
        v = is_algebra_map(f, n2.mu)
        assert not v.passed
        assert v.witness.indices == (0, 0)
        assert v.witness.lhs == (F(0), F(2))
        assert v.witness.rhs == (F(0), F(1))


class TestIsCoalgebraMap:
    def test_identity_passes(self, dx2_infbialg):
        delta = dx2_infbialg.delta
        assert is_coalgebra_map(diag(1, 1), delta).passed
        assert compose_delta(delta, diag(1, 1)) == delta

    def test_stretch_fails_on_dual_numbers(self, dx2_infbialg):
        delta = dx2_infbialg.delta
        v = is_coalgebra_map(diag(1, 2), delta)
        assert not v.passed and v.law == "comultiplicative"
        assert v.witness.indices == (1,)
        assert v.witness.lhs == (F(0), F(0), F(0), F(4))
        assert v.witness.rhs == (F(0), F(0), F(0), F(2))

    def test_compose_delta_images(self, dx2_infbialg):
        delta = dx2_infbialg.delta
        after = compose_delta(delta, diag(1, 2))
        assert after.image(0) == delta.image(0)
        assert after.image(1) == Tensor2([[F(2) * x for x in row]
                                          for row in delta.image(1).coeffs])

    def test_shape_error(self, dx2_infbialg, id4):
        with pytest.raises(ShapeError):
            is_coalgebra_map(id4, dx2_infbialg.delta)


class TestBilinearEqual:
    def test_equal(self, n2):
        assert bilinear_equal(n2.mu, n2.mu).passed

    def test_first_difference(self, n2):
        v = bilinear_equal(n2.mu, BilinearOp.zero(2))
        assert not v.passed
        assert v.witness.indices == (0, 0, 1)
        assert v.witness.lhs == (F(1),)
        assert v.witness.rhs == (F(0),)

    def test_dim_mismatch(self, n2, m2):
        with pytest.raises(ShapeError):
            bilinear_equal(n2.mu, m2.mu)


class TestExactness:
    def test_float_rejected(self):
        with pytest.raises(TypeError):
            LinearMap([[0.5, 0], [0, 1]])
        with pytest.raises(TypeError):
            frac(0.5)

    def test_integral_values_are_ints(self):
        for x, want in ((3, 3), (F(4, 2), 2), ("3/1", 3), ("-6/4", F(-3, 2)),
                        (True, 1), (np.int64(5), 5)):
            got = frac(x)
            assert got == want and type(got) is type(want)

    def test_invert_keeps_exact_halves(self):
        inv = invert(diag(2, 1))
        assert inv == diag(F(1, 2), 1)
        assert [type(x) for row in inv.entries for x in row] == \
            [Fraction, int, int, int]

    def test_repeated_computation_is_identical(self, m2):
        e21 = (F(0), F(0), F(1), F(0))
        first = m2.mu.apply(e21, e21)
        second = m2.mu.apply(e21, e21)
        assert first == second
        assert invert(diag(3, F(7, 2))) == invert(diag(3, F(7, 2)))
