import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iepoly.analysis import coprime_tuples
from iepoly.core import expand, height, validate_tuple
from iepoly.errors import NonzeroRemainder, OracleCapExceeded
from iepoly.oracle import dense_mul, exact_div, one_minus_x_pow, oracle_expand, poly


class TestDenseMul:
    def test_difference_of_squares(self):
        assert dense_mul(poly([1, 1]), poly([1, -1])).coeffs == (1, 0, -1)

    def test_identity(self):
        assert dense_mul(poly([1, 0, 0, -1]), poly([1])).coeffs == (1, 0, 0, -1)

    def test_four_terms(self):
        out = dense_mul(one_minus_x_pow(2), one_minus_x_pow(3))
        assert out.coeffs == (1, 0, -1, -1, 0, 1)

    def test_zero(self):
        assert dense_mul(poly([]), poly([1, 2])).coeffs == ()


class TestExactDiv:
    def test_geometric(self):
        assert exact_div(poly([1, 0, -1]), poly([1, -1])).coeffs == (1, 1)

    def test_pair_quotient(self):
        num = dense_mul(one_minus_x_pow(6), one_minus_x_pow(1))
        den = dense_mul(one_minus_x_pow(3), one_minus_x_pow(2))
        assert exact_div(num, den).coeffs == (1, -1, 1)

    def test_nonzero_remainder(self):
        with pytest.raises(NonzeroRemainder):
            exact_div(one_minus_x_pow(3), one_minus_x_pow(2))

    def test_rejects_noninvertible_lead(self):
        with pytest.raises(ValueError):
            exact_div(poly([1, 0, 2]), poly([1, 2]))

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(poly([1]), poly([]))


@settings(max_examples=150, deadline=None)
@given(
    a=st.lists(st.integers(-9, 9), min_size=0, max_size=8),
    b_body=st.lists(st.integers(-9, 9), min_size=0, max_size=6),
    b_lead=st.sampled_from([1, -1]),
)
def test_mul_div_round_trip(a, b_body, b_lead):
    pa = poly(a)
    pb = poly(b_body + [b_lead])
    assert exact_div(dense_mul(pa, pb), pb).coeffs == pa.coeffs


class TestOracleExpand:
    def test_pair(self):
        assert oracle_expand(validate_tuple([2, 3])).coeffs.tolist() == [1, -1, 1]

    def test_singleton(self):
        assert oracle_expand(validate_tuple([7])).coeffs.tolist() == [1] * 7

    def test_nonprime_pair(self):
        p = oracle_expand(validate_tuple([4, 9]))
        assert p.degree == 24
        assert height(p) == 1

    def test_cap(self):
        with pytest.raises(OracleCapExceeded):
            oracle_expand(validate_tuple([101, 102]), oracle_cap=10**4)

    def test_agrees_with_fast_route_small_sweep(self):
        checked = 0
        for k in (1, 2, 3):
            for rho in coprime_tuples(k, 300):
                assert np.array_equal(oracle_expand(rho).coeffs, expand(rho).coeffs), rho
                checked += 1
        assert checked > 100
