import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iepoly.analysis import coprime_tuples
from iepoly.core import INT64_SAFE_LIMIT, expand, height, validate_tuple
from iepoly.errors import DegreeCapExceeded, NonzeroRemainder
from iepoly.oracle import div_one_minus_x_pow, mul_one_minus_x_pow, oracle_expand

L = INT64_SAFE_LIMIT


def ints(values):
    return np.array(values, dtype=np.int64)


def reference_mul(c, d):
    # Python-int loop: out_j = c_j - c_{j-d}.
    out = list(c) + [0] * d
    for j, v in enumerate(c):
        out[j + d] -= v
    return out


def reference_div(c, d):
    # Python-int long division from the top: q_j = q_{j+d} - c_{j+d}.
    n = len(c) - d
    q = [0] * n
    for j in range(n - 1, -1, -1):
        q[j] = (q[j + d] if j + d < n else 0) - c[j + d]
    assert reference_mul(q, d) == list(c)
    return q


class TestDenseMul:
    def test_difference_of_squares(self):
        assert mul_one_minus_x_pow(ints([1, 1]), 1).tolist() == [1, 0, -1]

    def test_identity(self):
        assert mul_one_minus_x_pow(ints([1]), 3).tolist() == [1, 0, 0, -1]

    def test_four_terms(self):
        out = mul_one_minus_x_pow(mul_one_minus_x_pow(ints([1]), 2), 3)
        assert out.tolist() == [1, 0, -1, -1, 0, 1]

    def test_zero(self):
        assert mul_one_minus_x_pow(ints([0, 0]), 2).tolist() == [0, 0, 0, 0]

    def test_operand_past_int64_limit(self):
        c = ints([(1 << 63) - 1, -(1 << 63), 5])
        out = mul_one_minus_x_pow(c, 1)
        assert out.dtype == object
        assert out.tolist() == reference_mul([int(v) for v in c], 1)


class TestExactDiv:
    def test_geometric(self):
        assert div_one_minus_x_pow(ints([1, 0, -1]), 1).tolist() == [1, 1]

    def test_pair_quotient(self):
        num = mul_one_minus_x_pow(mul_one_minus_x_pow(ints([1]), 6), 1)
        q = div_one_minus_x_pow(div_one_minus_x_pow(num, 3), 2)
        assert q.tolist() == [1, -1, 1]

    def test_nonzero_remainder(self):
        with pytest.raises(NonzeroRemainder):
            div_one_minus_x_pow(ints([1, 0, 0, -1]), 2)

    def test_div_by_zero(self):
        # 1 - x^0 is the zero polynomial.
        with pytest.raises(ZeroDivisionError):
            div_one_minus_x_pow(ints([1, 2]), 0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            div_one_minus_x_pow(ints([1, 0, -1]), 3)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("d", [1, 2])
    def test_quotient_past_int64_limit(self, sign, d):
        # Every coefficient of the numerator is within the limit, the
        # quotient's middle reaches 3L and would wrap in int64.
        num = [sign * v for v in [L] * (3 * d) + [-L] * (3 * d)]
        q = div_one_minus_x_pow(ints(num), d)
        assert q.dtype == object
        assert q.tolist() == reference_div(num, d)
        assert max(abs(v) for v in q.tolist()) == 3 * L


@settings(max_examples=150, deadline=None)
@given(
    a=st.lists(st.integers(-L, L), min_size=1, max_size=12),
    d=st.integers(1, 7),
)
def test_mul_div_round_trip(a, d):
    product = mul_one_minus_x_pow(ints(a), d)
    assert product.tolist() == reference_mul(a, d)
    assert div_one_minus_x_pow(product, d).tolist() == a


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
        # The product of 3,5,7's even-subset factors has degree 105 + 7 + 5 + 3:
        # 1 + (4*6*8 + 2*4*6) / 2 = 121 coefficients.
        rho = validate_tuple([3, 5, 7])
        with pytest.raises(DegreeCapExceeded) as err:
            oracle_expand(rho, degree_cap=120)
        assert (err.value.coefficients, err.value.cap) == (121, 120)
        assert np.array_equal(oracle_expand(rho, degree_cap=121).coeffs, expand(rho).coeffs)

    @pytest.mark.parametrize("qs", [(49, 51, 149), (49, 145, 241), (19, 23, 29, 31)])
    def test_agrees_with_fast_route_past_m_10_4(self, qs):
        rho = validate_tuple(qs)
        assert np.array_equal(oracle_expand(rho).coeffs, expand(rho).coeffs)

    def test_agrees_with_fast_route_high_k(self, high_k_corpus):
        for rho in high_k_corpus:
            assert np.array_equal(oracle_expand(rho).coeffs, expand(rho).coeffs), rho

    def test_agrees_with_fast_route_small_sweep(self):
        checked = 0
        for k in (1, 2, 3):
            for rho in coprime_tuples(k, 300):
                assert np.array_equal(oracle_expand(rho).coeffs, expand(rho).coeffs), rho
                checked += 1
        assert checked > 100

    def test_agrees_with_fast_route_k4_k5(self):
        checked = 0
        for k in (4, 5):
            for rho in coprime_tuples(k, 10**4):
                assert np.array_equal(oracle_expand(rho).coeffs, expand(rho).coeffs), rho
                checked += 1
        assert checked == 1257
