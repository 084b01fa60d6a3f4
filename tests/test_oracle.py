import ast
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KERNELS, coprime_tuples, traced_peak
from iepoly import oracle
from iepoly.core import INT64_SAFE_LIMIT, ROW_SWEEP_MIN, SWEEP_BLOCK, expand, height, validate_tuple
from iepoly.errors import DegreeCapExceeded, NonzeroRemainder
from iepoly.oracle import oracle_expand

L = INT64_SAFE_LIMIT


def ints(values, dtype=np.int64):
    return np.array(values, dtype=dtype)


def mul(values, d, dtype=np.int64):
    # The route's multiplication step, on an array with d zeros on top.
    c = ints(list(values) + [0] * d, dtype)
    oracle._multiply(c, d)
    return c


def div(values, d, dtype=np.int64):
    # The route's division step leaves minus the quotient; this is the quotient.
    return -oracle._divide(ints(values, dtype), d)


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
        assert mul([1, 1], 1).tolist() == [1, 0, -1]

    def test_identity(self):
        assert mul([1], 3).tolist() == [1, 0, 0, -1]

    def test_four_terms(self):
        assert mul(mul([1], 2), 3).tolist() == [1, 0, -1, -1, 0, 1]

    def test_zero(self):
        assert mul([0, 0], 2).tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize("d", [1, 5, SWEEP_BLOCK + 3])
    def test_across_blocks(self, d):
        values = list(range(1, 3 * SWEEP_BLOCK))
        assert mul(values, d).tolist() == reference_mul(values, d)

    def test_operand_past_int64_limit(self):
        # Python integers are exact past int64; in int64, a product of
        # operands within the limit that leaves it fails the route's check.
        c = [(1 << 63) - 1, -(1 << 63), 5]
        assert mul(c, 1, object).tolist() == reference_mul(c, 1)
        product = mul([L, -L, 5], 1)
        assert product.tolist() == reference_mul([L, -L, 5], 1)
        assert oracle._peak(product) > L


class TestExactDiv:
    def test_geometric(self):
        assert div([1, 0, -1], 1).tolist() == [1, 1]

    def test_pair_quotient(self):
        q = div(div(mul(mul([1], 6), 1), 3), 2)
        assert q.tolist() == [1, -1, 1]

    def test_nonzero_remainder(self):
        with pytest.raises(NonzeroRemainder):
            div([1, 0, 0, -1], 2)

    def test_div_by_zero(self):
        # 1 - x^0 is the zero polynomial.
        with pytest.raises(ZeroDivisionError):
            div([1, 2], 0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            div([1, 0, -1], 3)

    def test_quotient_is_a_view(self):
        # Minus the quotient, in the array itself: no division negates.
        c = ints(mul([1, 2, 3], 2))
        q = oracle._divide(c, 2)
        assert q.tolist() == [-1, -2, -3]
        assert np.shares_memory(q, c)

    @pytest.mark.parametrize("d", [1, 7, ROW_SWEEP_MIN - 1, ROW_SWEEP_MIN, ROW_SWEEP_MIN + 1, 3 * ROW_SWEEP_MIN + 5])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_matches_long_division(self, d, dtype):
        # Both paths of the step: quotients shorter than d (the numerator
        # has n < 2d entries), whole rows, and ragged bottom rows.
        rng = np.random.default_rng(d)
        for length in (1, d - 1, d, d + 1, 4 * d, 4 * d + d // 2 + 1):
            if length < 1:
                continue
            quotient = rng.integers(-(1 << 40), 1 << 40, size=length).tolist()
            num = reference_mul(quotient, d)
            assert div(num, d, dtype).tolist() == reference_div(num, d) == quotient, (d, length)
            num[d // 2] += 1
            with pytest.raises(NonzeroRemainder):
                div(num, d, dtype)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("d", [1, 2])
    def test_quotient_past_int64_limit(self, sign, d):
        # Every coefficient of the numerator is within the limit, the
        # quotient's middle reaches 3L: in int64 it fails the route's check,
        # in Python integers it is exact.
        num = [sign * v for v in [L] * (3 * d) + [-L] * (3 * d)]
        assert oracle._peak(div(num, d)) > L
        q = div(num, d, object)
        assert q.tolist() == reference_div(num, d)
        assert max(abs(v) for v in q.tolist()) == 3 * L


@settings(max_examples=150, deadline=None)
@given(
    a=st.lists(st.integers(-L, L), min_size=1, max_size=12),
    d=st.integers(1, 7),
)
def test_mul_div_round_trip(a, d):
    product = mul(a, d)
    assert product.tolist() == reference_mul(a, d)
    assert div(product, d).tolist() == a


@st.composite
def exact_routes(draw):
    # Multipliers, and as divisors, in any order, a divisor e of each of
    # some of them: 1 - x^e divides 1 - x^d, so every division is exact.
    multipliers = draw(st.lists(st.integers(1, 37), min_size=1, max_size=8))
    shuffled = draw(st.permutations(multipliers))
    chosen = shuffled[: draw(st.integers(0, len(shuffled)))]
    return multipliers, [draw(st.sampled_from([e for e in range(1, d + 1) if d % e == 0])) for d in chosen]


def route_peaks(multipliers, divisors):
    """The route's steps in Python integers: each step's peak, and the result."""
    c = ints([1] + [0] * sum(multipliers), object)
    peaks = []
    n = 1
    for d in multipliers:
        n += d
        oracle._multiply(c[:n], d)
        peaks.append(max(abs(v) for v in c.tolist()))
    for d in divisors:
        c = oracle._divide(c, d)
        peaks.append(max(abs(v) for v in c.tolist()))
    return peaks, -c if len(divisors) % 2 else c


@settings(max_examples=150, deadline=None)
@given(route=exact_routes())
def test_route_bound_never_underestimates(route):
    # After every step of the route, max |c| is at most the product of 2 per
    # multiplier and ceil(n / d) per divisor of an n-entry array.
    multipliers, divisors = route
    peaks, _ = route_peaks(multipliers, divisors)
    bounds, bound, n = [], 1, 1 + sum(multipliers)
    for d in multipliers:
        bound *= 2
        bounds.append(bound)
    for d in divisors:
        bound *= -(-n // d)
        bounds.append(bound)
        n -= d
    assert all(peak <= bound for peak, bound in zip(peaks, bounds))


@settings(max_examples=200, deadline=None)
@given(route=exact_routes(), limit=st.integers(1, 100))
def test_route_same_lane_as_every_step_check_below_a_lowered_limit(route, limit):
    # With the limit lowered, the int64 route must give up exactly where a
    # step's peak passes it.
    multipliers, divisors = route
    peaks, expected = route_peaks(multipliers, divisors)
    with mock.patch.object(oracle, "INT64_SAFE_LIMIT", limit):
        c = oracle._route(1 + sum(multipliers), multipliers, divisors, "int64")
    assert (c is not None) == (max(peaks) <= limit)
    if c is not None:
        assert c.tolist() == expected.tolist()


def test_shares_no_sweep_or_lane_check_with_core():
    """oracle.py imports no sweep, scan or lane function from core.

    int64 sums are exact modulo 2^64, so a sweep whose lane check missed a
    wrap would return Q mod 2^64.  If both routes shared one lane check and
    it missed a wrap, both would return Q mod 2^64 and still agree.
    """
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "core":
            used |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "core":
            used.add(node.attr)
    assert "factor_system" in used
    assert not used & {"_sweep", "_unit", "height", *(kernel.__name__ for kernel in KERNELS)}


class TestOracleExpand:
    def test_pair(self):
        assert oracle_expand(validate_tuple([2, 3])).tolist() == [1, -1, 1]

    def test_singleton(self):
        assert oracle_expand(validate_tuple([7])).tolist() == [1] * 7

    @pytest.mark.parametrize("q", [2, 3, 7, ROW_SWEEP_MIN + 1, SWEEP_BLOCK + 3])
    @pytest.mark.parametrize("limit", [INT64_SAFE_LIMIT, 0])
    def test_singletons_restore_the_sign_once(self, monkeypatch, q, limit):
        # k = 1 is the one route with an odd number of divisions (one), so
        # the only one whose sign is restored at the end; in both lanes.
        monkeypatch.setattr(oracle, "INT64_SAFE_LIMIT", limit)
        p = oracle_expand(validate_tuple([q]))
        assert p.dtype == (np.int64 if limit else object)
        assert p.tolist() == [1] * q

    @pytest.mark.parametrize("limit", [INT64_SAFE_LIMIT, 0])
    def test_planted_remainder_raises_in_both_lanes(self, monkeypatch, limit):
        # (1 - x^15)(1 - x) / ((1 - x^5)(1 - x^4)) is no polynomial: 3,5's
        # factors with 1 - x^4 planted in place of 1 - x^3.
        monkeypatch.setattr(oracle, "factor_system", lambda rho: ((15, 1), (5, -1), (4, -1), (1, 1)))
        monkeypatch.setattr(oracle, "INT64_SAFE_LIMIT", limit)
        with pytest.raises(NonzeroRemainder):
            oracle_expand(validate_tuple([3, 5]))

    def test_nonprime_pair(self):
        p = oracle_expand(validate_tuple([4, 9]))
        assert len(p) == 25
        assert height(p) == 1

    def test_cap(self):
        # The product of 3,5,7's even-subset factors has degree 105 + 7 + 5 + 3:
        # 1 + (4*6*8 + 2*4*6) / 2 = 121 coefficients.
        rho = validate_tuple([3, 5, 7])
        with pytest.raises(DegreeCapExceeded) as err:
            oracle_expand(rho, degree_cap=120)
        assert (err.value.coefficients, err.value.cap) == (121, 120)
        assert np.array_equal(oracle_expand(rho, degree_cap=121), expand(rho))

    @pytest.mark.parametrize("qs", [(49, 51, 149), (49, 145, 241), (19, 23, 29, 31)])
    def test_agrees_with_fast_route_past_m_10_4(self, qs):
        rho = validate_tuple(qs)
        assert np.array_equal(oracle_expand(rho), expand(rho))

    def test_agrees_with_fast_route_high_k(self, high_k_corpus):
        for rho in high_k_corpus:
            assert np.array_equal(oracle_expand(rho), expand(rho)), rho

    def test_agrees_with_fast_route_small_sweep(self):
        checked = 0
        for k in (1, 2, 3):
            for rho in coprime_tuples(k, 300):
                assert np.array_equal(oracle_expand(rho), expand(rho)), rho
                checked += 1
        assert checked > 100

    def test_agrees_with_fast_route_k4_k5(self):
        checked = 0
        for k in (4, 5):
            for rho in coprime_tuples(k, 10**4):
                assert np.array_equal(oracle_expand(rho), expand(rho)), rho
                checked += 1
        assert checked == 1257

    @pytest.mark.parametrize("qs", [(49, 145, 241), (19, 23, 29, 31)])
    def test_peak_memory_is_one_product(self, qs):
        # The route allocates its product once and runs every step inside it.
        rho = validate_tuple(qs)
        length = oracle.product_length(rho)
        expected = expand(rho)
        p, peak = traced_peak(lambda: oracle_expand(rho))
        assert np.array_equal(p, expected)
        assert peak < 1.25 * 8 * length

    def test_restarts_in_python_integers(self, monkeypatch):
        # A limit of 0 fails the first int64 step's measurement, which sends
        # the whole route back to 1 in Python integers, with the same result.
        rho = validate_tuple([3, 5, 7])
        monkeypatch.setattr(oracle, "INT64_SAFE_LIMIT", 0)
        p = oracle_expand(rho)
        assert p.dtype == object
        assert p.tolist() == expand(rho).tolist()

    @pytest.mark.parametrize("multipliers, divisors", [
        ([1] * 70, []),  # (1 - x)^70 reaches C(70, 35) > 2^62 while multiplying
        (list(range(30, 60)), [1] * 30),  # prod (1 + x + ... + x^(d-1)) passes it while dividing
    ])
    def test_route_checks_every_step(self, multipliers, divisors):
        length = 1 + sum(multipliers)
        assert oracle._route(length, multipliers, divisors, "int64") is None
        expected = [1]
        for d in multipliers:
            expected = reference_mul(expected, d)
        for d in divisors:
            expected = reference_div(expected, d)
        assert oracle._route(length, multipliers, divisors, object).tolist() == expected
