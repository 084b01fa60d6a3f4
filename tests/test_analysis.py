import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from conftest import coprime_tuples
from iepoly import analysis
from iepoly.analysis import (
    DEFAULT_SEARCH_EXPAND_CAP,
    ConstantResult,
    constant_log_tail_bound,
    coprime_runs,
    height_report,
    limit_constant,
    normalized_ratio,
    normalizer,
    predicted_ratio,
    search_max_ratio,
)
from iepoly.construction import congruence_family, family_parameters
from iepoly.core import DEFAULT_DEGREE_CAP, degree_of, expand, low_half, validate_tuple
from iepoly.errors import CapExceeded, DegreeCapExceeded, IdentityMismatch, InvalidParameter


def rel_close(a, b, tol):
    # At mpmath's default 53 bits, a tolerance below about 1e-16 could not fail.
    with mp.workprec(256):
        return abs(mp.mpf(a) - mp.mpf(b)) <= tol * abs(mp.mpf(b))


class TestNormalizer:
    def test_examples(self):
        assert normalizer(validate_tuple([5, 13])) == 1
        assert normalizer(validate_tuple([3, 5, 7])) == 3
        assert normalizer(validate_tuple([2, 3, 5, 7])) == 2**3 * 3

    def test_product_identity(self, small_corpus, random_corpus):
        # m * M = q_k * prod_{j<k} q_j^(2^(k-j-1)) exactly.
        for rho in small_corpus + random_corpus:
            k = rho.k
            rhs = rho.qs[-1]
            for j in range(1, k):
                rhs *= rho.qs[j - 1] ** (1 << (k - j - 1))
            assert rho.m * normalizer(rho) == rhs, rho

    def test_matches_per_member_powers(self, small_corpus, random_corpus):
        families = [validate_tuple(family_parameters(N, k)[1]) for N in (1, 2) for k in range(1, 16)]
        for rho in families + small_corpus + random_corpus:
            k = rho.k
            expected = 1
            for j in range(1, k - 1):
                expected *= rho.qs[j - 1] ** ((1 << (k - j - 1)) - 1)
            assert normalizer(rho) == expected, rho
            if k <= 2:
                assert normalizer(rho) == 1


class TestNormalizedRatio:
    def test_unit(self):
        assert normalized_ratio(1, 1, 5) == 1

    def test_fractional(self):
        with mp.workprec(256):
            ref = (mp.mpf(2) / 3) ** (mp.mpf(1) / 8)
        assert rel_close(normalized_ratio(2, 3, 3), ref, 1e-12)

    def test_exact_power(self):
        assert rel_close(normalized_ratio(2**16, 1, 4), 2, 1e-12)
        assert rel_close(normalized_ratio(4, 1, 1), 2, 1e-12)

    @staticmethod
    def power_bounds(x, squarings, bits):
        # lo <= x^(2^squarings) <= hi for a positive dyadic x, by repeated
        # squaring with numerators cut to ``bits`` bits, rounded down for lo
        # and up for hi; exact while nothing is cut.
        p, e = x.numerator, -(x.denominator.bit_length() - 1)
        lo, hi, e_lo, e_hi = p, p, e, e
        for _ in range(squarings):
            lo, hi, e_lo, e_hi = lo * lo, hi * hi, 2 * e_lo, 2 * e_hi
            cut_lo, cut_hi = max(0, lo.bit_length() - bits), max(0, hi.bit_length() - bits)
            lo, hi = lo >> cut_lo, -(-hi >> cut_hi)
            e_lo, e_hi = e_lo + cut_lo, e_hi + cut_hi
        return Fraction(lo) * Fraction(2) ** e_lo, Fraction(hi) * Fraction(2) ** e_hi

    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 1 << 12000), st.integers(1, 1 << 12000), st.integers(1, 20))
    @example((2**53 + 1) ** 2, 1, 1)  # exactly halfway between two floats
    @example(2**16, 1, 4)
    @example(1, 10**60, 20)
    @example(2**256 + 1, 2**256 - 1, 3)  # both cut to the first bracket's 256 bits
    @example(2**256 - 1, 2**256 + 1, 1)
    @example(3**6300 + 1, 7**3560 - 1, 7)  # about 10^4 bits each
    @example(int(sys.float_info.max) ** 2, 1, 1)  # the largest float
    @example(2**2048 - 1, 1, 1)  # rounds past it
    # Just above a float midpoint: the bracket's width doubles to 1024, then
    # to 2048, and r is 1 + 2^-52; just below it, 1.0 at the first width.
    @example(((2**53 + 1) ** 2 << 400) + 1, 1 << 506, 1)
    @example(((2**53 + 1) ** 2 << 400) - 1, 1 << 506, 1)
    @example(((2**53 + 1) ** 4 << 800) + 1, 1 << 1012, 2)
    def test_correctly_rounded(self, A, M, k):
        # A / M lies between the 2^k-th powers of the midpoints from r to its
        # float neighbours, so (A / M)^(2^-k) rounds to r.  Past the float
        # range r is the documented OverflowError, and A / M lies above the
        # power of the midpoint from the largest float to 2^1024.
        try:
            r = normalized_ratio(A, M, k)
        except OverflowError:
            r = math.inf

        def exact(f):
            return Fraction(f) if f < math.inf else Fraction(2**1024)

        x = Fraction(A, M)
        below = (exact(r) + exact(math.nextafter(r, 0))) / 2
        above = (exact(r) + exact(math.nextafter(r, math.inf))) / 2
        for bits in (256, 1024, 8192):
            low_ok = self.power_bounds(below, k, bits)[1] <= x
            high_ok = r == math.inf or x <= self.power_bounds(above, k, bits)[0]
            if low_ok and high_ok:
                break
        assert low_ok and high_ok, (A, M, k, r)

    def test_matches_mpmath_on_search_tuples(self):
        # The float of the 256-bit log-domain value, on every k = 3 tuple with
        # m <= 5000 and every k = 4 tuple with m <= 10^4.
        for k, m_cap in ((3, 5000), (4, 10**4)):
            reports = search_max_ratio(m_cap, k)
            assert len(reports) > 1000
            with mp.workprec(256):
                for rep in reports:
                    log_ratio = (mp.log(rep.height) - mp.log(rep.normalizer)) / (1 << k)
                    assert rep.normalized_ratio == float(mp.exp(log_ratio)), rep.rho

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameter):
            normalized_ratio(0, 1, 3)
        with pytest.raises(InvalidParameter):
            normalized_ratio(1, 0, 3)
        with pytest.raises(InvalidParameter):
            normalized_ratio(1, 1, 0)


def predicted_reference(N, k):
    # ratio^(2^k) = r^(2^(k-1)) / (m M) = r^(2^(k-1)) / (q_k prod_{j<k} q_j^(2^(k-j-1))),
    # rounded to the nearest float from 600 bits.
    r, qs = family_parameters(N, k)
    with mp.workprec(600):
        log_ratio = (1 << (k - 1)) * mp.log(r) - mp.log(qs[-1])
        for j in range(1, k):
            log_ratio -= (1 << (k - j - 1)) * mp.log(qs[j - 1])
        return float(mp.exp(log_ratio / (1 << k)))


class TestPredictedRatio:
    def test_single_member(self):
        assert rel_close(predicted_ratio(congruence_family(1, 1)), mp.sqrt(mp.mpf(1) / 3), 1e-12)

    def test_two_members(self):
        with mp.workprec(256):
            ref = (mp.mpf(4) / 65) ** (mp.mpf(1) / 4)
        assert rel_close(predicted_ratio(congruence_family(1, 2)), ref, 1e-12)

    def test_identity_check_spans_grid(self):
        for N in (1, 10):
            for k in range(1, 9):
                predicted_ratio(congruence_family(N, k))  # IdentityMismatch would raise

    def test_correctly_rounded(self):
        for N in range(1, 9):
            for k in range(1, 26):
                assert predicted_ratio(congruence_family(N, k)) == predicted_reference(N, k), (N, k)

    def test_routes_one_ulp_apart_raise(self, monkeypatch):
        exact = analysis.normalized_ratio
        monkeypatch.setattr(analysis, "normalized_ratio",
                            lambda A, M, k: math.nextafter(exact(A, M, k), 0))
        with pytest.raises(IdentityMismatch, match="N=2, k=4"):
            predicted_ratio(congruence_family(2, 4))

    def test_fallback_route_for_huge_families(self):
        # r^(2^17) has 53 * 2^17 = 6.9 M bits, past BOUND_BITS_CAP, so the
        # family carries no exact bound and route (b) runs alone.
        N, k = 1, 18
        assert congruence_family(N, k).height_bound is None
        assert predicted_ratio(congruence_family(N, k)) == predicted_reference(N, k)

    def test_converges_toward_limit_constant(self):
        limit = limit_constant(30).value
        assert abs(predicted_ratio(congruence_family(10**6, 10)) - limit) < 0.02


class TestLimitConstant:
    def test_single_term(self):
        assert rel_close(limit_constant(1).value, mp.mpf(2) ** (mp.mpf(-1) / 4), 1e-12)

    def test_thirty_terms(self):
        result = limit_constant(30)
        assert abs(result.value - mp.mpf("0.487")) < 0.001
        assert result.error_bound < 1e-6
        assert result.terms_used == 30

    def test_partials_strictly_decreasing_and_bounded(self):
        values = [limit_constant(t).value for t in range(1, 41)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 0.48 for v in values)
        assert abs(values[9] - values[29]) < 0.002

    def test_error_bound_encloses_truth(self):
        # Truncation error against a much deeper partial product.
        with mp.workprec(256):
            deep = mp.exp(-sum(mp.log(4 * j - 2) / (1 << (j + 1)) for j in range(1, 201)))
        for t in range(1, 60):
            result = limit_constant(t)
            assert abs(result.value - deep) <= result.error_bound

    def test_against_600_bit_reference(self):
        # The value is the nearest float to the partial product, and the bound
        # holds against the limit for every count, the float's rounding
        # included.  The limit's terms past j = 640 weigh less than 2^-630.
        with mp.workprec(600):
            terms = [mp.log(4 * j - 2) / mp.mpf(2) ** (j + 1) for j in range(1, 641)]
            limit = mp.exp(-mp.fsum(terms))
            partial_sum = mp.mpf(0)
            for t in range(1, 2001):
                if t <= len(terms):
                    partial_sum += terms[t - 1]
                    partial = mp.exp(-partial_sum)
                result = limit_constant(t)
                assert result.value == float(partial), t
                assert abs(mp.mpf(result.value) - limit) <= result.error_bound, t
                if t <= 56:
                    # The truncation figure P_T 2^(-T-1) ln(8T + 4) alone still
                    # covers the rounding here, and is kept.
                    figure = partial * mp.ldexp(mp.log(8 * t + 4), -(t + 1))
                    assert result.error_bound == float(figure), t

    def test_tail_majorant_dominates_direct_summation(self):
        with mp.workprec(256):
            tail_terms = [mp.log(4 * j - 2) / (1 << (j + 1)) for j in range(1, 201)]
            for T in range(1, 60):
                direct_tail = sum(tail_terms[T:])
                bound = constant_log_tail_bound(T)
                assert mp.mpf(bound.numerator) / bound.denominator >= direct_tail

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameter):
            limit_constant(0)

    def test_deep_term_counts_stay_cheap(self):
        # 2^(-j-1) scaling must not materialize million-bit integers.
        start = time.perf_counter()
        deep = limit_constant(20000)
        assert time.perf_counter() - start < 5
        assert abs(deep.value - limit_constant(60).value) < 1e-15


class TestEnumeration:
    def test_exact_small_sets(self):
        assert [t.qs for t in coprime_tuples(3, 30)] == [(2, 3, 5)]
        assert list(coprime_tuples(2, 5)) == []
        assert len(list(coprime_tuples(1, 10))) == 9

    def test_lexicographic_order_and_validity(self):
        tuples = list(coprime_tuples(3, 200))
        assert [t.qs for t in tuples] == sorted(t.qs for t in tuples)
        for t in tuples:
            revalidated = validate_tuple(t.qs)
            assert revalidated.m == t.m

    def test_matches_brute_force(self):
        import itertools
        import math

        brute = []
        for qs in itertools.combinations(range(2, 61), 2):
            if math.gcd(qs[0], qs[1]) == 1 and qs[0] * qs[1] <= 60:
                brute.append(qs)
        assert [t.qs for t in coprime_tuples(2, 60)] == sorted(brute)

    @pytest.mark.parametrize("k, m_caps", [
        (1, (1, 2, 3, 30)),
        (2, (5, 6, 7, 60, 300)),
        (3, (29, 30, 31, 200, 600)),
        (4, (209, 210, 211, 1000)),
    ])
    def test_runs_match_brute_force(self, k, m_caps):
        import itertools
        from math import factorial

        for m_cap in m_caps:
            # The other k - 1 entries are distinct and at least 2, so no entry passes m_cap // k!.
            brute = [qs for qs in itertools.combinations(range(2, m_cap // factorial(k) + 1), k)
                     if math.prod(qs) <= m_cap and all(math.gcd(a, b) == 1 for a, b in itertools.combinations(qs, 2))]
            expected = [list(group) for _, group in itertools.groupby(brute, key=lambda qs: qs[:-1])]
            runs = list(coprime_runs(k, m_cap))
            assert [[rho.qs for rho in run] for run in runs] == expected, (k, m_cap)
            for run in runs:
                assert run and all(rho.m == math.prod(rho.qs) for rho in run)
                assert len({rho.qs[:-1] for rho in run}) == 1
                assert [rho.qs[-1] for rho in run] == sorted({rho.qs[-1] for rho in run})
        assert expected, "the largest cap enumerates something"

    def test_runs_errors_and_caps(self):
        for bad in ((0, 10), (2, 0)):
            with pytest.raises(InvalidParameter):
                next(coprime_runs(*bad))
        with pytest.raises(CapExceeded):
            next(coprime_runs(2, 10**8))

    def test_runs_are_cut_at_run_length(self, monkeypatch):
        whole = {k: list(coprime_tuples(k, 300)) for k in (1, 2, 3)}
        monkeypatch.setattr(analysis, "RUN_LENGTH", 5)
        for k, tuples in whole.items():
            runs = list(coprime_runs(k, 300))
            assert [rho for run in runs for rho in run] == tuples
            assert len(runs) > len({rho.qs[:-1] for rho in tuples})
            for run in runs:
                assert run and len({rho.qs[:-1] for rho in run}) == 1
                assert run[-1].qs[-1] - run[0].qs[-1] < 5

    @pytest.mark.parametrize("k, m_cap", [(1, 300), (2, 300), (3, 600), (4, 1000)])
    def test_max_degree_stops_each_run(self, k, m_cap):
        for max_degree in (-1, 0, 1, 2, 7, 8, 48, 50, 10**6):
            runs = list(coprime_runs(k, m_cap, max_degree))
            assert all(runs)
            assert [rho for run in runs for rho in run] == [
                rho for rho in coprime_tuples(k, m_cap) if degree_of(rho) <= max_degree], max_degree

    def test_absurd_k_costs_a_few_multiplications(self):
        start = time.perf_counter()
        assert list(coprime_tuples(10**6, 30)) == []
        assert list(coprime_runs(10**9, 10**7)) == []
        assert time.perf_counter() - start < 0.1


class TestSearch:
    def test_m105(self):
        reports = search_max_ratio(105, 3)
        assert len(reports) == 10
        qs = [rep.rho.qs for rep in reports]
        # Three tuples tie at height 2 over normalizer 3; lexicographic order
        # breaks the tie.
        assert qs[:3] == [(3, 4, 5), (3, 4, 7), (3, 5, 7)]
        top = reports[0]
        assert top.height == 2 and top.normalizer == 3
        assert rel_close(top.normalized_ratio, normalized_ratio(2, 3, 3), 1e-15)
        ratios = [rep.normalized_ratio for rep in reports]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_ranks_by_exact_fraction(self, monkeypatch):
        # (3,4)'s A / M passes (2,3)'s by 2^-200: the two ratios are equal in
        # floats and at 128 bits, so only the exact fraction puts (3,4) first.
        heights = {(2, 3): (1, 1), (3, 4): (2**200 + 1, 2**200)}
        monkeypatch.setattr(analysis, "coprime_runs",
                            lambda k, m_cap, max_degree: [[validate_tuple(qs)] for qs in heights])
        monkeypatch.setattr(analysis, "heights", lambda run, degree_cap: (heights[rho.qs][0] for rho in run))
        monkeypatch.setattr(analysis, "normalizer", lambda rho: heights[rho.qs][1])
        reports = search_max_ratio(20, 2)
        assert reports[0].normalized_ratio == reports[1].normalized_ratio
        assert [rep.rho.qs for rep in reports] == [(3, 4), (2, 3)]
        assert [(rep.height, rep.normalizer) for rep in reports] == [heights[3, 4], heights[2, 3]]

    def test_smallest_triple(self):
        reports = search_max_ratio(30, 3)
        assert [rep.rho.qs for rep in reports] == [(2, 3, 5)]

    def test_empty(self):
        assert search_max_ratio(5, 2) == []

    def test_expand_cap_filters(self):
        reports = search_max_ratio(105, 3, expand_cap=30)
        assert len(reports) == 6
        assert all(rep.degree <= 30 for rep in reports)
        assert reports[0].rho.qs == (3, 4, 5)

    def test_caps(self):
        with pytest.raises(CapExceeded):
            search_max_ratio(10**8, 2)

    def test_caps_come_from_opts(self):
        # (3,5,7) has degree 48, so its low half needs 25 coefficients.
        with pytest.raises(DegreeCapExceeded):
            search_max_ratio(105, 3, degree_cap=24)
        assert search_max_ratio(105, 3, degree_cap=25) == search_max_ratio(105, 3)


def reference_search(m_cap, k, expand_cap=DEFAULT_SEARCH_EXPAND_CAP, degree_cap=DEFAULT_DEGREE_CAP):
    """The per-tuple search: a low half and a height report for each tuple, then a sort on -A / M."""
    reports = [height_report(rho, low_half(rho, degree_cap))
               for rho in coprime_tuples(k, m_cap) if degree_of(rho) <= expand_cap]
    reports.sort(key=lambda rep: (-Fraction(rep.height, rep.normalizer), rep.rho.qs))
    return reports


def outcome(search, *args, **kwargs):
    """The reports of a search, or the coefficients and cap of the DegreeCapExceeded it raised."""
    try:
        return search(*args, **kwargs)
    except DegreeCapExceeded as exc:
        return "DegreeCapExceeded", exc.coefficients, exc.cap


class TestSearchMatchesPerTupleSearch:
    """Runs, the ratio memo and the rank sort change nothing that search_max_ratio returns."""

    @pytest.mark.parametrize("k, m_caps", [
        (2, (30, 300, 1500)),
        (3, (105, 700, 2500)),
        (4, (1155, 4000, 7000)),
        (5, (15015, 40000)),
    ])
    @pytest.mark.parametrize("expand_cap", [30, 1000, DEFAULT_SEARCH_EXPAND_CAP])
    def test_equal_reports(self, k, m_caps, expand_cap):
        for m_cap in m_caps:
            reports = search_max_ratio(m_cap, k, expand_cap)
            assert reports == reference_search(m_cap, k, expand_cap), (k, m_cap)

    @pytest.mark.parametrize("degree_cap", [1, 5, 6, 12, 13, 16, 17, 24, 25, 100])
    def test_degree_cap_inside_a_run(self, degree_cap):
        # At m <= 105 the run (2,3,q) has windows 5, 7, 11, 13, 17: a cap of
        # 12 or 16 falls inside it, and the first window past the cap is named.
        assert (outcome(search_max_ratio, 105, 3, degree_cap=degree_cap)
                == outcome(reference_search, 105, 3, degree_cap=degree_cap))
        if degree_cap == 12:
            assert outcome(search_max_ratio, 105, 3, degree_cap=12) == ("DegreeCapExceeded", 13, 12)


def test_height_report_fields():
    rho = validate_tuple([3, 5, 7])
    rep = height_report(rho, low_half(rho))
    assert (rep.height, rep.normalizer, rep.degree) == (2, 3, 48)
    assert rep.degree == degree_of(rho)
    assert height_report(rho, expand(rho)) == rep


def test_constant_result_is_frozen_record():
    result = limit_constant(3)
    assert isinstance(result, ConstantResult)
    with pytest.raises(AttributeError):
        result.value = 0
