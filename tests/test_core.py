import contextlib
import inspect
import math
import random
import sys
import time
import tracemalloc
import weakref
from itertools import combinations, groupby
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import coprime_tuples, sweep_from_one
import iepoly
from iepoly import construction, core
from iepoly.core import (
    INT64_SAFE_LIMIT,
    ROW_SWEEP_MIN,
    SUBSET_CAP,
    SWEEP_BLOCK,
    _shifted_difference,
    _strided_prefix_sum,
    degree_of,
    eval_at_one,
    expand,
    expansions,
    factor_system,
    height,
    heights,
    is_palindromic,
    low_half,
    ordered_factors,
    validate_tuple,
)
from iepoly.errors import (
    DegreeCapExceeded,
    EmptyTuple,
    EntryBelowTwo,
    InvalidParameter,
    NotCoprime,
    NotIncreasing,
    TupleTooLarge,
)
from iepoly.oracle import oracle_expand

FIRST_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73]


class TestValidate:
    def test_basic(self):
        rho = validate_tuple([3, 5, 7])
        assert rho.k == 3
        assert rho.m == 105
        assert rho.qs == (3, 5, 7)

    def test_empty(self):
        with pytest.raises(EmptyTuple):
            validate_tuple([])

    def test_not_increasing(self):
        with pytest.raises(NotIncreasing):
            validate_tuple([5, 3])
        with pytest.raises(NotIncreasing):
            validate_tuple([3, 3])

    def test_entry_below_two(self):
        with pytest.raises(EntryBelowTwo) as err:
            validate_tuple([1, 3])
        assert err.value.index == 0

    def test_not_coprime_identifies_pair(self):
        with pytest.raises(NotCoprime) as err:
            validate_tuple([3, 6])
        assert (err.value.i, err.value.j) == (0, 1)
        assert err.value.gcd == 3
        with pytest.raises(NotCoprime) as err:
            validate_tuple([5, 7, 9, 21])
        assert (err.value.i, err.value.j) == (1, 3)


    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
    @pytest.mark.parametrize("qs, error", [
        ([10**4400, 2 * 10**4400], NotCoprime),
        ([2 * 10**4400, 10**4400], NotIncreasing),
        ([-(10**4400)], EntryBelowTwo),
    ])
    def test_errors_print_entries_past_the_str_digit_limit(self, qs, error):
        # Under the interpreter's default 4,300-digit limit on int-to-str
        # conversion, the error names the entries in full all the same.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(error) as err:
                validate_tuple(qs)
        finally:
            sys.set_int_max_str_digits(limit)
        assert "1" + "0" * 4400 in str(err.value)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
    def test_tuples_print_entries_past_the_str_digit_limit(self):
        # str() of a tuple, which the run error below and oracle-check's
        # mismatch list print, names its entries in full under the default
        # 4,300-digit limit, and a malformed run raises its documented error.
        big = validate_tuple([3, 10**4400 + 1])
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            text = str(big)
            with pytest.raises(InvalidParameter) as err:
                list(heights([big, validate_tuple([2, 5])]))
        finally:
            sys.set_int_max_str_digits(limit)
        assert text == "{3,1" + "0" * 4399 + "1}"
        assert text + " then {2,5}" in str(err.value)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
    def test_errors_print_a_million_bit_entry_in_time(self):
        # Error messages print through the same sub-quadratic printer as
        # stdout; str() of these two entries takes seconds on CPython 3.11.
        x = (1 << 10**6) + 1
        start = time.perf_counter()
        with pytest.raises(NotIncreasing) as err:
            validate_tuple([2 * x, x])
        assert time.perf_counter() - start < 1
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert str(err.value) == f"NotIncreasing: q[0] = {2 * x} not below q[1] = {x}"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_products_of_a_long_tuple(self):
        qs = construction.family_parameters(1, construction.FAMILY_K_CAP)[1]
        rho = validate_tuple(qs)
        assert rho.m == math.prod(qs)
        assert degree_of(rho) == math.prod(q - 1 for q in qs)
        assert [validate_tuple(qs[:n]).m for n in range(1, 9)] == [math.prod(qs[:n]) for n in range(1, 9)]


class TestFactorSystem:
    def test_pair(self):
        fs = factor_system(validate_tuple([2, 3]))
        assert sorted(fs) == [(1, 1), (2, -1), (3, -1), (6, 1)]

    def test_singleton(self):
        fs = factor_system(validate_tuple([7]))
        assert sorted(fs) == [(1, -1), (7, 1)]

    def test_triple_signed_degree_sum(self):
        fs = factor_system(validate_tuple([3, 5, 7]))
        assert len(fs) == 8
        assert sum(sign * d for d, sign in fs) == 2 * 4 * 6

    @pytest.mark.parametrize("qs", [(2,), (2, 3), (4, 9), (3, 5, 7), (2, 3, 5, 7)])
    def test_invariants(self, qs):
        rho = validate_tuple(qs)
        fs = factor_system(rho)
        k = rho.k
        assert len(fs) == 2**k
        assert sum(1 for _, s in fs if s > 0) == 2 ** (k - 1)
        assert sum(1 for _, s in fs if s < 0) == 2 ** (k - 1)
        ds = [d for d, _ in fs]
        assert len(set(ds)) == len(ds)
        assert all(rho.m % d == 0 for d in ds)
        assert sum(sign * d for d, sign in fs) == degree_of(rho)

    def test_subset_cap(self):
        rho = validate_tuple(FIRST_PRIMES)
        assert rho.k == SUBSET_CAP + 1
        with pytest.raises(TupleTooLarge):
            factor_system(rho)


def test_degree_of():
    assert degree_of(validate_tuple([3, 5])) == 8
    assert degree_of(validate_tuple([3, 5, 7])) == 48
    assert degree_of(validate_tuple([49, 51, 149])) == 355200


class TestExpand:
    def test_single_even(self):
        assert expand(validate_tuple([2])).tolist() == [1, 1]

    def test_pair(self):
        assert expand(validate_tuple([2, 3])).tolist() == [1, -1, 1]

    def test_triple_105(self):
        p = expand(validate_tuple([3, 5, 7]))
        assert len(p) == 49
        assert p[7] == -2
        assert height(p) == 2
        assert is_palindromic(p)
        assert eval_at_one(p) == 1

    def test_degree_cap(self):
        # The error carries the coefficients refused: 49 for expand, 25 for the low half.
        rho = validate_tuple([3, 5, 7])
        with pytest.raises(DegreeCapExceeded) as err:
            expand(rho, degree_cap=10)
        assert (err.value.coefficients, err.value.cap) == (49, 10)
        with pytest.raises(DegreeCapExceeded) as err:
            low_half(rho, degree_cap=24)
        assert (err.value.coefficients, err.value.cap) == (25, 24)

    def test_low_half_is_a_prefix_of_expand(self, small_corpus, high_k_corpus):
        for rho in small_corpus + high_k_corpus:
            full = expand(rho)
            half = low_half(rho)
            assert len(half) == degree_of(rho) // 2 + 1
            assert np.array_equal(half, full[: len(half)]), rho


class TestExpandProperties:
    def test_structure(self, small_corpus, random_corpus):
        for rho in small_corpus + random_corpus:
            p = expand(rho)
            assert len(p) == degree_of(rho) + 1
            assert p[0] == 1
            assert p[-1] == 1
            assert is_palindromic(p)
            assert eval_at_one(p) == (rho.qs[0] if rho.k == 1 else 1)

    def test_binary_tuples_are_flat(self, random_corpus):
        seen = 0
        for rho in random_corpus:
            if rho.k != 2:
                continue
            seen += 1
            p = expand(rho)
            assert height(p) == 1
            assert set(p) <= {-1, 0, 1}
        assert seen > 0

    def test_order_independence(self, small_corpus):
        rng = random.Random(20250808)
        for rho in small_corpus:
            factors = ordered_factors(rho)
            window = degree_of(rho) + 1
            reference = sweep_from_one(window, factors, np.int64)
            for _ in range(3):
                shuffled = factors[:]
                rng.shuffle(shuffled)
                assert np.array_equal(sweep_from_one(window, shuffled, np.int64), reference)

    def test_adjoining_an_entry(self):
        # Q_{rho + q}(x) * Q_rho(x) = Q_rho(x^q), from the subset definition:
        # a third route, by convolution, sharing no division code with either
        # expander.  q lands before, between and after the entries of rho.
        positions = set()
        for k in (1, 2, 3):
            for rho in coprime_tuples(k, 200):
                base = expand(rho)
                for q in range(2, 12):
                    if q in rho.qs or any(math.gcd(q, p) != 1 for p in rho.qs):
                        continue
                    stretched = np.zeros(degree_of(rho) * q + 1, dtype=np.int64)
                    stretched[::q] = base
                    joined = expand(validate_tuple(sorted(rho.qs + (q,))))
                    assert np.array_equal(np.convolve(joined, base), stretched), (rho, q)
                    positions.add(sum(p < q for p in rho.qs))
        assert positions == {0, 1, 2, 3}

    def test_periodic_in_the_last_entry(self):
        """Kaplan's periodicity, across tuples that share no window.

        For a prefix rho' with product m' and q > m' coprime to m', the
        coefficients of Q_(rho' + q) take the same values for every q in one
        residue class mod m', and the height is the same for q and for -q mod
        m' (Kaplan, "Flat cyclotomic polynomials of order three", J. Number
        Theory 127 (2007); Bachman and Moree, Integers 11 (2011), for
        inclusion-exclusion polynomials).  So the sweeps of q and q + m',
        whose windows differ, must agree on the largest and least
        coefficient.  No command relies on the statement.
        """
        by_residue, by_sign = {}, {}
        for k in (2, 3, 4):
            for prefix in coprime_tuples(k - 1, 60):
                m = prefix.m
                run = [validate_tuple(prefix.qs + (q,)) for q in range(m + 1, 3 * m + 1) if math.gcd(q, m) == 1]
                for rho, c, A in zip(run, expansions(run), heights(run)):
                    q = rho.qs[-1]
                    by_residue.setdefault((prefix.qs, q % m), set()).add((int(c.max()), int(c.min())))
                    by_sign.setdefault((prefix.qs, min(q % m, -q % m)), set()).add(A)
        assert (len(by_residue), len(by_sign)) == (1771, 886)
        assert all(len(values) == 1 for values in by_residue.values())
        assert all(len(values) == 1 for values in by_sign.values())


def divisions_first(rho):
    """The order under which the int64 sweep wraps on k >= 5: all divisions, then multiplications."""
    factors = factor_system(rho)
    return sorted(f for f in factors if f[1] < 0) + sorted(f for f in factors if f[1] > 0)


class TestPromotion:
    """An int64 sweep that could wrap promotes to Python integers at that step and stays exact."""

    @pytest.mark.parametrize("qs, expected_height", [((5, 7, 11, 13, 17), 67), ((3, 5, 7, 11, 13, 17), 532)])
    def test_divisions_first_promotes_and_agrees(self, qs, expected_height):
        rho = validate_tuple(qs)
        forced = sweep_from_one(degree_of(rho) + 1, divisions_first(rho), np.int64)
        assert forced.dtype == object
        default = expand(rho)
        assert np.array_equal(forced, default)
        assert height(forced) == expected_height
        assert is_palindromic(forced)
        assert eval_at_one(forced) == 1

    def test_the_wrapped_array_is_promoted_in_place(self, monkeypatch):
        # The step that could have wrapped is undone in int64 and redone in
        # Python integers: one sweep runs, from an int64 array, none from one
        # in Python integers, and the int64 array is gone once converted.
        rho = validate_tuple([5, 7, 11, 13, 17])
        window, factors = degree_of(rho) + 1, divisions_first(rho)
        real = core._sweep
        entered = []

        def spying(c, factors, bound):
            entered.append(weakref.ref(c))
            return real(c, factors, bound)

        monkeypatch.setattr(core, "_sweep", spying)
        with recorded_sweeps() as (sweeps, steps):
            c = sweep_from_one(window, factors, np.int64)
        assert len(entered) == 1 and entered[0]() is None
        assert c.dtype == object and np.array_equal(c, expand(rho))
        assert steps == expected_steps(window, factors, INT64_SAFE_LIMIT)
        assert_each_step_once(sweeps, steps)

    def test_object_sweep_matches_int64_sweep(self, small_corpus, random_corpus):
        for rho in small_corpus + random_corpus[:10]:
            factors = ordered_factors(rho)
            window = degree_of(rho) + 1
            as_int64 = sweep_from_one(window, factors, np.int64)
            as_object = sweep_from_one(window, factors, object)
            assert as_int64.dtype == np.int64 and as_object.dtype == object
            assert np.array_equal(as_int64, as_object), rho

    def test_random_high_k_orders_agree(self):
        rng = random.Random(0x5A1E)
        promoted = 0
        checked = 0
        while checked < 8:
            qs = sorted(rng.sample(range(2, 24), rng.choice((5, 6))))
            if any(math.gcd(a, b) != 1 for a, b in combinations(qs, 2)):
                continue
            rho = validate_tuple(qs)
            if degree_of(rho) > 60_000:
                continue
            checked += 1
            forced = sweep_from_one(degree_of(rho) + 1, divisions_first(rho), np.int64)
            promoted += forced.dtype == object
            assert np.array_equal(forced, expand(rho)), qs
        assert promoted > 0


@contextlib.contextmanager
def recorded_sweeps():
    """Record core's sweeps inside the block: (entry dtype, result dtype, factors applied)
    of each, and each kernel call as (kernel, d, dtype).  A sweep entered with the
    constant 1 in Python integers fails at once."""
    sweeps, steps = [], []

    def sweep(c, factors, bound):
        assert c.dtype == np.int64 or np.count_nonzero(c[1:]), "an object array built from 1"
        window, dtype = len(c), c.dtype
        c, bound = real_sweep(c, factors, bound)
        sweeps.append((dtype, c.dtype, sum(d < window for d, _ in factors)))
        return c, bound

    def recording(kernel):
        def step(c, d):
            steps.append((kernel, d, c.dtype))
            kernel(c, d)
        return step

    real_sweep = core._sweep
    with mock.patch.object(core, "_sweep", sweep), \
            mock.patch.object(core, "_shifted_difference", recording(_shifted_difference)), \
            mock.patch.object(core, "_strided_prefix_sum", recording(_strided_prefix_sum)):
        yield sweeps, steps


def assert_each_step_once(sweeps, steps):
    """Each sweep ran every applied factor once, plus one undo and one redo if it promoted."""
    promoted = sum(entry == np.int64 and result == object for entry, result, _ in sweeps)
    assert len(steps) == sum(applied for _, _, applied in sweeps) + 2 * promoted


def expected_steps(window, factors, limit):
    """The kernel calls of an int64 sweep from 1: each applied factor once and, at the
    first step after which the object sweep passes ``limit``, the other kernel undoing
    it in int64 and the step again in Python integers."""
    c = np.zeros(window, dtype=object)
    c[0] = 1
    steps, dtype = [], np.dtype(np.int64)
    for d, sign in factors:
        if d >= window:
            continue
        pair = (_shifted_difference, _strided_prefix_sum)
        kernel, undo = pair if sign > 0 else pair[::-1]
        kernel(c, d)
        steps.append((kernel, d, dtype))
        if dtype == np.int64 and height(c) > limit:
            dtype = np.dtype(object)
            steps += [(undo, d, np.dtype(np.int64)), (kernel, d, dtype)]
    return steps


def short_factor_lists(window):
    return st.lists(st.tuples(st.integers(1, window), st.sampled_from((1, -1))), max_size=12)


class TestMagnitudeBound:
    """The int64 lane scans only where its carried magnitude bound passes the limit."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), window=st.integers(1, 300))
    def test_bound_never_underestimates(self, data, window):
        # After every prefix of the sweep, max |c| is at most the product of
        # 2 per multiplication and ceil(window / d) per truncated division.
        factors = data.draw(short_factor_lists(window))
        bound = 1
        for end, (d, sign) in enumerate(factors, 1):
            bound *= 2 if sign > 0 else -(-window // d)
            c = sweep_from_one(window, factors[:end], object)
            assert max(abs(v) for v in c.tolist()) <= bound

    @settings(max_examples=300, deadline=None)
    @given(window=st.integers(1, 40), factors=short_factor_lists(40), limit=st.integers(1, 100))
    @example(window=3, factors=[(1, -1), (2, -1)], limit=1)  # [1, 1, 1], then [1, 1, 2]: ceil(3/2) = 2
    def test_same_lane_as_every_step_check_below_a_lowered_limit(self, window, factors, limit):
        # With the limit lowered, short random sequences cross it often: the
        # int64 sweep must promote exactly where a prefix first does, and
        # hold the object sweep's values in either lane.
        expected, fits = object_sweep_within_limit(window, factors, stop=False, limit=limit)
        with mock.patch.object(core, "INT64_SAFE_LIMIT", limit), recorded_sweeps() as (_, steps):
            c = sweep_from_one(window, factors, "int64")
        assert c.dtype == (np.int64 if fits else object)
        assert np.array_equal(c, expected)
        assert steps == expected_steps(window, factors, limit)

    def test_same_lane_as_every_step_check(self, high_k_corpus, monkeypatch):
        # Under either order, the int64 sweep stays in int64 exactly when every
        # prefix of the object sweep stays within INT64_SAFE_LIMIT, returns
        # the object sweep's values, and scans less often than a check after
        # every applied factor.  The polynomial does not depend on the order,
        # so the second order's sweep may stop at its first prefix past the
        # limit.
        scans = count_height_calls(monkeypatch)
        for rho in high_k_corpus:
            window = degree_of(rho) + 1
            values = None
            for factors in (ordered_factors(rho), divisions_first(rho)):
                c, fits = object_sweep_within_limit(window, factors, stop=values is not None)
                values = c if values is None else values
                scans.clear()
                result = sweep_from_one(window, factors, np.int64)
                assert result.dtype == (np.int64 if fits else object), rho.qs
                assert np.array_equal(result, values), rho.qs
                assert len(scans) < sum(d < window for d, _ in factors), rho.qs

    def test_scans_are_few(self, monkeypatch):
        scans = count_height_calls(monkeypatch)
        rho = validate_tuple([49, 51, 149])
        assert sweep_from_one(degree_of(rho) + 1, ordered_factors(rho), np.int64).dtype == np.int64
        assert len(scans) == 0
        rho = validate_tuple([2, 3, 5, 7, 11, 13, 17])
        window = degree_of(rho) + 1
        factors = ordered_factors(rho)
        assert sum(d < window for d, _ in factors) == 124
        assert sweep_from_one(window, factors, np.int64).dtype == np.int64
        assert 1 <= len(scans) <= 10


def runs_of(tuples):
    """Consecutive tuples that share q_1 .. q_(k-1), as lists: the runs of an enumeration."""
    return [list(group) for _, group in groupby(tuples, key=lambda rho: rho.qs[:-1])]


@st.composite
def random_runs(draw, max_window):
    """A random coprime prefix and several larger last entries coprime to it."""
    prefix = []
    for q in draw(st.lists(st.integers(2, 13), max_size=3)):
        if all(math.gcd(q, p) == 1 for p in prefix):
            prefix.append(q)
    prefix.sort()
    start = prefix[-1] + 1 if prefix else 2
    lasts = draw(st.lists(st.integers(start, start + 40), min_size=1, max_size=6, unique=True))
    run = [validate_tuple(prefix + [q]) for q in sorted(lasts) if all(math.gcd(q, p) == 1 for p in prefix)]
    run = [rho for rho in run if degree_of(rho) // 2 + 1 <= max_window]
    assume(run)
    return run


def several_groups():
    """The run 3,4,q up to m = 5006: its tuples before the last fill several blocks."""
    run = [validate_tuple([3, 4, q]) for q in range(5, 5006 // 12 + 1) if math.gcd(q, 12) == 1]
    rows = max(-(-(degree_of(rho) // 2 + 1) // rho.qs[-1]) for rho in run)
    assert rows * sum(rho.qs[-1] for rho in run[:-1]) > SWEEP_BLOCK
    return run


def past_the_shared_window(k, m_cap):
    """The runs of k entries up to m_cap, some of whose tuples before the last have a rectangle
    of ceil(window / q_k) rows of q_k cells reaching past the run's shared window."""
    runs = runs_of(coprime_tuples(k, m_cap))
    assert any(
        -(-(degree_of(rho) // 2 + 1) // rho.qs[-1]) * rho.qs[-1] > degree_of(run[-1]) // 2 + 1
        for run in runs for rho in run[:-1]
    )
    return runs


def flat_run():
    """The run 7,q: blocks of several small tuples, then three tuples whose windows pass 2 SWEEP_BLOCK."""
    return [validate_tuple([7, q]) for q in [*range(8, 400), 49999, 50021, 50023] if q % 7]


@contextlib.contextmanager
def planted(which):
    """Plant one promotion in a run: lower the limit to 1, which no value of
    a k = 2 run passes, and have core.height report 2 throughout the sweep
    ``which`` names: "shared" the shared array's, "block" the first block of
    several tuples', "last" the last tuple's, found as the sweep of the
    shared array itself.  A tuple alone, in a copy of its prefix of the
    shared array, is not planted.  Yields the tuple count of each promoted
    block or array."""
    promoted, groups, chosen, shared = [], [], [], []
    real_sweep, real_block, real_height = core._sweep, core._block, core.height

    def block(shared, bound, factors, group):
        groups.append(len(group))
        return real_block(shared, bound, factors, group)

    def sweep(c, factors, bound):
        role = ("shared" if not chosen else "block" if c.base is not None
                else "last" if c is shared[0]() else "alone")
        chosen.append(role == which and not promoted)
        c, bound = real_sweep(c, factors, bound)
        if role == "shared":
            shared.append(weakref.ref(c))
        if chosen[-1]:
            assert c.dtype == object
            promoted.append(groups[-1] if role == "block" else 1)
        chosen[-1] = False
        return c, bound

    with mock.patch.object(core, "INT64_SAFE_LIMIT", 1), mock.patch.object(core, "_sweep", sweep), \
            mock.patch.object(core, "_block", block), \
            mock.patch.object(core, "height", lambda c: 2 if chosen[-1] else real_height(c)):
        yield promoted


class TestRuns:
    """A run sweeps the factors it shares once, and continues its tuples side by side in blocks."""

    @pytest.mark.parametrize("runs", [
        *(pytest.param(lambda k=k, m_cap=m_cap: runs_of(coprime_tuples(k, m_cap)), id=f"{k}-{m_cap}")
          for k, m_cap in [(1, 150), (2, 600), (3, 1200), (4, 4000), (5, 20000)]),
        pytest.param(lambda: [several_groups()], id="several-groups"),
    ])
    def test_every_small_tuple_matches_the_oracle(self, runs):
        # At k = 1 and at k = 2 with an even q_1, some tuples' rows of q_k
        # cells reach past the shared window (109 at k = 2, m <= 600), and
        # those tuples continue alone, in a copy of their prefix of the
        # shared array.
        runs = runs()
        assert any(len(run) > 1 for run in runs)
        for run in runs:
            references = [oracle_expand(rho) for rho in run]
            assert list(heights(run)) == [height(reference) for reference in references]
            for rho, full, reference in zip(run, expansions(run), references):
                assert full.dtype == reference.dtype, rho.qs
                assert np.array_equal(full, reference), rho.qs

    @pytest.mark.parametrize("runs", [
        pytest.param(lambda: [several_groups()], id="several-groups"),
        pytest.param(lambda: past_the_shared_window(1, 150), id="past-k1"),
        pytest.param(lambda: past_the_shared_window(2, 300), id="past-k2"),
        pytest.param(lambda: runs_of(coprime_tuples(4, 4000)), id="k4"),
        pytest.param(lambda: runs_of(coprime_tuples(5, 20000)), id="k5"),
    ])
    def test_every_block_cell_is_a_coefficient_or_zero(self, runs):
        # Every cell of a block, which ``heights`` reduces whole, holds its
        # tuple's coefficient at that index, 0 past its degree: past the
        # window too, never a cell of the shared array left unswept, nor one
        # swept from a cell missing past the shared window.
        for run in runs():
            windows = [degree_of(rho) // 2 + 1 for rho in run]
            tuples = iter(zip(run, windows))
            for block, widths in core._truncated(run, windows, core.DEFAULT_DEGREE_CAP):
                off = 0
                for w in widths:
                    rho, window = next(tuples)
                    cells = block[:, off : off + w].reshape(-1)
                    off += w
                    coefficients = np.zeros(max(len(cells), degree_of(rho) + 1), dtype=object)
                    coefficients[: degree_of(rho) + 1] = expand(rho)
                    assert len(cells) >= window, rho.qs
                    assert np.array_equal(cells, coefficients[: len(cells)]), rho.qs

    @pytest.mark.parametrize("limit", [1, 2, 3, 4, 8])
    def test_lanes_of_low_halves_below_a_lowered_limit(self, limit):
        # In either lane a run's low halves are the object sweep's, as
        # low_half's are: in runs whose rows reach past the shared window,
        # and at k = 4, where the cells of a row past a window grow past the
        # limit first.  A shared array or a block holds each tuple's window
        # with the same values at every step, so it promotes no later than
        # the tuple alone, and as a whole: it may be in Python integers where
        # the tuple alone stays in int64.
        runs = past_the_shared_window(2, 300) + runs_of(coprime_tuples(4, 6000))
        lanes = set()
        for run in runs:
            with mock.patch.object(core, "INT64_SAFE_LIMIT", limit):
                arrays = list(core._arrays(run, [degree_of(rho) // 2 + 1 for rho in run], core.DEFAULT_DEGREE_CAP))
                alone = [low_half(rho) for rho in run]
            for rho, half, single in zip(run, arrays, alone):
                expected, fits = object_sweep_within_limit(len(single), ordered_factors(rho), stop=False, limit=limit)
                assert single.dtype == (np.int64 if fits else object), rho.qs
                assert half.dtype == object or fits, rho.qs
                assert np.array_equal(half, expected) and np.array_equal(single, expected), rho.qs
                lanes.add((half.dtype.name, single.dtype.name))
        assert ("object", "int64") in lanes and ("object", "object") in lanes

    @settings(max_examples=60, deadline=None)
    @given(run=random_runs(max_window=3000))
    def test_random_runs_match_the_object_sweep(self, run):
        arrays = list(expansions(run))
        assert len(arrays) == len(run)
        for rho, full, A in zip(run, arrays, heights(run)):
            window = degree_of(rho) + 1
            expected = sweep_from_one(window, ordered_factors(rho), object)
            assert full.dtype == np.int64 and len(full) == window, rho.qs
            assert np.array_equal(full, expected), rho.qs
            assert A == height(expected), rho.qs

    @settings(max_examples=200, deadline=None)
    @given(run=random_runs(max_window=200), limit=st.integers(1, 100))
    def test_promotions_below_a_lowered_limit(self, run, limit):
        # The shared sweep runs over the longest window, and its bound starts
        # every block; in either lane every tuple must hold the object
        # sweep's values, in expansions and in heights.  A tuple alone
        # promotes exactly where its own sweep passes the limit, and one in
        # a run no later.  No sweep starts from 1 in Python integers, and
        # each runs every factor once, plus one undo and one redo where it
        # promotes.
        with mock.patch.object(core, "INT64_SAFE_LIMIT", limit), recorded_sweeps() as (sweeps, steps):
            arrays = list(expansions(run))
            measured = list(heights(run))
            alone = [expand(rho) for rho in run]
        assert_each_step_once(sweeps, steps)
        for rho, full, single, A in zip(run, arrays, alone, measured):
            expected, fits = object_sweep_within_limit(degree_of(rho) + 1, ordered_factors(rho), stop=False, limit=limit)
            assert single.dtype == (np.int64 if fits else object), rho.qs
            assert full.dtype == object or fits, rho.qs
            assert np.array_equal(full, expected) and np.array_equal(single, expected), rho.qs
            assert A == height(expected), rho.qs

    def test_one_shared_array_per_run(self, monkeypatch):
        # heights and expansions build one array from 1 per run, the shared
        # array over its longest window.  Every other array continues from
        # it: a block of several tuples, or a tuple alone in a copy of its
        # prefix of the shared array, which ends as low_half's or expand's
        # array.  The k = 1 and k = 2 runs have tuples before the last whose
        # rows of q_k cells pass the shared window.
        swept, continued, alone = [], [], []
        real_unit, real_sweep = core._unit, core._sweep
        monkeypatch.setattr(core, "_unit", lambda window: swept.append(window) or real_unit(window))

        def recording(c, factors, bound):
            continued.append(c)
            result = real_sweep(c, factors, bound)
            if c.base is None and c is not continued[0]:
                alone.append(result[0])
            return result

        run = [validate_tuple(qs) for qs in ((3, 5, 7), (3, 5, 11), (3, 5, 13))]
        monkeypatch.setattr(core, "_sweep", recording)
        assert list(heights(run)) == [height(low_half(rho)) for rho in run]
        shared = continued[0]
        assert swept[0] == degree_of(run[-1]) // 2 + 1
        assert len(swept) == 1 + len(run)  # the run's array, then one per low_half alone
        # The run's array, one block of the two tuples before the last, and the
        # last tuple in the run's array itself.
        assert [c.base is None for c in continued[:3]] == [True, False, True] and continued[2] is shared
        seen = 0
        for run in [run, *past_the_shared_window(1, 150), *past_the_shared_window(2, 300)]:
            for route, single, window in ((heights, low_half, lambda rho: degree_of(rho) // 2 + 1),
                                          (expansions, expand, lambda rho: degree_of(rho) + 1)):
                expected = {window(rho): single(rho) for rho in run}
                del swept[:], continued[:], alone[:]
                list(route(run))
                assert swept == [window(run[-1])]
                assert all(np.array_equal(c, expected[len(c)]) for c in alone)
                seen += len(alone)
        assert seen

    def test_every_sweep_starts_from_a_bound_on_its_array(self, monkeypatch):
        # A block starts from the shared array's bound: it must bound the
        # block too, or the int64 lane could miss a wrap.
        real = core._sweep
        entries = []

        def recording(c, factors, bound):
            entries.append((height(c), bound))
            return real(c, factors, bound)

        monkeypatch.setattr(core, "_sweep", recording)
        for k, m_cap in ((3, 1500), (4, 5000)):
            for run in runs_of(coprime_tuples(k, m_cap)):
                list(heights(run))
                list(expansions(run))
        assert any(start > 1 for start, _ in entries)
        assert all(start <= bound for start, bound in entries)

    def test_a_wrapped_shared_sweep_promotes_the_run(self):
        # A planted promotion of the shared array: every block and the last
        # tuple continue from it in Python integers, with expand's values.
        run = flat_run()
        expected = [expand(rho) for rho in run]
        with planted("shared"), recorded_sweeps() as (sweeps, steps):
            arrays = list(expansions(run))
            measured = list(heights(run))
        assert_each_step_once(sweeps, steps)
        assert all(c.dtype == object for c in arrays)
        assert all(np.array_equal(c, e) for c, e in zip(arrays, expected))
        assert measured == [height(e) for e in expected]

    def test_a_wrapped_tuple_is_swept_in_int64_once(self, monkeypatch):
        # The shared array of a run of one is the tuple's own int64 sweep
        # from 1: when it could have wrapped, the tuple goes on in Python
        # integers from that step, and no factor but that one runs twice.
        rho = validate_tuple([2, 3, 5, 7, 11, 13, 17])
        window, factors = degree_of(rho) + 1, ordered_factors(rho)
        units = []
        real = core._unit
        monkeypatch.setattr(core, "INT64_SAFE_LIMIT", 30)
        monkeypatch.setattr(core, "_unit", lambda window: units.append(window) or real(window))
        with recorded_sweeps() as (_, steps):
            c = expand(rho)
        assert units == [window]
        assert c.dtype == object
        assert np.array_equal(c, sweep_from_one(window, factors, object))
        assert steps == expected_steps(window, factors, 30)
        assert len(steps) == sum(d < window for d, _ in factors) + 2 == 126

    def test_a_wrapped_last_tuple_keeps_no_int64_array(self):
        # A tuple whose sweep passes the limit only in its own half promotes
        # in the last continuation, where the shared array is handed over:
        # no int64 array stays beside the object one, so the traced peak is
        # that of the object sweep from 1.
        rho = validate_tuple([3, 4, 5, 7, 11, 13])
        window, factors = degree_of(rho) + 1, ordered_factors(rho)
        assert object_sweep_within_limit(window, factors[: 1 << (rho.k - 1)], stop=False, limit=16)[1]

        def traced(route):
            tracemalloc.start()
            try:
                c = route()
                return c, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        reference, reference_peak = traced(lambda: sweep_from_one(window, factors, object))
        with mock.patch.object(core, "INT64_SAFE_LIMIT", 16):
            c, peak = traced(lambda: expand(rho))
        assert c.dtype == object and np.array_equal(c, reference)
        assert peak < reference_peak + 4 * window  # an int64 window is 8 * window bytes

    def test_a_wrapped_block_promotes_whole(self):
        # A planted promotion of a block of several tuples: its tuples come
        # in Python integers, with expand's values, and the shared array and
        # every other block stay in int64.
        run = flat_run()
        expected = [expand(rho) for rho in run]
        for route in (expansions, heights):
            with planted("block") as groups:
                got = list(route(run))
            promoted = groups[0]
            assert promoted > 1
            if route is heights:
                assert got == [height(e) for e in expected]
            else:
                assert [c.dtype for c in got] == [object] * promoted + [np.int64] * (len(run) - promoted)
                assert all(np.array_equal(c, e) for c, e in zip(got, expected))

    def test_holds_one_copy_beside_the_shared_array(self):
        # Beside the shared array a run holds one array no longer than it and
        # one block, which with its sweep's copy of an overlapping source fits
        # SWEEP_BLOCK entries.  The first run's windows pass 2 SWEEP_BLOCK for
        # its last tuples, each alone in a copy of its prefix of the shared
        # array: while one is swept, the previous copy must already be gone.
        # The second run's windows are small, and its tuples fill several
        # blocks.
        big = [validate_tuple([7, 11, q]) for q in [*range(12, 200), 4987, 4993, 4999] if math.gcd(q, 77) == 1]
        assert degree_of(big[-3]) // 2 + 1 > 2 * SWEEP_BLOCK
        for run in (big, several_groups()):
            widest = degree_of(run[-1]) // 2 + 1
            tracemalloc.start()
            try:
                measured = list(heights(run))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert measured == [height(low_half(rho)) for rho in run]
            assert peak < 8 * (2 * widest + SWEEP_BLOCK) + (1 << 16)

    @pytest.mark.parametrize("which", ["shared", "block", "last"])
    def test_a_wrapped_array_stays_within_the_run_bound(self, which):
        # A promoted array is converted where it is, and the run holds the
        # shared array and one block, as it does in int64.  k = 2 values are
        # within 1, so an object array holds no integer beyond its pointers.
        run = flat_run()
        widest = degree_of(run[-1]) // 2 + 1
        assert widest > 2 * SWEEP_BLOCK
        expected = [height(low_half(rho)) for rho in run]
        with planted(which) as groups:
            tracemalloc.start()
            try:
                measured = list(heights(run))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert groups
        assert measured == expected
        assert peak < 8 * (2 * widest + SWEEP_BLOCK) + (1 << 17)

    def test_degree_cap_names_the_first_window_too_long(self):
        run = [validate_tuple(qs) for qs in ((2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 3, 13))]  # windows 5, 7, 11, 13
        with pytest.raises(DegreeCapExceeded) as err:
            list(heights(run, degree_cap=10))
        assert (err.value.coefficients, err.value.cap) == (11, 10)

    @pytest.mark.parametrize("qs", [((3, 5, 7), (3, 7, 11)), ((3, 5, 11), (3, 5, 7))])
    def test_refuses_what_is_not_a_run(self, qs):
        for route in (heights, expansions):
            with pytest.raises(InvalidParameter):
                list(route([validate_tuple(q) for q in qs]))


class TestOrder:
    """ordered_factors: what a run shares first, each half multiplications first."""

    def test_multiples_of_the_last_entry_come_last(self, small_corpus, random_corpus, high_k_corpus):
        for rho in small_corpus + random_corpus + high_k_corpus:
            factors = ordered_factors(rho)
            # Every subset S once, as (m / prod S, (-1)^|S|), by brute force.
            subsets = [s for size in range(rho.k + 1) for s in combinations(rho.qs, size)]
            assert sorted(factors) == sorted((rho.m // math.prod(s), (-1) ** len(s)) for s in subsets), rho.qs
            multiple = [d % rho.qs[-1] == 0 for d, _ in factors]
            assert multiple == sorted(multiple) and sum(multiple) == 1 << (rho.k - 1), rho.qs
            for half in (factors[: 1 << (rho.k - 1)], factors[1 << (rho.k - 1) :]):
                assert half == sorted(half, key=lambda f: (-f[1], f[0])), rho.qs

    def test_heavy_tuples_stay_in_int64(self, high_k_corpus):
        for rho in high_k_corpus + [validate_tuple([49, 51, 149])]:
            full = expand(rho)
            half = low_half(rho)
            assert full.dtype == half.dtype == np.int64, rho.qs
            assert np.array_equal(half, full[: len(half)]), rho.qs


def object_sweep_within_limit(window, factors, stop, limit=INT64_SAFE_LIMIT):
    """The object sweep, and whether every prefix stayed within ``limit``.

    With ``stop``, the sweep ends (returning None) at the first prefix past it.
    """
    c = np.zeros(window, dtype=object)
    c[0] = 1
    fits = True
    for d, sign in factors:
        if d >= window:
            continue
        (_shifted_difference if sign > 0 else _strided_prefix_sum)(c, d)
        if fits and max(c.max(), -c.min()) > limit:
            fits = False
            if stop:
                return None, fits
    return c, fits


def count_height_calls(monkeypatch):
    """Record every call of core.height from here on; the list of heights it returned."""
    measured = []

    def counting(c):
        measured.append(height(c))
        return measured[-1]

    monkeypatch.setattr(core, "height", counting)
    return measured


class TestShiftedDifference:
    """The blocked multiplication step equals the whole-slice subtraction."""

    @pytest.mark.parametrize("window", [1000, 3 * SWEEP_BLOCK + 5])
    @pytest.mark.parametrize("dtype", ["int64", "object"])
    def test_matches_whole_slice(self, window, dtype):
        rng = np.random.default_rng(window)
        values = rng.integers(-(1 << 40), 1 << 40, size=window)
        if dtype == "object":
            values = values.astype(object) * (1 << 70)
        half = window // 2
        for d in sorted({1, 7, SWEEP_BLOCK - 1, SWEEP_BLOCK + 1, half - 1, half, half + 1, window - 1}):
            if d >= window:
                continue
            expected = values.copy()
            expected[d:] -= values[: window - d]
            blocked = values.copy()
            _shifted_difference(blocked, d)
            assert blocked.dtype == expected.dtype
            assert np.array_equal(blocked, expected), d

    @pytest.mark.parametrize("d", [1, 1000])
    def test_needs_no_copy_of_the_window(self, d):
        c = np.zeros(10**6, dtype=np.int64)
        c[0] = 1
        tracemalloc.start()
        try:
            _shifted_difference(c, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the window itself is 8 MB


class TestStridedPrefixSum:
    """The division step equals c[i] += c[i-d] for i ascending, on both of its paths."""

    @pytest.mark.parametrize("d", [1, 7, ROW_SWEEP_MIN - 1, ROW_SWEEP_MIN, ROW_SWEEP_MIN + 1, 3 * ROW_SWEEP_MIN + 5])
    @pytest.mark.parametrize("dtype", ["int64", "object"])
    def test_matches_loop(self, d, dtype):
        rng = np.random.default_rng(d)
        # n < 2d, whole rows only, and ragged tails of one entry and of most of a row.
        for n in (d + 1, 2 * d - 1, 2 * d, 2 * d + 1, 5 * d, 5 * d + d // 2 + 1):
            values = rng.integers(-(1 << 40), 1 << 40, size=n)
            if dtype == "object":
                values = values.astype(object) * (1 << 70)
            expected = values.tolist()
            for i in range(d, n):
                expected[i] += expected[i - d]
            c = values.copy()
            _strided_prefix_sum(c, d)
            assert c.dtype == values.dtype
            assert c.tolist() == expected, (d, n)


@st.composite
def coprime_pairs(draw):
    # a < b <= 60 with gcd 1, drawn directly: nothing is filtered.
    a = draw(st.integers(2, 59))
    b = draw(st.sampled_from([b for b in range(a + 1, 61) if math.gcd(a, b) == 1]))
    return a, b


@settings(max_examples=60, deadline=None)
@given(pair=coprime_pairs())
def test_two_element_tuples_have_unit_coefficients(pair):
    p = expand(validate_tuple(pair))
    assert set(p) <= {-1, 0, 1}


class TestMeasures:
    def test_height_examples(self):
        assert height(expand(validate_tuple([2, 3]))) == 1
        assert height(expand(validate_tuple([2]))) == 1
        assert height(np.array([1, -5, 3])) == 5

    def test_palindrome_examples(self):
        assert is_palindromic(np.array([1, -1, 1]))
        assert not is_palindromic(np.array([1, 2]))

    def test_palindrome_needs_no_copy_of_the_window(self):
        ramp = np.arange(8 * SWEEP_BLOCK + 3, dtype=np.int64)
        c = np.minimum(ramp, ramp[::-1])
        broken = c.copy()
        broken[5 * SWEEP_BLOCK] += 1
        tracemalloc.start()
        try:
            assert is_palindromic(c) and not is_palindromic(broken)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * SWEEP_BLOCK  # a boolean array of the window is 8 * SWEEP_BLOCK bytes

    def test_eval_at_one_examples(self):
        assert eval_at_one(expand(validate_tuple([7]))) == 7
        assert eval_at_one(expand(validate_tuple([2, 3]))) == 1
        assert eval_at_one(expand(validate_tuple([3, 5, 7]))) == 1

    @pytest.mark.parametrize("value", [(1 << 62) - 1, -(1 << 62)])
    def test_eval_at_one_exact_past_int64(self, value):
        c = np.full(4, value, dtype=np.int64)
        assert int(c.sum()) != 4 * value  # the int64 sum wraps
        assert eval_at_one(c) == 4 * value

    def test_eval_at_one_across_blocks(self):
        rng = np.random.default_rng(3)
        c = rng.integers(-(1 << 63), (1 << 63) - 1, size=3 * SWEEP_BLOCK + 5, dtype=np.int64, endpoint=True)
        assert eval_at_one(c) == sum(int(v) for v in c)

    def test_eval_at_one_needs_no_copy_of_the_window(self):
        c = np.ones(10**6, dtype=np.int64)
        tracemalloc.start()
        try:
            assert eval_at_one(c) == 10**6
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the window itself is 8 MB


class TestOneRepresentation:
    """Every route returns a bare numpy array, and the measures take any of them."""

    def test_int64_on_3_5_7(self):
        rho = validate_tuple([3, 5, 7])
        full = [
            expand(rho),
            sweep_from_one(degree_of(rho) + 1, ordered_factors(rho), np.int64),
            oracle_expand(rho),
        ]
        half = low_half(rho)
        for c in full + [half]:
            assert type(c) is np.ndarray and c.dtype == np.int64
            assert height(c) == 2
            assert isinstance(is_palindromic(c), bool)
            assert eval_at_one(c) == sum(c.tolist())
        for c in full:
            assert is_palindromic(c) and eval_at_one(c) == 1

    def test_object_on_divisions_first(self):
        rho = validate_tuple([5, 7, 11, 13, 17])
        c = sweep_from_one(degree_of(rho) + 1, divisions_first(rho), np.int64)
        assert type(c) is np.ndarray and c.dtype == object
        assert (height(c), is_palindromic(c), eval_at_one(c)) == (67, True, 1)

    def test_public_names_resolve(self):
        for name in iepoly.__all__:
            assert getattr(iepoly, name, None) is not None, name


def test_defaulted_parameters_are_cli_flags():
    # A defaulted parameter of a public callable is a knob.  The ones left
    # are the values CLI flags set: degree_cap from --memory-cap, expand_cap
    # from search's --expand-cap.  A knob that only a test sets fails here.
    defaulted = {
        (name, param.name)
        for name in iepoly.__all__
        for param in inspect.signature(getattr(iepoly, name)).parameters.values()
        if param.default is not inspect.Parameter.empty
    }
    assert {param for _, param in defaulted} == {"degree_cap", "expand_cap"}, sorted(defaulted)
