import decimal
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import str_digit_limit
from iepoly.analysis import coprime_runs, height_report, limit_constant, normalized_ratio, search_max_ratio
from iepoly import construction
from iepoly.construction import (
    BOUND_BITS_CAP,
    HeightBound,
    bound_fits,
    check_congruence,
    congruence_family,
    family_parameters,
    height_lower_bound,
)
from iepoly.core import expand, height, low_half, validate_tuple
from iepoly.errors import _EXACT, STR_BITS, CapExceeded, CongruenceNotSatisfied, InvalidParameter


def lemma_bound(fam):
    """The family's bound as a Fraction of its decimal numerator over m, checked to be in lowest terms."""
    bound = Fraction(int(fam.height_bound.numerator), fam.rho.m)
    assert bound.denominator == fam.rho.m
    return bound


class TestFamily:
    def test_n1_k2(self):
        fam = congruence_family(1, 2)
        assert fam.r == 2
        assert fam.rho.qs == (5, 13)
        assert lemma_bound(fam) == Fraction(4, 65)

    def test_n1_k3(self):
        fam = congruence_family(1, 3)
        assert fam.r == 6
        assert fam.rho.qs == (13, 37, 61)
        assert lemma_bound(fam) == Fraction(1296, 29341)

    def test_n2_k1(self):
        fam = congruence_family(2, 1)
        assert fam.r == 2
        assert fam.rho.qs == (5,)
        assert lemma_bound(fam) == Fraction(2, 5)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            congruence_family(0, 2)
        with pytest.raises(InvalidParameter):
            congruence_family(1, 0)

    def test_large_k_skips_exact_bound(self):
        fam = congruence_family(1, 25)
        assert fam.height_bound is None
        assert fam.r == math.factorial(25)
        assert fam.rho.qs[0] == 2 * fam.r + 1

    def test_bound_materialization_boundary(self):
        assert congruence_family(1, 14).height_bound is not None
        assert congruence_family(1, 16).height_bound is None

    def test_invariants_sweep(self):
        # Construction must never fail and always sit on the 2r+1 branch.
        for N in range(1, 51):
            for k in range(1, 9):
                fam = congruence_family(N, k)
                assert fam.r == N * math.factorial(k)
                assert fam.rho.qs[0] > N
                assert all(q == (4 * j - 2) * fam.r + 1 for j, q in enumerate(fam.rho.qs, start=1))
                report = check_congruence(fam.rho, fam.r)
                assert report.ok
                assert all(e.branch == "plus" for e in report.elements)


class TestCongruence:
    def test_plus_branch(self):
        report = check_congruence(validate_tuple([5, 13]), 2)
        assert report.ok
        assert [e.residue for e in report.elements] == [5, 5]
        assert all(e.branch == "plus" for e in report.elements)

    def test_mixed_branches(self):
        report = check_congruence(validate_tuple([49, 51, 149]), 25)
        assert report.ok
        assert [e.branch for e in report.elements] == ["minus", "plus", "minus"]
        assert [e.residue for e in report.elements] == [49, 51, 49]

    def test_failure(self):
        report = check_congruence(validate_tuple([7]), 2)
        assert not report.ok
        assert report.elements[0].residue == 7
        assert report.elements[0].branch is None

    def test_invalid_r(self):
        with pytest.raises(InvalidParameter):
            check_congruence(validate_tuple([5]), 0)


class TestHeightLowerBound:
    def test_small(self):
        hb = height_lower_bound(validate_tuple([5, 13]), 2)
        assert (hb.numerator, hb.floor) == (4, 1)
        assert isinstance(hb.numerator, Decimal) and isinstance(hb.floor, Decimal)

    def test_above_one(self):
        rho = validate_tuple([49, 51, 149])
        hb = height_lower_bound(rho, 25)
        assert Fraction(int(hb.numerator), rho.m) == Fraction(390625, 372351)
        assert (hb.numerator, hb.floor) == (390625, 2)

    def test_hypothesis_enforced(self):
        with pytest.raises(CongruenceNotSatisfied):
            height_lower_bound(validate_tuple([7]), 2)

    def test_none_past_the_gate(self):
        # k = 16: r^(2^15) has 45 * 2^15 bits, past BOUND_BITS_CAP; the
        # congruence guard still runs first.
        fam = congruence_family(1, 16)
        assert height_lower_bound(fam.rho, fam.r) is None
        with pytest.raises(CongruenceNotSatisfied):
            height_lower_bound(fam.rho, fam.r + 1)

    @pytest.mark.parametrize("call, error", [
        (lambda big: height_lower_bound(validate_tuple([7]), big), CongruenceNotSatisfied),
        (lambda big: check_congruence(validate_tuple([7]), -big), InvalidParameter),
        (lambda big: congruence_family(-big, 2), InvalidParameter),
        (lambda big: normalized_ratio(0, big, 2), InvalidParameter),
        (lambda big: next(coprime_runs(3, big)), CapExceeded),
        (lambda big: next(coprime_runs(3, -big)), InvalidParameter),
        (lambda big: search_max_ratio(big, 3), CapExceeded),
        (lambda big: limit_constant(-big), InvalidParameter),
        (lambda big: family_parameters(1, big), CapExceeded),
    ], ids=["height_lower_bound", "check_congruence", "congruence_family", "normalized_ratio",
            "coprime_runs_cap", "coprime_runs_floor", "search_max_ratio", "limit_constant", "family_k_cap"])
    def test_errors_print_integers_past_the_str_digit_limit(self, call, error):
        # Under the interpreter's default 4,300-digit limit on int-to-str
        # conversion, the error is the documented one and names the value in full.
        with str_digit_limit(4300), pytest.raises(error) as err:
            call(10**4400)
        assert "1" + "0" * 4400 in str(err.value)

    def test_r_and_m_reach_decimal_through_big(self, monkeypatch):
        # decimal.Decimal(int) is quadratic before CPython 3.12: at the
        # gate's edge, k = 1 and r of 2^19 bits, it took about 0.5 s for
        # each of r and m.  No int longer than STR_BITS may reach it.
        seen = []

        class Recorder:
            def Decimal(self, value="0", *rest):
                if isinstance(value, int):
                    seen.append(value.bit_length())
                return decimal.Decimal(value, *rest)

            def __getattr__(self, name):
                return getattr(decimal, name)

        monkeypatch.setattr(construction, "decimal", Recorder())
        r = (1 << (BOUND_BITS_CAP - 1)) + 12345
        assert bound_fits(r, 1) and not bound_fits(2 * r, 1)
        hb = height_lower_bound(validate_tuple([2 * r + 1]), r)
        assert hb.floor == 1
        assert max(seen, default=0) <= STR_BITS

    @pytest.mark.parametrize("bits", [1, STR_BITS - 1, STR_BITS, STR_BITS + 1, BOUND_BITS_CAP])
    def test_same_bound_as_plain_decimal(self, bits):
        # For every k the gate allows at this length of r: r = 1 takes odd
        # primes, each 2r +- 1 mod 4, and a longer r a family member.
        ks = [k for k in range(1, 21) if bound_fits(1 << (bits - 1), k)]
        assert ks and not bound_fits(1 << (bits - 1), ks[-1] + 1)
        for k in ks:
            if bits == 1:
                r, qs = 1, [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73][:k]
            else:
                r, qs = family_parameters((1 << (bits - 1)) // math.factorial(k) + 12345, k)
            assert r.bit_length() == bits
            rho = validate_tuple(qs)
            with decimal.localcontext(_EXACT):
                numerator, m = Decimal(r) ** (1 << (k - 1)), Decimal(rho.m)
                expected = HeightBound(numerator, (numerator + m - 1) // m)
            hb = height_lower_bound(rho, r)
            assert hb == expected and tuple(map(str, hb)) == tuple(map(str, expected)), (bits, k)

    @pytest.mark.parametrize(
        "qs,r",
        [([5, 13], 2), ([13, 37, 61], 6)],
    )
    def test_bound_holds_on_expandable_instances(self, qs, r):
        rho = validate_tuple(qs)
        hb = height_lower_bound(rho, r)
        assert height(expand(rho)) >= hb.floor


class TestRecords:
    """The result records: immutable named tuples with their fields in order."""

    def records(self):
        rho = validate_tuple([3, 5, 7])
        fam = congruence_family(1, 3)
        report = check_congruence(fam.rho, fam.r)
        return {
            ("qs", "m"): rho,
            ("rho", "height", "normalizer", "degree", "normalized_ratio"): height_report(rho, low_half(rho)),
            ("value", "terms_used", "error_bound"): limit_constant(3),
            ("q", "residue", "ok", "branch"): report.elements[0],
            ("r", "modulus", "elements", "ok"): report,
            ("numerator", "floor"): fam.height_bound,
            ("N", "k", "r", "rho", "height_bound"): fam,
        }

    def test_fields_in_order_and_frozen(self):
        records = self.records()
        assert len({type(record) for record in records.values()}) == 7
        for fields, record in records.items():
            assert record._fields == fields
            assert tuple(record) == tuple(getattr(record, f) for f in fields)
            with pytest.raises(AttributeError):
                setattr(record, fields[0], None)
            with pytest.raises(AttributeError):
                record.extra = None

    def test_tuple_text_and_properties(self):
        rho = validate_tuple([3, 5, 7])
        assert repr(rho) == "CoprimeTuple(qs=(3, 5, 7), m=105)"
        assert str(rho) == "{3,5,7}"
        assert rho.k == 3
