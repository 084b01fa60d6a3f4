import argparse
import io
import json
import math
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import coprime_tuples
from golden_cases import GOLDEN_CASES, SRC_ENV
from iepoly import analysis, cli, construction, core, oracle
from iepoly.cli import main
from iepoly.construction import congruence_family
from iepoly.errors import STR_BITS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


def binary_bound(rho, r):
    """lemma_bound and height_floor as printed from the binary Fraction r^(2^(k-1)) / m and its ceiling.

    The Fraction reduces to lowest terms, so a printed denominator of m
    also checks that gcd(r, m) = 1.
    """
    bound = Fraction(r ** (1 << (rho.k - 1)), rho.m)
    assert bound.denominator == rho.m
    return f"{bound.numerator}/{bound.denominator}", str(-(-bound.numerator // bound.denominator))


class TestCompute:
    def test_height_only(self, capsys):
        code, payload, _ = run_json(capsys, "compute", "--q", "3,5,7", "--height-only")
        assert code == 0
        assert payload["m"] == "105"
        assert payload["degree"] == 48
        assert payload["height"] == "2"
        assert "coefficients" not in payload

    def test_full_output(self, capsys):
        code, payload, _ = run_json(capsys, "compute", "--q", "2")
        assert code == 0
        assert payload["coefficients"] == [1, 1]
        assert payload["palindromic"] is True
        assert payload["eval_at_one"] == "2"

    def test_inline_coefficients_are_exact_json_numbers(self):
        # Inline coefficients print as JSON numbers, exact while every
        # height is below 2^53, where a double stops holding every integer.
        # Every tuple whose window fits inline has degree below
        # COEFF_INLINE_LIMIT; there are 61,016 of them, of k = 1 .. 6, and
        # the largest height is 95, at 3,4,7,13,17.  No 7-tuple fits (its
        # degree is at least 1*2*4*6*10*12*16 = 92,160), so no longer one does
        # either: its first seven entries are a 7-tuple of no larger degree.
        ks = set()
        for k in range(1, 8):
            for run in analysis.coprime_runs(k, analysis.MAX_ENUM_PRODUCT, max_degree=cli.COEFF_INLINE_LIMIT - 1):
                for rho, h in zip(run, core.heights(run)):
                    assert h < 1 << 53, rho
                    ks.add(k)
        assert ks == {1, 2, 3, 4, 5, 6}

    def test_coeff_flag(self, capsys):
        code, payload, _ = run_json(capsys, "compute", "--q", "3,5,7", "--coeff", "7")
        assert code == 0
        assert payload["coeff_index"] == 7
        assert payload["coeff"] == "-2"

    def test_coeff_out_of_range(self, capsys):
        code, _, err = run(capsys, "compute", "--q", "2,3", "--coeff", "99")
        assert code == 2
        assert "coeff" in err

    def test_validation_error_exit_2(self, capsys):
        code, out, err = run(capsys, "compute", "--q", "3,6")
        assert code == 2
        assert out == ""
        assert "NotCoprime(3,6)" in err

    def test_unparseable_q(self, capsys):
        code, _, err = run(capsys, "compute", "--q", "3,x")
        assert code == 2

    def test_capacity_exit_3(self, capsys):
        code, _, err = run(capsys, "compute", "--q", "3,5,7", "--memory-cap", "10")
        assert code == 3
        assert "DegreeCapExceeded" in err

    def test_refused_allocation_exit_3(self, capsys):
        # A low half of 5 * 10^17 int64 entries, 4 EiB, under a cap raised
        # past it: numpy refuses the request before any memory is touched.
        argv = ["compute", "--q", "1000003,1000033,1000037", "--height-only", "--memory-cap", str(10**18)]
        assert 8 * (core.degree_of(core.validate_tuple([1000003, 1000033, 1000037])) // 2 + 1) > 1 << 60
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_memory_cap_below_one(self, capsys, cap):
        code, out, err = run(capsys, "compute", "--q", "3,5,7", "--memory-cap", cap)
        assert (code, out) == (2, "")
        assert err.startswith("error: --memory-cap") and err.count("\n") == 1

    @pytest.mark.parametrize("q", ["12", "3,5,7"])  # degrees 11 and 48
    def test_height_only_coeff_matches_full(self, capsys, q):
        _, full, _ = run_json(capsys, "compute", "--q", q)
        for i, expected in enumerate(full["coefficients"]):
            code, payload, _ = run_json(capsys, "compute", "--q", q, "--height-only", "--coeff", str(i))
            assert code == 0
            assert payload["coeff"] == str(expected), i

    def test_memory_cap_counts_the_window_allocated(self, capsys):
        # 3,5,7 has degree 48: 49 coefficients, 25 in the low half.
        for cap, height_only, expected in [("25", True, 0), ("24", True, 3), ("48", True, 0),
                                           ("48", False, 3), ("49", False, 0)]:
            argv = ["compute", "--q", "3,5,7", "--memory-cap", cap] + (["--height-only"] if height_only else [])
            assert run(capsys, *argv)[0] == expected, argv

    @pytest.mark.parametrize("flag", [["--mantissa-bits", "8"], ["--half-degree"], ["--oracle-cap", "50"],
                                      ["--subset-cap", "2"], ["--format", "json"], ["--force-coeffs"]])
    def test_removed_flags_are_rejected(self, capsys, flag):
        for argv in [["compute", "--q", "13,37,61"], ["construct", "--N", "1", "--k", "2"],
                     ["constant", "--terms", "3"], ["verify", "--q", "13,37,61", "--r", "6"],
                     ["search", "--k", "2", "--m-cap", "30"], ["oracle-check", "--m-cap", "30"]]:
            with pytest.raises(SystemExit) as exc:
                main(argv + flag)
            assert exc.value.code == 2, argv
        assert capsys.readouterr().out == ""

    def test_reals_keep_full_precision(self, capsys, monkeypatch):
        monkeypatch.setenv("IEPOLY_MANTISSA_BITS", "8")
        _, payload, _ = run_json(capsys, "compute", "--q", "13,37,61", "--height-only")
        assert payload["normalized_ratio"] == 0.8874182002360939

    @pytest.mark.parametrize("q, expected", [("5,7,11,13,17", "67"), ("3,5,7,11,13,17", "532")])
    def test_high_k_heights(self, capsys, q, expected):
        code, payload, _ = run_json(capsys, "compute", "--q", q)
        assert code == 0
        assert payload["height"] == expected
        assert payload["palindromic"] is True
        assert payload["eval_at_one"] == "1"

    def test_coefficient_file_sink(self, capsys, tmp_path):
        sink = tmp_path / "coeffs.txt"
        code, payload, _ = run_json(capsys, "compute", "--q", "2,3", "--out", str(sink))
        assert code == 0
        assert payload["coefficients_file"] == str(sink)
        assert sink.read_text().splitlines() == ["1", "-1", "1"]

    @pytest.mark.parametrize("target", ["missing/coeffs.txt", "."])  # no such directory; a directory
    def test_unwritable_coefficient_file(self, capsys, tmp_path, target):
        code, out, err = run(capsys, "compute", "--q", "2,3", "--out", str(tmp_path / target))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write --out") and err.count("\n") == 1

    def test_large_dumps_go_to_out(self, capsys, tmp_path):
        # 10,007 coefficients: past the inline limit, so omitted unless --out writes them.
        code, payload, _ = run_json(capsys, "compute", "--q", "2,10007")
        assert (code, payload["coefficients_omitted"], "coefficients" in payload) == (0, True, False)
        sink = tmp_path / "coeffs.txt"
        code, payload, _ = run_json(capsys, "compute", "--q", "2,10007", "--out", str(sink))
        assert (code, payload["coefficients_file"], "coefficients_omitted" in payload) == (0, str(sink), False)
        assert sink.read_text().splitlines() == ["1", "-1"] * 5003 + ["1"]

    def test_environment_does_not_configure(self, capsys, monkeypatch):
        # Variables an earlier version read in place of the flags.
        for name, value in [("IEPOLY_MEMORY_CAP_COEFFS", "10"), ("IEPOLY_ORACLE_CAP_M", "1"),
                            ("IEPOLY_SUBSET_CAP_K", "1"), ("IEPOLY_FORMAT", "text")]:
            monkeypatch.setenv(name, value)
        code, payload, _ = run_json(capsys, "compute", "--q", "3,5,7")
        assert code == 0
        assert payload["height"] == "2"
        assert run(capsys, "compute", "--q", "3,5,7", "--memory-cap", "10")[0] == 3


class TestConstruct:
    def test_basic(self, capsys):
        code, payload, _ = run_json(capsys, "construct", "--N", "1", "--k", "2")
        assert code == 0
        assert payload["r"] == "2"
        assert payload["q"] == ["5", "13"]
        assert payload["lemma_bound"] == "4/65"
        assert payload["height_floor"] == "1"

    def test_invalid_n(self, capsys):
        code, _, _ = run(capsys, "construct", "--N", "0", "--k", "2")
        assert code == 2

    def test_expand_checks_floor(self, capsys):
        code, payload, _ = run_json(capsys, "construct", "--N", "1", "--k", "2", "--expand")
        assert code == 0
        assert payload["height_ok"] is True

    def test_big_k_without_expand(self, capsys):
        code, payload, _ = run_json(capsys, "construct", "--N", "1", "--k", "25")
        assert code == 0
        assert payload["lemma_bound"] is None
        assert int(payload["r"]) > 10**25

    def test_moderate_k_keeps_exact_bound(self, capsys):
        # The bound numerator has ~18k digits; rendering must survive the
        # interpreter's int-to-str conversion guard.
        code, payload, _ = run_json(capsys, "construct", "--N", "1", "--k", "12")
        assert code == 0
        assert payload["lemma_bound"] is not None
        assert len(payload["lemma_bound"]) > 10**4

    def test_k14_bounds_match_str(self, capsys, unlimited_str_digits):
        code, payload, _ = run_json(capsys, "construct", "--N", "1", "--k", "14")
        assert code == 0
        fam = congruence_family(1, 14)
        assert (payload["lemma_bound"], payload["height_floor"]) == binary_bound(fam.rho, fam.r)
        assert payload["predicted_ratio"] == 0.48704363223809843

    def test_big_k_refuses_expand(self, capsys):
        code, _, err = run(capsys, "construct", "--N", "1", "--k", "25", "--expand")
        assert code == 3

    @pytest.mark.parametrize("k", [construction.FAMILY_K_CAP + 1, 3000, 100_000])
    def test_k_cap(self, capsys, k):
        start = time.perf_counter()
        code, out, err = run(capsys, "construct", "--N", "1", "--k", str(k))
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err == f"error: k = {k} exceeds family cap {construction.FAMILY_K_CAP}\n"

    def test_k_cap_itself_constructs(self):
        assert congruence_family(1, construction.FAMILY_K_CAP).k == construction.FAMILY_K_CAP

    def test_ratio_routes_one_ulp_apart_exit_1(self, capsys, monkeypatch):
        # Both routes are correctly rounded, so one ulp apart is a mismatch.
        exact = analysis.normalized_ratio
        monkeypatch.setattr(analysis, "normalized_ratio",
                            lambda A, M, k: math.nextafter(exact(A, M, k), math.inf))
        code, out, err = run(capsys, "construct", "--N", "1", "--k", "5")
        assert code == 1
        assert out == ""
        assert "ratio routes disagree for N=1, k=5" in err


@pytest.fixture(scope="module")
def unlimited_str_digits():
    # str() of the reference values must pass the int-to-str guard (3.11+).
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


class TestBigRendering:
    # Both sides of the str() threshold, with signs and 10^j +- 1 edges.
    EDGE = [0, 1, -1, (1 << STR_BITS) - 1, 1 << STR_BITS, -(1 << STR_BITS) - 1]
    EDGE += [s * (10**j + d) for j in (2466, 2467, 30000) for d in (-1, 0, 1) for s in (1, -1)]

    def test_edges(self, unlimited_str_digits):
        for x in self.EDGE:
            assert cli._big(x) == str(x)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_family_bounds_match_binary(self, capsys, unlimited_str_digits, N):
        # lemma_bound and height_floor are raised in decimal; they must read
        # as the binary bound's str(), up to 90k digits at k = 14.
        for k in range(1, 15):
            fam = congruence_family(N, k)
            _, payload, _ = run_json(capsys, "construct", "--N", str(N), "--k", str(k))
            assert (payload["lemma_bound"], payload["height_floor"]) == binary_bound(fam.rho, fam.r), (N, k)

    @pytest.mark.parametrize("q, r", [
        ("181,251,253,323", 18),  # plus, minus, plus, minus
        ("11,35,59,83", 6),  # minus branch only
        ("97,289,481,673", 48),  # plus branch only
        ("37,109,181,253,325,397,469", 18),  # plus branch, k = 7
    ])
    def test_verify_bounds_match_binary(self, capsys, unlimited_str_digits, q, r):
        rho = core.validate_tuple(map(int, q.split(",")))
        _, payload, _ = run_json(capsys, "verify", "--q", q, "--r", str(r))
        assert (payload["lemma_bound"], payload["height_floor"]) == binary_bound(rho, r)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(bits=st.integers(0, 200_000), seed=st.integers(0, 2**32), negative=st.booleans())
    @example(bits=STR_BITS, seed=1, negative=False)
    @example(bits=STR_BITS + 1, seed=1, negative=True)
    def test_matches_str(self, unlimited_str_digits, bits, seed, negative):
        x = random.Random(seed).getrandbits(bits) | (1 << bits >> 1)
        x = -x if negative else x
        assert cli._big(x) == str(x)


class TestConstant:
    def test_thirty(self, capsys):
        code, payload, _ = run_json(capsys, "constant", "--terms", "30")
        assert code == 0
        assert abs(payload["value"] - 0.487) < 0.001
        assert payload["error_bound"] < 1e-6

    def test_single(self, capsys):
        code, payload, _ = run_json(capsys, "constant", "--terms", "1")
        assert code == 0
        assert abs(payload["value"] - 0.8408964152537145) < 1e-15

    def test_invalid(self, capsys):
        code, _, _ = run(capsys, "constant", "--terms", "0")
        assert code == 2

    def test_tiny_bound_stays_positive(self, capsys):
        code, payload, _ = run_json(capsys, "constant", "--terms", "4000")
        assert code == 0
        # The float's own rounding error, not the 2^-4001 truncation error.
        assert 1e-17 < payload["error_bound"] < math.ulp(payload["value"])

    def test_counts_past_the_width_cost_nothing_more(self, capsys):
        _, reference, _ = run_json(capsys, "constant", "--terms", "2000")
        start = time.perf_counter()
        code, payload, _ = run_json(capsys, "constant", "--terms", str(10**12))
        assert time.perf_counter() - start < 1
        assert code == 0
        assert payload == dict(reference, terms=10**12)


class TestVerify:
    def test_passing_instance(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "--q", "49,51,149", "--r", "25")
        assert code == 0
        assert payload["congruence_ok"] is True
        assert payload["lemma_bound"] == "390625/372351"
        assert payload["height_floor"] == "2"
        assert [e["branch"] for e in payload["elements"]] == ["minus", "plus", "minus"]

    def test_expand_compares_height(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "--q", "13,37,61", "--r", "6", "--expand")
        assert code == 0
        assert payload["height_ok"] is True
        assert int(payload["height"]) >= int(payload["height_floor"])

    def test_expand_builds_no_ratio(self, capsys, monkeypatch):
        # verify prints the degree and the height only; no normalizer or
        # normalized ratio is built for them.
        monkeypatch.setattr(analysis, "normalized_ratio", lambda *args: pytest.fail("normalized_ratio called"))
        code, payload, _ = run_json(capsys, "verify", "--q", "13,37,61", "--r", "6", "--expand")
        assert (code, payload["degree"], payload["height"]) == (0, 25920, "5")

    def test_digit_cap_is_the_gate_edge(self, capsys, unlimited_str_digits):
        # The longest r whose bound verify builds at k = 1, and q = 2r + 1,
        # parse and print their bound.
        r = (1 << construction.BOUND_BITS_CAP) - 1
        assert construction.bound_fits(r, 1) and not construction.bound_fits(r + 1, 1)
        q, r = cli._big(2 * r + 1), cli._big(r)
        assert len(q) == cli.ARG_DIGITS_CAP
        code, payload, _ = run_json(capsys, "verify", "--q", q, "--r", r)
        assert (code, payload["q"], payload["r"], payload["congruence_ok"]) == (0, [q], r, True)
        assert (payload["lemma_bound"], payload["height_floor"]) == (f"{r}/{q}", "1")

    @pytest.mark.parametrize("name", ["--q", "--r"])
    def test_digit_cap_refuses_before_parsing(self, capsys, unlimited_str_digits, name):
        # int() of a 10^6-digit string takes about 5 s on CPython 3.11.
        argv = {"--q": "3", "--r": "1"}
        argv[name] = "2" + "0" * (10**6 - 2) + "1"
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", *(x for kv in argv.items() for x in kv))
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err == f"error: {name} has {10**6} digits, past the cap of {cli.ARG_DIGITS_CAP}\n"

    def test_failing_congruence_exit_1(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "--q", "7", "--r", "2")
        assert code == 1
        assert payload["congruence_ok"] is False
        assert "lemma_bound" not in payload

    def test_subset_cap_guard(self, capsys):
        qs = ",".join(str(p) for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73])
        code, _, _ = run(capsys, "verify", "--q", qs, "--r", "1")
        assert code == 3

    @pytest.mark.parametrize("argv", [["compute", "--height-only"], ["verify", "--r", "2"]])
    def test_entries_are_counted_before_pairs(self, capsys, argv):
        # 12,000 primes: the pairwise gcds alone took seconds before the count.
        sieve = bytearray([1]) * 128_190
        sieve[:2] = b"\0\0"
        for p in range(2, math.isqrt(len(sieve)) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, len(sieve), p)))
        qs = ",".join(str(p) for p, prime in enumerate(sieve) if prime)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--q", qs)
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err == "error: TupleTooLarge: k = 12000 exceeds subset cap 20\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "--q", "13,37,61", "--r", "6"],
        ["verify", "--q", "13,37,61", "--r", "6", "--expand"],
        ["construct", "--N", "1", "--k", "3"],
        ["construct", "--N", "1", "--k", "3", "--expand"],
    ])
    def test_one_bound_per_command(self, capsys, monkeypatch, argv):
        # The bound is raised once, in decimal, and the same one is printed
        # and compared with an expanded height.
        calls = []
        bound = construction.height_lower_bound
        monkeypatch.setattr(construction, "height_lower_bound", lambda rho, r: calls.append(rho) or bound(rho, r))
        code, payload, _ = run_json(capsys, *argv)
        assert (code, payload["height_floor"], len(calls)) == (0, "1", 1)

    @pytest.mark.parametrize("argv, floor", [
        (["verify", "--q", "49,51,149", "--r", "25", "--expand"], 2),
        (["construct", "--N", "1", "--k", "3", "--expand"], 1),
    ])
    def test_height_ok_at_the_floor(self, capsys, monkeypatch, argv, floor):
        # A height equal to the floor passes, one below it fails.  verify
        # measures through core.height, construct through height_report,
        # whose normalized ratio would refuse a height of 0.
        report = analysis.height_report
        for A, ok, code in ((floor, True, 0), (floor - 1, False, 1)):
            monkeypatch.setattr(core, "height", lambda c: A)
            monkeypatch.setattr(analysis, "height_report", lambda rho, c: report(rho, c)._replace(height=A))
            got, payload, _ = run_json(capsys, *argv)
            assert (got, payload["height_floor"], payload["height"], payload["height_ok"]) == (code, str(floor), str(A), ok)

    def test_bound_past_the_gate_is_null(self, capsys):
        # A k = 20 family member with a 199-digit r: r^(2^19) / m and its
        # ceiling have about 10^8 digits each, 208 MB of stdout.
        fam = congruence_family(10**180, 20)
        assert len(str(fam.r)) == 199 and not construction.bound_fits(fam.r, 20)
        start = time.perf_counter()
        code, payload, _ = run_json(capsys, "verify", "--q", ",".join(map(str, fam.rho.qs)), "--r", str(fam.r))
        assert time.perf_counter() - start < 1
        assert (code, payload["congruence_ok"], payload["lemma_bound"], payload["height_floor"]) == (0, True, None, None)

    def test_construct_and_verify_share_the_gate(self, capsys, monkeypatch):
        # 13,37,61 with r = 6: r^4 has 12 bits, past a cap of 8.
        monkeypatch.setattr(construction, "BOUND_BITS_CAP", 8)
        _, built, _ = run_json(capsys, "construct", "--N", "1", "--k", "3", "--expand")
        code, payload, _ = run_json(capsys, "verify", "--q", "13,37,61", "--r", "6", "--expand")
        assert code == 0
        for out in built, payload:
            assert (out["lemma_bound"], out["height_floor"], out["height"], "height_ok" in out) == (None, None, "5", False)


class TestSearch:
    def test_ranked_output(self, capsys):
        code, payload, _ = run_json(capsys, "search", "--k", "3", "--m-cap", "105")
        assert code == 0
        assert payload["count"] == 10
        assert payload["results"][0]["q"] == ["3", "4", "5"]
        assert {"lower": 0.487, "upper": 0.9541} == payload["reference_bracket"]
        assert "finite-sample" in payload["note"]

    def test_absurd_k_finds_nothing_quickly(self, capsys):
        start = time.perf_counter()
        code, payload, _ = run_json(capsys, "search", "--k", "1000000", "--m-cap", "30")
        assert (code, payload["count"], payload["results"]) == (0, 0, [])
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("k", ["1", "2"])
    def test_peak_memory_at_the_enumeration_cap(self, capsys, k):
        # The run of prefix () or (2,) has millions of candidates for q_k at
        # m <= 10^7; only those within --expand-cap may be listed.
        argv = ["search", "--k", k, "--m-cap", "10000000", "--expand-cap", "200"]
        run(capsys, "compute", "--q", "3,5,7", "--height-only")  # loads numpy outside the trace
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        count = json.loads(capsys.readouterr().out)["count"]
        assert count == sum(core.degree_of(rho) <= 200 for rho in coprime_tuples(int(k), 4000))
        assert peak < 2 << 20

    def test_empty(self, capsys):
        code, payload, _ = run_json(capsys, "search", "--k", "2", "--m-cap", "5")
        assert code == 0
        assert payload["count"] == 0
        assert payload["results"] == []

    @pytest.mark.parametrize("expand_cap", ["0", "-5"])
    def test_expand_cap_below_one(self, capsys, expand_cap):
        code, out, err = run(capsys, "search", "--k", "1", "--m-cap", "20", "--expand-cap", expand_cap)
        assert code == 2
        assert out == ""
        assert "expand_cap" in err

    def test_memory_cap(self, capsys):
        # The largest tuple, 3,5,7, has degree 48: 25 coefficients in its low half.
        code, _, err = run(capsys, "search", "--k", "3", "--m-cap", "105", "--memory-cap", "10")
        assert code == 3
        assert "DegreeCapExceeded" in err
        capped = run(capsys, "search", "--k", "3", "--m-cap", "105", "--memory-cap", "25")
        assert capped == run(capsys, "search", "--k", "3", "--m-cap", "105")


class TestOracleCheck:
    def test_sweep(self, capsys):
        code, payload, _ = run_json(capsys, "oracle-check", "--m-cap", "120")
        assert code == 0
        assert payload["mismatches"] == 0
        assert payload["tuples_checked"] > 100

    def test_mismatch_is_reported(self, capsys, monkeypatch):
        real = oracle.oracle_expand

        def flipped(rho, degree_cap):
            c = real(rho, degree_cap)
            if rho.qs == (3, 5, 7):
                c[7] += 1
            return c

        monkeypatch.setattr(oracle, "oracle_expand", flipped)
        code, payload, _ = run_json(capsys, "oracle-check", "--m-cap", "120")
        assert code == 1
        assert payload["mismatches"] == 1
        assert payload["mismatched_tuples"] == ["{3,5,7}"]

    def test_cap(self, capsys):
        # The largest pair of arrays is (105,)'s: a window of 105 and an oracle product of 106.
        assert run(capsys, "oracle-check", "--m-cap", "105", "--memory-cap", "210")[0] == 3
        assert run(capsys, "oracle-check", "--m-cap", "105", "--k-max", "1", "--memory-cap", "210")[0] == 3
        assert run(capsys, "oracle-check", "--m-cap", "105", "--k-max", "1", "--memory-cap", "211")[0] == 0

    def test_cap_bounds_both_arrays_together(self, capsys):
        # (53,) has a window of 53 and an oracle product of 54: each fits 106, both do not.
        code, out, err = run(capsys, "oracle-check", "--m-cap", "53", "--k-max", "1", "--memory-cap", "106")
        assert (code, out) == (3, "")
        assert err == "error: DegreeCapExceeded: 107 coefficients exceed the cap of 106\n"
        assert run(capsys, "oracle-check", "--m-cap", "53", "--k-max", "1", "--memory-cap", "107")[0] == 0

    def test_comparison_reads_every_block(self):
        a = np.arange(core.SWEEP_BLOCK + 5)
        b = a.copy()
        b[-1] += 1
        assert core.same_coeffs(a, a.astype(object))
        assert not core.same_coeffs(a, b)
        assert not core.same_coeffs(a, a[:-1])

    @pytest.mark.parametrize("k_max", ["0", "-1"])
    def test_k_max_below_one(self, capsys, k_max):
        code, out, err = run(capsys, "oracle-check", "--m-cap", "100", "--k-max", k_max)
        assert code == 2
        assert out == ""
        assert "--k-max" in err

    def test_cap_message(self, capsys):
        code, out, err = run(capsys, "oracle-check", "--m-cap", "105", "--memory-cap", "105")
        assert (code, out) == (3, "")
        # (53,) is the first tuple whose window and oracle product pass 105 together.
        assert err == "error: DegreeCapExceeded: 107 coefficients exceed the cap of 105\n"

    def test_early_refusal_at_the_enumeration_cap(self, capsys):
        # The k = 1 run up to m = 10^7 is listed RUN_LENGTH candidates at a
        # time, so a refusal near its start comes before the rest is built.
        run(capsys, "compute", "--q", "3,5,7", "--height-only")  # loads numpy outside the trace
        tracemalloc.start()
        try:
            code = main(["oracle-check", "--m-cap", "10000000", "--memory-cap", "105"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, capsys.readouterr().err) == (3, "error: DegreeCapExceeded: 107 coefficients exceed the cap of 105\n")
        assert peak < 2 << 20

    def test_default_cap_reaches_past_m_10_4(self, capsys, monkeypatch):
        # Enumerating every tuple up to m = 1.7e6 is slow; one tuple stands in.
        monkeypatch.setattr(analysis, "coprime_runs",
                            lambda k, m_cap: [[core.validate_tuple([49, 145, 241])]] if k == 3 else [])
        code, payload, _ = run_json(capsys, "oracle-check", "--m-cap", "1712305")
        assert code == 0
        assert (payload["tuples_checked"], payload["mismatches"]) == (1, 0)

    def test_enumeration_cap(self, capsys):
        code, out, err = run(capsys, "oracle-check", "--m-cap", "100000000")
        assert (code, out) == (3, "")
        assert "enumeration cap" in err

    def test_k_max_subset_cap(self, capsys):
        code, payload, _ = run_json(capsys, "oracle-check", "--m-cap", "30", "--k-max", "20")
        assert (code, payload["k_values"], payload["mismatches"]) == (0, list(range(1, 21)), 0)
        for k_max in ("21", "1000000000"):
            code, out, err = run(capsys, "oracle-check", "--m-cap", "30", "--k-max", k_max)
            assert (code, out) == (3, "")
            assert err == f"error: TupleTooLarge: k = {k_max} exceeds subset cap 20\n"

    def test_mismatch_inside_a_k1_run_is_reported(self, capsys, monkeypatch):
        real = oracle.oracle_expand

        def flipped(rho, degree_cap):
            c = real(rho, degree_cap)
            if rho.qs == (7,):
                c[3] += 1
            return c

        monkeypatch.setattr(oracle, "oracle_expand", flipped)
        code, payload, _ = run_json(capsys, "oracle-check", "--m-cap", "30", "--k-max", "1")
        assert (code, payload["tuples_checked"], payload["mismatched_tuples"]) == (1, 29, ["{7}"])

    def test_every_memory_cap_matches_the_per_tuple_check(self, capsys):
        # Runs share a sweep only where the whole run fits; every other cap
        # must refuse at the same tuple, with the same sum, as one tuple at a
        # time: expand (a window W), then the reference route (a product p)
        # within what W leaves of the cap.
        tuples = [rho for k in (1, 2, 3) for rho in coprime_tuples(k, 105)]
        assert all(np.array_equal(core.expand(rho), oracle.oracle_expand(rho)) for rho in tuples)
        payload = {"command": "oracle-check", "m_cap": "105", "k_values": [1, 2, 3], "tuples_checked": len(tuples),
                   "mismatches": 0, "mismatched_tuples": []}

        def per_tuple(cap):
            for rho in tuples:
                window, product = core.degree_of(rho) + 1, oracle.product_length(rho)
                if window > cap:
                    return 3, "", f"error: DegreeCapExceeded: {window} coefficients exceed the cap of {cap}\n"
                if window + product > cap:
                    return 3, "", f"error: DegreeCapExceeded: {window + product} coefficients exceed the cap of {cap}\n"
            return 0, json.dumps(payload, separators=(",", ":")) + "\n", ""

        outcomes = set()
        for cap in range(100, 421):
            expected = per_tuple(cap)
            assert run(capsys, "oracle-check", "--m-cap", "105", "--memory-cap", str(cap)) == expected, cap
            outcomes.add(expected[0])
        assert outcomes == {0, 3}

    def test_holds_one_shared_array_one_copy_and_one_product(self, capsys, monkeypatch):
        # One run with windows past SWEEP_BLOCK, under a cap it fits exactly:
        # while a copy is swept, the previous tuple's arrays must be gone.
        run_ = [core.validate_tuple([7, 11, q]) for q in (2003, 2005, 2007, 2011)]
        monkeypatch.setattr(analysis, "coprime_runs", lambda k, m_cap: [run_] if k == 3 else [])
        windows = [core.degree_of(rho) + 1 for rho in run_]
        products = [oracle.product_length(rho) for rho in run_]
        assert windows[0] > core.SWEEP_BLOCK
        cap = 2 * windows[-1] + max(products)
        run(capsys, "compute", "--q", "3,5,7", "--height-only")  # loads numpy outside the trace
        tracemalloc.start()
        try:
            code = main(["oracle-check", "--m-cap", "200000", "--memory-cap", str(cap)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["tuples_checked"] == len(run_)
        assert peak < 8 * (cap + core.SWEEP_BLOCK) + (1 << 17)


class TestCoefficientWriter:
    @pytest.mark.parametrize("length", [1, cli.OUT_CHUNK, cli.OUT_CHUNK + 1])
    @pytest.mark.parametrize("dtype", ["int64", "object"])
    def test_bytes_match_str(self, tmp_path, dtype, length):
        rng = random.Random(length)
        if dtype == "int64":
            values = [rng.randint(-(1 << 63), (1 << 63) - 1) for _ in range(length)]
        else:
            values = [rng.choice((-1, 1)) * rng.randint(1 << 63, 1 << 100) for _ in range(length)]
        assert_written(tmp_path, values, dtype)

    def test_int64_edges(self, tmp_path):
        # A block of non-negative values of mixed widths led by 2^63 - 1, a
        # block of negative ones of at most 9 digits led by -2^63 (whose
        # magnitude wraps in int64), then 0, +-1 and +-10^j, +-(10^j - 1).
        rng = random.Random(0)
        values = [(1 << 63) - 1] + [rng.randrange(10 ** rng.randint(1, 19)) % (1 << 63)
                                    for _ in range(cli.OUT_CHUNK - 1)]
        values += [-(1 << 63)] + [-1 - rng.randrange(10 ** rng.randint(0, 9))
                                  for _ in range(cli.OUT_CHUNK - 1)]
        values += [0, 1, -1] + [sign * (10**j - d) for j in range(1, 19) for sign in (1, -1) for d in (0, 1)]
        assert_written(tmp_path, values, "int64")


def assert_written(tmp_path, values, dtype):
    sink = tmp_path / "coeffs.txt"
    cli._write_coeffs(str(sink), np.array(values, dtype=dtype))
    assert sink.read_bytes() == ("\n".join(map(str, values)) + "\n").encode("ascii")


class TestOutputContract:
    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "compute", "--q", "3,5,7", "--height-only")
        payload = json.loads(out)
        assert json.dumps(payload, separators=(",", ":")) + "\n" == out

    def test_byte_determinism(self, capsys):
        a = run(capsys, "search", "--k", "3", "--m-cap", "105")
        b = run(capsys, "search", "--k", "3", "--m-cap", "105")
        assert a == b

    @pytest.mark.parametrize("argv", [["compute", "--q", "2,3"], ["constant", "--terms", "5"],
                                      ["search", "--k", "3", "--m-cap", "105"]])
    def test_stdout_does_not_depend_on_the_terminal(self, capsys, monkeypatch, argv):
        class Terminal(io.StringIO):
            def isatty(self):
                return True

        piped = run(capsys, *argv)
        terminal = Terminal()
        monkeypatch.setattr(sys, "stdout", terminal)
        code = main(argv)
        assert (code, terminal.getvalue()) == piped[:2]
        assert piped[1].count("\n") == 1


def run_python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=SRC_ENV)


def test_array_free_commands_do_not_import_numpy():
    # numpy loads with the first coefficient array, so import and the
    # commands that build none run without it; every real is taken in
    # integers, so no command loads mpmath; until numpy loads, nothing
    # loads dataclasses, inspect or csv either; the library leaves the
    # environment alone.
    script = """
import json, os, sys
environ = dict(os.environ)

def modules(*names):
    return [m for m in names if m in sys.modules]

from iepoly.cli import main
loaded = [modules("numpy", "mpmath")]
assert modules("dataclasses", "inspect", "csv") == [], "import"
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded.append(modules("numpy", "mpmath"))
    assert "numpy" in loaded[-1] or modules("dataclasses", "inspect", "csv") == [], argv
assert dict(os.environ) == environ, "the library changed the environment"
print(json.dumps(loaded))
"""
    verify = ["verify", "--q", "13,37,61", "--r", "6"]
    oracle_check = ["oracle-check", "--m-cap", "30", "--k-max", "2"]
    compute = ["compute", "--q", "3,5,7"]
    search = ["search", "--k", "3", "--m-cap", "105"]
    for commands, loaded in [
        ([["constant", "--terms", "5"], verify, ["construct", "--N", "1", "--k", "5"], compute],
         [[], [], [], [], ["numpy"]]),
        ([verify, oracle_check, compute, search, verify + ["--expand"]],
         [[], [], ["numpy"], ["numpy"], ["numpy"], ["numpy"]]),
        ([["construct", "--N", "1", "--k", "3", "--expand"]], [[], ["numpy"]]),
    ]:
        proc = run_python("-c", script, json.dumps(commands))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == loaded


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_run_leaves_one_thread_after_an_expansion():
    # run() keeps OpenBLAS from starting its thread pool; that holds only if
    # nothing loads numpy before run() sets the variable.
    script = """
import os, sys
from iepoly.cli import run
sys.argv = ["iepoly", "compute", "--q", "49,145,241", "--height-only"]
try:
    run()
except SystemExit as exc:
    assert exc.code == 0, exc.code
assert "numpy" in sys.modules
print(len(os.listdir("/proc/self/task")))
"""
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1"


def test_goldens_under_forced_promotion(capsys, monkeypatch):
    # With the limit lowered to 1, every array whose height passes 1
    # promotes to Python integers at that step, and stdout does not depend
    # on the lane.  The oracle keeps the real limit, so oracle-check compares
    # core's object arrays with the oracle's int64 ones.
    golden_dir = pathlib.Path(__file__).resolve().parent / "golden"
    promoted = []
    real = core._sweep

    def sweep(c, factors, bound):
        result = real(c, factors, bound)
        promoted.append(result[0].dtype != c.dtype)
        return result

    monkeypatch.setattr(core, "INT64_SAFE_LIMIT", 1)
    monkeypatch.setattr(core, "_sweep", sweep)
    for name, argv, code in GOLDEN_CASES:
        got, out, _ = run(capsys, *argv)
        assert (got, out.encode()) == (code, (golden_dir / f"{name}.out").read_bytes()), name
    assert sum(promoted) > 0


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_main_leaves_the_str_digit_limit_alone(capsys):
    # The limit guards the whole process against quadratic int <-> str
    # conversions; only run(), the process entry, lifts it.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert run(capsys, "constant", "--terms", "3")[0] == 0
        code, payload, _ = run_json(capsys, "construct", "--N", "1", "--k", "12")
        assert code == 0 and len(payload["lemma_bound"]) > 10**4
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
@pytest.mark.parametrize("argv", [["compute", "--height-only"], ["verify", "--expand"]])
def test_refused_count_past_the_str_digit_limit(capsys, argv):
    # The k = 20 family with N = 10^250 has a low half of more than 4,300 digits.
    fam = congruence_family(10**250, 20)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        window = str(core.degree_of(fam.rho) // 2 + 1)
        sys.set_int_max_str_digits(4300)
        extra = ["--r", str(fam.r)] if argv[0] == "verify" else []
        code, out, err = run(capsys, argv[0], "--q", ",".join(map(str, fam.rho.qs)), *argv[1:], *extra)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(window) > 4300
    assert (code, out) == (3, "")
    assert err == f"error: DegreeCapExceeded: {window} coefficients exceed the cap of {core.DEFAULT_DEGREE_CAP}\n"


def test_run_accepts_integers_past_the_str_digit_limit():
    # 5,001-digit --q and --r: q = 2r + 1 with r = 10^5000.
    r = "1" + "0" * 5000
    q = "2" + "0" * 4999 + "1"
    proc = run_python("-m", "iepoly.cli", "verify", "--q", q, "--r", r)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert (payload["q"], payload["r"], payload["congruence_ok"]) == ([q], r, True)


@pytest.mark.parametrize("argv, code", [
    (["compute", "--q", "3,5,7"], 0),
    (["verify", "--q", "7", "--r", "2"], 1),
    (["compute", "--q", "3,x"], 2),
    (["compute", "--q", "3,5,7", "--memory-cap", "10"], 3),
])
def test_module_exit_codes_through_run(argv, code):
    proc = run_python("-m", "iepoly.cli", *argv)
    assert proc.returncode == code, proc.stderr
    assert bool(proc.stdout) == (code in (0, 1))


class TestHeightOnlyWindow:
    """Callers that output no coefficients sweep only coefficients 0 .. degree // 2."""

    @pytest.mark.parametrize("argv, windows", [
        (["compute", "--q", "3,5,7", "--height-only"], [25]),  # degree 48
        (["compute", "--q", "3,5,7"], [49]),  # outputs coefficients: the full window
        (["construct", "--N", "1", "--k", "3", "--expand"], [12961]),  # 13,37,61: degree 25920
        (["verify", "--q", "13,37,61", "--r", "6", "--expand"], [12961]),
        # One array per run of tuples sharing q_1, q_2: the run's last, longest low half.
        (["search", "--k", "3", "--m-cap", "105"],
         [core.degree_of(rho) // 2 + 1 for rho in {rho.qs[:-1]: rho for rho in coprime_tuples(3, 105)}.values()]),
    ])
    def test_windows(self, capsys, monkeypatch, argv, windows):
        # Every array swept from 1 starts as core._unit, every block as
        # core._block, and every other sweep is of a tuple alone, from a copy
        # of its prefix of the shared array; search's tuples before each
        # run's last continue from the shared array, in blocks or alone,
        # each over its own low half.
        continued = [core.degree_of(rho) // 2 + 1 for run in analysis.coprime_runs(3, 105) for rho in run[:-1]]
        swept, blocked = [], []
        real_unit, real_block, real_sweep = core._unit, core._block, core._sweep

        def spy(window):
            swept.append(real_unit(window))
            return swept[-1]

        def block_spy(shared, bound, factors, group):
            blocked.extend(window for _, window in group)
            return real_block(shared, bound, factors, group)

        def sweep_spy(c, factors, bound):
            if c.base is None and not any(c is unit for unit in swept):
                assert np.array_equal(c, swept[-1][: len(c)])
                blocked.append(len(c))
            return real_sweep(c, factors, bound)

        monkeypatch.setattr(core, "_unit", spy)
        monkeypatch.setattr(core, "_block", block_spy)
        monkeypatch.setattr(core, "_sweep", sweep_spy)
        assert run(capsys, *argv)[0] == 0
        assert [len(unit) for unit in swept] == windows
        assert blocked == (continued if argv[0] == "search" else [])

    @pytest.mark.parametrize("argv", [
        ["compute", "--q", "49,145,241", "--height-only"],
        ["construct", "--N", "4", "--k", "3", "--expand"],
        ["verify", "--q", "49,145,241", "--r", "24", "--expand"],
    ])
    def test_peak_memory(self, capsys, argv):
        degree = 48 * 144 * 240  # 49,145,241: a 13.3 MB int64 window
        run(capsys, "compute", "--q", "3,5,7", "--height-only")  # loads numpy outside the trace
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["height"] == "18"
        assert peak < 0.6 * 8 * (degree + 1)


def test_readme_configuration_table_matches_the_program():
    # Each row names a common flag and its default; every common flag has a row.
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `(--[\w-]+)` \| [^|]+ \|$", readme, flags=re.MULTILINE)
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = [{o for a in p._actions for o in a.option_strings} for p in subparsers.choices.values()]
    common = set.intersection(*options) - {"-h", "--help"}
    assert common == {"--memory-cap"}
    assert sorted(rows) == sorted(common)


def test_readme_command_examples_run(capsys):
    # Every `iepoly ...` line of the README's "Command line" block exits 0
    # and prints one line of JSON.
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## Command line\n.*?^```\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL).group(1)
    lines = [line.split("#")[0] for line in block.splitlines() if line.startswith("iepoly ")]
    assert len(lines) >= 10
    for line in lines:
        code, out, err = run(capsys, *shlex.split(line)[1:])
        assert (code, err, out.count("\n")) == (0, "", 1), line
        json.loads(out)
