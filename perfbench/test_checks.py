"""Tests of the benchmark's output checks: they pass correct outputs and reject planted faults.

    python3 -m pytest perfbench/test_checks.py

The correct outputs come from a pure-Python reference expansion written
here, not from iepoly, so the tests keep their meaning whatever the program
does.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import checks

sys.set_int_max_str_digits(0)


def reference_coeffs(qs):
    """Exact truncated power-series product: multiplications, then divisions, in Python ints."""
    n = checks.degree(qs) + 1
    c = [1] + [0] * (n - 1)
    for d, sign in sorted(checks.signed_divisors(qs), key=lambda f: -f[1]):
        if d >= n:
            continue
        if sign > 0:
            for i in range(n - 1, d - 1, -1):
                c[i] -= c[i - d]
        else:
            for i in range(d, n):
                c[i] += c[i - d]
    return c


def wrapped_coeffs(qs):
    """The seed's faulty int64 route: divisions first, and an already wrapped array promoted."""
    n = checks.degree(qs) + 1
    factors = sorted(f for f in checks.signed_divisors(qs) if f[1] < 0) + \
        sorted(f for f in checks.signed_divisors(qs) if f[1] > 0)
    c = np.zeros(n, dtype=np.int64)
    c[0] = 1
    for pos, (d, sign) in enumerate(factors):
        if d >= n:
            continue
        if sign > 0:
            c[d:] -= c[: n - d]
        else:
            rows = n // d
            if rows >= 2:
                head = c[: rows * d].reshape(rows, d)
                np.cumsum(head, axis=0, out=head)
            if rows * d < n:
                c[rows * d:] += c[(rows - 1) * d: n - d]
        if int(c.max()) > (1 << 62) - 1 or -int(c.min()) > (1 << 62) - 1:
            big = [int(v) for v in c]
            for d2, sign2 in factors[pos + 1:]:
                if d2 >= n:
                    continue
                if sign2 > 0:
                    for i in range(n - 1, d2 - 1, -1):
                        big[i] -= big[i - d2]
                else:
                    for i in range(d2, n):
                        big[i] += big[i - d2]
            return big
    return [int(v) for v in c]


def compute_payload(qs, coeffs):
    height = max(abs(c) for c in coeffs)
    norm = checks.normalizer(qs)
    return {
        "command": "compute", "q": [str(q) for q in qs], "k": len(qs), "m": str(checks.product(qs)),
        "degree": len(coeffs) - 1, "height": str(height), "normalizer": str(norm),
        "normalized_ratio": checks.ratio(height, norm, len(qs)),
        "palindromic": coeffs == coeffs[::-1], "eval_at_one": str(sum(coeffs)),
    }


def file_check(qs, coeffs, tmp_path, payload=None):
    path = tmp_path / "coeffs.txt"
    path.write_text("".join(f"{c}\n" for c in coeffs))
    points = checks.eval_points(qs, random.Random(7))
    return checks.check_coeff_file(qs, checks.load_coeffs(str(path)), payload or compute_payload(qs, coeffs), points)


@pytest.mark.parametrize("qs", [(7,), (2, 3), (3, 5, 7), (6, 35, 143), (3, 5, 7, 11)])
def test_correct_file_passes(qs, tmp_path):
    assert file_check(qs, reference_coeffs(qs), tmp_path) == []


def test_known_polynomial():
    # Phi_105 has its famous -2 at x^7 and x^41.
    c = reference_coeffs((3, 5, 7))
    assert len(c) == 49 and c[7] == c[41] == -2 and max(map(abs, c)) == 2


def test_rejects_one_changed_value(tmp_path):
    qs = (3, 5, 7, 11)
    coeffs = reference_coeffs(qs)
    coeffs[100] += 1
    assert file_check(qs, coeffs, tmp_path, compute_payload(qs, reference_coeffs(qs)))


def test_modular_check_catches_palindromic_sum_preserving_change(tmp_path):
    qs = (3, 5, 7, 11)
    coeffs = reference_coeffs(qs)
    n = len(coeffs)
    for i, delta in ((50, 1), (90, -1)):
        coeffs[i] += delta
        coeffs[n - 1 - i] += delta
    reasons = file_check(qs, coeffs, tmp_path, compute_payload(qs, coeffs))
    assert any(r.startswith("modular mismatch") for r in reasons)


def test_rejects_wrapped_5_7_11_13_17(tmp_path):
    qs = (5, 7, 11, 13, 17)
    coeffs = wrapped_coeffs(qs)
    # The height the seed commit reports for this tuple; the true height is 67.
    assert max(abs(c) for c in coeffs) == 129127208515966861314
    assert max(abs(c) for c in reference_coeffs(qs)) == 67
    reasons = file_check(qs, coeffs, tmp_path, compute_payload(qs, coeffs))
    assert "not palindromic" in reasons
    assert any(r.startswith("modular mismatch") for r in reasons)
    assert checks.is_wrap_fault(reasons)


def test_other_failures_are_not_the_wrap_fault(tmp_path):
    qs = (5, 7, 11, 13, 17)
    coeffs = wrapped_coeffs(qs)
    # A report that disagrees with its own file, a short file, a crash.
    payload = compute_payload(qs, coeffs)
    payload["height"] = "67"
    assert not checks.is_wrap_fault(file_check(qs, coeffs, tmp_path, payload))
    assert not checks.is_wrap_fault(file_check(qs, coeffs[:-1], tmp_path, compute_payload(qs, coeffs)))
    assert not checks.is_wrap_fault(["exit code 1"])
    assert not checks.is_wrap_fault(["exit code -9, no JSON on stdout"])
    assert not checks.is_wrap_fault(["coefficient file missing"])
    assert not checks.is_wrap_fault([])


def test_height_only_must_match_verified_file():
    qs = (3, 5, 7)
    payload = compute_payload(qs, reference_coeffs(qs))
    verified = {"height": 2}
    assert checks.check_height_only(qs, payload, verified) == []
    assert checks.check_height_only(qs, dict(payload, height="3"), verified)
    assert checks.check_height_only(qs, dict(payload, normalized_ratio=payload["normalized_ratio"] * 1.001), verified)


def test_enumeration_matches_brute_force():
    for k, cap in ((1, 60), (2, 300), (3, 1000), (4, 2000)):
        # No entry exceeds cap / (2 * 3 * ... * k), the smallest product of the others.
        largest = cap // math.factorial(k)
        brute = [t for t in combinations(range(2, largest + 1), k)
                 if checks.product(t) <= cap and checks.pairwise_coprime(t)]
        assert checks.enumerate_tuples(k, cap) == brute


def search_payload(k, m_cap, expand_cap):
    rows = []
    for qs in checks.enumerate_tuples(k, m_cap):
        if checks.degree(qs) > expand_cap:
            continue
        height = max(abs(c) for c in reference_coeffs(qs))
        norm = checks.normalizer(qs)
        rows.append({"q": [str(q) for q in qs], "m": str(checks.product(qs)), "degree": checks.degree(qs),
                     "height": str(height), "normalizer": str(norm),
                     "normalized_ratio": checks.ratio(height, norm, k)})
    rows.sort(key=lambda r: (-Fraction(int(r["height"]), int(r["normalizer"])), tuple(map(int, r["q"]))))
    return {"command": "search", "k": k, "count": len(rows), "results": rows}


def test_search_checks():
    payload = search_payload(3, 400, 10**5)
    sample = {(3, 5, 7): 2}
    assert checks.check_search(3, 400, 10**5, payload, sample) == []
    dropped = dict(payload, results=payload["results"][1:], count=payload["count"] - 1)
    assert checks.check_search(3, 400, 10**5, dropped, sample)
    altered = [dict(r) for r in payload["results"]]
    altered[5]["normalized_ratio"] *= 1.0001
    assert checks.check_search(3, 400, 10**5, dict(payload, results=altered), sample)
    swapped = list(payload["results"])
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    assert checks.check_search(3, 400, 10**5, dict(payload, results=swapped), sample)
    assert checks.check_search(3, 400, 10**5, payload, {(3, 5, 7): 3})


def test_oracle_check_counts():
    count = sum(len(checks.enumerate_tuples(k, 300)) for k in (1, 2, 3))
    good = {"tuples_checked": count, "mismatches": 0, "mismatched_tuples": []}
    assert checks.check_oracle(300, 3, good, 0) == []
    assert checks.check_oracle(300, 3, dict(good, tuples_checked=count - 1), 0)
    assert checks.check_oracle(300, 3, dict(good, mismatches=1, mismatched_tuples=["{3,5,7}"]), 1)


def test_constant_checks():
    for terms in (3, 12, 60):
        log_sum = math.fsum(math.ldexp(math.log(4 * j - 2), -(j + 1)) for j in range(1, terms + 1))
        value = math.exp(-log_sum)
        bound = value * math.ldexp(math.log(4 * terms + 2) + math.log(2), -(terms + 1))
        payload = {"terms": terms, "value": value, "error_bound": bound}
        assert checks.check_constant(terms, payload) == []
        assert checks.check_constant(terms, dict(payload, value=value * (1 + 1e-9) + 2 * bound))
    assert checks.check_constant(60, {"terms": 60, "value": 0.4870416345671, "error_bound": 0.0})


def test_verify_checks():
    payload = {
        "modulus": "100", "congruence_ok": True,
        "elements": [{"q": "49", "residue": "49", "ok": True, "branch": "minus"},
                     {"q": "51", "residue": "51", "ok": True, "branch": "plus"},
                     {"q": "149", "residue": "49", "ok": True, "branch": "minus"}],
        "lemma_bound": "390625/372351", "height_floor": "2",
    }
    assert checks.check_verify((49, 51, 149), 25, payload, 0) == []
    assert checks.check_verify((49, 51, 149), 25, payload, 1)
    flipped = dict(payload, elements=[dict(payload["elements"][0], branch="plus")] + payload["elements"][1:])
    assert checks.check_verify((49, 51, 149), 25, flipped, 0)


def test_construct_checks():
    # N = 1, k = 3: r = 6, q = (13, 37, 61), m = 29341, bound 6^4 / 29341.
    payload = {
        "N": 1, "k": 3, "r": "6", "q": ["13", "37", "61"], "m": "29341", "degree": "25920",
        "congruence_ok": True, "branch": "plus", "lemma_bound": "1296/29341", "height_floor": "1",
        "predicted_ratio": math.exp((4 * math.log(6) - math.log(29341) - math.log(13)) / 8),
        "height": "4", "height_ok": True,
        "normalized_ratio": math.exp((math.log(4) - math.log(13)) / 8),
    }
    assert checks.check_construct(1, 3, payload, True) == []
    assert checks.check_construct(1, 3, dict(payload, r="7"), True)
    assert checks.check_construct(1, 3, dict(payload, lemma_bound="1296/29342"), True)
    assert checks.check_construct(1, 3, dict(payload, height="0"), True)
    assert checks.check_construct(1, 3, payload, True, verified={"height": 5})
