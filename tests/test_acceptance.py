"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Every tolerance and runtime budget is pinned here.
"""

import pathlib
import subprocess
import sys
import time

import numpy as np
from mpmath import mp

from conftest import SMALL_TUPLES, coprime_tuples, make_random_tuples, sweep_from_one
from golden_cases import GOLDEN_CASES, SRC_ENV
from iepoly.analysis import limit_constant, normalizer, predicted_ratio
from iepoly.construction import check_congruence, congruence_family, height_lower_bound
from iepoly.core import (
    degree_of,
    eval_at_one,
    expand,
    height,
    is_palindromic,
    ordered_factors,
    validate_tuple,
)
from iepoly.oracle import oracle_expand

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s, budget {self.seconds:.0f}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded runtime budget: {elapsed:.1f}s"
        else:
            print(f"ACCEPTANCE {self.name}: FAIL after {elapsed:.2f}s")
        return False


def test_criterion_1_oracle_equivalence_sweep():
    with Budget("1 oracle equivalence sweep (k<=3, m<=2000)", 60):
        mismatches = []
        checked = 0
        for k in (1, 2, 3):
            for rho in coprime_tuples(k, 2000):
                if not np.array_equal(expand(rho), oracle_expand(rho)):
                    mismatches.append(rho)
                checked += 1
        assert checked > 6000
        assert mismatches == []


def test_criterion_2_known_polynomial():
    with Budget("2 known polynomial q=(3,5,7)", 1):
        rho = validate_tuple([3, 5, 7])
        p = expand(rho)
        assert len(p) == 49
        assert height(p) == 2
        assert p[7] == -2
        assert is_palindromic(p)
        assert eval_at_one(p) == 1
        assert np.array_equal(oracle_expand(rho), p)


def test_criterion_3_constant_reproduction():
    with Budget("3 limiting constant at 30 terms", 1):
        result = limit_constant(30)
        assert abs(result.value - mp.mpf("0.487")) <= 0.001
        assert result.error_bound < 1e-6


def test_criterion_4_height_bound_instances():
    with Budget("4 congruence height bound instances", 120):
        for qs, r in (([5, 13], 2), ([13, 37, 61], 6), ([49, 51, 149], 25)):
            rho = validate_tuple(qs)
            assert check_congruence(rho, r).ok
            hb = height_lower_bound(rho, r)
            measured = height(expand(rho))
            assert measured >= hb.floor, (qs, r, measured, hb)
            if qs == [49, 51, 149]:
                assert degree_of(rho) == 355200
                assert hb.floor == 2
                assert measured >= 2


def test_criterion_5_property_suite():
    import random

    with Budget("5 properties on 100 random tuples", 120):
        rng = random.Random(20250808)
        corpus = make_random_tuples(100, max_degree=10**5, seed=0xACCE97)
        assert len(corpus) == 100
        for rho in corpus:
            p = expand(rho)
            assert len(p) == degree_of(rho) + 1
            assert p[0] == 1
            assert p[-1] == 1
            assert is_palindromic(p)
            assert eval_at_one(p) == (rho.qs[0] if rho.k == 1 else 1)
            factors = ordered_factors(rho)
            for _ in range(3):
                shuffled = factors[:]
                rng.shuffle(shuffled)
                assert np.array_equal(sweep_from_one(len(p), shuffled, np.int64), p)


def test_criterion_6_ratio_chain_identity():
    with Budget("6 ratio chain identity and exact normalizer identity", 5):
        for N in (1, 10, 10**3, 10**6):
            for k in range(1, 13):
                predicted_ratio(congruence_family(N, k))  # raises IdentityMismatch when the two routes differ
        corpus = [validate_tuple(qs) for qs in SMALL_TUPLES]
        corpus += make_random_tuples(50, max_degree=10**6, seed=0x1DE9)
        for rho in corpus:
            rhs = rho.qs[-1]
            for j in range(1, rho.k):
                rhs *= rho.qs[j - 1] ** (1 << (rho.k - j - 1))
            assert rho.m * normalizer(rho) == rhs


def test_criterion_7_convergence_consistency():
    with Budget("7 convergence consistency", 5):
        limit = limit_constant(30).value
        assert abs(predicted_ratio(congruence_family(10**6, 10)) - limit) < 0.02
        values = [limit_constant(t).value for t in range(1, 31)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_criterion_8_cli_contract():
    with Budget("8 CLI exit codes and byte determinism", 30):
        assert len(GOLDEN_CASES) >= 12
        for name, argv, expected_exit in GOLDEN_CASES:
            golden = (GOLDEN_DIR / f"{name}.out").read_bytes()
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "iepoly.cli", *argv],
                    capture_output=True,
                    env=SRC_ENV,
                )
                for _ in range(2)
            ]
            for proc in runs:
                assert proc.returncode == expected_exit, (name, proc.returncode, proc.stderr)
            assert runs[0].stdout == runs[1].stdout, name
            assert runs[0].stdout == golden, name
