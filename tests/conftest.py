import math
import random

import numpy as np
import pytest

from iepoly import core
from iepoly.analysis import coprime_runs
from iepoly.core import CoprimeTuple, degree_of, validate_tuple

# Hand-picked tuples that exercise k = 1..4, prime and non-prime entries.
SMALL_TUPLES = [
    (2,),
    (3,),
    (7,),
    (12,),
    (2, 3),
    (3, 5),
    (2, 7),
    (4, 9),
    (8, 15),
    (2, 3, 5),
    (3, 4, 5),
    (3, 5, 7),
    (2, 5, 9),
    (5, 6, 7),
    (2, 3, 5, 7),
    (3, 4, 5, 7),
]

# The k = 5-7 tuples of perfbench's high_k workload.
HIGH_K_TUPLES = [
    (5, 7, 11, 13, 17),
    (3, 5, 7, 11, 13, 17),
    (2, 3, 5, 7, 11, 13, 17),
    (11, 13, 17, 19, 23),
    (7, 11, 13, 17, 19),
    (4, 5, 7, 9, 11, 13),
    (3, 5, 7, 11, 13),
    (3, 4, 5, 7, 11, 13),
]


def coprime_tuples(k: int, m_cap: int) -> list[CoprimeTuple]:
    """Every valid tuple with exactly k entries and product <= m_cap: the runs of ``coprime_runs``, joined."""
    return [rho for run in coprime_runs(k, m_cap) for rho in run]


def sweep_from_one(window, factors, dtype):
    """core._sweep from the constant 1 in ``dtype``: the array, promoted at the int64 step that could have wrapped."""
    c = np.zeros(window, dtype=dtype)
    c[0] = 1
    return core._sweep(c, factors, 1)[0]


def make_random_tuples(count: int, max_degree: int = 10**5, seed: int = 0x5EED, k_max: int = 5) -> list[CoprimeTuple]:
    """Deterministic corpus of valid tuples with degree at most max_degree."""
    rng = random.Random(seed)
    tuples: list[CoprimeTuple] = []
    while len(tuples) < count:
        k = rng.randint(1, k_max)
        hi = max(3, int(max_degree ** (1.0 / k)) + 2)
        qs: list[int] = []
        tries = 0
        while len(qs) < k and tries < 200:
            tries += 1
            q = rng.randint(2, hi)
            if q not in qs and all(math.gcd(q, p) == 1 for p in qs):
                qs.append(q)
        if len(qs) < k:
            continue
        rho = validate_tuple(sorted(qs))
        if degree_of(rho) <= max_degree:
            tuples.append(rho)
    return tuples


@pytest.fixture(scope="session")
def small_corpus() -> list[CoprimeTuple]:
    return [validate_tuple(qs) for qs in SMALL_TUPLES]


@pytest.fixture(scope="session")
def high_k_corpus() -> list[CoprimeTuple]:
    return [validate_tuple(qs) for qs in HIGH_K_TUPLES]


@pytest.fixture(scope="session")
def random_corpus() -> list[CoprimeTuple]:
    return make_random_tuples(40, max_degree=20_000, seed=0xC0FFEE)
