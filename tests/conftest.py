import contextlib
import dataclasses
import math
import random
import sys
import weakref
from unittest import mock

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


@dataclasses.dataclass
class Sweep:
    """One ``core._sweep`` call, as ``recorder`` saw it."""

    kind: str  # "shared", "block", "alone" or "last" (see the core docstring), or "external"
    window: int
    tuples: tuple  # the windows of the tuples it continues: a block's, or the lone or last tuple's
    entry: np.dtype
    bound: int  # on entry
    start: int  # the height on entry
    applied: list  # its factors of d below the window, in order
    planted: bool  # whether core.height read 2 in it
    entered: weakref.ref  # the array it was entered with, which it returns unless it promotes
    steps: list = dataclasses.field(default_factory=list)  # kernel calls, as (kernel, d, dtype)
    scans: list = dataclasses.field(default_factory=list)  # what core.height returned in it
    result: np.dtype = None

    @property
    def promoted(self) -> bool:
        return self.entry == np.int64 and self.result == object


class Recording:
    """The windows of the arrays ``recorder`` saw built from 1 (``core._unit``), and its sweeps, in order."""

    def __init__(self):
        self.units, self.sweeps = [], []

    @property
    def steps(self) -> list:
        return [step for sweep in self.sweeps for step in sweep.steps]

    @property
    def planted(self) -> Sweep:
        [sweep] = [sweep for sweep in self.sweeps if sweep.planted]
        return sweep


@contextlib.contextmanager
def recorder(limit=None, plant=None):
    """Record core's runs inside the block, one after another, in the Recording it yields.

    The tests' only patch of ``core._unit``, ``_block``, ``_sweep``, its
    kernels and ``core.height``.  A sweep's caller gives its kind: ``_block``
    a block; ``_truncated`` the shared array (``_unit``'s), the last tuple
    (in the shared sweep's result) or a tuple alone (in a copy of a prefix
    of that, checked); any other is external (``sweep_from_one``).  An object
    array built from 1 fails at once, and so does a planted sweep that does
    not promote.  ``limit`` replaces INT64_SAFE_LIMIT; with ``plant``, a
    kind, core.height reads 2 throughout the first sweep of it.  Arrays are
    held only through weak references, so traced peaks are the code's own.
    """
    real = {name: getattr(core, name) for name in
            ("_unit", "_block", "_sweep", "_shifted_difference", "_strided_prefix_sum", "height")}
    rec, groups, current = Recording(), [], []
    built = shared = lambda: None

    def unit(window):
        nonlocal built
        c = real["_unit"](window)
        rec.units.append(window)
        built = weakref.ref(c)
        return c

    def block(shared, bound, factors, group):
        groups.append(tuple(window for _, window in group))
        return real["_block"](shared, bound, factors, group)

    def sweep(c, factors, bound):
        nonlocal shared
        caller = sys._getframe(1).f_code.co_name
        if caller == "_block":
            kind, tuples = "block", groups.pop()
        elif caller != "_truncated":
            kind, tuples = "external", ()
        elif c is shared():
            kind, tuples = "last", (len(c),)
        elif c is built():
            kind, tuples = "shared", ()
        else:
            kind, tuples = "alone", (len(c),)
            # Compared 1024 entries at a time, so that the check hardly moves a traced peak.
            assert c.base is None and all(np.array_equal(c[i : i + 1024], shared()[: len(c)][i : i + 1024])
                                          for i in range(0, len(c), 1024)), "a tuple alone not in a copy of its prefix"
        assert c.dtype == np.int64 or np.count_nonzero(c[1:]), "an object array built from 1"
        record = Sweep(kind, len(c), tuples, c.dtype, bound, real["height"](c), [f for f in factors if f[0] < len(c)],
                       kind == plant and not any(s.planted for s in rec.sweeps), weakref.ref(c))
        rec.sweeps.append(record)
        current.append(record)
        held = [c]
        del c  # so that a promotion frees the entered array, as in core
        try:
            c, bound = real["_sweep"](held.pop(), factors, bound)
        finally:
            current.pop()
        record.result = c.dtype
        assert c.dtype == object or not record.planted, "a planted height that promoted nothing"
        if kind == "shared":
            shared = weakref.ref(c)
        return c, bound

    def scan(c):
        value = 2 if current and current[-1].planted else real["height"](c)
        if current:
            current[-1].scans.append(value)
        return value

    def kernel(name):
        def step(c, d):
            current[-1].steps.append((real[name], d, c.dtype))
            real[name](c, d)
        return step

    limited = {} if limit is None else {"INT64_SAFE_LIMIT": limit}
    with mock.patch.multiple(core, _unit=unit, _block=block, _sweep=sweep, height=scan, **limited,
                             _shifted_difference=kernel("_shifted_difference"),
                             _strided_prefix_sum=kernel("_strided_prefix_sum")):
        yield rec


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
