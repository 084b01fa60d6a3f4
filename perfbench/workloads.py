"""The benchmark's workloads: seeded lists of iepoly CLI invocations.

Each workload is a closed loop with one client: the runner repeats whole
rounds of the list below, one invocation after the other.  The seed picks
inputs among alternatives of near-equal cost, the order of a round, and the
evaluation points and samples the checks use, so different seeds exercise
different outputs at the same size.  Only CLI flags and exported names that
the ROADMAP keeps are used (no ``--jobs``, no ``ExpandOptions`` fields).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Optional

import checks

EXPAND_CAP = 100_000


@dataclass
class Op:
    """One CLI invocation and what its check needs.

    ``kind`` selects the check; ``params`` carries the inputs the check
    recomputes from.  ``out`` names the coefficient file (relative to the
    work directory) for ``compute --out``.  ``known_fault`` marks inputs on
    which the program is known to be wrong (ROADMAP item 1), so a failure
    there is counted without making the run incorrect.
    """

    kind: str
    argv: list[str]
    params: dict[str, Any] = field(default_factory=dict)
    out: Optional[str] = None
    known_fault: bool = False

    @property
    def label(self) -> str:
        return " ".join(self.argv)

    @property
    def handles_tuples(self) -> bool:
        """Whether the invocation takes or produces tuples (the base of tuples_per_s)."""
        return self.kind != "constant"


def _q(qs: tuple[int, ...]) -> str:
    return ",".join(str(q) for q in qs)


def compute_file(qs: tuple[int, ...], known_fault: bool = False) -> Op:
    name = "coeffs_" + "_".join(str(q) for q in qs) + ".txt"
    return Op("file", ["compute", "--q", _q(qs), "--out", name], {"qs": qs}, out=name,
              known_fault=known_fault)


def compute_height(qs: tuple[int, ...]) -> Op:
    return Op("height", ["compute", "--q", _q(qs), "--height-only"], {"qs": qs})


def construct(N: int, k: int, expand: bool) -> Op:
    argv = ["construct", "--N", str(N), "--k", str(k)] + (["--expand"] if expand else [])
    return Op("construct", argv, {"N": N, "k": k, "expand": expand})


# Coprime triples with degree 1.06e6 - 1.10e6 and quadruples with degree
# 0.64e6 - 0.69e6: the sweep cost is proportional to the window times the
# number of applied factors, so every choice costs the same within a few per
# cent.  Every member expands correctly at the seed commit.
TRIPLES = [t for t in combinations(range(95, 116), 3)
           if checks.pairwise_coprime(t) and 1_060_000 <= checks.degree(t) <= 1_100_000]
QUADRUPLES = [t for t in combinations(range(19, 46), 4)
              if checks.pairwise_coprime(t) and 640_000 <= checks.degree(t) <= 690_000]


def dense_expand(rng: random.Random) -> list[Op]:
    """k = 3-4, degree 0.36 M to 3.24 M: the sweeps, the lane change and the writer."""
    family_member = tuple(checks.family(4, 3)[1])  # (49, 145, 241)
    tuples = [(49, 51, 149), rng.choice(TRIPLES), rng.choice(QUADRUPLES), family_member]
    ops = []
    for qs in tuples:
        ops += [compute_height(qs), compute_file(qs)]
    ops += [construct(4, 3, True), construct(5, 3, True)]
    return ops


def many_small(rng: random.Random) -> list[Op]:
    """About 10 k small expansions: per-call overhead, enumeration, ratios, oracle."""
    ops = []
    for k, base in ((3, 5000), (4, 10000)):
        m_cap = base + rng.randrange(base // 100)
        argv = ["search", "--k", str(k), "--m-cap", str(m_cap), "--expand-cap", str(EXPAND_CAP)]
        ops.append(Op("search", argv, {"k": k, "m_cap": m_cap, "expand_cap": EXPAND_CAP}))
    m_cap = 1500 + rng.randrange(15)
    ops.append(Op("oracle", ["oracle-check", "--m-cap", str(m_cap), "--k-max", "3"],
                  {"m_cap": m_cap, "k_max": 3}))
    return ops


def search_samples(op: Op, rng: random.Random, count: int = 3) -> list[tuple[int, ...]]:
    """Seeded tuples of a search whose heights are verified through coefficient files."""
    p = op.params
    pool = [t for t in checks.enumerate_tuples(p["k"], p["m_cap"]) if checks.degree(t) <= p["expand_cap"]]
    return rng.sample(pool, count)


def _branch_tuple(rng: random.Random, r: int, k: int) -> tuple[int, ...]:
    """k increasing pairwise coprime entries alternating 2r + 1 and 2r - 1 mod 4r."""
    qs: list[int] = []
    q = 2 * r - 1 + 4 * r * rng.randrange(0, 3)
    while len(qs) < k:
        want = (2 * r + 1 if len(qs) % 2 == 0 else 2 * r - 1) % (4 * r)
        if q % (4 * r) == want and q >= 2 and all(math.gcd(q, p) == 1 for p in qs):
            qs.append(q)
        q += 1
    return tuple(qs)


def _break_last(r: int, qs: tuple[int, ...]) -> tuple[int, ...]:
    """Replace the last entry by the next coprime one off both branches."""
    q = qs[-1] + 1
    while (q % (4 * r) in ((2 * r + 1) % (4 * r), (2 * r - 1) % (4 * r))
           or any(math.gcd(q, p) != 1 for p in qs[:-1])):
        q += 1
    return qs[:-1] + (q,)


def constant(terms: int) -> Op:
    return Op("constant", ["constant", "--terms", str(terms)], {"terms": terms})


def verify(qs: tuple[int, ...], r: int) -> Op:
    return Op("verify", ["verify", "--q", _q(qs), "--r", str(r)], {"qs": qs, "r": r})


def closed_form(rng: random.Random) -> list[Op]:
    """Exact big-integer, rational and mpmath work with no large expansion."""
    ops = [construct(N, k, False) for N in (1, 2) for k in (12, 14, 15)]
    ops += [constant(4000 + rng.randrange(100)), constant(rng.randrange(4, 13))]
    N, k = rng.randrange(1, 5), rng.randrange(3, 6)
    r, qs = checks.family(N, k)
    ops.append(verify(tuple(qs), r))
    r = rng.randrange(5, 40)
    mixed = _branch_tuple(rng, r, 4)
    ops += [verify(mixed, r), verify(_break_last(r, mixed), r)]
    # The one small expansion keeps coeffs_per_s above 0 on this workload.
    ops.append(construct(1, 3, True))
    return ops


# ROADMAP item 1: the int64 lane wraps on these tuples and the wrapped array
# is promoted and carried on, so their outputs are wrong on every run until
# that item lands.  The other four stay in int64 or promote from a sound
# state, and must pass.
WRAPPING = [(5, 7, 11, 13, 17), (3, 5, 7, 11, 13, 17), (2, 3, 5, 7, 11, 13, 17), (11, 13, 17, 19, 23)]
SOUND = [(7, 11, 13, 17, 19), (4, 5, 7, 9, 11, 13), (3, 5, 7, 11, 13), (3, 4, 5, 7, 11, 13)]


def high_k(rng: random.Random) -> list[Op]:
    """k = 5-7: the int64 lane, the lane change and the big-int lane."""
    return [compute_file(qs, known_fault=True) for qs in WRAPPING] + [compute_file(qs) for qs in SOUND]


WORKLOADS = {
    "dense_expand": dense_expand,
    "many_small": many_small,
    "closed_form": closed_form,
    "high_k": high_k,
}


def build(workload: str, seed: int) -> tuple[list[Op], random.Random]:
    """The seeded op list of one round, in the order every round runs it."""
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    return ops, rng
