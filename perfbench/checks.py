"""Independent checks of iepoly CLI outputs.

Nothing here imports iepoly or compares against a stored copy of earlier
output: every expected value is recomputed from the inputs with formulas
written apart from the program.  Each ``check_*`` function returns a list of
reasons; an empty list means the output passed.

The coefficient-file check evaluates the file at seeded random points modulo
the prime P = 2^31 - 1 and compares with the defining product

    Q(a) = prod_{|S| even} (1 - a^d_S) / prod_{|S| odd} (1 - a^d_S)  (mod P),

where d_S = m / prod_{i in S} q_i.  A wrong coefficient vector of degree n
agrees with Q at a random point with probability at most n / P (below 2e-3
for the largest file here), so four points make a false pass negligible.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations
from typing import Any, Optional, Sequence, Union

import numpy as np

PRIME = (1 << 31) - 1
# Products of two residues below 2^31 fit in int64, so the modular
# evaluation can run vectorised without Python integers.
EVAL_POINTS = 4
RATIO_REL_TOL = 1e-11

Coeffs = Union[np.ndarray, list]


# ------------------------------ formulas -----------------------------------

def product(values: Sequence[int]) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def degree(qs: Sequence[int]) -> int:
    return product([q - 1 for q in qs])


def signed_divisors(qs: Sequence[int]) -> list[tuple[int, int]]:
    """(d, +1) for even-size subsets, (d, -1) for odd-size ones, d = m / prod S."""
    m = product(qs)
    out = []
    for size in range(len(qs) + 1):
        for subset in combinations(qs, size):
            out.append((m // product(subset), 1 if size % 2 == 0 else -1))
    return out


def normalizer(qs: Sequence[int]) -> int:
    """M = prod_{j=1}^{k-2} q_j^(2^(k-j-1) - 1)."""
    k = len(qs)
    return product([qs[j - 1] ** ((1 << (k - j - 1)) - 1) for j in range(1, k - 1)])


def ratio(height: int, norm: int, k: int) -> float:
    """(A / M)^(2^-k) through logarithms of the exact integers."""
    return math.exp((math.log(height) - math.log(norm)) / (1 << k))


def family(N: int, k: int) -> tuple[int, list[int]]:
    """r = N k! and q_j = (4j - 2) r + 1, from the family's definition."""
    r = N * math.factorial(k)
    return r, [(4 * j - 2) * r + 1 for j in range(1, k + 1)]


def lemma_bound(r: int, qs: Sequence[int]) -> Fraction:
    return Fraction(r ** (1 << (len(qs) - 1)), product(qs))


def ceil_fraction(fr: Fraction) -> int:
    return -(-fr.numerator // fr.denominator)


def pairwise_coprime(qs: Sequence[int]) -> bool:
    return all(math.gcd(a, b) == 1 for a, b in combinations(qs, 2))


def enumerate_tuples(k: int, m_cap: int) -> list[tuple[int, ...]]:
    """Strictly increasing pairwise coprime k-tuples of entries >= 2 with product <= m_cap.

    An explicit-stack search, pruned when even (q + 1)^rest cannot complete
    the tuple under the cap; sorted at the end.
    """
    found = []
    stack: list[tuple[tuple[int, ...], int]] = [((), 1)]
    while stack:
        prefix, prod = stack.pop()
        rest = k - len(prefix) - 1
        q = prefix[-1] + 1 if prefix else 2
        while prod * q * (q + 1) ** rest <= m_cap:
            if all(math.gcd(q, p) == 1 for p in prefix):
                if rest == 0:
                    found.append(prefix + (q,))
                else:
                    stack.append((prefix + (q,), prod * q))
            q += 1
    found.sort()
    return found


def limit_reference(terms: int) -> Decimal:
    """prod_{j>=1} (4j - 2)^(-2^(-j-1)) to 60 digits, summed far past ``terms``.

    Terms below 10^-70 cannot change 60 significant digits, so the sum stops
    there once it has gone well beyond the requested count.
    """
    with localcontext() as ctx:
        ctx.prec = 70
        total = Decimal(0)
        weight = Decimal(1) / 4
        j = 1
        while j <= terms + 200:
            term = Decimal(4 * j - 2).ln() * weight
            total += term
            if j > 64 and term < Decimal("1e-70"):
                break
            weight /= 2
            j += 1
        return (-total).exp()


# --------------------------- coefficient files -----------------------------

def load_coeffs(path: str) -> Coeffs:
    """int64 array when every value fits, else a list of Python ints."""
    with open(path, "rb") as fh:
        tokens = fh.read().split()
    if tokens and max(map(len, tokens)) <= 18:
        return np.array(tokens, dtype=np.int64)
    return [int(t) for t in tokens]


def _residues(coeffs: Coeffs) -> np.ndarray:
    if isinstance(coeffs, np.ndarray):
        return coeffs % PRIME
    return np.array([c % PRIME for c in coeffs], dtype=np.int64)


def _powers(a: int, n: int) -> np.ndarray:
    pw = np.empty(n, dtype=np.int64)
    pw[0] = 1
    filled = 1
    while filled < n:
        take = min(filled, n - filled)
        step = pow(a, filled, PRIME)
        np.multiply(pw[:take], step, out=pw[filled:filled + take])
        pw[filled:filled + take] %= PRIME
        filled += take
    return pw


def eval_mod(residues: np.ndarray, a: int) -> int:
    return int(((residues * _powers(a, len(residues))) % PRIME).sum() % PRIME)


def product_mod(qs: Sequence[int], a: int) -> Optional[int]:
    """Q(a) mod P from the defining product; None if a denominator vanishes."""
    num, den = 1, 1
    for d, sign in signed_divisors(qs):
        f = (1 - pow(a, d, PRIME)) % PRIME
        if sign > 0:
            num = num * f % PRIME
        else:
            den = den * f % PRIME
    if den == 0:
        return None
    return num * pow(den, PRIME - 2, PRIME) % PRIME


def eval_points(qs: Sequence[int], rng: random.Random, count: int = EVAL_POINTS) -> list[tuple[int, int]]:
    """Seeded points a with their expected value Q(a) mod P."""
    points = []
    while len(points) < count:
        a = rng.randrange(2, PRIME - 1)
        expected = product_mod(qs, a)
        if expected is not None:
            points.append((a, expected))
    return points


def file_stats(coeffs: Coeffs) -> dict[str, Any]:
    if isinstance(coeffs, np.ndarray):
        return {
            "height": int(max(coeffs.max(), -coeffs.min())),
            "palindromic": bool(np.array_equal(coeffs, coeffs[::-1])),
            "sum": int(coeffs.sum(dtype=object)),
        }
    return {
        "height": max(abs(c) for c in coeffs),
        "palindromic": coeffs == coeffs[::-1],
        "sum": sum(coeffs),
    }


def check_coeff_file(qs: Sequence[int], coeffs: Coeffs, payload: dict[str, Any],
                     points: Sequence[tuple[int, int]]) -> list[str]:
    """Check an ``--out`` file and the ``compute`` payload that reported on it."""
    reasons = []
    n = degree(qs) + 1
    if len(coeffs) != n:
        return [f"file has {len(coeffs)} coefficients, expected {n}"]
    if coeffs[0] != 1 or coeffs[-1] != 1:
        reasons.append("first or last coefficient is not 1")
    stats = file_stats(coeffs)
    if not stats["palindromic"]:
        reasons.append("not palindromic")
    expected_sum = qs[0] if len(qs) == 1 else 1
    if stats["sum"] != expected_sum:
        reasons.append(f"coefficient sum {stats['sum']} != {expected_sum}")
    residues = _residues(coeffs)
    for a, expected in points:
        if eval_mod(residues, a) != expected:
            reasons.append(f"modular mismatch at a={a} mod {PRIME}")
            break
    if payload.get("degree") != n - 1:
        reasons.append(f"reported degree {payload.get('degree')} != {n - 1}")
    if payload.get("height") != str(stats["height"]):
        reasons.append(f"reported height {payload.get('height')} != file height {stats['height']}")
    if payload.get("palindromic") is not stats["palindromic"]:
        reasons.append("reported palindromic disagrees with the file")
    if payload.get("eval_at_one") != str(stats["sum"]):
        reasons.append("reported eval_at_one disagrees with the file")
    reasons += _check_height_fields(qs, payload, stats["height"])
    return reasons


# The reasons a coefficient file of the int64 wrap fault (ROADMAP item 1) fails
# with: the program exited 0 and wrote a full-length file whose values are wrong.
WRAP_FAULT_REASONS = ("first or last coefficient is not 1", "not palindromic", "coefficient sum ",
                      "modular mismatch at ")


def is_wrap_fault(reasons: Sequence[str]) -> bool:
    """True when a failed ``compute --out`` check shows the wrap fault and nothing else.

    A crash, a missing or short file, or a report that disagrees with its own
    file is a different failure and must not pass as the known fault.
    """
    return bool(reasons) and all(r.startswith(WRAP_FAULT_REASONS) for r in reasons)


def _check_height_fields(qs: Sequence[int], payload: dict[str, Any], height: int) -> list[str]:
    reasons = []
    if payload.get("q") != [str(q) for q in qs] or payload.get("m") != str(product(qs)):
        reasons.append("reported q or m differs from the input")
    norm = normalizer(qs)
    if payload.get("normalizer") != str(norm):
        reasons.append(f"normalizer {payload.get('normalizer')} != {norm}")
    if height >= 1 and not _close(payload.get("normalized_ratio"), ratio(height, norm, len(qs))):
        reasons.append("normalized_ratio differs from (A/M)^(2^-k)")
    return reasons


def check_height_only(qs: Sequence[int], payload: dict[str, Any], verified: Optional[dict[str, Any]]) -> list[str]:
    """``compute --height-only`` against the verified file of the same tuple."""
    if verified is None:
        return ["no verified coefficient file for this tuple"]
    reasons = []
    if payload.get("degree") != degree(qs):
        reasons.append(f"degree {payload.get('degree')} != {degree(qs)}")
    if payload.get("height") != str(verified["height"]):
        reasons.append(f"height {payload.get('height')} != verified file height {verified['height']}")
    return reasons + _check_height_fields(qs, payload, verified["height"])


def _close(value: Any, expected: float) -> bool:
    return isinstance(value, float) and abs(value - expected) <= RATIO_REL_TOL * abs(expected)


# ------------------------------ construction -------------------------------

def predicted_ratio(N: int, k: int) -> float:
    """((r^(2^(k-1)) / m) / M)^(2^-k) in the log domain, from the family formulas."""
    r, qs = family(N, k)
    log_m = sum(math.log(q) for q in qs)
    log_norm = sum(((1 << (k - j - 1)) - 1) * math.log(qs[j - 1]) for j in range(1, k - 1))
    return math.exp(((1 << (k - 1)) * math.log(r) - log_m - log_norm) / (1 << k))


def check_construct(N: int, k: int, payload: dict[str, Any], expanded: bool,
                    verified: Optional[dict[str, Any]] = None) -> list[str]:
    reasons = []
    r, qs = family(N, k)
    expect = {
        "N": N, "k": k, "r": str(r), "q": [str(q) for q in qs], "m": str(product(qs)),
        "degree": str(degree(qs)), "congruence_ok": True, "branch": "plus",
    }
    for key, value in expect.items():
        if payload.get(key) != value:
            reasons.append(f"{key} = {payload.get(key)!r}, expected {value!r}")
    bound = None
    if payload.get("lemma_bound") is not None:
        bound = lemma_bound(r, qs)
        if payload["lemma_bound"] != f"{bound.numerator}/{bound.denominator}":
            reasons.append("lemma_bound differs from r^(2^(k-1))/m")
        if payload.get("height_floor") != str(ceil_fraction(bound)):
            reasons.append("height_floor differs from the ceiling of the bound")
    elif (1 << (k - 1)) * r.bit_length() <= 1 << 16:
        # The program may omit a bound too large to print, never a small one.
        reasons.append("lemma_bound omitted for a small bound")
    if not _close(payload.get("predicted_ratio"), predicted_ratio(N, k)):
        reasons.append("predicted_ratio differs from the family formula")
    if expanded:
        height = int(payload.get("height", "0"))
        floor = ceil_fraction(lemma_bound(r, qs))
        if height < floor:
            reasons.append(f"height {height} below the floor {floor}")
        if payload.get("height_ok") is not True:
            reasons.append("height_ok is not true")
        if verified is not None and height != verified["height"]:
            reasons.append(f"height {height} != verified file height {verified['height']}")
        if height >= 1 and not _close(payload.get("normalized_ratio"), ratio(height, normalizer(qs), k)):
            reasons.append("normalized_ratio differs from (A/M)^(2^-k)")
    return reasons


def check_verify(qs: Sequence[int], r: int, payload: dict[str, Any], exit_code: int) -> list[str]:
    reasons = []
    modulus = 4 * r
    plus, minus = (2 * r + 1) % modulus, (2 * r - 1) % modulus
    elements = []
    for q in qs:
        res = q % modulus
        branch = "plus" if res == plus else "minus" if res == minus else None
        elements.append({"q": str(q), "residue": str(res), "ok": branch is not None, "branch": branch})
    ok = all(e["ok"] for e in elements)
    if payload.get("modulus") != str(modulus):
        reasons.append("modulus is not 4r")
    if payload.get("elements") != elements:
        reasons.append("residues or branches differ")
    if payload.get("congruence_ok") is not ok:
        reasons.append("congruence_ok differs")
    if exit_code != (0 if ok else 1):
        reasons.append(f"exit code {exit_code} for congruence_ok={ok}")
    if ok:
        bound = lemma_bound(r, qs)
        if payload.get("lemma_bound") != f"{bound.numerator}/{bound.denominator}":
            reasons.append("lemma_bound differs from r^(2^(k-1))/m")
        if payload.get("height_floor") != str(ceil_fraction(bound)):
            reasons.append("height_floor differs")
    return reasons


# -------------------------------- analysis ---------------------------------

def check_constant(terms: int, payload: dict[str, Any]) -> list[str]:
    reasons = []
    value, bound = payload.get("value"), payload.get("error_bound")
    if payload.get("terms") != terms or not isinstance(value, float) or not isinstance(bound, float):
        return ["terms, value or error_bound missing or wrong type"]
    reference = limit_reference(terms)
    rounding = 4 * math.ulp(value)
    if abs(Decimal(value) - reference) > Decimal(bound) + Decimal(rounding):
        reasons.append(f"value {value!r} is not within error_bound {bound!r} of the limit {reference:.20f}")
    return reasons


def check_search(k: int, m_cap: int, expand_cap: int, payload: dict[str, Any],
                 sample_heights: dict[tuple[int, ...], int]) -> list[str]:
    """``search``: the tuple set, each row's fields, the order, and sampled heights."""
    reasons = []
    expected = [t for t in enumerate_tuples(k, m_cap) if degree(t) <= expand_cap]
    rows = payload.get("results") or []
    seen = [tuple(int(q) for q in row["q"]) for row in rows]
    if payload.get("count") != len(rows):
        reasons.append("count differs from the number of rows")
    if sorted(seen) != expected:
        reasons.append(f"{len(seen)} rows, expected the {len(expected)} enumerated tuples")
    keys = []
    for qs, row in zip(seen, rows):
        height, norm = int(row["height"]), normalizer(qs)
        if (row["m"], row["degree"], row["normalizer"]) != (str(product(qs)), degree(qs), str(norm)):
            reasons.append(f"m, degree or normalizer wrong for {qs}")
            break
        if not _close(row["normalized_ratio"], ratio(height, norm, k)):
            reasons.append(f"ratio wrong for {qs}")
            break
        keys.append((-Fraction(height, norm), qs))
    if keys != sorted(keys):
        reasons.append("rows are not ordered by descending ratio, then tuple")
    heights = dict(zip(seen, (int(row["height"]) for row in rows)))
    for qs, height in sample_heights.items():
        if heights.get(qs) != height:
            reasons.append(f"height of {qs} is {heights.get(qs)}, verified file says {height}")
    return reasons


def check_oracle(m_cap: int, k_max: int, payload: dict[str, Any], exit_code: int) -> list[str]:
    count = sum(len(enumerate_tuples(k, m_cap)) for k in range(1, k_max + 1))
    reasons = []
    if payload.get("tuples_checked") != count:
        reasons.append(f"tuples_checked {payload.get('tuples_checked')} != {count}")
    if payload.get("mismatches") != 0 or payload.get("mismatched_tuples") != [] or exit_code != 0:
        reasons.append("the oracle reported mismatches")
    return reasons
