"""Command-line front end.

Subcommands: compute, construct, constant, verify, search, oracle-check.
One line of compact JSON goes to stdout (fixed field order,
byte-deterministic, whatever stdout is attached to), diagnostics to
stderr.  Exit codes: 0 success, 1 a checked mathematical predicate is
false, 2 invalid input (or an --out file that cannot be written), 3 a
capacity cap was exceeded or an allocation was refused (MemoryError).

Arbitrary-precision integers serialize as decimal strings (errors._big)
and rationals as "num/den" strings.  compute's inline coefficients are
JSON numbers, and exact: they are printed only for a degree below
COEFF_INLINE_LIMIT, and every tuple of such a degree has height at most 95
(at 3,4,7,13,17), far below 2^53, up to which a double holds every integer.
A test enumerates those tuples.
Reals are reported as 64-bit floats, each the correctly rounded value of
a chain of integer square roots (see the analysis module); constant's
error_bound bounds the distance from its reported value to the limit.
compute prints up to COEFF_INLINE_LIMIT coefficients inline; a longer
window is omitted unless --out writes it, one decimal integer per line (an
int64 array is formatted in numpy, a block at a time).  construct and
verify print r^(2^(k-1)) / m and its ceiling as
construction.height_lower_bound raised them, in decimal, and compare that
ceiling with an expanded height; past its gate (construction.bound_fits)
both print null.

Configuration comes from the command line only.  In compute, construct,
verify and search, --memory-cap bounds the longest coefficient array a
call allocates: the full window when coefficients are output (compute
without --height-only), the low half (core.low_half) when only the height
is (compute --height-only, construct --expand, verify --expand, and
search, whose run shares one array as long as its longest low half).  In
oracle-check it bounds the window plus the reference route's untruncated
product, since both are alive at once; a run of tuples sharing
q_1 .. q_(k-1) shares one sweep only where its shared array, one array as
long and its largest product fit the cap together.
constant, and construct and verify without --expand, allocate no array.
Each value of --q and --r is refused (exit 3) past ARG_DIGITS_CAP digits
before it is parsed.  On Linux one command-line argument holds at most
131,071 bytes, so a value of 131,072 to ARG_DIGITS_CAP digits reaches the
program only through ``main(argv)``.

``run`` is the process entry point (``python -m iepoly.cli`` and the
``iepoly`` script); ``main(argv)`` is the pure part that tests and
in-process callers use; it changes no process-wide setting.  A run pays
start-up only for what it uses: numpy loads with the first coefficient
array (see the core module), so constant, construct and verify without
--expand never load it.  The records are NamedTuples, so no command loads
dataclasses (nor its inspect, ast, dis, tokenize).
``run`` also sets OPENBLAS_NUM_THREADS=1 for its own process before
anything can load numpy, because iepoly calls no BLAS routine and starting
OpenBLAS's thread pool doubles numpy's import time; the value changes no
result.  It lifts the interpreter's int-to-str digit limit, so --q and --r
accept integers up to ARG_DIGITS_CAP digits, and it freezes the garbage
collector's objects before exit, so shutdown does not walk every object of
numpy and argparse.  Neither ``import iepoly`` nor any library call
touches the environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Any, Optional, Sequence

from . import analysis, construction, core, oracle
from .errors import (
    CapacityError,
    CapExceeded,
    DegreeCapExceeded,
    IdentityMismatch,
    InvalidParameter,
    NonzeroRemainder,
    TupleValidationError,
    _big,
)

if TYPE_CHECKING:
    import numpy as np

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_CAPACITY = 3

COEFF_INLINE_LIMIT = 10**4
OUT_CHUNK = 1 << 16
# Longest decimal value --q and --r take: the digits of 2r + 1 for the
# longest r whose bound verify still builds at k = 1 (construction.bound_fits,
# r of BOUND_BITS_CAP bits).  int() of a decimal string is quadratic before
# CPython 3.12, 0.12 s at this length and 5 s at 10^6 digits, so a value's
# digits are counted before it is parsed.
ARG_DIGITS_CAP = math.floor((construction.BOUND_BITS_CAP + 1) * math.log10(2)) + 1


# ------------------------------ serialization ------------------------------

def _bound_fields(bound: Optional[construction.HeightBound], m: int) -> tuple[Optional[str], Optional[str]]:
    """lemma_bound and height_floor: r^(2^(k-1)) / m and its ceiling, or null past the gate."""
    if bound is None:
        return None, None
    return f"{bound.numerator}/{_big(m)}", str(bound.floor)


def _floor_check(payload: dict[str, Any], bound: Optional[construction.HeightBound], height: int) -> int:
    """Report height_ok unless the bound is null past the gate; a height below the floor exits 1."""
    if bound is None:
        return EXIT_OK
    payload["height_ok"] = bound.floor <= height
    return EXIT_OK if payload["height_ok"] else EXIT_VERIFY_FAILED


def _write_coeffs(path: str, coeffs: np.ndarray) -> None:
    # Formatted a chunk at a time, so no temporary of the whole array exists.
    lines = _int64_lines if coeffs.dtype == "int64" else _object_lines
    with open(path, "wb") as sink:
        for start in range(0, len(coeffs), OUT_CHUNK):
            sink.write(lines(coeffs[start : start + OUT_CHUNK]))


def _object_lines(block: np.ndarray) -> bytes:
    values = block.tolist()
    return (("%d\n" * len(values)) % tuple(values)).encode("ascii")


def _int64_lines(block: np.ndarray) -> bytes:
    # One row of ASCII bytes per value: a sign column, one column per digit
    # of the block's largest magnitude, and a newline.  The bytes kept are
    # the sign of a negative value, its digits from the first nonzero one
    # (the units digit always) and the newline.  Magnitudes are taken in
    # uint64, where -2^63 does not wrap, then narrowed to the smallest
    # unsigned type that holds them; the digits come from // 10, which numpy
    # runs much faster than % 10, and take their ord("0") in the same step.
    import numpy as np

    negative = block < 0
    magnitude = block.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=negative)
    top = int(magnitude.max())
    magnitude = magnitude.astype(np.min_scalar_type(top))
    width = len(str(top))
    rows = np.empty((len(block), width + 2), dtype=np.uint8)
    keep = np.empty(rows.shape, dtype=bool)
    rows[:, 0] = ord("-")
    keep[:, 0] = negative
    for column in range(width, 0, -1):
        keep[:, column] = magnitude != 0
        quotient = magnitude // 10
        rows[:, column] = magnitude - quotient * 10 + ord("0")
        magnitude = quotient
    keep[:, width] = True
    rows[:, -1] = ord("\n")
    keep[:, -1] = True
    return rows[keep].tobytes()


def emit(payload: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")


# -------------------------------- commands ---------------------------------

def _parse_int(text: str, name: str) -> int:
    """int(text), refused (exit 3) before int() runs when it has more than ARG_DIGITS_CAP digits."""
    digits = len(text.strip().lstrip("+-"))
    if digits > ARG_DIGITS_CAP:
        raise CapExceeded(f"{name} has {digits} digits, past the cap of {ARG_DIGITS_CAP}")
    try:
        return int(text)
    except ValueError as exc:
        raise InvalidParameter(f"cannot parse {name} value {text!r} as an integer") from exc


def _parse_q(raw: str) -> core.CoprimeTuple:
    parts = [part for part in raw.split(",") if part.strip()]
    if not parts:
        raise InvalidParameter(f"--q value {raw!r} contains no integers")
    # Counted before any entry is parsed and before validate_tuple's
    # pairwise gcds, which a long list would spend seconds on; the cap also
    # bounds r^(2^(k-1)) in verify.
    core.check_subset_cap(len(parts))
    return core.validate_tuple([_parse_int(part, "--q") for part in parts])


def cmd_compute(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    rho = _parse_q(args.q)
    # A run that outputs no coefficients sweeps only the low half.
    full = None if args.height_only else core.expand(rho, args.memory_cap)
    coeffs = core.low_half(rho, args.memory_cap) if full is None else full
    report = analysis.height_report(rho, coeffs)
    payload: dict[str, Any] = {
        "command": "compute",
        "q": [_big(q) for q in rho.qs],
        "k": rho.k,
        "m": _big(rho.m),
        "degree": report.degree,
        "height": _big(report.height),
        "normalizer": _big(report.normalizer),
        "normalized_ratio": report.normalized_ratio,
    }
    if args.coeff is not None:
        i = args.coeff
        if not 0 <= i <= report.degree:
            raise InvalidParameter(f"--coeff index {i} outside [0, {report.degree}]")
        payload["coeff_index"] = i
        # Past the low half, coefficient i is coefficient degree - i.
        payload["coeff"] = _big(int(coeffs[i if i < len(coeffs) else report.degree - i]))
    if full is not None:
        payload["palindromic"] = core.is_palindromic(full)
        payload["eval_at_one"] = _big(core.eval_at_one(full))
        if args.out:
            try:
                _write_coeffs(args.out, full)
            except OSError as exc:
                raise InvalidParameter(f"cannot write --out: {exc}") from exc
            payload["coefficients_file"] = args.out
        elif len(full) <= COEFF_INLINE_LIMIT:
            payload["coefficients"] = full.tolist()
        else:
            payload["coefficients_omitted"] = True
    return payload, EXIT_OK


def cmd_construct(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    fam = construction.congruence_family(args.N, args.k)
    ratio = analysis.predicted_ratio(fam)
    degree = core.degree_of(fam.rho)
    lemma, floor = _bound_fields(fam.height_bound, fam.rho.m)
    payload: dict[str, Any] = {
        "command": "construct",
        "N": args.N,
        "k": args.k,
        "r": _big(fam.r),
        "q": [_big(q) for q in fam.rho.qs],
        "m": _big(fam.rho.m),
        "degree": _big(degree),
        "congruence_ok": True,
        "branch": "plus",
        "lemma_bound": lemma,
        "height_floor": floor,
        "predicted_ratio": ratio,
    }
    if not args.expand:
        return payload, EXIT_OK
    report = analysis.height_report(fam.rho, core.low_half(fam.rho, args.memory_cap))
    payload["height"] = _big(report.height)
    payload["normalized_ratio"] = report.normalized_ratio
    return payload, _floor_check(payload, fam.height_bound, report.height)


def cmd_constant(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    result = analysis.limit_constant(args.terms)
    payload = {
        "command": "constant",
        "terms": result.terms_used,
        "value": result.value,
        "error_bound": result.error_bound,
    }
    return payload, EXIT_OK


def cmd_verify(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    r = _parse_int(args.r, "--r")
    rho = _parse_q(args.q)
    if r < 1:
        raise InvalidParameter(f"--r must be positive, got {_big(r)}")
    report = construction.check_congruence(rho, r)
    payload: dict[str, Any] = {
        "command": "verify",
        "q": [_big(q) for q in rho.qs],
        "r": _big(r),
        "modulus": _big(report.modulus),
        "elements": [
            {"q": _big(e.q), "residue": _big(e.residue), "ok": e.ok, "branch": e.branch}
            for e in report.elements
        ],
        "congruence_ok": report.ok,
    }
    code = EXIT_OK if report.ok else EXIT_VERIFY_FAILED
    if report.ok:
        bound = construction.height_lower_bound(rho, r)
        payload["lemma_bound"], payload["height_floor"] = _bound_fields(bound, rho.m)
        if args.expand:
            A = core.height(core.low_half(rho, args.memory_cap))
            payload["degree"] = core.degree_of(rho)
            payload["height"] = _big(A)
            code = _floor_check(payload, bound, A)
    return payload, code


def cmd_search(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    reports = analysis.search_max_ratio(
        args.m_cap,
        args.k,
        expand_cap=args.expand_cap,
        degree_cap=args.memory_cap,
    )
    payload: dict[str, Any] = {
        "command": "search",
        "k": args.k,
        "m_cap": _big(args.m_cap),
        "expand_cap": args.expand_cap,
        "note": "finite-sample statistic over the enumerated tuples; not an estimate of the limiting supremum",
        "reference_bracket": {"lower": analysis.RATIO_BRACKET_LOW, "upper": analysis.RATIO_BRACKET_HIGH},
        "count": len(reports),
        "results": [
            {
                "q": [_big(q) for q in rep.rho.qs],
                "m": _big(rep.rho.m),
                "degree": rep.degree,
                "height": _big(rep.height),
                "normalizer": _big(rep.normalizer),
                "normalized_ratio": rep.normalized_ratio,
            }
            for rep in reports
        ],
    }
    return payload, EXIT_OK


def cmd_oracle_check(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    if args.k_max < 1:
        raise InvalidParameter(f"--k-max must be >= 1, got {args.k_max}")
    core.check_subset_cap(args.k_max)
    k_values = list(range(1, args.k_max + 1))
    checked = 0
    mismatches: list[str] = []
    for k in k_values:
        for run in analysis.coprime_runs(k, args.m_cap):
            mismatches += _mismatches(run, args.memory_cap)
            checked += len(run)
    payload = {
        "command": "oracle-check",
        "m_cap": _big(args.m_cap),
        "k_values": k_values,
        "tuples_checked": checked,
        "mismatches": len(mismatches),
        "mismatched_tuples": mismatches,
    }
    return payload, EXIT_OK if not mismatches else EXIT_VERIFY_FAILED


def _mismatches(run: list[core.CoprimeTuple], cap: int) -> list[str]:
    """The tuples of ``run`` whose fast and reference expansions differ.

    The run sweeps its shared half once (``core.expansions``, whose arrays
    the ``core`` module docstring lists) when its shared array, one array
    as long and its largest oracle product fit ``cap`` together (beside
    them a block of several tuples and its sweep hold at most SWEEP_BLOCK
    entries); otherwise each tuple expands by itself, and a refusal comes
    at the same tuple, with the same message, as for a tuple by itself.
    """
    if 2 * (core.degree_of(run[-1]) + 1) + max(map(oracle.product_length, run)) <= cap:
        arrays = core.expansions(run, cap)
    else:
        arrays = (core.expand(rho, cap) for rho in run)
    mismatched = []
    for rho in run:
        # Both arrays are alive at once, so the oracle gets what the window
        # leaves of the cap, and a refusal names their sum.
        fast = next(arrays)
        try:
            slow = oracle.oracle_expand(rho, degree_cap=cap - len(fast))
        except DegreeCapExceeded as exc:
            raise DegreeCapExceeded(len(fast) + exc.coefficients, cap) from None
        if not core.same_coeffs(fast, slow):
            mismatched.append(str(rho))
        del fast, slow  # neither is kept alive while the next array is built
    return mismatched


# --------------------------------- parser ----------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--memory-cap", type=int, default=core.DEFAULT_DEGREE_CAP, metavar="COEFFS",
                        help="cap on the longest coefficient array a call allocates (default 2^28)")

    parser = argparse.ArgumentParser(
        prog="iepoly",
        description="Exact inclusion-exclusion polynomials, coefficient heights, and extremal families.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("compute", parents=[common], help="expand a tuple and report height statistics")
    p.add_argument("--q", required=True, help="comma-separated tuple entries, e.g. 3,5,7")
    p.add_argument("--height-only", action="store_true",
                   help="omit coefficients and structural checks; sweep only the low half")
    p.add_argument("--coeff", type=int, default=None, metavar="INDEX", help="also report one coefficient")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write coefficients to FILE, one decimal integer per line")
    p.set_defaults(handler=cmd_compute)

    p = sub.add_parser("construct", parents=[common], help="build the (N, k) congruence family")
    p.add_argument("--N", required=True, type=int)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--expand", action="store_true", help="also expand and check the height floor")
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("constant", parents=[common], help="evaluate the limiting ratio constant")
    p.add_argument("--terms", required=True, type=int)
    p.set_defaults(handler=cmd_constant)

    p = sub.add_parser("verify", parents=[common], help="check the congruence hypothesis and height bound")
    p.add_argument("--q", required=True, help="comma-separated tuple entries")
    p.add_argument("--r", required=True)
    p.add_argument("--expand", action="store_true", help="also expand and compare the measured height")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("search", parents=[common], help="rank enumerable tuples by normalized ratio")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--m-cap", required=True, type=int)
    p.add_argument("--expand-cap", type=int, default=analysis.DEFAULT_SEARCH_EXPAND_CAP)
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("oracle-check", parents=[common],
                       help="compare the fast expander against the reference route")
    p.add_argument("--m-cap", required=True, type=int)
    p.add_argument("--k-max", type=int, default=3)
    p.set_defaults(handler=cmd_oracle_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.memory_cap < 1:
            raise InvalidParameter(f"--memory-cap must be positive, got {args.memory_cap}")
        payload, code = args.handler(args)
    except (TupleValidationError, InvalidParameter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (CapacityError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAPACITY
    except (IdentityMismatch, NonzeroRemainder) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    emit(payload)
    return code


def run() -> None:
    """Process entry point: main() on sys.argv, then exit with its code."""
    # Assigned, not defaulted: the value changes no result, so it is no knob.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if hasattr(sys, "set_int_max_str_digits"):
        # Arbitrary-precision integers are a deliberate input; the default
        # 4300-digit conversion guard would reject a long --q or --r.
        sys.set_int_max_str_digits(0)
    code = main()
    # Frozen objects are skipped by the collection at interpreter shutdown,
    # which would otherwise walk every object numpy and argparse made.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
