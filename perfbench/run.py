"""iepoly benchmark: run one workload through the real CLI and check every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is ``python -m
iepoly.cli`` from ``src/``.  Whole rounds of the workload's invocations run
one after another (a closed loop with one client) until their summed wall
time reaches ``--seconds``; every output is then checked against values the
benchmark computes itself (``checks.py``).

With ``--trace 0`` each invocation is a fresh interpreter and the last line
of stdout carries the end-to-end metrics.  With ``--trace 1`` the same
rounds replay in this process through ``iepoly.cli.main``, alternately
untraced and with spans around each module's public functions
(``spans.py``), and the last line carries the per-layer metrics.  Either
way the line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import checks
import workloads
from workloads import Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
# The run must end within 180 s: no round starts after SOFT_LIMIT_S and any
# invocation still running at HARD_LIMIT_S is killed and counted as failed.
SOFT_LIMIT_S = 120.0
HARD_LIMIT_S = 165.0


# A fixed kernel, run in a fresh interpreter between invocations: start-up
# with the numpy import, strided cumulative sums and a pure-Python loop, the
# same kinds of work the workloads do.  On a shared 2-vCPU virtual machine
# the CPU speed drifts by up to a half over minutes; the kernel's median time
# in a run measures that drift, and every end-to-end time is scaled by
# REFERENCE_NOMINAL_S (the kernel's usual median there) / that median.
REFERENCE_KERNEL = """
import numpy as np
a = np.arange(500_000, dtype=np.int64)
for _ in range(10):
    b = a.reshape(-1, 100)
    np.cumsum(b, axis=0, out=b)
    a[:] = 1
s = 0
for i in range(200_000):
    s += i * i % 7
"""
REFERENCE_NOMINAL_S = 0.28
REFERENCE_EVERY = 4


class Reference:
    """Wall times of the reference kernel, sampled through the run."""

    def __init__(self, env: dict[str, str]) -> None:
        self.env = env
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", REFERENCE_KERNEL], env=self.env, check=True, cwd=WORK)
        self.samples.append(time.perf_counter() - start)

    def slowdown(self) -> float:
        """Median kernel time over its nominal time: above 1 on a slow stretch."""
        return statistics.median(self.samples) / REFERENCE_NOMINAL_S


@dataclass
class Result:
    op: Op
    wall: float
    exit_code: int
    maxrss_kb: int
    stdout: str


def program_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("IEPOLY_")}
    env["PYTHONPATH"] = str(SRC)
    return env


class SubprocessRunner:
    """Each invocation in a fresh interpreter; wall time and peak RSS from wait4.

    A reference kernel sample precedes every REFERENCE_EVERY-th invocation.
    """

    def __init__(self, deadline: float, reference: Reference) -> None:
        self.env = program_env()
        self.deadline = deadline
        self.reference = reference
        self.calls = 0

    def __call__(self, op: Op) -> Result:
        if self.calls % REFERENCE_EVERY == 0:
            self.reference.sample()
        self.calls += 1
        out_path, err_path = WORK / "stdout.txt", WORK / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "iepoly.cli", *op.argv], stdout=out, stderr=err,
                                    env=self.env, cwd=WORK)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Result(op, wall, proc.returncode, usage.ru_maxrss, out_path.read_text())


class InProcessRunner:
    """Each invocation through ``iepoly.cli.main`` in this interpreter."""

    def __init__(self, tracer: Any = None) -> None:
        import iepoly.cli  # noqa: F401  (imported here so --trace 0 never loads it)
        self.cli = sys.modules["iepoly.cli"]
        self.tracer = tracer

    def __call__(self, op: Op) -> Result:
        if self.tracer is not None:
            self.tracer.op += 1
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(WORK)
        try:
            start = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = self.cli.main(op.argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
            wall = time.perf_counter() - start
        finally:
            os.chdir(cwd)
        return Result(op, wall, code, 0, out.getvalue())


# --------------------------------- checks ----------------------------------

class Checker:
    """Checks results; keeps what later checks of the same round rely on."""

    def __init__(self, rng: Any) -> None:
        self.rng = rng
        self.points: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        self.verified: dict[tuple[int, ...], dict[str, Any]] = {}
        self.samples: dict[str, dict[tuple[int, ...], int]] = {}

    def file(self, qs: tuple[int, ...], payload: dict[str, Any], path: Path) -> list[str]:
        if qs not in self.points:
            self.points[qs] = checks.eval_points(qs, self.rng)
        if not path.exists():
            return ["coefficient file missing"]
        coeffs = checks.load_coeffs(str(path))
        reasons = checks.check_coeff_file(qs, coeffs, payload, self.points[qs])
        if reasons:
            self.verified.pop(qs, None)
        else:
            self.verified[qs] = checks.file_stats(coeffs)
        return reasons

    def check(self, res: Result) -> tuple[list[str], int, int]:
        """(reasons, coefficients of passed polynomials, tuples handled)."""
        op, p = res.op, res.op.params
        try:
            payload = json.loads(res.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            return [f"exit code {res.exit_code}, no JSON on stdout"], 0, 0
        kind = op.kind
        if kind != "verify" and res.exit_code != 0:
            return [f"exit code {res.exit_code}"], 0, 0
        if kind == "file":
            reasons = self.file(p["qs"], payload, WORK / op.out)
            return reasons, checks.degree(p["qs"]) + 1, 1
        if kind == "height":
            reasons = checks.check_height_only(p["qs"], payload, self.verified.get(p["qs"]))
            return reasons, checks.degree(p["qs"]) + 1, 1
        if kind == "construct":
            member = tuple(checks.family(p["N"], p["k"])[1])
            reasons = checks.check_construct(p["N"], p["k"], payload, p["expand"], self.verified.get(member))
            return reasons, (checks.degree(member) + 1 if p["expand"] else 0), 1
        if kind == "verify":
            return checks.check_verify(p["qs"], p["r"], payload, res.exit_code), 0, 1
        if kind == "constant":
            return checks.check_constant(p["terms"], payload), 0, 0
        if kind == "search":
            reasons = checks.check_search(p["k"], p["m_cap"], p["expand_cap"], payload,
                                          self.samples.get(op.label, {}))
            rows = payload.get("results") or []
            return reasons, sum(int(r["degree"]) + 1 for r in rows), len(rows)
        if kind == "oracle":
            reasons = checks.check_oracle(p["m_cap"], p["k_max"], payload, res.exit_code)
            tuples = [t for k in range(1, p["k_max"] + 1) for t in checks.enumerate_tuples(k, p["m_cap"])]
            return reasons, sum(checks.degree(t) + 1 for t in tuples), len(tuples)
        raise ValueError(f"unknown op kind {kind}")


# --------------------------------- running ---------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    coeffs: int = 0
    tuples: int = 0


def run_round(ops: list[Op], runner: Callable[[Op], Result], checker: Checker,
              tally: Tally) -> list[Result]:
    """Run every op of a round, then check them: coefficient files first."""
    results = [runner(op) for op in ops]
    for res in sorted(results, key=lambda r: r.op.kind != "file"):
        reasons, coeffs, tuples = checker.check(res)
        tally.attempted += 1
        if reasons:
            expected = res.op.known_fault and checks.is_wrap_fault(reasons)
            tally.failed += 1
            tally.unexpected += not expected
            tag = "known fault" if expected else "FAILED"
            print(f"{tag}: {res.op.label}: {'; '.join(reasons)}", file=sys.stderr)
            continue
        tally.coeffs += coeffs
        tally.tuples += tuples
    return results


def prepare_samples(ops: list[Op], runner: Callable[[Op], Result], checker: Checker, rng: Any,
                    tally: Tally) -> None:
    """Verified heights of seeded search rows, from coefficient files made before timing."""
    for op in ops:
        if op.kind != "search":
            continue
        heights = {}
        for qs in workloads.search_samples(op, rng):
            file_op = workloads.compute_file(qs)
            reasons, _, _ = checker.check(runner(file_op))
            if reasons:
                print(f"FAILED: sample {file_op.label}: {'; '.join(reasons)}", file=sys.stderr)
                tally.unexpected += 1
            else:
                heights[qs] = checker.verified[qs]["height"]
        checker.samples[op.label] = heights


def measure_setup(env: dict[str, str], reference: Reference) -> float:
    """Median wall time of a fresh interpreter importing iepoly.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        reference.sample()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import iepoly.cli"], env=env, check=True, cwd=WORK)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_imports(env: dict[str, str]) -> dict[str, float]:
    """Median import times of ``import iepoly.cli`` as a whole, numpy and mpmath (-X importtime).

    The whole is the sum of the cumulative times of the top-level ``iepoly``
    lines: on Python 3.11 the package ``iepoly`` (its ``__init__``, which
    loads every module, numpy and mpmath) nests under the ``iepoly.cli``
    line, on other versions it may stand beside it.  Interpreter start-up
    (``site`` and the codecs) is not included.
    """
    found: dict[str, list[float]] = {"iepoly": [], "numpy": [], "mpmath": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import iepoly.cli"], env=env,
                              check=True, cwd=WORK, capture_output=True, text=True)
        total, seen = 0, set()
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name, cumulative = parts[2].strip(), int(parts[1])
            top_level = len(parts[2]) - len(parts[2].lstrip()) == 1
            if top_level and (name == "iepoly" or name.startswith("iepoly.")):
                total += cumulative
            if name in ("numpy", "mpmath") and name not in seen:
                seen.add(name)
                found[name].append(cumulative / 1e6)
        found["iepoly"].append(total / 1e6)
    return {name: statistics.median(v) if v else 0.0 for name, v in found.items()}


def run_untraced(ops: list[Op], rng: Any, seconds: int, start: float) -> tuple[Tally, dict[str, tuple[float, str]]]:
    env = program_env()
    reference = Reference(env)
    setup = measure_setup(env, reference)
    runner = SubprocessRunner(start + HARD_LIMIT_S, reference)
    checker = Checker(rng)
    tally = Tally()
    prepare_samples(ops, runner, checker, rng, tally)
    rounds: list[list[Result]] = []
    timed = 0.0
    while not rounds or (timed < seconds and time.monotonic() - start < SOFT_LIMIT_S):
        rounds.append(run_round(ops, runner, checker, tally))
        timed += sum(r.wall for r in rounds[-1])
    # Each invocation's wall time is the median over rounds, so one stalled
    # invocation does not move the run's figures.
    walls = [statistics.median(rnd[i].wall for rnd in rounds) for i in range(len(ops))]
    with_tuples = sum(w for w, op in zip(walls, ops) if op.handles_tuples)
    slow = reference.slowdown()
    print(f"reference kernel: median {statistics.median(reference.samples):.4f} s over "
          f"{len(reference.samples)} samples, nominal {REFERENCE_NOMINAL_S} s; times divided by {slow:.4f}")
    metrics = {
        "setup_s": (setup / slow, "s"),
        "ops_per_s": (len(ops) / sum(walls) * slow, "ops/s"),
        "op_p50_s": (statistics.median(walls) / slow, "s"),
        "peak_rss_mb": (max(r.maxrss_kb for rnd in rounds for r in rnd) / 1024, "MB"),
        "coeffs_per_s": (tally.coeffs / len(rounds) / sum(walls) * slow, "coefficients/s"),
        "tuples_per_s": (tally.tuples / len(rounds) / with_tuples * slow, "tuples/s"),
    }
    return tally, metrics


def run_traced(ops: list[Op], rng: Any, seconds: int, start: float,
               label: str) -> tuple[Tally, dict[str, tuple[float, str]]]:
    from spans import Tracer, layer_metrics

    env = program_env()
    imports = measure_imports(env)
    sys.path.insert(0, str(SRC))
    checker = Checker(rng)
    tally = Tally()
    plain = InProcessRunner()
    prepare_samples(ops, plain, checker, rng, tally)
    tracer = Tracer()
    traced_runner = InProcessRunner(tracer)
    # Untraced and traced rounds alternate, so the overhead compares rounds
    # run under the same conditions.
    untraced: list[float] = []
    traced: list[float] = []
    while not traced or (sum(traced) < seconds and time.monotonic() - start < SOFT_LIMIT_S):
        untraced.append(sum(r.wall for r in run_round(ops, plain, checker, tally)))
        tracer.install()
        try:
            traced.append(sum(r.wall for r in run_round(ops, traced_runner, checker, tally)))
        finally:
            tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"spans-{label}.jsonl"))
    metrics = {
        "startup.import_s": (imports["iepoly"], "s"),
        "startup.numpy_import_s": (imports["numpy"], "s"),
        "startup.mpmath_import_s": (imports["mpmath"], "s"),
    }
    metrics.update(layer_metrics(tracer, len(traced)))
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return tally, metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "iepoly" / "cli.py").is_file():
        print(f"error: no iepoly sources under {SRC}", file=sys.stderr)
        return 2
    start = time.monotonic()
    # The checks print and parse exact integers of hundreds of thousands of digits.
    sys.set_int_max_str_digits(0)
    WORK.mkdir(exist_ok=True)
    ops, rng = workloads.build(args.workload, args.seed)
    try:
        if args.trace:
            tally, metrics = run_traced(ops, rng, args.seconds, start, f"{args.workload}-{args.seed}")
        else:
            tally, metrics = run_untraced(ops, rng, args.seconds, start)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:13s} {name:34s} {value:.6g} {unit}")
    print(f"{args.workload:13s} attempted {tally.attempted} failed {tally.failed}")
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
