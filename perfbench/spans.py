"""Spans around the public functions of iepoly's modules, recorded from outside.

``Tracer.install`` replaces each listed function wherever an iepoly module
looks it up (``core.expand`` and the ``expand`` that ``analysis`` imported
by name), so calls between modules are seen at their boundaries.  Spans
(name, start, end, parent, operation id) stay in memory until ``write``.
Nothing under ``src/`` changes; names that a later refactor removes are
simply not traced.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable

import checks

TARGETS = {
    "cli": ["main", "emit", "cmd_compute", "cmd_construct", "cmd_constant", "cmd_verify",
            "cmd_search", "cmd_oracle_check"],
    "core": ["validate_tuple", "degree_of", "factor_system", "expand", "height", "is_palindromic",
             "eval_at_one"],
    "analysis": ["coprime_tuples", "normalizer", "normalized_ratio", "height_report",
                 "search_max_ratio", "predicted_ratio", "limit_constant"],
    "construction": ["congruence_family", "check_congruence", "height_lower_bound"],
    "oracle": ["oracle_expand"],
}


def expand_work(qs: tuple[int, ...]) -> tuple[int, int]:
    """(factors applied, coefficient updates) of the dense sweep over the full window.

    A factor (1 - x^d) touches window - d coefficients and is skipped when
    d >= window; computed from the tuple, not timed.
    """
    window = checks.degree(qs) + 1
    applied = [d for d, _ in checks.signed_divisors(qs) if d < window]
    return len(applied), sum(window - d for d in applied)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = 0
        self.items: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[Any, str, Any]] = []
        self._work_cache: dict[tuple[int, ...], tuple[int, int]] = {}

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _count_expand(self, rho: Any) -> None:
        qs = tuple(rho.qs)
        if qs not in self._work_cache:
            self._work_cache[qs] = expand_work(qs)
        applied, updates = self._work_cache[qs]
        self.work["factors_applied"] += applied
        self.work["coeff_updates"] += updates

    def wrap(self, name: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.items[name] += 1
                    yield item
            return gen_wrapper

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if name == "core.expand" and args:
                self._count_expand(args[0])
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "iepoly" or n.startswith("iepoly.")]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"iepoly.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if not callable(original):
                    continue
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Inclusive seconds by span name, self seconds by span name, and span counts."""
        inclusive: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            inclusive[name] += end - start
            calls[name] += 1
            if parent >= 0:
                children[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - children[idx]
        return inclusive, self_time, calls


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-round per-layer metrics from the recorded spans and computed counts."""
    inclusive, self_time, calls = tracer.totals()
    per = 1.0 / rounds

    def self_of(layer: str) -> float:
        return sum(v for k, v in self_time.items() if k.startswith(layer + "."))

    expand_self = self_time.get("core.expand", 0.0) * per
    updates = tracer.work["coeff_updates"] * per
    out = {
        "cli.self_s": (self_of("cli") * per, "s"),
        "cli.emit_s": (inclusive.get("cli.emit", 0.0) * per, "s"),
        "core.self_s": (self_of("core") * per, "s"),
        "core.validate_tuple_s": (inclusive.get("core.validate_tuple", 0.0) * per, "s"),
        "core.factor_system_s": (inclusive.get("core.factor_system", 0.0) * per, "s"),
        "core.expand_self_s": (expand_self, "s"),
        "core.expand_calls": (calls.get("core.expand", 0) * per, "count"),
        "core.coeff_updates": (updates, "count"),
        "core.factors_applied": (tracer.work["factors_applied"] * per, "count"),
        "core.ns_per_coeff_update": (expand_self / updates * 1e9 if updates else 0.0, "ns"),
        "core.height_s": (inclusive.get("core.height", 0.0) * per, "s"),
        "core.is_palindromic_s": (inclusive.get("core.is_palindromic", 0.0) * per, "s"),
        "core.eval_at_one_s": (inclusive.get("core.eval_at_one", 0.0) * per, "s"),
        "analysis.self_s": (self_of("analysis") * per, "s"),
        "analysis.coprime_tuples_s": (inclusive.get("analysis.coprime_tuples", 0.0) * per, "s"),
        "analysis.tuples_enumerated": (tracer.items["analysis.coprime_tuples"] * per, "count"),
        "analysis.normalizer_s": (inclusive.get("analysis.normalizer", 0.0) * per, "s"),
        "analysis.normalized_ratio_s": (inclusive.get("analysis.normalized_ratio", 0.0) * per, "s"),
        "analysis.normalized_ratio_calls": (calls.get("analysis.normalized_ratio", 0) * per, "count"),
        "analysis.search_self_s": (self_time.get("analysis.search_max_ratio", 0.0) * per, "s"),
        "analysis.predicted_ratio_s": (inclusive.get("analysis.predicted_ratio", 0.0) * per, "s"),
        "analysis.limit_constant_s": (inclusive.get("analysis.limit_constant", 0.0) * per, "s"),
        "construction.self_s": (self_of("construction") * per, "s"),
        "construction.congruence_family_s": (inclusive.get("construction.congruence_family", 0.0) * per, "s"),
        "construction.check_congruence_s": (inclusive.get("construction.check_congruence", 0.0) * per, "s"),
        "construction.height_lower_bound_s": (inclusive.get("construction.height_lower_bound", 0.0) * per, "s"),
        "oracle.self_s": (self_of("oracle") * per, "s"),
        "oracle.oracle_expand_s": (inclusive.get("oracle.oracle_expand", 0.0) * per, "s"),
        "oracle.calls": (calls.get("oracle.oracle_expand", 0) * per, "count"),
    }
    return out
