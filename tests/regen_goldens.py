#!/usr/bin/env python3
"""Regenerate tests/golden/<name>.out from the current CLI.

Run from the repository root after any intentional output change:

    python tests/regen_goldens.py              # every case
    python tests/regen_goldens.py NAME [...]   # only the named cases

Only the named cases are written, so adding one golden cannot rewrite the
others.  An unknown name writes nothing and exits 2.
"""

import pathlib
import subprocess
import sys

from golden_cases import GOLDEN_CASES, SRC_ENV

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - {name for name, _, _ in GOLDEN_CASES})
    if unknown:
        print(f"unknown golden case: {', '.join(unknown)}", file=sys.stderr)
        return 2
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv, expected_exit in GOLDEN_CASES:
        if names and name not in names:
            continue
        proc = subprocess.run(
            [sys.executable, "-m", "iepoly.cli", *argv],
            capture_output=True,
            env=SRC_ENV,
        )
        if proc.returncode != expected_exit:
            print(f"{name}: exit {proc.returncode}, expected {expected_exit}", file=sys.stderr)
            print(proc.stderr.decode(), file=sys.stderr)
            return 1
        (GOLDEN_DIR / f"{name}.out").write_bytes(proc.stdout)
        print(f"wrote {name}.out ({len(proc.stdout)} bytes, exit {proc.returncode})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
