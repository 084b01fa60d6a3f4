"""Shared manifest of CLI invocations pinned by golden files.

Each entry is (name, argv, expected_exit).  ``regen_goldens.py`` rewrites
tests/golden/<name>.out from the current CLI; the acceptance suite replays
every case twice and compares bytes against the stored file.  Both run
the cases in SRC_ENV, so the package comes from this checkout's src/,
whatever PYTHONPATH the caller set or copy of iepoly is installed.
"""

import os
import pathlib

SRC_ENV = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parent.parent / "src"))

# 12,000 bits, 3,613 digits: past errors.STR_BITS, so its lemma bound is
# converted by halves, and within the 4,300-digit limit of str().
BIG_R = (1 << 11999) + 12345

GOLDEN_CASES = [
    ("compute_height_only", ["compute", "--q", "3,5,7", "--height-only"], 0),
    ("compute_q2", ["compute", "--q", "2"], 0),
    ("compute_pair", ["compute", "--q", "2,3"], 0),
    ("compute_coeff7", ["compute", "--q", "3,5,7", "--coeff", "7", "--height-only"], 0),
    ("compute_not_coprime", ["compute", "--q", "3,6"], 2),
    ("compute_cap", ["compute", "--q", "2,1000003", "--memory-cap", "1000"], 3),
    ("construct_n1_k2", ["construct", "--N", "1", "--k", "2"], 0),
    ("construct_expand", ["construct", "--N", "1", "--k", "3", "--expand"], 0),
    ("construct_invalid", ["construct", "--N", "0", "--k", "2"], 2),
    ("construct_k12", ["construct", "--N", "1", "--k", "12"], 0),
    ("construct_k25", ["construct", "--N", "1", "--k", "25"], 0),
    ("construct_k25_expand", ["construct", "--N", "1", "--k", "25", "--expand"], 3),
    ("constant_30", ["constant", "--terms", "30"], 0),
    ("constant_1", ["constant", "--terms", "1"], 0),
    ("constant_invalid", ["constant", "--terms", "0"], 2),
    ("verify_mixed_branches", ["verify", "--q", "49,51,149", "--r", "25"], 0),
    ("verify_fail", ["verify", "--q", "7", "--r", "2"], 1),
    ("verify_expand", ["verify", "--q", "13,37,61", "--r", "6", "--expand"], 0),
    ("verify_minus_expand", ["verify", "--q", "11,35,59,83", "--r", "6", "--expand"], 0),
    ("verify_big_r", ["verify", "--q", str(2 * BIG_R + 1), "--r", str(BIG_R)], 0),
    ("search_k3_m105", ["search", "--k", "3", "--m-cap", "105"], 0),
    ("search_k2_m100", ["search", "--k", "2", "--m-cap", "100"], 0),
    ("search_k1_m100", ["search", "--k", "1", "--m-cap", "100"], 0),
    ("search_k4_m2000", ["search", "--k", "4", "--m-cap", "2000"], 0),
    ("search_empty", ["search", "--k", "2", "--m-cap", "5"], 0),
    ("oracle_check_200", ["oracle-check", "--m-cap", "200"], 0),
    ("oracle_check_kmax20", ["oracle-check", "--m-cap", "30", "--k-max", "20"], 0),
    ("oracle_check_kmax21", ["oracle-check", "--m-cap", "30", "--k-max", "21"], 3),
]
