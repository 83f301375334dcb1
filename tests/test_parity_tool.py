"""``tools/parity.py`` runs and prints its line format, so it cannot rot."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"(\d+x\d+:[a-z]+) (\S+) (\S+) (-|[0-9a-f]{64})(?: (\d+))?")
LPS = {"lower_bound_p1", "lower_bound_p2", "solve_p3_lp", "solve_p3_lp:ccs", "solve_p4_lp",
       "lower_bound_p5"}
SOLVED = LPS | {"optimize_mccs", "optimize_ccs"}


def parity(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "tools" / "parity.py"), *args],
                          capture_output=True, text=True, timeout=60)


def test_whole_grid_line_format():
    run = parity("--src", str(ROOT / "src"))
    assert run.returncode == 0, run.stderr
    rows = [LINE.fullmatch(line) for line in run.stdout.splitlines()]
    assert rows and all(rows), [line for line, row in zip(run.stdout.splitlines(), rows) if not row]
    labels = list(dict.fromkeys(row[1] for row in rows))
    assert labels[:3] == ["2x2:zipf", "3x2:tied", "4x3:zeros"] and len(labels) == 19
    for row in rows:
        float(row[3])  # the value's repr reads back
        # a placement's hash iff one was read or solved for; pivots iff an LP solved
        assert (row[4] == "-") == ("@" not in row[2] and row[2] not in SOLVED)
        assert (row[5] is None) == (row[2] not in LPS)
    quantities = {re.sub(r"[\[(@].*", "", row[2]) for row in rows}
    assert quantities == {"g", "g_ccs", "p2", "expected_rate:mccs", "expected_rate:ccs",
                          "conditional_rate_distinct", "set_probability", "message_weight"} | SOLVED
    solved = [row[1] for row in rows if row[2] == "optimize_mccs"]  # the points of at most 300 keys
    assert solved == ["2x2:zipf", "3x2:tied", "4x3:zeros", "1x3:uniform", "3x5:random", "5x1:tied",
                      "5x4:uniform", "6x3:zeros", "6x5:tied", "7x4:zipf", "10x2:random"]
    for label in solved:  # every program and both searches, once each
        assert sorted(row[2] for row in rows if row[1] == label and row[2] in SOLVED) == sorted(SOLVED)


def test_refuses_a_tree_without_the_package(tmp_path):
    run = parity("--src", str(tmp_path))
    assert run.returncode != 0
