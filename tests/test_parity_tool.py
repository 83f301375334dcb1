"""``tools/parity.py`` runs and prints its line format, so it cannot rot."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"(\d+x\d+:[a-z]+) (\S+) (\S+) (-|[0-9a-f]{64})")


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
        assert (row[4] == "-") == ("@" not in row[2])  # a placement's hash iff one was read
    quantities = {re.sub(r"[\[(@].*", "", row[2]) for row in rows}
    assert quantities == {"g", "g_ccs", "p2", "expected_rate:mccs", "expected_rate:ccs",
                          "conditional_rate_distinct", "set_probability", "message_weight"}


def test_refuses_a_tree_without_the_package(tmp_path):
    run = parity("--src", str(tmp_path))
    assert run.returncode != 0
