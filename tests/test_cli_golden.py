"""Byte-pinned stdout of the README command-line examples.

Each expected file holds the exact output of one command; a refactor that
keeps the numbers keeps these bytes.  The README sweep is cut to four grid
points so the suite stays fast; ``sweep_sized`` pins the default ``p4,lb_p5``
columns of a sweep with nonuniform file sizes.
"""

from pathlib import Path

import pytest

from cacheopt.cli import main

GOLDEN = Path(__file__).parent / "cli_golden"

ZIPF_7_4 = ("--files", "7", "--users", "4", "--zipf", "0.56")

COMMANDS = {
    "optimize_json": ("optimize", *ZIPF_7_4, "--cache", "1"),
    "optimize_table": ("optimize", "--files", "9", "--users", "4", "--cache", "4",
                       "--zipf", "1.2", "--format", "table"),
    "optimize_lp": ("optimize", "--instance", str(GOLDEN / "instance.json"), "--method", "lp"),
    "bound_p1": ("bound", *ZIPF_7_4, "--cache", "2", "--which", "p1"),
    "sweep": ("sweep", *ZIPF_7_4, "--cache", "0", "--variable", "cache",
              "--start", "0", "--stop", "3", "--step", "1"),
    "sweep_sized": ("sweep", "--files", "6", "--users", "4", "--zipf", "0.56", "--cache", "0",
                    "--sizes", "[1.5,1.2,1,0.8,2,0.6]", "--variable", "cache",
                    "--start", "0.5", "--stop", "4.5", "--step", "1"),
    "rate": ("rate", *ZIPF_7_4, "--cache", "1", "--placement", str(GOLDEN / "placement.json"),
             "--demand", "1,1,2,3"),
    "selftest": ("selftest",),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_bytes(name, capsys):
    code = main(list(COMMANDS[name]))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()
