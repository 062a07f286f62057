"""Golden report corpus: every subcommand's report, byte for byte.

Each run calls `cli.main(argv)` in-process and compares its exit code with
the one in RUNS and its stdout with `tests/golden/<name>.txt`, byte for
byte.  The corpus covers every subcommand at its default config, with a
skewed Gram (`--gram 2,1,3`) and over sqrt(3) (`--d 3`), plus a few runs
that reach other report shapes (exact metric checks, CSV tables, a refused
local-isometry request, a fine circle tolerance).

The files are rewritten only by hand, after a deliberate change of report
bytes, with

    PYTHONPATH=src python tests/test_golden.py

which reruns every entry of RUNS, overwrites its golden file and prints
the runs whose exit code no longer matches RUNS (edit those by hand).
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from torusglue.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# default arguments per subcommand, reduced where the full default is slow
BASE = {
    "verify-metric": [],
    "counterexample": ["--R", "1/2", "--M", "2", "--allow-invalid-metric"],
    "nearest": ["--instances", "5"],
    "isometry-check": [],
    "lift": [],
    "density": [],
    "non-closure": [],
    "local-isometry": ["--count", "10"],
    "x1-group": [],
}
EXIT = {"counterexample": 1}
VARIANTS = {"default": [], "gram": ["--gram", "2,1,3"], "d3": ["--d", "3"]}

# (file stem, argv, expected exit code)
RUNS = [
    (f"{command}.{variant}", [command, *args, *extra], EXIT.get(command, 0))
    for command, args in BASE.items()
    for variant, extra in VARIANTS.items()
] + [
    ("verify-metric.exact", ["verify-metric", "--mode", "exact", "--samples", "300"], 0),
    ("density.csv", ["density", "--format", "csv", "--targets", "0,1/2;1/3,1/5"], 0),
    ("non-closure.csv", ["non-closure", "--format", "csv"], 0),
    ("local-isometry.refused", ["local-isometry", "--t", "1/2", "--s", "0"], 1),
    ("x1-group.fine", ["x1-group", "--count", "5", "--eps", "1e-12"], 0),
] + [
    # float mode, whose distances all come from the numpy batch kernel
    (f"{command}.float{suffix}", [command, *BASE[command], "--mode", "float", *extra], EXIT.get(command, 0))
    for command in ("nearest", "isometry-check", "lift", "local-isometry", "counterexample")
    for suffix, extra in (("", []), ("-gram", ["--gram", "2,1,3"]))
] + [
    # a Gram whose reduction has an entry above 1 (37)
    (f"{command}.float-reduced", [command, *BASE[command], "--mode", "float", *extra, "--gram", "1,37,1370"], code)
    for command, extra, code in (
        ("nearest", [], 0),
        ("lift", [], 0),
        ("verify-metric", ["--R", "2/5", "--M", "1", "--allow-invalid-metric"], 1),
    )
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("stem,argv,code", RUNS, ids=[r[0] for r in RUNS])
def test_golden_report(stem, argv, code, monkeypatch):
    monkeypatch.delenv("TORUSGLUE_SEED", raising=False)
    got_code, out, err = run(argv)
    assert (got_code, err) == (code, "")
    expected = (GOLDEN / f"{stem}.txt").read_bytes()
    assert out.encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, argv, code in RUNS:
        got_code, out, err = run(argv)
        (GOLDEN / f"{stem}.txt").write_bytes(out.encode("utf-8"))
        if got_code != code or err:
            print(f"{stem}: exit {got_code} (RUNS says {code}) {err.strip()}", file=sys.stderr)
