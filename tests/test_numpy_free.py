"""Exact commands run without numpy.

numpy is loaded only by float work: float mode's batch kernel and checks,
and the `nearest` grid oracles.  Each test runs a fresh interpreter with
`sys.modules["numpy"] = None`, which makes any `import numpy` raise, and
checks that every exact-mode run of the golden corpus still gives its
golden bytes, that a float run fails at the numpy import and nowhere else,
and that importing the package loads no numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import torusglue
from torusglue.cli import COMMANDS, KEYS

from test_golden import GOLDEN, RUNS

SRC = Path(torusglue.__file__).resolve().parent.parent

BLOCK = 'import sys; sys.modules["numpy"] = None\n'

# runs the golden entries given as JSON in argv[1]; prints {stem: [exit, stdout]}
RUN_GOLDEN = BLOCK + """
import io, json
from contextlib import redirect_stdout
from torusglue.cli import main

out = {}
for stem, argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    out[stem] = [code, buf.getvalue()]
print(json.dumps(out))
"""


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("TORUSGLUE_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=600
    )


def _mode(argv) -> str:
    if "--mode" in argv:
        return argv[argv.index("--mode") + 1]
    return COMMANDS[argv[0]][1].get("mode", KEYS["mode"][0])


# nearest checks against float grid oracles in every mode
EXACT_RUNS = [r for r in RUNS if _mode(r[1]) == "exact" and r[1][0] != "nearest"]


def test_exact_golden_runs_without_numpy():
    assert {argv[0] for _, argv, _ in EXACT_RUNS} == set(COMMANDS) - {"nearest"}
    proc = _python(RUN_GOLDEN, json.dumps([(stem, argv) for stem, argv, _ in EXACT_RUNS]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    got = json.loads(proc.stdout)
    for stem, _, code in EXACT_RUNS:
        assert got[stem][0] == code, stem
        assert got[stem][1].encode("utf-8") == (GOLDEN / f"{stem}.txt").read_bytes(), stem


def test_float_run_fails_only_at_the_numpy_import():
    code = BLOCK + "from torusglue.cli import main\nmain(['verify-metric', '--samples', '10'])\n"
    proc = _python(code)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert lines[-1] == "ModuleNotFoundError: import of numpy halted; None in sys.modules"
    # the innermost frame is a function-level numpy import in the package
    last = max(i for i, line in enumerate(lines) if line.lstrip().startswith("File "))
    assert "torusglue" in lines[last]
    assert lines[last + 1].strip() == "import numpy as np"


def test_importing_the_package_loads_no_numpy():
    proc = _python("import sys, torusglue, torusglue.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
