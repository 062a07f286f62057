"""Paired benchmark runs of a parent revision and this checkout, summarized as JSON.

    python3 tools/bench_pair.py --parent HEAD~1 --seed 11 --out BENCH_NEXT.json

`--parent` is a git revision of this repository; its files are exported
(`git archive`) to a temporary directory for the duration of the run.  The
change is the checkout this file sits in, uncommitted edits included.  Each
pair runs `bench/run.py --trace 0` once on each side, one after the other,
for the `run_seconds` that BENCHMARK.json sets; the order alternates from
pair to pair, so a drift of the machine's speed falls on both sides alike.
Every workload of BENCHMARK.json gets PAIRS pairs, the number a claimed gain
is judged on.  Runs are sequential, one process at a time.

The output records, per workload and per side, each end-to-end metric that
BENCHMARK.json lists, run by run, with its median and interquartile range,
the ratio of the medians, and the number of pairs in which the change did
better; also each run's `correct`/`failed` fields and machine probes, the
seed, the pair count and the run length, and what was measured: the parent's
commit and tree, and this checkout's HEAD commit and the tree of its tracked
files as they were, with `clean` telling whether that tree is HEAD's.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_PREFIX = "machine probe (not a metric): start "
PAIRS = 10


def git(*args: str, env=None) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, check=True
    ).stdout.strip()


def working_tree() -> str:
    """The git tree hash of this checkout's tracked files as they are now,
    built in a copy of the index so that neither the index nor any ref changes."""
    with tempfile.TemporaryDirectory() as tmp:
        index = Path(tmp) / "index"
        shutil.copyfile(ROOT / git("rev-parse", "--git-path", "index"), index)
        env = {**os.environ, "GIT_INDEX_FILE": str(index)}
        git("add", "--update", env=env)
        return git("write-tree", env=env)


def export_revision(rev: str, dest: Path) -> Path:
    """Extract the files of git revision `rev` of this repository into dest."""
    archive = dest / "parent.tar"
    with archive.open("wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "parent")
    archive.unlink()
    return dest / "parent"


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run: its result line plus the machine probes it printed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith(PROBE_PREFIX):
            start, end = line[len(PROBE_PREFIX):].split(" s, end ")
            result["probe_s"] = [float(start), float(end.rstrip(" s"))]
    return result


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Per metric: each side's runs, median and IQR, the ratio of the
    medians (change / parent) and the pairs the change won."""
    out = {}
    for m in metrics:
        name = m["name"]
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in ("parent", "change")}
        entry = {}
        for side, values in sides.items():
            q1, q3 = quartiles(values)
            entry[side] = {"median": statistics.median(values), "iqr": q3 - q1, "runs": values}
        better = (lambda c, p: c > p) if m["better"] == "higher" else (lambda c, p: c < p)
        entry["ratio"] = entry["change"]["median"] / entry["parent"]["median"]
        entry["change_better_pairs"] = sum(better(c, p) for c, p in zip(sides["change"], sides["parent"]))
        entry["unit"] = m["unit"]
        entry["better"] = m["better"]
        out[name] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--seed", type=int, default=11, help="--seed of every bench run")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    tree = working_tree()
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {"parent": export_revision(args.parent, Path(tmp)), "change": ROOT}
        report = {
            "command": spec["command"],
            "seed": args.seed,
            "pairs": PAIRS,
            "run_seconds": seconds,
            "parent": {
                "revision": args.parent,
                "commit": git("rev-parse", "--verify", f"{args.parent}^{{commit}}"),
                "tree": git("rev-parse", "--verify", f"{args.parent}^{{tree}}"),
            },
            "change": {
                "commit": git("rev-parse", "--verify", "HEAD"),
                "tree": tree,
                "clean": tree == git("rev-parse", "--verify", "HEAD^{tree}"),
            },
            "workloads": {},
        }
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"parent": [], "change": []}
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_bench(checkouts[side], workload, args.seed, seconds)
                    runs[side].append(result)
                    value = result["metrics"]["verdicts_per_s"]["value"]
                    print(f"{workload} pair {i} {side}: {value:.4g} verdicts/s", file=sys.stderr)
            report["workloads"][workload] = {
                "metrics": summarize(runs, spec["end_to_end"]),
                "runs": {
                    side: [
                        {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
                         "probe_s": r.get("probe_s")}
                        for r in side_runs
                    ]
                    for side, side_runs in runs.items()
                },
            }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
