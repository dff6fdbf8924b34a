"""Alternating parent/change pairs of the benchmark, summarized as one JSON file.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD --seeds 1511-1520 --seconds 30 \\
        --out BENCH_15.json

``--workloads`` runs a subset, e.g. ``--workloads patchy_roads`` for one
claim; the default is all three.

Each side runs from its own copy of the tree in a temporary directory: the
parent is ``git archive <rev>``; the change is the working tree's tracked and
untracked, not ignored, files. For each selected workload, pair i runs ``perfbench/run.py
--trace 0`` on seed i of ``--seeds`` once per side, the parent first in
even-numbered pairs and the change first in odd ones. One benchmark process
runs at a time. With ``--traced-seconds``, each side then makes one traced
run per workload on the first seed.

The output holds, per workload and end-to-end metric, the median and the
quartiles (inclusive method) of each side, the pairs the change won (ties
count for neither side), the relative change of the median in the metric's
worse direction, and whether the medians differ by more than the distance
between the parent's quartiles; every run's values; and the fingerprints.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_matrix", "fine_grid", "patchy_roads")
SIDES = ("parent", "change")


def parse_seeds(text):
    """``"3-5"`` -> [3, 4, 5]; ``"1,7,9"`` -> [1, 7, 9]."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds += range(int(lo), int(hi) + 1) if sep else [int(lo)]
    return seeds


def first_side(pair):
    """The side that runs first in a pair: the parent in even-numbered pairs."""
    return SIDES[pair % 2]


def quartiles(values):
    """(q1, median, q3) by ``statistics.quantiles``' inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent, change, better, bound=None):
    """Statistics of one metric over paired runs: ``parent[i]`` and
    ``change[i]`` ran in the same pair; ``better`` is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("parent and change need the same, non-zero number of runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    out = {
        "better": better,
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "change_better_in_pairs": f"{wins}/{len(parent)}",
        "change_worse_by": sign * (c_med - p_med) / p_med if p_med else None,
        "median_gap_exceeds_parent_iqr": abs(c_med - p_med) > p_q3 - p_q1,
    }
    if bound is not None:
        out["bound"] = bound
    return out


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def archive_tree(rev, dest):
    """Copy of the tree at git revision ``rev``."""
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as tar:
        tar.extractall(dest, filter="data")


def working_tree(dest):
    """Copy of the working tree's tracked and untracked, not ignored, files."""
    dest.mkdir(parents=True)
    for name in _git("ls-files", "-co", "--exclude-standard", "-z").decode().split("\0"):
        if name and (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_bench(tree, workload, seed, seconds, trace):
    """One ``perfbench/run.py`` process; returns (info line, result line) as dicts."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True)
    info, result = out.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--seeds", required=True, help="one seed per pair, e.g. 1501-1510")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--traced-seconds", type=float, default=0.0)
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS),
                   help="workloads to run, in the order given (default: all)")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--description", default="", help="what the change does")
    args = p.parse_args(argv)
    args.seeds = parse_seeds(args.seeds)
    args.workloads = list(dict.fromkeys(args.workloads))
    return args


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent_commit = _git("rev-parse", args.parent).decode().strip()
    runs = {w: {side: [] for side in SIDES} for w in args.workloads}
    traced = {w: {} for w in args.workloads}
    environment = None
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        archive_tree(args.parent, trees["parent"])
        working_tree(trees["change"])
        for workload in args.workloads:
            for pair, seed in enumerate(args.seeds):
                order = SIDES if first_side(pair) == "parent" else SIDES[::-1]
                for side in order:
                    info, result = run_bench(trees[side], workload, seed, args.seconds, 0)
                    environment = environment or info["environment"]
                    runs[workload][side].append({
                        "seed": seed, "fingerprint": info["fingerprint"],
                        "correct": result["correct"], "attempted": result["attempted"],
                        "failed": result["failed"], "samples": info["samples"],
                        **{m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}})
                    print(f"{workload} pair {pair} {side}: wall_s "
                          f"{runs[workload][side][-1]['wall_s']:.4f}", file=sys.stderr)
            if args.traced_seconds > 0:
                for side in SIDES:
                    info, result = run_bench(trees[side], workload, args.seeds[0],
                                             args.traced_seconds, 1)
                    traced[workload][side] = {
                        "fingerprint": info["fingerprint"], "correct": result["correct"],
                        "samples": info["samples"],
                        **{k: v["value"] for k, v in result["metrics"].items()}}

    report = {
        "change": args.description,
        "parent_commit": parent_commit,
        "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {args.seconds:g} --trace 0",
        "method": f"{len(args.seeds)} alternating pairs per workload (parent first in "
                  "even-numbered pairs, change first in odd ones), seeds "
                  f"{args.seeds[0]}-{args.seeds[-1]}, one process at a time, each side from "
                  "its own copy of the tree; medians and quartiles (inclusive method) over "
                  "each side's runs. change_worse_by is the relative change of the median in "
                  "the metric's worse direction (negative = better).",
        "machine": environment,
        "fingerprints": {},
        "end_to_end": {},
        "runs": runs,
        "traced": traced,
    }
    for workload, sides in runs.items():
        prints = {side: [r["fingerprint"] for r in sides[side]] for side in SIDES}
        report["fingerprints"][workload] = {
            **{side: sorted(set(prints[side])) for side in SIDES},
            **{f"{side}_by_seed": [f[:16] for f in prints[side]] for side in SIDES},
            "equal_per_seed": prints["parent"] == prints["change"],
        }
        report["end_to_end"][workload] = {
            m["name"]: {"unit": m["unit"], **summarize(
                [r[m["name"]] for r in sides["parent"]],
                [r[m["name"]] for r in sides["change"]], m["better"], m["bound"])}
            for m in metrics}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
