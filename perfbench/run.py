"""frictionfusion benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root; the package is imported from ``src/``:

    python3 perfbench/run.py --workload paper_matrix --seed 1 --seconds 30 --trace 0

Each workload is a closed loop: one thread runs the workload's run list pass
after pass, each run starting when the previous one returns, until
``--seconds`` have passed. With ``--trace 0`` the runs are untraced and the
end-to-end metrics are reported (host-scaled on the interpreter-bound
workloads, see ``_end_to_end``); ``--trace 1`` wraps every layer from outside
(see ``tracer.py``) and reports the per-layer metrics. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment, the
sample counts and the workload's identity fingerprint.
"""

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("paper_matrix", "fine_grid", "patchy_roads")

SETUP_PROBES = 5
# Workloads bound by the interpreter. On a shared host its speed drifts by
# tens of percent within seconds and from one minute to the next, and these
# workloads' times follow it; fine_grid, bound by BLAS, does not. Their
# timings are scaled by a fixed reference loop timed before every run.
HOST_SCALED = ("paper_matrix", "patchy_roads")
# A round value near the seconds one call of _reference() takes when the host
# runs at full speed (2-vCPU Xeon VM), so scaled timings read about as wall
# times at full speed.
REFERENCE_S = 0.55e-3
_REF_X = np.linspace(0.0, 1.0, 51)
_REF_A = np.outer(_REF_X, _REF_X) + 51.0 * np.eye(51)
# Shares of --seconds spent by a traced run on untraced passes, traced passes,
# and the thread-pool comparison (the rest).
UNTRACED_SHARE = 0.3
TRACED_SHARE = 0.8


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: import, build the inputs, finish one run, exit")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


class Bench:
    """Executes passes of one workload and keeps their timings and checks."""

    def __init__(self, workload, seed, work_dir):
        import workloads

        self.wl = workloads
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.attempted = 0
        self.failures = []  # one entry per failed run
        self.mismatches = []  # passes whose outputs differ where they must not
        self.fixed_inputs = workload != "patchy_roads"
        self._cells = workloads.build(workload, seed) if self.fixed_inputs else None

    def cells(self, pass_index):
        if self.fixed_inputs:
            return self._cells
        return self.wl.build(self.workload, self.seed, pass_index)

    def run_cell(self, cell, out_dir, label):
        """Execute and check one run; return (seconds, result), or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = cell.execute(out_dir)
        except Exception as exc:  # a failed run is counted, not fatal
            self.failures.append(f"{label} {cell.key}: {type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - t0
        reason = self.wl.check(self.workload, cell, result)
        if reason is not None:
            self.failures.append(f"{label} {cell.key}: {reason}")
        return seconds, result

    def run_pass(self, pass_index, on_run_start=None):
        """One pass: per-run seconds, replans, and the pass fingerprint."""
        times, replans, digests = [], 0, []
        with tempfile.TemporaryDirectory(prefix="pass-", dir=self.work_dir) as pass_dir:
            for i, cell in enumerate(self.cells(pass_index)):
                if on_run_start is not None:
                    on_run_start()
                done = self.run_cell(cell, Path(pass_dir) / f"{i:02d}", f"pass {pass_index}")
                if done is None:
                    continue
                seconds, result = done
                times.append(seconds)
                replans += len(result.replans)
                digests.append(self.wl.run_digest(cell, result))
        return times, replans, self.wl.fingerprint(digests)

    def passes_until(self, deadline, on_run_start=None):
        """Run passes 0, 1, ... until ``deadline``; at least one pass."""
        out = []
        while not out or time.perf_counter() < deadline:
            out.append(self.run_pass(len(out), on_run_start))
        return out

    def warm_up(self):
        with tempfile.TemporaryDirectory(dir=self.work_dir) as tmp:
            self.cells(0)[0].execute(Path(tmp))


def _median_ms(values):
    return 1e3 * statistics.median(values)


def _quantile(values, q):
    """``q``-th percentile (integer) of ``values`` by statistics.quantiles."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _setup_seconds(args):
    """Median wall time of fresh processes that import, build and run once."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    samples = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i:  # the first probe only warms the bytecode and file caches
            samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _reference():
    """Fixed work in the mix of the host-scaled workloads: Python float
    arithmetic and dict stores, small numpy array operations, a 51x51 solve."""
    acc, store = 0.0, {}
    for i in range(1000):
        acc += math.sin(i * 0.01) * 1.5
        store[i & 63] = acc
    v = _REF_X.copy()
    for i in range(30):
        v = np.clip(v * 0.5 + np.sqrt(np.abs(v)), 0.0, 2.0)
        if i % 10 == 0:
            np.linalg.solve(_REF_A, v)
    return acc + float(v.max())


def _end_to_end(bench, args, setup_s):
    """Untraced passes for ``--seconds``; medians over passes.

    For a host-scaled workload the reference is timed before every run, and
    the run's time is scaled by REFERENCE_S over that reference time.
    """
    bench.warm_up()
    scaled = args.workload in HOST_SCALED
    ref_s = []

    def time_reference():
        t0 = time.perf_counter()
        _reference()
        ref_s.append(time.perf_counter() - t0)

    deadline = time.perf_counter() + args.seconds
    passes, runs = [], []
    while not passes or time.perf_counter() < deadline:
        first = len(ref_s)
        times, replans, digest = bench.run_pass(len(passes), time_reference if scaled else None)
        passes.append((times, replans, digest))
        refs = ref_s[first:]
        if scaled and len(refs) != len(times):  # a run raised: pair by pass instead
            refs = [statistics.median(refs)] * len(times)
        runs.append([t * REFERENCE_S / r for t, r in zip(times, refs)] if scaled else times)
    walls = [sum(r) for r in runs]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "run_ms_p50": (statistics.median(_median_ms(r) for r in runs), "ms"),
        "run_ms_p90": (1e3 * _quantile([t for r in runs for t in r], 90), "ms"),
        "replans_per_s": (statistics.median(
            replans / wall for (_, replans, _), wall in zip(passes, walls)), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((bench.attempted - len(bench.failures)) / bench.attempted, "frac"),
    }
    samples = {"passes": len(passes), "runs": sum(len(r) for r in runs),
               "setup_probes": SETUP_PROBES, "host_scaled": scaled,
               "host_factor_median": statistics.median(REFERENCE_S / r for r in ref_s)
               if scaled else 1.0,
               "wall_s_unscaled": statistics.median(sum(p[0]) for p in passes)}
    return metrics, passes, samples


class LayerProbe:
    """Counters the tracer hooks fill in beside the span times."""

    def __init__(self):
        self.fuse_calls = 0
        self.fuse_repeats = 0
        self.posterior_n = 0
        self.plans = 0
        self.infeasible = 0
        self.emit_bytes = 0
        self.replan_ms = []
        self._seen = set()
        self._emulate_s = 0.0

    def start_run(self):
        self._seen.clear()

    def hooks(self):
        def fuse(args, result, seconds):
            series = args[1]
            key = series.mu_prime.tobytes() + series.margin.tobytes()
            self.fuse_calls += 1
            self.fuse_repeats += key in self._seen
            self._seen.add(key)

        def posterior(args, result, seconds):
            self.posterior_n = max(self.posterior_n, len(result.mean))

        def emulate(args, result, seconds):
            self._emulate_s = seconds

        def plan(args, result, seconds):
            self.plans += 1
            self.infeasible += not result.feasible
            self.replan_ms.append(1e3 * (self._emulate_s + seconds))

        def emit(args, result, seconds):
            self.emit_bytes += sum(Path(p).stat().st_size for p in result)

        return {"fusion.fuse": fuse, "gp.posterior": posterior,
                "estimators.emulate": emulate, "planner.plan": plan,
                "cli.emit_traces": emit}


def _thread_pool_comparison(bench, deadline):
    """Median ms of ``cli.run_matrix`` (thread pool) and of the same cells run
    one after another, alternating, untraced; at least one of each."""
    from frictionfusion import cli

    cells = bench.wl.matrix_cells(bench.workload)
    selection = [list(dict.fromkeys(c.key[i] for c in cells)) for i in range(3)]
    pooled, sequential = [], []
    while not pooled or time.perf_counter() < deadline:
        with tempfile.TemporaryDirectory(dir=bench.work_dir) as tmp:
            base = cli.RunConfig(ds=cells[0].rc.ds, out=tmp if cells[0].writes else None)
            t0 = time.perf_counter()
            summary = cli.run_matrix(*selection, base=base)
            pooled.append(time.perf_counter() - t0)
        bench.attempted += len(cells)
        for row in summary.splitlines()[1:]:
            if ",failed:" in row:
                bench.failures.append(f"run_matrix: {row}")
        with tempfile.TemporaryDirectory(dir=bench.work_dir) as tmp:
            runs = [bench.run_cell(cell, Path(tmp) / f"{i:02d}", "sequential")
                    for i, cell in enumerate(cells)]
            sequential.append(sum(done[0] for done in runs if done is not None))
    return {
        "cli.run_matrix.ms": (_median_ms(pooled), "ms"),
        "cli.run_matrix.seq_ms": (_median_ms(sequential), "ms"),
    }


def _per_layer(bench, args):
    import tracer

    bench.warm_up()
    start = time.perf_counter()
    untraced = bench.passes_until(start + UNTRACED_SHARE * args.seconds)
    probe = LayerProbe()
    tr = tracer.Tracer(hooks=probe.hooks())
    with tr.patched():
        traced = bench.passes_until(start + TRACED_SHARE * args.seconds, probe.start_run)
    if tr.missing:
        print(f"warning: layer names not found, reported as 0: {tr.missing}", file=sys.stderr)

    common = min(len(untraced), len(traced))
    bench.mismatches += [f"pass {i}: traced fingerprint differs from untraced"
                         for i in range(common) if untraced[i][2] != traced[i][2]]

    n = len(traced)
    metrics = tr.per_pass(n)
    # Workloads that write no traces would report a writing time of exactly 0
    # on every run; the share of the traced pass spent writing stays a ratio.
    del metrics["cli.emit_traces.total_ms"]
    emit_s = tr.stats["cli.emit_traces"][1]
    metrics.update({
        "cli.emit_traces.frac": (emit_s / (emit_s + tr.stats["simulator.run"][1]), "frac"),
        "gp.posterior.n": (probe.posterior_n, "count"),
        "fusion.fuse.repeat_frac": (probe.fuse_repeats / max(probe.fuse_calls, 1), "frac"),
        "planner.plan.infeasible_frac": (probe.infeasible / max(probe.plans, 1), "frac"),
        "cli.emit_traces.bytes": (probe.emit_bytes / n, "B"),
        "replan.ms_p50": (statistics.median(probe.replan_ms), "ms"),
        "replan.ms_p99": (_quantile(probe.replan_ms, 99), "ms"),
        "trace.overhead_frac": (
            sum(sum(p[0]) for p in traced[:common])
            / sum(sum(p[0]) for p in untraced[:common]) - 1.0, "frac"),
    })
    metrics.update(_thread_pool_comparison(bench, start + args.seconds))
    samples = {"untraced_passes": len(untraced), "traced_passes": n,
               "replans": len(probe.replan_ms)}
    return metrics, untraced + traced, samples


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (SRC / "frictionfusion" / "__init__.py").is_file():
        print(f"error: frictionfusion sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        bench = Bench(args.workload, args.seed, work_dir)
        if args.setup_probe:
            bench.warm_up()
            return 0
        import environment

        if args.trace:
            metrics, passes, samples = _per_layer(bench, args)
        else:
            setup_s = _setup_seconds(args)
            metrics, passes, samples = _end_to_end(bench, args, setup_s)
        if bench.fixed_inputs:
            bench.mismatches += [f"pass {i}: fingerprint differs from pass 0"
                                 for i, p in enumerate(passes) if p[2] != passes[0][2]]
        for line in bench.failures + bench.mismatches:
            print(f"failure: {line}", file=sys.stderr)
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "fingerprint": passes[0][2], "samples": samples,
                "environment": environment.describe()}
        print(json.dumps(info, sort_keys=True))
        print(json.dumps({
            "correct": not (bench.failures or bench.mismatches),
            "attempted": bench.attempted,
            "failed": len(bench.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
