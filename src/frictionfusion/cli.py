"""Command-line front end: single runs, run matrices, machine-readable traces.

Single runs select one scenario/configuration/error combination and emit
``trace.csv``/``trace.json``, ``metrics.json`` and optional per-replan
estimate dumps; ``--matrix`` executes every selected combination
sequentially and aggregates one ``summary.csv`` row per run. Outputs are
byte-identical for identical inputs and never written over.
"""

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fusion, simulator
from .estimators import CONFIG_KINDS, Configuration, resolve_error
from .fusion import SGrid
from .gp import FactorizationError, GpPrior, SquaredExponentialKernel
from .simulator import collision_scenario, replan_substeps, run, turn_scenario

SCENARIO_NAMES = tuple(simulator.SCENARIOS)
CONFIG_NAMES = CONFIG_KINDS
# The library's default prior: the source of the --eta and --sigma-f defaults.
_PRIOR = fusion.calibrate_prior()
DEFAULT_ERRORS = ("worst-over", "worst-under")
# Single-run selection field -> what ``--matrix`` runs unless its plural flag is given.
SELECTIONS = {"scenario": SCENARIO_NAMES, "config": CONFIG_NAMES, "error": DEFAULT_ERRORS}
# The configurations whose estimate reads the local error; gt and p never do.
LOCAL_ERROR_CONFIGS = ("l", "f")


class UsageError(ValueError):
    """Invalid command line; message names the offending flag and constraint."""


def _param(default, help_text, **flag):
    """A RunConfig field: its default, plus the help and argparse keywords of its flag."""
    return dataclasses.field(default=default, metadata={"help": help_text, **flag})


def _flag(name):
    return "--" + name.replace("_", "-")


@dataclass
class RunConfig:
    """Validated run request: selection, overrides, output options.

    Each field is the one definition of the flag named after it (``s_f`` is
    ``--s-f``). A default that is a library value is read from the library
    module that uses it, so the command line and library calls agree.
    """

    scenario: str = _param("turn", "scenario to run", choices=SCENARIO_NAMES)
    config: str = _param("gt", "estimator configuration", choices=CONFIG_NAMES)
    error: str = _param("worst-over", "worst-over, worst-under, or fixed=<v>")
    out: str = _param(None, "output directory")
    format: str = _param("both", "trace file format", choices=("csv", "json", "both"))
    dump_estimates: bool = _param(False, "write one estimate_<i>.csv per replan",
                                  action="store_true")
    ds: float = _param(fusion.DEFAULT_DS, "grid spacing (m)")
    s_f: float = _param(fusion.DEFAULT_HORIZON, "horizon length (m)")
    l: float = _param(fusion.DEFAULT_LENGTH_SCALE, "kernel length scale (m)")
    sigma_f: float = _param(_PRIOR.kernel.sigma_f, "prior signal standard deviation")
    eta: float = _param(_PRIOR.mean, "prior mean")
    s_l: float = _param(fusion.DEFAULT_LOCAL_REACH, "local estimate influence threshold (m)")
    replan_dt: float = _param(simulator.REPLAN_DT, "replanning interval (s)")
    sim_dt: float = _param(simulator.SIM_DT,
                           f"plant integration step (s), at most {simulator.MAX_SIM_DT}")
    lane_half_width: float = _param(simulator.LANE_HALF_WIDTH, "lane half width (m)")
    turn_radius: float = _param(simulator.TURN_RADIUS, "turn scenario radius (m)")

    def grid(self):
        return SGrid(ds=self.ds, s_f=self.s_f)

    def prior(self):
        return GpPrior(mean=self.eta, kernel=SquaredExponentialKernel(self.sigma_f, self.l))

    def configuration(self):
        return Configuration(kind=self.config, local_reach=self.s_l, prior=self.prior())

    def scenario_instance(self):
        if self.scenario == "turn":
            return turn_scenario(turn_radius=self.turn_radius,
                                 lane_half_width=self.lane_half_width)
        return collision_scenario(lane_half_width=self.lane_half_width)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    """Parser whose namespace holds only the flags actually given."""
    p = _Parser(prog="frictionfusion", description=__doc__,
                argument_default=argparse.SUPPRESS)
    for f in dataclasses.fields(RunConfig):
        kwargs = dict(f.metadata)
        if "action" not in kwargs:
            kwargs["type"] = f.type
        p.add_argument(_flag(f.name), dest=f.name, **kwargs)
    p.add_argument("--matrix", action="store_true",
                   help="run every selected combination and write summary.csv")
    p.add_argument("--scenarios", nargs="+", choices=SCENARIO_NAMES,
                   help="matrix scenario selection (default: all)")
    p.add_argument("--configs", nargs="+", choices=CONFIG_NAMES,
                   help="matrix configuration selection (default: all)")
    p.add_argument("--errors", nargs="+",
                   help=f"matrix error-mode selection (default: {' '.join(DEFAULT_ERRORS)})")
    return p


def _check(names, build, *args):
    """Call ``build(*args)``; a ValueError becomes a UsageError naming the flags."""
    try:
        build(*args)
    except ValueError as exc:
        raise UsageError(f"{'/'.join(_flag(n) for n in names)}: {exc}") from None


def _parse(argv):
    """Parse and check a command line.

    Returns the RunConfig and, under ``--matrix``, the (scenarios, configs,
    errors) selection, else None. Every value is checked by building the
    objects a run builds from it.
    """
    given = vars(_build_parser().parse_args(argv))
    matrix = given.pop("matrix", False)
    picked = {name: given.pop(name + "s") for name in SELECTIONS if name + "s" in given}
    if picked and not matrix:
        raise UsageError(f"{_flag(next(iter(picked)) + 's')} requires --matrix")
    for name, values in picked.items():
        same = resolve_error if name == "error" else None
        _check((name + "s",), _check_selection, values, same)
    rc = RunConfig(**given)
    if matrix:
        for name in SELECTIONS:
            if name in given:
                raise UsageError(f"{_flag(name)} cannot be combined with --matrix; "
                                 f"use {_flag(name + 's')}")
        scenarios, configs, errors = (picked.get(name, SELECTIONS[name]) for name in SELECTIONS)
    else:
        scenarios, configs, errors = [rc.scenario], [rc.config], [rc.error]
    if "turn_radius" in given and "turn" not in scenarios:
        raise UsageError("--turn-radius applies only to the turn scenario")
    if "error" in given and rc.config not in LOCAL_ERROR_CONFIGS:
        raise UsageError(f"--error applies only to the configurations that read the "
                         f"local estimate: {' and '.join(LOCAL_ERROR_CONFIGS)}")
    for name in ("l", "sigma_f", "eta", "s_l"):  # the fused prior and local reach
        if name in given and "f" not in configs:
            raise UsageError(f"{_flag(name)} applies only to the fused configuration f")
    for name in ("format", "dump_estimates"):
        if name in given and rc.out is None:
            raise UsageError(f"{_flag(name)} requires --out")

    _check(("ds", "s_f"), rc.grid)
    _check(("sigma_f", "l", "eta"), rc.prior)
    _check(("s_l",), rc.configuration)
    _check(("lane_half_width", "turn_radius"), rc.scenario_instance)
    _check(("replan_dt", "sim_dt"), replan_substeps, rc.replan_dt, rc.sim_dt)
    for error in errors:
        _check(("errors" if matrix else "error",), resolve_error, error)
    if rc.out is not None:
        _check(("out",), _check_out, rc.out)
    return rc, ((scenarios, configs, errors) if matrix else None)


def _check_out(out):
    """Raise a ValueError unless ``out`` is absent or an empty directory."""
    try:
        if next(Path(out).iterdir(), None) is None:
            return
        cause = "already holds files"
    except FileNotFoundError:
        return
    except OSError as exc:  # a file, or a directory that cannot be listed
        cause = exc.strerror
    raise ValueError(f"{out}: {cause}; give an absent or empty directory")


def parse_args(argv):
    """Parse and check a command line into the RunConfig of its run(s)."""
    return _parse(argv)[0]


def _column(values, text=True):
    """Cells of a column of floats, the one place the number rules live: NaN is an empty
    CSV cell or a JSON null; other values are 9-significant-digit text, or kept for JSON."""
    if text:
        return ["" if x != x else f"{x:.9g}" for x in values]
    return [None if x != x else x for x in values]


def _write_text(path, text):
    try:
        with path.open("x", encoding="utf-8", newline="\n") as f:
            f.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def execute(rc):
    """Run the configured scenario once."""
    return run(
        rc.scenario_instance(),
        rc.configuration(),
        local_error=resolve_error(rc.error),
        replan_dt=rc.replan_dt,
        sim_dt=rc.sim_dt,
        grid=rc.grid(),
    )


def emit_traces(result, rc):
    """Write trace, metrics and optional per-replan estimate files.

    Returns the list of written paths. Files are deterministic: fixed column
    order, 9-significant-digit decimal formatting, LF newlines. A file that
    exists already is an OSError and keeps its bytes.
    """
    out_dir = Path(rc.out if rc.out is not None else ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    tr = result.trace
    columns = {k: tr[k].tolist() for k in ("t", "s", "d", "v", "lambda")}

    if rc.format in ("csv", "both"):
        cells = [_column(col) for col in columns.values()] + [tr["outcome"]]
        lines = ["t,s,d,v,lambda,outcome_so_far", *map(",".join, zip(*cells))]
        path = out_dir / "trace.csv"
        _write_text(path, "\n".join(lines) + "\n")
        written.append(path)

    if rc.format in ("json", "both"):
        payload = {k: _column(col, text=False) for k, col in columns.items()}
        payload["outcome_so_far"] = list(tr["outcome"])
        path = out_dir / "trace.json"
        _write_text(path, json.dumps(payload, sort_keys=True) + "\n")
        written.append(path)

    # gt and p never read the local error: their files name no error mode.
    reads_error = result.config_kind in LOCAL_ERROR_CONFIGS
    metrics_payload = {"scenario": result.scenario.name, "config": result.config_kind,
                       "error": rc.error if reads_error else None}
    for name, value in dataclasses.asdict(result.metrics).items():
        metrics_payload[name] = _column((value,), text=False)[0]  # the outcome passes too
    path = out_dir / "metrics.json"
    _write_text(path, json.dumps(metrics_payload, sort_keys=True, indent=2) + "\n")
    written.append(path)

    if rc.dump_estimates:
        grid_pts = result.grid.points
        width = len(str(len(result.replans) - 1))
        for index, rec in enumerate(result.replans):
            (mu_gt,) = result.scenario.profile.shifted(-rec.s).on_grid(result.grid, "mu")
            est = rec.estimate
            if est.fused is not None:
                # The GP observed on the series' own (1 m) grid: each row shows the
                # observation at the last of its points at or before s (at ds = 1, its own).
                held = np.searchsorted(est.series.grid.points, grid_pts + 1e-9, side="right") - 1
                gp_cols = (est.series.mu_prime[held], est.series.margin[held],
                           est.fused.mean, est.fused.std)
            else:  # no fusion: the estimate is its own input and mean, with no spread
                zeros = np.zeros_like(est.mu_hat)
                gp_cols = (est.mu_hat, zeros, est.mu_hat, zeros)
            cols = (grid_pts, *gp_cols, est.mu_hat, mu_gt)
            cells = [_column(c.tolist()) for c in cols]
            lines = ["s,mu_prime,margin,post_mean,post_std,mu_hat,mu_gt",
                     *map(",".join, zip(*cells))]
            path = out_dir / f"estimate_{index:0{width}d}.csv"
            _write_text(path, "\n".join(lines) + "\n")
            written.append(path)
    return written


# How a run itself can fail: a bad value the library rejects, degenerate GP
# inputs, or an output file that cannot be written.
RUN_FAILURES = (ValueError, FactorizationError, OSError)

# The metrics in a summary.csv row, after the run's selection columns; the outcome first.
SUMMARY_METRICS = ("outcome", "max_abs_d", "min_clearance", "impact_velocity",
                   "mean_utilization")
SUMMARY_HEADER = ",".join(("scenario", "config", "error_mode") + SUMMARY_METRICS)


def _matrix_cell(rc):
    try:
        result = execute(rc)
        if rc.out is not None:
            emit_traces(result, rc)
        m = result.metrics
        values = [m.outcome, *_column([getattr(m, name) for name in SUMMARY_METRICS[1:]])]
    except RUN_FAILURES as exc:  # anything else is a bug
        print(f"{rc.scenario},{rc.config},{rc.error}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        values = [f"failed: {type(exc).__name__}"] + [""] * (len(SUMMARY_METRICS) - 1)
    return ",".join([rc.scenario, rc.config, rc.error, *values])


def _check_selection(values, same=None):
    """Raise ValueError unless a matrix selection is non-empty and names each value
    once. ``same`` maps a value to what it selects (by default the value itself), so
    error modes compare by ``resolve_error``: ``fixed=0.01`` repeats ``fixed=0.010``."""
    if not values:
        raise ValueError("a selection must be non-empty")
    selected = list(values) if same is None else [same(v) for v in values]
    for i, value in enumerate(selected):
        first = selected.index(value)
        if first < i:
            also = "" if values[first] == values[i] else f" (as {values[first]})"
            raise ValueError(f"{values[i]} is selected more than once{also}")


def run_matrix(scenarios, configs, error_modes, base=None):
    """Run every combination in selection order and return summary.csv text.

    Per-run outputs land in ``<out>/<scenario>_<config>_<error>/`` when the
    base config has an output directory. An empty selection, one that repeats
    a value, an error mode ``resolve_error`` rejects, or an output directory
    that is neither absent nor empty is a ValueError before any run. A run
    that fails with a ValueError, FactorizationError or OSError is reported
    on stderr and gets a ``failed: <Type>`` row; any other exception
    propagates.
    """
    for values, same in ((scenarios, None), (configs, None), (error_modes, resolve_error)):
        _check_selection(values, same)
    base = base if base is not None else RunConfig()
    if base.out is not None:
        _check_out(base.out)
    cells = []
    for scenario in scenarios:
        for config in configs:
            for error in error_modes:
                rc = dataclasses.replace(base, scenario=scenario, config=config,
                                         error=error)
                if base.out is not None:
                    sub = Path(base.out) / f"{scenario}_{config}_{error.replace('=', '_')}"
                    rc = dataclasses.replace(rc, out=str(sub))
                cells.append(rc)
    rows = [_matrix_cell(rc) for rc in cells]
    text = SUMMARY_HEADER + "\n" + "\n".join(rows) + "\n"
    if base.out is not None:
        out_dir = Path(base.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_text(out_dir / "summary.csv", text)
    return text


def main(argv=None):
    argv = argv if argv is not None else sys.argv[1:]
    try:
        rc, selection = _parse(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if selection is not None:
        text = run_matrix(*selection, base=rc)
        sys.stdout.write(text)
        return 2 if any(",failed:" in row for row in text.splitlines()) else 0
    try:
        result = execute(rc)
        if rc.out is not None:
            emit_traces(result, rc)
    except RUN_FAILURES as exc:  # anything else is a bug
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    m = result.metrics
    clearance = "" if math.isnan(m.min_clearance) else f" min_clearance={m.min_clearance:.3f}"
    mode = f" {rc.error}" if rc.config in LOCAL_ERROR_CONFIGS else ""
    print(f"{rc.scenario} {rc.config}{mode}: outcome={m.outcome} "
          f"max|d|={m.max_abs_d:.3f}{clearance} "
          f"impact_velocity={m.impact_velocity:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
