#!/usr/bin/env python3
"""Benchmark of the prefhedge CLI on the paper's probes.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload solve-sweep --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced
    python3 perfbench/run.py --smoke             # coarse-grid self-test of the benchmark

Each workload is one ``prefhedge`` command, run as a user runs it: a fresh
single process (``child.py``) with the library imported from ``src/`` and
one BLAS thread.  The benchmark and every process it starts are pinned to
one CPU, whose speed ``calibrate.py`` samples while the workload runs.  The
workloads share the paper's parameters (r=0.02, mu_S=0.07, sigma_S=0.2,
sigma_Y=0.04, T=40), the default grid and the default fixed-point settings,
and probe one table row, t in {0, 7, 14, 21, 28, 35} at a fixed e^y:

- ``solve-sweep``: ``solve`` at (mu_Y, rho, e^y) = (0.02, 0.6, 2).  The
  backward sweep does most of the work and the Picard polish stops after one
  map evaluation; it also writes the surfaces and the policy CSV.  It
  exercises the march kernel and the in-sweep hedging quadrature, and
  bypasses Picard changes.
- ``solve-picard``: ``solve`` at (-0.02, -0.6, 0.8).  The polish makes 26
  map evaluations (``solve_h`` and ``policy_from_h``), most of the time; it
  exercises fixed-point and ``solve_h`` changes.
- ``verify-mc``: ``verify`` on the ``solve-sweep`` surfaces with 20000
  paths x 200 steps, the Monte Carlo seed taken from ``--seed``, and one
  spike window.  No march runs; Monte Carlo and surface loading do the work,
  so it bypasses every PDE change.  Its surfaces come from one untimed
  ``solve`` made before any timed run and cached under ``.bench_build/``.

With ``--trace 0`` the benchmark runs the command repeatedly for
``--seconds`` (at least once), plus two set-up-only processes (every
command's process gives a set-up sample too), and reports the end-to-end
metrics: ``command_ref_s`` (CPU time of the command at the reference CPU
speed), ``setup_s`` (wall time from process start until ``prefhedge.cli`` is
imported and the config parsed, at the reference CPU speed),
``peak_rss_mb`` and ``residual_rms_rel_band`` (the command's own residual
of the factor equation).  Times are converted to the reference speed
because the speed of a shared host's CPU drifts by up to 50 % within a
minute (see ``calibrate.py``); the times as measured (``command_s`` wall,
``command_cpu_s``, ``setup_wall_s``) and the CPU's speed are printed too.

With ``--trace 1`` it runs the command once with spans around the library's
public functions (``tracing.py``) and reports the per-layer metrics and the
tracing overhead.  The overhead is the calibrated cost of recording the
spans, not the difference from an untraced run: on a shared 2-core machine
two runs of one command differ by far more than the spans cost, and an
extra untraced command per traced run would not fit the time the full
benchmark may take.

Every command's output is checked, and each check is one operation:

- ``solve``: the fixed point converged; pi == myopic + hedging exactly on the
  saved surface; the residual gate rms_rel_band < 1e-4 (the verify
  command's own gate); each probe value within 1e-5 of ``reference.json``.
- ``verify``: each verdict in ``verify_report.json``, and, for a repeated
  seed, bit-identical Monte Carlo estimates (j_mc, g-representation means,
  spike quotients) to the first run with that seed in this checkout.

The residual gate and the verify verdicts are the program's own accuracy
gates; today the residual gate fails on every workload and the
g-representation check fails at some probes, and they are counted as failed
operations as they stand.  ``correct`` in the result is true when no other
check failed: the benchmark's exact checks (convergence, the pi identity,
the probe values, determinism) all held.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
machine, each metric with its unit, sample count, median and upper
percentile, and every failed operation by name.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".bench_build" / "perfbench"

PAPER = {"r": 0.02, "mu_S": 0.07, "sigma_S": 0.2, "sigma_Y": 0.04, "T": 40.0}
PROBE_TIMES = (0.0, 7.0, 14.0, 21.0, 28.0, 35.0)
RESIDUAL_GATE = 1e-4
PROBE_TOL = 1e-5
VERIFY_SIM = {"n_paths": 20000, "n_steps": 200}
VERIFY_SPIKES = {"spike_deltas": [0.5], "spike_offsets": [0.1]}
SMOKE_GRID = {"n_t_steps": 40, "n_y": 61, "n_ybar": 7, "n_gh": 9}
SMOKE_SIM = {"n_paths": 2000, "n_steps": 40}
BLAS_THREADS = 1
SETUP_SPAWNS = 2
COMMAND_TIMEOUT_S = 170

# name -> (CLI command, (mu_Y, rho, e^y))
WORKLOADS = {
    "solve-sweep": ("solve", (0.02, 0.6, 2.0)),
    "solve-picard": ("solve", (-0.02, -0.6, 0.8)),
    "verify-mc": ("verify", (0.02, 0.6, 2.0)),
}

# How strongly each workload's command time follows the calibration kernel's
# (calibrate.py): the slope of log CPU time against log kernel speed, fitted
# over sets of 5 to 16 commands on a shared 2-core Xeon whose speed drifted
# by 50 % (solve-sweep 0.82 and 1.02, solve-picard 0.61, verify-mc 0.45 and
# 0.73).  The march and the in-sweep quadrature slow down with the host
# almost as much as the kernel does; the Picard polish, whose larger arrays
# wait more on memory, and the Monte Carlo less.  Set-up, mostly imports,
# uses 1.
SPEED_EXPONENT = {"solve-sweep": 0.9, "solve-picard": 0.6, "verify-mc": 0.6}

END_TO_END = {"command_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "residual_rms_rel_band": "1"}
AS_MEASURED = {"command_s": "s", "command_cpu_s": "s", "setup_wall_s": "s",
               "cpu_speed": "1"}
PER_LAYER = {name: unit for name, (unit, _spans) in tracing.METRICS.items()}
PER_LAYER["trace_overhead_pct"] = "%"


def _solve_config(point, smoke):
    mu_Y, rho, exp_y = point
    cfg = {"params": {**PAPER, "mu_Y": mu_Y, "rho": rho, "y0": math.log(exp_y)},
           "probes": [{"t": t, "exp_y": exp_y} for t in PROBE_TIMES]}
    if smoke:
        cfg["grid"] = dict(SMOKE_GRID)
    return cfg


def _workload_config(name, smoke):
    command, point = WORKLOADS[name]
    cfg = _solve_config(point, smoke)
    if command == "verify":
        cfg["sim"] = dict(SMOKE_SIM if smoke else VERIFY_SIM)
        cfg["verify"] = dict(VERIFY_SPIKES)
    return cfg


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:16]


def _source_digest():
    files = sorted((ROOT / "src").rglob("*.py"))
    return _digest(*(str(p.relative_to(ROOT)).encode() + p.read_bytes() for p in files))


def machine_info(ctx):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    info = {"nproc": ctx.nproc, "cpu": cpu, "python": platform.python_version(),
            "blas_threads": ctx.blas_threads, "pinned_cpu": ctx.cpu,
            "reference_kernel_s": calibrate.REFERENCE_KERNEL_S}
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            info[pkg] = None
    return info


def median(values):
    return statistics.median(values) if values else None


def upper_percentile(values):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


class Context:
    """Per-invocation state: environment, scratch directory, process count."""

    def __init__(self, smoke):
        self.smoke = smoke
        self.nproc = len(os.sched_getaffinity(0))
        self.cpu = calibrate.pin_cpu()
        self.blas_threads = BLAS_THREADS
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = str(self.blas_threads)
        self.source = _source_digest()
        self.work = STATE / f"work-{os.getpid()}"
        self.count = 0

    def spawn(self, mode, argv, config_path, out, seed=None, check_policy=False):
        """Run child.py once and return its record, with ``setup_s`` added."""
        self.count += 1
        tag = self.work / f"p{self.count}"
        spec = {"mode": mode, "argv": argv, "config": str(config_path),
                "out": str(out), "seed": seed, "record": f"{tag}.record.json",
                "check_policy": check_policy}
        Path(f"{tag}.spec.json").write_text(json.dumps(spec))
        spawned = time.monotonic()
        with open(f"{tag}.log", "w") as log:
            try:
                subprocess.run([sys.executable, str(BENCH / "child.py"), f"{tag}.spec.json"],
                               env=self.env, cwd=ROOT, stdout=log,
                               stderr=subprocess.STDOUT, timeout=COMMAND_TIMEOUT_S,
                               check=False)
            except subprocess.TimeoutExpired:
                print(f"{mode} process timed out after {COMMAND_TIMEOUT_S} s",
                      file=log)
        try:
            record = json.loads(Path(spec["record"]).read_text())
        except (OSError, json.JSONDecodeError):
            record = {}
        record["spawned"] = spawned
        record["setup_s"] = record["ready"] - spawned if "ready" in record else None
        record["log"] = f"{tag}.log"
        return record


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError):
        return None


def check_solve(record, out, reference):
    """Operations for one ``solve``: (name, exact?, passed) plus the residual."""
    summary = _read_json(Path(out) / "solve_summary.json") or {}
    residual = (summary.get("residual") or {}).get("rms_rel_band")
    probes = summary.get("probes") or []
    ops = [
        ("solve.converged", True, summary.get("converged") is True),
        ("solve.pi_identity", True, record.get("pi_identity") is True),
        ("solve.residual_gate", False, residual is not None and residual < RESIDUAL_GATE),
    ]
    reference = reference or []
    for k, t in enumerate(PROBE_TIMES):
        ok = (k < len(probes) and k < len(reference) and probes[k].get("t") == t
              and abs(probes[k]["pi"] - reference[k]) <= PROBE_TOL)
        ops.append((f"solve.probe[t={t:g}]", True, ok))
    return ops, residual


def _verdicts_expected(cfg):
    v = cfg["verify"]
    # residual gate, one g-representation per probe, one reward probe, and
    # a spike row per (delta, offset, sign)
    return 2 + len(cfg["probes"]) + 2 * len(v["spike_deltas"]) * len(v["spike_offsets"])


def check_verify(out, cfg):
    """Operations for one ``verify``, its residual and its Monte Carlo estimates."""
    report = _read_json(Path(out) / "verify_report.json")
    if report is None:
        n = _verdicts_expected(cfg)
        return [(f"verify.report[{i}]", False, False) for i in range(n)], None, None
    ops = [("verify.residual_gate", False, bool(report["residual"]["pass"]))]
    ops += [(f"verify.g_representation[t={g['t']:g}]", False, bool(g["pass"]))
            for g in report["g_representation"]]
    ops += [(f"verify.reward[t={r['t']:g}]", False, bool(r["pass"]))
            for r in report["reward_crosscheck"]]
    ops += [(f"verify.spike[delta={r['delta']:g},spike={r['spike']:.4f}]", False,
             bool(r["pass"])) for r in report["spike_test"]["rows"]]
    estimates = {
        "j_mc": [r["j_mc"] for r in report["reward_crosscheck"]],
        "g_means": [g["mc_conditioned"]["mean"] for g in report["g_representation"]],
        "spike_quotients": [r["quotient"] for r in report["spike_test"]["rows"]],
    }
    return ops, report["residual"]["rms_rel_band"], estimates


def prepared_surfaces(ctx, cfg, key):
    """Directory holding the solved surfaces that ``verify`` reads (cached)."""
    dest = STATE / f"prep-{key}"
    if (dest / "policy_surface.bin").exists():
        return dest
    for old in STATE.glob("prep-*"):
        shutil.rmtree(old, ignore_errors=True)
    tmp = ctx.work / "prep"
    config = ctx.work / "prep.json"
    config.write_text(json.dumps(cfg))
    record = ctx.spawn("plain", ["solve", "--config", str(config), "--out", str(tmp)],
                       config, tmp)
    if record.get("exit") != 0:
        return None
    tmp.rename(dest)
    return dest


class WorkloadRun:
    """One workload run: its commands, their checks, and the metrics."""

    def __init__(self, ctx, name, seed):
        self.ctx = ctx
        self.name = name
        self.seed = seed
        self.command, _point = WORKLOADS[name]
        self.cfg = _workload_config(name, ctx.smoke)
        self.config = ctx.work / f"{name}.json"
        self.config.write_text(json.dumps(self.cfg))
        self.key = _digest(ctx.source.encode(), json.dumps(self.cfg, sort_keys=True).encode())
        reference = _read_json(BENCH / "reference.json")
        self.reference = reference["smoke" if ctx.smoke else "default"].get(name)
        self.ops = []
        self.records = []
        self.residuals = []
        self.first_estimates = None
        self.prep = None
        if self.command == "verify":
            self.prep = prepared_surfaces(ctx, _solve_config(WORKLOADS[name][1], ctx.smoke),
                                          self.key)

    def run_command(self, mode):
        out = self.ctx.work / f"out{self.ctx.count + 1}"
        out.mkdir(parents=True)
        argv = [self.command, "--config", str(self.config), "--out", str(out)]
        seed = None
        if self.command == "verify":
            argv += ["--seed-override", str(self.seed)]
            seed = self.seed
            if self.prep is not None:
                for f in ("h_surface.bin", "policy_surface.bin"):
                    shutil.copyfile(self.prep / f, out / f)
        record = self.ctx.spawn(mode, argv, self.config, out, seed=seed,
                                check_policy=self.command == "solve")
        if self.command == "solve":
            ops, residual = check_solve(record, out, self.reference)
        else:
            ops, residual, estimates = check_verify(out, self.cfg)
            ops += self._determinism(estimates)
        if record.get("exit") is None:
            print(f"{self.command} crashed; see {record['log']}", file=sys.stderr)
        self.ops += ops
        if residual is not None:
            self.residuals.append(residual)
        if mode == "traced" and (out / "spans.json").exists():
            shutil.copyfile(out / "spans.json", STATE / f"spans-{self.name}.json")
        shutil.rmtree(out, ignore_errors=True)
        self.records.append(record)
        return record

    def _determinism(self, estimates):
        if estimates is None:
            return [("verify.determinism", True, False)]
        ops = []
        if self.first_estimates is None:
            self.first_estimates = estimates
            store = STATE / f"determinism-{self.key}-{self.seed}.json"
            earlier = _read_json(store)
            if earlier is None:
                store.write_text(json.dumps(estimates))
            else:
                ops.append(("verify.determinism", True, earlier == estimates))
        else:
            ops.append(("verify.determinism", True, self.first_estimates == estimates))
        return ops

    def end_to_end(self, seconds):
        """Untraced commands for ``seconds`` (at least one) plus set-up spawns.

        Returns the end-to-end metrics and the times as measured.
        """
        with calibrate.Calibrator() as cal:
            setups = [self.ctx.spawn("setup", [], self.config, self.ctx.work, seed=None)
                      for _ in range(SETUP_SPAWNS)]
            start = time.monotonic()
            while not self.records or time.monotonic() - start < seconds:
                self.run_command("plain")
        commands = [r for r in self.records if r.get("command_cpu_s") is not None]
        spawns = [r for r in setups + self.records if r["setup_s"] is not None]
        windows = [(r["command_end"] - r["command_s"], r["command_end"]) for r in commands]
        exponent = SPEED_EXPONENT[self.name]
        samples = {
            "command_ref_s": [cal.to_reference(r["command_cpu_s"], *w, exponent)
                              for r, w in zip(commands, windows)],
            "setup_s": [cal.to_reference(r["setup_s"], r["spawned"], r["ready"])
                        for r in spawns],
            "peak_rss_mb": [r["peak_rss_mb"] for r in commands],
            "residual_rms_rel_band": self.residuals,
        }
        measured = {
            "command_s": [r["command_s"] for r in commands],
            "command_cpu_s": [r["command_cpu_s"] for r in commands],
            "setup_wall_s": [r["setup_s"] for r in spawns],
            "cpu_speed": [cal.speed(*w) for w in windows],
        }
        return ({name: (END_TO_END[name], [v for v in values if v is not None])
                 for name, values in samples.items()},
                {name: (AS_MEASURED[name], [v for v in values if v is not None])
                 for name, values in measured.items()})

    def per_layer(self):
        """One traced command: per-layer metrics, absent ones, missing names."""
        traced = self.run_command("traced")
        layers = traced.get("layers") or {}
        absent = [name for name in PER_LAYER
                  if name in traced.get("absent", PER_LAYER) or name not in layers]
        metrics = {name: (unit, [layers.get(name, 0)]) for name, unit in PER_LAYER.items()}
        return metrics, absent, traced.get("absent_names") or []

    def failed(self):
        return [name for name, _exact, ok in self.ops if not ok]

    def correct(self):
        return bool(self.ops) and all(ok for _n, exact, ok in self.ops if exact)


def _fmt(x):
    return "null" if x is None else f"{x:.6g}"


def print_metrics(title, metrics):
    print(title)
    for name, (unit, values) in metrics.items():
        hi = upper_percentile(values)
        hi_txt = f"p{hi[0]:.0f} {_fmt(hi[1])}" if hi else "p_hi n/a (under 11 samples)"
        print(f"  {name:34s} {unit:6s} n={len(values):<3d} median {_fmt(median(values)):>12s}"
              f"   {hi_txt}")


def print_ops(run):
    failed = run.failed()
    print(f"  operations: {len(run.ops)} attempted, {len(failed)} failed")
    counts = {}
    for name in failed:
        counts[name] = counts.get(name, 0) + 1
    for name, k in counts.items():
        exact = next(e for n, e, _ok in run.ops if n == name)
        kind = "check" if exact else "program gate"
        print(f"    FAILED {name} x{k} ({kind})")


def run_one(ctx, name, seed, seconds, trace):
    """Run one workload and print its metrics; return (WorkloadRun, metrics)."""
    run = WorkloadRun(ctx, name, seed)
    print(f"workload {name}  seed {seed}  trace {trace}  "
          f"({'Monte Carlo seed' if run.command == 'verify' else 'deterministic; seed unused'})")
    if run.command == "verify" and run.prep is None:
        print("  the solve that verify reads failed; every verdict counts as failed")
    if trace:
        metrics, absent, missing = run.per_layer()
        print_metrics("  per-layer metrics (traced run):", metrics)
        if absent:
            print(f"  absent (reported as 0): {', '.join(sorted(absent))}")
        if missing:
            print(f"  traced names not found in the library: {', '.join(missing)}")
    else:
        metrics, measured = run.end_to_end(seconds)
        print_metrics("  end-to-end metrics (times at the reference CPU speed):", metrics)
        print_metrics("  as measured (not in the result line):", measured)
    print_ops(run)
    return run, metrics


def result_line(runs_metrics, prefix):
    correct = all(run.correct() for run, _m in runs_metrics)
    attempted = sum(len(run.ops) for run, _m in runs_metrics)
    failed = sum(len(run.failed()) for run, _m in runs_metrics)
    out = {}
    for run, metrics in runs_metrics:
        for name, (unit, values) in metrics.items():
            key = f"{run.name}.{name}" if prefix else name
            out[key] = {"value": median(values), "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": out}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(default with --workload all: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="coarse grid and few paths: run every workload "
                             "untraced and traced and check the results are complete")
    args = parser.parse_args(argv)
    if args.seconds < 0 or args.seed < 0:
        parser.error("--seconds and --seed must be >= 0")
    if not (ROOT / "src" / "prefhedge" / "cli.py").is_file():
        print(f"prefhedge sources not found under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    ctx = Context(args.smoke)
    ctx.work.mkdir(parents=True, exist_ok=True)
    try:
        print("machine: " + json.dumps(machine_info(ctx)))
        if args.smoke:
            return smoke(ctx, args.seed)
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        traces = [args.trace] if args.trace is not None else [0, 1]
        done = []
        for name in names:
            for trace in traces:
                run, metrics = run_one(ctx, name, args.seed, args.seconds, trace)
                done.append((run, metrics))
        print(json.dumps(result_line(done, prefix=len(done) > 1)))
        return 0
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)


def smoke(ctx, seed):
    """Every workload on a coarse grid, untraced and traced.

    Exits 1 when a metric is missing or not finite, or when an operation
    fails that is not among the coarse grid's recorded failures (the Picard
    polish does not converge there, and the program's gates fail as on the
    default grid).  Absent per-layer metrics are listed but allowed: a
    refactor may remove a traced name.
    """
    known = _read_json(BENCH / "reference.json")["smoke_known_failures"]
    problems = []
    done = []
    for name in sorted(WORKLOADS):
        for trace in (0, 1):
            run, metrics = run_one(ctx, name, seed, 0.0, trace)
            done.append((run, metrics))
            new = set(run.failed()) - set(known.get(name, ()))
            if new:
                problems.append(f"{name} trace {trace}: unexpected failures {sorted(new)}")
            for metric, (_unit, values) in metrics.items():
                if not values or not all(isinstance(v, (int, float)) and math.isfinite(v)
                                         for v in values):
                    problems.append(f"{name}: metric {metric} missing or not finite")
    print(json.dumps(result_line(done, prefix=True)))
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
