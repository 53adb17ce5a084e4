"""Spans around the public functions of prefhedge, recorded from outside.

Each traced name is replaced in the module where its caller looks it up
(``prefhedge.equilibrium.solve_h`` is what ``fixed_point_solve`` calls,
``prefhedge.pide.solve_banded`` is what the march calls), so the library
source stays untouched.  A name that a later version of the library no
longer has is reported as absent instead of breaking the run.

Spans are kept in memory (name, start, end, parent) and turned into
per-layer metrics, and optionally written out, once the command has ended.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time

# (module, attribute, span name, hook).  A hook turns the call's bound
# arguments and result into the attributes that some metrics need.
WRAPPED = (
    ("prefhedge.cli", "fixed_point_solve", "equilibrium.fixed_point_solve", "iteration_meta"),
    ("prefhedge.equilibrium", "solve_h", "pide.solve_h", "cells"),
    ("prefhedge.equilibrium", "policy_from_h", "equilibrium.policy_from_h", None),
    ("prefhedge.equilibrium", "coefficients", "pide.coefficients", None),
    ("prefhedge.pide", "coefficients", "pide.coefficients", None),
    ("prefhedge.pide", "solve_banded", "pide.banded_solve", None),
    ("prefhedge.cli", "residual", "pide.residual", None),
    ("prefhedge.mc", "simulate_conditioned", "mc.simulate", "paths"),
    ("prefhedge.mc", "simulate_unconditional", "mc.simulate", "paths"),
    ("prefhedge.mc", "eval_policy", "mc.policy_lookup", None),
    ("prefhedge.cli", "save_h_surface", "persist.save", "bytes"),
    ("prefhedge.cli", "save_policy_surface", "persist.save", "bytes"),
    ("prefhedge.cli", "policy_to_csv", "persist.csv", "bytes"),
    ("prefhedge.cli", "load_h_surface", "persist.load", "bytes"),
    ("prefhedge.cli", "load_policy_surface", "persist.load", "bytes"),
)

# Per-layer metric -> (unit, span names it is computed from).  A metric is
# absent when one of its spans could not be installed, or when a hook it
# depends on could not read what it needs.
METRICS = {
    "pide.solve_h.calls": ("count", ("pide.solve_h",)),
    "pide.solve_h.self_s": ("s", ("pide.solve_h",)),
    "pide.cells_per_s": ("1/s", ("pide.solve_h",)),
    "pide.banded_solve.calls": ("count", ("pide.banded_solve",)),
    "pide.banded_solve.s": ("s", ("pide.banded_solve",)),
    "pide.coefficients.calls": ("count", ("pide.coefficients",)),
    "pide.coefficients.s": ("s", ("pide.coefficients",)),
    "pide.residual.s": ("s", ("pide.residual",)),
    "equilibrium.sweep_s": ("s", ("equilibrium.fixed_point_solve",)),
    "equilibrium.map_evals": ("count", ("equilibrium.fixed_point_solve", "pide.solve_h")),
    "equilibrium.picard_iters": ("count", ("equilibrium.fixed_point_solve",)),
    "equilibrium.final_sup_change": ("1", ("equilibrium.fixed_point_solve",)),
    "equilibrium.policy_from_h.calls": ("count", ("equilibrium.policy_from_h",)),
    "equilibrium.policy_from_h.s": ("s", ("equilibrium.policy_from_h",)),
    "mc.simulate.calls": ("count", ("mc.simulate",)),
    "mc.simulate.self_s": ("s", ("mc.simulate",)),
    "mc.path_steps": ("count", ("mc.simulate",)),
    "mc.path_steps_per_s": ("1/s", ("mc.simulate",)),
    "mc.policy_lookup.calls": ("count", ("mc.policy_lookup",)),
    "mc.policy_lookup.s": ("s", ("mc.policy_lookup",)),
    "mc.rng.s": ("s", ("mc.simulate",)),
    "mc.state_update.s": ("s", ("mc.simulate", "mc.policy_lookup")),
    "persist.save.s": ("s", ("persist.save",)),
    "persist.save.bytes": ("B", ("persist.save",)),
    "persist.csv.s": ("s", ("persist.csv",)),
    "persist.csv.bytes": ("B", ("persist.csv",)),
    "persist.load.s": ("s", ("persist.load",)),
    "persist.load.bytes": ("B", ("persist.load",)),
}


def _hook_iteration_meta(args, out):
    meta = out[1].iteration_meta
    return {"iterations": int(meta.iterations),
            "final_sup_change": float(meta.sup_changes[-1])}


def _hook_cells(args, out):
    n_t, n_y, n_s = args["grid"].shape
    return {"cells": int(n_t) * int(n_y) * int(n_s)}


def _hook_paths(args, out):
    cfg = args["cfg"]
    return {"n_paths": int(cfg.n_paths), "n_steps": int(cfg.n_steps),
            "seed": int(cfg.seed), "stream": int(args["stream"]),
            "antithetic": bool(cfg.antithetic)}


def _hook_bytes(args, out):
    return {"bytes": os.path.getsize(args["path"])}


HOOKS = {"iteration_meta": _hook_iteration_meta, "cells": _hook_cells,
         "paths": _hook_paths, "bytes": _hook_bytes}


class Tracer:
    """Installs the wrappers, records spans, and derives per-layer metrics."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.hook_failures: set[str] = set()
        self.hook_s = 0.0
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self):
        for module_name, attr, span, hook in WRAPPED:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, span, HOOKS.get(hook)))
            self._restore.append((module, attr, original))
            self.installed.add(span)

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, fn, span, hook):
        try:
            signature = inspect.signature(fn) if hook else None
        except (TypeError, ValueError):
            signature = None
        names, start, end, parent, stack = (
            self.names, self.start, self.end, self.parent, self._stack)

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(span)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = time.perf_counter()
                stack.pop()
            if hook is not None:
                h0 = time.perf_counter()
                self._run_hook(idx, span, hook, signature, args, kwargs, out)
                self.hook_s += time.perf_counter() - h0
            return out

        return traced

    def _run_hook(self, idx, span, hook, signature, args, kwargs, out):
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.attrs[idx] = hook(bound.arguments, out)
        except (AttributeError, TypeError, KeyError, IndexError, ValueError, OSError):
            self.hook_failures.add(span)

    def overhead_seconds(self, n=100_000):
        """Estimated time that recording the spans added to the command.

        The bookkeeping cost per span is calibrated as a wrapped no-op
        against the bare no-op; the hooks' own time is measured directly.
        """
        def noop():
            return None

        wrapped = Tracer()._wrap(noop, "calibration", None)
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        per_span = max((t2 - t1) - (t1 - t0), 0.0) / n
        return len(self.names) * per_span + self.hook_s

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": list(zip(self.names, self.start, self.end, self.parent))},
                      fh)

    def metrics(self, rng_seconds=None):
        """Per-layer metrics from the recorded spans, plus the absent names.

        ``rng_seconds`` is the separately timed replay of the simulations'
        normal draws (see :func:`replay_rng`); None marks it absent.
        """
        n = len(self.names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]

        calls, incl, self_s = {}, {}, {}
        for i, name in enumerate(self.names):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            p = self.parent[i]
            if p < 0 or self.names[p] != name:        # nested calls count once
                incl[name] = incl.get(name, 0.0) + dur[i]

        def attr_sum(span, key):
            return sum(a.get(key, 0) for i, a in self.attrs.items()
                       if self.names[i] == span)

        fps = [i for i in range(n) if self.names[i] == "equilibrium.fixed_point_solve"]
        last_fp = self.attrs.get(fps[-1], {}) if fps else {}
        cells = attr_sum("pide.solve_h", "cells")
        sims = [a for i, a in self.attrs.items() if self.names[i] == "mc.simulate"]
        path_steps = sum(a["n_paths"] * a["n_steps"] for a in sims)
        sim_self = self_s.get("mc.simulate", 0.0)

        def per_s(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        values = {
            "pide.solve_h.calls": calls.get("pide.solve_h", 0),
            "pide.solve_h.self_s": self_s.get("pide.solve_h", 0.0),
            "pide.cells_per_s": per_s(cells, incl.get("pide.solve_h", 0.0)),
            "pide.banded_solve.calls": calls.get("pide.banded_solve", 0),
            "pide.banded_solve.s": incl.get("pide.banded_solve", 0.0),
            "pide.coefficients.calls": calls.get("pide.coefficients", 0),
            "pide.coefficients.s": incl.get("pide.coefficients", 0.0),
            "pide.residual.s": incl.get("pide.residual", 0.0),
            "equilibrium.sweep_s": self_s.get("equilibrium.fixed_point_solve", 0.0),
            "equilibrium.map_evals": sum(
                1 for i in range(n) if self.names[i] == "pide.solve_h"
                and self.parent[i] >= 0
                and self.names[self.parent[i]] == "equilibrium.fixed_point_solve"),
            "equilibrium.picard_iters": last_fp.get("iterations", 0),
            "equilibrium.final_sup_change": last_fp.get("final_sup_change", 0.0),
            "equilibrium.policy_from_h.calls": calls.get("equilibrium.policy_from_h", 0),
            "equilibrium.policy_from_h.s": incl.get("equilibrium.policy_from_h", 0.0),
            "mc.simulate.calls": calls.get("mc.simulate", 0),
            "mc.simulate.self_s": sim_self,
            "mc.path_steps": path_steps,
            "mc.path_steps_per_s": per_s(path_steps, incl.get("mc.simulate", 0.0)),
            "mc.policy_lookup.calls": calls.get("mc.policy_lookup", 0),
            "mc.policy_lookup.s": incl.get("mc.policy_lookup", 0.0),
            "mc.rng.s": rng_seconds or 0.0,
            "mc.state_update.s": sim_self - (rng_seconds or 0.0),
            "persist.save.s": incl.get("persist.save", 0.0),
            "persist.save.bytes": attr_sum("persist.save", "bytes"),
            "persist.csv.s": incl.get("persist.csv", 0.0),
            "persist.csv.bytes": attr_sum("persist.csv", "bytes"),
            "persist.load.s": incl.get("persist.load", 0.0),
            "persist.load.bytes": attr_sum("persist.load", "bytes"),
        }

        needs_hook = {
            "pide.cells_per_s": "pide.solve_h",
            "equilibrium.picard_iters": "equilibrium.fixed_point_solve",
            "equilibrium.final_sup_change": "equilibrium.fixed_point_solve",
            "mc.path_steps": "mc.simulate",
            "mc.path_steps_per_s": "mc.simulate",
            "persist.save.bytes": "persist.save",
            "persist.csv.bytes": "persist.csv",
            "persist.load.bytes": "persist.load",
        }
        absent = sorted(
            name for name, (_unit, spans) in METRICS.items()
            if not all(s in self.installed for s in spans)
            or needs_hook.get(name) in self.hook_failures
            or (name in ("mc.rng.s", "mc.state_update.s") and rng_seconds is None)
        )
        return values, absent

    def simulations(self):
        """Draw parameters of every recorded simulation call."""
        return [a for i, a in self.attrs.items() if self.names[i] == "mc.simulate"]


def replay_rng(simulations):
    """Seconds to draw the same number and shapes of Philox normals.

    Mirrors the simulators' keying (one Philox stream per seed and stream
    index, one (2, n) standard-normal block per step, half-width blocks when
    antithetic); the draws are timed alone, outside the command.
    """
    import numpy as np

    total = 0.0
    for sim in simulations:
        n = sim["n_paths"] // 2 if sim["antithetic"] else sim["n_paths"]
        t0 = time.perf_counter()
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence((sim["seed"], sim["stream"]))))
        for _ in range(sim["n_steps"]):
            rng.standard_normal((2, n))
        total += time.perf_counter() - t0
    return total
