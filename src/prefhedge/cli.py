"""Command-line orchestration: solve, table, verify, bridge-test.

A single JSON config file fully determines a run, seeds included, so every
number the tool emits is reproducible, except the wall-clock phase times
(``phase_s`` in ``solve_summary.json`` and ``verify_report.json``, and
``sweep_s``, the split of the solve inside the backward sweep, in
``solve_summary.json``).  Machine-readable outputs carry full float
precision (shortest round-trip representation); console summaries are
rounded for reading.

Every command that solves streams the solve: each marched level goes
straight to its consumers (the residual, the factor archive, verify's
reads) and the factor surface is never held whole.  So ``phase_s.solve``
includes the residual's work and the factor archive's write, and
``phase_s.residual`` only adds up the residual's norms (see cmd_solve and
cmd_verify); ``sweep_s`` leaves both out.  ``table`` reports each solved
row's residual beside its cells.

Parsing is fail-closed: unknown keys and invalid values are rejected with
the violated invariant named.  Each section's keys come from what it feeds:
``params`` from the fields of ModelParams, ``grid`` from the annotated
keyword parameters of default_grid, ``sim`` from the fields of SimConfig and
``verify`` from those of VerifyConfig.  ``probes`` and
``verify.reward_probes`` list {"t", "exp_y"} objects, parsed into (t, y).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import conditional
from .equilibrium import (
    _closed_everywhere,
    _layer_policy,
    fixed_point_solve,
    reward_quadrature,
)
from .errors import ConfigError, ConvergenceError, DomainError, PositivityError
from .mc import (
    SimConfig,
    equilibrium_spike_test,
    reward_mc,
    simulate_conditioned,
    simulate_unconditional,
    simulation_work,
    verify_g_representation_batch,
    z_score,
)
from .model import ModelParams
from .persist import (
    h_surface_writer,
    load_h_surface,
    load_policy_surface,
    save_policy_surface,
    staged,
)
from .pide import (
    QUAD_SD,
    LevelResidual,
    _locate,
    bilinear_interp,
    default_grid,
    residual,
    ybar_blend,
)

T_COLUMNS = (0.0, 7.0, 14.0, 21.0, 28.0, 35.0)

# Table blocks: label -> (mu_Y spec, rho, exp(y) rows).  "0.5s2" stands for
# mu_Y = sigma_Y^2 / 2.
TABLE_BLOCKS = {
    "0.02,0.6": (0.02, 0.6, (2, 3, 4, 7, 10)),
    "0.02,-0.6": (0.02, -0.6, (2, 3, 4, 7, 10)),
    "-0.02,0.6": (-0.02, 0.6, (0.8, 1.2, 1.6, 2, 2.4)),
    "-0.02,-0.6": (-0.02, -0.6, (0.8, 1.2, 1.6, 2, 2.4)),
    "0.5s2,0.6": ("0.5s2", 0.6, (1, 2, 3, 4, 5)),
    "0.5s2,-0.6": ("0.5s2", -0.6, (1, 2, 3, 4, 5)),
    "0.02,1": (0.02, 1.0, (2, 3, 4, 7, 10)),
    "0.02,-1": (0.02, -1.0, (2, 3, 4, 7, 10)),
    "-0.02,1": (-0.02, 1.0, (0.8, 1.2, 1.6, 2, 2.4)),
    "-0.02,-1": (-0.02, -1.0, (0.8, 1.2, 1.6, 2, 2.4)),
    "0.02,0": (0.02, 0.0, (2, 3, 4, 7, 10)),
    "-0.02,0": (-0.02, 0.0, (0.8, 1.2, 1.6, 2, 2.4)),
}

# The JSON kind of each annotation a numeric section's keys carry.
_KINDS = {"float": float, "int": int, "bool": bool}
_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false"}
# Each numeric section's keys and their JSON kinds, read off the type it feeds.
_SECTIONS = {
    "params": {f.name: _KINDS[f.type] for f in fields(ModelParams)},
    "grid": {name: _KINDS[p.annotation]
             for name, p in inspect.signature(default_grid).parameters.items()
             if p.annotation in _KINDS},
    "sim": {f.name: _KINDS[f.type] for f in fields(SimConfig)},
}
# Least value of each grid setting, checked before default_grid's arithmetic:
# its y spacing divides by n_y - 1, and the slices need two nodes to increase.
_GRID_LEAST = {"n_t_steps": 1, "n_y": 2, "n_ybar": 2, "n_gh": 1, "ybar_pad_sd": 3.0}
_PROBE_KEYS = {"t": float, "exp_y": float}
_TOP_KEYS = {"params", "grid", "sim", "probes", "table_block", "out_dir", "verify"}
# Terminal-state quadrature nodes of verify's reward estimates.
_VERIFY_NODES = 11


def _config_section(section, mapping, allowed, least=None):
    """Copy of a config object, checked against its allowed keys.

    Where ``allowed`` maps each key to its JSON kind, a value of the wrong
    kind or below its ``least`` value is rejected too, and so is a NaN or
    infinite number (Python's json reads NaN and Infinity).
    """
    if not isinstance(mapping, dict):
        raise ConfigError(f"{section} must be an object, got {mapping!r}")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {section}: {sorted(unknown)} "
            f"(allowed: {sorted(allowed)})"
        )
    if isinstance(allowed, dict):
        for key, value in mapping.items():
            kind, bound = allowed[key], (least or {}).get(key)
            # JSON true/false load as bool, a subclass of int: the type must match.
            ok = ((_is_number(value) if kind is float else type(value) is kind)
                  and (bound is None or value >= bound))
            if not ok:
                at_least = "" if bound is None else f" >= {bound}"
                raise ConfigError(
                    f"{section}.{key} must be {_KIND_NAMES[kind]}{at_least}, got {value!r}"
                )
    return dict(mapping)


def _is_number(value):
    """A finite JSON number (not true or false).

    JSON integers are finite however large; math.isfinite cannot take the
    largest of them.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _probe_list(section, probes, T):
    """(t, y) pairs of a list of {"t", "exp_y"} objects, t in [0, T] and exp_y > 0."""
    if not isinstance(probes, list):
        raise ConfigError(f"{section} must be a list, got {probes!r}")
    for i, probe in enumerate(probes):
        name = f"{section}[{i}]"
        _config_section(name, probe, _PROBE_KEYS)
        if "t" not in probe or "exp_y" not in probe:
            raise ConfigError(f"{name} needs 't' and 'exp_y'")
        if not 0 <= probe["t"] <= T:
            raise ConfigError(f"{name}: t must lie in [0, T]")
        if not probe["exp_y"] > 0:
            raise ConfigError(f"{name}: exp_y must be > 0")
    return tuple((float(p["t"]), float(np.log(p["exp_y"]))) for p in probes)


@dataclass(frozen=True)
class VerifyConfig:
    """The verify section: reward probes as (t, y), by default (0, y0) alone;
    the residual and z gates; the spike windows' lengths and offsets."""

    reward_probes: tuple
    residual_tol: float = 1e-4
    z_gate: float = 3.0
    spike_deltas: tuple = (0.5, 0.25, 0.125)
    spike_offsets: tuple = (0.05, 0.1, 0.2)


def _verify_section(mapping, params):
    """The parsed verify section, each value checked as cmd_verify will use it."""
    verify = _config_section("verify", mapping, {f.name for f in fields(VerifyConfig)})
    for key, value in verify.items():
        if key == "reward_probes":
            verify[key] = _probe_list("verify.reward_probes", value, params.T)
        elif key in ("residual_tol", "z_gate"):
            if not _is_number(value):
                raise ConfigError(f"verify.{key} must be a finite number, got {value!r}")
            verify[key] = float(value)
        elif isinstance(value, list) and value and all(_is_number(v) and v > 0 for v in value):
            verify[key] = tuple(float(v) for v in value)
        else:
            raise ConfigError(f"verify.{key} must be a non-empty list of positive "
                              f"finite numbers, got {value!r}")
    return VerifyConfig(**{"reward_probes": ((0.0, float(params.y0)),), **verify})


@dataclass
class RunConfig:
    """Everything a run needs, parsed and validated."""

    params: ModelParams
    verify: VerifyConfig
    grid_kwargs: dict = field(default_factory=dict)
    sim: SimConfig = field(default_factory=SimConfig)
    probes: tuple = ()
    table_block: str | None = None
    out_dir: Path = Path(".")

    @classmethod
    def from_file(cls, path, seed_override=None, out_override=None):
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: cannot read config ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be an object")
        _config_section("top level", raw, _TOP_KEYS)
        if "params" not in raw:
            raise ConfigError("config must contain a 'params' section")
        try:
            params = ModelParams(**_config_section("params", raw["params"], _SECTIONS["params"]))
        except DomainError as exc:
            raise ConfigError(f"invalid params: {exc}") from exc
        except TypeError as exc:
            raise ConfigError(f"params section incomplete: {exc}") from exc

        grid_kwargs = _config_section("grid", raw.get("grid", {}), _SECTIONS["grid"],
                                      _GRID_LEAST)

        sim_kwargs = _config_section("sim", raw.get("sim", {}), _SECTIONS["sim"])
        if seed_override is not None:
            sim_kwargs["seed"] = int(seed_override)
        try:
            sim = SimConfig(**sim_kwargs)
        except DomainError as exc:
            raise ConfigError(f"invalid sim: {exc}") from exc

        probes = _probe_list("probes", raw.get("probes", []), params.T)

        block = raw.get("table_block")
        if block is not None and block not in TABLE_BLOCKS:
            raise ConfigError(
                f"unknown table_block {block!r}; known: {sorted(TABLE_BLOCKS)}"
            )

        verify = _verify_section(raw.get("verify", {}), params)

        out_dir = Path(out_override or raw.get("out_dir", "."))
        return cls(params=params, grid_kwargs=grid_kwargs, sim=sim, probes=probes,
                   table_block=block, out_dir=out_dir, verify=verify)


def _block_params(base: ModelParams, block: str) -> ModelParams:
    mu_spec, rho, _rows = TABLE_BLOCKS[block]
    mu_Y = 0.5 * base.sigma_Y**2 if mu_spec == "0.5s2" else float(mu_spec)
    return replace(base, rho=rho, mu_Y=mu_Y)


def _json_dump(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2, default=float) + "\n")


def _residual_json(res):
    return {"max_rel_band": res.max_rel_band, "rms_rel_band": res.rms_rel_band,
            "worst": dict(zip(("t", "y", "ybar"), res.worst))}


def cmd_solve(cfg: RunConfig) -> int:
    """Solve at the config's point, writing both archives and solve_summary.json.

    Each level goes to the residual and to the factor archive as it is
    marched.  Both archives are written under staged names and moved onto
    h_surface.bin and policy_surface.bin only once the march and the
    residual have succeeded: a failed solve leaves ``out_dir`` as it found
    it.  ``phase_s`` times ``solve`` (the march, the residual's blocks and
    the factor write), ``residual`` (its norms) and ``save`` (the policy
    archive and the moves).
    """
    probe_ys = sorted({y for _t, y in cfg.probes}) or [cfg.params.y0]
    grid = default_grid(cfg.params, probe_y=probe_ys, **cfg.grid_kwargs)
    _check_in_hull(grid, [(f"probes[{i}]", t, y) for i, (t, y) in enumerate(cfg.probes)])
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    clock = [time.perf_counter()]
    acc = LevelResidual(grid, cfg.params)
    with staged(cfg.out_dir / "h_surface.bin", cfg.out_dir / "policy_surface.bin") as (
            h_path, p_path):
        with h_surface_writer(h_path, grid, cfg.params) as write:

            def take(level, pi_row):
                acc.take(level, pi_row)
                write(level)

            _h0, pol = fixed_point_solve(grid, cfg.params, take)
        clock.append(time.perf_counter())
        res = acc.norms()
        clock.append(time.perf_counter())
        save_policy_surface(p_path, pol, cfg.params)
    clock.append(time.perf_counter())
    phase_s = dict(zip(("solve", "residual", "save"), np.diff(clock).tolist()))

    closed = _closed_everywhere(cfg.params.rho)
    probe_rows = []
    closed_ok = True
    for t, y in cfg.probes:
        value = pol.value(t, y)
        row = {
            "t": t, "exp_y": float(np.exp(y)), "pi": value,
            "myopic": pol.value(t, y, component="myopic"),
            "hedging": pol.value(t, y, component="hedging"),
        }
        if closed:
            cf = _layer_policy(t, y, cfg.params)
            row["closed_form"] = cf
            closed_ok &= abs(value - cf) < 1e-3
        probe_rows.append(row)

    meta = pol.iteration_meta
    summary = {
        "probes": probe_rows,
        "iterations": meta.iterations,
        "sup_changes": list(meta.sup_changes),
        "map_evals": {"histogram": {str(n): count for n, count in meta.evals_histogram},
                      "total": meta.map_evals, "t_worst": meta.t_worst},
        "converged": True,
        "residual": _residual_json(res),
        "grid": {"n_t": int(grid.t_nodes.size), "n_y": int(grid.y_nodes.size),
                 "n_ybar": int(grid.ybar_nodes.size),
                 "ybar_range": [float(grid.ybar_nodes[0]), float(grid.ybar_nodes[-1])]},
        "phase_s": phase_s,
        "sweep_s": meta.sweep_s,
    }
    if closed and cfg.probes:
        summary["closed_form_verified"] = bool(closed_ok)
    _json_dump(cfg.out_dir / "solve_summary.json", summary)

    for row in probe_rows:
        print(f"  pi(t={row['t']:g}, exp_y={row['exp_y']:g}) = {row['pi']:.4f} "
              f"(myopic {row['myopic']:.4f}, hedging {row['hedging']:+.4f})")
    work = (f"at most {meta.iterations} map evaluation(s) per level" if meta.iterations
            else "closed form at every level, no level iterated")
    print(f"solve: converged, {work}; outputs in {cfg.out_dir}")
    return 0


def cmd_table(cfg: RunConfig) -> int:
    """pi at T_COLUMNS per exp_y row: the closed form at rho**2 in {0, 1}, else a solve.

    A row that cannot be solved ends the command, naming the block and the
    exp_y, and no table is written.  Each solved row reports its residual
    (the solve's levels go straight to it), null on the closed rows and
    where the band holds no node; no gate reads it.
    """
    if cfg.table_block is None:
        raise ConfigError("cmd_table needs 'table_block' in the config")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    params = _block_params(cfg.params, cfg.table_block)
    _mu, rho, rows = TABLE_BLOCKS[cfg.table_block]

    lines = ["exp_y," + ",".join(f"t={t:g}" for t in T_COLUMNS)]
    table, residuals = {}, {}
    for exp_y in rows:
        y = float(np.log(exp_y))
        res = None
        if _closed_everywhere(rho):
            vals = [_layer_policy(t, y, params) for t in T_COLUMNS]
        else:
            try:
                grid = default_grid(params, probe_y=[y], **cfg.grid_kwargs)
                acc = LevelResidual(grid, params)
                _h0, pol = fixed_point_solve(grid, params, acc.take)
            except (DomainError, PositivityError, ConvergenceError) as exc:
                exc.args = (f"table block {cfg.table_block}, exp_y = {exp_y!r}: {exc}",)
                raise
            vals = [float(pol.value(t, y)) for t in T_COLUMNS]
            try:
                res = _residual_json(acc.norms())
            except DomainError:
                pass
        table[exp_y], residuals[str(exp_y)] = vals, res
        lines.append(f"{exp_y!r}," + ",".join(repr(v) for v in vals))

    csv_path = cfg.out_dir / f"table_{cfg.table_block.replace(',', '_')}.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    _json_dump(cfg.out_dir / f"table_{cfg.table_block.replace(',', '_')}.json",
               {"block": cfg.table_block, "t_columns": list(T_COLUMNS),
                "rows": {str(k): v for k, v in table.items()}, "residual": residuals})

    print(f"block {cfg.table_block}:")
    for exp_y in rows:
        cells = "  ".join(f"{v:7.3f}" for v in table[exp_y])
        res = residuals[str(exp_y)]
        note = "" if res is None else (f"  (residual rms {res['rms_rel_band']:.3g}, "
                                       f"max {res['max_rel_band']:.3g})")
        print(f"  exp_y={exp_y!r:>5}: {cells}{note}")
    return 0


def _check_in_hull(grid, points):
    """Reject (name, t, y) points outside the solved (t, y) hull of ``grid``.

    Raises DomainError naming the first such point and the hull.
    """
    t, y = grid.t_nodes, grid.y_nodes
    for name, t0, y0 in points:
        if not (t[0] <= t0 <= t[-1] and y[0] <= y0 <= y[-1]):
            raise DomainError(
                f"{name} (t = {t0!r}, exp_y = {float(np.exp(y0))!r}) lies outside "
                f"the solved grid: t in [{float(t[0])!r}, {float(t[-1])!r}], "
                f"exp_y in [{float(np.exp(y[0]))!r}, {float(np.exp(y[-1]))!r}]"
            )


def _check_reward_cover(grid, params, points):
    """Reject (name, t, y) reward probes whose quadrature reads beyond the slices.

    reward_quadrature reads ybar in mean +- QUAD_SD sd and would clamp it.
    """
    yb = grid.ybar_nodes
    for name, t0, y0 in points:
        mean, sd = grid.terminal_mean_sd(t0, y0, params)
        lo, hi = float(mean - QUAD_SD * sd), float(mean + QUAD_SD * sd)
        if lo < yb[0] or hi > yb[-1]:
            raise DomainError(
                f"{name} (t = {t0!r}, exp_y = {float(np.exp(y0))!r}): its reward quadrature "
                f"reads ybar in [{lo!r}, {hi!r}], outside the solved slices "
                f"[{float(yb[0])!r}, {float(yb[-1])!r}]")


def _level_reads(grid, points):
    """A level consumer that reads the factor at each (t, y) of ``points``.

    Returns (at, read): ``read`` takes the factor's levels in march order
    and fills at[n] with the factor on every slice at the n-th point.  A
    point is read when the lower of the two levels that bracket its t
    passes, by bilinear_interp on that pair alone: the bracket and weights
    of a read of the whole surface, so the same numbers bit for bit.
    """
    t = grid.t_nodes
    at = np.empty((len(points), grid.ybar_nodes.size))
    brackets = [int(_locate(t, t0, clip=False)[0]) for t0, _y0 in points]
    above, k = None, t.size

    def read(level):
        nonlocal above, k
        k -= 1
        for n, (t0, y0) in enumerate(points):
            if brackets[n] == k:
                pair = np.stack((level, above)).transpose(0, 2, 1)
                at[n] = bilinear_interp(t[k:k + 2], grid.y_nodes, pair, t0, y0)
        # Kept only while a read below still needs it.
        above = level if k - 1 in brackets else None

    return at, read


def cmd_verify(cfg: RunConfig) -> int:
    """Check solved surfaces (from ``out_dir``, else solved here) and write verify_report.json.

    The factor passes once, level by level in march order: read from the
    archive into pide.residual, or, when verify solves the surfaces itself,
    straight from the march into the same residual (LevelResidual).  As
    the levels pass, the factor is recorded at the g points and reward
    probes (_level_reads); the g rows and the reward quadrature are built
    from those reads.  The surface thus never sits in memory whole, and an
    archive that fails a check (its CRC-32 is checked as the last level is
    read) ends the command before a report is written.  ``phase_s`` times
    ``load`` (opening the archives: the grid, the hash and the policy
    surface) or ``solve`` (the march, with the residual's blocks and the
    reads), ``residual`` (the factor read and the whole residual when
    loaded, its norms when solved here), ``g_representation``, ``spike``
    and ``reward``.
    """
    vcfg = cfg.verify
    probes = cfg.probes or ((0.0, cfg.params.y0),)
    # The spike windows [t_spike, t_spike + delta) start at the first probe,
    # at most T - 1, and must end before T.
    T = cfg.params.T
    t_spike = max(0.0, min(probes[0][0], T - 1.0))
    end = t_spike + max(vcfg.spike_deltas)
    if not end < T:
        raise DomainError(f"verify: the spike window [{t_spike!r}, {end!r}] "
                          f"reaches T = {T!r}; smaller verify.spike_deltas may fit")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    reward_points = [(f"verify.reward_probes[{i}]", t0, y0)
                     for i, (t0, y0) in enumerate(vcfg.reward_probes)]
    points = [(f"probes[{i}]", t0, y0) for i, (t0, y0) in enumerate(probes)]

    h_path = cfg.out_dir / "h_surface.bin"
    p_path = cfg.out_dir / "policy_surface.bin"
    clock = [time.perf_counter()]
    loaded = h_path.exists() and p_path.exists()
    if loaded:
        grid, levels = load_h_surface(h_path, cfg.params)
        pol = load_policy_surface(p_path, cfg.params)
        if not all(np.array_equal(getattr(grid, f.name), getattr(pol.grid, f.name))
                   for f in fields(grid)):
            raise ConfigError(f"{h_path} and {p_path} hold surfaces on different grids")
    else:
        probe_ys = sorted({y for _t, y in probes + vcfg.reward_probes})
        grid = default_grid(cfg.params, probe_y=probe_ys, **cfg.grid_kwargs)
    _check_in_hull(grid, points + reward_points)
    _check_reward_cover(grid, cfg.params, reward_points)

    g_points = []
    for t0, y0 in probes:
        mean = grid.terminal_mean_sd(t0, y0, cfg.params)[0]
        ybar = float(grid.ybar_nodes[int(np.argmin(np.abs(grid.ybar_nodes - mean)))])
        g_points.append((t0, y0, ybar))
    # The factor's one pass also reads it at the g points and the reward
    # probes: after it, h_at[n] is the factor on every slice at the n-th of
    # these points.
    h_at, read = _level_reads(grid, [(t0, y0) for t0, y0, _yb in g_points]
                              + list(vcfg.reward_probes))
    if loaded:
        def reading(levels):
            for level in levels:
                read(level)
                yield level

        clock.append(time.perf_counter())
        res = residual(reading(levels), pol.pi, grid, cfg.params)
    else:
        acc = LevelResidual(grid, cfg.params)

        def take(level, pi_row):
            read(level)
            acc.take(level, pi_row)

        _h0, pol = fixed_point_solve(grid, cfg.params, take)
        clock.append(time.perf_counter())
        res = acc.norms()
    clock.append(time.perf_counter())

    bundle = {"residual": {
        "rms_rel_band": res.rms_rel_band, "max_rel_band": res.max_rel_band,
        "tol": vcfg.residual_tol, "pass": bool(res.rms_rel_band < vcfg.residual_tol),
    }}

    # The g points ride on the spike test's node-1 run, which draws stream 1.
    spike = equilibrium_spike_test(
        pol, t_spike, 1.0, probes[0][1], cfg.sim, cfg.params,
        deltas=vcfg.spike_deltas, perturbations=vcfg.spike_offsets,
        ybar_quadrature=_VERIFY_NODES, z_gate=vcfg.z_gate, riders=g_points,
    )
    clock.append(time.perf_counter())

    g_h = [ybar_blend(grid.ybar_nodes, at, ybar) for at, (_t, _y, ybar) in zip(h_at, g_points)]
    bundle["g_representation"] = g_rows = [{
        "t": rep.t0, "exp_y": float(np.exp(rep.y0)), "ybar": rep.ybar, "pde": rep.pde,
        "mc_conditioned": {"mean": rep.mean, "se": rep.se, "z": rep.z},
        "pass": bool(abs(rep.z) < vcfg.z_gate),
    } for rep in verify_g_representation_batch(g_h, g_points, 1.0, spike.rider_moments)]
    clock.append(time.perf_counter())

    reward_rows = []
    for (t0, y0), at in zip(vcfg.reward_probes, h_at[len(g_points):], strict=True):
        if (t0, y0) == (spike.t0, spike.y0):
            # Same point, nodes, seed and streams: the spike test's base run
            # is this estimate.
            j_mc, se = spike.j_base, spike.j_base_se
        else:
            est = reward_mc(pol, t0, 1.0, y0, cfg.sim, cfg.params,
                            ybar_quadrature=_VERIFY_NODES)
            j_mc, se = est.value, est.se
        j_qd = reward_quadrature(at, grid, t0, 1.0, y0, cfg.params, n_nodes=_VERIFY_NODES)
        z = z_score(j_mc - j_qd, se)
        reward_rows.append({"t": t0, "exp_y": float(np.exp(y0)), "j_mc": j_mc,
                            "se": se, "j_quadrature": j_qd, "z": z,
                            "pass": bool(abs(z) < vcfg.z_gate)})
    bundle["reward_crosscheck"] = reward_rows
    clock.append(time.perf_counter())

    bundle["spike_test"] = {
        "note": spike.note, "t0": t_spike,
        "j_base": spike.j_base, "j_base_se": spike.j_base_se,
        "rows": [{"delta": r.delta, "held": r.held, "spike": r.spike,
                  "quotient": r.quotient, "se": r.se, "pass": bool(r.passed)}
                 for r in spike.rows],
        "pass": bool(spike.all_passed),
    }
    if not spike.all_passed:
        bundle["spike_test"]["verdict"] = "not an equilibrium"

    first = "load" if loaded else "solve"
    phase_s = dict(zip((first, "residual", "spike", "g_representation", "reward"),
                       np.diff(clock).tolist()))
    bundle["phase_s"] = {key: phase_s[key] for key in
                         (first, "residual", "g_representation", "spike", "reward")}
    # One spike run per quadrature node, a lane per spike beside the base
    # policy's; the g points step on node 1's draws and draw none of their own.
    bundle["mc_work"] = {
        "g_representation": {**simulation_work(cfg.sim, n_starts=len(g_points)),
                             "normals": 0},
        "spike": simulation_work(cfg.sim, n_runs=_VERIFY_NODES,
                                 n_lanes=1 + len(spike.rows)),
    }
    passed = {key: bundle[key]["pass"] for key in ("residual", "spike_test")}
    passed.update(g_representation=all(r["pass"] for r in g_rows),
                  reward_crosscheck=all(r["pass"] for r in reward_rows))
    bundle["pass"] = all(passed.values())
    _json_dump(cfg.out_dir / "verify_report.json", bundle)
    for key, ok in passed.items():
        print(f"  {key}: {'pass' if ok else 'FAIL'}")
    print(f"verify: {'pass' if bundle['pass'] else 'FAIL'} "
          f"(report in {cfg.out_dir / 'verify_report.json'})")
    return 0 if bundle["pass"] else 1


def cmd_bridge_test(cfg: RunConfig) -> int:
    """Conditional-dynamics property checks (no factor solve involved)."""
    # Imported here, not at module level, where it would slow every
    # command's start-up by most of a second.
    from scipy import stats

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    params = cfg.params
    rng = np.random.default_rng(cfg.sim.seed)
    checks = {}

    # score vs finite difference of the log density
    worst = 0.0
    for _ in range(100):
        s = rng.uniform(0, 0.9 * params.T)
        y = params.y0 + rng.normal(0, 1)
        yb = y + params.mu_Y * (params.T - s) + rng.normal(0, 1)
        eps = 1e-5
        fd = (np.log(conditional.conditional_density(yb, s, y + eps, params))
              - np.log(conditional.conditional_density(yb, s, y - eps, params))) / (2 * eps)
        sc = conditional.score(s, y, yb, params)
        worst = max(worst, abs(fd - sc) / max(abs(sc), 1e-8))
    checks["score_fd_rel_err"] = {"value": worst, "tol": 1e-6, "pass": bool(worst < 1e-6)}

    # bridge-drift algebraic identity
    worst = 0.0
    for _ in range(100):
        s = rng.uniform(0, 0.99 * params.T)
        y = rng.normal(params.y0, 1)
        yb = rng.normal(params.y0, 1)
        lhs = conditional.bridge_drift_y(s, y, yb, params)
        rhs = params.mu_Y + params.sigma_Y**2 * conditional.score(s, y, yb, params)
        worst = max(worst, abs(lhs - rhs))
    checks["bridge_drift_identity"] = {"value": worst, "tol": 1e-12,
                                       "pass": bool(worst < 1e-12)}

    # bridge marginal moments at the midpoint
    ybar = params.y0 + params.mu_Y * params.T
    (batch,) = simulate_conditioned(0.0, [(0.0, params.y0, ybar, ())], 1.0, cfg.sim, params)
    mid = int(np.argmin(np.abs(batch.times - 0.5 * params.T)))
    s = batch.times[mid]
    frac = s / params.T
    mean_th = params.y0 + frac * (ybar - params.y0)
    var_th = params.sigma_Y**2 * s * (params.T - s) / params.T
    ym = batch.Y[:, mid]
    z_mean = (ym.mean() - mean_th) / (ym.std(ddof=1) / np.sqrt(ym.size))
    var_se = ym.var(ddof=1) * np.sqrt(2.0 / (ym.size - 1))
    z_var = (ym.var(ddof=1) - var_th) / var_se
    checks["bridge_midpoint_mean"] = {"z": float(z_mean), "pass": bool(abs(z_mean) < 3)}
    checks["bridge_midpoint_var"] = {"z": float(z_var), "pass": bool(abs(z_var) < 3)}

    # terminal pinning: the exact bridge step lands on ybar up to rounding
    miss = float(np.max(np.abs(batch.Y[:, -1] - ybar)))
    checks["terminal_pinning"] = {"max_abs_miss": miss, "tol": 1e-12,
                                  "pass": bool(miss <= 1e-12)}

    # rho = 0: conditioning leaves the wealth law unchanged (constant policy)
    p0 = replace(params, rho=0.0)
    (bu,) = simulate_unconditional(0.3, [(0.0, p0.y0)], 1.0, cfg.sim, p0, store="terminal")
    (bc,) = simulate_conditioned(0.3, [(0.0, p0.y0, ybar, ())], 1.0, cfg.sim, p0,
                                 store="terminal", stream=5)
    ks = stats.ks_2samp(np.log(bu.X[:, -1]), np.log(bc.X[:, -1]))
    checks["rho0_wealth_law"] = {"ks_pvalue": float(ks.pvalue),
                                 "pass": bool(ks.pvalue > 0.01)}

    ok = all(c["pass"] for c in checks.values())
    _json_dump(cfg.out_dir / "bridge_report.json", {"checks": checks, "pass": ok})
    for name, c in checks.items():
        print(f"  {name}: {'pass' if c['pass'] else 'FAIL'}")
    print(f"bridge-test: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="prefhedge",
        description=("Equilibrium investment fractions under stochastically "
                     "evolving CRRA risk aversion."),
    )
    parser.add_argument("command", choices=["solve", "table", "verify", "bridge-test"])
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed-override", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.from_file(args.config, seed_override=args.seed_override,
                                  out_override=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    handlers = {
        "solve": cmd_solve,
        "table": cmd_table,
        "verify": cmd_verify,
        "bridge-test": cmd_bridge_test,
    }
    try:
        return handlers[args.command](cfg)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PositivityError, ConvergenceError) as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
