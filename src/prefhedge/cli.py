"""Command-line orchestration: solve, table, verify, bridge-test.

A single JSON config file fully determines a run, seeds included, so every
number the tool emits is reproducible, except the wall-clock phase times
(``phase_s`` in ``solve_summary.json`` and ``verify_report.json``, and
``sweep_s``, the split of the solve inside the backward sweep, in
``solve_summary.json``).
Parsing is fail-closed: unknown keys and invalid parameter values are
rejected with the violated invariant named.  Machine-readable outputs carry
full float precision (shortest round-trip representation); console
summaries are rounded for reading.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import conditional
from .equilibrium import (
    FixedPointConfig,
    _closed_everywhere,
    _layer_hedging,
    closed_form_policy_rho0,
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
    verify_g_representation_batch,
    z_score,
)
from .model import ModelParams
from .persist import (
    load_h_surface,
    load_policy_surface,
    save_h_surface,
    save_policy_surface,
)
from .pide import QUAD_SD, default_grid, residual

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

# Keys of the numeric sections -> (type of the JSON value, least value).
_PARAM_KEYS = {k: (float, None)
               for k in ("r", "mu_S", "sigma_S", "rho", "mu_Y", "sigma_Y", "T", "y0")}
_GRID_KEYS = {"n_t_steps": (int, 1), "n_y": (int, 1), "n_ybar": (int, 1),
              "n_gh": (int, 1), "ybar_pad_sd": (float, 3.0), "eps_T": (float, None)}
_FP_KEYS = {"max_iters": (int, None), "tol_sup": (float, None)}
_SIM_KEYS = {"n_paths": (int, None), "n_steps": (int, None), "seed": (int, None),
             "antithetic": (bool, None)}
_PROBE_KEYS = {"t": (float, None), "exp_y": (float, None)}
_TOP_KEYS = {"params", "grid", "fixed_point", "sim", "probes",
             "table_block", "out_dir", "verify"}
_VERIFY_KEYS = {"residual_tol", "z_gate", "spike_deltas", "spike_offsets",
                "reward_probes"}
_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false"}
# Terminal-state quadrature nodes of verify's reward estimates.
_VERIFY_NODES = 11


def _config_section(section, mapping, allowed):
    """Copy of a config object, checked against its allowed keys.

    Where ``allowed`` maps each key to (type, least value), a value of the
    wrong JSON type or below its least value is rejected too, and so is a
    NaN or infinite number (Python's json reads NaN and Infinity).
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
            kind, least = allowed[key]
            # JSON true/false load as bool, a subclass of int.
            ok = (isinstance(value, (int, float) if kind is float else kind)
                  and isinstance(value, bool) == (kind is bool)
                  and _is_finite(value)
                  and (least is None or value >= least))
            if not ok:
                bound = "" if least is None else f" >= {least}"
                raise ConfigError(
                    f"{section}.{key} must be {_KIND_NAMES[kind]}{bound}, got {value!r}"
                )
    return dict(mapping)


def _is_finite(value):
    # JSON integers are finite however large; math.isfinite cannot take the
    # largest of them.
    return not isinstance(value, float) or math.isfinite(value)


def _is_number(value):
    """A finite JSON number (not true or false)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and _is_finite(value))


def _probe_list(section, probes, T):
    """A list of {"t", "exp_y"} objects with t in [0, T] and exp_y > 0."""
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
    return probes


def _verify_section(mapping, T):
    """The verify section, each value checked as cmd_verify will use it."""
    verify = _config_section("verify", mapping, _VERIFY_KEYS)
    for key in ("residual_tol", "z_gate"):
        if key in verify and not _is_number(verify[key]):
            raise ConfigError(
                f"verify.{key} must be a finite number, got {verify[key]!r}")
    for key in ("spike_deltas", "spike_offsets"):
        value = verify.get(key)
        if key in verify and not (isinstance(value, list) and value
                                  and all(_is_number(v) and v > 0 for v in value)):
            raise ConfigError(
                f"verify.{key} must be a non-empty list of positive finite numbers, "
                f"got {value!r}"
            )
    _probe_list("verify.reward_probes", verify.get("reward_probes", []), T)
    return verify


@dataclass
class RunConfig:
    """Everything a run needs, parsed and validated."""

    params: ModelParams
    grid_kwargs: dict = field(default_factory=dict)
    fixed_point: FixedPointConfig = field(default_factory=FixedPointConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    probes: tuple = ()
    table_block: str | None = None
    out_dir: Path = Path(".")
    verify: dict = field(default_factory=dict)

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
            params = ModelParams(**_config_section("params", raw["params"], _PARAM_KEYS))
        except DomainError as exc:
            raise ConfigError(f"invalid params: {exc}") from exc
        except TypeError as exc:
            raise ConfigError(f"params section incomplete: {exc}") from exc

        grid_kwargs = _config_section("grid", raw.get("grid", {}), _GRID_KEYS)
        fp_kwargs = _config_section("fixed_point", raw.get("fixed_point", {}), _FP_KEYS)
        try:
            fixed_point = FixedPointConfig(**fp_kwargs)
        except DomainError as exc:
            raise ConfigError(f"invalid fixed_point: {exc}") from exc

        sim_kwargs = _config_section("sim", raw.get("sim", {}), _SIM_KEYS)
        if seed_override is not None:
            sim_kwargs["seed"] = int(seed_override)
        try:
            sim = SimConfig(**sim_kwargs)
        except DomainError as exc:
            raise ConfigError(f"invalid sim: {exc}") from exc

        probes = [(float(p["t"]), float(np.log(p["exp_y"])))
                  for p in _probe_list("probes", raw.get("probes", []), params.T)]

        block = raw.get("table_block")
        if block is not None and block not in TABLE_BLOCKS:
            raise ConfigError(
                f"unknown table_block {block!r}; known: {sorted(TABLE_BLOCKS)}"
            )

        verify = _verify_section(raw.get("verify", {}), params.T)

        out_dir = Path(out_override or raw.get("out_dir", "."))
        return cls(params=params, grid_kwargs=grid_kwargs, fixed_point=fixed_point,
                   sim=sim, probes=tuple(probes), table_block=block,
                   out_dir=out_dir, verify=verify)


def _block_params(base: ModelParams, block: str) -> ModelParams:
    mu_spec, rho, _rows = TABLE_BLOCKS[block]
    mu_Y = 0.5 * base.sigma_Y**2 if mu_spec == "0.5s2" else float(mu_spec)
    return ModelParams(r=base.r, mu_S=base.mu_S, sigma_S=base.sigma_S,
                       rho=rho, mu_Y=mu_Y, sigma_Y=base.sigma_Y,
                       T=base.T, y0=base.y0)


def _closed_form(t, y, params):
    """The equilibrium fraction where it is closed at every level (rho**2 in {0, 1})."""
    return closed_form_policy_rho0(t, y, params) + _layer_hedging(t, y, params)


def _json_dump(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2, default=float) + "\n")


def cmd_solve(cfg: RunConfig) -> int:
    probe_ys = sorted({y for _t, y in cfg.probes}) or [cfg.params.y0]
    grid = default_grid(cfg.params, probe_y=probe_ys, **cfg.grid_kwargs)
    _check_in_hull(grid, [(f"probes[{i}]", t, y) for i, (t, y) in enumerate(cfg.probes)])
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    clock = [time.perf_counter()]
    h, pol = fixed_point_solve(grid, cfg.params, cfg.fixed_point)
    clock.append(time.perf_counter())
    res = residual(h, pol, grid, cfg.params)
    clock.append(time.perf_counter())
    save_h_surface(cfg.out_dir / "h_surface.bin", h, cfg.params)
    save_policy_surface(cfg.out_dir / "policy_surface.bin", pol, cfg.params)
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
            cf = _closed_form(t, y, cfg.params)
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
        "residual": {
            "max_rel_band": res.max_rel_band, "rms_rel_band": res.rms_rel_band,
            "worst": dict(zip(("t", "y", "ybar"), res.worst)),
        },
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
    exp_y, and no table is written.
    """
    if cfg.table_block is None:
        raise ConfigError("cmd_table needs 'table_block' in the config")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    params = _block_params(cfg.params, cfg.table_block)
    _mu, rho, rows = TABLE_BLOCKS[cfg.table_block]

    lines = ["exp_y," + ",".join(f"t={t:g}" for t in T_COLUMNS)]
    table = {}
    for exp_y in rows:
        y = float(np.log(exp_y))
        if _closed_everywhere(rho):
            vals = [_closed_form(t, y, params) for t in T_COLUMNS]
        else:
            try:
                grid = default_grid(params, probe_y=[y], **cfg.grid_kwargs)
                _h, pol = fixed_point_solve(grid, params, cfg.fixed_point)
            except (DomainError, PositivityError, ConvergenceError) as exc:
                exc.args = (f"table block {cfg.table_block}, exp_y = {exp_y!r}: {exc}",)
                raise
            vals = [float(pol.value(t, y)) for t in T_COLUMNS]
        table[exp_y] = vals
        lines.append(f"{exp_y!r}," + ",".join(repr(v) for v in vals))

    csv_path = cfg.out_dir / f"table_{cfg.table_block.replace(',', '_')}.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    _json_dump(cfg.out_dir / f"table_{cfg.table_block.replace(',', '_')}.json",
               {"block": cfg.table_block, "t_columns": list(T_COLUMNS),
                "rows": {str(k): v for k, v in table.items()}})

    print(f"block {cfg.table_block}:")
    for exp_y in rows:
        cells = "  ".join(f"{v:7.3f}" for v in table[exp_y])
        print(f"  exp_y={exp_y!r:>5}: {cells}")
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


def cmd_verify(cfg: RunConfig) -> int:
    vcfg = cfg.verify
    probes = cfg.probes or ((0.0, cfg.params.y0),)
    # The spike windows [t_spike, t_spike + delta) start at the first probe,
    # at most T - 1, and must end before T.
    T = cfg.params.T
    t_spike = max(0.0, min(probes[0][0], T - 1.0))
    deltas = tuple(vcfg.get("spike_deltas", (0.5, 0.25, 0.125)))
    if not t_spike + max(deltas) < T:
        raise DomainError(f"verify: the spike window [{t_spike!r}, {t_spike + max(deltas)!r}] "
                          f"reaches T = {T!r}; smaller verify.spike_deltas may fit")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    reward_probes = vcfg.get("reward_probes",
                             [{"t": 0.0, "exp_y": float(np.exp(cfg.params.y0))}])
    reward_points = [(f"verify.reward_probes[{i}]", float(p["t"]), float(np.log(p["exp_y"])))
                     for i, p in enumerate(reward_probes)]
    points = [(f"probes[{i}]", t0, y0) for i, (t0, y0) in enumerate(probes)]

    h_path = cfg.out_dir / "h_surface.bin"
    p_path = cfg.out_dir / "policy_surface.bin"
    clock = [time.perf_counter()]
    loaded = h_path.exists() and p_path.exists()
    if loaded:
        h = load_h_surface(h_path, cfg.params)
        pol = load_policy_surface(p_path, cfg.params)
        grid = h.grid
    else:
        probe_ys = sorted({y for _t, y in probes} | {y for _n, _t, y in reward_points})
        grid = default_grid(cfg.params, probe_y=probe_ys, **cfg.grid_kwargs)
    _check_in_hull(grid, points + reward_points)
    _check_reward_cover(grid, cfg.params, reward_points)
    if not loaded:
        h, pol = fixed_point_solve(grid, cfg.params, cfg.fixed_point)

    z_gate = float(vcfg.get("z_gate", 3.0))
    res_tol = float(vcfg.get("residual_tol", 1e-4))
    bundle = {}
    hard_fail = False

    clock.append(time.perf_counter())
    res = residual(h, pol, grid, cfg.params)
    clock.append(time.perf_counter())
    res_pass = res.rms_rel_band < res_tol
    bundle["residual"] = {
        "rms_rel_band": res.rms_rel_band, "max_rel_band": res.max_rel_band,
        "tol": res_tol, "pass": bool(res_pass),
    }
    hard_fail |= not res_pass

    g_points = []
    for t0, y0 in probes:
        mean = y0 + cfg.params.mu_Y * (cfg.params.T - t0)
        ybar = float(grid.ybar_nodes[int(np.argmin(np.abs(grid.ybar_nodes - mean)))])
        g_points.append((t0, y0, ybar))
    g_rows = []
    for rep in verify_g_representation_batch(h, pol, g_points, 1.0, cfg.sim, cfg.params):
        ok = abs(rep.conditioned.z) < z_gate
        g_rows.append({
            "t": rep.t0, "exp_y": float(np.exp(rep.y0)), "ybar": rep.ybar,
            "pde": rep.pde,
            "mc_conditioned": {"mean": rep.conditioned.mean,
                               "se": rep.conditioned.se, "z": rep.conditioned.z},
            "pass": bool(ok),
        })
        hard_fail |= not ok
    bundle["g_representation"] = g_rows
    clock.append(time.perf_counter())

    spike = equilibrium_spike_test(
        pol, t_spike, 1.0, probes[0][1], cfg.sim, cfg.params, deltas=deltas,
        perturbations=tuple(vcfg.get("spike_offsets", (0.05, 0.1, 0.2))),
        ybar_quadrature=_VERIFY_NODES, z_gate=z_gate,
    )
    clock.append(time.perf_counter())

    reward_rows = []
    for probe in reward_probes:
        t0 = float(probe["t"])
        y0 = float(np.log(probe["exp_y"]))
        if (t0, y0) == (spike.t0, spike.y0):
            # Same point, nodes, seed and streams: the spike test's base run
            # is this estimate.
            j_mc, se = spike.j_base, spike.j_base_se
        else:
            est = reward_mc(pol, t0, 1.0, y0, cfg.sim, cfg.params,
                            ybar_quadrature=_VERIFY_NODES)
            j_mc, se = est.value, est.se
        j_qd = reward_quadrature(h, t0, 1.0, y0, cfg.params, n_nodes=_VERIFY_NODES)
        z = z_score(j_mc - j_qd, se)
        ok = abs(z) < z_gate
        reward_rows.append({"t": t0, "exp_y": probe["exp_y"], "j_mc": j_mc,
                            "se": se, "j_quadrature": j_qd, "z": z,
                            "pass": bool(ok)})
        hard_fail |= not ok
    bundle["reward_crosscheck"] = reward_rows
    clock.append(time.perf_counter())

    bundle["spike_test"] = {
        "note": spike.note, "t0": t_spike,
        "j_base": spike.j_base, "j_base_se": spike.j_base_se,
        "rows": [{"delta": r.delta, "spike": r.spike, "quotient": r.quotient,
                  "se": r.se, "pass": bool(r.passed)} for r in spike.rows],
        "pass": bool(spike.all_passed),
    }
    if not spike.all_passed:
        bundle["spike_test"]["verdict"] = "not an equilibrium"
        hard_fail = True

    phases = ("load" if loaded else "solve", "residual", "g_representation",
              "spike", "reward")
    bundle["phase_s"] = dict(zip(phases, np.diff(clock).tolist()))
    bundle["pass"] = not hard_fail
    _json_dump(cfg.out_dir / "verify_report.json", bundle)
    for key in ("residual", "spike_test"):
        print(f"  {key}: {'pass' if bundle[key]['pass'] else 'FAIL'}")
    print(f"  g_representation: "
          f"{'pass' if all(r['pass'] for r in g_rows) else 'FAIL'}")
    print(f"  reward_crosscheck: "
          f"{'pass' if all(r['pass'] for r in reward_rows) else 'FAIL'}")
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
    batch = simulate_conditioned(0.0, 0.0, 1.0, params.y0, ybar, cfg.sim, params)
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
    p0 = ModelParams(r=params.r, mu_S=params.mu_S, sigma_S=params.sigma_S,
                     rho=0.0, mu_Y=params.mu_Y, sigma_Y=params.sigma_Y,
                     T=params.T, y0=params.y0)
    bu = simulate_unconditional(0.3, 0.0, 1.0, p0.y0, cfg.sim, p0, store="terminal")
    bc = simulate_conditioned(0.3, 0.0, 1.0, p0.y0, ybar, cfg.sim, p0,
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
