import dataclasses
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prefhedge
from prefhedge.cli import RunConfig, TABLE_BLOCKS, VerifyConfig, main
from prefhedge.errors import ConfigError
from prefhedge.mc import SimConfig
from prefhedge.model import ModelParams
from prefhedge.persist import load_policy_surface
from prefhedge.pide import default_grid

BASE = {
    "params": {"r": 0.02, "mu_S": 0.07, "sigma_S": 0.2, "rho": 0.0,
               "mu_Y": 0.02, "sigma_Y": 0.04, "T": 40.0, "y0": float(np.log(2.0))},
}


def test_public_names_resolve():
    for name in prefhedge.__all__:
        assert hasattr(prefhedge, name), name


def report_without_timings(out):
    """verify_report.json without its wall-clock phase times."""
    report = json.loads((out / "verify_report.json").read_text())
    del report["phase_s"]
    return report


def write_config(tmp_path, extra=None, name="cfg.json"):
    cfg = json.loads(json.dumps(BASE))
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfigParsing:
    def test_minimal_config(self, tmp_path):
        cfg = RunConfig.from_file(write_config(tmp_path))
        assert cfg.params.T == 40.0

    def test_unknown_top_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"surprise": 1})
        with pytest.raises(ConfigError, match="surprise"):
            RunConfig.from_file(path)

    def test_unknown_param_key_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(BASE))
        cfg["params"]["volatility"] = 0.3
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="volatility"):
            RunConfig.from_file(path)

    def test_invalid_parameter_names_invariant(self, tmp_path):
        cfg = json.loads(json.dumps(BASE))
        cfg["params"]["sigma_S"] = -0.2
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="sigma_S"):
            RunConfig.from_file(path)

    def test_unknown_block_rejected(self, tmp_path):
        path = write_config(tmp_path, {"table_block": "0.03,0.6"})
        with pytest.raises(ConfigError, match="table_block"):
            RunConfig.from_file(path)

    def test_probe_validation(self, tmp_path):
        path = write_config(tmp_path, {"probes": [{"t": -1.0, "exp_y": 2.0}]})
        with pytest.raises(ConfigError, match="probes"):
            RunConfig.from_file(path)

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path, {"sim": {"seed": 1}})
        cfg = RunConfig.from_file(path, seed_override=99)
        assert cfg.sim.seed == 99

    def test_unknown_fixed_point_key_rejected(self, tmp_path):
        # The fixed-point tolerance and cap are constants of the solver, so
        # a fixed_point section is an unknown top-level key, whatever it holds.
        path = write_config(tmp_path, {"fixed_point": {"damping": 0.5}})
        with pytest.raises(ConfigError, match=r"in top level: \['fixed_point'\]"):
            RunConfig.from_file(path)

    def test_every_field_and_keyword_round_trips(self, tmp_path):
        # Each section takes its keys from the type it feeds: every field of
        # ModelParams and SimConfig and every annotated keyword of
        # default_grid is read from the config and arrives as written.
        def moved(value):
            if isinstance(value, bool):
                return not value
            return value + (2 if isinstance(value, int) else 0.5)

        base = ModelParams(**BASE["params"])
        params = {f.name: getattr(base, f.name) + 0.01 for f in dataclasses.fields(ModelParams)}
        grid = {name: moved(p.default)
                for name, p in inspect.signature(default_grid).parameters.items()
                if p.annotation in ("int", "float", "bool")}
        sim = {f.name: moved(f.default) for f in dataclasses.fields(SimConfig)}
        assert set(grid) == set(inspect.signature(default_grid).parameters) - {"params", "probe_y"}
        cfg = RunConfig.from_file(write_config(
            tmp_path, {"params": params, "grid": grid, "sim": sim}))
        assert dataclasses.asdict(cfg.params) == params
        assert cfg.grid_kwargs == grid
        assert dataclasses.asdict(cfg.sim) == sim

    @pytest.mark.parametrize("extra,key", [
        ({"grid": {"n_gh": 0}}, "grid.n_gh"),
        ({"grid": {"n_y": "abc"}}, "grid.n_y"),
        ({"grid": {"n_ybar": True}}, "grid.n_ybar"),
        # Settings that are constants of the solver are unknown keys.
        ({"fixed_point": {"max_iters": 30}}, "fixed_point"),
        ({"sim": {"n_paths": "x"}}, "sim.n_paths"),
        ({"sim": {"seed": -1}}, "seed"),
        ({"probes": [{"t": "0", "exp_y": 2.0}]}, "probes[0].t"),
        ({"grid": {"ybar_pad_sd": 2.9}}, "grid.ybar_pad_sd"),
        # json reads the literals NaN and Infinity; they are no valid values.
        ({"params": {**BASE["params"], "T": float("inf")}}, "params.T"),
        ({"grid": {"ybar_pad_sd": float("inf")}}, "grid.ybar_pad_sd"),
        # The grid's terminal offset is fixed at 1e-3 T: an unknown key.
        ({"grid": {"eps_T": 0.04}}, "eps_T"),
        # default_grid's y spacing divides by n_y - 1; the slices must increase.
        ({"grid": {"n_y": 1}}, "grid.n_y"),
        ({"grid": {"n_ybar": 1}}, "grid.n_ybar"),
    ])
    def test_mistyped_value_is_config_error(self, tmp_path, capsys, extra, key):
        path = write_config(tmp_path, extra)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("verify,key", [
        ({"z_gate": "x"}, "verify.z_gate"),
        ({"residual_tol": None}, "verify.residual_tol"),
        ({"z_gate": True}, "verify.z_gate"),
        ({"spike_deltas": ["a"]}, "verify.spike_deltas"),
        ({"spike_deltas": []}, "verify.spike_deltas"),
        ({"spike_deltas": 0.5}, "verify.spike_deltas"),
        ({"spike_offsets": [0.1, -0.1]}, "verify.spike_offsets"),
        ({"spike_offsets": [0]}, "verify.spike_offsets"),
        ({"reward_probes": {"t": 0.0, "exp_y": 2.0}}, "verify.reward_probes"),
        ({"reward_probes": [3]}, "verify.reward_probes[0]"),
        ({"reward_probes": [{"t": 41.0, "exp_y": 2.0}]}, "verify.reward_probes[0]"),
        ({"reward_probes": [{"t": 0.0, "exp_y": 0}]}, "verify.reward_probes[0]"),
        ({"reward_probes": [{"t": 0.0}]}, "verify.reward_probes[0]"),
        ({"reward_probes": [{"t": "0", "exp_y": 2.0}]}, "verify.reward_probes[0].t"),
        ({"z_gate": float("nan")}, "verify.z_gate"),
        ({"residual_tol": float("inf")}, "verify.residual_tol"),
        ({"spike_deltas": [0.5, float("inf")]}, "verify.spike_deltas"),
    ])
    def test_mistyped_verify_value_is_config_error(self, tmp_path, capsys, verify, key):
        path = write_config(tmp_path, {"verify": verify})
        assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "h_surface.bin").exists()

    def test_verify_section_accepts_numbers_and_lists(self, tmp_path):
        verify = {"z_gate": 3, "residual_tol": 1e-3, "spike_deltas": [1, 0.5],
                  "spike_offsets": [0.1], "reward_probes": [{"t": 40, "exp_y": 1}]}
        cfg = RunConfig.from_file(write_config(tmp_path, {"verify": verify}))
        assert cfg.verify == VerifyConfig(
            reward_probes=((40.0, 0.0),), residual_tol=1e-3, z_gate=3.0,
            spike_deltas=(1.0, 0.5), spike_offsets=(0.1,))
        # Left out, each takes its default; the one reward probe is (0, y0).
        cfg = RunConfig.from_file(write_config(tmp_path))
        assert cfg.verify == VerifyConfig(
            reward_probes=((0.0, BASE["params"]["y0"]),), residual_tol=1e-4, z_gate=3.0,
            spike_deltas=(0.5, 0.25, 0.125), spike_offsets=(0.05, 0.1, 0.2))

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b'{"params": "\xff\xfe"}')
        with pytest.raises(ConfigError, match="cfg.json"):
            RunConfig.from_file(path)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "cfg.json" in capsys.readouterr().err

    def test_all_table_blocks_known(self):
        assert len(TABLE_BLOCKS) == 12


class TestCommands:
    def test_solve_rho0_verifies_closed_form(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "grid": {"n_t_steps": 80, "n_y": 81, "n_ybar": 9},
            "probes": [{"t": 0.0, "exp_y": 2.0}, {"t": 35.0, "exp_y": 2.0}],
        })
        rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
        assert summary["closed_form_verified"] is True
        assert summary["converged"] is True
        assert summary["probes"][0]["pi"] == pytest.approx(0.272, abs=1e-3)
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "h_surface.bin", "policy_surface.bin", "solve_summary.json"]

    def test_policy_archive_reads_with_plain_numpy(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, {
            "params": {**BASE["params"], "rho": 0.6},
            "grid": {"n_t_steps": 40, "n_y": 61, "n_ybar": 7, "n_gh": 9},
        })
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        pol = load_policy_surface(out / "policy_surface.bin")
        with np.load(out / "policy_surface.bin") as z:
            assert np.array_equal(z["t_nodes"], pol.grid.t_nodes)
            assert np.array_equal(z["y_nodes"], pol.grid.y_nodes)
            for name in ("pi", "myopic", "hedging"):
                assert np.array_equal(z[name], getattr(pol, name))
            assert np.array_equal(z["pi"], z["myopic"] + z["hedging"])
        phase_s = json.loads((out / "solve_summary.json").read_text())["phase_s"]
        assert list(phase_s) == ["solve", "residual", "save"]
        assert all(v >= 0 for v in phase_s.values())

    @pytest.mark.parametrize("rho", [0.0, 0.6])
    def test_solve_summary_reports_map_evals(self, tmp_path, capsys, rho):
        out = tmp_path / "out"
        path = write_config(tmp_path, {
            "params": {**BASE["params"], "rho": rho},
            "grid": {"n_t_steps": 40, "n_y": 61, "n_ybar": 7, "n_gh": 9},
        })
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "solve_summary.json").read_text())
        evals = summary["map_evals"]
        hist = {int(n): count for n, count in evals["histogram"].items()}
        assert evals["total"] == sum(n * count for n, count in hist.items())
        printed = capsys.readouterr().out
        if rho == 0.0:
            assert evals == {"histogram": {}, "total": 0, "t_worst": None}
            assert (summary["iterations"], summary["sup_changes"]) == (0, [])
            assert "no level iterated" in printed and "map evaluation" not in printed
        else:
            assert max(hist) == summary["iterations"] == len(summary["sup_changes"])
            assert 0.0 <= evals["t_worst"] < 40.0
            assert f"at most {summary['iterations']} map evaluation(s)" in printed
        sweep_s = summary["sweep_s"]
        assert list(sweep_s) == ["prepare", "march", "hedging", "anderson"]
        assert all(v >= 0 for v in sweep_s.values())
        assert sum(sweep_s.values()) <= summary["phase_s"]["solve"]
        assert sweep_s["prepare"] > 0 and sweep_s["march"] > 0
        # rho = 0 marches each level once, with no hedging row to settle.
        assert (sweep_s["hedging"] > 0) == (rho != 0.0)
        if rho == 0.0:
            assert sweep_s["anderson"] == 0.0

    def test_solve_summary_is_strict_json(self, tmp_path):
        # At (0.02, 1, e^y = 4) the whole-grid residual norms overflowed to
        # Infinity, which strict JSON parsers reject; the band norms and
        # the worst band node are finite.
        out = tmp_path / "out"
        path = write_config(tmp_path, {
            "params": {**BASE["params"], "rho": 1.0, "y0": float(np.log(4.0))},
            "grid": self.GRID, "probes": [{"t": 0.0, "exp_y": 4.0}],
        })
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0

        def refuse(name):
            raise ValueError(f"not strict JSON: {name}")

        text = (out / "solve_summary.json").read_text()
        residual = json.loads(text, parse_constant=refuse)["residual"]
        assert list(residual) == ["max_rel_band", "rms_rel_band", "worst"]
        assert list(residual["worst"]) == ["t", "y", "ybar"]

    def test_verify_spike_start_is_clamped_at_zero(self, tmp_path):
        # With T = 0.5 the start min(t0, T - 1) is negative: the spike test
        # runs from t = 0 instead, and the report says so.
        params = {**BASE["params"], "rho": 0.6, "T": 0.5}
        path = write_config(tmp_path, {
            "params": params, "grid": self.GRID,
            "sim": {"n_paths": 200, "n_steps": 20, "seed": 7},
            "verify": {"spike_deltas": [0.25], "spike_offsets": [0.1]}})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--out", str(out)]) in (0, 1)
        report = json.loads((out / "verify_report.json").read_text())
        assert report["spike_test"]["t0"] == 0.0
        assert report["reward_crosscheck"][0]["j_mc"] == report["spike_test"]["j_base"]

    @pytest.mark.parametrize("T,deltas", [(0.5, None), (40.0, [1.0])])
    def test_verify_refuses_spike_window_reaching_T_first(
            self, tmp_path, monkeypatch, capsys, T, deltas):
        # The window [t0, t0 + max delta) must end before T.  The refusal
        # comes before any load, solve or simulation, even with surfaces on
        # disk.
        import prefhedge.cli as cli

        out = tmp_path / "out"
        out.mkdir()
        for name in ("h_surface.bin", "policy_surface.bin"):
            (out / name).write_bytes(b"")
        runs = []
        for fn in ("load_h_surface", "load_policy_surface", "default_grid",
                   "fixed_point_solve", "residual", "verify_g_representation_batch",
                   "equilibrium_spike_test", "reward_mc"):
            monkeypatch.setattr(cli, fn, lambda *a, _fn=fn, **k: runs.append(_fn))
        monkeypatch.setattr(prefhedge.mc, "_simulate",
                            lambda *a, **k: runs.append("_simulate"))
        verify = {} if deltas is None else {"spike_deltas": deltas}
        probes = [{"t": 39.0, "exp_y": 2.0}] if T == 40.0 else []
        path = write_config(tmp_path, {"params": {**BASE["params"], "T": T},
                                       "probes": probes, "verify": verify})
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
        assert runs == []
        assert "spike window" in capsys.readouterr().err
        assert not (out / "verify_report.json").exists()

    GRID = {"n_t_steps": 40, "n_y": 61, "n_ybar": 7, "n_gh": 9}
    OUTSIDE = [
        ("probes", {"t": 39.99, "exp_y": 2.0}, "probes[0]"),
        ("reward_probes", {"t": 39.99, "exp_y": 2.0}, "verify.reward_probes[0]"),
        ("reward_probes", {"t": 0.0, "exp_y": 1e4}, "verify.reward_probes[0]"),
    ]

    def _outside_config(self, tmp_path, where, probe):
        extra = {"params": {**BASE["params"], "rho": 0.6}, "grid": self.GRID,
                 "probes": [{"t": 0.0, "exp_y": 2.0}],
                 "sim": {"n_paths": 200, "n_steps": 20, "seed": 7},
                 "verify": {"spike_deltas": [0.5], "spike_offsets": [0.1]}}
        if where == "probes":
            extra["probes"] = [probe]
        else:
            extra["verify"]["reward_probes"] = [probe]
        return write_config(tmp_path, extra)

    @pytest.mark.parametrize("where,probe,name", OUTSIDE)
    def test_verify_rejects_probe_outside_grid_before_solving(
            self, tmp_path, monkeypatch, capsys, where, probe, name):
        # The last time node is T - eps_T = 39.96: a probe at t = 39.99 passes
        # the config check (t <= T) but no solved surface covers it.
        import prefhedge.cli as cli

        solves = []
        monkeypatch.setattr(cli, "fixed_point_solve", lambda *a, **k: solves.append(a))
        path = self._outside_config(tmp_path, where, probe)
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert solves == []
        err = capsys.readouterr().err
        if probe["exp_y"] == 1e4:
            # verify builds its slices around the reward probes too, and
            # there the factor budget refuses them.
            assert "budget estimate" in err
        else:
            assert name in err and "outside the solved grid" in err and "39.96" in err

    def test_verify_slices_cover_reward_probes(self, tmp_path, monkeypatch):
        # Probes at exp_y = 2, the default reward probe at y0 = 0: the
        # reward quadrature's nodes lie inside the slices verify solves.
        import prefhedge.cli as cli
        from prefhedge.pide import QUAD_SD

        class Solved(Exception):
            pass

        def stop(grid, *a, **k):
            raise Solved(grid)

        monkeypatch.setattr(cli, "fixed_point_solve", stop)
        params = {**BASE["params"], "rho": 0.6, "y0": 0.0}
        path = write_config(tmp_path, {"params": params, "grid": self.GRID,
                                       "probes": [{"t": 0.0, "exp_y": 2.0}]})
        with pytest.raises(Solved) as exc:
            main(["verify", "--config", str(path), "--out", str(tmp_path / "out")])
        grid = exc.value.args[0]
        mean, sd = grid.terminal_mean_sd(0.0, 0.0, RunConfig.from_file(path).params)
        assert grid.ybar_nodes[0] <= mean - QUAD_SD * sd
        assert mean + QUAD_SD * sd <= grid.ybar_nodes[-1]

    def test_solve_rejects_probe_outside_grid_before_solving(
            self, tmp_path, monkeypatch, capsys):
        import prefhedge.cli as cli

        solves = []
        monkeypatch.setattr(cli, "fixed_point_solve", lambda *a, **k: solves.append(a))
        path = self._outside_config(tmp_path, "probes", {"t": 39.99, "exp_y": 2.0})
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert solves == []
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert "probes[0]" in err and "outside the solved grid" in err and "39.96" in err

    @pytest.mark.parametrize("where,probe,name", OUTSIDE)
    def test_verify_rejects_probe_outside_loaded_grid_before_simulating(
            self, tmp_path, monkeypatch, capsys, where, probe, name):
        import prefhedge.cli as cli

        out = tmp_path / "out"
        path = write_config(tmp_path, {"params": {**BASE["params"], "rho": 0.6},
                                       "grid": self.GRID})
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        runs = []
        for fn in ("residual", "verify_g_representation_batch", "equilibrium_spike_test",
                   "reward_mc", "fixed_point_solve"):
            monkeypatch.setattr(cli, fn, lambda *a, _fn=fn, **k: runs.append(_fn))
        monkeypatch.setattr(prefhedge.mc, "_simulate",
                            lambda *a, **k: runs.append("_simulate"))
        path = self._outside_config(tmp_path, where, probe)
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
        assert runs == []
        assert name in capsys.readouterr().err
        assert not (out / "verify_report.json").exists()

    @pytest.mark.parametrize("exp_y", [1.0, 10.0])
    def test_verify_rejects_reward_probe_beyond_loaded_slices(
            self, tmp_path, monkeypatch, capsys, exp_y):
        # Surfaces solved around exp_y = 2: a reward probe at 1 or 10 lies in
        # the (t, y) hull, but its quadrature reads beyond the slices.
        import prefhedge.cli as cli

        out = tmp_path / "out"
        extra = {"params": {**BASE["params"], "rho": 0.6}, "grid": self.GRID}
        path = write_config(tmp_path, extra)
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        runs = []
        for fn in ("residual", "verify_g_representation_batch", "equilibrium_spike_test",
                   "reward_mc", "fixed_point_solve"):
            monkeypatch.setattr(cli, fn, lambda *a, _fn=fn, **k: runs.append(_fn))
        monkeypatch.setattr(prefhedge.mc, "_simulate",
                            lambda *a, **k: runs.append("_simulate"))
        extra["verify"] = {"reward_probes": [{"t": 0.0, "exp_y": 2.0},
                                             {"t": 0.0, "exp_y": exp_y}]}
        path = write_config(tmp_path, extra)
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
        assert runs == []
        err = capsys.readouterr().err
        assert "verify.reward_probes[1]" in err and "outside the solved slices" in err
        assert not (out / "verify_report.json").exists()

    def test_table_rho0_block(self, tmp_path):
        path = write_config(tmp_path, {"table_block": "0.02,0"})
        rc = main(["table", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 0
        data = json.loads((tmp_path / "out" / "table_0.02_0.json").read_text())
        row = data["rows"]["7"]
        assert row[0] == pytest.approx(0.078, abs=1e-3)
        assert row[5] == pytest.approx(0.161, abs=1e-3)

    def test_every_table_block_finite(self, tmp_path):
        # Each row holds six finite cells; at |rho| = 1 every cell is exactly
        # the closed form M = (mu_S - r)/sigma_S**2.
        M = (0.07 - 0.02) / 0.2**2
        grid = {"n_t_steps": 40, "n_y": 61, "n_ybar": 7, "n_gh": 9}
        for block, (_mu, rho, rows) in TABLE_BLOCKS.items():
            path = write_config(tmp_path, {"table_block": block, "grid": grid})
            out = tmp_path / "out"
            assert main(["table", "--config", str(path), "--out", str(out)]) == 0
            name = block.replace(",", "_")
            data = json.loads((out / f"table_{name}.json").read_text())
            assert sorted(data) == ["block", "residual", "rows", "t_columns"]
            assert list(data["rows"]) == list(data["residual"]) == [str(r) for r in rows]
            for key, cells in data["rows"].items():
                assert len(cells) == 6 and np.all(np.isfinite(cells)), (block, key)
                if abs(rho) == 1.0:
                    assert cells == [M] * 6, (block, key)
                # Only an iterated row is solved, and it reports its residual.
                res = data["residual"][key]
                if rho * rho in (0.0, 1.0):
                    assert res is None, (block, key)
                else:
                    assert list(res) == ["max_rel_band", "rms_rel_band", "worst"]
                    assert 0 < res["rms_rel_band"] <= res["max_rel_band"], (block, key)

    def test_table_rows_report_the_residual_of_their_solve(self, tmp_path, capsys):
        # The row at exp_y = 2 solves the same grid and point as a solve at
        # the block's parameters: the same residual, printed with the row.
        out = tmp_path / "out"
        grid = {"n_t_steps": 40, "n_y": 61, "n_ybar": 7, "n_gh": 9}
        path = write_config(tmp_path, {"table_block": "0.02,0.6", "grid": grid})
        assert main(["table", "--config", str(path), "--out", str(out)]) == 0
        table = json.loads((out / "table_0.02_0.6.json").read_text())
        printed = capsys.readouterr().out
        path = write_config(tmp_path, {"params": {**BASE["params"], "rho": 0.6},
                                       "grid": grid}, name="solve.json")
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "solve_summary.json").read_text())
        assert table["residual"]["2"] == summary["residual"]
        rms = summary["residual"]["rms_rel_band"]
        assert f"exp_y=    2: " in printed and f"(residual rms {rms:.3g}, " in printed

    @pytest.mark.parametrize("error", ["ConvergenceError", "PositivityError"])
    def test_failed_solve_leaves_out_dir_as_found(self, tmp_path, monkeypatch, capsys, error):
        # The archives are written under staged names while the levels
        # pass; a solve that fails mid-march removes them and leaves an
        # earlier run's files byte for byte.
        import prefhedge.cli as cli

        out = tmp_path / "out"
        path = write_config(tmp_path, {"params": {**BASE["params"], "rho": 0.6},
                                       "grid": self.GRID})
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        staged = []
        take = cli.LevelResidual.take

        def watched(self, level, pi_row):
            staged.append((out / "h_surface.bin.part").exists())
            return take(self, level, pi_row)

        monkeypatch.setattr(cli.LevelResidual, "take", watched)
        if error == "ConvergenceError":
            monkeypatch.setattr(prefhedge.equilibrium, "_MAX_EVALS", 1)
        else:
            monkeypatch.setattr(prefhedge.pide, "_W_MAX", 2.0)
        capsys.readouterr()
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 1
        assert f"solver error: {error}" in capsys.readouterr().err
        assert len(staged) >= 2 and all(staged)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_solve_never_holds_the_factor_surface(self, tmp_path):
        # The levels go to the residual and the archive as they are marched:
        # the solve's traced peak stays below one factor surface.
        import tracemalloc

        grid = {"n_t_steps": 200, "n_y": 200, "n_ybar": 11}
        path = write_config(tmp_path, {"params": {**BASE["params"], "rho": 0.6},
                                       "grid": grid})
        cfg = RunConfig.from_file(path)
        n_t, n_y, n_s = default_grid(cfg.params, **grid).shape
        assert (n_t, n_s) == (201, 11) and n_y >= 200
        tracemalloc.start()
        try:
            assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n_t * n_y * n_s * 8

    def test_failing_table_row_names_block_and_exp_y(self, tmp_path, monkeypatch, capsys):
        import prefhedge.cli as cli
        from prefhedge.errors import ConvergenceError

        def fail(*a, **k):
            raise ConvergenceError("hedging row at t = 1.0 still moved", history=[1.0])

        monkeypatch.setattr(cli, "fixed_point_solve", fail)
        path = write_config(tmp_path, {"table_block": "0.02,0.6"})
        out = tmp_path / "out"
        assert main(["table", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "ConvergenceError: table block 0.02,0.6, exp_y = 2: hedging row" in err
        assert list(out.iterdir()) == []

    def test_round_trip_solve_then_verify(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, {
            "grid": {"n_t_steps": 80, "n_y": 81, "n_ybar": 9},
            "probes": [{"t": 0.0, "exp_y": 2.0}],
            "sim": {"n_paths": 4000, "n_steps": 60, "seed": 7},
            "verify": {"spike_deltas": [0.5], "spike_offsets": [0.1],
                       "reward_probes": [{"t": 30.0, "exp_y": 2.0}],
                       "residual_tol": 0.001},
        })
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        rc = main(["verify", "--config", str(path), "--out", str(out)])
        report = json.loads((out / "verify_report.json").read_text())
        assert rc == 0, report
        assert report["pass"] is True
        assert report["residual"]["pass"] is True
        assert all(r["pass"] for r in report["g_representation"])
        assert list(report["phase_s"]) == ["load", "residual", "g_representation",
                                           "spike", "reward"]
        assert all(v >= 0 for v in report["phase_s"].values())

    @pytest.mark.parametrize("reward_probes", [None, [{"t": 0.0, "exp_y": 2.0},
                                                      {"t": 30.0, "exp_y": 2.0}]])
    def test_verify_reuses_spike_base_run(self, tmp_path, monkeypatch, reward_probes):
        # The reward row at the spike point takes the spike test's base
        # estimate; simulating it on its own writes the same report.
        import dataclasses

        import prefhedge.cli as cli

        extra = {"grid": {"n_t_steps": 40, "n_y": 61, "n_ybar": 7, "n_gh": 9},
                 "probes": [{"t": 0.0, "exp_y": 2.0}],
                 "sim": {"n_paths": 2000, "n_steps": 40, "seed": 7},
                 "verify": {"spike_deltas": [0.5], "spike_offsets": [0.1]}}
        if reward_probes is not None:
            extra["verify"]["reward_probes"] = reward_probes
        path = write_config(tmp_path, extra)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0

        calls = []
        reward_mc = cli.reward_mc
        monkeypatch.setattr(cli, "reward_mc",
                            lambda *a, **k: calls.append(a[1]) or reward_mc(*a, **k))
        main(["verify", "--config", str(path), "--out", str(out)])
        reused = report_without_timings(out)
        simulated = [0.0] if reward_probes is None else [0.0, 30.0]
        assert calls == simulated[1:]
        calls.clear()

        spike_test = cli.equilibrium_spike_test
        monkeypatch.setattr(
            cli, "equilibrium_spike_test",
            lambda *a, **k: dataclasses.replace(spike_test(*a, **k), t0=float("nan")))
        main(["verify", "--config", str(path), "--out", str(out)])
        assert calls == simulated
        assert report_without_timings(out) == reused

    def test_default_reward_probe_is_the_spike_point(self, tmp_path, monkeypatch):
        # exp and log do not round-trip y0 = 0.7, yet the default reward
        # probe is (0, y0) itself: verify makes one run per quadrature node,
        # and the reward row is the spike test's base estimate.
        import prefhedge.cli as cli

        assert float(np.log(float(np.exp(0.7)))) != 0.7
        path = write_config(tmp_path, {
            "params": {**BASE["params"], "y0": 0.7}, "grid": self.GRID,
            "sim": {"n_paths": 200, "n_steps": 20, "seed": 7},
            "verify": {"spike_deltas": [0.5], "spike_offsets": [0.1]}})
        out = tmp_path / "out"
        runs = []
        simulate = prefhedge.mc._simulate
        monkeypatch.setattr(prefhedge.mc, "_simulate",
                            lambda *a, **k: runs.append(a) or simulate(*a, **k))
        main(["verify", "--config", str(path), "--out", str(out)])
        report = json.loads((out / "verify_report.json").read_text())
        assert len(runs) == cli._VERIFY_NODES
        (row,) = report["reward_crosscheck"]
        assert (row["t"], row["j_mc"], row["se"]) == (
            0.0, report["spike_test"]["j_base"], report["spike_test"]["j_base_se"])

    def test_verify_refuses_archives_of_two_grids(self, tmp_path, capsys):
        # Two solves whose probes differ give archives of one shape on
        # different y and ybar nodes; verify refuses the pair before any check.
        from prefhedge.persist import load_h_surface

        for exp_y in (2.0, 2.05):
            path = write_config(tmp_path, {"grid": self.GRID,
                                           "probes": [{"t": 0.0, "exp_y": exp_y}]})
            assert main(["solve", "--config", str(path),
                         "--out", str(tmp_path / str(exp_y))]) == 0
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        shutil.copy(tmp_path / "2.0" / "h_surface.bin", mixed)
        shutil.copy(tmp_path / "2.05" / "policy_surface.bin", mixed)
        h_grid, _slices = load_h_surface(mixed / "h_surface.bin")
        pol = load_policy_surface(mixed / "policy_surface.bin")
        assert h_grid.shape == pol.grid.shape
        assert not np.array_equal(h_grid.y_nodes, pol.grid.y_nodes)
        capsys.readouterr()
        assert main(["verify", "--config", str(path), "--out", str(mixed)]) == 2
        assert "different grids" in capsys.readouterr().err
        assert not (mixed / "verify_report.json").exists()

    @pytest.mark.parametrize("z_gate", [None, 2.5])
    def test_verify_spike_rows_use_configured_z_gate(self, tmp_path, monkeypatch, z_gate):
        import prefhedge.cli as cli

        verify = {"spike_deltas": [0.5], "spike_offsets": [0.1]}
        if z_gate is not None:
            verify["z_gate"] = z_gate
        path = write_config(tmp_path, {
            "params": {**BASE["params"], "rho": 0.6}, "grid": self.GRID,
            "probes": [{"t": 0.0, "exp_y": 2.0}],
            "sim": {"n_paths": 200, "n_steps": 20, "seed": 7}, "verify": verify})
        gates = []
        spike_test = cli.equilibrium_spike_test
        monkeypatch.setattr(cli, "equilibrium_spike_test",
                            lambda *a, **k: gates.append(k["z_gate"]) or spike_test(*a, **k))
        main(["verify", "--config", str(path), "--out", str(tmp_path / "out")])
        assert gates == [3.0 if z_gate is None else z_gate]

    @pytest.mark.parametrize("n_probes", [3, 6])
    def test_verify_draws_each_stream_once(self, tmp_path, monkeypatch, n_probes):
        # The spike test's nodes draw one stream each; the g rows, whatever
        # their number, ride on node 1's run (stream 1), and the default
        # reward row reuses the spike test's base run.  With 3 probes verify
        # solves the surfaces itself (no draws).
        import prefhedge.cli as cli

        extra = {"params": {**BASE["params"], "rho": 0.6},
                 "grid": {"n_t_steps": 40, "n_y": 61, "n_ybar": 7, "n_gh": 9},
                 "probes": [{"t": 7.0 * i, "exp_y": 2.0} for i in range(n_probes)],
                 "sim": {"n_paths": 200, "n_steps": 20, "seed": 7},
                 "verify": {"spike_deltas": [0.5], "spike_offsets": [0.1]}}
        path = write_config(tmp_path, extra)
        out = tmp_path / "out"
        if n_probes == 6:
            assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        streams = []
        rng = prefhedge.mc._rng
        monkeypatch.setattr(prefhedge.mc, "_rng",
                            lambda seed, stream=0: streams.append(stream) or rng(seed, stream))
        main(["verify", "--config", str(path), "--out", str(out)])
        report = json.loads((out / "verify_report.json").read_text())
        assert len(report["g_representation"]) == n_probes
        assert next(iter(report["phase_s"])) == ("load" if n_probes == 6 else "solve")
        assert len(streams) == cli._VERIFY_NODES == 11
        assert sorted(streams) == list(range(cli._VERIFY_NODES))

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_verify_reports_mc_work(self, tmp_path, monkeypatch, antithetic):
        # Path-steps count every start and lane; normals count the draws,
        # two per path per step of each run (half of them when antithetic).
        # The g points step in the spike test's node-1 run and draw nothing.
        import prefhedge.cli as cli

        extra = {"params": {**BASE["params"], "rho": 0.6},
                 "grid": {"n_t_steps": 40, "n_y": 61, "n_ybar": 7, "n_gh": 9},
                 "probes": [{"t": 7.0 * i, "exp_y": 2.0} for i in range(3)],
                 "sim": {"n_paths": 200, "n_steps": 20, "seed": 7,
                         "antithetic": antithetic},
                 "verify": {"spike_deltas": [0.5, 0.25], "spike_offsets": [0.1]}}
        path = write_config(tmp_path, extra)
        out = tmp_path / "out"
        runs = []
        simulate = prefhedge.mc._simulate

        def counted(policy, starts, x0, cfg, params, store="full", stream=0):
            runs.append([len(spikes) for *_start, spikes in starts])
            return simulate(policy, starts, x0, cfg, params, store, stream)

        monkeypatch.setattr(prefhedge.mc, "_simulate", counted)
        main(["verify", "--config", str(path), "--out", str(out)])
        work = json.loads((out / "verify_report.json").read_text())["mc_work"]
        drawn = 100 if antithetic else 200
        assert work == {
            "g_representation": {"path_steps": 3 * 200 * 20, "normals": 0},
            "spike": {"path_steps": cli._VERIFY_NODES * 5 * 200 * 20,
                      "normals": cli._VERIFY_NODES * 2 * drawn * 20},
        }
        assert runs == [[4], [4, 0, 0, 0]] + [[4]] * (cli._VERIFY_NODES - 2)
        assert sum(w["path_steps"] for w in work.values()) == sum(
            (1 + lanes) * 200 * 20 for run in runs for lanes in run)
        assert sum(w["normals"] for w in work.values()) == len(runs) * 2 * drawn * 20

    def test_verify_report_equals_separate_checks(self, tmp_path, monkeypatch):
        # verify draws each stream once; its g rows equal those of each
        # point's own stream-1 run, and its spike and reward rows those of
        # the spike test run without riders.  It streams the factor from
        # disk: the whole-surface load and HSurface itself may not run.
        import prefhedge.cli as cli
        import prefhedge.persist
        import prefhedge.pide
        from prefhedge.persist import read_h_surface
        from test_mc import reference_g_representation
        from test_pide import levels_of

        def refuse(*a, **k):
            raise AssertionError("verify built the whole factor surface")

        extra = {"params": {**BASE["params"], "rho": 0.6}, "grid": self.GRID,
                 "probes": [{"t": 7.0 * i, "exp_y": 2.0} for i in range(3)],
                 "sim": {"n_paths": 500, "n_steps": 20, "seed": 11},
                 "verify": {"spike_deltas": [0.5, 0.25], "spike_offsets": [0.1]}}
        path = write_config(tmp_path, extra)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        with monkeypatch.context() as m:
            m.setattr(prefhedge.persist, "read_h_surface", refuse)
            m.setattr(prefhedge.pide.HSurface, "__post_init__", refuse)
            main(["verify", "--config", str(path), "--out", str(out)])
        report = json.loads((out / "verify_report.json").read_text())
        cfg = RunConfig.from_file(path)
        h = read_h_surface(out / "h_surface.bin", cfg.params)
        pol = load_policy_surface(out / "policy_surface.bin", cfg.params)
        points = [(t, y, row["ybar"])
                  for (t, y), row in zip(cfg.probes, report["g_representation"], strict=True)]
        g = reference_g_representation(h, pol, points, 1.0, cfg.sim, cfg.params)
        assert [(r["pde"], r["mc_conditioned"]) for r in report["g_representation"]] == [
            (x.pde, {"mean": x.mean, "se": x.se, "z": x.z}) for x in g]
        spike = prefhedge.equilibrium_spike_test(
            pol, 0.0, 1.0, cfg.probes[0][1], cfg.sim, cfg.params, deltas=(0.5, 0.25),
            perturbations=(0.1,), z_gate=3.0, ybar_quadrature=cli._VERIFY_NODES)
        rep = report["spike_test"]
        assert (rep["j_base"], rep["j_base_se"]) == (spike.j_base, spike.j_base_se)
        assert [(r["delta"], r["held"], r["spike"], r["quotient"], r["se"], r["pass"])
                for r in rep["rows"]] == [
            (r.delta, r.held, r.spike, r.quotient, r.se, r.passed) for r in spike.rows]
        (reward,) = report["reward_crosscheck"]
        assert (reward["j_mc"], reward["se"]) == (spike.j_base, spike.j_base_se)
        # The residual and reward rows, read off the streamed levels, equal
        # those of the whole surface bit for bit.
        res = prefhedge.residual(levels_of(h), pol.pi, h.grid, cfg.params)
        assert (report["residual"]["rms_rel_band"], report["residual"]["max_rel_band"]) == (
            res.rms_rel_band, res.max_rel_band)
        t0, y0 = reward["t"], float(np.log(reward["exp_y"]))
        assert reward["j_quadrature"] == prefhedge.reward_quadrature(
            h.interp(t0, y0), h.grid, t0, 1.0, y0, cfg.params, n_nodes=cli._VERIFY_NODES)

    def test_verify_same_on_loaded_and_solved_surfaces(self, tmp_path):
        # One consumer for both: the factor streamed from disk and the
        # slices of the surface verify solves itself give the same report.
        extra = {"params": {**BASE["params"], "rho": 0.6}, "grid": self.GRID,
                 "probes": [{"t": 7.0 * i, "exp_y": 2.0} for i in range(3)],
                 "sim": {"n_paths": 500, "n_steps": 20, "seed": 11},
                 "verify": {"spike_deltas": [0.5], "spike_offsets": [0.1],
                            "reward_probes": [{"t": 0.0, "exp_y": 2.0},
                                              {"t": 14.0, "exp_y": 2.0}]}}
        path = write_config(tmp_path, extra)
        solved = tmp_path / "solved"
        main(["verify", "--config", str(path), "--out", str(solved)])
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        main(["verify", "--config", str(path), "--out", str(out)])
        assert report_without_timings(out) == report_without_timings(solved)

    def test_reports_carry_the_fields_the_benchmark_reads(self, tmp_path):
        # perfbench/run.py scores solve and verify by these keys; a renamed
        # field would show up there only as failed operations.
        extra = {"params": {**BASE["params"], "rho": 0.6}, "grid": self.GRID,
                 "probes": [{"t": 0.0, "exp_y": 2.0}, {"t": 14.0, "exp_y": 2.0}],
                 "sim": {"n_paths": 200, "n_steps": 20, "seed": 7},
                 "verify": {"spike_deltas": [0.5], "spike_offsets": [0.1],
                            "reward_probes": [{"t": 0.0, "exp_y": 2.0},
                                              {"t": 14.0, "exp_y": 2.0}]}}
        path = write_config(tmp_path, extra)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "solve_summary.json").read_text())
        assert isinstance(summary["converged"], bool)
        assert isinstance(summary["residual"]["rms_rel_band"], float)
        assert [type(p["t"]) for p in summary["probes"]] == [float] * 2
        assert all(isinstance(p["pi"], float) for p in summary["probes"])
        main(["verify", "--config", str(path), "--out", str(out)])
        report = json.loads((out / "verify_report.json").read_text())
        assert isinstance(report["residual"]["rms_rel_band"], float)
        rows = [report["residual"], *report["g_representation"],
                *report["reward_crosscheck"], *report["spike_test"]["rows"]]
        assert len(rows) == 1 + 2 + 2 + 2
        assert all(isinstance(row["pass"], bool) for row in rows)
        for g in report["g_representation"]:
            assert isinstance(g["t"], float)
            assert all(isinstance(g["mc_conditioned"][k], float) for k in ("mean", "se", "z"))
        assert all(isinstance(r["t"], float) and isinstance(r["j_mc"], float)
                   for r in report["reward_crosscheck"])
        assert all(isinstance(r[k], float) for r in report["spike_test"]["rows"]
                   for k in ("delta", "spike", "quotient"))

    def test_verify_g_rows_read_pinned_paths_only(self, tmp_path, monkeypatch):
        # Each g row reports the conditioned side alone, and verify runs no
        # unpinned simulation.
        import prefhedge.cli as cli

        extra = {"params": {**BASE["params"], "rho": 0.6},
                 "grid": {"n_t_steps": 40, "n_y": 61, "n_ybar": 7, "n_gh": 9},
                 "probes": [{"t": 0.0, "exp_y": 2.0}, {"t": 14.0, "exp_y": 2.0}],
                 "sim": {"n_paths": 200, "n_steps": 20, "seed": 7},
                 "verify": {"spike_deltas": [0.5], "spike_offsets": [0.1]}}
        path = write_config(tmp_path, extra)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        calls = []
        simulate = prefhedge.mc.simulate_unconditional
        for module in (prefhedge.mc, cli):
            monkeypatch.setattr(module, "simulate_unconditional",
                                lambda *a, **k: calls.append(a) or simulate(*a, **k))
        main(["verify", "--config", str(path), "--out", str(out)])
        rows = json.loads((out / "verify_report.json").read_text())["g_representation"]
        assert len(rows) == 2
        for row in rows:
            assert set(row) == {"t", "exp_y", "ybar", "pde", "mc_conditioned", "pass"}
        assert calls == []

    def test_verify_detects_tampered_surface(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, {
            "grid": {"n_t_steps": 40, "n_y": 61, "n_ybar": 7},
            "probes": [{"t": 0.0, "exp_y": 2.0}],
            "sim": {"n_paths": 2000, "n_steps": 40, "seed": 7},
        })
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        target = out / "h_surface.bin"
        blob = bytearray(target.read_bytes())
        blob[len(blob) // 2] ^= 0x10
        target.write_bytes(bytes(blob))
        rc = main(["verify", "--config", str(path), "--out", str(out)])
        assert rc == 2

    TAMPER = {"grid": {"n_t_steps": 40, "n_y": 61, "n_ybar": 7},
              "probes": [{"t": 0.0, "exp_y": 2.0}],
              "sim": {"n_paths": 200, "n_steps": 20, "seed": 7},
              "verify": {"spike_deltas": [0.5], "spike_offsets": [0.1]}}

    def test_verify_checks_the_crc_after_the_last_slice(self, tmp_path, capsys):
        # One flipped low mantissa byte of the last level's last node keeps
        # every node positive: the residual reads the whole stream, and only
        # the member's CRC-32 at its end catches the damage, before a report
        # is written.
        import struct
        import zipfile

        out = tmp_path / "out"
        path = write_config(tmp_path, self.TAMPER)
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        target = out / "h_surface.bin"
        blob = bytearray(target.read_bytes())
        with zipfile.ZipFile(target) as zf:
            info = zf.getinfo("h.npy")
        name_len, extra_len = struct.unpack_from("<HH", blob, info.header_offset + 26)
        blob[info.header_offset + 30 + name_len + extra_len + info.file_size - 8] ^= 0x01
        target.write_bytes(bytes(blob))
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
        assert "checksum" in capsys.readouterr().err
        assert not (out / "verify_report.json").exists()

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_verify_refuses_a_non_positive_slice(self, tmp_path, capsys, bad):
        from prefhedge.persist import _write, read_h_surface
        from test_pide import levels_of

        out = tmp_path / "out"
        path = write_config(tmp_path, self.TAMPER)
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        cfg = RunConfig.from_file(path)
        h = read_h_surface(out / "h_surface.bin", cfg.params)
        levels = np.array(levels_of(h))
        levels[h.grid.t_nodes.size - 1 - 10, 4, 20] = bad
        _write(out / "h_surface.bin", cfg.params, h.grid, h=levels)
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "PositivityError" in err and "strictly positive" in err
        assert not (out / "verify_report.json").exists()

    def test_bridge_test(self, tmp_path):
        path = write_config(tmp_path, {
            "sim": {"n_paths": 20000, "n_steps": 400, "seed": 5},
        })
        rc = main(["bridge-test", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "bridge_report.json").read_text())
        assert report["pass"] is True

    def test_too_few_y_nodes_name_grid_n_y(self, tmp_path, capsys):
        path = write_config(tmp_path, {"params": {**BASE["params"], "rho": 0.6},
                                       "grid": {"n_y": 2}})
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "grid.n_y = 2 lays out 3 y nodes" in err and "grid.n_y = 3 lays out" in err
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, {"surprise": True})
        assert main(["solve", "--config", str(path)]) == 2


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is imported only by bridge-test; loading it costs every
    # command's start-up most of a second.
    src = Path(prefhedge.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import prefhedge.cli, sys; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
