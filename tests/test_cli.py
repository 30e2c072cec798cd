"""Experiment-runner plumbing: configs, CSV artifacts, exit codes."""

from __future__ import annotations

import json

import numpy as np
import numpy.testing as npt
import pytest

from pseudotherm import Oscillator, Protocol, TwoLevel, load_matrix, two_time_work
from pseudotherm.cli import _CouplingFamily, main, random_metric_norms, read_csv, write_csv

BASE = {
    "model": {"kind": "two_level", "coupling": 1.0},
    "protocol": {"kind": "linear", "start": 0.0, "end": 0.5, "duration": 1.0},
    "beta": 1.0,
    "seed": 3,
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigValidation:
    def test_missing_file_is_config_error(self, tmp_path, capsys):
        assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_json_reports_location(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"model": \n oops}')
        assert main(["spectrum", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line" in err

    def test_missing_config_for_core_commands(self, capsys):
        assert main(["spectrum"]) == 2
        assert "requires --config" in capsys.readouterr().err

    def test_empty_sweep_names_field(self, tmp_path, capsys):
        cfg = dict(BASE, sweep={"name": "protocol.end", "values": []})
        assert main(["jarzynski", "--config", write_config(tmp_path, cfg)]) == 2
        assert "sweep.values" in capsys.readouterr().err

    def test_unknown_model_kind(self, tmp_path, capsys):
        cfg = dict(BASE, model={"kind": "nonsense"})
        assert main(["spectrum", "--config", write_config(tmp_path, cfg)]) == 2
        assert "model.kind" in capsys.readouterr().err

    def test_unknown_sweep_target(self, tmp_path, capsys):
        cfg = dict(BASE, sweep={"name": "protocol.wrong", "values": [0.1]})
        assert main(["jarzynski", "--config", write_config(tmp_path, cfg)]) == 2

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        cfg = {"model": {"kind": "two_level"}, "at": 1.0, "seed": 0}
        assert main(["spectrum", "--config", write_config(tmp_path, cfg)]) == 3
        assert "DefectiveMatrixError" in capsys.readouterr().err


class TestArtifacts:
    def test_spectrum_csv_layout(self, tmp_path, capsys):
        cfg = dict(BASE, at=0.6, output={"directory": str(tmp_path)})
        assert main(["spectrum", "--config", write_config(tmp_path, cfg)]) == 0
        assert "ALL_REAL" in capsys.readouterr().out
        prov, header, rows = read_csv(tmp_path / "spectrum.csv")
        assert prov.startswith("# pseudotherm v")
        assert "config=" in prov and "seed=3" in prov
        assert header == ["index", "re", "im"]
        npt.assert_allclose([r[1] for r in rows], [-0.8, 0.8], atol=1e-12)

    def test_determinism_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, dict(BASE, at=0.3))
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            assert main(["spectrum", "--config", cfg_path, "--out", str(tmp_path / d)]) == 0
        assert (tmp_path / "a/spectrum.csv").read_bytes() == (tmp_path / "b/spectrum.csv").read_bytes()

    def test_csv_roundtrip_idempotent(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, "# pseudotherm v0 config=x seed=1", ["a", "b"], [(1.0, 2.5e-17), (3.0, -4.0)])
        prov, header, rows = read_csv(path)
        write_csv(tmp_path / "t2.csv", prov, header, rows)
        assert path.read_bytes() == (tmp_path / "t2.csv").read_bytes()

    @pytest.mark.parametrize(
        "rows",
        [
            [("hot", 0.1, np.float64(0.7)), ("hot", np.float64(-0.0), 1e-300), ("cold", 3, np.inf)],
            [(1, 2.5, "x"), ("a", 0.0, -0.0), (np.float64(1e-300), -np.inf, 7, "tail"), ()],
            [(np.int64(4), True, np.float32(0.1)), [1.0, 2.0, 3.0], ("a", "b", "c")],
            [],
        ],
    )
    def test_csv_rows_match_per_cell_formatting(self, tmp_path, rows):
        # the per-cell formatting every row format must reproduce byte for byte
        def per_cell(row):
            return ",".join(cell if isinstance(cell, str) else "%.17g" % float(cell) for cell in row)

        path = tmp_path / "mixed.csv"
        write_csv(path, "# provenance", ["h1", "h2"], rows)
        assert path.read_text().split("\n") == ["# provenance", "h1,h2", *map(per_cell, rows), ""]

    def test_coupling_family_is_the_stacked_two_level_hamiltonian(self):
        gammas = np.linspace(0.2, 1.3, 7)
        for fixed in (0.0, 0.35, -0.35):
            npt.assert_array_equal(
                _CouplingFamily(fixed).hamiltonian(gammas),
                np.stack([TwoLevel(coupling=g).hamiltonian(fixed) for g in gammas]),
            )

    def test_out_dir_precedence(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        env_dir.mkdir(), flag_dir.mkdir()
        cfg_path = write_config(tmp_path, dict(BASE, at=0.0))
        monkeypatch.setenv("PSEUDOTHERM_OUT", str(env_dir))
        assert main(["spectrum", "--config", cfg_path]) == 0
        assert (env_dir / "spectrum.csv").exists()
        assert main(["spectrum", "--config", cfg_path, "--out", str(flag_dir)]) == 0
        assert (flag_dir / "spectrum.csv").exists()

    def test_svg_companion(self, tmp_path):
        cfg_path = write_config(tmp_path, dict(BASE, at=0.2))
        assert main(["spectrum", "--config", cfg_path, "--out", str(tmp_path), "--svg"]) == 0
        svg = (tmp_path / "spectrum.svg").read_text()
        assert svg.startswith("<svg")

    def test_metric_command(self, tmp_path):
        cfg_path = write_config(tmp_path, dict(BASE, at=0.5))
        assert main(["metric", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        _, header, rows = read_csv(tmp_path / "metric.csv")
        assert header == ["i", "j", "re", "im"]
        assert len(rows) == 4

    def test_evolve_writes_propagator(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE)
        assert main(["evolve", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        U = load_matrix(tmp_path / "evolve_U.txt")
        assert U.shape == (2, 2)
        _, _, rows = read_csv(tmp_path / "evolve_checkpoints.csv")
        assert len(rows) >= 10
        assert all(r[1] >= 0 for r in rows)

    def test_work_rows_consistent(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE)
        assert main(["work", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        _, header, rows = read_csv(tmp_path / "work.csv")
        assert header == ["n", "m", "E_initial", "E_final", "w", "p"]
        assert len(rows) == 4
        for _, _, e0, et, w, p in rows:
            assert w == pytest.approx(et - e0, abs=1e-12)
            assert p >= 0
        assert sum(r[5] for r in rows) == pytest.approx(1.0, abs=1e-9)


class TestPropagationOptions:
    OSC = dict(
        BASE,
        model={"kind": "oscillator", "omega_ref": 1.0, "shift": 0.0, "n_basis": 8},
        protocol={"kind": "linear", "start": 1.0, "end": 1.2, "duration": 0.3},
    )

    @pytest.mark.parametrize("command", ["work", "evolve"])
    @pytest.mark.parametrize("value", ["yes", True], ids=["not-a-bool", "no-frame"])
    def test_bad_precondition_exits_2(self, tmp_path, capsys, command, value):
        # the two-level model has no hermitian frame to precondition into
        cfg = dict(BASE, propagation={"precondition": value})
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
        assert "propagation.precondition" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::pseudotherm.TruncationWarning")
    def test_work_honours_precondition_false(self, tmp_path):
        cfg = dict(self.OSC, propagation={"precondition": False})
        assert main(["work", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 0
        _, _, rows = read_csv(tmp_path / "work.csv")
        model = Oscillator(omega_ref=1.0, shift=0.0, n_basis=8)
        res = two_time_work(model, Protocol.linear(1.0, 1.2, 0.3), 1.0, gauge_precondition=False)
        assert [r[5] for r in rows] == res.p.ravel().tolist()


class TestToleranceGates:
    def test_jarzynski_pass_and_fail(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BASE)
        assert main(["jarzynski", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        strict = dict(BASE, checks={"jarzynski_residual": 1e-18})
        assert main(["jarzynski", "--config", write_config(tmp_path, strict, "s.json"),
                     "--out", str(tmp_path)]) == 1
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["command"] == "jarzynski"
        assert summary["failures"][0]["check"] == "relative_residual"
        assert summary["failures"][0]["value"] > summary["failures"][0]["limit"]

    def test_carnot_defaults_and_loose_gates(self, tmp_path, capsys):
        herm = {
            "model": {"kind": "two_level"},
            "seed": 1,
            "cycle": {
                "T_hot": 2.0, "T_cold": 1.0,
                "legs": [1.0, 0.75, 0.375, 0.5],
                "steps": 2000, "parameter": "coupling", "fixed_value": 0.0,
            },
        }
        assert main(["carnot", "--config", write_config(tmp_path, herm), "--out", str(tmp_path)]) == 0
        _, header, rows = read_csv(tmp_path / "carnot_summary.csv")
        summary = dict(zip(header, rows[0]))
        assert summary["efficiency"] == pytest.approx(0.5, abs=1e-9)
        assert summary["carnot_bound"] == pytest.approx(0.5)
        # default first-law gate is calibrated for 1e4 steps; the coarse
        # pseudo-hermitian run must fail it and report machine-readably
        g = 0.85
        pseudo = {
            "model": {"kind": "two_level", "coupling": g},
            "seed": 1,
            "cycle": {
                "T_hot": 2.0, "T_cold": 1.0,
                "legs": [0.0, 0.4, float(np.sqrt(g * g - 0.375**2)), float(np.sqrt(g * g - 0.425**2))],
                "steps": 2000, "parameter": "value",
            },
        }
        capsys.readouterr()
        assert main(["carnot", "--config", write_config(tmp_path, pseudo, "p.json"),
                     "--out", str(tmp_path)]) == 1
        failed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert {f["check"] for f in failed["failures"]} <= {"efficiency_bound", "first_law"}
        loose = dict(pseudo, checks={"efficiency_slack": 1e-4, "first_law": 1e-4})
        assert main(["carnot", "--config", write_config(tmp_path, loose, "l.json"),
                     "--out", str(tmp_path)]) == 0

    def test_infeasible_cycle_exits_3(self, tmp_path, capsys):
        cfg = {
            "model": {"kind": "two_level"},
            "cycle": {"T_hot": 2.0, "T_cold": 1.0, "legs": [0.0, 0.4, 0.8, 0.7], "steps": 2000},
        }
        assert main(["carnot", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 3
        assert "IsentropeNotFoundError" in capsys.readouterr().err


class TestSweeps:
    def test_parallel_matches_serial(self, tmp_path):
        cfg = dict(BASE, sweep={"name": "protocol.end", "values": [0.5, 0.2, 0.35]})
        cfg_path = write_config(tmp_path, cfg)
        for d, workers in (("serial", "1"), ("parallel", "3")):
            (tmp_path / d).mkdir()
            assert main(["jarzynski", "--config", cfg_path, "--out", str(tmp_path / d),
                         "--workers", workers]) == 0
        a = (tmp_path / "serial/jarzynski.csv").read_bytes()
        b = (tmp_path / "parallel/jarzynski.csv").read_bytes()
        assert a == b
        _, header, rows = read_csv(tmp_path / "serial/jarzynski.csv")
        assert header[0] == "protocol.end"
        # rows come back sorted by the sweep key regardless of input order
        assert [r[0] for r in rows] == [0.2, 0.35, 0.5]

    def test_sweep_point_failure_names_point(self, tmp_path, capsys):
        cfg = dict(BASE, sweep={"name": "protocol.end", "values": [0.2, 1.5]})
        assert main(["jarzynski", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 3
        assert "protocol.end = 1.5" in capsys.readouterr().err


class TestReruns:
    @pytest.mark.parametrize(
        "argv, files",
        [
            (["fig2-left"], ["fig2_left.csv"]),
            (
                ["carnot", "--config", "carnot.json"],
                ["carnot_trace.csv", "carnot_summary.csv"],
            ),
        ],
        ids=["fig2-left", "carnot"],
    )
    def test_rerun_is_byte_identical(self, tmp_path, argv, files):
        g = 0.85
        legs = [0.0, 0.4, float(np.sqrt(g * g - 0.375**2)), float(np.sqrt(g * g - 0.425**2))]
        cycle = {"T_hot": 2.0, "T_cold": 1.0, "legs": legs, "steps": 10000}
        cfg = {"model": {"kind": "two_level", "coupling": g}, "seed": 1, "cycle": cycle}
        write_config(tmp_path, cfg, "carnot.json")
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        for d in ("a", "b"):
            assert main([*argv, "--out", str(tmp_path / d)]) == 0
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestFigurePresets:
    def test_fig2_right_both_signs_and_reproducible(self, tmp_path):
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            assert main(["fig2-right", "--out", str(tmp_path / d)]) == 0
        a = (tmp_path / "a/fig2_right.csv").read_bytes()
        assert a == (tmp_path / "b/fig2_right.csv").read_bytes()
        _, _, rows = read_csv(tmp_path / "a/fig2_right.csv")
        norms = np.array([r[1] for r in rows])
        assert len(norms) == 100
        assert norms.max() > 0 and norms.min() < 0

    def test_random_norms_seeded(self):
        a = random_metric_norms(16, 42)
        b = random_metric_norms(16, 42)
        c = random_metric_norms(16, 43)
        npt.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(np.abs(a) <= 1.0 + 1e-12)  # unit vectors, sigma_x metric

    def test_fig2_left_small_grid(self, tmp_path):
        cfg = {
            "model": {"kind": "two_level"},
            "protocol": {"kind": "linear", "start": 0.0, "end": 0.5, "duration": 1.0},
            "beta": 1.0,
            "seed": 7,
            "sweep": {"name": "protocol.end", "values": [0.0, 0.2, 0.5, 0.8]},
            "checks": {"jarzynski_residual": 1e-5},
        }
        assert main(["fig2-left", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 0
        _, header, rows = read_csv(tmp_path / "fig2_left.csv")
        by_lambda = {r[0]: r for r in rows}
        idx = {name: k for k, name in enumerate(header)}
        for lam in (0.2, 0.5, 0.8):
            expected = 1.0 / (2.0 * np.sqrt(1.0 - lam * lam))
            assert by_lambda[lam][idx["relaxation_time"]] == pytest.approx(expected, abs=1e-9)
            assert by_lambda[lam][idx["jarzynski_residual"]] < 1e-5
