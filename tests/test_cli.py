"""Experiment-runner plumbing: configs, CSV artifacts, exit codes."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pseudotherm
from pseudotherm import (
    HatanoNelson,
    Oscillator,
    Protocol,
    TwoLevel,
    build_metric,
    cli,
    eigendecompose,
    load_matrix,
    propagate,
    two_time_work,
    unitarity_residual,
)
from pseudotherm import thermo
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


def test_import_loads_no_scipy():
    # the package and its command line run on numpy alone
    src = str(Path(pseudotherm.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import pseudotherm, pseudotherm.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nonsense", "--out", "."])
        assert exc.value.code == 2
        assert "invalid choice: 'nonsense'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("name", ["sweep", "sweep.name"])
    def test_sweep_of_the_sweep_itself_exits_2(self, tmp_path, capsys, name):
        cfg = dict(BASE, sweep={"name": name, "values": [0.1]})
        assert main(["jarzynski", "--config", write_config(tmp_path, cfg)]) == 2
        assert "sweep cannot set its own fields" in capsys.readouterr().err

    def test_integer_beyond_float_range_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"model": {"kind": "two_level", "coupling": 1%s}, "at": 0.3}' % ("0" * 400))
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "model.coupling" in capsys.readouterr().err

    def test_non_string_output_directory_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("PSEUDOTHERM_OUT", raising=False)
        cfg = dict(BASE, at=0.3, output={"directory": 5})
        assert main(["spectrum", "--config", write_config(tmp_path, cfg)]) == 2
        assert "output.directory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, cfg, field",
        [
            ("evolve", dict(BASE, propagation={"steps": 10**30}), "propagation.steps"),
            ("work", dict(BASE, propagation={"steps": pseudotherm.dynamics.MAX_STEPS + 1}),
             "propagation.steps"),
            ("fig2-right", {"seed": -1}, "seed"),
            ("fig2-right", {"count": 10**30}, "count"),
        ],
        ids=["steps-huge", "steps-above-cap", "negative-seed", "huge-count"],
    )
    def test_out_of_range_integer_exits_2(self, tmp_path, capsys, command, cfg, field):
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
        assert f"{field}: must be" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("T_hot", [1.0, 2.0], ids=["colder", "equal"])
    def test_carnot_needs_t_hot_above_t_cold_exits_2(self, tmp_path, capsys, T_hot):
        cfg = dict(CYCLE, cycle=dict(CYCLE["cycle"], T_hot=T_hot, T_cold=2.0))
        assert main(["carnot", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
        assert "config error: cycle.T_hot: must exceed cycle.T_cold" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_carnot_legs_that_make_no_engine_exit_2(self, tmp_path, capsys):
        cfg = dict(CYCLE, cycle=dict(CYCLE["cycle"], legs=[0.75, 1.0, 0.5, 0.375]))
        assert main(["carnot", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: cycle.legs: hot isotherm released heat (Q_hot = -0.0905677); "
            "leg order does not describe an engine\n")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "cycle, model, message",
        [
            ({"legs": [0.1, 0.2, 0.3]}, {"kind": "two_level"}, "cycle.legs: expected [A, B, C, D] control values"),
            ({}, {"kind": "oscillator"}, "cycle.parameter: coupling sweeps need a two_level model"),
        ],
        ids=["three-legs", "coupling-oscillator"],
    )
    def test_carnot_config_refusals_exit_2(self, tmp_path, capsys, cycle, model, message):
        cfg = {"model": model, "cycle": dict(CYCLE["cycle"], **cycle)}
        assert main(["carnot", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not list(tmp_path.glob("*.csv"))

    def test_a_sweep_point_that_fails_validation_exits_2(self, tmp_path, capsys):
        cfg = dict(BASE, sweep={"name": "beta", "values": [1, -1]})
        assert main(["jarzynski", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "config error: at beta = -1: beta: must be positive, got -1.0\n"

    def test_fig1_right_must_sweep_the_duration(self, tmp_path, capsys):
        cfg = dict(BASE, protocol=ERF, sweep={"name": "protocol.end", "values": [0.5]})
        assert main(["fig1-right", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "config error: sweep.name: fig1-right sweeps protocol.duration\n"

    def test_chain_potential_of_the_wrong_length_exits_2(self, tmp_path, capsys):
        cfg = {"model": {"kind": "hatano_nelson", "length": 4, "potential": [0.1, 0.2]}}
        assert main(["spectrum", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
        assert "config error: model: potential list" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

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

    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "pseudo"])
    def test_carnot_trace_blocks_match_per_row_formatting(self, hermitian):
        # one "%" per leg must give the rows of the per-row "leg,%.17g,%.17g" join
        g = 0.85
        legs = [0.0, 0.4, float(np.sqrt(g * g - 0.375**2)), float(np.sqrt(g * g - 0.425**2))]
        pseudo = {"model": {"kind": "two_level", "coupling": g},
                  "cycle": {"T_hot": 2.0, "T_cold": 1.0, "legs": legs, "steps": 2000}}
        report = cli.cmd_carnot(CYCLE if hermitian else pseudo)
        _, rows, blocks = report.files["carnot_trace.csv"]
        trace = report.svg[-1]
        per_row = [
            (leg + ",%.17g,%.17g") % pair for leg, values, S in trace for pair in zip(values.tolist(), S.tolist())
        ]
        assert rows == () and len(blocks) == len(trace) == 4
        assert "\n".join(blocks).split("\n") == per_row
        # the isentrope solver's records stay out of the CSVs
        assert set(report.files["carnot_summary.csv"][0]) == set(cli._SUMMARY_COLUMNS)
        assert not {"isentrope_evaluations", "entropy_mismatch"} & set(cli._SUMMARY_COLUMNS)

    def test_carnot_trace_reads_back_bit_exact(self, tmp_path):
        # read_csv gives the leg names back as text and every float to the bit
        assert main(["carnot", "--config", write_config(tmp_path, CYCLE), "--out", str(tmp_path)]) == 0
        _, header, rows = read_csv(tmp_path / "carnot_trace.csv")
        trace = cli.cmd_carnot(CYCLE).svg[-1]
        assert header == ["leg", "value", "entropy"]
        assert [row[0] for row in rows] == [leg for leg, values, _ in trace for _ in values]
        npt.assert_array_equal([row[1:] for row in rows], np.concatenate([np.column_stack(t[1:]) for t in trace]))

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

    _PROTOCOLS = pytest.mark.parametrize(
        "protocol",
        [BASE["protocol"], {"kind": "erf", "start": 0.0, "end": 0.5, "duration": 1.0, "window": 3.0}],
        ids=["linear", "erf"],
    )

    @_PROTOCOLS
    def test_evolve_summary_residual_is_the_last_checkpoint(self, tmp_path, capsys, protocol):
        # the raw route, with the moving metric at every checkpoint
        self._evolve_summary_residual(tmp_path, capsys, protocol, False)

    @_PROTOCOLS
    def test_evolve_summary_residual_is_the_last_checkpoint_in_the_frame(self, tmp_path, capsys, protocol):
        # the default route of a two-level drive: its hermitian frame
        self._evolve_summary_residual(tmp_path, capsys, protocol, True)

    @staticmethod
    def _evolve_summary_residual(tmp_path, capsys, protocol, frame):
        cfg = dict(BASE, protocol=protocol)
        if not frame:
            cfg["propagation"] = {"precondition": False}
        assert main(["evolve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 0
        _, _, rows = read_csv(tmp_path / "evolve_checkpoints.csv")
        assert f" final_residual={rows[-1][1]:.3e} " in capsys.readouterr().out
        # the last checkpoint is U's residual at the window end, up to rounding
        result = propagate(TwoLevel(), cli.build_protocol({"protocol": protocol}), gauge_precondition=frame)
        assert rows[-1] == list(result.checkpoints[-1])
        final = unitarity_residual(result.U, result.g_start, result.g_end)
        assert rows[-1][1] == pytest.approx(final, abs=1e-14)

    # collinear knots: the ramp 0 -> 0.4 of a linear protocol
    RAMP = {"kind": "tabulated", "samples": [[0.0, 0.0], [0.5, 0.2], [1.0, 0.4]]}

    def test_evolve_takes_a_tabulated_drive(self, tmp_path):
        cfg = dict(BASE, protocol=self.RAMP, propagation={"precondition": False})
        assert main(["evolve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 0
        linear = propagate(TwoLevel(), Protocol.linear(0.0, 0.4, 1.0))
        npt.assert_allclose(load_matrix(tmp_path / "evolve_U.txt"), linear.U, atol=1e-9)

    def test_evolve_takes_a_tabulated_drive_in_the_frame(self, tmp_path):
        cfg = dict(BASE, protocol=self.RAMP)
        assert main(["evolve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 0
        linear = propagate(TwoLevel(), Protocol.linear(0.0, 0.4, 1.0), gauge_precondition=True)
        npt.assert_allclose(load_matrix(tmp_path / "evolve_U.txt"), linear.U, atol=1e-9)

    @pytest.mark.parametrize(
        "extra, value",
        [({"at": 0.3}, 0.3), ({"protocol": dict(BASE["protocol"], start=0.6)}, 0.6), ({}, 0.0)],
        ids=["at", "protocol-start", "zero"],
    )
    def test_spectrum_control_value_fallbacks(self, tmp_path, extra, value):
        # "at", else the protocol's start, else 0
        cfg = {"model": BASE["model"], **extra}
        assert main(["spectrum", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 0
        _, _, rows = read_csv(tmp_path / "spectrum.csv")
        npt.assert_allclose([r[1] for r in rows], np.array([-1.0, 1.0]) * np.sqrt(1 - value**2), atol=1e-12)

    @pytest.mark.parametrize(
        "boundary, kind, definite",
        [("open", "ALL_REAL", True), ("periodic", "CONJUGATE_PAIRED", False)],
    )
    def test_hatano_nelson_spectrum_and_metric(self, tmp_path, capsys, boundary, kind, definite):
        potential = [0.1, -0.2, 0.0, 0.3, 0.2, -0.1] if boundary == "open" else []
        cfg = {"model": {"kind": "hatano_nelson", "length": 6, "asymmetry": 0.3,
                         "potential": potential, "boundary": boundary}}
        chain = HatanoNelson(length=6, asymmetry=0.3, potential=tuple(potential), boundary=boundary)
        cfg_path = write_config(tmp_path, cfg)
        assert main(["spectrum", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        assert f"spectrum: {kind} dim=6 " in capsys.readouterr().out
        _, _, rows = read_csv(tmp_path / "spectrum.csv")
        npt.assert_array_equal([complex(re, im) for _, re, im in rows],
                               eigendecompose(chain.hamiltonian()).eigenvalues)
        assert main(["metric", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        assert f"metric: positive_definite={definite} " in capsys.readouterr().out
        _, _, rows = read_csv(tmp_path / "metric.csv")
        g = np.reshape([complex(re, im) for *_, re, im in rows], (6, 6))
        npt.assert_array_equal(g, build_metric(eigendecompose(chain.hamiltonian())).g)
        # the chain's own metric: diag(e^{2 g x}) when open, else the one the CLI wrote;
        # built once per chain
        if boundary == "open":
            npt.assert_allclose(chain.metric(), np.diag(np.exp(0.6 * np.arange(6))), rtol=1e-15)
        else:
            npt.assert_array_equal(chain.metric(), g)
        assert chain.metric() is chain.metric(1.0)

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


CYCLE = {
    "model": {"kind": "two_level"},
    "cycle": {
        "T_hot": 2.0, "T_cold": 1.0,
        "legs": [1.0, 0.75, 0.375, 0.5],
        "steps": 2000, "parameter": "coupling", "fixed_value": 0.0,
    },
}
ERF = {"kind": "erf", "start": 0.0, "end": 0.5, "duration": 1.0, "window": 3.0}
DURATIONS = {"name": "protocol.duration", "values": [2.0, 0.5]}
ENDS = {"name": "protocol.end", "values": [0.5, 0.2]}
TIGHT = 1e-300


class TestRunnerContract:
    # command, config, files without --svg (the summary line names the first),
    # the SVG that --svg adds, and a config update that fails a check
    CASES = {
        "spectrum": ("spectrum", dict(BASE, at=0.3), ["spectrum.csv"], "spectrum.svg", None),
        "metric": ("metric", dict(BASE, at=0.5), ["metric.csv"], None,
                   {"checks": {"pseudo_hermiticity": TIGHT}}),
        "evolve": ("evolve", BASE, ["evolve_U.txt", "evolve_checkpoints.csv"], None,
                   {"checks": {"unitarity": TIGHT}}),
        "work": ("work", BASE, ["work.csv"], None, {"checks": {"row_sum": TIGHT}}),
        "jarzynski": ("jarzynski", BASE, ["jarzynski.csv"], None,
                      {"checks": {"jarzynski_residual": TIGHT}}),
        "jarzynski-sweep": ("jarzynski", dict(BASE, sweep=ENDS), ["jarzynski.csv"],
                            "jarzynski.svg", {"checks": {"jarzynski_residual": TIGHT}}),
        "jarzynski-row-sum": ("jarzynski", dict(BASE, sweep=ENDS), ["jarzynski.csv"],
                              "jarzynski.svg", {"checks": {"row_sum": TIGHT}}),
        "carnot": ("carnot", CYCLE, ["carnot_summary.csv", "carnot_trace.csv"],
                   "carnot_trace.svg", {"checks": {"first_law": TIGHT}}),
        "fig1-left": ("fig1-left", BASE, ["fig1_left.csv"], "fig1_left.svg",
                      {"checks": {"convergence": TIGHT}}),
        "fig1-right": ("fig1-right",
                       dict(BASE, protocol=ERF, sweep=DURATIONS, checks={"quasistatic": 1.0}),
                       ["fig1_right.csv"], "fig1_right.svg", {"checks": {"quasistatic": TIGHT}}),
        "fig2-left": ("fig2-left", dict(BASE, sweep=ENDS), ["fig2_left.csv"], "fig2_left.svg",
                      {"checks": {"jarzynski_residual": TIGHT}}),
        "fig2-right": ("fig2-right", {"count": 8, "seed": 42}, ["fig2_right.csv"],
                       "fig2_right.svg", {"count": 1}),
    }
    # the sweep field that names the point of each failed per-point check
    POINTS = {"jarzynski": "value", "jarzynski-sweep": "protocol.end", "jarzynski-row-sum": "protocol.end",
              "fig2-left": "lambda_f"}

    @staticmethod
    def run(tmp_path, capsys, name, command, cfg, *flags):
        out = tmp_path / name
        rc = main([command, "--config", write_config(tmp_path, cfg, f"{name}.json"),
                   "--out", str(out), *flags])
        captured = capsys.readouterr()
        return rc, out, captured.out, captured.err

    @pytest.mark.parametrize("case", CASES)
    def test_files_and_summary_line(self, tmp_path, capsys, case):
        command, cfg, files, svg, _ = self.CASES[case]
        for name, flags, written in (("plain", [], files), ("svg", ["--svg"], files + [svg])):
            rc, out, stdout, stderr = self.run(tmp_path, capsys, name, command, cfg, *flags)
            assert (rc, stderr) == (0, "")
            (line,) = stdout.splitlines()
            assert line.startswith(f"{command}: ")
            assert line.endswith(f" -> {out / files[0]}")
            assert sorted(p.name for p in out.iterdir()) == sorted(filter(None, written))

    @pytest.mark.parametrize("case", [c for c, spec in CASES.items() if spec[4]])
    def test_failed_check_summary(self, tmp_path, capsys, case):
        command, cfg, files, _, failing = self.CASES[case]
        rc, out, stdout, stderr = self.run(tmp_path, capsys, "fail", command, {**cfg, **failing})
        assert rc == 1
        assert stdout.endswith(f" -> {out / files[0]}\n")
        assert sorted(p.name for p in out.iterdir()) == sorted(files)
        summary = json.loads(stderr.strip().splitlines()[-1])
        assert sorted(summary) == ["command", "failures", "version"]
        assert (summary["command"], summary["version"]) == (command, pseudotherm.__version__)
        assert summary["failures"]
        field = self.POINTS.get(case)
        for failure in summary["failures"]:
            assert set(failure) == {"check", "value", "limit"} | ({"point"} if field else set())
            if field:
                assert list(failure["point"]) == [field]


class TestPropagationOptions:
    OSC = dict(
        BASE,
        model={"kind": "oscillator", "omega_ref": 1.0, "shift": 0.0, "n_basis": 8},
        protocol={"kind": "linear", "start": 1.0, "end": 1.2, "duration": 0.3},
    )

    @pytest.mark.parametrize("command", ["work", "evolve"])
    @pytest.mark.parametrize(
        "value, model",
        [("yes", BASE["model"]), (True, {"kind": "hatano_nelson", "length": 4, "asymmetry": 0.3})],
        ids=["not-a-bool", "no-frame"],
    )
    def test_bad_precondition_exits_2(self, tmp_path, capsys, command, value, model):
        # the open chain has no hermitian frame to precondition into
        cfg = dict(BASE, model=model, propagation={"precondition": value})
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

    def test_carnot_gates_the_g_trace_crosscheck(self, tmp_path, capsys, monkeypatch):
        cycle = cli.quasistatic_cycle
        monkeypatch.setattr(
            cli, "quasistatic_cycle", lambda *args: dataclasses.replace(cycle(*args), g_trace_crosscheck=1e-6)
        )
        cfg = {
            "model": {"kind": "two_level"},
            "cycle": {
                "T_hot": 2.0, "T_cold": 1.0,
                "legs": [1.0, 0.75, 0.375, 0.5],
                "steps": 2000, "parameter": "coupling", "fixed_value": 0.0,
            },
        }
        assert main(["carnot", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 1
        failed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert [f["check"] for f in failed["failures"]] == ["g_trace_crosscheck"]
        assert failed["failures"][0]["value"] == 1e-6

    def test_infeasible_cycle_exits_3(self, tmp_path, capsys):
        cfg = {
            "model": {"kind": "two_level"},
            "cycle": {"T_hot": 2.0, "T_cold": 1.0, "legs": [0.0, 0.4, 0.8, 0.7], "steps": 2000},
        }
        assert main(["carnot", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 3
        assert "IsentropeNotFoundError" in capsys.readouterr().err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)


def _scramble(node):
    """Change every dict and list inside node in place."""
    items = node.values() if isinstance(node, dict) else node
    for item in list(items):
        if isinstance(item, (dict, list)):
            _scramble(item)
    if isinstance(node, dict):
        node["scrambled"] = True
    else:
        node.append("scrambled")


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

    @settings(max_examples=200, deadline=None)
    @given(
        extra=st.dictionaries(st.text(max_size=3), _JSON, max_size=4),
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=6),
    )
    def test_sweep_points_equal_the_json_round_trip_and_share_nothing(self, extra, values):
        cfg = {**extra, "protocol": {"kind": "linear", "end": 0.5, "ramp": {"knots": [[0, 1], {}]}},
               "sweep": {"name": "protocol.end", "values": values}}
        before = json.dumps(cfg)

        def expected(value):
            # a point is the config without its sweep, through JSON, with the value set
            out = json.loads(before)
            del out["sweep"]
            out["protocol"]["end"] = value
            return out

        points = [cli._apply_sweep(cfg, "protocol.end", v) for v in values]
        assert points == [expected(v) for v in values]
        _scramble(points[0])
        assert json.dumps(cfg) == before
        assert points[1:] == [expected(v) for v in values[1:]]

    def test_sweep_point_failure_names_point(self, tmp_path, capsys):
        cfg = dict(BASE, sweep={"name": "protocol.end", "values": [0.2, 1.5]})
        assert main(["jarzynski", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 3
        assert "protocol.end = 1.5" in capsys.readouterr().err


    def test_first_failing_point_fails_in_its_setup(self, tmp_path, capsys):
        # 1.2 and 1.5 lie past the exceptional point: the final spectrum is
        # a conjugate pair, refused before any propagation
        cfg = dict(BASE, sweep={"name": "protocol.end", "values": [0.3, 1.2, 0.6, 1.5]})
        assert main(["fig2-left", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("NonRealSpectrumError: at protocol.end = 1.2: final spectrum is CONJUGATE_PAIRED")

    def test_first_failing_point_fails_in_its_propagation(self, tmp_path, capsys):
        # the entry tolerance sits below the rounding floor, so 0.3 fails in
        # its propagation before 1.2 fails in its setup
        cfg = dict(BASE, propagation={"entry_tolerance": 1e-16},
                   sweep={"name": "protocol.end", "values": [1.2, 0.3]})
        assert main(["jarzynski", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("NotConvergedError: at protocol.end = 0.3: the entry change failed to decrease")

    def test_a_propagation_failure_between_passing_points(self, tmp_path, capsys):
        # the drive passes 1.15 mid-window: the metric degenerates inside the
        # window at coupling 1.1, but at neither edge
        cfg = dict(BASE, protocol={"kind": "tabulated", "samples": [[0, 0.3], [0.5, 1.15], [1, 0.2]]},
                   sweep={"name": "model.coupling", "values": [2.0, 1.1, 1.3]})
        assert main(["jarzynski", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("SingularMetricError: at model.coupling = 1.1: metric loses positive-definiteness")

    @pytest.mark.parametrize(
        "command, sweep, per_point",
        [
            ("jarzynski", {"name": "protocol.duration", "values": [2.0, 0.5, 1.0]}, 1),
            ("fig1-right", {"name": "protocol.duration", "values": [0.5, 1.0]}, 2),
            ("fig2-left", {"name": "protocol.end", "values": [0.6, 0.3, 0.45]}, 1),
            ("jarzynski", {"name": "protocol.start", "values": [0.1, 0.3, 0.2]}, 1),
        ],
    )
    def test_sweeps_measure_each_point_once_as_a_plain_call(self, tmp_path, monkeypatch, command, sweep,
                                                             per_point):
        protocol = {"kind": "erf", "start": 0.1, "end": 0.6, "duration": 1.0}
        cfg = dict(BASE, protocol=protocol, sweep=sweep)
        seen, stacks = [], []

        def measured(*args, **kwargs):
            seen.append((args, kwargs))
            return two_time_work(*args, **kwargs)

        def stacked(H, tol):
            stacks.append(len(H))
            return eigensystems(H, tol)

        eigensystems = thermo._eigensystems
        monkeypatch.setattr(cli, "two_time_work", measured)
        monkeypatch.setattr(thermo, "_eigensystems", stacked)
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) in (0, 1)
        assert len(seen) == per_point * len(sweep["values"])
        # every window edge of the sweep in one stacked kernel call, none in
        # the points' own: H and its hermitian frame at both edges of a point
        assert stacks == [4 * len(seen)]
        monkeypatch.undo()
        for args, kwargs in seen:
            # the look-ahead gives the plain call's result bit for bit
            assert isinstance(kwargs["ahead"], thermo._Ahead)
            given = two_time_work(*args, **kwargs)
            plain = two_time_work(*args, **{k: v for k, v in kwargs.items() if k != "ahead"})
            for name in ("p", "energies_initial", "energies_final"):
                assert getattr(given, name).tobytes() == getattr(plain, name).tobytes(), name
            assert (given.rows, given.cols, given.row_sum_defect, given.report) == (
                plain.rows, plain.cols, plain.row_sum_defect, plain.report)
            assert given.work.w.tobytes() == plain.work.w.tobytes()
            assert given.propagation.U.tobytes() == plain.propagation.U.tobytes()
        # a point's look-ahead refuses another protocol
        (model, _, beta), kwargs = seen[0]
        with pytest.raises(ValueError, match="made for another two-time call"):
            two_time_work(model, Protocol.linear(0.1, 0.35, 1.0), beta, **kwargs)

    def test_a_defective_edge_hands_nothing_over(self, tmp_path, monkeypatch, capsys):
        # the stacked call over every edge raises at 1, the exceptional
        # point, and hands nothing over; each point then decomposes its own
        # edges up to the first that fails, so 0.3 is measured before 1
        # fails and 1.2 is never set up
        cfg = dict(BASE, sweep={"name": "protocol.end", "values": [1.2, 1.0, 0.3]})
        handed, stacks = [], []

        def measured(*args, **kwargs):
            handed.append(kwargs["ahead"])
            return two_time_work(*args, **kwargs)

        def stacked(H, tol):
            stacks.append(len(H))
            return eigensystems(H, tol)

        eigensystems = thermo._eigensystems
        monkeypatch.setattr(cli, "two_time_work", measured)
        monkeypatch.setattr(thermo, "_eigensystems", stacked)
        assert main(["jarzynski", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 3
        # 1 and 1.2 have no finite frame at their end, so only H's two edges
        assert stacks == [8, 4, 2]
        assert [isinstance(ahead.setup, tuple) for ahead in handed] == [True, False]
        assert handed[1].lane is None
        assert capsys.readouterr().err.startswith("DefectiveMatrixError: at protocol.end = 1: eigenvector condition")

    @pytest.mark.parametrize("first, kind", [(-1.0, "DefectiveMatrixError"), (-1.2, "NonRealSpectrumError")],
                             ids=["kernel-refusal", "non-real"])
    def test_a_sweep_propagates_nothing_after_its_first_failing_set_up(self, tmp_path, monkeypatch, first,
                                                                      kind):
        # -1 is the exceptional point, whose edge the kernel refuses; -1.2
        # lies past it, where the final spectrum is a conjugate pair.  The
        # 99 points after it pass their set-up, but none is propagated
        lanes = []
        propagate_lanes = thermo._propagate_lanes

        def spy(model, protocols, *args, **kwargs):
            lanes.extend(protocols)
            return propagate_lanes(model, protocols, *args, **kwargs)

        def run(name, cfg):
            with contextlib.redirect_stderr(io.StringIO()) as err:
                rc = main(["jarzynski", "--config", write_config(tmp_path, cfg, f"{name}.json"),
                           "--out", str(tmp_path / name)])
            return rc, err.getvalue()

        monkeypatch.setattr(thermo, "_propagate_lanes", spy)
        values = [first, *(i / 100 for i in range(1, 100))]
        rc, err = run("sweep", dict(BASE, sweep={"name": "protocol.end", "values": values}))
        assert lanes == []
        own_rc, own_err = run("alone", dict(BASE, protocol=dict(BASE["protocol"], end=first)))
        own_kind, message = own_err.split(": ", 1)
        assert (own_rc, own_kind) == (3, kind)
        assert (rc, err) == (3, f"{kind}: at protocol.end = {first:.6g}: {message}")

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.3, 0.9, 0.999, 1.0, 1.2]) | st.floats(-1.3, 1.3), min_size=1,
                    max_size=4))
    def test_a_sweep_through_the_exceptional_point_runs_as_its_points(self, tmp_path_factory, ends):
        # TwoLevel(1.0) breaks PT symmetry at |protocol.end| = 1: a sweep
        # writes the rows of its points' own runs, or fails as its first
        # failing point fails alone
        tmp_path = tmp_path_factory.mktemp("sweep")

        def run(name, cfg):
            out = tmp_path / name
            with contextlib.redirect_stderr(io.StringIO()) as err:
                rc = main(["jarzynski", "--config", write_config(tmp_path, cfg, f"{name}.json"),
                           "--out", str(out)])
            csv = out / "jarzynski.csv"
            return rc, err.getvalue(), csv.read_text().splitlines()[2:] if csv.exists() else None

        protocol = dict(BASE["protocol"], end=0.5)
        rc, err, rows = run("sweep", dict(BASE, protocol=protocol,
                                          sweep={"name": "protocol.end", "values": ends}))
        alone = [(end, *run(f"alone{i}", dict(BASE, protocol=dict(protocol, end=end))))
                 for i, end in enumerate(sorted(ends))]
        failing = [(end, rc, err) for end, rc, err, _ in alone if rc == 3]
        if failing:
            end, own_rc, own_err = failing[0]
            kind, message = own_err.split(": ", 1)
            assert (rc, err, rows) == (own_rc, f"{kind}: at protocol.end = {end:.6g}: {message}", None)
        else:
            assert rc == max(own_rc for _, own_rc, _, _ in alone)
            # each row is its point's own row, with the point's value in place of 0
            assert rows == ["%.17g,%s" % (end, own[0].split(",", 1)[1]) for end, _, _, own in alone]


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
