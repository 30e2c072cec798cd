"""Configuration-driven experiment runner.

Subcommands expose each pipeline stage (spectrum, metric, evolve, work,
jarzynski, carnot) plus four preset experiments that regenerate the
reference figures' data.  Every run writes CSV with a provenance comment
line; CSV is the artifact of record and SVG rendering is opt-in.

Exit codes: 0 all requested tolerances met, 1 a tolerance check failed
(machine-readable JSON summary on stderr), 2 configuration problem,
3 numerical failure (defective matrix, singular metric, ...).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
from importlib import resources
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import Protocol, propagate, unitarity_residual
from .errors import ConfigError, PseudothermError
from .linalg import build_metric, classify_spectrum, eigendecompose, save_matrix
from .models import HatanoNelson, Oscillator, TwoLevel, _two_by_two, relaxation_time
from .thermo import quasistatic_cycle, two_time_work
from .tolerances import DEFAULT

_FIG_PRESETS = {
    "fig1-left": "fig1_left.json",
    "fig1-right": "fig1_right.json",
    "fig2-left": "fig2_left.json",
    "fig2-right": "fig2_right.json",
}


# ---------------------------------------------------------------------------
# configuration loading and validation


def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _as_dict(value, path):
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_number(value, path, *, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        _fail(path, "must be finite")
    if positive and value <= 0:
        _fail(path, f"must be positive, got {value!r}")
    return value


def _as_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    return int(value)


def _as_bool(value, path):
    if not isinstance(value, bool):
        _fail(path, f"expected true/false, got {value!r}")
    return value


def _as_str(value, path, choices=None):
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {value!r}")
    if choices and value not in choices:
        _fail(path, f"must be one of {sorted(choices)}, got {value!r}")
    return value


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return _as_dict(cfg, "config")


def load_preset(name: str) -> dict:
    ref = resources.files("pseudotherm").joinpath("presets", name)
    return _as_dict(json.loads(ref.read_text()), "config")


def build_model(cfg: dict):
    m = _as_dict(cfg.get("model"), "model") if "model" in cfg else _fail("model", "missing")
    kind = _as_str(m.get("kind"), "model.kind", {"two_level", "oscillator", "hatano_nelson"})
    if kind == "two_level":
        return TwoLevel(coupling=_as_number(m.get("coupling", 1.0), "model.coupling", positive=True))
    if kind == "oscillator":
        return Oscillator(
            omega_ref=_as_number(m.get("omega_ref"), "model.omega_ref", positive=True),
            shift=_as_number(m.get("shift", 0.0), "model.shift"),
            n_basis=_as_int(m.get("n_basis", 40), "model.n_basis", minimum=8),
            mass=_as_number(m.get("mass", 1.0), "model.mass", positive=True),
        )
    potential = m.get("potential", [])
    if not isinstance(potential, list):
        _fail("model.potential", "expected a list of reals")
    return HatanoNelson(
        length=_as_int(m.get("length"), "model.length", minimum=2),
        hopping=_as_number(m.get("hopping", 1.0), "model.hopping"),
        asymmetry=_as_number(m.get("asymmetry", 0.0), "model.asymmetry"),
        potential=tuple(
            _as_number(v, f"model.potential[{i}]") for i, v in enumerate(potential)
        ),
        boundary=_as_str(m.get("boundary", "open"), "model.boundary", {"open", "periodic"}),
    )


def build_protocol(cfg: dict) -> Protocol:
    p = _as_dict(cfg.get("protocol"), "protocol") if "protocol" in cfg else _fail("protocol", "missing")
    kind = _as_str(p.get("kind"), "protocol.kind", {"linear", "erf", "tabulated"})
    try:
        if kind == "tabulated":
            samples = p.get("samples")
            if not isinstance(samples, list) or len(samples) < 2:
                _fail("protocol.samples", "expected a list of [t, value] pairs")
            pairs = []
            for i, s in enumerate(samples):
                if not isinstance(s, list) or len(s) != 2:
                    _fail(f"protocol.samples[{i}]", "expected a [t, value] pair")
                pairs.append(
                    (
                        _as_number(s[0], f"protocol.samples[{i}][0]"),
                        _as_number(s[1], f"protocol.samples[{i}][1]"),
                    )
                )
            return Protocol.tabulated(pairs)
        start = _as_number(p.get("start"), "protocol.start")
        end = _as_number(p.get("end"), "protocol.end")
        duration = _as_number(p.get("duration", 1.0), "protocol.duration", positive=True)
        if kind == "linear":
            return Protocol.linear(start, end, duration)
        window = _as_number(p.get("window", 3.0), "protocol.window", positive=True)
        return Protocol.erf(start, end, duration, window)
    except ValueError as exc:
        raise ConfigError(f"protocol: {exc}") from exc


def _validate_sweep(cfg: dict):
    if "sweep" not in cfg:
        return None
    s = _as_dict(cfg["sweep"], "sweep")
    name = _as_str(s.get("name"), "sweep.name")
    values = s.get("values")
    if not isinstance(values, list) or not values:
        _fail("sweep.values", "expected a nonempty list of numbers")
    values = [_as_number(v, f"sweep.values[{i}]") for i, v in enumerate(values)]
    node = cfg
    parts = name.split(".")
    for i, part in enumerate(parts[:-1]):
        node = node.get(part)
        if not isinstance(node, dict):
            _fail("sweep.name", f"path component {'.'.join(parts[: i + 1])!r} is not an object")
    if parts[-1] not in node:
        _fail("sweep.name", f"config has no field {name!r}")
    return name, values


def _apply_sweep(cfg: dict, name: str, value) -> dict:
    out = json.loads(json.dumps(cfg))
    node = out
    parts = name.split(".")
    for part in parts[:-1]:
        node = node[part]
    node[parts[-1]] = value
    return out


def _check_value(cfg: dict, key: str, default: float) -> float:
    checks = cfg.get("checks", {})
    if not isinstance(checks, dict):
        _fail("checks", "expected an object")
    if key in checks:
        return _as_number(checks[key], f"checks.{key}", positive=True)
    return default


def _propagation_options(cfg: dict, model) -> dict:
    """propagation.* as the keyword arguments of propagate and two_time_work."""
    prop_cfg = _as_dict(cfg.get("propagation", {}), "propagation")
    has_frame = hasattr(model, "hermitian_frame")
    precondition = prop_cfg.get("precondition")
    if precondition is None:
        precondition = has_frame
    elif _as_bool(precondition, "propagation.precondition") and not has_frame:
        _fail("propagation.precondition", f"{type(model).__name__} has no hermitian frame")
    entry_tol = prop_cfg.get("entry_tolerance")
    if entry_tol is not None:
        entry_tol = _as_number(entry_tol, "propagation.entry_tolerance", positive=True)
    steps = prop_cfg.get("steps")
    if steps is not None:
        steps = _as_int(steps, "propagation.steps", minimum=2)
    return {"gauge_precondition": precondition, "entry_tol": entry_tol, "steps": steps}


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(canon).hexdigest()[:12]


# ---------------------------------------------------------------------------
# artifact writers


def _out_dir(args, cfg: dict) -> Path:
    if args.out:
        d = Path(args.out)
    elif os.environ.get("PSEUDOTHERM_OUT"):
        d = Path(os.environ["PSEUDOTHERM_OUT"])
    else:
        d = Path(_as_dict(cfg.get("output", {}), "output").get("directory", "."))
    d.mkdir(parents=True, exist_ok=True)
    return d


def _row_format(row) -> str:
    """The format string of one row: "%s" at its text cells, "%.17g" at the others."""
    return ",".join("%s" if isinstance(cell, str) else "%.17g" for cell in row)


def _format_rows(rows: list) -> list:
    """Each row as a CSV line; text cells as they are, numbers as "%.17g" % float(x).

    The first row's format string serves every row when all rows have its
    width and its text columns hold only str; otherwise, or when a number
    column holds a str, each row is formatted by its own.
    """
    if not rows:
        return []
    first = rows[0]
    text = [i for i, cell in enumerate(first) if isinstance(cell, str)]
    if set(map(len, rows)) == {len(first)} and all(
        issubclass(t, str) for i in text for t in set(map(type, map(itemgetter(i), rows)))
    ):
        try:
            return list(map(_row_format(first).__mod__, rows))
        except TypeError:  # a number column holds a str
            pass
    return [_row_format(row) % row for row in rows]


def write_csv(path: Path, provenance: str, header, rows) -> None:
    lines = [provenance, ",".join(header), *_format_rows(list(map(tuple, rows)))]
    path.write_text("\n".join(lines) + "\n")


def read_csv(path: Path):
    """Round-trip reader: returns (provenance, header, rows of floats/strings)."""
    lines = Path(path).read_text().splitlines()
    provenance = lines[0]
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        cells = []
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return provenance, header, rows


def write_svg(path: Path, title: str, xlabel: str, ylabel: str, series, *, logx=False, logy=False):
    """Minimal polyline chart; series is [(label, xs, ys), ...]."""
    W, H, ml, mr, mt, mb = 640, 420, 64, 16, 28, 44
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]

    def tx(v, lo, hi, log):
        if log:
            v, lo, hi = math.log10(v), math.log10(lo), math.log10(hi)
        return (v - lo) / (hi - lo) if hi > lo else 0.5

    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    colors = ["#1f6feb", "#d73a49", "#22863a", "#6f42c1"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2}" y="18" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{W / 2}" y="{H - 8}" text-anchor="middle">{xlabel}</text>',
        f'<text x="14" y="{H / 2}" text-anchor="middle" '
        f'transform="rotate(-90 14 {H / 2})">{ylabel}</text>',
        f'<rect x="{ml}" y="{mt}" width="{W - ml - mr}" height="{H - mt - mb}" '
        'fill="none" stroke="#888"/>',
    ]
    for i, (label, xs, ys) in enumerate(series):
        pts = []
        for x, y in zip(xs, ys):
            px = ml + tx(x, x_lo, x_hi, logx) * (W - ml - mr)
            py = H - mb - tx(y, y_lo, y_hi, logy) * (H - mt - mb)
            pts.append(f"{px:.2f},{py:.2f}")
        color = colors[i % len(colors)]
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{W - mr - 8}" y="{mt + 16 + 16 * i}" text-anchor="end" '
            f'fill="{color}">{label}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo * (x_hi / x_lo) ** frac if logx else x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        px = ml + frac * (W - ml - mr)
        py = H - mb - frac * (H - mt - mb)
        parts.append(f'<text x="{px}" y="{H - mb + 16}" text-anchor="middle">{xv:.3g}</text>')
        parts.append(f'<text x="{ml - 6}" y="{py + 4}" text-anchor="end">{yv:.3g}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


class _Failures:
    """Collects tolerance-check failures for the exit-code contract."""

    def __init__(self, command: str):
        self.command = command
        self.items: list = []

    def check(self, name: str, value: float, limit: float, point=None, *, larger_ok=False):
        ok = value >= limit if larger_ok else value <= limit
        if not ok:
            item = {"check": name, "value": value, "limit": limit}
            if point is not None:
                item["point"] = point
            self.items.append(item)

    def finish(self) -> int:
        if not self.items:
            return 0
        summary = {"command": self.command, "version": __version__, "failures": self.items}
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# generic subcommands


def _provenance(cfg: dict) -> str:
    seed = cfg.get("seed", 0)
    return f"# pseudotherm v{__version__} config={config_hash(cfg)} seed={seed}"


def _model_value(cfg: dict) -> float:
    if "at" in cfg:
        return _as_number(cfg["at"], "at")
    if "protocol" in cfg:
        protocol = build_protocol(cfg)
        return protocol.value(protocol.t_start)
    return 0.0


def cmd_spectrum(args, cfg: dict) -> int:
    model = build_model(cfg)
    value = _model_value(cfg)
    eigsys = eigendecompose(model.hamiltonian(value))
    classified = classify_spectrum(eigsys.eigenvalues)
    out = _out_dir(args, cfg)
    rows = [(n, e.real, e.imag) for n, e in enumerate(eigsys.eigenvalues)]
    write_csv(out / "spectrum.csv", _provenance(cfg), ["index", "re", "im"], rows)
    print(
        f"spectrum: {classified.kind.name} dim={eigsys.dim} "
        f"biortho_residual={eigsys.biortho_residual:.3e} -> {out / 'spectrum.csv'}"
    )
    if args.svg:
        write_svg(
            out / "spectrum.svg",
            "eigenvalues",
            "re",
            "im",
            [("spectrum", [r[1] for r in rows], [r[2] for r in rows])],
        )
    return 0


def cmd_metric(args, cfg: dict) -> int:
    model = build_model(cfg)
    value = _model_value(cfg)
    H = model.hamiltonian(value)
    eigsys = eigendecompose(H)
    op = build_metric(eigsys)
    out = _out_dir(args, cfg)
    rows = [
        (i, j, op.g[i, j].real, op.g[i, j].imag)
        for i in range(eigsys.dim)
        for j in range(eigsys.dim)
    ]
    write_csv(out / "metric.csv", _provenance(cfg), ["i", "j", "re", "im"], rows)
    from .linalg import pseudo_hermiticity_residual

    resid = pseudo_hermiticity_residual(H, op)
    print(
        f"metric: positive_definite={op.positive_definite} "
        f"min_eigenvalue={op.min_eigenvalue:.6g} residual={resid:.3e} -> {out / 'metric.csv'}"
    )
    fails = _Failures("metric")
    fails.check("pseudo_hermiticity_residual", resid, _check_value(cfg, "pseudo_hermiticity", DEFAULT.pseudo_hermiticity))
    return fails.finish()


def cmd_evolve(args, cfg: dict) -> int:
    model = build_model(cfg)
    protocol = build_protocol(cfg)
    options = _propagation_options(cfg, model)
    result = propagate(
        model, protocol, _as_number(cfg.get("hbar", 1.0), "hbar", positive=True), **options
    )
    out = _out_dir(args, cfg)
    save_matrix(out / "evolve_U.txt", result.U)
    rows = [(t, r) for t, r in result.checkpoints]
    write_csv(out / "evolve_checkpoints.csv", _provenance(cfg), ["t", "residual"], rows)
    final = unitarity_residual(result.U, result.g_start, result.g_end)
    print(
        f"evolve: steps={result.steps_used} final_residual={final:.3e} "
        f"-> {out / 'evolve_U.txt'}"
    )
    worst = max(r for _, r in result.checkpoints)
    gate = _check_value(
        cfg, "unitarity", DEFAULT.propagation * max(1.0, float(np.linalg.norm(result.g_start)))
    )
    fails = _Failures("evolve")
    fails.check("checkpoint_unitarity", worst, gate)
    return fails.finish()


def _two_time(cfg: dict):
    model = build_model(cfg)
    protocol = build_protocol(cfg)
    options = _propagation_options(cfg, model)
    return two_time_work(
        model,
        protocol,
        _as_number(cfg.get("beta", 1.0), "beta", positive=True),
        hbar=_as_number(cfg.get("hbar", 1.0), "hbar", positive=True),
        **options,
    )


def cmd_work(args, cfg: dict) -> int:
    res = _two_time(cfg)
    out = _out_dir(args, cfg)
    E0, ET = res.energies_initial.real, res.energies_final.real
    levels = itertools.product(res.rows, res.cols)  # the order of res.work.entries
    rows = [(n, m, E0[n], ET[m], w, p) for (n, m), (w, p) in zip(levels, res.work.entries)]
    write_csv(
        out / "work.csv",
        _provenance(cfg),
        ["n", "m", "E_initial", "E_final", "w", "p"],
        rows,
    )
    print(
        f"work: {len(rows)} entries total_weight={res.report.total_weight:.6f} "
        f"row_sum_defect={res.row_sum_defect:.3e} -> {out / 'work.csv'}"
    )
    fails = _Failures("work")
    fails.check("row_sum_defect", res.row_sum_defect, _check_value(cfg, "row_sum", 1e-8))
    return fails.finish()


def _sweep_map(cfg, sweep, fn):
    """Run fn(point_cfg, value) across the sweep serially, in sweep-key order.

    Sweeps run serially whatever --workers says: the points are numpy-bound,
    so threads contend with the BLAS threads instead of overlapping.
    """
    if sweep is None:
        return [fn(cfg, None)]
    name, values = sweep
    points = [(value, _apply_sweep(cfg, name, value)) for value in sorted(values)]
    rows = []
    for value, point_cfg in points:
        try:
            rows.append(fn(point_cfg, value))
        except PseudothermError as exc:
            raise type(exc)(f"at {name} = {value:.6g}: {exc}") from exc
    return rows


_REPORT_COLUMNS = (
    "exp_avg_work",
    "exp_delta_F",
    "relative_residual",
    "mean_work",
    "delta_F",
    "irreversible_work",
)


def cmd_jarzynski(args, cfg: dict) -> int:
    sweep = _validate_sweep(cfg)
    sweep_name = sweep[0] if sweep else "value"

    def run(point_cfg, value):
        res = _two_time(point_cfg)
        return (
            value if value is not None else 0.0,
            *(getattr(res.report, name) for name in _REPORT_COLUMNS),
            res.row_sum_defect,
            res.propagation.steps_used,
        )

    rows = _sweep_map(cfg, sweep, run)
    out = _out_dir(args, cfg)
    header = [sweep_name, *_REPORT_COLUMNS, "row_sum_defect", "steps"]
    write_csv(out / "jarzynski.csv", _provenance(cfg), header, rows)
    print(f"jarzynski: {len(rows)} row(s) -> {out / 'jarzynski.csv'}")
    limit = _check_value(cfg, "jarzynski_residual", 1e-5)
    fails = _Failures("jarzynski")
    for row in rows:
        fails.check("relative_residual", row[3], limit, point={sweep_name: row[0]})
    if args.svg and len(rows) > 1:
        write_svg(
            out / "jarzynski.svg",
            "Jarzynski residual",
            sweep_name,
            "relative residual",
            [("residual", [r[0] for r in rows], [max(r[3], 1e-18) for r in rows])],
            logy=True,
        )
    return fails.finish()


class _CouplingFamily:
    """TwoLevel(coupling=gamma).hamiltonian(fixed) as a family in gamma.

    hamiltonian(gammas) returns the (k, 2, 2) stack for an array of gammas
    in one call.
    """

    def __init__(self, fixed: float):
        self.fixed = fixed

    def hamiltonian(self, gammas) -> np.ndarray:
        iv = 1j * self.fixed
        return _two_by_two(np.shape(gammas), iv, gammas, gammas, -iv)


_SUMMARY_COLUMNS = (
    "T_hot",
    "T_cold",
    "Q_hot",
    "Q_cold",
    "W_net",
    "efficiency",
    "carnot_bound",
    "first_law_defect",
    "g_trace_crosscheck",
)


def cmd_carnot(args, cfg: dict) -> int:
    cyc = _as_dict(cfg.get("cycle"), "cycle") if "cycle" in cfg else _fail("cycle", "missing")
    T_hot = _as_number(cyc.get("T_hot"), "cycle.T_hot", positive=True)
    T_cold = _as_number(cyc.get("T_cold"), "cycle.T_cold", positive=True)
    legs = cyc.get("legs")
    if not isinstance(legs, list) or len(legs) != 4:
        _fail("cycle.legs", "expected [A, B, C, D] control values")
    legs = [_as_number(v, f"cycle.legs[{i}]") for i, v in enumerate(legs)]
    steps = _as_int(cyc.get("steps", 10000), "cycle.steps", minimum=400)
    parameter = _as_str(cyc.get("parameter", "value"), "cycle.parameter", {"value", "coupling"})
    if parameter == "coupling":
        kind = _as_str(_as_dict(cfg.get("model"), "model").get("kind"), "model.kind")
        if kind != "two_level":
            _fail("cycle.parameter", "coupling sweeps need a two_level model")
        fixed = _as_number(cyc.get("fixed_value", 0.0), "cycle.fixed_value")
        report = quasistatic_cycle(_CouplingFamily(fixed), T_hot, T_cold, legs, steps)
    else:
        report = quasistatic_cycle(build_model(cfg), T_hot, T_cold, legs, steps)

    out = _out_dir(args, cfg)
    write_csv(
        out / "carnot_trace.csv",
        _provenance(cfg),
        ["leg", "value", "entropy"],
        report.entropy_trace,
    )
    write_csv(
        out / "carnot_summary.csv",
        _provenance(cfg),
        _SUMMARY_COLUMNS,
        [tuple(getattr(report, name) for name in _SUMMARY_COLUMNS)],
    )
    print(
        f"carnot: efficiency={report.efficiency:.6f} bound={report.carnot_bound:.6f} "
        f"W_net={report.W_net:.6g} -> {out / 'carnot_summary.csv'}"
    )
    if args.svg:
        per_leg = {}
        for leg, v, s in report.entropy_trace:
            per_leg.setdefault(leg, ([], []))
            per_leg[leg][0].append(v)
            per_leg[leg][1].append(s)
        write_svg(
            out / "carnot_trace.svg",
            "cycle entropy",
            "control value",
            "S",
            [(leg, xs, ys) for leg, (xs, ys) in per_leg.items()],
        )
    fails = _Failures("carnot")
    fails.check(
        "efficiency_bound",
        report.efficiency,
        report.carnot_bound + _check_value(cfg, "efficiency_slack", 1e-6),
    )
    fails.check(
        "first_law",
        report.first_law_defect,
        _check_value(cfg, "first_law", 1e-6) * abs(report.Q_hot),
    )
    return fails.finish()


# ---------------------------------------------------------------------------
# figure presets


def cmd_fig1_left(args, cfg: dict) -> int:
    res = _two_time(cfg)
    target = res.report.exp_delta_F
    levels = sorted(set(res.rows) | set(res.cols))
    w = np.array([e[0] for e in res.work.entries]).reshape(res.p.shape)
    terms = res.p * np.exp(-res.beta * w)
    rows, cols = np.array(res.rows), np.array(res.cols)
    rows_out = []
    for n_max in levels:
        partial = float(np.sum(terms[np.ix_(rows <= n_max, cols <= n_max)]))
        rows_out.append((n_max + 1, partial, target))
    out = _out_dir(args, cfg)
    write_csv(
        out / "fig1_left.csv",
        _provenance(cfg),
        ["n_levels", "partial_exp_avg_work", "exp_delta_F"],
        rows_out,
    )
    final = rows_out[-1][1]
    print(
        f"fig1-left: final partial sum {final:.8f}, exp(-beta dF) = {target:.8f} "
        f"-> {out / 'fig1_left.csv'}"
    )
    if args.svg:
        write_svg(
            out / "fig1_left.svg",
            "exponentiated-work partial sums",
            "levels included",
            "partial sum",
            [
                ("partial sum", [r[0] for r in rows_out], [r[1] for r in rows_out]),
                ("target", [r[0] for r in rows_out], [r[2] for r in rows_out]),
            ],
        )
    fails = _Failures("fig1-left")
    fails.check(
        "partial_sum_convergence",
        abs(final / target - 1.0),
        _check_value(cfg, "convergence", 1e-3),
    )
    return fails.finish()


def cmd_fig1_right(args, cfg: dict) -> int:
    sweep = _validate_sweep(cfg)
    if sweep is None or sweep[0] != "protocol.duration":
        _fail("sweep.name", "fig1-right sweeps protocol.duration")

    def run(point_cfg, tau):
        erf_res = _two_time(point_cfg)
        lin_res = _two_time(_apply_sweep(point_cfg, "protocol.kind", "linear"))
        return (
            tau,
            erf_res.report.irreversible_work,
            lin_res.report.irreversible_work,
            erf_res.report.relative_residual,
            lin_res.report.relative_residual,
        )

    rows = _sweep_map(cfg, sweep, run)
    out = _out_dir(args, cfg)
    write_csv(
        out / "fig1_right.csv",
        _provenance(cfg),
        ["tau", "w_irr_erf", "w_irr_linear", "residual_erf", "residual_linear"],
        rows,
    )
    print(
        f"fig1-right: {len(rows)} tau points, quasistatic W_irr = {rows[-1][1]:.3e} "
        f"-> {out / 'fig1_right.csv'}"
    )
    if args.svg:
        floor = 1e-12
        write_svg(
            out / "fig1_right.svg",
            "irreversible work vs protocol time",
            "tau",
            "W_irr",
            [
                ("erf", [r[0] for r in rows], [max(r[1], floor) for r in rows]),
                ("linear", [r[0] for r in rows], [max(r[2], floor) for r in rows]),
            ],
            logx=True,
            logy=True,
        )
    fails = _Failures("fig1-right")
    for row in rows:
        fails.check("w_irr_nonnegative", row[1], -1e-8, point={"tau": row[0]}, larger_ok=True)
        fails.check("w_irr_nonnegative_linear", row[2], -1e-8, point={"tau": row[0]}, larger_ok=True)
    fails.check("w_irr_quasistatic", rows[-1][1], _check_value(cfg, "quasistatic", 1e-3))
    fails.check(
        "linear_exceeds_erf_at_fastest",
        rows[0][2] - rows[0][1],
        0.0,
        point={"tau": rows[0][0]},
        larger_ok=True,
    )
    return fails.finish()


def cmd_fig2_left(args, cfg: dict) -> int:
    sweep = _validate_sweep(cfg)
    if sweep is None or sweep[0] != "protocol.end":
        _fail("sweep.name", "fig2-left sweeps protocol.end")

    def run(point_cfg, lam):
        model = build_model(point_cfg)
        protocol = build_protocol(point_cfg)
        eigs = eigendecompose(model.hamiltonian(protocol.value(protocol.t_end)))
        t_r = relaxation_time(eigs.eigenvalues)
        res = _two_time(point_cfg)
        return (lam, t_r, res.report.relative_residual)

    rows = _sweep_map(cfg, sweep, run)
    out = _out_dir(args, cfg)
    write_csv(
        out / "fig2_left.csv",
        _provenance(cfg),
        ["lambda_f", "relaxation_time", "jarzynski_residual"],
        rows,
    )
    print(
        f"fig2-left: {len(rows)} points, T_r({rows[-1][0]:g}) = {rows[-1][1]:.4f} "
        f"-> {out / 'fig2_left.csv'}"
    )
    if args.svg:
        write_svg(
            out / "fig2_left.svg",
            "relaxation time",
            "final drive value",
            "T_r",
            [("T_r", [r[0] for r in rows], [r[1] for r in rows])],
        )
    limit = _check_value(cfg, "jarzynski_residual", 1e-5)
    fails = _Failures("fig2-left")
    for row in rows:
        fails.check("relative_residual", row[2], limit, point={"lambda_f": row[0]})
    return fails.finish()


def random_metric_norms(count: int, seed: int, g=None) -> np.ndarray:
    """<psi, g psi> for `count` seeded random unit vectors.

    Components are standard normal in both real and imaginary parts
    (PCG64 generator); with an indefinite metric both signs occur.
    """
    g = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) if g is None else np.asarray(g, complex)
    rng = np.random.Generator(np.random.PCG64(seed))
    dim = g.shape[0]
    states = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    states /= np.linalg.norm(states, axis=1)[:, None]
    return np.einsum("ni,ij,nj->n", states.conj(), g, states).real


def cmd_fig2_right(args, cfg: dict) -> int:
    count = _as_int(cfg.get("count", 100), "count", minimum=1)
    seed = _as_int(cfg.get("seed", 42), "seed")
    norms = random_metric_norms(count, seed)
    out = _out_dir(args, cfg)
    write_csv(
        out / "fig2_right.csv",
        _provenance(cfg),
        ["state", "metric_norm"],
        list(enumerate(norms)),
    )
    n_pos = int(np.sum(norms > 0))
    print(
        f"fig2-right: {n_pos} positive / {count - n_pos} negative norms "
        f"-> {out / 'fig2_right.csv'}"
    )
    if args.svg:
        write_svg(
            out / "fig2_right.svg",
            "indefinite-metric norms",
            "state index",
            "norm",
            [("norm", list(range(count)), list(norms))],
        )
    fails = _Failures("fig2-right")
    fails.check("positive_norms_present", float(np.max(norms)), 0.0, larger_ok=True)
    fails.check("negative_norms_present", -float(np.min(norms)), 0.0, larger_ok=True)
    return fails.finish()


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "spectrum": cmd_spectrum,
    "metric": cmd_metric,
    "evolve": cmd_evolve,
    "work": cmd_work,
    "jarzynski": cmd_jarzynski,
    "carnot": cmd_carnot,
    "fig1-left": cmd_fig1_left,
    "fig1-right": cmd_fig1_right,
    "fig2-left": cmd_fig2_left,
    "fig2-right": cmd_fig2_right,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudotherm",
        description="pseudo-hermitian work statistics and cycle experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", help="JSON config file (figure commands default to their preset)")
        p.add_argument("--out", help="output directory (overrides PSEUDOTHERM_OUT)")
        p.add_argument("--svg", action="store_true", help="also render SVG plots")
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="accepted for compatibility (>= 1); sweeps run serially and the output never depends on it",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = load_config(args.config)
        elif args.command in _FIG_PRESETS:
            cfg = load_preset(_FIG_PRESETS[args.command])
        else:
            raise ConfigError(f"{args.command} requires --config")
        if args.workers < 1:
            raise ConfigError("--workers must be at least 1")
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PseudothermError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
