"""Configuration-driven experiment runner.

Subcommands expose each pipeline stage (spectrum, metric, evolve, work,
jarzynski, carnot) plus four preset experiments that regenerate the
reference figures' data.  Each cmd_* takes the parsed config and returns
a report: its files, its summary text, its tolerance checks and an
optional SVG chart.  One runner writes the files (each CSV led by a
provenance comment line), prints "<command>: <summary> -> <first file>",
renders the SVG under --svg and turns the checks into the exit code.  CSV
is the artifact of record and SVG rendering is opt-in.

Exit codes: 0 all requested tolerances met, 1 a tolerance check failed
(machine-readable JSON summary on stderr), 2 configuration problem,
3 numerical failure (defective matrix, singular metric, ...).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .dynamics import MAX_STEPS, Protocol, propagate
from .errors import ConfigError, PseudothermError
from .linalg import build_metric, classify_spectrum, eigendecompose, save_matrix
from .linalg import pseudo_hermiticity_residual
from .models import HatanoNelson, Oscillator, TwoLevel, _two_by_two, relaxation_time
from .thermo import _measure_ahead, quasistatic_cycle, two_time_work
from .tolerances import DEFAULT

_FIG_PRESETS = {
    "fig1-left": "fig1_left.json",
    "fig1-right": "fig1_right.json",
    "fig2-left": "fig2_left.json",
    "fig2-right": "fig2_right.json",
}
# fig2-right draws at most this many random states (one CSV row and one SVG point each)
_MAX_STATES = 1_000_000


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
    try:
        value = float(value)
    except OverflowError:  # an integer beyond float range
        _fail(path, "must be finite")
    if not math.isfinite(value):
        _fail(path, "must be finite")
    if positive and value <= 0:
        _fail(path, f"must be positive, got {value!r}")
    return value


def _as_int(value, path, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _fail(path, f"must be <= {maximum}, got {value}")
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
    chain = dict(
        length=_as_int(m.get("length"), "model.length", minimum=2),
        hopping=_as_number(m.get("hopping", 1.0), "model.hopping"),
        asymmetry=_as_number(m.get("asymmetry", 0.0), "model.asymmetry"),
        potential=tuple(
            _as_number(v, f"model.potential[{i}]") for i, v in enumerate(potential)
        ),
        boundary=_as_str(m.get("boundary", "open"), "model.boundary", {"open", "periodic"}),
    )
    # the fields above are checked one by one; the chain checks how they fit together
    try:
        return HatanoNelson(**chain)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


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


def _sweep(cfg: dict, row, required=None, variants=lambda point_cfg: (point_cfg,)):
    """(swept field, rows) of a two-time sweep, one row per sweep value in sorted order.

    Each point measures the configs variants(point_cfg) with `_two_time`,
    and its row is row(value, *results).  Without a sweep the field is
    "value" and the one row is that of cfg, with value None.  required is
    (command, field) for a command that must sweep that field.  The
    configs up to the first that fails or has more than two levels, whose
    stacked edges could change a point's bits, are set up and propagated
    ahead by one `thermo._measure_ahead` call, which stops at the first
    config whose set-up fails: no config after it is propagated.  The
    others are measured by their own calls.  The measurements then run in
    sweep order, so the first failing point raises what a serial sweep
    raises, named by its value.  --workers
    changes nothing: the points are numpy-bound, so threads contend with
    the BLAS threads instead of overlapping.
    """
    name = None
    if "sweep" in cfg:
        s = _as_dict(cfg["sweep"], "sweep")
        name = _as_str(s.get("name"), "sweep.name")
        values = s.get("values")
        if not isinstance(values, list) or not values:
            _fail("sweep.values", "expected a nonempty list of numbers")
        values = [_as_number(v, f"sweep.values[{i}]") for i, v in enumerate(values)]
        node = cfg
        parts = name.split(".")
        if parts[0] == "sweep":
            _fail("sweep.name", "a sweep cannot set its own fields")
        for i, part in enumerate(parts[:-1]):
            node = node.get(part)
            if not isinstance(node, dict):
                _fail("sweep.name", f"path component {'.'.join(parts[: i + 1])!r} is not an object")
        if parts[-1] not in node:
            _fail("sweep.name", f"config has no field {name!r}")
    if required and name != required[1]:
        _fail("sweep.name", "%s sweeps %s" % required)
    if name is None:
        points = [(None, cfg)]
    else:
        points = [(value, _apply_sweep(cfg, name, value)) for value in sorted(values)]
    measured = [variants(point_cfg) for _, point_cfg in points]
    cfgs = [c for cfgs in measured for c in cfgs]
    calls = []
    for c in cfgs:
        try:
            call = _two_time_args(c)
        except Exception:  # its own measurement raises this again, and the sweep ends there
            break
        if call[0].dimension != 2:
            break
        calls.append(call)
    ahead = _measure_ahead(calls)
    ahead = iter([*ahead, *[None] * (len(cfgs) - len(ahead))])
    rows = []
    for (value, _), cfgs in zip(points, measured):
        try:
            rows.append(row(value, *[_two_time(c, next(ahead)) for c in cfgs]))
        except PseudothermError as exc:
            if name is None:
                raise
            raise type(exc)(f"at {name} = {value:.6g}: {exc}") from exc
    return name or "value", rows


def _copy_json(value):
    """A copy of a JSON object or array that shares no dict or list with it."""
    nested = (dict, list)
    if isinstance(value, dict):
        return {key: _copy_json(item) if isinstance(item, nested) else item for key, item in value.items()}
    return [_copy_json(item) if isinstance(item, nested) else item for item in value]


def _apply_sweep(cfg: dict, name: str, value) -> dict:
    """cfg without its sweep, with the field at the dotted path name set to value.

    The result shares no dict or list with cfg.  Leaving the sweep's value
    list out keeps each point's copy the size of the rest of the config.
    """
    out = _copy_json({key: item for key, item in cfg.items() if key != "sweep"})
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
        steps = _as_int(steps, "propagation.steps", minimum=2, maximum=MAX_STEPS)
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
        output = _as_dict(cfg.get("output", {}), "output")
        d = Path(_as_str(output.get("directory", "."), "output.directory"))
    d.mkdir(parents=True, exist_ok=True)
    return d


def _row_format(row) -> str:
    """The format string of one row: "%s" at its text cells, "%.17g" at the others."""
    return ",".join("%s" if isinstance(cell, str) else "%.17g" for cell in row)


def write_csv(path: Path, provenance: str, header, rows, lines=()) -> None:
    """Provenance, header, each row by its own _row_format, then the preformatted lines or blocks."""
    out = [provenance, ",".join(header), *(_row_format(row) % tuple(row) for row in rows), *lines]
    path.write_text("\n".join(out) + "\n")


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


def write_svg(path: Path, title: str, xlabel: str, ylabel: str, series, logx=False, logy=False):
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


class _Check(NamedTuple):
    """One tolerance gate: value <= limit must hold, or value >= limit when at_least."""

    name: str
    value: float
    limit: float
    point: dict | None = None
    at_least: bool = False


class _Report(NamedTuple):
    """What a command computed, for _run to write, print, draw and gate.

    files maps each file name to the (header, rows[, lines]) that write_csv
    takes after the provenance line, or to a writer of the file's path; the
    first file is the one the summary line names.  checks returns the
    _Check list; _run calls it after the files are written, so a bad
    checks.* value exits 2 with the artifacts in place.  svg is the file name
    followed by write_svg's arguments after its path.
    """

    files: dict
    summary: str
    checks: Callable[[], list] = list
    svg: tuple | None = None


def _run(command: str, args, cfg: dict) -> int:
    """Run one command; write its files, print its summary line, draw its SVG, gate its checks."""
    report = _COMMANDS[command](cfg)
    out = _out_dir(args, cfg)
    provenance = f"# pseudotherm v{__version__} config={config_hash(cfg)} seed={cfg.get('seed', 0)}"
    for name, content in report.files.items():
        if callable(content):
            content(out / name)
        else:
            write_csv(out / name, provenance, *content)
    print(f"{command}: {report.summary} -> {out / next(iter(report.files))}")
    if args.svg and report.svg:
        name, *spec = report.svg
        write_svg(out / name, *spec)
    failures = []
    for check in report.checks():
        if not (check.value >= check.limit if check.at_least else check.value <= check.limit):
            item = {"check": check.name, "value": check.value, "limit": check.limit}
            if check.point is not None:
                item["point"] = check.point
            failures.append(item)
    if failures:
        summary = {"command": command, "version": __version__, "failures": failures}
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# generic subcommands


def _eigensystem(cfg: dict):
    """H at the control value ("at", else the protocol's start, else 0) and its eigensystem."""
    model = build_model(cfg)
    if "at" in cfg:
        value = _as_number(cfg["at"], "at")
    elif "protocol" in cfg:
        protocol = build_protocol(cfg)
        value = protocol.value(protocol.t_start)
    else:
        value = 0.0
    H = model.hamiltonian(value)
    return H, eigendecompose(H)


def cmd_spectrum(cfg: dict) -> _Report:
    _, eigsys = _eigensystem(cfg)
    kind = classify_spectrum(eigsys.eigenvalues).kind.name
    rows = [(n, e.real, e.imag) for n, e in enumerate(eigsys.eigenvalues)]
    return _Report(
        {"spectrum.csv": (["index", "re", "im"], rows)},
        f"{kind} dim={eigsys.dim} biortho_residual={eigsys.biortho_residual:.3e}",
        svg=("spectrum.svg", "eigenvalues", "re", "im",
             [("spectrum", [r[1] for r in rows], [r[2] for r in rows])]),
    )


def cmd_metric(cfg: dict) -> _Report:
    H, eigsys = _eigensystem(cfg)
    op = build_metric(eigsys)
    dim = range(eigsys.dim)
    rows = [(i, j, op.g[i, j].real, op.g[i, j].imag) for i in dim for j in dim]
    resid = pseudo_hermiticity_residual(H, op)
    default = DEFAULT.pseudo_hermiticity
    return _Report(
        {"metric.csv": (["i", "j", "re", "im"], rows)},
        f"positive_definite={op.positive_definite} "
        f"min_eigenvalue={op.min_eigenvalue:.6g} residual={resid:.3e}",
        lambda: [_Check("pseudo_hermiticity_residual", resid,
                        _check_value(cfg, "pseudo_hermiticity", default))],
    )


def cmd_evolve(cfg: dict) -> _Report:
    model = build_model(cfg)
    protocol = build_protocol(cfg)
    options = _propagation_options(cfg, model)
    hbar = _as_number(cfg.get("hbar", 1.0), "hbar", positive=True)
    result = propagate(model, protocol, hbar, **options)
    final = result.checkpoints[-1][1]  # the last checkpoint is the last step
    worst = max(r for _, r in result.checkpoints)
    return _Report(
        {
            "evolve_U.txt": lambda path: save_matrix(path, result.U),
            "evolve_checkpoints.csv": (["t", "residual"], result.checkpoints),
        },
        f"steps={result.steps_used} final_residual={final:.3e}",
        lambda: [_Check("checkpoint_unitarity", worst,
                        _check_value(cfg, "unitarity", result.unitarity_gate))],
    )


def _two_time_args(cfg: dict) -> tuple:
    """(model, protocol, beta, keywords) of a two-time config: the arguments of its two_time_work call."""
    model = build_model(cfg)
    protocol = build_protocol(cfg)
    options = _propagation_options(cfg, model)
    beta = _as_number(cfg.get("beta", 1.0), "beta", positive=True)
    return model, protocol, beta, {"hbar": _as_number(cfg.get("hbar", 1.0), "hbar", positive=True), **options}


def _two_time(cfg: dict, ahead=None):
    """two_time_work of a config, given what `thermo._measure_ahead` made of it, if anything."""
    model, protocol, beta, keywords = ahead.call if ahead else _two_time_args(cfg)
    return two_time_work(model, protocol, beta, ahead=ahead, **keywords)


def cmd_work(cfg: dict) -> _Report:
    res = _two_time(cfg)
    E0, ET, w, p = res.energies_initial.real, res.energies_final.real, res.work.w, res.p
    rows = [(n, m, E0[n], ET[m], w[j, k], p[j, k])
            for j, n in enumerate(res.rows) for k, m in enumerate(res.cols)]
    return _Report(
        {"work.csv": (["n", "m", "E_initial", "E_final", "w", "p"], rows)},
        f"{len(rows)} entries total_weight={res.report.total_weight:.6f} "
        f"row_sum_defect={res.row_sum_defect:.3e}",
        lambda: [_Check("row_sum_defect", res.row_sum_defect, _check_value(cfg, "row_sum", 1e-8))],
    )


def _residual_checks(cfg: dict, rows, column: int, field: str) -> list:
    """The Jarzynski relative residual in rows[:][column] within checks.jarzynski_residual."""
    limit = _check_value(cfg, "jarzynski_residual", 1e-5)
    return [_Check("relative_residual", row[column], limit, {field: row[0]}) for row in rows]


_REPORT_COLUMNS = (
    "exp_avg_work",
    "exp_delta_F",
    "relative_residual",
    "mean_work",
    "delta_F",
    "irreversible_work",
)


def cmd_jarzynski(cfg: dict) -> _Report:
    def run(value, res):
        return (
            value if value is not None else 0.0,
            *(getattr(res.report, name) for name in _REPORT_COLUMNS),
            res.row_sum_defect,
            res.propagation.steps_used,
        )

    field, rows = _sweep(cfg, run)
    series = [("residual", [r[0] for r in rows], [max(r[3], 1e-18) for r in rows])]
    return _Report(
        {"jarzynski.csv": ([field, *_REPORT_COLUMNS, "row_sum_defect", "steps"], rows)},
        f"{len(rows)} row(s)",
        lambda: [*_residual_checks(cfg, rows, 3, field),
                 *(_Check("row_sum_defect", row[7], _check_value(cfg, "row_sum", 1e-8), {field: row[0]})
                   for row in rows)],
        ("jarzynski.svg", "Jarzynski residual", field, "relative residual", series, False, True)
        if len(rows) > 1
        else None,
    )


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


def cmd_carnot(cfg: dict) -> _Report:
    cyc = _as_dict(cfg.get("cycle"), "cycle") if "cycle" in cfg else _fail("cycle", "missing")
    T_hot = _as_number(cyc.get("T_hot"), "cycle.T_hot", positive=True)
    T_cold = _as_number(cyc.get("T_cold"), "cycle.T_cold", positive=True)
    if not T_hot > T_cold:
        _fail("cycle.T_hot", f"must exceed cycle.T_cold = {T_cold!r}, got {T_hot!r}")
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
        family = _CouplingFamily(_as_number(cyc.get("fixed_value", 0.0), "cycle.fixed_value"))
    else:
        family = build_model(cfg)
    try:
        report = quasistatic_cycle(family, T_hot, T_cold, legs, steps)
    except ValueError as exc:  # the temperatures and legs are checked above: legs that make no engine
        raise ConfigError(f"cycle.legs: {exc}") from exc

    # each leg's rows come from one "%" over its interleaved (value, S) pairs
    blocks = [((leg + ",%.17g,%.17g\n") * len(v))[:-1] % tuple(np.column_stack((v, S)).ravel().tolist())
              for leg, v, S in report.entropy_trace]
    summary = [tuple(getattr(report, name) for name in _SUMMARY_COLUMNS)]

    def checks():
        slack = _check_value(cfg, "efficiency_slack", 1e-6)
        first_law = _check_value(cfg, "first_law", 1e-6) * abs(report.Q_hot)
        crosscheck = 1e-10 * max(1.0, abs(report.Q_hot))
        return [
            _Check("efficiency_bound", report.efficiency, report.carnot_bound + slack),
            _Check("first_law", report.first_law_defect, first_law),
            _Check("g_trace_crosscheck", report.g_trace_crosscheck, crosscheck),
        ]

    return _Report(
        {
            "carnot_summary.csv": (_SUMMARY_COLUMNS, summary),
            "carnot_trace.csv": (["leg", "value", "entropy"], (), blocks),
        },
        f"efficiency={report.efficiency:.6f} bound={report.carnot_bound:.6f} "
        f"W_net={report.W_net:.6g}",
        checks,
        ("carnot_trace.svg", "cycle entropy", "control value", "S", report.entropy_trace),
    )


# ---------------------------------------------------------------------------
# figure presets


def cmd_fig1_left(cfg: dict) -> _Report:
    res = _two_time(cfg)
    target = res.report.exp_delta_F
    levels = sorted(set(res.rows) | set(res.cols))
    terms = res.p * np.exp(-res.work.beta * res.work.w)
    rows, cols = np.array(res.rows), np.array(res.cols)
    rows_out = []
    for n_max in levels:
        partial = float(np.sum(terms[np.ix_(rows <= n_max, cols <= n_max)]))
        rows_out.append((n_max + 1, partial, target))
    final = rows_out[-1][1]
    n = [r[0] for r in rows_out]
    series = [("partial sum", n, [r[1] for r in rows_out]), ("target", n, [r[2] for r in rows_out])]
    return _Report(
        {"fig1_left.csv": (["n_levels", "partial_exp_avg_work", "exp_delta_F"], rows_out)},
        f"final partial sum {final:.8f}, exp(-beta dF) = {target:.8f}",
        lambda: [_Check("partial_sum_convergence", abs(final / target - 1.0),
                        _check_value(cfg, "convergence", 1e-3))],
        ("fig1_left.svg", "exponentiated-work partial sums", "levels included", "partial sum",
         series),
    )


def cmd_fig1_right(cfg: dict) -> _Report:
    def run(tau, erf, lin):
        erf, lin = erf.report, lin.report
        return (tau, erf.irreversible_work, lin.irreversible_work,
                erf.relative_residual, lin.relative_residual)

    def erf_and_linear(point_cfg):
        return point_cfg, _apply_sweep(point_cfg, "protocol.kind", "linear")

    _, rows = _sweep(cfg, run, ("fig1-right", "protocol.duration"), erf_and_linear)
    taus = [r[0] for r in rows]
    series = [
        ("erf", taus, [max(r[1], 1e-12) for r in rows]),
        ("linear", taus, [max(r[2], 1e-12) for r in rows]),
    ]
    header = ["tau", "w_irr_erf", "w_irr_linear", "residual_erf", "residual_linear"]
    nonnegative = ((1, "w_irr_nonnegative"), (2, "w_irr_nonnegative_linear"))
    return _Report(
        {"fig1_right.csv": (header, rows)},
        f"{len(rows)} tau points, quasistatic W_irr = {rows[-1][1]:.3e}",
        lambda: [
            *(_Check(name, row[k], -1e-8, {"tau": row[0]}, at_least=True)
              for row in rows for k, name in nonnegative),
            _Check("w_irr_quasistatic", rows[-1][1], _check_value(cfg, "quasistatic", 1e-3)),
            _Check("linear_exceeds_erf_at_fastest", rows[0][2] - rows[0][1], 0.0,
                   {"tau": rows[0][0]}, at_least=True),
        ],
        ("fig1_right.svg", "irreversible work vs protocol time", "tau", "W_irr", series,
         True, True),
    )


def cmd_fig2_left(cfg: dict) -> _Report:
    def run(lam, res):
        return (lam, relaxation_time(res.energies_final), res.report.relative_residual)

    _, rows = _sweep(cfg, run, ("fig2-left", "protocol.end"))
    return _Report(
        {"fig2_left.csv": (["lambda_f", "relaxation_time", "jarzynski_residual"], rows)},
        f"{len(rows)} points, T_r({rows[-1][0]:g}) = {rows[-1][1]:.4f}",
        lambda: _residual_checks(cfg, rows, 2, "lambda_f"),
        ("fig2_left.svg", "relaxation time", "final drive value", "T_r",
         [("T_r", [r[0] for r in rows], [r[1] for r in rows])]),
    )


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


def cmd_fig2_right(cfg: dict) -> _Report:
    count = _as_int(cfg.get("count", 100), "count", minimum=1, maximum=_MAX_STATES)
    seed = _as_int(cfg.get("seed", 42), "seed", minimum=0)
    norms = random_metric_norms(count, seed)
    n_pos = int(np.sum(norms > 0))
    return _Report(
        {"fig2_right.csv": (["state", "metric_norm"], list(enumerate(norms)))},
        f"{n_pos} positive / {count - n_pos} negative norms",
        lambda: [
            _Check("positive_norms_present", float(np.max(norms)), 0.0, at_least=True),
            _Check("negative_norms_present", -float(np.min(norms)), 0.0, at_least=True),
        ],
        ("fig2_right.svg", "indefinite-metric norms", "state index", "norm",
         [("norm", list(range(count)), list(norms))]),
    )


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
    parser.add_argument("command", choices=_COMMANDS, help="the pipeline to run")
    parser.add_argument("--config", help="JSON config file (figure commands default to their preset)")
    parser.add_argument("--out", help="output directory (overrides PSEUDOTHERM_OUT)")
    parser.add_argument("--svg", action="store_true", help="also render SVG plots")
    parser.add_argument(
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
        return _run(args.command, args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PseudothermError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
