"""The benchmark's four workloads: seeded inputs, one iteration, and checks.

Every workload draws its inputs from a fixed pool stored in `pool.json`
together with the headline outputs the seed commit computed for each pool
entry.  `--seed` only chooses which pool entries a run uses, so any seed
gives inputs whose reference values are known, and the program receives
nothing but the generated configs or model parameters.  The pools are made
by the `*_pool` functions below (`make_reference.py` calls them once); the
reason for each workload and its input ranges are documented beside them.

A workload object owns a work directory holding its input files.  Its
`setup` parses them, builds the models and fills their lazy caches;
`iterate` is one full pass over the inputs through the package's public
entry points; `extract` turns the raw results into one record per point.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from pseudotherm import DEFAULT, HatanoNelson, cli, linalg, thermo
from pseudotherm.errors import PseudothermError

POOL_FILE = Path(__file__).with_name("pool.json")
# seed of the random parts of the pools (carnot geometries, chain parameters)
POOL_SEED = 20151119

# Gates, as the package's CLI and propagate apply them by default.
JARZYNSKI_GATE = 1e-5  # `jarzynski` / `fig2-left` default
ROW_SUM_GATE = 1e-8  # `work` default
W_IRR_FLOOR = -1e-8  # `fig1-right` w_irr_nonnegative
EFFICIENCY_SLACK = 1e-6  # `carnot` efficiency_bound
FIRST_LAW_GATE = 1e-6  # `carnot` first_law, times |Q_hot|


def _quiet_cli(argv) -> int:
    """cli.main(argv) with its stdout and stderr swallowed; the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _fill_caches(model, value: float) -> None:
    """Touch the lazily cached parts of a model through its public methods."""
    model.hamiltonian(value)
    model.metric(value)
    if hasattr(model, "hermitian_frame"):
        model.hermitian_frame(value)


def _checkpoint_ok(prop) -> bool:
    """propagate's own acceptance gate on the worst checkpoint residual."""
    gate = DEFAULT.propagation * max(1.0, float(np.linalg.norm(prop.g_start)))
    return max(r for _, r in prop.checkpoints) <= gate


def _two_time_gates(point: dict) -> list:
    missed = []
    if not point["residual"] <= JARZYNSKI_GATE:
        missed.append("jarzynski_residual")
    if not point["row_sum_defect"] <= ROW_SUM_GATE:
        missed.append("row_sum_defect")
    if not point["checkpoint_ok"]:
        missed.append("checkpoint_unitarity")
    if not point["w_irr"] >= W_IRR_FLOOR:
        missed.append("w_irr_nonnegative")
    return missed


class Workload:
    """Common shape of a workload.

    Subclasses provide `select(rng, pool)` (the pool entries a seed picks),
    `files(entries, seed)` (input files to write, by name), `setup()`,
    `iterate(mark_point)` (one pass; raw results), `extract(raw, captured,
    n_points)` (one dict per point, or {"error": name}) and `gates(point)`
    (names of the checks a point misses).
    """

    name = ""
    # per-point headline outputs compared with the pool's reference values:
    # name -> (relative tolerance, absolute floor)
    headline: dict = {}
    # points each pool entry yields
    points_per_entry = 1
    # traced function whose return ends a point, for sweeps run inside the CLI
    point_root = None

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)
        self.out = self.workdir / "out"


# ---------------------------------------------------------------------------
# osc-drive: fig1-right through cli.main


OSC_BANDS = ((0.11, 0.14), (0.62, 0.70), (2.6, 3.0), (9.2, 10.4))


def osc_pool():
    """Protocol times tau for `osc-drive`: 8 log-spaced values in each band.

    Why: this is the paper's irreversible-work figure (d = 28 shifted
    oscillator, beta = 60, erf and linear ramps 0.2 -> 0.6).
    `dynamics.propagate` takes ~99 % of the time, so per-step RK4 overhead
    (ROADMAP item 3) shows here first.

    Ranges: the first three bands lie in the log-thirds of [0.1, 9]
    ([0.1, 0.448], [0.448, 2.01], [2.01, 9]); the last lies in [9, 12], so
    the preset's quasistatic W_irr gate stays meaningful.  Each band is
    narrow enough that RK4 step doubling accepts the same step count for
    every tau in it (erf/linear: 512/256, 4096/512, 16384/2048,
    32768/4096 at the seed commit), so the work per iteration, and with it
    the timing, does not depend on the seed.  The population-cutoff defect
    (ROADMAP item 2) makes the Jarzynski check fail on every point but the
    slowest erf one; the inputs were not chosen to avoid that.
    """
    return [
        [{"tau": lo * (hi / lo) ** ((k + 0.5) / 8)} for k in range(8)] for lo, hi in OSC_BANDS
    ]


class OscDrive(Workload):
    name = "osc-drive"
    headline = {"w_irr": (1e-8, 1e-9)}
    points_per_entry = 2
    point_root = "thermo.two_time_work"

    @staticmethod
    def select(rng, pool):
        return [band[int(rng.integers(len(band)))] for band in pool]

    @staticmethod
    def files(entries, seed):
        return {
            "osc-drive.json": {
                "model": {"kind": "oscillator", "omega_ref": 0.2, "shift": 1.0, "n_basis": 28, "mass": 1.0},
                "protocol": {"kind": "erf", "start": 0.2, "end": 0.6, "duration": 1.0, "window": 3.0},
                "beta": 60.0,
                "hbar": 1.0,
                "seed": seed,
                "propagation": {"entry_tolerance": 3e-9},
                "sweep": {"name": "protocol.duration", "values": sorted(e["tau"] for e in entries)},
                "checks": {"quasistatic": 0.001},
            }
        }

    def setup(self):
        self.config = self.workdir / "osc-drive.json"
        cfg = cli.load_config(self.config)
        _fill_caches(cli.build_model(cfg), cli.build_protocol(cfg).value(0.0))

    def iterate(self, mark_point):
        return _quiet_cli(["fig1-right", "--config", str(self.config), "--out", str(self.out), "--workers", "1"])

    def extract(self, rc, captured, n_points):
        rows = cli.read_csv(self.out / "fig1_right.csv")[2] if rc in (0, 1) else []
        if 2 * len(rows) != n_points or len(captured) != n_points:
            return [{"error": f"cli_exit_{rc}"}] * n_points
        points = []
        for k, (tau, w_erf, w_lin, r_erf, r_lin) in enumerate(rows):
            for j, (proto, w_irr, resid) in enumerate((("erf", w_erf, r_erf), ("linear", w_lin, r_lin))):
                res = captured[2 * k + j]
                points.append(
                    {
                        "key": f"tau={tau!r}/{proto}",
                        "w_irr": w_irr,
                        "residual": resid,
                        "row_sum_defect": res.row_sum_defect,
                        "checkpoint_ok": _checkpoint_ok(res.propagation),
                        "steps": res.propagation.steps_used,
                        "cli_rc": rc,
                    }
                )
        return points

    @staticmethod
    def gates(point):
        return _two_time_gates(point) + ([] if point["cli_rc"] == 0 else ["cli_exit"])


# ---------------------------------------------------------------------------
# qubit-sweep: fig2-left through cli.main


def qubit_pool():
    """Final drive values lambda_f for `qubit-sweep`: 4 offsets per grid point.

    Why: every step of the two-level model uses the moving metric (gauge
    term, g(t) checkpoints, the 1025-point positive-definiteness scan), and
    each point is small (d = 2, ~600 steps), so per-call overhead in
    `dynamics`, `models` and `thermo` dominates.  Sweep batching (ROADMAP
    item 4) and the d = 2 closed-form step of item 3 show here.

    Ranges: the preset's 100-point grid over [0, 0.99], each point jittered
    to lambda = 0.99 (i + j/4) / 99.75 with j in {0, 1, 2, 3}; linear ramp
    from 0 over unit time at beta = 1, coupling 1 (exceptional point at 1).
    make_reference.py drops the offsets whose accepted RK4 step count
    differs from the rest of their grid point's, so the work per iteration
    does not depend on the seed.
    """
    return [[{"lambda": 0.99 * (i + j / 4) / 99.75} for j in range(4)] for i in range(100)]


class QubitSweep(Workload):
    name = "qubit-sweep"
    headline = {"t_r": (1e-8, 1e-12), "w_irr": (1e-8, 1e-8)}
    point_root = "thermo.two_time_work"

    @staticmethod
    def select(rng, pool):
        return [grid[int(rng.integers(len(grid)))] for grid in pool]

    @staticmethod
    def files(entries, seed):
        return {
            "qubit-sweep.json": {
                "model": {"kind": "two_level", "coupling": 1.0},
                "protocol": {"kind": "linear", "start": 0.0, "end": 0.5, "duration": 1.0},
                "beta": 1.0,
                "hbar": 1.0,
                "seed": seed,
                "sweep": {"name": "protocol.end", "values": sorted(e["lambda"] for e in entries)},
                "checks": {"jarzynski_residual": JARZYNSKI_GATE},
            }
        }

    def setup(self):
        self.config = self.workdir / "qubit-sweep.json"
        cfg = cli.load_config(self.config)
        _fill_caches(cli.build_model(cfg), cli.build_protocol(cfg).value(0.0))

    def iterate(self, mark_point):
        return _quiet_cli(["fig2-left", "--config", str(self.config), "--out", str(self.out), "--workers", "1"])

    def extract(self, rc, captured, n_points):
        rows = cli.read_csv(self.out / "fig2_left.csv")[2] if rc in (0, 1) else []
        if len(rows) != n_points or len(captured) != n_points:
            return [{"error": f"cli_exit_{rc}"}] * n_points
        return [
            {
                "key": f"lambda={lam!r}",
                "t_r": t_r,
                "residual": resid,
                "w_irr": res.report.irreversible_work,
                "row_sum_defect": res.row_sum_defect,
                "checkpoint_ok": _checkpoint_ok(res.propagation),
                "steps": res.propagation.steps_used,
                "cli_rc": rc,
            }
            for (lam, t_r, resid), res in zip(rows, captured)
        ]

    @staticmethod
    def gates(point):
        return _two_time_gates(point) + ([] if point["cli_rc"] == 0 else ["cli_exit"])


# ---------------------------------------------------------------------------
# carnot-cycle: the carnot subcommand through cli.main


T_HOT, T_COLD = 2.0, 1.0


def carnot_pool(rng):
    """Cycle geometries for `carnot-cycle`: 32 hermitian, 32 pseudo-hermitian.

    Why: no propagation at all.  Time goes to `thermo` (batched eig,
    entropy bisection, the in-path g-trace crosscheck), to 10004
    `models.hamiltonian` calls per cycle and to `cli.write_csv` for the
    10k-row entropy trace; a `dynamics` change should not move it, and
    ROADMAP item 5 (one eigen-kernel, no crosscheck) should.

    Ranges (built like acceptance test 08, T_hot = 2, T_cold = 1, so each
    isentrope halves the gap and every geometry is feasible): hermitian
    coupling family [[0, c], [c, 0]] with hot-leg couplings c_A in
    [0.8, 1.2] and c_B = r c_A, r in [0.65, 0.85]; pseudo-hermitian
    two-level value family with coupling g in [0.7, 1.0], hot-leg
    half-gaps e_A = g u, u in [0.85, 1], e_B = r e_A, r in [0.65, 0.85],
    and control values v = sqrt(g^2 - e^2), which stay below 0.97 g.
    """
    ratio = T_COLD / T_HOT
    hermitian, pseudo = [], []
    for _ in range(32):
        c_a = rng.uniform(0.8, 1.2)
        c_b = c_a * rng.uniform(0.65, 0.85)
        legs = [c_a, c_b, c_b * ratio, c_a * ratio]
        hermitian.append(
            {
                "model": {"kind": "two_level", "coupling": 1.0},
                "cycle": {"T_hot": T_HOT, "T_cold": T_COLD, "legs": legs, "parameter": "coupling", "fixed_value": 0.0},
            }
        )
    for _ in range(32):
        g = rng.uniform(0.7, 1.0)
        e_a = g * rng.uniform(0.85, 1.0)
        e_b = e_a * rng.uniform(0.65, 0.85)
        legs = [math.sqrt(max(g * g - e * e, 0.0)) for e in (e_a, e_b, e_b * ratio, e_a * ratio)]
        pseudo.append(
            {
                "model": {"kind": "two_level", "coupling": g},
                "cycle": {"T_hot": T_HOT, "T_cold": T_COLD, "legs": legs},
            }
        )
    return {"hermitian": [{"config": c} for c in hermitian], "pseudo": [{"config": c} for c in pseudo]}


class CarnotCycle(Workload):
    name = "carnot-cycle"
    headline = {"efficiency": (1e-8, 1e-12), "q_hot": (1e-8, 1e-12)}

    @staticmethod
    def select(rng, pool):
        herm = rng.choice(len(pool["hermitian"]), 4, replace=False)
        pseudo = rng.choice(len(pool["pseudo"]), 4, replace=False)
        return [e for h, p in zip(herm, pseudo) for e in (pool["hermitian"][h], pool["pseudo"][p])]

    @staticmethod
    def files(entries, seed):
        return {f"carnot-{i:03d}.json": dict(e["config"], seed=seed) for i, e in enumerate(entries)}

    def setup(self):
        self.configs = sorted(self.workdir.glob("carnot-*.json"))
        for path in self.configs:
            cfg = cli.load_config(path)
            _fill_caches(cli.build_model(cfg), cfg["cycle"]["legs"][0])

    def iterate(self, mark_point):
        rcs = []
        for i, path in enumerate(self.configs):
            mark_point()
            rcs.append(_quiet_cli(["carnot", "--config", str(path), "--out", str(self.out / f"{i:03d}"), "--workers", "1"]))
        return rcs

    def extract(self, raw, captured, n_points):
        points = []
        for i, rc in enumerate(raw):
            if rc not in (0, 1):
                points.append({"error": f"cli_exit_{rc}"})
                continue
            (row,) = cli.read_csv(self.out / f"{i:03d}" / "carnot_summary.csv")[2]
            _, _, q_hot, _, _, eff, bound, first_law, _ = row
            points.append(
                {
                    "key": f"cycle={i}",
                    "efficiency": eff,
                    "carnot_bound": bound,
                    "q_hot": q_hot,
                    "first_law_defect": first_law,
                    "cli_rc": rc,
                }
            )
        return points

    @staticmethod
    def gates(point):
        missed = []
        if not point["efficiency"] <= point["carnot_bound"] + EFFICIENCY_SLACK:
            missed.append("efficiency_bound")
        if not point["first_law_defect"] <= FIRST_LAW_GATE * abs(point["q_hot"]):
            missed.append("first_law")
        if point["cli_rc"] != 0:
            missed.append("cli_exit")
        return missed


# ---------------------------------------------------------------------------
# chain-spectra: the linalg and thermo layers called directly


CHAIN_BETAS = (0.5, 1.0, 2.0)
CHAIN_LENGTHS = range(16, 48)
MAX_ASYMMETRY_SPAN = 14.0  # a (L - 1) cap; the overlap condition stays below 1e8


def chain_pool(rng):
    """Hatano-Nelson chains for `chain-spectra`: 2 variants per (L, boundary).

    Why: no other workload spends more than ~5 % in `linalg`, which
    ROADMAP item 5 rewrites; this one also covers the conjugate-paired path
    (indefinite metric, Z/E/S reality gates) and the HatanoNelson model.
    It calls the library directly because the `spectrum` and `metric`
    subcommands spend most of their time formatting L^2-row CSVs.

    Ranges: L = 16..47 (every length once per iteration, so the work does
    not depend on the seed), hopping 1, asymmetry a uniform in
    [0.05, min(0.3, 14/(L-1))], so a (L-1) <= 14 keeps the left/right
    overlap condition below the library's 1e8 DefectiveMatrixError line
    (beyond it, e.g. L = 96, a = 0.3, that error is the defined result).
    Open chains carry on-site potentials uniform in [-0.5, 0.5]; periodic
    chains carry none.
    """
    pool = []
    for L in CHAIN_LENGTHS:
        a_max = min(0.3, MAX_ASYMMETRY_SPAN / (L - 1))
        by_boundary = {}
        for boundary in ("open", "periodic"):
            variants = []
            for _ in range(2):
                chain = {"length": L, "hopping": 1.0, "asymmetry": round(rng.uniform(0.05, a_max), 6), "boundary": boundary}
                chain["potential"] = rng.uniform(-0.5, 0.5, L).round(6).tolist() if boundary == "open" else []
                variants.append({"chain": chain})
            by_boundary[boundary] = variants
        pool.append(by_boundary)
    return pool


def _spectra_agree(ref: np.ndarray, got: np.ndarray, rel: float, floor: float) -> bool:
    """Each spectrum lies within tolerance of the other, as multisets of points."""
    if ref.shape != got.shape:
        return False
    dist = np.abs(ref[:, None] - got[None, :])
    tol = rel * np.abs(ref) + floor
    return bool(np.all(dist.min(axis=1) <= tol) and np.all(dist.min(axis=0) <= tol.max()))


class ChainSpectra(Workload):
    name = "chain-spectra"
    headline = {"eigenvalues": (1e-8, 1e-9)}

    @staticmethod
    def select(rng, pool):
        # lengths pair up as (16, 17), (18, 19), ...; one of each pair is open
        chosen = []
        for k, by_boundary in enumerate(pool):
            if k % 2 == 0:
                open_first = bool(rng.integers(2))
            boundary = "open" if (k % 2 == 0) == open_first else "periodic"
            variants = by_boundary[boundary]
            chosen.append(variants[int(rng.integers(len(variants)))])
        return chosen

    @staticmethod
    def files(entries, seed):
        return {"chains.json": [e["chain"] for e in entries]}

    def setup(self):
        chains = json.loads((self.workdir / "chains.json").read_text())
        self.models = [
            HatanoNelson(
                length=c["length"],
                hopping=c["hopping"],
                asymmetry=c["asymmetry"],
                potential=tuple(c["potential"]),
                boundary=c["boundary"],
            )
            for c in chains
        ]
        for model in self.models:
            _fill_caches(model, 0.0)

    def iterate(self, mark_point):
        results = []
        for model in self.models:
            mark_point()
            try:
                H = model.hamiltonian()
                eigsys = linalg.eigendecompose(H)
                kind = linalg.classify_spectrum(eigsys.eigenvalues).kind
                op = linalg.build_metric(eigsys)
                resid = linalg.pseudo_hermiticity_residual(H, op)
                gibbs = []
                for beta in CHAIN_BETAS:
                    state = thermo.thermal_state(eigsys.eigenvalues, beta)
                    gibbs.append((state.Z, thermo.internal_energy(state), thermo.entropy(state)))
                results.append((model, H, eigsys.eigenvalues, kind, op, resid, gibbs))
            except PseudothermError as exc:
                results.append(type(exc).__name__)
        return results

    def extract(self, raw, captured, n_points):
        points = []
        for i, r in enumerate(raw):
            if isinstance(r, str):
                points.append({"error": r})
                continue
            model, H, eigenvalues, kind, op, resid, gibbs = r
            points.append(
                {
                    "key": f"chain={i}",
                    "eigenvalues": eigenvalues,
                    "periodic": model.boundary == "periodic",
                    "kind": kind.name,
                    "positive_definite": op.positive_definite,
                    "relative_residual": resid / (np.linalg.norm(H) * np.linalg.norm(op.g)),
                    "z_real": all(abs(Z.imag) <= DEFAULT.reality * max(1.0, abs(Z)) for Z, _, _ in gibbs),
                    "finite": all(math.isfinite(E) and math.isfinite(S) for _, E, S in gibbs),
                }
            )
        return points

    @staticmethod
    def gates(point):
        missed = []
        expected = "CONJUGATE_PAIRED" if point["periodic"] else "ALL_REAL"
        if point["kind"] != expected:
            missed.append("spectrum_class")
        if point["positive_definite"] == point["periodic"]:
            missed.append("metric_signature")
        if not point["relative_residual"] <= DEFAULT.pseudo_hermiticity:
            missed.append("pseudo_hermiticity")
        if not point["z_real"]:
            missed.append("z_reality")
        if not point["finite"]:
            missed.append("e_s_finite")
        return missed


WORKLOADS = {w.name: w for w in (OscDrive, QubitSweep, CarnotCycle, ChainSpectra)}


def flatten(name: str, pool):
    """Every entry of a workload's pool, in the order the pool stores them."""
    if name == "carnot-cycle":
        return pool["hermitian"] + pool["pseudo"]
    if name == "chain-spectra":
        return [v for by_boundary in pool for variants in by_boundary.values() for v in variants]
    return [entry for group in pool for entry in group]


def headline_of(workload, point: dict) -> dict:
    """The values of a point that are compared with the stored reference."""
    out = {}
    for key in workload.headline:
        value = point[key]
        # 12 significant digits keep the pool file small, far inside the tolerance
        out[key] = [[float(f"{z.real:.12g}"), float(f"{z.imag:.12g}")] for z in value] if key == "eigenvalues" else value
    return out


class Tally:
    """Point outcomes: attempted, failed (by check name), reference mismatches."""

    def __init__(self, workload, expected: list):
        self.workload = workload
        self.expected = expected
        self.attempted = self.failed = self.mismatched = 0
        self.by_check: dict[str, int] = {}

    def add(self, points: list) -> int:
        """Count one iteration's points; returns how many passed every check."""
        passed = 0
        for point, reference in zip(points, self.expected):
            self.attempted += 1
            if "error" in point:
                missed = [point["error"]]
            else:
                missed = self.workload.gates(point)
                if not agrees(self.workload, point, reference):
                    missed.append("reference")
            self.mismatched += "error" in point or "reference" in missed
            for check in missed:
                self.by_check[check] = self.by_check.get(check, 0) + 1
            self.failed += bool(missed)
            passed += not missed
        return passed


def agrees(workload, point: dict, reference: dict) -> bool:
    for key, (rel, floor) in workload.headline.items():
        if key == "eigenvalues":
            ref = np.array([complex(re, im) for re, im in reference[key]])
            if not _spectra_agree(ref, np.asarray(point[key]), rel, floor):
                return False
        elif not abs(point[key] - reference[key]) <= rel * abs(reference[key]) + floor:
            return False
    return True
