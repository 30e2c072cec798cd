"""Gibbs states, two-time work statistics, and cycle thermodynamics.

Everything here works on biorthogonal eigensystems and metric-weighted
inner products.  The two central pipelines are `two_time_work`, which
measures energy at both ends of a drive and assembles the exact work
distribution (a weighted comb of w = E_m' - E_n values, never binned),
and `quasistatic_cycle`, which walks a four-leg Carnot cycle accumulating
heat and work through the discrete first law

    dE = tr(d(rho) H_mid) + tr(rho_mid dH)

which telescopes exactly, so energy conservation holds to rounding even
at coarse step counts.  At every grid point it also checks the energy
sum_n p_n E_n against tr(rho H), rho = V diag(p) V^-1.

Each cycle leg is a handful of array operations over its whole grid, with
the grid index last so that sums over levels run along contiguous rows.
The leg's eigensystems come in closed form for two levels (E = m -/+ s,
m = tr H/2, s = sqrt(((H00 - H11)/2)^2 + H01 H10)) and from a batched
np.linalg.eig and inv otherwise.  Either way a leg whose eigenvector
matrix has a condition number above `Tolerances.defective_cond` raises
DefectiveMatrixError: it reaches an exceptional point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .dynamics import PropagationResult, Protocol, propagate
from .errors import (
    ComplexPartitionFunctionError,
    DefectiveMatrixError,
    IsentropeNotFoundError,
    NonRealResultError,
    NonRealSpectrumError,
    SingularMetricError,
    TruncationWarning,
)
from .linalg import BiorthogonalEigensystem, _metric_matrix, classify_spectrum, eigendecompose
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "ThermalState",
    "WorkDistribution",
    "JarzynskiReport",
    "TwoTimeResult",
    "CycleReport",
    "partition_function",
    "free_energy",
    "thermal_state",
    "internal_energy",
    "entropy",
    "projector",
    "transition_matrix",
    "work_distribution",
    "jarzynski_report",
    "two_time_work",
    "quasistatic_cycle",
]


def _eigenvalues_of(eigs) -> np.ndarray:
    w = getattr(eigs, "eigenvalues", eigs)
    return np.asarray(w, dtype=complex).ravel()


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not beta > 0:
        raise ValueError("beta must be positive")
    return beta


# ---------------------------------------------------------------------------
# Gibbs-state bookkeeping


@dataclass(frozen=True)
class ThermalState:
    """Gibbs state data for a (possibly complex) spectrum.

    eigen_populations holds Re(e^{-beta E_n}/Z), aligned with `energies`;
    for a real spectrum these are the exact populations and sum to 1.
    Z and F are kept complex; reality is a property of the spectrum class
    and is checked where a real number is actually extracted
    (internal_energy, entropy, free_energy).
    """

    beta: float
    energies: np.ndarray
    eigen_populations: np.ndarray
    Z: complex
    F: complex


def partition_function(eigs, beta: float) -> complex:
    """Z = sum_n e^{-beta E_n}, kept complex so nothing is dropped."""
    beta = _check_beta(beta)
    w = _eigenvalues_of(eigs)
    return complex(np.sum(np.exp(-beta * w)))


def free_energy(Z: complex, beta: float, *, tol: Tolerances | None = None) -> float:
    """F = -ln(Re Z)/beta; refuses a Z with a meaningful imaginary part."""
    tol = tol or DEFAULT
    beta = _check_beta(beta)
    Z = complex(Z)
    if abs(Z.imag) > tol.reality * max(1.0, abs(Z)):
        raise ComplexPartitionFunctionError(
            f"partition function {Z:.6g} has a non-negligible imaginary part; "
            "the spectrum is not real or conjugate-paired"
        )
    if Z.real <= 0:
        raise ComplexPartitionFunctionError(
            f"partition function {Z:.6g} has nonpositive real part"
        )
    return -math.log(Z.real) / beta


def _shifted_weights(w: np.ndarray, beta):
    """e^{-beta(w - shift)} and its sum over the levels (axis 0); shift keeps the exponents tame."""
    shift = w.real.min(axis=0)
    q = np.exp(-beta * (w - shift))
    total = q.sum(axis=0)
    if np.any(total == 0):
        raise ComplexPartitionFunctionError("partition function underflowed to zero")
    return shift, q, total


def thermal_state(eigs, beta: float) -> ThermalState:
    """Gibbs state over the given eigenvalues.

    Construction never raises on a complex spectrum; extraction of real
    observables does the gating.
    """
    beta = _check_beta(beta)
    w = _eigenvalues_of(eigs)
    shift, q, total = _shifted_weights(w, beta)
    pops = (q / total).real
    Z = complex(np.exp(-beta * shift) * total)
    F = complex(shift - np.log(total) / beta)
    return ThermalState(beta=beta, energies=w, eigen_populations=pops, Z=Z, F=F)


def _complex_internal_energy(w: np.ndarray, beta: float) -> complex:
    _, q, total = _shifted_weights(w, beta)
    return complex(np.sum(w * q) / total)


def internal_energy(state: ThermalState, eigs=None, *, tol: Tolerances | None = None) -> float:
    """E = sum_n E_n e^{-beta E_n} / Z, gated to be real.

    Conjugate-paired spectra pass the gate (imaginary parts cancel
    pairwise); a genuinely complex spectrum raises NonRealResultError.
    """
    tol = tol or DEFAULT
    w = state.energies if eigs is None else _eigenvalues_of(eigs)
    value = _complex_internal_energy(w, state.beta)
    if abs(value.imag) > tol.reality * max(1.0, abs(value)):
        raise NonRealResultError(
            f"internal energy {value:.6g} is not real; spectrum is neither "
            "real nor conjugate-paired"
        )
    return float(value.real)


def entropy(state: ThermalState, *, tol: Tolerances | None = None) -> float:
    """S = beta (E - F), gated to be real."""
    tol = tol or DEFAULT
    value = state.beta * (_complex_internal_energy(state.energies, state.beta) - state.F)
    if abs(value.imag) > tol.reality * max(1.0, abs(value)):
        raise NonRealResultError(f"entropy {value:.6g} is not real")
    return float(value.real)


# ---------------------------------------------------------------------------
# Projectors and two-time statistics


def projector(n: int, eigsys: BiorthogonalEigensystem) -> np.ndarray:
    """Rank-one biorthogonal projector psi_n phi_n^dagger.

    Idempotent by biorthonormality; the full set resolves the identity.
    """
    n = int(n)
    if not 0 <= n < eigsys.dim:
        raise IndexError(f"eigenstate index {n} out of range for dim {eigsys.dim}")
    psi = eigsys.right[:, n]
    phi = eigsys.left[:, n]
    return np.outer(psi, phi.conj())


def _g_normalized_columns(V: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Scale each column v to <v, G v> = 1; G must be positive on them."""
    norms = np.einsum("in,ij,jn->n", V.conj(), G, V).real
    if np.any(norms <= 0):
        bad = int(np.argmin(norms))
        raise SingularMetricError(
            f"column {bad} has nonpositive metric norm {norms[bad]:.3e}; "
            "the metric is not positive definite on the eigenbasis"
        )
    return V / np.sqrt(norms)[None, :]


def _final_level_probabilities(right: np.ndarray, G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """|<psi'_m, G x_j>|^2, psi'_m the G-normalized columns of `right`: (m, j)."""
    psi = _g_normalized_columns(right, G)
    return np.abs(psi.conj().T @ (G @ X)) ** 2


def _require_all_real(label: str, eigsys: BiorthogonalEigensystem, tol: Tolerances):
    sc = classify_spectrum(eigsys.eigenvalues, tol.spectrum_imag)
    if not sc.all_real:
        raise NonRealSpectrumError(
            f"{label} spectrum is {sc.kind.name}, not AllReal; two-time work "
            "statistics need real measured energies"
        )


def transition_matrix(
    eig0: BiorthogonalEigensystem,
    eigT: BiorthogonalEigensystem,
    g0,
    gT,
    U: np.ndarray,
    state0: ThermalState,
    *,
    tol: Tolerances | None = None,
) -> np.ndarray:
    """Two-time transition probabilities p[n, m].

    p_nm = (e^{-beta E_n}/Z0) |<psi_m', gT U psi_n>|^2 with both eigenbases
    normalized in their own metric.  Rows sum to the initial populations
    when U is metric-unitary for exactly (g0, gT); mixing metrics from a
    different family breaks that identity, so pass the pair the propagation
    actually used.
    """
    tol = tol or DEFAULT
    _require_all_real("initial", eig0, tol)
    _require_all_real("final", eigT, tol)
    G0 = _metric_matrix(g0)
    GT = _metric_matrix(gT)
    U = np.asarray(U, dtype=complex)
    pops = np.asarray(state0.eigen_populations, dtype=float)
    if pops.shape[0] != eig0.dim:
        raise ValueError(
            f"state0 has {pops.shape[0]} populations for {eig0.dim} initial levels"
        )
    psi0 = _g_normalized_columns(eig0.right, G0)
    return _final_level_probabilities(eigT.right, GT, U @ psi0).T * pops[:, None]


@dataclass(frozen=True)
class WorkDistribution:
    """Exact delta-comb work measure: all (w_nm, p_nm) pairs, unbinned.

    Z0/Ztau are real partition functions over the full eigenvalue lists
    supplied at construction; entries may cover a trimmed index set, so
    their total weight can fall short of 1 by the trimmed Gibbs mass.
    """

    entries: tuple
    beta: float
    Z0: float
    Ztau: float
    Emin_initial: float
    Emin_final: float


def work_distribution(
    p: np.ndarray,
    eig0,
    eigT,
    beta: float,
    *,
    rows=None,
    cols=None,
) -> WorkDistribution:
    """Enumerate (w_nm = E_m' - E_n, p_nm) from a transition matrix.

    rows/cols map the axes of p into the eigenvalue lists when p covers
    only a sub-block (truncated models); by default they are ranges.
    """
    beta = _check_beta(beta)
    p = np.asarray(p, dtype=float)
    E0 = _eigenvalues_of(eig0).real
    ET = _eigenvalues_of(eigT).real
    rows = np.arange(p.shape[0]) if rows is None else np.asarray(rows, dtype=int)
    cols = np.arange(p.shape[1]) if cols is None else np.asarray(cols, dtype=int)
    if rows.shape[0] != p.shape[0] or cols.shape[0] != p.shape[1]:
        raise ValueError("rows/cols index lists must match the shape of p")
    w = ET[cols][None, :] - E0[rows][:, None]
    entries = tuple(zip(w.ravel().tolist(), p.ravel().tolist()))
    return WorkDistribution(
        entries=entries,
        beta=beta,
        Z0=float(np.sum(np.exp(-beta * E0))),
        Ztau=float(np.sum(np.exp(-beta * ET))),
        Emin_initial=float(E0.min()),
        Emin_final=float(ET.min()),
    )


@dataclass(frozen=True)
class JarzynskiReport:
    exp_avg_work: float
    exp_delta_F: float
    relative_residual: float
    mean_work: float
    delta_F: float
    irreversible_work: float
    total_weight: float


def jarzynski_report(wd: WorkDistribution) -> JarzynskiReport:
    """<e^{-beta W}> against Z_tau/Z_0, plus mean and irreversible work."""
    if not wd.entries:
        raise ValueError("work distribution has no entries")
    w = np.array([e[0] for e in wd.entries])
    pr = np.array([e[1] for e in wd.entries])
    exp_avg = float(np.sum(pr * np.exp(-wd.beta * w)))
    exp_dF = wd.Ztau / wd.Z0
    mean_work = float(np.sum(pr * w))
    delta_F = (math.log(wd.Z0) - math.log(wd.Ztau)) / wd.beta
    return JarzynskiReport(
        exp_avg_work=exp_avg,
        exp_delta_F=exp_dF,
        relative_residual=abs(exp_avg - exp_dF) / exp_dF,
        mean_work=mean_work,
        delta_F=delta_F,
        irreversible_work=mean_work - delta_F,
        total_weight=float(np.sum(pr)),
    )


@dataclass(frozen=True)
class TwoTimeResult:
    """Full two-time-measurement pipeline output.

    p[j, k] is the transition probability from initial level rows[j] to
    final level cols[k]; row_sum_defect is the worst deviation of
    sum_m |<psi_m', g' U psi_n>|^2 from 1 over the *complete* final basis,
    a direct check of metric unitarity in the measurement frame.
    """

    beta: float
    rows: tuple
    cols: tuple
    p: np.ndarray
    row_sum_defect: float
    energies_initial: np.ndarray
    energies_final: np.ndarray
    work: WorkDistribution
    report: JarzynskiReport
    propagation: PropagationResult


def two_time_work(
    model,
    protocol: Protocol,
    beta: float,
    *,
    hbar: float = 1.0,
    steps: int | None = None,
    tol: Tolerances | None = None,
    entry_tol: float | None = None,
    gauge_precondition: bool | None = None,
    unitarity_gate: float | None = None,
) -> TwoTimeResult:
    """Measure, propagate, measure: the two-time work pipeline.

    Eigenbases are taken at the protocol window edges.  When the model has
    a hermitian frame (gauge_precondition defaults to using it), dynamics
    and measurements happen in that frame with the identity metric, which
    is exact for a static metric family.  Truncated models never use the
    top eighth of the spectrum in work sums: those levels are excluded
    from both measurement index sets, while populations stay normalized by
    the full-spectrum partition function, so no probability is invented.
    """
    tol = tol or DEFAULT
    beta = _check_beta(beta)
    precondition = (
        hasattr(model, "hermitian_frame") if gauge_precondition is None else gauge_precondition
    )
    v0 = protocol.value(protocol.t_start)
    v1 = protocol.value(protocol.t_end)
    if precondition:
        H0, H1 = model.hermitian_frame(v0), model.hermitian_frame(v1)
        G0 = np.eye(model.dimension, dtype=complex)
    else:
        H0, H1 = model.hamiltonian(v0), model.hamiltonian(v1)
        G0 = _metric_matrix(model.metric(v0))
    eig0 = eigendecompose(H0, tol)
    eigT = eigendecompose(H1, tol)
    _require_all_real("initial", eig0, tol)
    _require_all_real("final", eigT, tol)

    state0 = thermal_state(eig0.eigenvalues, beta)
    pops = state0.eigen_populations
    dim = model.dimension
    keep = dim - dim // 8 if getattr(model, "is_truncated", False) else dim

    if getattr(model, "is_truncated", False):
        tail = float(np.sum(pops[dim - 5 :]))
        if tail > tol.tail_mass:
            warnings.warn(
                f"Gibbs weight {tail:.3e} in the top 5 of {dim} levels exceeds "
                f"{tol.tail_mass:.0e}; enlarge the basis for converged statistics",
                TruncationWarning,
                stacklevel=2,
            )

    rows = [n for n in range(keep) if pops[n] >= tol.population_cutoff]
    min_rows = min(4, keep)
    if len(rows) < min_rows:
        rows = list(range(min_rows))
    cols = list(range(keep))

    psi0 = _g_normalized_columns(eig0.right[:, rows], G0)
    prop = propagate(
        model,
        protocol,
        hbar,
        steps,
        tol=tol,
        entry_tol=entry_tol,
        initial=psi0,
        gauge_precondition=precondition,
        unitarity_gate=unitarity_gate,
    )
    probs = _final_level_probabilities(eigT.right, prop.g_end, prop.U)
    row_sum_defect = float(np.max(np.abs(probs.sum(axis=0) - 1.0)))
    p = probs[cols, :].T * pops[rows][:, None]

    work = work_distribution(p, eig0, eigT, beta, rows=rows, cols=cols)
    return TwoTimeResult(
        beta=beta,
        rows=tuple(rows),
        cols=tuple(cols),
        p=p,
        row_sum_defect=row_sum_defect,
        energies_initial=eig0.eigenvalues.copy(),
        energies_final=eigT.eigenvalues.copy(),
        work=work,
        report=jarzynski_report(work),
        propagation=prop,
    )


# ---------------------------------------------------------------------------
# Quasistatic Carnot cycle


@dataclass(frozen=True)
class CycleReport:
    """Four-leg cycle accounting.

    Q_hot is heat absorbed on the hot isotherm, Q_cold heat exhausted on
    the cold one (both positive for an engine), W_net the work delivered.
    entropy_trace holds (leg, control value, S) for every grid point;
    g_trace_crosscheck is the worst |tr(rho H) - sum_n p_n E_n| over every
    grid point of every leg.  Every leg's eigenvector matrices passed the
    defectiveness gate (2-norm condition number at most `defective_cond`),
    whether they came from the two-level closed form or from the general
    eigensolver.
    """

    T_hot: float
    T_cold: float
    Q_hot: float
    Q_cold: float
    W_net: float
    efficiency: float
    carnot_bound: float
    entropy_trace: tuple
    first_law_defect: float
    g_trace_crosscheck: float


def _require_diagonalizable(cond: np.ndarray, values: np.ndarray, tol: Tolerances):
    """Refuse a leg whose eigenvector matrix is singular within tolerance.

    cond is the 2-norm condition number of the unit-column eigenvector
    matrix at each control value; it diverges where eigenvectors coalesce,
    at an exceptional point.  NaN fails the gate too.
    """
    worst = int(np.argmax(cond))
    if not cond[worst] <= tol.defective_cond:
        raise DefectiveMatrixError(
            f"eigenvector matrix condition number {cond[worst]:.3e} at control value "
            f"{values[worst]:.6g} exceeds {tol.defective_cond:.1e}; the leg reaches "
            "an exceptional point"
        )


def _grid_last(A: np.ndarray) -> np.ndarray:
    """A contiguous copy of a stack with its leading (grid) axis moved last."""
    return np.ascontiguousarray(np.moveaxis(A, 0, -1))


def _eig2(H: np.ndarray, values: np.ndarray, tol: Tolerances):
    """Closed-form eigensystems of a (2, 2, k) stack: E (2, k), VR and VLh (2, 2, k).

    With m = tr/2, a = (H00 - H11)/2 and s = sqrt(a^2 + H01 H10) the
    eigenvalues are m -/+ s.  The right vector of m + r (r = -/+s) is
    [H01, r - a], or equally [a + r, H10]; the longer of the two is
    normalised, which avoids the cancellation in r - a for a nearly diagonal
    H.  Both vanish only for a scalar H, which keeps the unit vectors.  VLh
    is the closed-form inverse of VR.
    """
    a = 0.5 * (H[0, 0] - H[1, 1])
    b, c = H[0, 1], H[1, 0]
    r = np.array([[-1.0], [1.0]]) * np.sqrt(a * a + b * c)
    E = 0.5 * (H[0, 0] + H[1, 1]) + r
    x0, x1 = np.broadcast_to(b, r.shape), r - a
    y0, y1 = a + r, np.broadcast_to(c, r.shape)
    nx = x0.real**2 + x0.imag**2 + x1.real**2 + x1.imag**2
    ny = y0.real**2 + y0.imag**2 + y1.real**2 + y1.imag**2
    longer = nx >= ny
    norm = np.sqrt(np.where(longer, nx, ny))
    scalar = norm == 0
    norm[scalar] = 1.0
    VR = np.empty_like(H)
    VR[0] = np.where(scalar, [[1.0], [0.0]], np.where(longer, x0, y0)) / norm
    VR[1] = np.where(scalar, [[0.0], [1.0]], np.where(longer, x1, y1)) / norm
    det = VR[0, 0] * VR[1, 1] - VR[0, 1] * VR[1, 0]
    # unit columns: sigma_max sigma_min = |det| and sigma_max^2 + sigma_min^2 = 2
    D = np.abs(det)
    with np.errstate(divide="ignore", invalid="ignore"):
        _require_diagonalizable((1.0 + np.sqrt(np.maximum(1.0 - D * D, 0.0))) / D, values, tol)
    VLh = np.array([[VR[1, 1], -VR[0, 1]], [-VR[1, 0], VR[0, 0]]]) / det
    return E, VR, VLh


def _eig_general(H: np.ndarray, values: np.ndarray, tol: Tolerances):
    """Batched np.linalg.eig and inv of a (d, d, k) stack: E (d, k), VR and VLh (d, d, k)."""
    E, VR = np.linalg.eig(np.moveaxis(H, -1, 0))
    _require_diagonalizable(np.linalg.cond(VR), values, tol)
    return _grid_last(E), _grid_last(VR), _grid_last(np.linalg.inv(VR))


def _leg_spectra(h_of, values: np.ndarray, tol: Tolerances):
    """Batched eigen-data along one leg of k control values: H, E, VR, VLh.

    h_of maps the array of control values to the (k, d, d) stack.  The grid
    index runs last in what is returned, H, VR and VLh being (d, d, k) and
    E (d, k), so sums over levels and products of matrices run along
    contiguous rows.  Two levels take the closed form, larger dimensions the
    general eigensolver; both raise DefectiveMatrixError at an exceptional
    point.
    """
    H = _grid_last(np.asarray(h_of(values), dtype=complex))
    eig = _eig2 if H.shape[0] == 2 else _eig_general
    return (H, *eig(H, values, tol))


def _entropy_curve(E: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """S = beta (U - F) per column for (d, k) eigenvalues and (k,) betas."""
    shift, q, total = _shifted_weights(E, beta)
    U = (E * q).sum(axis=0) / total
    F = shift - np.log(total) / beta
    return beta * (U - F)


def _populations(E: np.ndarray, beta: np.ndarray) -> np.ndarray:
    _, q, total = _shifted_weights(E, beta)
    return q / total


def _solve_isentrope(E: np.ndarray, target: float, tol: Tolerances) -> np.ndarray:
    """beta(lambda) with S = target at every grid point, by log-bisection.

    E holds the real (d, k) energies.  S is monotone decreasing in beta, so
    the bracket [beta_min, beta_max] either contains the solution everywhere
    or the leg is infeasible.
    """
    k = E.shape[1]
    lo = np.full(k, tol.beta_min)
    hi = np.full(k, tol.beta_max)
    s_lo = _entropy_curve(E, lo)
    s_hi = _entropy_curve(E, hi)
    slack = tol.entropy_match
    if np.any(s_lo < target - slack) or np.any(s_hi > target + slack):
        raise IsentropeNotFoundError(
            f"target entropy {target:.6g} is outside the reachable range "
            f"[{s_hi.min():.6g}, {s_lo.max():.6g}] for beta in "
            f"[{tol.beta_min:.0e}, {tol.beta_max:.0e}]"
        )
    llo, lhi = np.log(lo), np.log(hi)
    for _ in range(64):
        mid = 0.5 * (llo + lhi)
        s_mid = _entropy_curve(E, np.exp(mid))
        above = s_mid > target
        llo = np.where(above, mid, llo)
        lhi = np.where(above, lhi, mid)
    beta = np.exp(0.5 * (llo + lhi))
    s_final = _entropy_curve(E, beta)
    worst = float(np.max(np.abs(s_final - target)))
    if worst > tol.entropy_match:
        raise IsentropeNotFoundError(
            f"isentrope bisection stalled; entropy mismatch {worst:.3e}"
        )
    return beta


def _isentrope_betas(E: np.ndarray, name: str, s_target: float, beta_land: float, tol: Tolerances):
    """beta along an isentrope, which must end on the temperature 1/beta_land."""
    E = np.ascontiguousarray(E.real)
    beta = _solve_isentrope(E, s_target, tol)
    landing = float(_entropy_curve(E[:, -1:], np.array([beta_land]))[0])
    if abs(landing - s_target) > tol.entropy_match:
        raise IsentropeNotFoundError(
            f"isentrope {name} lands at entropy {landing:.8g} for "
            f"T = {1.0 / beta_land:.6g}, but the leg requires {s_target:.8g}; "
            "the chosen endpoints cannot connect the isotherms"
        )
    return beta


def _leg_accounting(H, VR, VLh, pops):
    """(heat, work) totals over one leg from the discrete first law (grid index last)."""
    lo, hi = np.s_[..., :-1], np.s_[..., 1:]
    Hmid = 0.5 * (H[lo] + H[hi])
    dH = H[hi] - H[lo]
    d_lo = np.einsum("nek,efk,fnk->nk", VLh[lo], Hmid, VR[lo])
    d_hi = np.einsum("nek,efk,fnk->nk", VLh[hi], Hmid, VR[hi])
    w_lo = np.einsum("nek,efk,fnk->nk", VLh[lo], dH, VR[lo])
    w_hi = np.einsum("nek,efk,fnk->nk", VLh[hi], dH, VR[hi])
    dQ = (pops[hi] * d_hi).sum(axis=0) - (pops[lo] * d_lo).sum(axis=0)
    dW = 0.5 * ((pops[lo] * w_lo).sum(axis=0) + (pops[hi] * w_hi).sum(axis=0))
    return complex(dQ.sum()), complex(dW.sum())


def _crosscheck_g_trace(H, E, VR, VLh, pops) -> float:
    """Worst |tr(rho H) - sum_n p_n E_n| over a leg (grid index last), rho = VR diag(p) VLh."""
    via_trace = np.einsum("nek,efk,fnk,nk->k", VLh, H, VR, pops)
    return float(np.max(np.abs(via_trace - (pops * E).sum(axis=0))))


def quasistatic_cycle(
    model,
    T_hot: float,
    T_cold: float,
    leg_points,
    steps: int = 10000,
    *,
    tol: Tolerances | None = None,
) -> CycleReport:
    """Discretized Carnot cycle A->B->C->D->A over a model family.

    A->B is the hot isotherm, B->C an isentrope cooling to T_cold, C->D
    the cold isotherm, D->A an isentrope heating back.  Isentropes solve
    beta(control) by bisection and must land on the opposite isotherm's
    temperature; a mismatch raises IsentropeNotFoundError, which is how an
    infeasible leg geometry announces itself.  A leg that reaches an
    exceptional point raises DefectiveMatrixError.  steps is the total
    budget, split evenly across the four legs; g_trace_crosscheck is
    taken at every grid point.

    model is anything with a batched `hamiltonian(values) -> (k, d, d)`, or
    a plain callable of one control value, which is called value by value.
    """
    tol = tol or DEFAULT
    if not (T_cold > 0 and T_hot > T_cold and math.isfinite(T_hot)):
        raise ValueError("need finite T_hot > T_cold > 0")
    if len(leg_points) != 4:
        raise ValueError("leg_points must be (A, B, C, D) control values")
    vA, vB, vC, vD = (float(v) for v in leg_points)
    if not all(map(math.isfinite, (vA, vB, vC, vD))):
        raise ValueError("leg_points must be finite")
    if hasattr(model, "hamiltonian"):
        h_of = model.hamiltonian  # models take the whole array of control values
    else:

        def h_of(values):
            return np.stack([np.asarray(model(float(v)), dtype=complex) for v in values])

    n = max(int(steps) // 4, 100)
    beta_h, beta_c = 1.0 / T_hot, 1.0 / T_cold

    heats, works, imag_worst, cross_worst = {}, {}, 0.0, 0.0
    trace: list = []

    def run_leg(name, v_from, v_to, beta_of):
        """Spectra, reality gate, beta(lambda) = beta_of(E), accounting, trace, crosscheck."""
        nonlocal imag_worst, cross_worst
        values = np.linspace(v_from, v_to, n + 1)
        H, E, VR, VLh = _leg_spectra(h_of, values, tol)
        r = float(np.max(np.abs(E.imag) / (1.0 + np.abs(E))))
        if r > tol.spectrum_imag:
            raise NonRealResultError(
                f"spectrum on leg {name} has imaginary parts up to {r:.3e}"
            )
        beta = beta_of(E)
        pops = _populations(E, beta)
        S = _entropy_curve(E, beta)
        imag_worst = max(imag_worst, float(np.max(np.abs(S.imag))))
        trace.extend(zip(repeat(name), values.tolist(), S.real.tolist()))
        q, w = _leg_accounting(H, VR, VLh, pops)
        imag_worst = max(imag_worst, abs(q.imag), abs(w.imag))
        heats[name], works[name] = q.real, w.real
        cross_worst = max(cross_worst, _crosscheck_g_trace(H, E, VR, VLh, pops))
        return float(S[-1].real)

    s_B = run_leg("hot", vA, vB, lambda E: np.full(n + 1, beta_h))
    run_leg("cool", vB, vC, lambda E: _isentrope_betas(E, "cool", s_B, beta_c, tol))
    s_D = run_leg("cold", vC, vD, lambda E: np.full(n + 1, beta_c))
    run_leg("heat", vD, vA, lambda E: _isentrope_betas(E, "heat", s_D, beta_h, tol))

    if imag_worst > tol.reality * 10:
        raise NonRealResultError(
            f"cycle accounting produced imaginary parts up to {imag_worst:.3e}"
        )

    Q_hot = heats["hot"]
    Q_cold = -heats["cold"]
    W_net = -sum(works.values())
    first_law = abs(W_net - (Q_hot - Q_cold))
    if Q_hot <= 0:
        raise ValueError(
            f"hot isotherm released heat (Q_hot = {Q_hot:.6g}); leg order does "
            "not describe an engine"
        )
    return CycleReport(
        T_hot=T_hot,
        T_cold=T_cold,
        Q_hot=Q_hot,
        Q_cold=Q_cold,
        W_net=W_net,
        efficiency=W_net / Q_hot,
        carnot_bound=1.0 - T_cold / T_hot,
        entropy_trace=tuple(trace),
        first_law_defect=first_law,
        g_trace_crosscheck=cross_worst,
    )
