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

The cycle is one loop over a table of its four legs.  Each leg is a
handful of array operations over its whole grid in one `_cycle_leg` call,
whose arrays are freed before the next leg is built; the grid index runs
last, so sums over levels run along contiguous rows.  A leg's eigensystems
come from linalg's eigen-kernel, the one `eigendecompose` views, so every
grid point passes the gates a single decomposition passes, and a leg that
reaches or nears an exceptional point raises DefectiveMatrixError naming
the control value.  A two-time measurement decomposes both window edges in
one kernel call, and a sweep of two-level points runs each stage of the
measurement once, over the stack of its points (`_measure_ahead`): the
window edges, their decomposition and reality check, the propagation and
the tail from the final-level probabilities to the Jarzynski report.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import PropagationResult, Protocol, _each, _hermitian_frame, _propagate_lanes
from .errors import (
    ComplexPartitionFunctionError,
    IsentropeNotFoundError,
    NonRealResultError,
    NonRealSpectrumError,
    SingularMetricError,
    TruncationWarning,
)
from .linalg import (
    BiorthogonalEigensystem,
    _eig_stack,
    _eigensystems,
    _grid_last,
    _metric_matrix,
    classify_spectrum,
)
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
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError(f"beta must be finite and positive, got {beta!r}")
    return beta


# ---------------------------------------------------------------------------
# Gibbs-state bookkeeping


@dataclass(frozen=True)
class ThermalState:
    """Gibbs state data for a (possibly complex) spectrum.

    eigen_populations holds Re(e^{-beta E_n}/Z), aligned with `energies`;
    for a real spectrum these are the exact populations and sum to 1.
    log_Z, Z and F are kept complex; reality is a property of the spectrum
    class and is checked where a real number is actually extracted
    (internal_energy, entropy, free_energy).  log_Z and F = -log_Z/beta are
    finite at any beta; Z itself overflows to inf at low temperature, and a
    real spectrum's Z is real even then.
    """

    beta: float
    energies: np.ndarray
    eigen_populations: np.ndarray
    Z: complex
    F: complex
    log_Z: complex


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
    total, shift = complex(total), float(shift)
    log_Z = cmath.log(total) - beta * shift
    try:
        scale = math.exp(-beta * shift)
    except OverflowError:  # Z is beyond the float range; log_Z still holds it
        scale = math.inf
    # a zero imaginary part stays zero when scale is inf
    Z = complex(scale * total.real, scale * total.imag if total.imag else 0.0)
    return ThermalState(
        beta=beta, energies=w, eigen_populations=pops, Z=Z, F=-log_Z / beta, log_Z=log_Z
    )


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
    """S = beta (E - F), gated to be real (see _entropy_curve).

    A real spectrum is evaluated in real arithmetic, as the cycle legs do.
    """
    tol = tol or DEFAULT
    w = state.energies
    value = complex(_entropy_curve(w if w.imag.any() else w.real, state.beta))
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
    """Scale each column v to <v, G v> = 1; G must be positive on them.

    Stacks of V and G broadcast over their leading axes; the error names the
    column of least norm in the first matrix that has a nonpositive one.
    """
    norms = np.einsum("...in,...ij,...jn->...n", V.conj(), G, V).real
    nonpositive = (norms <= 0).any(axis=-1)
    if nonpositive.any():
        first = norms[np.unravel_index(nonpositive.argmax(), nonpositive.shape)]
        bad = int(np.argmin(first))
        raise SingularMetricError(
            f"column {bad} has nonpositive metric norm {first[bad]:.3e}; "
            "the metric is not positive definite on the eigenbasis"
        )
    return V / np.sqrt(norms)[..., None, :]


def _final_level_probabilities(right: np.ndarray, G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """|<psi'_m, G x_j>|^2, psi'_m the G-normalized columns of `right`: (m, j), or a stack of them."""
    psi = _g_normalized_columns(right, G)
    return np.abs(np.swapaxes(psi.conj(), -1, -2) @ (G @ X)) ** 2


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
    """Exact delta-comb work measure, unbinned: w[j, k] with probability p[j, k].

    w and p have one row per initial level and one column per final level
    that the transition matrix covers.  log_Z0/log_Ztau are the logs of the
    real partition functions over the full eigenvalue lists supplied at
    construction, finite at any beta; the levels may be a trimmed index
    set, so the total weight can fall short of 1 by the trimmed Gibbs mass.
    """

    w: np.ndarray
    p: np.ndarray
    beta: float
    log_Z0: float
    log_Ztau: float


def _log_partitions(E: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """ln sum_n e^{-beta_i E_in} of each real (k, d) spectrum row, shifted as `_shifted_weights` is so nothing overflows."""
    shift = E.min(axis=-1)
    return np.log(np.exp(-beta[:, None] * (E - shift[:, None])).sum(axis=-1)) - beta * shift


def _works(E0: np.ndarray, ET: np.ndarray, beta: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> tuple:
    """(w, ln Z_0, ln Z_tau) of k measurements: (k, d) real spectra, (k,) betas, (k, r) rows, (k, c) cols."""
    w = np.take_along_axis(ET, cols, 1)[:, None, :] - np.take_along_axis(E0, rows, 1)[:, :, None]
    return w, _log_partitions(E0, beta), _log_partitions(ET, beta)


def work_distribution(
    p: np.ndarray,
    eig0,
    eigT,
    beta: float,
    *,
    rows=None,
    cols=None,
) -> WorkDistribution:
    """The work values w_nm = E_m' - E_n beside the transition matrix p_nm.

    rows/cols map the axes of p into the eigenvalue lists when p covers
    only a sub-block (truncated models); by default they are ranges.  This
    is the one-measurement case of `_works`, which `_measure_ahead` runs
    over the stacked measurements of a sweep.
    """
    beta = _check_beta(beta)
    p = np.asarray(p, dtype=float)
    rows = np.arange(p.shape[0]) if rows is None else np.asarray(rows, dtype=int)
    cols = np.arange(p.shape[1]) if cols is None else np.asarray(cols, dtype=int)
    if rows.shape[0] != p.shape[0] or cols.shape[0] != p.shape[1]:
        raise ValueError("rows/cols index lists must match the shape of p")
    E0, ET = (_eigenvalues_of(e).real[None] for e in (eig0, eigT))
    w, log_Z0, log_Ztau = _works(E0, ET, np.array([beta]), rows[None], cols[None])
    return WorkDistribution(w=w[0], p=p, beta=beta, log_Z0=float(log_Z0[0]), log_Ztau=float(log_Ztau[0]))


@dataclass(frozen=True)
class JarzynskiReport:
    exp_avg_work: float
    exp_delta_F: float
    relative_residual: float
    mean_work: float
    delta_F: float
    irreversible_work: float
    total_weight: float


def _reports(w: np.ndarray, p: np.ndarray, beta: np.ndarray, log_Z0: np.ndarray, log_Ztau: np.ndarray) -> list:
    """The JarzynskiReport of each of k work distributions (see jarzynski_report).

    w and p stack the distributions' values and weights, (k, ...) each;
    beta, log_Z0 and log_Ztau are (k,).
    """
    w, pr = w.reshape(len(beta), -1), p.reshape(len(beta), -1)
    log_ratio = log_Ztau - log_Z0
    with np.errstate(divide="ignore"):  # ln 0 = -inf
        log_terms = np.log(pr) - beta[:, None] * w
    mean_work = (pr * w).sum(axis=1)
    delta_F = -log_ratio / beta
    with np.errstate(over="ignore"):  # e^{-beta W} and Z_tau/Z_0 may exceed the float range
        exp_avg_work, exp_delta_F = np.exp(log_terms).sum(axis=1), np.exp(log_ratio)
    residual = np.abs(np.exp(log_terms - log_ratio[:, None]).sum(axis=1) - 1.0)
    fields = exp_avg_work, exp_delta_F, residual, mean_work, delta_F, mean_work - delta_F, pr.sum(axis=1)
    return [JarzynskiReport(*report) for report in zip(*(field.tolist() for field in fields))]


def jarzynski_report(wd: WorkDistribution) -> JarzynskiReport:
    """<e^{-beta W}> against Z_tau/Z_0, plus mean and irreversible work.

    Each term p e^{-beta w} is formed as exp(ln p - beta w), so a level
    with zero population adds 0 however large e^{-beta w} is; Z_tau/Z_0 is
    exp(ln Z_tau - ln Z_0), and the relative residual divides each term by
    it in the exponent, so it stays finite where either side over- or
    underflows; exp_avg_work and exp_delta_F themselves are inf where they
    exceed the float range.  The sums run over the pairs in row-major order.
    This is the one-distribution case of `_reports`.
    """
    if not wd.p.size:
        raise ValueError("work distribution has no entries")
    (report,) = _reports(wd.w[None], wd.p[None], *(np.array([x]) for x in (wd.beta, wd.log_Z0, wd.log_Ztau)))
    return report


@dataclass(frozen=True)
class TwoTimeResult:
    """Full two-time-measurement pipeline output.

    p[j, k] is the transition probability from initial level rows[j] to
    final level cols[k] (the array work.p); row_sum_defect is the worst
    deviation of sum_m |<psi_m', g' U psi_n>|^2 from 1 over the *complete*
    final basis, a direct check of metric unitarity in the measurement
    frame.
    """

    rows: tuple
    cols: tuple
    p: np.ndarray
    row_sum_defect: float
    energies_initial: np.ndarray
    energies_final: np.ndarray
    work: WorkDistribution
    report: JarzynskiReport
    propagation: PropagationResult


def _edge_frames(model, protocols: list, precondition: bool) -> list:
    """(edge matrices, metric at the start, frame error) of a two-time measurement under each protocol.

    precondition says whether the measurements take the model's hermitian
    frame, where the metric is the identity; the edge matrices are the
    measured family at the two window edges, and the edges of every
    protocol go through one call of each family.  The frame of a moving
    metric puts H at the two edges first, so that the raw route's gates run
    before the frame's edges are measured.  Where that frame is not finite
    at an edge, only H is given, and frame error holds the error to raise
    after H's checks; it is None otherwise.  Edge matrices that are not
    finite raise ValueError.
    """
    values = np.concatenate([protocol.value(np.array([protocol.t_start, protocol.t_end])) for protocol in protocols])
    at = [slice(2 * i, 2 * i + 2) for i in range(len(protocols))]
    if not precondition:
        H = model.hamiltonian(values)
        frames = [(H[i], _metric_matrix(model.metric(values[i.start])), None) for i in at]
    else:
        frame, identity = _hermitian_frame(model), np.eye(model.dimension, dtype=complex)
        if getattr(model, "metric_is_static", False):
            h = frame(values)
            frames = [(h[i], identity, None) for i in at]
        else:
            H, h = model.hamiltonian(values), frame(values)
            frames = []
            for i, finite in zip(at, np.isfinite(h).reshape(len(at), -1).all(axis=1)):
                if finite:
                    frames.append((np.concatenate([H[i], h[i]]), identity, None))
                else:
                    frames.append((H[i], identity, SingularMetricError(
                        "the hermitian frame is not finite at a window edge, where the metric is not positive definite")))
    if not np.isfinite(np.concatenate([edges for edges, *_ in frames])).all():
        raise ValueError("window-edge matrix contains non-finite entries")
    return frames


def _decompose(edges: list, tol: Tolerances) -> list:
    """(eigensystems, all real) of each list of edge matrices, from one kernel call.

    All real is classify_spectrum's ALL_REAL test of every spectrum of the
    list, taken in one pass over the stacked eigenvalues.
    """
    systems = _eigensystems(np.concatenate(edges), tol)
    E = np.array([e.eigenvalues for e in systems])
    real = np.isfinite(E).all(axis=1) & (np.abs(E.imag).max(axis=1) < tol.spectrum_imag)
    ends = np.cumsum([len(H) for H in edges]).tolist()
    return [(systems[a:b], bool(real[a:b].all())) for a, b in zip([0, *ends], ends)]


def _initial_state(model, eig0: BiorthogonalEigensystem, G0: np.ndarray, beta: float,
                   tol: Tolerances) -> tuple:
    """(populations, row levels, column levels, initial columns) of the Gibbs state on eig0.

    The initial columns are the row levels' right eigenvectors, normalised
    in the metric G0: the columns a two-time measurement propagates.
    """
    _, q, total = _shifted_weights(eig0.eigenvalues, beta)
    pops = (q / total).real  # thermal_state's populations, without its Z and F
    dim = model.dimension
    keep = dim - dim // 8 if getattr(model, "is_truncated", False) else dim

    if getattr(model, "is_truncated", False):
        tail = float(np.sum(pops[dim - 5 :]))
        if tail > tol.tail_mass:
            warnings.warn(
                f"Gibbs weight {tail:.3e} in the top 5 of {dim} levels exceeds "
                f"{tol.tail_mass:.0e}; enlarge the basis for converged statistics",
                TruncationWarning,
                stacklevel=4,
            )

    rows = [n for n in range(keep) if pops[n] >= tol.population_cutoff]
    min_rows = min(4, keep)
    if len(rows) < min_rows:
        rows = list(range(min_rows))
    return pops, rows, list(range(keep)), _g_normalized_columns(eig0.right[:, rows], G0)


def _tails(measured: list) -> list:
    """The tail of each two-time measurement given as (setup, propagation, beta), formed as one stack.

    One (w, p, beta, ln Z_0, ln Z_tau, row-sum defect, JarzynskiReport) per
    measurement, w and p its slices of (k, rows, cols) stacks.  The
    final-level probabilities, the row-sum defect, p, w, ln Z_0, ln Z_tau
    and the report act on each measurement alone, so each comes out as in a
    stack of one.
    """
    setups, props, beta = zip(*measured)
    eig0, eigT, pops, rows, cols, _ = zip(*setups)
    cols = cols[0]
    probs = _final_level_probabilities(np.stack([e.right for e in eigT]),
                                       np.stack([prop.g_end for prop in props]), np.stack([prop.U for prop in props]))
    rows = np.array(rows)
    p = np.swapaxes(probs[:, cols], 1, 2) * np.take_along_axis(np.stack(pops), rows, 1)[:, :, None]
    beta = np.array(beta, dtype=float)
    E0, ET = (np.array([e.eigenvalues.real for e in eigs]) for eigs in (eig0, eigT))
    w, log_Z0, log_Ztau = _works(E0, ET, beta, rows, np.broadcast_to(cols, (len(setups), len(cols))))
    defect = np.abs(probs.sum(axis=1) - 1.0).max(axis=1)
    return list(zip(w, p, beta.tolist(), log_Z0.tolist(), log_Ztau.tolist(), defect.tolist(),
                    _reports(w, p, beta, log_Z0, log_Ztau)))


class _Ahead(NamedTuple):
    """What `_measure_ahead` made of one `two_time_work` call.

    call is (model, protocol, beta, keywords), keywords holding every
    keyword of two_time_work; setup is (eig0, eigT, populations, row
    levels, column levels, initial columns), or the exception the set-up
    raised; lane is the call's PropagationResult or the exception its lane
    raised, and None where the set-up failed; tail is what `_tails` made
    of the call, or the exception it raised, and None where no lane
    passed.
    """

    call: tuple
    setup: tuple | Exception
    lane: PropagationResult | Exception | None
    tail: tuple | Exception | None


def _measure_ahead(calls: list) -> list:
    """The set-up, propagation and tail of each `two_time_work` call, up to the first whose set-up fails.

    A call is (model, protocol, beta, keywords), keywords naming any of
    two_time_work's keywords.  Each stage runs over stacks of calls:
    - the window edges of each run of calls with the same model and route
      in one call of each family (`_edge_frames`);
    - the finite edges of each run of calls with the same tolerances and
      dimension in one kernel call, with one pass over the stacked
      eigenvalues that checks every spectrum is real (`_decompose`); H's
      spectra are checked before its frame's, and the frame's error is
      raised after H's checks;
    - the initial state once for a run of calls that keep the model, start
      edge, metric, beta and tolerances;
    - the calls whose set-up passed as the lanes of `_propagate_lanes`,
      once for each run of calls with the same model and propagation
      options;
    - the tail of the calls whose lane passed once for each run of equal
      shapes (`_tails`).
    Where a stacked stage raises, its calls run it one by one and each
    gets the outcome it gets alone (`_each`).  The set-up stages stop at
    the first call that fails one, so no later call is set up further or
    propagated, and the list returned holds one `_Ahead` per call up to and
    including that one.

    At two levels each call's outcome is that of the call alone, bit for
    bit.  Above two levels a stack of several calls' edges may take
    another solver than one call's edges (`linalg._eig_batched`), so a
    caller that needs the plain calls' bits passes those calls alone.
    """
    calls = [(model, protocol, beta, {**_KEYWORDS, **keywords}) for model, protocol, beta, keywords in calls]
    tols = [keywords["tol"] or DEFAULT for *_, keywords in calls]
    setups, lanes, tails = ([None] * len(calls) for _ in range(3))
    routes, edges, eigs = {}, {}, {}

    def staged(run: list, outcomes: list, into: dict) -> bool:
        """Keep each call's outcome of a set-up stage in into; False at the first that failed, the set-up's end."""
        for i, outcome in zip(run, outcomes):
            if isinstance(outcome, Exception):
                setups[i] = outcome
                return False
            into[i] = outcome
        return True

    for i, (model, protocol, beta, keywords) in enumerate(calls):
        try:
            _check_beta(beta)
        except Exception as exc:
            setups[i] = exc
            break
        given = keywords["gauge_precondition"]
        routes[i] = hasattr(model, "hermitian_frame") if given is None else given

    for (model, precondition), run in itertools.groupby(routes, lambda i: (calls[i][0], routes[i])):
        run = list(run)
        frames = _each(run, lambda run: _edge_frames(model, [calls[i][1] for i in run], precondition), stop=True)
        if not staged(run, frames, edges):
            break

    for (tol, _), run in itertools.groupby(edges, lambda i: (tols[i], edges[i][0].shape[1:])):
        run = list(run)
        if not staged(run, _each(run, lambda run: _decompose([edges[i][0] for i in run], tol), stop=True), eigs):
            break

    groups, start = [], None
    for i, (eig, real) in eigs.items():
        (model, protocol, beta, keywords), tol = calls[i], tols[i]
        H, G0, frame_error = edges[i]
        try:
            if not real:
                for label, e in zip(("initial", "final") * 2, eig):
                    _require_all_real(label, e, tol)
            if frame_error is not None:
                raise frame_error
            key = model, H[-2].tobytes(), G0.tobytes(), beta, tol
            if key != start:
                start, state = key, _initial_state(model, eig[-2], G0, beta, tol)
            setups[i] = *eig[-2:], *state
        except Exception as exc:
            setups[i] = exc
            break
        options = {**keywords, "gauge_precondition": routes[i]}
        if groups and groups[-1][:2] == (model, options):
            groups[-1][2].append(i)
        else:
            groups.append((model, options, [i]))

    for model, options, run in groups:
        try:
            outcomes = _propagate_lanes(model, [calls[i][1] for i in run], [setups[i][-1] for i in run],
                                        **options)
        except Exception as exc:  # an hbar or a step seed that every lane refuses
            outcomes = [exc] * len(run)
        for i, outcome in zip(run, outcomes):
            lanes[i] = outcome

    measured = [i for i, lane in enumerate(lanes) if isinstance(lane, PropagationResult)]
    for _, run in itertools.groupby(measured, lambda i: (lanes[i].U.shape, tuple(setups[i][4]))):
        run = list(run)
        for i, tail in zip(run, _each([(setups[i], lanes[i], calls[i][2]) for i in run], _tails)):
            tails[i] = tail
    end = next((i + 1 for i, setup in enumerate(setups) if isinstance(setup, Exception)), len(calls))
    return [_Ahead(*ahead) for ahead in zip(calls[:end], setups, lanes, tails)]


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
    ahead: _Ahead | None = None,
) -> TwoTimeResult:
    """Measure, propagate, measure: the two-time work pipeline.

    Eigenbases are taken at the protocol window edges.  When the model has
    a hermitian frame (gauge_precondition defaults to using it), dynamics
    and measurements happen in that frame with the identity metric, which
    is exact whenever the frame has no connection: always for a static
    metric, and for a moving one that declares a frame (see `models`).
    For a moving metric the raw edges first pass every check of the raw
    route, and the propagation scans the metric over the window, so the
    frame keeps the raw route's errors.  Truncated models never use the
    top eighth of the spectrum in work sums: those levels are excluded
    from both measurement index sets, while populations stay normalized by
    the full-spectrum partition function, so no probability is invented.

    This is the one-call case of `_measure_ahead`, which sets up,
    propagates and measures many calls at once, as `propagate` is the
    one-lane case of `_propagate_lanes`.  A sweep hands each call what
    `_measure_ahead` made of it as ahead; one made for other arguments is
    refused with ValueError.  A failed set-up raises its exception, then a
    failed lane its own, then a failed tail its own, and the result is
    that of the call alone.
    """
    call = model, protocol, beta, dict(hbar=hbar, steps=steps, tol=tol, entry_tol=entry_tol,
                                       gauge_precondition=gauge_precondition, unitarity_gate=unitarity_gate)
    if ahead is None:
        (ahead,) = _measure_ahead([call])
    elif ahead.call != call:
        raise ValueError("the look-ahead was made for another two-time call than this one")
    for outcome in ahead[1:]:
        if isinstance(outcome, Exception):
            raise outcome
    eig0, eigT, _, rows, cols, _ = ahead.setup
    *distribution, row_sum_defect, report = ahead.tail
    work = WorkDistribution(*distribution)
    return TwoTimeResult(
        rows=tuple(rows),
        cols=tuple(cols),
        p=work.p,
        row_sum_defect=row_sum_defect,
        energies_initial=eig0.eigenvalues.copy(),
        energies_final=eigT.eigenvalues.copy(),
        work=work,
        report=report,
        propagation=ahead.lane,
    )


# two_time_work's keywords at their defaults; a call to `_measure_ahead` names those it sets
_KEYWORDS = {name: value for name, value in two_time_work.__kwdefaults__.items() if name != "ahead"}


# ---------------------------------------------------------------------------
# Quasistatic Carnot cycle


@dataclass(frozen=True)
class CycleReport:
    """Four-leg cycle accounting.

    Q_hot is heat absorbed on the hot isotherm, Q_cold heat exhausted on
    the cold one (both positive for an engine), W_net the work delivered.
    entropy_trace holds one (leg, control values, S) entry per leg, the
    values and entropies as arrays over the leg's grid points;
    g_trace_crosscheck is the worst |tr(rho H) - sum_n p_n E_n| over every
    grid point of every leg.  Every leg's eigensystems passed linalg's
    defectiveness gates: cond_F of the eigenvector matrix at most
    `defective_cond`, no coalescing pair, both biorthonormality residuals
    and the eigenvector equation within `defective_residual`.
    isentrope_evaluations and entropy_mismatch map each
    isentrope ("cool", "heat") to its solver's number of entropy-kernel
    evaluations and its worst |S - target|, at most `entropy_match`.
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
    isentrope_evaluations: dict
    entropy_mismatch: dict


def _entropy_curve(E: np.ndarray, beta, *, slope: bool = False, weights=None):
    """S = beta (U - F) per column for (d, k) eigenvalues and (k,) betas.

    Evaluated as beta sum (E - shift) q / sum q + ln sum q, with
    q = e^{-beta (E - shift)}: U and F, each of size max|E|, are never
    subtracted.  For a real spectrum q is exactly 1 on the m ground levels,
    and ln sum q is taken as ln m + log1p(r / m), r the sum over the other
    levels, so a low temperature (r below ulp(1)) keeps its relative
    accuracy; complex spectra take ln sum q.  (d,) eigenvalues and a scalar
    beta give one value.  With slope, also returns
    dS/d(ln beta) = -beta^2 Var(E), the variance taken in shifted energies.
    weights, when given, is _shifted_weights(E, beta) already evaluated.
    """
    shift, q, total = _shifted_weights(E, beta) if weights is None else weights
    dE = E - shift
    mean = (dE * q).sum(axis=0) / total
    if np.iscomplexobj(E):
        log_total = np.log(total)
    else:
        ground = dE == 0
        m = ground.sum(axis=0, dtype=float)
        log_total = np.log(m) + np.log1p((q - ground).sum(axis=0) / m)
    S = beta * mean + log_total
    if not slope:
        return S
    var = ((dE - mean) ** 2 * q).sum(axis=0) / total
    return S, -beta * beta * var


def _solve_isentrope(
    E: np.ndarray, target: float, beta_from: float, beta_to: float, tol: Tolerances
) -> tuple[np.ndarray, int, float]:
    """beta(lambda) with S = target at every grid point, by bracketed Newton in ln beta.

    E holds the real (d, k) energies.  S is monotone decreasing in beta, so
    the bracket [beta_min, beta_max] either contains the solution everywhere
    or the leg is infeasible.  Newton runs in x = ln beta from the straight
    line between ln beta_from and ln beta_to, the isotherms the leg
    connects; each evaluation moves the end of its column's bracket that
    the sign of S - target excludes, and a step that is not finite (a flat
    column) or leaves the bracket is replaced by the bracket's midpoint.
    The loop stops once every step is below 1e-12 max(1, |x|), after at
    most 64 evaluations.  Returns beta, the number of entropy-kernel
    evaluations (the bracket's two ends, the loop's, the final check) and
    the worst |S - target|, which the final check gates at entropy_match.
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
    xlo, xhi = np.log(lo), np.log(hi)
    x = np.clip(np.linspace(math.log(beta_from), math.log(beta_to), k), xlo, xhi)
    for evaluations in range(4, 68):  # this one, the bracket's two ends and the final check
        S, dS = _entropy_curve(E, np.exp(x), slope=True)
        above = S > target  # beta is too small: x is the new lower end
        xlo = np.where(above, x, xlo)
        xhi = np.where(above, xhi, x)
        with np.errstate(all="ignore"):  # dS is 0 on a flat column, may be subnormal
            new = x - (S - target) / dS
        # a converged iterate sits on an end of its bracket, so the ends count as inside
        new = np.where((new >= xlo) & (new <= xhi), new, 0.5 * (xlo + xhi))
        step = np.abs(new - x)
        x = new
        if np.all(step <= 1e-12 * np.maximum(1.0, np.abs(x))):
            break
    beta = np.exp(x)
    s_final = _entropy_curve(E, beta)
    worst = float(np.max(np.abs(s_final - target)))
    if worst > tol.entropy_match:
        raise IsentropeNotFoundError(
            f"isentrope solve stalled; entropy mismatch {worst:.3e}"
        )
    return beta, evaluations, worst


def _isentrope_betas(
    E: np.ndarray, name: str, s_target: float, beta_from: float, beta_land: float, tol: Tolerances
):
    """_solve_isentrope from the temperature 1/beta_from, which must end on 1/beta_land."""
    E = np.ascontiguousarray(E.real)
    solved = _solve_isentrope(E, s_target, beta_from, beta_land, tol)
    landing = float(_entropy_curve(E[:, -1:], np.array([beta_land]))[0])
    if abs(landing - s_target) > tol.entropy_match:
        raise IsentropeNotFoundError(
            f"isentrope {name} lands at entropy {landing:.8g} for "
            f"T = {1.0 / beta_land:.6g}, but the leg requires {s_target:.8g}; "
            "the chosen endpoints cannot connect the isotherms"
        )
    return solved


def _leg_accounting(H, E, VR, VLh, pops):
    """(heat, work) over one leg from the discrete first law, and its worst energy crosscheck.

    Grid index last, dH = H_hi - H_lo per step.  The work contracts dH as it
    is, so a small step keeps its relative accuracy; as H_mid = H_lo + dH/2 =
    H_hi - dH/2, the heat telescopes to U_end - U_start - W, U = sum_n p_n D_n
    with D = diag(VLh H VR).  The crosscheck is |tr(rho H) - sum_n p_n E_n| =
    |U - sum_n p_n E_n|, rho = VR diag(p) VLh.
    """
    lo, hi = np.s_[..., :-1], np.s_[..., 1:]
    dH = H[hi] - H[lo]
    D = np.einsum("nek,efk,fnk->nk", VLh, H, VR)
    w_lo = np.einsum("nek,efk,fnk->nk", VLh[lo], dH, VR[lo])
    w_hi = np.einsum("nek,efk,fnk->nk", VLh[hi], dH, VR[hi])
    U = (pops * D).sum(axis=0)
    W = 0.5 * complex(((pops[lo] * w_lo).sum(axis=0) + (pops[hi] * w_hi).sum(axis=0)).sum())
    cross = float(np.max(np.abs(U - (pops * E).sum(axis=0))))
    return complex(U[-1] - U[0]) - W, W, cross


def _cycle_leg(h_of, name: str, values: np.ndarray, beta, s_target: float | None, tol: Tolerances):
    """(S, heat, work, crosscheck, isentrope solve) of one Carnot leg over its control values.

    beta is the isotherm's inverse temperature, or for an isentrope the pair
    (beta_from, beta_land) of `_isentrope_betas`, whose solve for the
    entropy s_target the leg reports as [evaluations, entropy mismatch]
    (None on an isotherm).  h_of maps the values to the (k, d, d) stack,
    and the grid index runs last from there on.  The eigen-data come from
    linalg's eigen-kernel, which raises DefectiveMatrixError naming the
    first control value that fails a gate; every spectrum must be real, and
    so must S, the heat and the work, which come back as their real parts.
    The leg's arrays live only in this call, and only S and the solve's
    counts outlive it.
    """
    H = _grid_last(np.asarray(h_of(values), dtype=complex))
    E, VR, VLh = _eig_stack(H, values, tol)[:3]
    r = float(np.max(np.abs(E.imag) / (1.0 + np.abs(E))))
    if r > tol.spectrum_imag:
        raise NonRealResultError(f"spectrum on leg {name} has imaginary parts up to {r:.3e}")
    solved = None
    if isinstance(beta, tuple):
        beta, *solved = _isentrope_betas(E, name, s_target, *beta, tol)
    else:
        beta = np.full(values.size, beta)
    weights = _shifted_weights(E, beta)
    S = _entropy_curve(E, beta, weights=weights)
    q, w, cross = _leg_accounting(H, E, VR, VLh, weights[1] / weights[2])
    r = max(float(np.max(np.abs(S.imag))), abs(q.imag), abs(w.imag))
    if r > tol.reality * 10:
        raise NonRealResultError(f"cycle accounting on leg {name} produced imaginary parts up to {r:.3e}")
    return S.real, q.real, w.real, cross, solved


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
    beta(control) by bracketed Newton in ln beta, started on the straight
    line between the two isotherms' ln beta, and must land on the opposite
    isotherm's temperature; a mismatch raises IsentropeNotFoundError, which
    is how an infeasible leg geometry announces itself.  A leg that reaches an
    exceptional point raises DefectiveMatrixError.  A hot isotherm that
    releases heat raises ValueError as soon as it is done, before the other
    legs are built: those legs make no engine.  steps is the total
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
    legs = (("hot", vA, vB, beta_h), ("cool", vB, vC, (beta_h, beta_c)),
            ("cold", vC, vD, beta_c), ("heat", vD, vA, (beta_c, beta_h)))
    heats, works, trace, evaluations, mismatch = {}, {}, [], {}, {}
    cross_worst = 0.0
    s_end = None  # the entropy where the leg before ended, an isentrope's target
    for name, v_from, v_to, beta in legs:
        values = np.linspace(v_from, v_to, n + 1)
        S, q, w, cross, solved = _cycle_leg(h_of, name, values, beta, s_end, tol)
        if name == "hot" and q <= 0:
            raise ValueError(
                f"hot isotherm released heat (Q_hot = {q:.6g}); leg order does "
                "not describe an engine"
            )
        if solved is not None:
            evaluations[name], mismatch[name] = solved
        trace.append((name, values, S))
        heats[name], works[name] = q, w
        cross_worst = max(cross_worst, cross)
        s_end = float(S[-1])

    Q_hot = heats["hot"]
    Q_cold = -heats["cold"]
    W_net = -sum(works.values())
    first_law = abs(W_net - (Q_hot - Q_cold))
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
        isentrope_evaluations=evaluations,
        entropy_mismatch=mismatch,
    )
