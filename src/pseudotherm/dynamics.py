"""Drive protocols, the metric gauge correction, and propagation.

The central object is `propagate`, which integrates

    i*hbar dU/dt = (H_t + G_t) U,    G_t = -(i*hbar/2) g_t^{-1} dg_t/dt

with the fourth-order commutator Magnus step on two Gauss nodes and a
step-doubling acceptance test.  With A = -(i/hbar)(H + G) at the nodes
t + (1/2 -/+ sqrt(3)/6) dt, one step is U <- exp(Omega) U with

    Omega = (dt/2)(A_1 + A_2) + (sqrt(3)/12) dt^2 [A_2, A_1]

(Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).  The generators
of a block of steps are built in one call to the model and exponentiated in
one batched call: through a hermitian eigendecomposition in the hermitian
frame, in closed form for two levels, and with scipy's `expm` otherwise.
The block holds more steps the smaller the dimension, so a two-level run
usually fits in one block.  Two-level runs are array arithmetic throughout:
2x2 products are written out entrywise (`_mul2`), and the steps between
two checkpoints are multiplied by a pairwise product tree before they act
on U once.  Larger dimensions apply each step to the column block in turn,
which is cheaper than a d x d product tree when U has few columns.  The
checkpoint residuals of a run are evaluated in one batched call.  The gauge
term G_t keeps U metric-unitary, U† g_t U = g_0, when the metric family g_t
moves with the drive; it vanishes for a static metric.  In the hermitian
frame (identity metric) i*Omega is hermitian, so every step is exactly
unitary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
from scipy.special import erf as _erf

from .errors import (
    NotConvergedError,
    ProtocolRangeError,
    SingularMetricError,
)
from .linalg import MetricOperator, _as_square_matrix
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "Protocol",
    "PropagationResult",
    "hamiltonian_at",
    "gauge_field",
    "propagate",
    "unitarity_residual",
]

_KINDS = ("linear", "erf", "tabulated")

# Generator-stack entries per batched call, the cost of 16 steps at d = 28.
# A block holds max(16, _BLOCK_ENTRIES // d**2) Magnus steps (_block_steps),
# which bounds the (2 * steps, d, d) node stacks and with them the memory a
# propagation holds.
_BLOCK_ENTRIES = 16 * 28 * 28
# Gauss-Legendre nodes on [0, 1] and the commutator weight of the step
_NODES = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_COMMUTATOR = math.sqrt(3.0) / 12.0
# A run checks U every n // _CHECKPOINTS steps and at its last step
_CHECKPOINTS = 12


@dataclass(frozen=True)
class Protocol:
    """Scalar control schedule.

    linear:    value(t) = start + (end-start) * t/duration on [0, duration]
    erf:       value(t) = (start+end)/2 + (end-start)/2 * erf(t/duration)
               on [-window*duration, +window*duration]; window sized so the
               edges sit deep in the erf tails
    tabulated: piecewise-linear through (t, value) samples
    """

    kind: str
    start_value: float = 0.0
    end_value: float = 0.0
    duration: float = 1.0
    window: float = 3.0
    samples: tuple = field(default=())

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        if self.kind == "tabulated":
            if len(self.samples) < 2:
                raise ValueError("tabulated protocol needs at least 2 samples")
            if not all(map(math.isfinite, itertools.chain.from_iterable(self.samples))):
                raise ValueError("tabulated samples must be finite")
            ts = [t for t, _ in self.samples]
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ValueError("tabulated sample times must be strictly increasing")
        else:
            numbers = (self.start_value, self.end_value, self.duration, self.window)
            if not all(map(math.isfinite, numbers)):
                raise ValueError("protocol start, end, duration and window must be finite")
            if self.duration <= 0:
                raise ValueError("protocol duration must be positive")
            if self.kind == "erf" and self.window <= 0:
                raise ValueError("erf window must be positive")

    @classmethod
    def linear(cls, start: float, end: float, duration: float) -> "Protocol":
        return cls("linear", start, end, duration)

    @classmethod
    def erf(cls, start: float, end: float, duration: float, window: float = 3.0) -> "Protocol":
        return cls("erf", start, end, duration, window)

    @classmethod
    def tabulated(cls, samples: Sequence[tuple]) -> "Protocol":
        return cls("tabulated", samples=tuple((float(t), float(v)) for t, v in samples))

    @property
    def t_start(self) -> float:
        if self.kind == "linear":
            return 0.0
        if self.kind == "erf":
            return -self.window * self.duration
        return self.samples[0][0]

    @property
    def t_end(self) -> float:
        if self.kind == "linear":
            return self.duration
        if self.kind == "erf":
            return self.window * self.duration
        return self.samples[-1][0]

    def _check_range(self, t) -> np.ndarray:
        lo, hi = self.t_start, self.t_end
        slack = 1e-9 * (hi - lo)
        t = np.asarray(t, dtype=float)
        outside = (t < lo - slack) | (t > hi + slack)
        if np.any(outside):
            raise ProtocolRangeError(
                f"t = {t[outside][0]:.6g} outside protocol window [{lo:.6g}, {hi:.6g}]"
            )
        return np.clip(t, lo, hi)

    def value(self, t):
        """Control value at time t, a float, or an array for an array of times."""
        t = self._check_range(t)
        if self.kind == "linear":
            v = self.start_value + (self.end_value - self.start_value) * t / self.duration
        elif self.kind == "erf":
            mid = 0.5 * (self.start_value + self.end_value)
            half = 0.5 * (self.end_value - self.start_value)
            v = mid + half * _erf(t / self.duration)
        else:
            ts, vs = np.array(self.samples).T
            v = np.interp(t, ts, vs)
        return float(v) if v.ndim == 0 else v

    def rate(self, t):
        """Time derivative of value(t), elementwise for an array of times."""
        t = self._check_range(t)
        if self.kind == "linear":
            r = np.full(t.shape, (self.end_value - self.start_value) / self.duration)
        elif self.kind == "erf":
            half = 0.5 * (self.end_value - self.start_value)
            x = t / self.duration
            r = half * 2.0 / math.sqrt(math.pi) * np.exp(-x * x) / self.duration
        else:
            ts, vs = np.array(self.samples).T
            i = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
            r = (vs[i + 1] - vs[i]) / (ts[i + 1] - ts[i])
        return float(r) if r.ndim == 0 else r


@dataclass(frozen=True)
class PropagationResult:
    """Final propagator with convergence and unitarity diagnostics.

    U has one column per column of the initial condition (the identity by
    default), after steps_used Magnus steps of step_size.  checkpoints holds
    (t, ||U† g_t U - M0||_F) at >= 10 interior times of the accepted run,
    M0 being the metric Gram matrix of the initial columns; in the hermitian
    frame they sit at rounding level, since every step is exactly unitary.
    entry_change is the largest entry change of U under the last step
    halving.  g_start/g_end are the metric family evaluated at the window
    edges; downstream two-time measurements must weigh overlaps with exactly
    these matrices, otherwise row sums drift away from 1.
    """

    U: np.ndarray
    checkpoints: tuple
    steps_used: int
    step_size: float
    g_start: np.ndarray
    g_end: np.ndarray
    t_start: float
    t_end: float
    entry_change: float


def hamiltonian_at(model, protocol: Protocol, t: float) -> np.ndarray:
    """H(value(t)); raises ProtocolRangeError outside the window."""
    return model.hamiltonian(protocol.value(t))


def _gauge(ginv_dg, hbar: float):
    """G = -(i*hbar/2) g^{-1} dg/dt, given the product g^{-1} dg/dt (or a stack of them)."""
    return -0.5j * hbar * ginv_dg


def gauge_field(g, dg_dt, hbar: float = 1.0) -> np.ndarray:
    """G = -(i*hbar/2) g^{-1} dg/dt."""
    D = _as_square_matrix(dg_dt)
    if isinstance(g, MetricOperator):
        ginv_D = g.g_inverse @ D
    else:
        G = _as_square_matrix(g)
        try:
            ginv_D = np.linalg.solve(G, D)
        except np.linalg.LinAlgError as exc:
            raise SingularMetricError(f"metric not invertible: {exc}") from exc
    return _gauge(ginv_D, hbar)


def unitarity_residual(U, g0, gt):
    """||U† g_t U - g_0||_F, the metric-unitarity defect of a propagator.

    A stack of propagators (and of metrics g_t) broadcasts over the leading
    axes and gives an array of defects; a single propagator gives a float.
    """
    Um = np.asarray(U, dtype=complex)
    G0 = g0.g if isinstance(g0, MetricOperator) else np.asarray(g0, dtype=complex)
    Gt = gt.g if isinstance(gt, MetricOperator) else np.asarray(gt, dtype=complex)
    defect = np.linalg.norm(np.swapaxes(Um.conj(), -1, -2) @ Gt @ Um - G0, axis=(-2, -1))
    return float(defect) if defect.ndim == 0 else defect


def _block_steps(dim: int) -> int:
    """Magnus steps built and exponentiated per batched call at dimension dim."""
    return max(16, _BLOCK_ENTRIES // (dim * dim))


def _mul2(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for stacks of 2x2 matrices, entry by entry; leading axes broadcast.

    One batched `@` calls BLAS once per 2x2 matrix; eight elementwise
    products over the whole stack cost a small fraction of that.
    """
    a00, a01, a10, a11 = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    b00, b01, b10, b11 = B[..., 0, 0], B[..., 0, 1], B[..., 1, 0], B[..., 1, 1]
    out = np.empty(np.broadcast_shapes(A.shape, B.shape), dtype=np.result_type(A, B))
    out[..., 0, 0] = a00 * b00 + a01 * b10
    out[..., 0, 1] = a00 * b01 + a01 * b11
    out[..., 1, 0] = a10 * b00 + a11 * b10
    out[..., 1, 1] = a10 * b01 + a11 * b11
    return out


def _tree_product(S: np.ndarray) -> np.ndarray:
    """S[..., L-1, :, :] @ ... @ S[..., 0, :, :] for a (..., L, 2, 2) stack.

    Pairwise levels: each multiplies neighbours (later factor on the left)
    in one `_mul2` call, so L factors take ceil(log2 L) calls.
    """
    while S.shape[-3] > 1:
        even = S.shape[-3] // 2 * 2
        P = _mul2(S[..., 1:even:2, :, :], S[..., 0:even:2, :, :])
        if even < S.shape[-3]:
            P = np.concatenate((P, S[..., even:, :, :]), axis=-3)
        S = P
    return S[..., 0, :, :]


def _piece_products(E: np.ndarray, ends: np.ndarray) -> list:
    """Products of the consecutive pieces E[0:ends[0]], E[ends[0]:ends[1]], ...

    Runs of pieces with equal length are reduced together along a leading
    axis; the products come in piece order.
    """
    products = []
    start = 0
    for length, run in itertools.groupby(np.diff(ends, prepend=0)):
        m = len(list(run))
        products.extend(_tree_product(E[start : start + m * length].reshape(m, length, 2, 2)))
        start += m * length
    return products


def _expm2(omega: np.ndarray) -> np.ndarray:
    """exp of each matrix in a (k, 2, 2) stack, in closed form.

    With omega = m I + N, m = tr(omega)/2 and s^2 = -det N,
    exp(omega) = e^m [cosh(s) I + (sinh(s)/s) N].  Both functions of s are
    even, so the branch of the root does not matter; sinh(s)/s is set to 1
    at s = 0, where N may be nilpotent without vanishing (an exceptional
    point).
    """
    m = 0.5 * (omega[:, 0, 0] + omega[:, 1, 1])
    a = 0.5 * (omega[:, 0, 0] - omega[:, 1, 1])
    b, c = omega[:, 0, 1], omega[:, 1, 0]
    s = np.sqrt(a * a + b * c)
    zero = s == 0
    cosh = np.cosh(s)
    sinhc = np.where(zero, 1.0, np.sinh(s) / np.where(zero, 1.0, s))
    scale = np.exp(m)
    cosh *= scale
    sinhc *= scale
    out = np.empty_like(omega)
    out[:, 0, 0] = cosh + sinhc * a
    out[:, 0, 1] = sinhc * b
    out[:, 1, 0] = sinhc * c
    out[:, 1, 1] = cosh - sinhc * a
    return out


def _min_eigenvalue(g: np.ndarray):
    """Smallest eigenvalue of the hermitian part of g, or of each matrix in a stack."""
    return np.linalg.eigvalsh(0.5 * (g + np.swapaxes(g.conj(), -1, -2))).min(axis=-1)


class _MetricFamily:
    """Adapter bundling the metric callables a model exposes.

    Three cases: the identity (hermitian frame), a static metric, and a
    metric that moves with the drive, the only one with a gauge term.
    """

    def __init__(self, model, protocol: Protocol, identity: bool):
        self.identity = identity
        self._model = model
        self._protocol = protocol
        if identity:
            self.static = True
            self._g0 = np.eye(model.dimension, dtype=complex)
            return
        self.static = bool(getattr(model, "metric_is_static", False))
        if self.static:
            self._g0 = model.metric(protocol.value(protocol.t_start))

    def g(self, t) -> np.ndarray:
        """Metric at time t; a static one is returned as is, a moving one stacks over an array of times."""
        if self.static:
            return self._g0
        return self._model.metric(self._protocol.value(t))

    def gauge(self, ts: np.ndarray, v: np.ndarray, hbar: float):
        """Gauge terms at the times ts (control values v); None when they vanish identically."""
        if self.static:
            return None
        dg = self._model.metric_rate(v, self._protocol.rate(ts))
        ginv = self._model.metric_inverse(v)
        return _gauge(_mul2(ginv, dg) if self._model.dimension == 2 else ginv @ dg, hbar)

    def min_eigenvalue(self, ts: np.ndarray) -> np.ndarray:
        """Smallest metric eigenvalue at each of the times ts (moving metric)."""
        v = self._protocol.value(ts)
        fn = getattr(self._model, "metric_min_eigenvalue", None)
        if fn is not None:
            return np.asarray(fn(v))
        return _min_eigenvalue(self._model.metric(v))


def _scan_positive_definite(family: _MetricFamily, t0: float, t1: float, tol: Tolerances):
    """Refuse to integrate into a region where the metric degenerates."""
    if family.identity:
        return
    if family.static:
        m = float(_min_eigenvalue(family.g(t0)))
        if m <= tol.metric_min_eig:
            raise SingularMetricError(
                f"static metric is not positive definite (min eigenvalue {m:.3e})"
            )
        return
    ts = np.linspace(t0, t1, 1025)
    m = family.min_eigenvalue(ts)
    bad = np.flatnonzero(m <= tol.metric_min_eig)
    if bad.size:
        i = bad[0]
        raise SingularMetricError(
            f"metric loses positive-definiteness at t = {ts[i]:.6g} "
            f"(min eigenvalue {m[i]:.3e}); cannot propagate through"
        )


def propagate(
    model,
    protocol: Protocol,
    hbar: float = 1.0,
    steps: int | None = None,
    *,
    tol: Tolerances | None = None,
    entry_tol: float | None = None,
    max_steps: int = 1 << 23,
    initial: np.ndarray | None = None,
    gauge_precondition: bool = False,
    t0: float | None = None,
    t1: float | None = None,
    unitarity_gate: float | None = None,
) -> PropagationResult:
    """Integrate the metric-corrected Schrodinger equation for U(t1, t0).

    steps seeds the refinement; the count doubles until no entry of U moves
    by more than entry_tol (relative to the largest entry) under halving the
    step and the worst checkpoint residual is within unitarity_gate, then
    the finer run is returned.  `initial` replaces the identity initial
    condition by an arbitrary (dim x k) column block, which evolves the
    given columns only.  With gauge_precondition the model's hermitian frame
    is integrated instead (identity metric, no gauge term), and each step is
    exponentiated through a hermitian eigendecomposition.

    A run checks U at about 12 evenly spaced steps (every n // 12 steps, and
    the last).  At two levels the steps between two checkpoints are
    multiplied by a pairwise product tree of entrywise 2x2 products and
    advance U once; larger dimensions apply each step to U in turn.  The
    checkpoint propagators of a run are checked for finiteness and against
    the metric in one batched call each.

    Raises SingularMetricError when the metric degenerates inside the window
    and NotConvergedError when max_steps is hit without acceptance, when
    the entry test has passed on two consecutive doublings while the worst
    checkpoint still misses the gate, or when the entry change has failed
    to decrease on two consecutive doublings (entry_tol below the rounding
    floor).
    """
    tol = tol or DEFAULT
    entry_tol = tol.propagation if entry_tol is None else float(entry_tol)
    t0 = protocol.t_start if t0 is None else float(t0)
    t1 = protocol.t_end if t1 is None else float(t1)
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")

    if gauge_precondition:
        frame = getattr(model, "hermitian_frame", None)
        if frame is None:
            raise ValueError("model has no hermitian frame to precondition into")
        h_of = frame
    else:
        h_of = model.hamiltonian
    family = _MetricFamily(model, protocol, identity=gauge_precondition)
    _scan_positive_definite(family, t0, t1, tol)

    dim = model.dimension
    X0 = np.eye(dim, dtype=complex) if initial is None else np.asarray(initial, dtype=complex)
    if X0.ndim != 2 or X0.shape[0] != dim:
        raise ValueError(f"initial condition must be ({dim} x k), got {X0.shape}")

    g_start, g_end = family.g(t0), family.g(t1)
    M0 = X0.conj().T @ g_start @ X0
    gate = unitarity_gate
    if gate is None:
        gate = tol.propagation * max(1.0, float(np.linalg.norm(g_start)))

    mul = _mul2 if dim == 2 else np.matmul

    def step_exponentials(ts: np.ndarray, dt: float) -> np.ndarray:
        """exp(Omega) of the steps whose Gauss nodes are ts (two per step, in order)."""
        v = protocol.value(ts)
        A = h_of(v)
        G = family.gauge(ts, v, hbar)
        if G is not None:
            A = A + G
        A = (-1j / hbar) * A
        A1, A2 = A[0::2], A[1::2]
        omega = (0.5 * dt) * (A1 + A2) + (_COMMUTATOR * dt * dt) * (mul(A2, A1) - mul(A1, A2))
        if family.identity:
            # i*Omega is hermitian by construction: exp(Omega) = V exp(-i w) V†
            w, V = np.linalg.eigh(1j * omega)
            return (V * np.exp(-1j * w)[:, None, :]) @ V.conj().transpose(0, 2, 1)
        if dim == 2:
            return _expm2(omega)
        return scipy.linalg.expm(omega)

    block = _block_steps(dim)

    def run(n: int):
        dt = (t1 - t0) / n
        every = max(1, n // _CHECKPOINTS)
        marks = np.union1d(np.arange(every, n + 1, every), n)  # k % every == 0 or k == n
        at_mark = []  # U after each checkpoint step
        U = X0
        with np.errstate(over="ignore", invalid="ignore"):
            for first in range(0, n, block):
                last = min(first + block, n)
                ts = t0 + (np.arange(first, last)[:, None] + _NODES) * dt
                E = step_exponentials(ts.ravel(), dt)
                inside = marks[(marks > first) & (marks <= last)]
                # pieces end at the checkpoints and at the block end
                ends = np.union1d(inside, last) - first
                products = _piece_products(E, ends) if dim == 2 else None
                start = 0
                for j, end in enumerate(ends):
                    if dim == 2:
                        U = products[j] @ U
                    else:
                        for Ek in E[start:end]:
                            U = Ek @ U
                    start = end
                    if j < inside.size:
                        at_mark.append(U)
        # Coarse non-hermitian passes can overflow; return None so the
        # doubling loop just keeps refining.
        stack = np.stack(at_mark)
        if not np.isfinite(stack).all():
            return None, ()
        tc = t0 + marks * dt
        residuals = unitarity_residual(stack, M0, family.g(tc))
        return U, tuple(zip(tc.tolist(), residuals.tolist()))

    n = max(int(steps) if steps else 128, 2)
    U_prev, _ = run(n)
    change = np.inf
    changes = []  # entry changes of the doublings since U last overflowed
    gate_misses = 0
    while True:
        if 2 * n > max_steps:
            raise NotConvergedError(
                f"step doubling did not converge by {max_steps} steps "
                f"(last entry change {change:.3e})"
            )
        n *= 2
        U, checkpoints = run(n)
        entry_ok = False
        if U is not None and U_prev is not None:
            change = float(np.max(np.abs(U - U_prev)))
            changes.append(change)
            scale = max(1.0, float(np.max(np.abs(U))))
            entry_ok = change <= entry_tol * scale
        else:
            changes = []
        if entry_ok:
            worst = max(r for _, r in checkpoints)
            if worst <= gate:
                break
            gate_misses += 1
            if gate_misses == 2:
                raise NotConvergedError(
                    f"entries converged at {n // 2} and {n} steps, but the worst "
                    f"checkpoint residual {worst:.3e} still exceeds the unitarity "
                    f"gate {gate:.3e} at n = {n}"
                )
        else:
            gate_misses = 0
            # at the rounding floor halving the step no longer shrinks the change
            if len(changes) >= 3 and changes[-3] <= changes[-2] <= changes[-1]:
                raise NotConvergedError(
                    f"the entry change failed to decrease on two consecutive doublings "
                    f"({changes[-3]:.3e}, {changes[-2]:.3e}, {changes[-1]:.3e} up to "
                    f"n = {n}); entry_tol {entry_tol:.1e} cannot be met, likely below "
                    "the rounding floor"
                )
        U_prev = U

    return PropagationResult(
        U=U,
        checkpoints=checkpoints,
        steps_used=n,
        step_size=(t1 - t0) / n,
        g_start=g_start,
        g_end=g_end,
        t_start=t0,
        t_end=t1,
        entry_change=change,
    )
