"""Drive protocols, the metric gauge correction, and propagation.

The central object is `propagate`, which integrates

    i*hbar dU/dt = (H_t + G_t) U,    G_t = -(i*hbar/2) g_t^{-1} dg_t/dt

with the fourth-order commutator Magnus step on two Gauss nodes and a
step-doubling acceptance test.  With A = -(i/hbar)(H + G) at the nodes
t + (1/2 -/+ sqrt(3)/6) dt, one step is U <- exp(Omega) U with

    Omega = (dt/2)(A_1 + A_2) + (sqrt(3)/12) dt^2 [A_2, A_1]

(Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).  The generators
of a block of steps are built in one call to the model and exponentiated in
one batched call: in closed form for two levels, and otherwise with a
scaled Taylor polynomial in Paterson-Stockmeyer form (Higham, SIAM J.
Matrix Anal. Appl. 26, 1179 (2005); Al-Mohy & Higham, SIAM J. Sci. Comput.
33, 488 (2011)), applied to invariant blocks fixed once per `propagate`
call and written into buffers that the call owns.  When the model declares
its family as affine terms H0 + f(v) H1 (see `models`) and no gauge term is
needed, the blocks are those that the exact zeros of H0 and H1 leave (the
hermitian frame of the oscillator splits into its two parity blocks), and
the model is not called per step: the commutator is (f_2 - f_1)[H1, H0], so
the Omegas of a batch are one product of a (k, 3) coefficient array with
the fixed H0, H1 and [H1, H0] on the blocks, and the coefficients come from
the control values of a chunk of batches at a time.  Other families are
evaluated at the Gauss nodes of each batch and run as one dense block of
all d levels.  One builder, `_Family.generators`, gives every pass its
node generators: the family plus a moving metric's gauge term, refused
with SingularMetricError where it is not finite, as the affine path
refuses a coefficient that is not finite.  A batch holds more steps the
smaller the dimension, so a two-level run usually fits in one batch.
Two-level runs are array arithmetic throughout, on entry-major stacks: a
batch's node generators are laid out once with one contiguous row per node
and matrix entry, so Omega, its commutator (2x2 products written out
entrywise, `_mul2`) and the closed-form exponential (`_expm2`, which skips
the e^m scale of a traceless stack) read and write whole rows.  The steps
between two checkpoints are multiplied by a pairwise product tree that
carries each level's odd factor up, before they act on U once, the equal
pieces of a batch together
(`_piece_products`).  The first two runs of the step-doubling ladder, n
and 2n steps, share one pass; at two levels that is one evaluation of the
family, the gauge term and the exponential per batch of their steps, each
step with its own run's dt, and one residual call for both runs'
checkpoints.  `_propagate_lanes` runs the ladder of many propagations of
one model at once, and `propagate` is its one-lane case: at two levels the
runs of all lanes at one rung share each pass in the same way, so a
sweep's points pay the per-call overhead once per rung rather than once
per point.  Above two levels one object, `_BlockExponentials`, owns the
partition, its buffers and the run: it holds U as the rows of each
invariant block and advances them step by step, one stacked block product
per group of equal-sized blocks; no exponential larger than a block is
formed, and dense U is assembled only at the checkpoints.  The checkpoint
residuals of a pass are evaluated in one batched call.  The gauge term G_t
keeps U metric-unitary, U† g_t U = g_0, when the metric family g_t moves
with the drive; it vanishes for a static metric.  In the hermitian frame
(identity metric) i*Omega is hermitian, so every step is unitary to
rounding.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Generator, NamedTuple, Sequence

import numpy as np

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
# Default cap on the steps of one run of the doubling ladder
MAX_STEPS = 1 << 23
# Taylor degrees m of the exponential kernel, each with the largest 1-norm at
# which its backward error stays below the unit roundoff (Al-Mohy & Higham,
# SIAM J. Sci. Comput. 33, 488 (2011), Table 3.1); larger norms are scaled
# by 2^-s into the last range and squared s times afterwards
_TAYLOR_THETA = ((8, 5.0e-2), (12, 3.0e-1), (16, 7.81e-1), (20, 1.44))
# Paterson-Stockmeyer chunks of each degree: row j takes (I, X, X^2, X^3, X^4)
# to sum_{i<4} X^i / (4j + i)!, plus X^m / m! on the top row
_TAYLOR_CHUNKS = {
    m: np.array([[1 / math.factorial(4 * j + i) if i < 4 or 4 * j + i == m else 0.0
                  for i in range(5)] for j in range(m // 4)])
    for m, _ in _TAYLOR_THETA
}


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
        """t as a float array; times within 1e-9 of the window width outside it are clipped in.

        Times whose min and max lie in the window come back as they are.  A
        non-finite time is outside the window.
        """
        lo, hi = self.t_start, self.t_end
        t = np.asarray(t, dtype=float)
        if t.size and lo <= t.min() and t.max() <= hi:
            return t
        slack = 1e-9 * (hi - lo)
        outside = ~((t >= lo - slack) & (t <= hi + slack))
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
            x = (t / self.duration).ravel().tolist()
            v = mid + half * np.fromiter(map(math.erf, x), float, t.size).reshape(t.shape)
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


class Rung(NamedTuple):
    """One run of the step-doubling ladder.

    n steps; the largest entry change of U against the run before (inf on
    the first run and where either run overflowed); the worst checkpoint
    residual (inf where U overflowed); the wall time of the run.  Where
    runs share one pass (the first two, and at two levels the runs of all
    lanes at one rung of `_propagate_lanes`), each is given the pass's wall
    time in proportion to its steps: a third and two thirds for a lone
    pair.
    """

    n: int
    entry_change: float
    worst_checkpoint: float
    seconds: float


@dataclass(frozen=True)
class PropagationResult:
    """Final propagator with convergence and unitarity diagnostics.

    U has one column per column of the initial condition (the identity by
    default), after steps_used Magnus steps of step_size.  checkpoints holds
    (t, ||U† g_t U - M0||_F) of the accepted run of n steps after every
    max(1, n // 12)-th step and after the last, so at least min(n, 12)
    times, M0 being the metric Gram matrix of the initial columns; in the
    hermitian frame they sit at rounding level, since every step is unitary
    to rounding.
    entry_change is the largest entry change of U under the last step
    halving, and unitarity_gate the limit the accepted run's worst
    checkpoint met.  rungs records every run of the doubling ladder in order
    (the last is the accepted one), and steps_computed sums their step
    counts.  initial holds the initial columns, as complex.
    g_start/g_end are the metric family evaluated at the window
    edges; downstream two-time measurements must weigh overlaps with exactly
    these matrices, otherwise row sums drift away from 1.
    """

    U: np.ndarray
    checkpoints: tuple
    steps_used: int
    step_size: float
    g_start: np.ndarray
    g_end: np.ndarray
    entry_change: float
    unitarity_gate: float
    rungs: tuple
    initial: np.ndarray

    @property
    def steps_computed(self) -> int:
        return sum(r.n for r in self.rungs)


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
    Square two-level propagators take the entrywise product `_mul2`.
    """
    Um = np.asarray(U, dtype=complex)
    G0 = g0.g if isinstance(g0, MetricOperator) else np.asarray(g0, dtype=complex)
    Gt = gt.g if isinstance(gt, MetricOperator) else np.asarray(gt, dtype=complex)
    Uh = np.swapaxes(Um.conj(), -1, -2)
    UgU = _mul2(_mul2(Uh, Gt), Um) if Um.shape[-2:] == Gt.shape[-2:] == (2, 2) else Uh @ Gt @ Um
    defect = np.linalg.norm(UgU - G0, axis=(-2, -1))
    return float(defect) if defect.ndim == 0 else defect


def _stride(n: int) -> int:
    """Steps between two checkpoints of a run of n steps."""
    return max(1, n // _CHECKPOINTS)


def _marks(n: int) -> np.ndarray:
    """The checkpoint steps k of a run of n steps: k % _stride(n) == 0, and k == n."""
    return np.append(np.arange(_stride(n), n, _stride(n)), n)


def _block_steps(dim: int) -> int:
    """Magnus steps built and exponentiated per batched call at dimension dim."""
    return max(16, _BLOCK_ENTRIES // (dim * dim))


def _mul2(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for stacks of 2x2 matrices, entry by entry; leading axes broadcast.

    One batched `@` calls BLAS once per 2x2 matrix; eight elementwise
    products over the whole stack cost a small fraction of that.  The
    product is stored entry-major, as a view of a contiguous (2, 2, ...)
    array, so each of its entries is one row for the next entrywise
    operation.
    """
    lead = np.broadcast_shapes(A.shape, B.shape)[:-2]
    out = np.moveaxis(np.empty((2, 2, *lead), dtype=np.result_type(A, B)), (0, 1), (-2, -1))
    for i, j in itertools.product((0, 1), repeat=2):  # out_ij = A_i0 B_0j + A_i1 B_1j
        np.multiply(A[..., i, 0], B[..., 0, j], out=out[..., i, j])
        out[..., i, j] += A[..., i, 1] * B[..., 1, j]
    return out


def _piece_products(E: np.ndarray, every: int) -> np.ndarray:
    """Products of the consecutive pieces of `every` steps of a (..., k, 2, 2) stack.

    The last piece may be shorter.  Each piece is reduced by a pairwise
    tree, the later factor on the left, that carries each level's odd
    factor up unpaired.  The full pieces (of every leading index) are the
    rows of one entry-major (2, 2, ..., pieces, every) view of E and
    reduce together; a shorter last piece reduces as a second one.
    Returns a C-ordered (..., pieces, 2, 2) stack.
    """
    k = E.shape[-3]
    entries = np.moveaxis(E, (-2, -1), (0, 1))
    full = k // every * every
    parts = [entries[..., :full].reshape(*entries.shape[:-1], k // every, every)] if full else []
    if full < k:
        parts.append(entries[..., None, full:])
    products = []
    for S in parts:
        while S.shape[-1] > 1:
            w = S.shape[-1]
            A, B = S[..., 1:w:2], S[..., 0 : w - 1 : 2]
            P = A[:, :1] * B[:1] + A[:, 1:] * B[1:]  # entry (i, j): A_i0 B_0j + A_i1 B_1j
            S = np.concatenate([P, S[..., w - 1 :]], axis=-1) if w % 2 else P  # the odd factor, carried up
        products.append(S[..., 0])
    S = products[0] if len(products) == 1 else np.concatenate(products, axis=-1)
    return np.ascontiguousarray(np.moveaxis(S, (0, 1), (-2, -1)))


def _expm2(omega: np.ndarray) -> np.ndarray:
    """exp of each matrix in a (k, 2, 2) stack, in closed form.

    With omega = m I + N, m = tr(omega)/2 and s^2 = -det N,
    exp(omega) = e^m [cosh(s) I + (sinh(s)/s) N].  Both functions of s are
    even, so the branch of the root does not matter; sinh(s)/s is set to 1
    at s = 0, where N may be nilpotent without vanishing (an exceptional
    point).  A stack whose traces are all 0 skips the scale e^m = 1.  The
    result is stored like omega: entry-major for an entry-major stack.
    """
    m = 0.5 * (omega[:, 0, 0] + omega[:, 1, 1])
    a = 0.5 * (omega[:, 0, 0] - omega[:, 1, 1])
    b, c = omega[:, 0, 1], omega[:, 1, 0]
    s = np.sqrt(a * a + b * c)
    zero = s == 0
    cosh = np.cosh(s)
    sinhc = np.where(zero, 1.0, np.sinh(s) / np.where(zero, 1.0, s))
    if m.any():  # else every trace is 0 (a hermitian frame, or H without a gauge term): e^m = 1
        scale = np.exp(m)
        cosh *= scale
        sinhc *= scale
    out = np.empty_like(omega)
    diagonal = sinhc * a
    np.add(cosh, diagonal, out=out[:, 0, 0])
    np.multiply(sinhc, b, out=out[:, 0, 1])
    np.multiply(sinhc, c, out=out[:, 1, 0])
    np.subtract(cosh, diagonal, out=out[:, 1, 1])
    return out


def _expm_taylor(work: np.ndarray) -> np.ndarray:
    """exp of each matrix in the (n, b, b) stack work[1], as a view into work.

    work is (10, n, b, b) complex scratch, all overwritten.  The degree and
    the scaling 2^-s follow from the stack's largest 1-norm (_TAYLOR_THETA).
    The powers I..X^4 go to work[0:5], one real GEMM makes the chunks in
    work[5:], Horner in X^4 sums them, and s squarings follow.
    """
    n, b = work.shape[1], work.shape[-1]
    X = work[1]
    norm = float(np.abs(X).sum(axis=-2).max())
    m, theta = next((row for row in _TAYLOR_THETA if norm <= row[1]), _TAYLOR_THETA[-1])
    s = math.ceil(math.log2(norm / theta)) if theta < norm < math.inf else 0  # NaN: unscaled
    if s:
        X *= 2.0**-s
    work[0] = 0.0
    work[0].reshape(n, b * b)[:, :: b + 1] = 1.0
    np.matmul(X, X, out=work[2])
    np.matmul(work[2], X, out=work[3])
    np.matmul(work[2], work[2], out=work[4])
    q = m // 4  # complex entries as real pairs: the coefficients are real
    np.matmul(_TAYLOR_CHUNKS[m], work[:5].view(float).reshape(5, -1),
              out=work[5 : 5 + q].view(float).reshape(q, -1))
    R, i = work[4 + q], 2
    for j in reversed(range(q - 1)):
        np.matmul(work[4], R, out=work[i])
        work[i] += work[5 + j]
        R, i = work[i], 5 - i
    for _ in range(s):
        np.matmul(R, R, out=work[i])
        R, i = work[i], 5 - i
    return R


def _invariant_blocks(pattern: np.ndarray) -> list:
    """Connected components of a symmetric (d, d) boolean coupling pattern.

    Returns one (c, b) index array per component size b, each row the
    sorted levels of one component.  Reachability comes from squaring the
    pattern (with the diagonal) until it stops growing.
    """
    reach = pattern | np.eye(pattern.shape[0], dtype=bool)
    while not np.array_equal(grown := reach @ reach, reach):
        reach = grown
    first = reach.argmax(axis=1)  # the lowest level of each level's component
    labels, sizes = np.unique(first, return_counts=True)
    return [np.array([np.flatnonzero(first == lab) for lab in labels[sizes == b]])
            for b in np.unique(sizes)]


class _BlockExponentials:
    """The run of a d > 2 propagation, invariant block by block.

    The partition is fixed when the object is built.  `index` holds one
    (c, b) array per group of equal-sized blocks, each row the sorted levels
    of one of its c blocks of b levels, and a batch of k steps exponentiates
    to one (k, c, b, b) stack per group.  Built from an affine family's terms
    (H0, H1, f), the blocks are the connected components of the symmetrised
    nonzero pattern of H0 | H1, and E is formed on the blocks only: the
    exponential of a block-diagonal matrix is block diagonal, and each step
    moves only the rows of U in its own block.  `coefficients` turns the
    node values of f of any number of steps into (k, 3) weights, and
    `affine` makes each Omega one combination of H0, H1 and [H1, H0], taken
    on the blocks once.  Without terms all d levels are one dense block, and
    `__call__` builds each Omega from the batch's node generators.  `run`
    integrates the `_Family` given at construction.  The buffers live as
    long as the object, one `propagate` call, and the stacks returned are
    overwritten by the next batch.
    """

    def __init__(self, dim: int, steps: int, terms: tuple | None = None, family: _Family | None = None):
        self.family, self._steps, self._f = family, steps, None
        # the node times, control values and affine coefficients of whole
        # batches are evaluated a chunk at a time: a bounded array however
        # long the run
        self._chunk = steps * max(1, _BLOCK_ENTRIES // 3 // steps)
        if terms is None:
            self.index = [np.arange(dim)[None]]
        else:
            H0, H1, self._f = terms
            pattern = (H0 != 0) | (H1 != 0)
            self.index = _invariant_blocks(pattern | pattern.T)
            M = np.stack((H0, H1, H1 @ H0 - H0 @ H1)).astype(complex).reshape(3, -1)
            self._terms = [M[:, (idx[:, :, None] * dim + idx[:, None, :]).ravel()] for idx in self.index]
        self._buffers = [np.empty(10 * steps * idx.size * idx.shape[1], dtype=complex) for idx in self.index]

    def coefficients(self, f: np.ndarray, alpha: complex, gamma: float) -> np.ndarray:
        """Weights of H0, H1 and [H1, H0] in each step's Omega; f stacks each step's two node values of f."""
        # h_1 + h_2 = 2 H0 + (f_1 + f_2) H1 and [h_2, h_1] = (f_2 - f_1) [H1, H0]
        f1, f2 = np.reshape(f, (-1, 2)).T
        return np.stack((np.full(f1.shape, 2.0 * alpha), alpha * (f1 + f2), gamma * (f2 - f1)), axis=1)

    def affine(self, coef: np.ndarray) -> list:
        """As `__call__` for the Omegas given by (k, 3) `coefficients`."""
        k = coef.shape[0]
        stacks = []
        for idx, buf, M in zip(self.index, self._buffers, self._terms):
            c, b = idx.shape
            work = buf[: 10 * k * c * b * b].reshape(10, k * c, b, b)
            np.matmul(coef, M, out=work[1].reshape(k, -1))
            stacks.append(_expm_taylor(work).reshape(k, c, b, b))
        return stacks

    def __call__(self, A: np.ndarray, alpha: complex, gamma: float) -> list:
        """exp(alpha (A_1 + A_2) + gamma [A_2, A_1]) per step; A stacks each step's two nodes.

        Returns the (k, 1, d, d) stack of the one dense block.
        """
        k, d = A.shape[0] // 2, A.shape[-1]
        work = self._buffers[0][: 10 * k * d * d].reshape(10, k, d, d)
        work[5:7].reshape(2 * k, d, d)[:] = A  # the node generators, as complex
        A1, A2 = work[5:7].reshape(k, 2, d, d).transpose(1, 0, 2, 3)
        omega, C, T = work[1:4]
        np.add(A1, A2, out=omega)
        omega *= alpha
        np.matmul(A2, A1, out=C)
        np.matmul(A1, A2, out=T)
        C -= T
        C *= gamma
        omega += C
        return [_expm_taylor(work).reshape(k, 1, d, d)]

    def run(self, lane: _Lane, n: int) -> np.ndarray:
        """U at the checkpoints of a run of n steps of the lane, made batch by batch.

        U is held as its rows in each group, U[index[g]]: a step moves only
        the rows of its own blocks, so each group's rows advance by one
        stacked product per step, and dense U is assembled only at the
        checkpoints.
        """
        family, protocol, steps = self.family, lane.protocol, self._steps
        t0, dt = lane.t0, (lane.t1 - lane.t0) / n
        # alpha and gamma of Omega, with -i/hbar folded in
        alpha, gamma = -0.5j * dt / family.hbar, -_COMMUTATOR * dt * dt / (family.hbar * family.hbar)
        rows = [lane.X0[idx] for idx in self.index]
        at = np.empty((len(_marks(n)), *lane.X0.shape), dtype=complex)
        mark = 0
        for head in range(0, n, self._chunk):
            tail = min(head + self._chunk, n)
            ts = t0 + (np.arange(head, tail)[:, None] + _NODES) * dt
            v = protocol.value(ts)
            if self._f is not None:
                coef = self.coefficients(family.refuse_non_finite(self._f(v), v), alpha, gamma)
            for first in range(head, tail, steps):
                last = min(first + steps, n)
                here = slice(first - head, last - head)
                if self._f is not None:
                    E = self.affine(coef[here])
                else:
                    E = self(family.generators(v[here].ravel(), lambda: protocol.rate(ts[here].ravel())),
                             alpha, gamma)
                ends, marks, _ = _pieces(n, first, last)
                for j, (start, end) in enumerate(zip((0, *ends), ends)):
                    for g, Eg in enumerate(E):  # the groups' rows move independently
                        R = rows[g]
                        for Ek in Eg[start:end]:
                            R = Ek @ R
                        rows[g] = R
                    if j < marks:
                        for idx, R in zip(self.index, rows):
                            at[mark, idx.ravel()] = R.reshape(idx.size, -1)
                        mark += 1
        return at


def _each(items: list, fn: Callable, stop: bool = False) -> list:
    """fn(items), one outcome per item; where that raises, fn([item]) of each item alone.

    fn is a stacked stage that treats its items independently, so each item
    gets what it gets alone.  An item that raises alone has its exception
    as its outcome, and with stop the outcomes end at the first such item.
    """
    try:
        return fn(items)
    except Exception as exc:
        if len(items) == 1:
            return [exc]
    outcomes = []
    for item in items:
        try:
            outcomes.extend(fn([item]))
        except Exception as exc:
            outcomes.append(exc)
            if stop:
                break
    return outcomes


def _hermitian_frame(model) -> Callable:
    """The model's hermitian_frame; ValueError when it has none."""
    frame = getattr(model, "hermitian_frame", None)
    if frame is None:
        raise ValueError("model has no hermitian frame to precondition into")
    return frame


def _check_terms(h_of, terms: tuple, edges: np.ndarray, name: str) -> None:
    """Refuse terms (H0, H1, f) that miss the family h_of at the window edges.

    The affine path never calls the family, so a model that overrides the
    family but not its terms would silently integrate the terms.
    """
    H0, H1, f = terms
    H = np.asarray(h_of(edges))
    miss = np.linalg.norm(H - (H0 + f(edges)[:, None, None] * H1), axis=(1, 2))
    scale = np.maximum(1.0, np.linalg.norm(H, axis=(1, 2)))
    if not np.all(miss <= 1e-12 * scale):
        raise ValueError(
            f"{name}() differs from {name}_terms() by {float(np.max(miss)):.3e} at the "
            f"window edges; a model that overrides {name} must override {name}_terms too"
        )


def _min_eigenvalue(g: np.ndarray):
    """Smallest eigenvalue of the hermitian part of g, or of each matrix in a stack."""
    return np.linalg.eigvalsh(0.5 * (g + np.swapaxes(g.conj(), -1, -2))).min(axis=-1)


def _moving_gauge(model, v: np.ndarray, rate: np.ndarray, hbar: float) -> np.ndarray:
    """Gauge terms of a moving metric at the control values v, which change at `rate`."""
    dg = model.metric_rate(v, rate)
    ginv = model.metric_inverse(v)
    return _gauge(_mul2(ginv, dg) if model.dimension == 2 else ginv @ dg, hbar)


class _Family(NamedTuple):
    """The family a propagation integrates, as the passes read it at the Gauss nodes.

    h_of is the model's hamiltonian, or its hermitian frame when frame is
    set; moving says that the model's metric moves, so that the family
    takes a gauge term.
    """

    h_of: Callable
    model: object
    hbar: float
    moving: bool
    frame: bool

    def refuse_non_finite(self, values: np.ndarray, v: np.ndarray) -> np.ndarray:
        """values, one row per node value in v; SingularMetricError names the first node of a non-finite row."""
        if not np.isfinite(values).all():
            v = np.ravel(v)
            bad = v[~np.isfinite(values).reshape(v.size, -1).all(axis=1)][0]
            why = "; a hermitian frame exists only where the metric is positive definite" if self.frame else ""
            raise SingularMetricError(f"the integrated family is not finite at control value {bad:.6g}{why}")
        return values

    def generators(self, v: np.ndarray, rate: Callable) -> np.ndarray:
        """The family at the node values v, plus a moving metric's gauge term, whose rates rate() gives.

        Between the metric scan's points a frame may not exist, and a family
        may not be finite anywhere: a node where the sum is not finite is
        refused.
        """
        A = self.h_of(v)
        if self.moving:
            A = A + _moving_gauge(self.model, v, rate(), self.hbar)
        return self.refuse_non_finite(A, v)


def _scan_times(t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """np.linspace(t0[i], t1[i], 1025) as row i, bit for bit: the metric scan's times of each window."""
    y, delta = np.arange(1025.0), t1 - t0
    step = delta / 1024
    ts = y * step[:, None]
    zero = step == 0  # a subnormal window, which linspace scales by delta instead
    ts[zero] = (y / 1024) * delta[zero, None]
    ts += t0[:, None]
    ts[:, -1] = t1
    return ts


def _scan_positive_definite(model, windows: list, tol: Tolerances) -> list:
    """Refuse to integrate a moving metric into a region where it degenerates: one outcome per window.

    Each (protocol, t0, t1) window is scanned at 1025 evenly spaced times,
    all windows' control values in one call of the model's
    metric_min_eigenvalue, or else of its metric; a window's outcome is
    None, or the SingularMetricError naming its first time where the
    metric's least eigenvalue is at most metric_min_eig.  The metric is
    scanned in its hermitian frame as well, where the frame would
    otherwise be evaluated outside its domain.
    """
    protocols, t0, t1 = zip(*windows)
    t0, t1 = np.array(t0), np.array(t1)
    v = _scan_times(t0, t1)
    for row, protocol in zip(v, protocols):  # each window's times, overwritten by its control values
        row[:] = protocol.value(row)
    fn = getattr(model, "metric_min_eigenvalue", None)
    m = (np.asarray(fn(v.ravel())) if fn is not None else _min_eigenvalue(model.metric(v.ravel()))).reshape(v.shape)
    bad = m <= tol.metric_min_eig
    first = bad.argmax(axis=1)
    return [
        SingularMetricError(
            f"metric loses positive-definiteness at t = {_scan_times(t0[k : k + 1], t1[k : k + 1])[0, i]:.6g} "
            f"(min eigenvalue {m[k, i]:.3e}); cannot propagate through"
        ) if bad[k, i] else None
        for k, i in enumerate(first.tolist())
    ]


@dataclass(frozen=True, eq=False)
class _Lane:
    """One propagation among the lanes of `_propagate_lanes`.

    The window [t0, t1], the protocol, the initial columns X0 with their
    metric Gram matrix M0, the metric at the window edges, the unitarity
    gate and the lane's doubling ladder (`_ladder`).  Lanes compare by
    identity, as `_by_lane` groups them.
    """

    protocol: Protocol
    t0: float
    t1: float
    X0: np.ndarray
    M0: np.ndarray
    g_start: np.ndarray
    g_end: np.ndarray
    gate: float
    ladder: Generator


def _ladder(n: int, max_steps: int, entry_tol: float, gate: float):
    """The step doubling of one lane, as a generator.

    It yields the step counts of the runs it needs next, (n, 2 n) first
    when 2 n <= max_steps and then one at a time, and is sent one (U,
    checkpoints, seconds) per count, U None where the run overflowed.  It records each
    run as a Rung against the run before it and returns (U, checkpoints,
    n, entry change, rungs) of the accepted run, or raises
    NotConvergedError.
    """
    rungs = []
    last = [None]  # U of the run recorded last

    def runs(ns: tuple):
        results = yield ns
        for m, (U, checkpoints, seconds) in zip(ns, results):
            change = worst = math.inf
            if U is not None:
                worst = max(r for _, r in checkpoints)
                if last[0] is not None:
                    change = float(np.max(np.abs(U - last[0])))
            rungs.append(Rung(m, change, worst, seconds))
            last[0] = U
        return [result[:2] for result in results]

    ahead = yield from runs((n, 2 * n) if 2 * n <= max_steps else (n,))
    U_prev = ahead.pop(0)[0]
    change = math.inf
    changes = []  # entry changes of the doublings since U last overflowed
    gate_misses = 0
    while True:
        if 2 * n > max_steps:
            raise NotConvergedError(
                f"step doubling did not converge by {max_steps} steps "
                f"(last entry change {change:.3e})"
            )
        n *= 2
        U, checkpoints = ahead.pop() if ahead else (yield from runs((n,)))[0]
        entry_ok = False
        if U is not None and U_prev is not None:
            change = rungs[-1].entry_change
            changes.append(change)
            scale = max(1.0, float(np.max(np.abs(U))))
            entry_ok = change <= entry_tol * scale
        else:
            changes = []
        if entry_ok:
            worst = rungs[-1].worst_checkpoint
            if worst <= gate:
                return U, checkpoints, n, change, tuple(rungs)
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


def _by_lane(pairs: list, fn: Callable) -> np.ndarray:
    """fn(lane, t) for each (lane, t) in pairs, one call per stretch of one lane, concatenated."""
    return np.concatenate([fn(lane, np.concatenate([t for _, t in group]))
                           for lane, group in itertools.groupby(pairs, key=lambda pair: pair[0])])


@functools.lru_cache(maxsize=1024)
def _pieces(n: int, first: int, last: int) -> tuple:
    """(ends, marks, lead) of the steps first..last of a run of n steps.

    The pieces end at the checkpoints and at `last`, counted from `first`;
    the first `marks` of them end at a checkpoint.  A batch that starts
    between two checkpoints leads with a short piece of `lead` steps.
    Cached: every lane at one rung asks the same.
    """
    cuts = _marks(n).tolist()
    inside = cuts[bisect.bisect_right(cuts, first) : bisect.bisect_right(cuts, last)]
    ends = tuple(k - first for k in sorted({*inside, last}))
    return ends, len(inside), ends[0] if len(ends) > 1 and ends[0] < _stride(n) else 0


def _two_level_pass(runs: list, family: _Family, block: int) -> list:
    """U at the checkpoints of each run (lane, n) at two levels, one (marks, 2, k) stack per run.

    Each run is cut at every `block` of its steps, and the pieces fill
    batches of at most `block` steps, in order of step count.  A batch
    takes one node-time array, one `_Family.generators` call, one
    commutator and one `_expm2` call over all of its steps, each step with
    its own run's dt and its own lane's protocol; the node generators are
    stored entry-major, as (node, 2, 2, step) rows, and the helpers get
    (steps, 2, 2) views of them.  Consecutive pieces of
    equal shape share their product trees and advance their U as one
    stacked product per checkpoint piece; everything is elementwise or per
    matrix, so each run comes out as if alone.
    """
    # the runs of one step count next to each other, so that their pieces line up
    order = sorted(range(len(runs)), key=lambda r: runs[r][1])
    segments = [(r, first, min(first + block, runs[r][1])) for r in order
                for first in range(0, runs[r][1], block)]
    batches, size = [], block
    for segment in segments:
        k = segment[2] - segment[1]
        if size + k > block:
            batches.append([])
            size = 0
        batches[-1].append(segment)
        size += k
    U = [lane.X0 for lane, _ in runs]
    at = [[] for _ in runs]
    for batch in batches:
        lengths = [last - first for _, first, last in batch]
        dt = np.repeat([(runs[r][0].t1 - runs[r][0].t0) / runs[r][1] for r, _, _ in batch], lengths)
        t0 = np.repeat([runs[r][0].t0 for r, _, _ in batch], lengths)
        steps = np.concatenate([np.arange(first, last) for _, first, last in batch])
        ts = np.empty((len(dt), 2))  # the node times by step, computed as one row per node
        np.add(t0, (steps + _NODES[:, None]) * dt, out=ts.T)
        edges = np.cumsum([0, *lengths])
        spans = [(runs[r][0], ts[a:b]) for (r, _, _), a, b in zip(batch, edges, edges[1:])]
        v = _by_lane(spans, lambda lane, t: lane.protocol.value(t)).ravel()
        A = family.generators(v, lambda: _by_lane(spans, lambda lane, t: lane.protocol.rate(t)).ravel())
        rows = np.empty((2, 2, 2, len(dt)), dtype=complex)  # (node, i, j, step): one row per entry
        np.multiply(-1j / family.hbar, A.reshape(-1, 2, 2, 2).transpose(1, 2, 3, 0), out=rows)
        A1, A2 = rows.transpose(0, 3, 1, 2)
        dt = dt[:, None, None]
        omega = (0.5 * dt) * (A1 + A2) + (_COMMUTATOR * dt * dt) * (_mul2(A2, A1) - _mul2(A1, A2))
        E = _expm2(omega)

        def shape(item):
            (r, first, last), _ = item
            return (last - first, _stride(runs[r][1]), *_pieces(runs[r][1], first, last)[1:], U[r].shape[1])

        for (k, every, marks, lead, _), group in itertools.groupby(zip(batch, edges), key=shape):
            group = [(r, a) for (r, _, _), a in group]
            Eg = E[group[0][1] : group[0][1] + len(group) * k].reshape(len(group), k, 2, 2)
            parts = (Eg[:, :lead], Eg[:, lead:]) if lead else (Eg,)
            P = np.concatenate([_piece_products(part, every) for part in parts], axis=1)
            X = np.stack([U[r] for r, _ in group])
            marked = []
            for j in range(P.shape[1]):
                X = P[:, j] @ X
                if j < marks:
                    marked.append(X)
            for g, (r, _) in enumerate(group):
                U[r] = X[g]
            if marks:
                marked = np.stack(marked, axis=1)
                for g, (r, _) in enumerate(group):
                    at[r].append(marked[g])
    return [np.concatenate(a) for a in at]


def _checkpoint_results(runs: list, stacks: list, family: _Family) -> list:
    """(U, checkpoints) of each run (lane, n), given its stack of U at the checkpoints.

    Coarse non-hermitian runs can overflow; such a run gives U None and no
    checkpoints, so the doubling ladder just keeps refining.  The residuals
    of the finite runs with k columns take one metric evaluation and one
    `unitarity_residual` call, each lane's M0 repeated once per checkpoint.
    """
    results = [(None, ())] * len(runs)
    by_columns = {}
    for j, stack in enumerate(stacks):
        if np.isfinite(stack).all():
            by_columns.setdefault(stack.shape[-1], []).append(j)
    for kept in by_columns.values():
        lanes = [runs[j][0] for j in kept]
        times = [lane.t0 + _marks(n) * ((lane.t1 - lane.t0) / n) for lane, n in (runs[j] for j in kept)]
        counts = [len(t) for t in times]
        M0 = np.repeat(np.stack([lane.M0 for lane in lanes]), counts, axis=0)
        if family.moving:
            gt = family.model.metric(_by_lane(list(zip(lanes, times)), lambda lane, t: lane.protocol.value(t)))
        else:
            gt = np.repeat(np.stack([lane.g_start for lane in lanes]), counts, axis=0)
        residuals = iter(unitarity_residual(np.concatenate([stacks[j] for j in kept]), M0, gt).tolist())
        for j, tj in zip(kept, times):  # the last checkpoint is the last step; a copy keeps no stack alive
            results[j] = stacks[j][-1].copy(), tuple(zip(tj.tolist(), itertools.islice(residuals, len(tj))))
    return results


def _propagate_lanes(
    model,
    protocols: Sequence[Protocol],
    initials: Sequence,
    hbar: float = 1.0,
    steps: int | None = None,
    *,
    tol: Tolerances | None = None,
    entry_tol: float | None = None,
    max_steps: int = MAX_STEPS,
    gauge_precondition: bool = False,
    windows: Sequence | None = None,
    unitarity_gate: float | None = None,
) -> list:
    """`propagate` of one model for each protocol and initial condition, as lanes.

    Lane i is propagate(model, protocols[i], hbar, steps, ...,
    initial=initials[i], t0=windows[i][0], t1=windows[i][1]) bit for bit,
    and the list returned holds its PropagationResult, or the exception
    that call raises, at index i.  An hbar or a step seed that propagate
    refuses raises here for all lanes.  Each lane keeps its own window,
    initial columns, metric scan, step sizes, checkpoints and ladder
    (`_ladder`).  Every lane opens first, the metric scans of all lanes in
    one stack, and then all of them climb together: every pass serves the lanes still climbing, at the same
    rung.  At two levels they share each batch's evaluations
    (`_two_level_pass`), which cuts a pass into batches of at most
    _block_steps(2) steps however many lanes it serves, and the pass's
    residual call; each run is given the pass's wall time in proportion to
    its steps.  Above two levels each lane of a pass runs alone
    (`_BlockExponentials.run`): the Taylor kernel picks one degree per
    batch, so a shared batch would change the bits.  A scan or a pass that
    raises is run again lane by lane (`_each`), so only the lanes that fail
    alone take the exception.

    A lane's metric is decided once, when it opens.  In the hermitian frame
    (gauge_precondition) it is the identity; a static metric is the model's
    at the protocol's start, refused unless positive definite; a moving one
    is the model's at t0 and t1, and the only one with a gauge term.  The
    metric of a moving model is scanned over the window in its frame too,
    where the frame exists only while it is positive definite.
    """
    tol = tol or DEFAULT
    entry_tol = tol.propagation if entry_tol is None else float(entry_tol)
    hbar = float(hbar)
    if not 0.0 < hbar < math.inf:
        raise ValueError(f"hbar must be finite and positive, got {hbar!r}")
    n = max(int(steps) if steps else 128, 2)
    if n > max_steps:
        raise ValueError(f"the step seed {n} exceeds max_steps {max_steps}")

    family_name = "hermitian_frame" if gauge_precondition else "hamiltonian"
    try:
        h_of = _hermitian_frame(model) if gauge_precondition else model.hamiltonian
    except ValueError as exc:
        h_of, frame_error = None, exc
    terms_of = getattr(model, f"{family_name}_terms", None)
    dim = model.dimension
    static = getattr(model, "metric_is_static", False)
    moving = not (gauge_precondition or static)  # the integrated family has a gauge term
    terms = terms_of() if dim > 2 and not moving and terms_of is not None and h_of is not None else None
    block = _block_steps(dim)

    def span_of(protocol, window) -> tuple:
        """(protocol, t0, t1) of a lane, its checks before the metric scan passed."""
        t0, t1 = window
        t0 = protocol.t_start if t0 is None else float(t0)
        t1 = protocol.t_end if t1 is None else float(t1)
        if not t1 > t0:
            raise ValueError("t1 must exceed t0")
        if h_of is None:
            raise frame_error
        return protocol, t0, t1

    def open_lane(protocol, t0, t1, initial, scanned) -> _Lane:
        if scanned is not None:
            raise scanned
        if gauge_precondition:
            g_start = g_end = np.eye(dim, dtype=complex)
        elif moving:
            g_start, g_end = model.metric(protocol.value(np.array([t0, t1])))
        else:
            g_start = g_end = model.metric(protocol.value(protocol.t_start))
            m = float(_min_eigenvalue(g_start))
            if m <= tol.metric_min_eig:
                raise SingularMetricError(f"static metric is not positive definite (min eigenvalue {m:.3e})")
        X0 = np.eye(dim, dtype=complex) if initial is None else np.asarray(initial, dtype=complex)
        if X0.ndim != 2 or X0.shape[0] != dim:
            raise ValueError(f"initial condition must be ({dim} x k), got {X0.shape}")
        if X0.shape[1] == 0 or not np.isfinite(X0).all():
            raise ValueError("initial condition must be finite and have at least one column")
        if terms is not None:
            _check_terms(h_of, terms, protocol.value(np.array([t0, t1])), family_name)
        gate = unitarity_gate
        if gate is None:
            gate = tol.propagation * max(1.0, float(np.linalg.norm(g_start)))
        return _Lane(protocol, t0, t1, X0, X0.conj().T @ g_start @ X0, g_start, g_end, gate,
                     _ladder(n, max_steps, entry_tol, gate))

    family = _Family(h_of, model, hbar, moving, gauge_precondition)
    if dim == 2:
        def run_pass(runs):
            return _two_level_pass(runs, family, block)
    else:
        blocks = _BlockExponentials(dim, block, terms, family)

        def run_pass(runs):
            return [blocks.run(lane, n) for lane, n in runs]

    def one_pass(wants: list) -> list:
        """One pass over the runs that each (lane index, step counts) in wants asks for.

        Gives each lane its (U, checkpoints, seconds) per run.
        """
        runs = [(lanes[i], m) for i, ns in wants for m in ns]
        clock = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):
            results = iter(_checkpoint_results(runs, run_pass(runs), family))
        per_step = (time.perf_counter() - clock) / sum(m for _, m in runs)
        return [[(*next(results), per_step * m) for m in ns] for _, ns in wants]

    args = list(zip(protocols, initials, windows or [(None, None)] * len(protocols), strict=True))
    outcomes, spans, lanes = [None] * len(args), {}, {}
    for i, (protocol, _, span) in enumerate(args):
        try:
            spans[i] = span_of(protocol, span)
        except Exception as exc:
            outcomes[i] = exc
    scans = [None] * len(spans)
    if spans and not static:
        scans = _each(list(spans.values()), lambda windows: _scan_positive_definite(model, windows, tol))
    for (i, span), scanned in zip(spans.items(), scans):
        try:
            lanes[i] = open_lane(*span, args[i][1], scanned)
        except Exception as exc:
            outcomes[i] = exc
    wants = {i: next(lane.ladder) for i, lane in lanes.items()}
    while wants:
        for i, got in zip(list(wants), _each(list(wants.items()), one_pass)):
            try:
                if isinstance(got, Exception):
                    raise got
                wants[i] = lanes[i].ladder.send(got)
                continue
            except StopIteration as stop:
                U, checkpoints, accepted, change, rungs = stop.value
                lane = lanes[i]
                outcomes[i] = PropagationResult(
                    U=U,
                    checkpoints=checkpoints,
                    steps_used=accepted,
                    step_size=(lane.t1 - lane.t0) / accepted,
                    g_start=lane.g_start,
                    g_end=lane.g_end,
                    entry_change=change,
                    unitarity_gate=lane.gate,
                    rungs=rungs,
                    initial=lane.X0,
                )
            except Exception as exc:
                outcomes[i] = exc
            del wants[i]
    return outcomes


def propagate(
    model,
    protocol: Protocol,
    hbar: float = 1.0,
    steps: int | None = None,
    *,
    tol: Tolerances | None = None,
    entry_tol: float | None = None,
    max_steps: int = MAX_STEPS,
    initial: np.ndarray | None = None,
    gauge_precondition: bool = False,
    t0: float | None = None,
    t1: float | None = None,
    unitarity_gate: float | None = None,
) -> PropagationResult:
    """Integrate the metric-corrected Schrodinger equation for U(t1, t0).

    U is integrated over [t0, t1], by default the protocol's window, from
    the identity or from the (dim x k) columns of `initial`, which evolve
    alone.  With gauge_precondition the model's hermitian frame is
    integrated instead, with the identity metric and no gauge term; a
    moving metric is still scanned over the window, since its frame exists
    only where it is positive definite.  The scheme is the module
    docstring's; this is the one-lane case of `_propagate_lanes`.

    A run of n steps (steps, by default 128) is checked at about 12 evenly
    spaced steps and its last.  n doubles until no entry of U moves by more
    than entry_tol (by default tol.propagation) times max(1, max |U|) under
    halving the step and the worst checkpoint residual
    ||U^dagger g_t U - M0||_F, M0 the initial columns' Gram matrix in g_0,
    is within unitarity_gate (by default tol.propagation *
    max(1, ||g_0||_F)), and the finer run is returned.

    Raises ValueError for an hbar that is not finite and positive, a step
    seed above max_steps, t1 <= t0, an initial condition that is not
    (dim x k) with k >= 1 and finite, a model without the frame asked for,
    or affine terms (hamiltonian_terms, hermitian_frame_terms) that miss
    their family at the window edges; ProtocolRangeError for a window
    outside the protocol's.  Raises SingularMetricError for a static metric
    that is not positive definite, a moving one that degenerates inside the
    window, or a family that is not finite at a step's node; and
    NotConvergedError when max_steps is hit without acceptance, when the
    entry test passed on two consecutive doublings while the worst
    checkpoint still misses the gate, or when the entry change failed to
    decrease on two consecutive doublings (entry_tol below the rounding
    floor).
    """
    (outcome,) = _propagate_lanes(
        model,
        [protocol],
        [initial],
        hbar,
        steps,
        tol=tol,
        entry_tol=entry_tol,
        max_steps=max_steps,
        gauge_precondition=gauge_precondition,
        windows=[(t0, t1)],
        unitarity_gate=unitarity_gate,
    )
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
