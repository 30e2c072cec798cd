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
all d levels.  A batch holds more steps the smaller the dimension, so a
two-level run usually fits in one batch.  Two-level runs
are array arithmetic throughout: 2x2 products are written out entrywise
(`_mul2`), and the steps between two checkpoints are multiplied by a
pairwise product tree before they act on U once, the pieces of a batch
together as the rows of one identity-padded array (`_piece_products`).
The first two runs of the step-doubling ladder, n and 2n steps, share one
batch when their 3n steps fit it: one evaluation of the family, the gauge
term and the exponential, each step with its own run's dt, and one
residual call for both runs' checkpoints.  Larger dimensions hold U
as the rows of each invariant block and advance them step by step, one
stacked block product per group of equal-sized blocks; no exponential
larger than a block is formed, and dense U is assembled only at the
checkpoints.
The checkpoint residuals of a run are evaluated in one batched call.  The gauge
term G_t keeps U metric-unitary, U† g_t U = g_0, when the metric family g_t
moves with the drive; it vanishes for a static metric.  In the hermitian
frame (identity metric) i*Omega is hermitian, so every step is unitary to
rounding.
"""

from __future__ import annotations

import bisect
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

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

        Times whose min and max lie in the window come back as they are.
        """
        lo, hi = self.t_start, self.t_end
        t = np.asarray(t, dtype=float)
        if t.size and lo <= t.min() and t.max() <= hi:
            return t
        slack = 1e-9 * (hi - lo)
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
    residual (inf where U overflowed); the wall time of the run.  Where two
    runs share one pass (the first two at two levels), each is given the
    pass's wall time in proportion to its steps, so a third and two thirds.
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
    counts.
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
    """
    Um = np.asarray(U, dtype=complex)
    G0 = g0.g if isinstance(g0, MetricOperator) else np.asarray(g0, dtype=complex)
    Gt = gt.g if isinstance(gt, MetricOperator) else np.asarray(gt, dtype=complex)
    defect = np.linalg.norm(np.swapaxes(Um.conj(), -1, -2) @ Gt @ Um - G0, axis=(-2, -1))
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


def _piece_products(E: np.ndarray, every: int) -> np.ndarray:
    """Products of the consecutive pieces of `every` steps of a (k, 2, 2) stack.

    The last piece may be shorter.  Each piece is reduced by a pairwise
    tree, the later factor on the left, all pieces at once: they are the
    rows of one entry-major (2, 2, pieces, 2^L) array padded with
    identities, 2^L >= every, which L levels halve.  I @ X = X exactly for
    finite X, so the padding pairs as a tree that carries each level's odd
    factor up unpaired.  Returns a (pieces, 2, 2) stack.
    """
    k = E.shape[0]
    pieces = -(-k // every)
    full = (pieces - 1) * every
    S = np.zeros((2, 2, pieces, 1 << (every - 1).bit_length()), dtype=complex)
    S[0, 0] = S[1, 1] = 1.0
    entries = E.transpose(1, 2, 0)
    S[..., :-1, :every] = entries[..., :full].reshape(2, 2, pieces - 1, every)
    S[..., -1, : k - full] = entries[..., full:]
    while S.shape[-1] > 1:
        A, B = S[..., 1::2], S[..., 0::2]
        S = A[:, :1] * B[:1] + A[:, 1:] * B[1:]  # entry (i, j): A_i0 B_0j + A_i1 B_1j
    return np.ascontiguousarray(S[..., 0].transpose(2, 0, 1))


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
    """exp(Omega) of batches of d > 2 Magnus steps, invariant block by block.

    The partition is fixed when the object is built.  `index` holds one
    (c, b) array per group of equal-sized blocks, each row the sorted levels
    of one of its c blocks of b levels, and a batch of k steps comes back as
    one (k, c, b, b) stack per group.  Built from an affine family's terms
    (H0, H1, f), the blocks are the connected components of the symmetrised
    nonzero pattern of H0 | H1, and E is formed on the blocks only: the
    exponential of a block-diagonal matrix is block diagonal, and each step
    moves only the rows of U in its own block.  `coefficients` turns the
    node control values of any number of steps into (k, 3) weights, and
    `affine` makes each Omega one combination of H0, H1 and [H1, H0], taken
    on the blocks once.  Without terms all d levels are one dense block, and
    `__call__` builds each Omega from the batch's node generators.  The
    buffers live as long as the object, one `propagate` call, and the stacks
    returned are overwritten by the next batch.
    """

    def __init__(self, dim: int, steps: int, terms: tuple | None = None):
        if terms is None:
            self.index = [np.arange(dim)[None]]
        else:
            H0, H1, self._f = terms
            pattern = (H0 != 0) | (H1 != 0)
            self.index = _invariant_blocks(pattern | pattern.T)
            M = np.stack((H0, H1, H1 @ H0 - H0 @ H1)).astype(complex).reshape(3, -1)
            self._terms = [M[:, (idx[:, :, None] * dim + idx[:, None, :]).ravel()] for idx in self.index]
        self._buffers = [np.empty(10 * steps * idx.size * idx.shape[1], dtype=complex) for idx in self.index]

    def coefficients(self, v: np.ndarray, alpha: complex, gamma: float) -> np.ndarray:
        """Weights of H0, H1 and [H1, H0] in each step's Omega; v stacks each step's two node values."""
        # h_1 + h_2 = 2 H0 + (f_1 + f_2) H1 and [h_2, h_1] = (f_2 - f_1) [H1, H0]
        f1, f2 = np.reshape(self._f(v), (-1, 2)).T
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


def _join_rows(rows: list, index: list, dim: int) -> np.ndarray:
    """U from its row blocks: rows[g] is (c, b, k), holding the rows index[g] of U."""
    U = np.empty((dim, rows[0].shape[-1]), dtype=complex)
    for idx, R in zip(index, rows):
        U[idx.ravel()] = R.reshape(idx.size, -1)
    return U


class _PairChain:
    """A two-level U advanced by batches of (k, 2, 2) step exponentials.

    Checkpoints fall every `every` steps (and at the last step), so a batch
    is pieces of `every` steps, except a short first piece where the batch
    starts between two checkpoints and a short last one.
    """

    def __init__(self, U: np.ndarray, every: int):
        self._U, self._every = U, every

    def advance(self, E: np.ndarray, ends: list, marks: int) -> list:
        """Apply the batch E, cut into pieces that end at `ends`, one product-tree product per piece.

        Returns U after each of the first `marks` pieces.
        """
        lead = ends[0] if len(ends) > 1 and ends[0] < self._every else 0
        parts = (E[:lead], E[lead:]) if lead else (E,)
        at = []
        for j, P in enumerate(itertools.chain.from_iterable(
                _piece_products(part, self._every) for part in parts)):
            self._U = P @ self._U
            if j < marks:
                at.append(self._U)
        return at


class _BlockRows:
    """A d > 2 U held as the row blocks rows[g] = U[index[g]] of a `_BlockExponentials` partition.

    A step moves only the rows of its own blocks, so each group's (c, b, k)
    rows advance by one stacked product per step, and dense U is assembled
    only where a checkpoint asks for it.
    """

    def __init__(self, U: np.ndarray, index: list):
        self._index, self._dim = index, U.shape[0]
        self._rows = [U[idx] for idx in index]

    def advance(self, E: list, ends: list, marks: int) -> list:
        """As `_PairChain.advance` for one (k, c, b, b) stack per group of `index`."""
        rows = self._rows
        at = []
        start = 0
        for j, end in enumerate(ends):
            for g, Eg in enumerate(E):  # the groups' rows move independently
                R = rows[g]
                for Ek in Eg[start:end]:
                    R = Ek @ R
                rows[g] = R
            start = end
            if j < marks:
                at.append(_join_rows(rows, self._index, self._dim))
        return at


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
    max_steps: int = MAX_STEPS,
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
    is integrated instead (identity metric, no gauge term).

    A run checks U at about 12 evenly spaced steps (every n // 12 steps, and
    the last).  At two levels the steps between two checkpoints are
    multiplied by a pairwise product tree of entrywise 2x2 products and
    advance U once; the trees of a batch's pieces run together, as rows
    padded with identities to a power of two.  There the ladder's first two
    runs, of n and 2n steps, are made in one pass when 2n <= max_steps and
    their 3n steps fit one batch: one call each to the protocol, the family,
    the gauge term and the exponential over all 3n steps, each step with its
    own run's dt, and one residual call over both runs' checkpoints.  Each
    run keeps its own product trees and U, so both come out as if run
    alone; above two levels the runs go one after the other.  Larger
    dimensions exponentiate each batch of steps block by block
    (_BlockExponentials) and hold U as the rows of each invariant block,
    which every step moves with one stacked product per group of
    equal-sized blocks; dense U is assembled at the checkpoints.
    Above two levels, a static metric and terms for the integrated family
    (hamiltonian_terms, or hermitian_frame_terms with gauge_precondition)
    assemble each batch's Omega from the terms on the blocks they leave,
    with the control values and coefficients of a chunk of batches
    evaluated at once; otherwise the family is evaluated at every Gauss
    node, the commutator multiplied out, and all d levels are one block.
    The terms are checked against the family at the two window edges, and
    a ValueError names the pair that disagrees.  A non-finite initial
    condition, or one without columns, raises ValueError before any step,
    and so do an hbar that is not finite and
    positive and a step seed (steps, or 128 when not given) above
    max_steps.  The checkpoint propagators of a run are checked for
    finiteness in one batched call, and those of a pass against the metric
    in one more.

    Raises SingularMetricError when the metric degenerates inside the window
    and NotConvergedError when max_steps is hit without acceptance, when
    the entry test has passed on two consecutive doublings while the worst
    checkpoint still misses the gate, or when the entry change has failed
    to decrease on two consecutive doublings (entry_tol below the rounding
    floor).
    """
    tol = tol or DEFAULT
    entry_tol = tol.propagation if entry_tol is None else float(entry_tol)
    hbar = float(hbar)
    if not 0.0 < hbar < math.inf:
        raise ValueError(f"hbar must be finite and positive, got {hbar!r}")
    n = max(int(steps) if steps else 128, 2)
    if n > max_steps:
        raise ValueError(f"the step seed {n} exceeds max_steps {max_steps}")
    t0 = protocol.t_start if t0 is None else float(t0)
    t1 = protocol.t_end if t1 is None else float(t1)
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")

    family_name = "hermitian_frame" if gauge_precondition else "hamiltonian"
    h_of = _hermitian_frame(model) if gauge_precondition else model.hamiltonian
    terms_of = getattr(model, f"{family_name}_terms", None)
    family = _MetricFamily(model, protocol, identity=gauge_precondition)
    _scan_positive_definite(family, t0, t1, tol)

    dim = model.dimension
    X0 = np.eye(dim, dtype=complex) if initial is None else np.asarray(initial, dtype=complex)
    if X0.ndim != 2 or X0.shape[0] != dim:
        raise ValueError(f"initial condition must be ({dim} x k), got {X0.shape}")
    if X0.shape[1] == 0 or not np.isfinite(X0).all():
        raise ValueError("initial condition must be finite and have at least one column")

    g_start, g_end = (family.g(t0),) * 2 if family.static else family.g(np.array([t0, t1]))
    M0 = X0.conj().T @ g_start @ X0
    gate = unitarity_gate
    if gate is None:
        gate = tol.propagation * max(1.0, float(np.linalg.norm(g_start)))

    block = _block_steps(dim)
    # the node times, control values and affine coefficients of whole
    # batches are evaluated a chunk at a time: a bounded array however long
    # the run
    chunk = block * max(1, _BLOCK_ENTRIES // 3 // block)
    affine = dim > 2 and family.static and terms_of is not None
    terms = None
    if affine:
        terms = terms_of()
        _check_terms(h_of, terms, protocol.value(np.array([t0, t1])), family_name)
    block_exponentials = None if dim == 2 else _BlockExponentials(dim, block, terms)

    def omega_scalars(dt: float) -> tuple:
        """(alpha, gamma) of Omega above two levels, with -i/hbar folded in."""
        return -0.5j * dt / hbar, -_COMMUTATOR * dt * dt / (hbar * hbar)

    def step_exponentials(ts: np.ndarray, v: np.ndarray, dt):
        """exp(Omega) of the steps whose Gauss nodes and control values are the rows of ts and v.

        A (k, 2, 2) stack at two levels, where dt may also be a (k, 1, 1)
        array of each step's own dt; otherwise a list of the one dense
        block's (k, 1, d, d) stack.
        """
        ts, v = ts.ravel(), v.ravel()
        A = h_of(v)
        G = family.gauge(ts, v, hbar)
        if G is not None:
            A = A + G
        if dim > 2:
            return block_exponentials(A, *omega_scalars(dt))
        A = (-1j / hbar) * A
        A1, A2 = A[0::2], A[1::2]
        omega = (0.5 * dt) * (A1 + A2) + (_COMMUTATOR * dt * dt) * (_mul2(A2, A1) - _mul2(A1, A2))
        return _expm2(omega)

    def run(n: int, marks: np.ndarray) -> list:
        """U after each checkpoint step (marks, from _marks(n)) of a run of n steps, made batch by batch."""
        dt = (t1 - t0) / n
        cuts = marks.tolist()
        at_mark = []
        chain = _PairChain(X0, _stride(n)) if dim == 2 else _BlockRows(X0, block_exponentials.index)
        for head in range(0, n, chunk):
            tail = min(head + chunk, n)
            ts = t0 + (np.arange(head, tail)[:, None] + _NODES) * dt
            v = protocol.value(ts)
            if affine:
                coef = block_exponentials.coefficients(v, *omega_scalars(dt))
            for first in range(head, tail, block):
                last = min(first + block, n)
                here = slice(first - head, last - head)
                if affine:
                    E = block_exponentials.affine(coef[here])
                else:
                    E = step_exponentials(ts[here], v[here], dt)
                # pieces end at the checkpoints and at the batch end, counted from its start
                inside = cuts[bisect.bisect_right(cuts, first) : bisect.bisect_right(cuts, last)]
                ends = [k - first for k in sorted({*inside, last})]
                at_mark.extend(chain.advance(E, ends, len(inside)))
        return at_mark

    def run_pair(n: int, marks: list) -> list:
        """run(n) and run(2 n) at two levels (marks of both), from one batch of their 3 n steps.

        The steps keep the dt of their own run, and each run its own
        product trees and U, so both come out as from `run`.
        """
        dt = np.repeat(((t1 - t0) / n, (t1 - t0) / (2 * n)), (n, 2 * n))
        ts = t0 + (np.concatenate((np.arange(n), np.arange(2 * n)))[:, None] + _NODES) * dt[:, None]
        E = step_exponentials(ts, protocol.value(ts), dt[:, None, None])
        at_marks = []
        for m, Em, at in zip((n, 2 * n), (E[:n], E[n:]), marks):
            cuts = at.tolist()
            at_marks.append(_PairChain(X0, _stride(m)).advance(Em, cuts, len(cuts)))
        return at_marks

    def runs(ns: tuple) -> list:
        """(U, checkpoints) of a run of n steps for each n in ns: one n, or (n, 2 n) at two levels.

        Coarse non-hermitian runs can overflow; such a run gives U None and
        no checkpoints, so the doubling loop just keeps refining.  The
        residuals of the finite runs take one metric evaluation and one
        `unitarity_residual` call.
        """
        marks = [_marks(m) for m in ns]
        with np.errstate(over="ignore", invalid="ignore"):
            at_marks = run_pair(ns[0], marks) if len(ns) == 2 else [run(ns[0], marks[0])]
        stacks = [np.stack(at) for at in at_marks]
        kept = [j for j, stack in enumerate(stacks) if np.isfinite(stack).all()]
        times = [t0 + marks[j] * ((t1 - t0) / ns[j]) for j in kept]
        results = [(None, ())] * len(ns)
        if kept:
            residuals = iter(unitarity_residual(np.concatenate([stacks[j] for j in kept]), M0,
                                                family.g(np.concatenate(times))).tolist())
            for j, tj in zip(kept, times):  # the last checkpoint is the last step
                results[j] = at_marks[j][-1], tuple(zip(tj.tolist(), itertools.islice(residuals, len(tj))))
        return results

    rungs = []

    def record(ns: tuple, U_prev) -> list:
        """runs(ns), each recorded as a Rung against the run before it (U_prev before the first).

        The runs of one call share its wall time in proportion to their steps.
        """
        clock = time.perf_counter()
        results = runs(ns)
        per_step = (time.perf_counter() - clock) / sum(ns)
        for n, (U, checkpoints) in zip(ns, results):
            change = worst = math.inf
            if U is not None:
                worst = max(r for _, r in checkpoints)
                if U_prev is not None:
                    change = float(np.max(np.abs(U - U_prev)))
            rungs.append(Rung(n, change, worst, per_step * n))
            U_prev = U
        return results

    # at two levels the ladder's first two rungs share one batch when they fit it
    pair = dim == 2 and 2 * n <= max_steps and 3 * n <= block
    ahead = record((n, 2 * n) if pair else (n,), None)
    U_prev = ahead.pop(0)[0]
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
        U, checkpoints = ahead.pop() if ahead else record((n,), U_prev)[0]
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
        entry_change=change,
        unitarity_gate=gate,
        rungs=tuple(rungs),
    )
