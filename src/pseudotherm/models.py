"""Concrete model builders.

Three systems expose the small surface that the propagator and the
work-statistics pipeline read:

    dimension            basis size
    hamiltonian(v)       matrix at control value v
    metric(v)            intertwining metric at v
    metric_is_static     True when the metric ignores the drive

The metric comes under one of two contracts.  A static metric
(metric_is_static True: the oscillator and the chain) declares metric(v)
alone; the propagator evaluates it once, at the window start, and adds no
gauge term.  A moving metric (the two-level system) also declares

    metric_inverse(v)
    metric_rate(v, dv)        d(metric)/dt given dv/dt
    metric_min_eigenvalue(v)  optional; else taken from metric(v)

which the propagator reads for the gauge term and its positive-definiteness
scan.

A model may also declare its hermitian frame, hermitian_frame(v) = S H S^-1
with S = metric(v)^(1/2), in closed form; the propagator and the two-time
measurement then integrate and measure in it with the identity metric.  In
the frame of a moving metric the generator gains the connection
(S' S^-1 - S^-1 S')/2, so a moving-metric model may declare a frame only
where that connection vanishes, as it does when S and its rate commute.
The frame exists only where the metric is positive definite; outside, its
entries are NaN.

hamiltonian, hermitian_frame and the metric methods also take a 1-D array
of control values and then return the stack of the scalar results, (k, d, d)
matrices or (k,) numbers, so the propagator can build a block of steps in
one call.

A family that is affine in a function of the control may declare its terms:
hamiltonian_terms() (and hermitian_frame_terms() for the frame) returns
(H0, H1, f) with hamiltonian(v) = H0 + f(v)[..., None, None] * H1.  The
propagator then builds every step from the fixed terms, without calling
the family.  The oscillator declares both and derives both families from
them, so a subclass that changes a family overrides its terms; the
propagator compares the two at the window edges and raises ValueError when
they disagree.

The two-level system drives an imaginary detuning, the oscillator drives
its trap frequency with a fixed imaginary momentum shift, and the
tight-binding chain is static (its control value is ignored).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg

__all__ = ["TwoLevel", "Oscillator", "HatanoNelson", "relaxation_time"]


def _two_by_two(shape, m00, m01, m10, m11) -> np.ndarray:
    """[[m00, m01], [m10, m11]] for entries of the given shape: (*shape, 2, 2)."""
    out = np.empty(shape + (2, 2), dtype=complex)
    out[..., 0, 0] = m00
    out[..., 0, 1] = m01
    out[..., 1, 0] = m10
    out[..., 1, 1] = m11
    return out


def _per_value(matrix: np.ndarray, v) -> np.ndarray:
    """A control-independent matrix: itself for scalar v, a read-only stack for an array."""
    return matrix if np.ndim(v) == 0 else np.broadcast_to(matrix, np.shape(v) + matrix.shape)


def _affine(terms, v) -> np.ndarray:
    """H0 + f(v) H1 for terms (H0, H1, f); a stack for an array of control values."""
    H0, H1, f = terms
    return H0 + f(v)[..., None, None] * H1


@dataclass(frozen=True)
class TwoLevel:
    """Two-state system with real coupling and imaginary detuning.

    H(v) = [[i v, coupling], [coupling, -i v]] in the (upper, lower) basis.
    Eigenvalues are +/- sqrt(coupling^2 - v^2): real for |v| < coupling,
    coalescing at |v| = coupling, conjugate-imaginary beyond.
    """

    coupling: float = 1.0

    dimension = 2
    metric_is_static = False

    def __post_init__(self):
        # the metric divides by the coupling
        if not (math.isfinite(self.coupling) and self.coupling != 0):
            raise ValueError("coupling must be finite and nonzero")

    def hamiltonian(self, v) -> np.ndarray:
        iv = 1j * np.asarray(v)
        return _two_by_two(iv.shape, iv, self.coupling, self.coupling, -iv)

    def eigenvalues_closed_form(self, v: float) -> np.ndarray:
        root = np.emath.sqrt(self.coupling**2 - v**2)
        return np.sort_complex(np.array([-root, root]))

    def metric(self, v) -> np.ndarray:
        mu = np.asarray(v) / self.coupling
        return _two_by_two(mu.shape, 2.0, -2j * mu, 2j * mu, 2.0)

    def metric_inverse(self, v) -> np.ndarray:
        mu = np.asarray(v) / self.coupling
        det = 2.0 * (1.0 - mu * mu)
        return _two_by_two(mu.shape, 1.0, 1j * mu, -1j * mu, 1.0) / det[..., None, None]

    def metric_rate(self, v, dv_dt) -> np.ndarray:
        s = np.asarray(dv_dt) / self.coupling
        return _two_by_two(np.broadcast_shapes(np.shape(v), s.shape), 0.0, -2j * s, 2j * s, 0.0)

    def metric_min_eigenvalue(self, v):
        # metric eigenvalues are 2 (1 +/- v/coupling)
        m = 2.0 * (1.0 - np.abs(v) / abs(self.coupling))
        return float(m) if np.ndim(m) == 0 else m

    def hermitian_frame(self, v) -> np.ndarray:
        """sqrt(coupling^2 - v^2) sigma_x (signed as the coupling): S H S^-1 for S = metric(v)^(1/2).

        S and its rate are both functions of sigma_y, so they commute and
        the frame has no connection.  NaN where |v| >= |coupling|, at and
        past the exceptional point, where the metric is not positive
        definite and no frame exists.
        """
        v = np.asarray(v, dtype=float)
        c = self.coupling
        r = np.copysign(np.sqrt(np.where(np.abs(v) < abs(c), c * c - v * v, np.nan)), c)
        return _two_by_two(v.shape, 0.0, r, r, 0.0)


@dataclass(frozen=True)
class Oscillator:
    """Harmonic trap with an imaginary momentum shift, in a truncated
    number basis of the reference frequency.

    hamiltonian(w) = (P - i shift)^2 / (2 mass) + mass w^2 X^2 / 2 built
    from the truncated X and P of frequency omega_ref.  The static metric
    exp(2 shift X) makes the gauge term vanish; hermitian_frame(w) is the
    shift-free image P^2/(2 mass) + mass w^2 X^2/2, unitarily equivalent
    in the untruncated limit.  Both are affine in mass w^2 / 2, and their
    terms are cached per instance.
    """

    omega_ref: float
    shift: float = 0.0
    n_basis: int = 40
    mass: float = 1.0

    metric_is_static = True
    is_truncated = True

    def __post_init__(self):
        if not all(map(math.isfinite, (self.omega_ref, self.shift, self.n_basis, self.mass))):
            raise ValueError("omega_ref, shift, n_basis and mass must be finite")
        if self.omega_ref <= 0 or self.mass <= 0:
            raise ValueError("omega_ref and mass must be positive")
        if self.n_basis < 8:
            raise ValueError("n_basis must be at least 8")

    @property
    def dimension(self) -> int:
        return self.n_basis

    @cached_property
    def _ladder(self) -> np.ndarray:
        n = self.n_basis
        a = np.zeros((n, n), dtype=complex)
        a[np.arange(n - 1), np.arange(1, n)] = np.sqrt(np.arange(1, n))
        return a

    @cached_property
    def position(self) -> np.ndarray:
        a = self._ladder
        return (a + a.conj().T) / np.sqrt(2.0 * self.mass * self.omega_ref)

    @cached_property
    def momentum(self) -> np.ndarray:
        a = self._ladder
        return 1j * np.sqrt(self.mass * self.omega_ref / 2.0) * (a.conj().T - a)

    @cached_property
    def _x_eig(self):
        vals, vecs = np.linalg.eigh(self.position)
        return vals, vecs

    @cached_property
    def _padded_squares(self):
        # Rayleigh-Ritz convention: square in a padded basis, then project.
        # Squaring the truncated factors instead corrupts the corner element
        # and plants a spurious low eigenvalue at the reference frequency.
        n = self.n_basis
        a = np.zeros((n + 2, n + 2), dtype=complex)
        a[np.arange(n + 1), np.arange(1, n + 2)] = np.sqrt(np.arange(1, n + 2))
        x = (a + a.conj().T) / np.sqrt(2.0 * self.mass * self.omega_ref)
        p = 1j * np.sqrt(self.mass * self.omega_ref / 2.0) * (a.conj().T - a)
        return (x @ x)[:n, :n], (p @ p)[:n, :n]

    @cached_property
    def _p_squared(self) -> np.ndarray:
        return self._padded_squares[1]

    @cached_property
    def _x_squared(self) -> np.ndarray:
        return self._padded_squares[0]

    def _trap(self, omega) -> np.ndarray:
        """m w^2 / 2, the coefficient of X^2 in both families."""
        return 0.5 * self.mass * np.asarray(omega) ** 2

    @cached_property
    def _kinetic(self) -> np.ndarray:
        return (
            self._p_squared
            - 2j * self.shift * self.momentum
            - self.shift**2 * np.eye(self.n_basis)
        ) / (2.0 * self.mass)

    @cached_property
    def _frame_kinetic(self) -> np.ndarray:
        return self._p_squared / (2.0 * self.mass)

    def hamiltonian_terms(self) -> tuple:
        """(H0, H1, f): (P - i shift)^2 / (2 mass), X^2 and mass w^2 / 2."""
        return self._kinetic, self._x_squared, self._trap

    def hermitian_frame_terms(self) -> tuple:
        """(H0, H1, f): P^2 / (2 mass), X^2 and mass w^2 / 2."""
        return self._frame_kinetic, self._x_squared, self._trap

    def hamiltonian(self, omega) -> np.ndarray:
        return _affine(self.hamiltonian_terms(), omega)

    def hermitian_frame(self, omega) -> np.ndarray:
        return _affine(self.hermitian_frame_terms(), omega)

    def position_exponential(self, c: float) -> np.ndarray:
        """exp(c X) through the spectral decomposition of truncated X."""
        vals, vecs = self._x_eig
        return (vecs * np.exp(c * vals)) @ vecs.conj().T

    def metric(self, v=0.0) -> np.ndarray:
        return _per_value(self.position_exponential(2.0 * self.shift), v)

    def ladder_energies(self, omega: float, count: int | None = None) -> np.ndarray:
        n = self.n_basis if count is None else count
        return omega * (np.arange(n) + 0.5)


@dataclass(frozen=True)
class HatanoNelson:
    """Tight-binding chain with asymmetric hopping exp(+/- asymmetry).

    H[x, x+1] = -(hopping/2) e^{+asymmetry},
    H[x+1, x] = -(hopping/2) e^{-asymmetry}, plus on-site potential on the
    diagonal; periodic boundaries wrap both corners.  Open chains are
    similar to a hermitian chain under diag(e^{asymmetry * x}), hence an
    all-real spectrum and the diagonal metric e^{2 asymmetry x}; periodic
    chains at nonzero asymmetry have a conjugate-paired complex spectrum.
    """

    length: int
    hopping: float = 1.0
    asymmetry: float = 0.0
    potential: tuple = field(default=())
    boundary: str = "open"

    metric_is_static = True

    def __post_init__(self):
        if not all(map(math.isfinite, (self.length, self.hopping, self.asymmetry, *self.potential))):
            raise ValueError("length, hopping, asymmetry and potential must be finite")
        if self.length < 2:
            raise ValueError("length must be at least 2")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.potential and len(self.potential) != self.length:
            raise ValueError("potential list must match the chain length")

    @property
    def dimension(self) -> int:
        return self.length

    def hamiltonian(self, v=0.0) -> np.ndarray:
        L = self.length
        fwd = -(self.hopping / 2.0) * np.exp(self.asymmetry)
        bwd = -(self.hopping / 2.0) * np.exp(-self.asymmetry)
        H = np.zeros((L, L), dtype=complex)
        idx = np.arange(L - 1)
        H[idx, idx + 1] = fwd
        H[idx + 1, idx] = bwd
        if self.boundary == "periodic":
            H[L - 1, 0] = fwd
            H[0, L - 1] = bwd
        if self.potential:
            H[np.arange(L), np.arange(L)] = np.asarray(self.potential, dtype=float)
        return _per_value(H, v)

    def diagonal_metric(self) -> np.ndarray | None:
        """Closed-form diag(e^{2 asymmetry x}) metric; open chains only."""
        if self.boundary != "open":
            return None
        x = np.arange(self.length)
        return np.diag(np.exp(2.0 * self.asymmetry * x)).astype(complex)

    @cached_property
    def _metric(self) -> np.ndarray:
        diag = self.diagonal_metric()
        if diag is not None:
            return diag
        return linalg.build_metric(linalg.eigendecompose(self.hamiltonian())).g

    def metric(self, v=0.0) -> np.ndarray:
        return _per_value(self._metric, v)


def relaxation_time(eigenvalues) -> float:
    """Inverse of the smallest pairwise eigenvalue separation.

    Diverges when two eigenvalues coalesce, which is how the approach to an
    exceptional point shows up in the dynamics.
    """
    w = np.asarray(eigenvalues, dtype=complex)
    if w.size < 2:
        raise ValueError("need at least two eigenvalues")
    diffs = np.abs(w[:, None] - w[None, :])
    gap = np.min(diffs[np.triu_indices(w.size, k=1)])
    if gap == 0.0:
        return np.inf
    return float(1.0 / gap)
