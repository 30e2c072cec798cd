"""Dense complex linear algebra for non-hermitian operators.

Provides biorthogonal eigendecomposition with left/right pairing, spectrum
classification (all-real, conjugate-paired, generic), metric construction,
and metric-weighted inner products and traces.  Everything works on plain
numpy complex matrices; no sparsity, dimensions are expected to stay small
(tens, at most ~100).  Every eigensystem comes from one kernel,
`_eig_stack`, over a stack of matrices: two levels in closed form as numpy
arrays, larger matrices through one batched np.linalg.eig and inv.  Left
eigenvectors are the rows of the inverse right-eigenvector matrix, and
every matrix passes one set of defectiveness gates (cond_F of the
right-vector matrix, coalescing pairs, biorthonormality residuals and the
eigenvector equation); `eigendecompose` is the one-matrix view.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DefectiveMatrixError, UnpairedSpectrumError
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "SpectrumKind",
    "SpectrumClass",
    "BiorthogonalEigensystem",
    "MetricOperator",
    "eigendecompose",
    "classify_spectrum",
    "conjugate_pairing",
    "build_metric",
    "pseudo_hermiticity_residual",
    "g_inner",
    "g_trace",
    "load_matrix",
    "save_matrix",
]


# the eigen-kernel refuses two neighbouring eigenvalues
_COALESCE_GAP = 1e-6  # closer than this times (1 + |E|)
_COALESCE_PARALLEL = 1e-6  # whose unit right vectors overlap by more than 1 - this
_TIE = 1.0 - 1e-15  # about 4.5 ulp: moduli closer than this tie in the two-level phase rule


def _as_square_matrix(H) -> np.ndarray:
    A = np.asarray(H, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix contains non-finite entries")
    return A


class SpectrumKind(Enum):
    ALL_REAL = "all_real"
    CONJUGATE_PAIRED = "conjugate_paired"
    GENERIC = "generic"


@dataclass(frozen=True)
class SpectrumClass:
    kind: SpectrumKind
    # pairing[i] = index of the eigenvalue equal to conj(E_i); i itself if real.
    # None when kind is GENERIC.
    pairing: tuple | None = None

    @property
    def all_real(self) -> bool:
        return self.kind is SpectrumKind.ALL_REAL

    @property
    def conjugate_paired(self) -> bool:
        return self.kind is SpectrumKind.CONJUGATE_PAIRED


@dataclass(frozen=True)
class BiorthogonalEigensystem:
    """Eigenvalues with paired right (columns of `right`) and left (columns of
    `left`) eigenvectors, normalized so left† @ right = identity.

    Right vectors keep unit Euclidean norm with their largest-modulus entry
    rotated real-positive; left vectors carry the normalization.  Eigenvalues
    are sorted by (Re, Im).
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    biortho_residual: float
    completeness_residual: float

    @property
    def dim(self) -> int:
        return self.right.shape[0]


@dataclass(frozen=True)
class MetricOperator:
    """Hermitian intertwiner g with cached inverse.

    g is positive definite exactly when the source spectrum is all-real; for a
    conjugate-paired spectrum it is hermitian and indefinite.
    """

    g: np.ndarray
    g_inverse: np.ndarray
    positive_definite: bool
    min_eigenvalue: float


def eigendecompose(H, tol: Tolerances | None = None) -> BiorthogonalEigensystem:
    """Full biorthogonal eigendecomposition of a dense complex matrix.

    The k = 1 view of the eigen-kernel `_eig_stack`: eigenvalues sorted by
    (Re, Im), unit right vectors with their largest-modulus entry
    real-positive, and left vectors the conjugated rows of inv(right).
    Raises DefectiveMatrixError, the numerical signature of an exceptional
    point, when the matrix fails any of the kernel's gates.
    """
    (es,) = _eigensystems(_as_square_matrix(H)[None], tol or DEFAULT)
    return es


def _eigensystems(H: np.ndarray, tol: Tolerances) -> list:
    """The eigensystems of a finite (k, d, d) stack, from one `_eig_stack` call."""
    E, VR, VLh, biortho, completeness = _eig_stack(H.transpose(1, 2, 0), None, tol)
    E, VR = np.ascontiguousarray(E.T), np.ascontiguousarray(VR.transpose(2, 0, 1))
    VL = np.conj(VLh.transpose(2, 0, 1), order="C")  # VL[i].T: system i's left vectors, as columns
    return [
        BiorthogonalEigensystem(E[i], VR[i], VL[i].T, b, c)
        for i, (b, c) in enumerate(zip(biortho.tolist(), completeness.tolist()))
    ]


def _grid_last(A: np.ndarray) -> np.ndarray:
    """A contiguous copy of a stack with its leading (grid) axis moved last."""
    return np.ascontiguousarray(np.moveaxis(A, 0, -1))


def _eig_stack(H: np.ndarray, values, tol: Tolerances):
    """The eigen-kernel: biorthogonal eigen-data of a (d, d, k) stack, grid index last.

    Returns E (d, k), each column sorted by (Re, Im); VR (d, d, k), unit
    right vectors in its columns, each rotated so that its largest-modulus
    entry is real-positive; VLh = inv(VR) (d, d, k), whose rows are the
    conjugated left vectors; and the residuals max|VLh VR - I| and
    ||VR VLh - I||_F (k,).  Two levels take the closed form
    (`_closed_form`), larger matrices one batched np.linalg.eig and inv
    (`_eig_batched`).  Every matrix must pass four gates, or
    DefectiveMatrixError names the first control value of `values` (k,)
    that fails one:

    - cond_F(VR) = sqrt(d sum_i kappa_i^2) <= `defective_cond`, kappa_i the
      norm of left vector i.  It bounds the 2-norm condition number, and
      that bounds max kappa / min kappa; at two levels it is 2/|det VR|.
    - no two neighbouring eigenvalues closer than 1e-6 (1 + |E|) with unit
      right vectors that overlap by more than 1 - 1e-6: a coalescing pair,
      which a clean condition number can still hide.
    - both residuals at most `defective_residual`.
    - max|H V - V diag(E)| <= `defective_residual` max|H|: eig can return
      a wrong vector when the entries span far-apart scales.
    """
    H = np.asarray(H, dtype=complex)
    E, VR, VLh, cond, biortho, completeness, eigen = (_closed_form if H.shape[0] == 2 else _eig_batched)(H)
    r, scale = tol.defective_residual, np.abs(H).max(axis=(0, 1))
    failed = ~((cond <= tol.defective_cond) & (biortho <= r) & (completeness <= r) & (eigen <= r * scale))
    close = np.abs(E[1:] - E[:-1]) < _COALESCE_GAP * (1.0 + np.abs(E[:-1]))
    if close.any():  # the overlaps of neighbouring right vectors matter only there
        close &= np.abs((VR[:, :-1].conj() * VR[:, 1:]).sum(axis=0)) > 1.0 - _COALESCE_PARALLEL
        failed |= close.any(axis=0)
    if not failed.any():
        return E, VR, VLh, biortho, completeness
    i = int(np.argmax(failed))
    where = "" if values is None else f" at control value {values[i]:.17g}"
    if not cond[i] <= tol.defective_cond:
        raise DefectiveMatrixError(
            f"eigenvector condition number {cond[i]:.3e}{where} exceeds "
            f"{tol.defective_cond:.1e}; the matrix is defective within tolerance, "
            "at or near an exceptional point"
        )
    if close[:, i].any():
        j = int(np.argmax(close[:, i]))
        raise DefectiveMatrixError(
            f"eigenvalues {E[j, i]:.6g} and {E[j + 1, i]:.6g}{where} coalesce with parallel "
            f"eigenvectors (overlap {abs(np.vdot(VR[:, j, i], VR[:, j + 1, i])):.12f}): an exceptional point"
        )
    if not (biortho[i] <= r and completeness[i] <= r):
        raise DefectiveMatrixError(
            f"biorthonormalization failed{where} (residuals {biortho[i]:.3e}, "
            f"{completeness[i]:.3e}); the matrix is defective within tolerance"
        )
    raise DefectiveMatrixError(
        f"eigenvector equation fails{where}: max|H V - V diag(E)| = {eigen[i]:.3e} "
        f"against max|H| = {scale[i]:.3e}"
    )


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 in real arithmetic, for z whose last axis is contiguous."""
    F = z.view(float)
    F = F * F
    return F[..., 0::2] + F[..., 1::2]


def _closed_form(H: np.ndarray):
    """`_eig_stack`'s two-level branch over a (2, 2, k) stack: its eigen-data and gate quantities.

    With m = (H00 + H11)/2, a = (H00 - H11)/2, b = H01, c = H10 and
    s = sqrt(a^2 + bc), the eigenvalues are m + r for r = -/+s.  a, b and c
    are first scaled by 2^-e, with e the exponent of the largest of their
    moduli (clipped so that 2^e and 2^-e stay normal floats): the scaling
    is exact, and a^2, bc and the squared norms of the right vectors
    (`_right_vectors`) stay normal floats at every finite scale.  VLh is
    the adjugate of VR over det VR, so cond_F(VR) = 2/|det VR|, and the
    residuals are taken entry by entry.
    """
    (h00, h01), (h10, h11) = H
    abc = np.stack((0.5 * h00 - 0.5 * h11, h01, h10))
    _, e = np.frexp(np.abs(abc).max(axis=0))
    e = np.minimum(np.maximum(e, -1021), 1021)
    a, b, c = abc * np.ldexp(1.0, -e)
    s = np.sqrt(a * a + b * c)
    S = s * np.ldexp(1.0, e)
    m = 0.5 * h00 + 0.5 * h11
    E = np.array([m - S, m + S])
    VR = _right_vectors(a, b, c, s)
    # the (Re, Im) sort: Re s >= 0, so only equal real parts can swap
    swap = (E[1].real == E[0].real) & (E[1].imag < E[0].imag)
    if swap.any():
        E, VR = np.where(swap, E[::-1], E), np.where(swap, VR[:, ::-1], VR)

    (p0, q0), (p1, q1) = VR
    det = p0 * q1 - q0 * p1
    with np.errstate(all="ignore"):  # det = 0: parallel vectors, an infinite condition number
        VLh = np.array([[q1, -q0], [-p1, p0]]) * (1.0 / det)
        cond = 2.0 / np.abs(det)
        # the rows of VLh VR - I and of VR VLh - I
        B = [VLh[i, 0] * VR[0] + VLh[i, 1] * VR[1] for i in (0, 1)]
        C = [VR[i, 0] * VLh[0] + VR[i, 1] * VLh[1] for i in (0, 1)]
        for i in (0, 1):
            B[i][i] -= 1.0
            C[i][i] -= 1.0
        biortho = np.maximum(np.abs(B[0]), np.abs(B[1])).max(axis=0)
        completeness = np.sqrt((_abs2(C[0]) + _abs2(C[1])).sum(axis=0))
    # the rows of H VR - VR diag(E)
    eigen = np.maximum(np.abs((h00 - E) * VR[0] + h01 * VR[1]), np.abs(h10 * VR[0] + (h11 - E) * VR[1]))
    return E, VR, VLh, cond, biortho, completeness, eigen.max(axis=0)


def _right_vectors(a, b, c, s) -> np.ndarray:
    """The (2, 2, k) unit right vectors of the eigenvalues m -/+ s of `_closed_form`.

    The right vector of m + r is [b, r - a], or equally [a + r, c]; the
    longer of the two is normalised, which avoids the cancellation in
    r - a for a nearly diagonal H.  Both vanish only for a scalar H, which
    keeps the unit vectors.  Each vector is rotated to make its peak entry
    real-positive, and the peak is set to its modulus; moduli within a
    relative 1e-15 of each other count as tied, so a pair that is equal in
    exact arithmetic (the unbroken PT qubit's) puts the peak on the first
    entry whichever way it rounds.
    """
    plus, minus = a + s, a - s
    # r - a and a + r for r = -s and r = +s
    d, p = np.array([-plus, -minus]), np.array([minus, plus])
    u, v = _abs2(plus), _abs2(minus)
    nx, ny = _abs2(b) + np.array([u, v]), np.array([v, u]) + _abs2(c)
    longer = nx >= ny
    w0, w1 = np.where(longer, b, p), np.where(longer, d, c)
    n = np.sqrt(np.where(longer, nx, ny))
    scalar = n == 0
    if scalar.any():
        n[scalar] = 1.0
        w0[scalar], w1[scalar] = np.broadcast_to([[1.0], [0.0]], n.shape)[scalar], np.broadcast_to([[0.0], [1.0]], n.shape)[scalar]
    m0, m1 = np.abs(w0), np.abs(w1)
    first = m0 >= m1 * _TIE
    peak = np.where(first, m0, m1)
    on = peak / n
    off = np.where(first, w1, w0) * (np.where(first, w0, w1).conj() * (1.0 / (peak * n)))
    return np.array([np.where(first, on, off), np.where(first, off, on)])


def _eig_batched(H: np.ndarray):
    """`_eig_stack`'s branch above two levels: one batched np.linalg.eig and inv of a (d, d, k) stack.

    A stack with no imaginary part takes the faster real solver.  Each
    right vector and its left partner are divided by the unit phase of
    the vector's largest-modulus entry.
    """
    A = H.transpose(2, 0, 1)
    k, d, _ = A.shape
    w, V = np.linalg.eig(A if A.imag.any() else A.real)
    grid, levels = np.arange(k)[:, None], np.arange(d)
    order = np.lexsort((w.imag, w.real), axis=-1)
    w = w[grid, order].astype(complex, copy=False)
    V = V[grid[:, :, None], levels[:, None], order[:, None, :]].astype(complex, copy=False)
    try:
        inv = np.linalg.inv(V)
    except np.linalg.LinAlgError:  # an exactly singular V (a Jordan block): an infinite condition number
        inv = np.stack([_inverse_or_inf(M) for M in V])
    peak = V[grid, np.abs(V).argmax(axis=1), levels]
    phase = (peak / np.abs(peak))[:, None, :]
    V = V / phase
    with np.errstate(all="ignore"):  # an overflowing or infinite row of inv is an infinite kappa
        cond = np.sqrt(d * _abs2(inv).sum(axis=(1, 2)))
        VLh = (inv.conj() / phase.transpose(0, 2, 1)).conj()  # the left vectors, rotated alike
        B, C = VLh @ V, V @ VLh
        for D in (B, C):
            D.reshape(k, d * d)[:, :: d + 1] -= 1.0  # minus the identity
        biortho, completeness = np.abs(B).max(axis=(1, 2)), np.sqrt(_abs2(C).sum(axis=(1, 2)))
    eigen = np.abs(A @ V - V * w[:, None, :]).max(axis=(1, 2))
    return w.T, V.transpose(1, 2, 0), VLh.transpose(1, 2, 0), cond, biortho, completeness, eigen


def _inverse_or_inf(M: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return np.full_like(M, np.inf)


def conjugate_pairing(eigs: Sequence[complex], tol: float) -> np.ndarray | None:
    """Greedy matching of each eigenvalue with its complex conjugate.

    Returns an involutive index array (real eigenvalues map to themselves),
    or None if some complex eigenvalue has no partner within tolerance.
    In index order, each unmatched eigenvalue takes the nearest unmatched
    one to its conjugate, the first of equally near ones, from one matrix
    of distances.
    """
    w = np.asarray(eigs, dtype=complex)
    pairing = np.where(np.abs(w.imag) < tol, np.arange(w.size), -1)
    free = pairing < 0
    with np.errstate(invalid="ignore"):
        d = w[None, :] - np.conj(w)[:, None]
        distance = np.hypot(d.real, d.imag)  # abs of each complex scalar, to the bit; np.abs may differ by an ulp
    distance[np.isnan(distance)] = np.inf  # a NaN distance is never the nearest
    distance[:, ~free] = np.inf  # nor is a level that is taken
    for i in np.flatnonzero(free).tolist():
        if pairing[i] >= 0:
            continue
        distance[:, i] = np.inf
        row = distance[i]
        best = int(row.argmin())
        if row[best] == np.inf or row[best] > tol * (1.0 + abs(w[i])):
            return None
        pairing[i], pairing[best] = best, i
        distance[:, best] = np.inf
    return pairing


def classify_spectrum(eigs: Sequence[complex], tol: float | None = None) -> SpectrumClass:
    """Decide whether a spectrum is all-real, conjugate-paired, or generic."""
    w = np.asarray(eigs, dtype=complex)
    if w.size == 0:
        raise ValueError("empty spectrum")
    if not np.isfinite(w).all():
        raise ValueError("spectrum contains non-finite values")
    imag_tol = DEFAULT.spectrum_imag if tol is None else float(tol)

    if np.max(np.abs(w.imag)) < imag_tol:
        return SpectrumClass(SpectrumKind.ALL_REAL, tuple(range(w.size)))
    pairing = conjugate_pairing(w, imag_tol)
    if pairing is not None:
        return SpectrumClass(SpectrumKind.CONJUGATE_PAIRED, tuple(int(p) for p in pairing))
    return SpectrumClass(SpectrumKind.GENERIC, None)


def build_metric(eigsys: BiorthogonalEigensystem, tol: Tolerances | None = None) -> MetricOperator:
    """Construct the intertwining metric from a biorthogonal eigensystem.

    All-real spectrum: g = sum_n phi_n phi_n† (positive definite) with
    inverse sum_n psi_n psi_n†.  Conjugate-paired spectrum: the same sums
    twisted by the pair-swap permutation, which yields a hermitian but
    indefinite metric.  A generic spectrum admits no metric at all.
    """
    tol = tol or DEFAULT
    classified = classify_spectrum(eigsys.eigenvalues, tol.spectrum_imag)
    if classified.kind is SpectrumKind.GENERIC:
        raise UnpairedSpectrumError(
            "spectrum is neither all-real nor conjugate-paired; "
            "no intertwining metric exists"
        )

    phi, psi = eigsys.left, eigsys.right
    if classified.kind is SpectrumKind.ALL_REAL:
        g = phi @ phi.conj().T
        g_inv = psi @ psi.conj().T
    else:
        perm = np.asarray(classified.pairing, dtype=int)
        g = phi[:, perm] @ phi.conj().T
        g_inv = psi[:, perm] @ psi.conj().T

    g = 0.5 * (g + g.conj().T)
    g_inv = 0.5 * (g_inv + g_inv.conj().T)
    min_eig = float(np.min(np.linalg.eigvalsh(g)))
    return MetricOperator(
        g=g,
        g_inverse=g_inv,
        positive_definite=bool(min_eig > 0.0),
        min_eigenvalue=min_eig,
    )


def _metric_matrix(g) -> np.ndarray:
    if isinstance(g, MetricOperator):
        return g.g
    return _as_square_matrix(g)


def pseudo_hermiticity_residual(H, g) -> float:
    """Frobenius norm of H†g - gH; zero exactly when g intertwines H."""
    A = _as_square_matrix(H)
    G = _metric_matrix(g)
    return float(np.linalg.norm(A.conj().T @ G - G @ A))


def g_inner(u, v, g) -> complex:
    """Metric-weighted inner product <u, g v> (conjugate-linear in u)."""
    G = _metric_matrix(g)
    return complex(np.vdot(np.asarray(u, dtype=complex), G @ np.asarray(v, dtype=complex)))


def g_trace(A, eigsys: BiorthogonalEigensystem, g=None) -> complex:
    """Weighted trace sum_k <psi_k, g A psi_k>.

    With the default weight sum_n phi_n phi_n† this equals the ordinary
    matrix trace for any complete biorthogonal system, which callers use as
    a consistency cross-check.
    """
    M = _as_square_matrix(A)
    W = eigsys.left @ eigsys.left.conj().T if g is None else _metric_matrix(g)
    psi = eigsys.right
    return complex(np.trace(psi.conj().T @ W @ M @ psi))


def save_matrix(path, M) -> None:
    """Write a matrix as: dim on the first line, then rows of re,im pairs."""
    A = _as_square_matrix(M)
    lines = [str(A.shape[0])]
    for row in A:
        lines.append(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_matrix(path) -> np.ndarray:
    """Read the format written by save_matrix."""
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise ValueError(f"{path}: empty matrix file")
    try:
        dim = int(text[0].strip())
    except ValueError:
        raise ValueError(f"{path}: first line must be the dimension") from None
    if dim < 1 or len(text) != dim + 1:
        raise ValueError(f"{path}: expected {dim} rows after the dimension line")
    rows = []
    for r, line in enumerate(text[1:]):
        cells = line.split()
        if len(cells) != dim:
            raise ValueError(f"{path}: row {r} has {len(cells)} entries, expected {dim}")
        try:
            # unpacking demands exactly one re,im pair per cell
            rows.append([complex(float(re), float(im)) for re, im in (c.split(",") for c in cells)])
        except ValueError:
            raise ValueError(f"{path}: row {r} is not whitespace-separated re,im pairs") from None
    return _as_square_matrix(np.array(rows, dtype=complex))
