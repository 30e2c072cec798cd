"""Dense complex linear algebra for non-hermitian operators.

Provides biorthogonal eigendecomposition with left/right pairing, spectrum
classification (all-real, conjugate-paired, generic), metric construction,
and metric-weighted inner products and traces.  Everything works on plain
numpy complex matrices; no sparsity, dimensions are expected to stay small
(tens, at most ~100).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.linalg

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


# eigendecompose's coalescing-pair check runs once the overlap condition number
# exceeds _COALESCE_COND_FRACTION * defective_cond, and refuses two neighbours
_COALESCE_COND_FRACTION = 1e-2
_COALESCE_GAP = 1e-6  # closer than this times (1 + |E|)
_COALESCE_PARALLEL = 1e-6  # whose unit right vectors overlap by more than 1 - this


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
    imag_tolerance: float
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
    degeneracy_groups: tuple
    biortho_residual: float
    completeness_residual: float

    @property
    def dim(self) -> int:
        return self.right.shape[0]

    def __len__(self) -> int:
        return self.eigenvalues.size


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

    Raises DefectiveMatrixError when the left/right overlap matrix is too
    ill-conditioned to normalize, which is the numerical signature of an
    exceptional point.
    """
    tol = tol or DEFAULT
    A = _as_square_matrix(H)
    n = A.shape[0]

    w, vl, vr = scipy.linalg.eig(A, left=True, right=True)
    order = np.lexsort((w.imag, w.real))
    w, vl, vr = w[order], vl[:, order], vr[:, order]

    overlap = vl.conj().T @ vr
    svals = np.linalg.svd(overlap, compute_uv=False)
    cond = svals[0] / svals[-1] if svals[-1] > 0 else np.inf
    if cond > tol.defective_cond:
        raise DefectiveMatrixError(
            f"left/right overlap condition number {cond:.3e} exceeds "
            f"{tol.defective_cond:.1e}; matrix is defective within tolerance"
        )
    # A clean condition number can still hide a coalescing pair: two nearly
    # equal eigenvalues whose right eigenvectors are nearly parallel.
    if n > 1 and cond > tol.defective_cond * _COALESCE_COND_FRACTION:
        gaps = np.abs(np.diff(w))
        for i in np.nonzero(gaps < _COALESCE_GAP * (1.0 + np.abs(w[:-1])))[0]:
            pair_overlap = abs(np.vdot(vr[:, i], vr[:, i + 1]))
            if pair_overlap > 1.0 - _COALESCE_PARALLEL:
                raise DefectiveMatrixError(
                    f"eigenvalues {w[i]:.6g} and {w[i + 1]:.6g} coalesce with "
                    f"parallel eigenvectors (overlap {pair_overlap:.12f})"
                )

    # phi = vl @ inv(overlap)^dagger enforces left† @ right = I in one solve
    left = np.linalg.solve(overlap, vl.conj().T).conj().T

    # phase convention: largest-modulus component of each right vector made
    # real-positive; the same rotation on the left column preserves pairing
    peak = vr[np.argmax(np.abs(vr), axis=0), np.arange(n)]
    ph = peak / np.abs(peak)
    vr = vr / ph
    left = left / ph

    biortho = float(np.max(np.abs(left.conj().T @ vr - np.eye(n))))
    completeness = float(np.linalg.norm(vr @ left.conj().T - np.eye(n)))
    if biortho > tol.defective_residual or completeness > tol.defective_residual:
        raise DefectiveMatrixError(
            f"biorthonormalization failed (residuals {biortho:.3e}, "
            f"{completeness:.3e}); matrix is defective within tolerance"
        )

    groups: list[list[int]] = [[0]]
    for i in range(1, n):
        if abs(w[i] - w[i - 1]) <= tol.degeneracy * (1.0 + abs(w[i])):
            groups[-1].append(i)
        else:
            groups.append([i])

    return BiorthogonalEigensystem(
        eigenvalues=w,
        right=vr,
        left=left,
        degeneracy_groups=tuple(tuple(g) for g in groups),
        biortho_residual=biortho,
        completeness_residual=completeness,
    )


def conjugate_pairing(eigs: Sequence[complex], tol: float) -> np.ndarray | None:
    """Greedy matching of each eigenvalue with its complex conjugate.

    Returns an involutive index array (real eigenvalues map to themselves),
    or None if some complex eigenvalue has no partner within tolerance.
    """
    w = np.asarray(eigs, dtype=complex)
    n = w.size
    pairing = np.full(n, -1, dtype=int)
    for i in range(n):
        if abs(w[i].imag) < tol:
            pairing[i] = i
    unmatched = [i for i in range(n) if pairing[i] < 0]
    while unmatched:
        i = unmatched.pop(0)
        target = np.conj(w[i])
        best, best_d = -1, np.inf
        for j in unmatched:
            d = abs(w[j] - target)
            if d < best_d:
                best, best_d = j, d
        if best < 0 or best_d > tol * (1.0 + abs(w[i])):
            return None
        pairing[i] = best
        pairing[best] = i
        unmatched.remove(best)
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
        return SpectrumClass(SpectrumKind.ALL_REAL, imag_tol, tuple(range(w.size)))
    pairing = conjugate_pairing(w, imag_tol)
    if pairing is not None:
        return SpectrumClass(SpectrumKind.CONJUGATE_PAIRED, imag_tol, tuple(int(p) for p in pairing))
    return SpectrumClass(SpectrumKind.GENERIC, imag_tol, None)


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
