"""Dense complex linear algebra for non-hermitian operators.

Provides biorthogonal eigendecomposition with left/right pairing, spectrum
classification (all-real, conjugate-paired, generic), metric construction,
and metric-weighted inner products and traces.  Everything works on plain
numpy complex matrices; no sparsity, dimensions are expected to stay small
(tens, at most ~100).  Left eigenvectors are the rows of the inverse
right-eigenvector matrix; the spread of their norms gates defectiveness,
and so does a coalescing-pair check on every decomposition.  Two levels
take a closed form, one matrix at a time in Python complex arithmetic and
stacks of them (the Carnot legs' grids) as numpy arrays; larger matrices
take np.linalg.eig.
"""

from __future__ import annotations

import cmath
import math
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


# eigendecompose refuses two neighbouring eigenvalues
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

    Two levels take the closed form in Python complex arithmetic (see the
    vector rule below) with left vectors from the closed-form inverse;
    larger matrices take np.linalg.eig, with left vectors the conjugated
    rows of inv(right).  With kappa_i the norm of left vector i, the overlap
    of unit left and right vectors is diag(1/kappa) for distinct
    eigenvalues, so its condition number is max kappa / min kappa.  Raises
    DefectiveMatrixError, the numerical signature of an exceptional point,
    when that exceeds `defective_cond`, when two neighbouring eigenvalues
    coalesce with nearly parallel right vectors, or when either residual of
    left† right = I exceeds `defective_residual`; every call checks all
    three.  The eig path also raises when max|H V - V diag(E)| exceeds
    `defective_residual` times max|H|, a vector that eig paired with the
    wrong eigenvalue.
    """
    tol = tol or DEFAULT
    A = _as_square_matrix(H)
    if A.shape[0] == 2:
        return _eigendecompose_two(A, tol)
    return _eigendecompose_general(A, tol)


def _check_overlap_cond(cond: float, tol: Tolerances) -> None:
    if not cond <= tol.defective_cond:
        raise DefectiveMatrixError(
            f"left/right overlap condition number {cond:.3e} exceeds "
            f"{tol.defective_cond:.1e}; matrix is defective within tolerance"
        )


def _check_pair(E0: complex, E1: complex, overlap: float) -> None:
    """Refuse neighbours E0, E1 whose unit right vectors overlap by `overlap`.

    A clean condition number can still hide a coalescing pair: two nearly
    equal eigenvalues whose right eigenvectors are nearly parallel.
    """
    if abs(E1 - E0) < _COALESCE_GAP * (1.0 + abs(E0)) and overlap > 1.0 - _COALESCE_PARALLEL:
        raise DefectiveMatrixError(
            f"eigenvalues {E0:.6g} and {E1:.6g} coalesce with "
            f"parallel eigenvectors (overlap {overlap:.12f})"
        )


def _check_residuals(biortho: float, completeness: float, tol: Tolerances) -> None:
    if biortho > tol.defective_residual or completeness > tol.defective_residual:
        raise DefectiveMatrixError(
            f"biorthonormalization failed (residuals {biortho:.3e}, "
            f"{completeness:.3e}); matrix is defective within tolerance"
        )


def _eigendecompose_general(A: np.ndarray, tol: Tolerances) -> BiorthogonalEigensystem:
    """eigendecompose of a checked square matrix through np.linalg.eig and inv."""
    n = A.shape[0]
    # real matrices (the chains, the oscillators) take the faster real solver
    real = not A.imag.any()
    w, vr = np.linalg.eig(A.real if real else A)
    vr = vr.astype(complex, copy=False)
    order = np.lexsort((w.imag, w.real))
    w, vr = w[order], vr[:, order]

    try:
        left = np.linalg.inv(vr).conj().T
    except np.linalg.LinAlgError:
        raise DefectiveMatrixError("right eigenvectors are linearly dependent") from None
    with np.errstate(over="ignore"):  # an overflowing row is an infinite kappa
        kappa = np.linalg.norm(left, axis=0)
    _check_overlap_cond(kappa.max() / kappa.min() if np.isfinite(kappa).all() else np.inf, tol)

    gaps = np.abs(np.diff(w))
    for i in np.nonzero(gaps < _COALESCE_GAP * (1.0 + np.abs(w[:-1])))[0]:
        _check_pair(w[i], w[i + 1], abs(np.vdot(vr[:, i], vr[:, i + 1])))

    # phase convention: largest-modulus component of each right vector made
    # real-positive; the same rotation on the left column preserves pairing
    peak = vr[np.argmax(np.abs(vr), axis=0), np.arange(n)]
    ph = peak / np.abs(peak)
    vr = vr / ph
    left = left / ph

    biortho = float(np.max(np.abs(left.conj().T @ vr - np.eye(n))))
    completeness = float(np.linalg.norm(vr @ left.conj().T - np.eye(n)))
    _check_residuals(biortho, completeness, tol)
    # eig can return a wrong vector when the entries span far-apart scales;
    # a right one leaves a residual at rounding level
    eigen, scale = float(np.max(np.abs(A @ vr - vr * w))), float(np.max(np.abs(A)))
    if not eigen <= tol.defective_residual * scale:
        raise DefectiveMatrixError(
            f"eigenvector equation fails: max|H V - V diag(E)| = {eigen:.3e} "
            f"against max|H| = {scale:.3e}"
        )
    return BiorthogonalEigensystem(
        eigenvalues=w,
        right=vr,
        left=left,
        biortho_residual=biortho,
        completeness_residual=completeness,
    )


# Two levels in closed form.  With m = (H00 + H11)/2, a = (H00 - H11)/2,
# b = H01, c = H10 and s = sqrt(a^2 + bc), the eigenvalues are m + r for
# r = -/+s.  The right vector of m + r is [b, r - a], or equally [a + r, c];
# the longer of the two is normalised, which avoids the cancellation in
# r - a for a nearly diagonal H.  Both vanish only for a scalar H, which
# keeps the unit vectors.  The single-matrix branch of eigendecompose and
# the stacked kernel of the Carnot legs (_eig2) both follow this rule.

# the single-matrix branch runs while max(|a|, |b|, |c|) lies in this range,
# so that a^2, bc and the squared vector norms stay normal floats; a scalar
# matrix and the far ranges take the general path
_CLOSED_FORM_SCALE = (1e-140, 1e140)
_TIE = 1.0 - 1e-15  # about 4.5 ulp: moduli closer than this tie


def _unit_right_vector(a: complex, b: complex, c: complex, r: complex) -> tuple:
    """The rule's unit right vector of m + r, phased to the convention.

    The peak entry is set to its modulus, exactly real-positive.  Moduli
    within a relative 1e-15 of each other count as tied, so a pair that is
    equal in exact arithmetic (the unbroken PT qubit's) puts the peak on
    the first entry whichever way it rounds.
    """
    x0, x1, y0, y1 = b, r - a, a + r, c
    nx = x0.real * x0.real + x0.imag * x0.imag + x1.real * x1.real + x1.imag * x1.imag
    ny = y0.real * y0.real + y0.imag * y0.imag + y1.real * y1.real + y1.imag * y1.imag
    if nx < ny:
        x0, x1, nx = y0, y1, ny
    norm = math.sqrt(nx)
    x0, x1 = x0 / norm, x1 / norm
    m0, m1 = abs(x0), abs(x1)
    if m0 >= m1 * _TIE:
        return m0, x1 / (x0 / m0)
    return x0 / (x1 / m1), m1


def _eigendecompose_two(A: np.ndarray, tol: Tolerances) -> BiorthogonalEigensystem:
    """eigendecompose of a checked 2 x 2 matrix in closed form."""
    (h00, b), (c, h11) = A.tolist()
    a = 0.5 * (h00 - h11)
    lo, hi = _CLOSED_FORM_SCALE
    if not lo <= max(abs(a), abs(b), abs(c)) <= hi:
        return _eigendecompose_general(A, tol)
    m = 0.5 * h00 + 0.5 * h11
    s = cmath.sqrt(a * a + b * c)
    E0, E1 = m - s, m + s
    (p, u), (q, v) = _unit_right_vector(a, b, c, -s), _unit_right_vector(a, b, c, s)
    if (E1.real, E1.imag) < (E0.real, E0.imag):  # the (Re, Im) sort
        E0, E1, p, u, q, v = E1, E0, q, v, p, u

    # inv(right) = [[v, -q], [-u, p]] / det; the left vectors are its
    # conjugated rows, so left† right = inv(right) right
    det = p * v - q * u
    cond = math.inf
    if det != 0:
        i00, i01, i10, i11 = v / det, -q / det, -u / det, p / det
        k0, k1 = math.hypot(abs(i00), abs(i01)), math.hypot(abs(i10), abs(i11))
        if math.isfinite(k0) and math.isfinite(k1):
            cond = max(k0, k1) / min(k0, k1)
    _check_overlap_cond(cond, tol)  # raises on parallel right vectors, det = 0
    _check_pair(E0, E1, abs(p.conjugate() * q + u.conjugate() * v))

    biortho = max(
        abs(i00 * p + i01 * u - 1.0),
        abs(i00 * q + i01 * v),
        abs(i10 * p + i11 * u),
        abs(i10 * q + i11 * v - 1.0),
    )
    completeness = math.hypot(
        abs(p * i00 + q * i10 - 1.0),
        abs(p * i01 + q * i11),
        abs(u * i00 + v * i10),
        abs(u * i01 + v * i11 - 1.0),
    )
    _check_residuals(biortho, completeness, tol)
    return BiorthogonalEigensystem(
        eigenvalues=np.array([E0, E1]),
        right=np.array([[p, q], [u, v]]),
        left=np.array([[i00, i10], [i01, i11]]).conj(),
        biortho_residual=biortho,
        completeness_residual=completeness,
    )


def _grid_last(A: np.ndarray) -> np.ndarray:
    """A contiguous copy of a stack with its leading (grid) axis moved last."""
    return np.ascontiguousarray(np.moveaxis(A, 0, -1))


def _require_diagonalizable(cond: np.ndarray, values: np.ndarray, tol: Tolerances):
    """Refuse a stack whose eigenvector matrix is singular within tolerance.

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


def _eig2(H: np.ndarray, values: np.ndarray, tol: Tolerances):
    """The two-level rule over a (2, 2, k) stack: E (2, k), VR and VLh (2, 2, k).

    E is unsorted (m - s, m + s) and the columns of VR are not phased.  VLh
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
    """Batched np.linalg.eig and inv of a (d, d, k) stack: E (d, k), VR and VLh (d, d, k).

    As in `eigendecompose`, each matrix must also meet its eigenvector
    equation, max|H V - V diag(E)| <= `defective_residual` max|H|: eig can
    return a wrong vector when the entries span far-apart scales.
    """
    A = np.moveaxis(H, -1, 0)
    E, VR = np.linalg.eig(A)
    _require_diagonalizable(np.linalg.cond(VR), values, tol)
    eigen = np.abs(A @ VR - VR * E[:, None, :]).max(axis=(1, 2))
    scale = np.abs(A).max(axis=(1, 2))
    bad = np.flatnonzero(~(eigen <= tol.defective_residual * scale))
    if bad.size:
        i = bad[0]
        raise DefectiveMatrixError(
            f"eigenvector equation fails at control value {values[i]:.6g}: "
            f"max|H V - V diag(E)| = {eigen[i]:.3e} against max|H| = {scale[i]:.3e}"
        )
    return _grid_last(E), _grid_last(VR), _grid_last(np.linalg.inv(VR))


def _eig_stack(H: np.ndarray, values: np.ndarray, tol: Tolerances):
    """Eigen-data of a (d, d, k) stack taken at the k control values `values`.

    Returns E (d, k) and VR, VLh = inv(VR) (d, d, k), the grid index last,
    without eigendecompose's sort or phase convention.  Two levels take the
    closed form, larger dimensions one batched np.linalg.eig and inv.
    Either way DefectiveMatrixError names the control value where the
    2-norm condition number of the unit-column VR exceeds `defective_cond`:
    the stack reaches an exceptional point there.  The batched eig also
    gates each matrix's eigenvector equation (`_eig_general`).
    """
    return (_eig2 if H.shape[0] == 2 else _eig_general)(H, values, tol)


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
