"""Biorthogonal eigensystems, spectrum classes, and metric construction."""

from __future__ import annotations

import warnings
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pseudotherm import (
    DEFAULT,
    DefectiveMatrixError,
    HatanoNelson,
    Oscillator,
    SpectrumKind,
    TwoLevel,
    UnpairedSpectrumError,
    build_metric,
    classify_spectrum,
    conjugate_pairing,
    eigendecompose,
    g_inner,
    g_trace,
    load_matrix,
    pseudo_hermiticity_residual,
    save_matrix,
)
from pseudotherm import linalg

from conftest import SIGMA_X, random_real_spectrum_matrix, two_level_matrix


@pytest.mark.parametrize(
    "lam, expected",
    [
        (0.0, 1.0),
        (0.5, 0.8660254037844386),  # sqrt(1 - 0.25)
        (0.6, 0.8),  # sqrt(1 - 0.36)
    ],
)
def test_two_level_eigenvalues(lam, expected):
    es = eigendecompose(two_level_matrix(lam))
    npt.assert_allclose(es.eigenvalues, [-expected, expected], atol=1e-12)


@pytest.mark.parametrize(
    "H",
    [
        Oscillator(omega_ref=2.0, shift=1.0, n_basis=28).hamiltonian(2.4),
        HatanoNelson(length=40, hopping=1.0, asymmetry=0.3, boundary="open").hamiltonian(),
        HatanoNelson(length=40, hopping=1.0, asymmetry=0.3, boundary="periodic").hamiltonian(),
    ],
    ids=["oscillator", "chain_open", "chain_periodic"],
)
def test_phase_convention_matches_per_column_loop(H):
    # the per-column loop the vectorised phase convention replaced, applied
    # to the same sorted eig output (of the real part when H is real) and
    # the left vectors as rows of its inverse
    real = not H.imag.any()
    w, vr = np.linalg.eig(H.real if real else H)
    order = np.lexsort((w.imag, w.real))
    vr = vr[:, order].astype(complex)
    left = np.linalg.inv(vr).conj().T
    for k in range(vr.shape[1]):
        j = int(np.argmax(np.abs(vr[:, k])))
        ph = vr[j, k] / abs(vr[j, k])
        vr[:, k] = vr[:, k] / ph
        left[:, k] = left[:, k] / ph
    es = eigendecompose(H)
    npt.assert_array_equal(es.right, vr)
    npt.assert_array_equal(es.left, left)


def _general(H, tol=DEFAULT):
    """eigendecompose through the eigen-kernel's np.linalg.eig branch, at two levels too."""
    with mock.patch.object(linalg, "_closed_form", linalg._eig_batched):
        return eigendecompose(H, tol)


@pytest.mark.parametrize(
    "H",
    [
        TwoLevel().hamiltonian(0.5),
        TwoLevel().hamiltonian(1.5),
        np.array([[1 + 2j, 0.3], [-0.7j, -0.5]]),
    ],
    ids=["two_level", "two_level_broken", "generic"],
)
def test_two_level_closed_form_meets_the_convention_and_the_general_path(H):
    # the closed form has bits of its own: the peak of each right column
    # (the first of the largest moduli, up to rounding) is exactly
    # real-positive, and the output is the general path's up to one unit
    # phase per column, which rotates the right and left vectors alike
    es = eigendecompose(H)
    for col in es.right.T:
        modulus = np.abs(col)
        j = int(np.flatnonzero(modulus >= modulus.max() * (1.0 - 2e-15))[0])
        assert col[j].imag == 0 and col[j].real > 0
    general = _general(H)
    npt.assert_allclose(es.eigenvalues, general.eigenvalues, rtol=0, atol=1e-12)
    phase = np.sum(general.right.conj() * es.right, axis=0)
    phase /= np.abs(phase)
    npt.assert_allclose(es.right, general.right * phase, rtol=0, atol=1e-12)
    npt.assert_allclose(es.left, general.left * phase, rtol=0, atol=1e-12)


def _verdict(decompose, H):
    try:
        return decompose(H)
    except DefectiveMatrixError:
        return None


def _near_a_gate_line(H) -> bool:
    """Whether the general path's verdict on H flips when every DefectiveMatrixError
    threshold moves by a relative 1e-6, stricter or looser."""
    raised = set()
    for f in (1.0 - 1e-6, 1.0 + 1e-6):
        tol = DEFAULT.with_(
            defective_cond=DEFAULT.defective_cond * f,
            defective_residual=DEFAULT.defective_residual * f,
        )
        with mock.patch.object(linalg, "_COALESCE_GAP", linalg._COALESCE_GAP / f), mock.patch.object(
            linalg, "_COALESCE_PARALLEL", linalg._COALESCE_PARALLEL / f
        ):
            raised.add(_verdict(lambda A: _general(A, tol), H) is None)
    return len(raised) > 1


def _pair_check_within_rounding(H, es) -> bool:
    """Whether rounding can decide the coalescing-pair check on H.

    es is an accepted eigensystem of H.  A perturbation of size
    err = 4 eps ||H|| moves the eigenvalues by up to kappa err (kappa the
    largest left-vector norm) and, near a Jordan block, splits or closes a
    pair by up to 2 sqrt(err ||H - tr(H)/2||); it turns the right vectors
    by about err / gap.  The verdict rests on rounding where the gap lies
    within that of zero or of its line, or for a pair below the line where
    the angle between the right vectors lies within err / gap of its line.
    """
    w = es.eigenvalues
    gap, line = float(abs(w[1] - w[0])), linalg._COALESCE_GAP * (1.0 + abs(w[0]))
    err = 4.0 * np.finfo(float).eps * max(1.0, np.linalg.norm(H))
    traceless = np.linalg.norm(H - 0.5 * np.trace(H) * np.eye(2))
    shift = float(np.max(np.linalg.norm(es.left, axis=0))) * err + 2.0 * np.sqrt(err * traceless)
    if gap <= shift or abs(gap - line) <= 1e-6 * line + shift:
        return True
    if gap >= line:
        return False
    angle = np.arccos(min(1.0, abs(np.vdot(es.right[:, 0], es.right[:, 1]))))
    return abs(angle - np.arccos(1.0 - linalg._COALESCE_PARALLEL)) <= err / gap


def _rounding_bound(H, es) -> float:
    """eps-level error allowed on es: 1e-15 max(1, ||H||) times the largest
    left-vector norm (the eigenvalue condition number), at least 1e3."""
    kappa = float(np.max(np.linalg.norm(es.left, axis=0)))
    return 1e-15 * max(1.0, np.linalg.norm(H)) * max(1e3, kappa)


def _check_closed_form_against_general(H):
    # both paths are backward stable, so their eigenvalues carry an error of
    # about eps ||H|| times the eigenvalue condition number: the 1e-12 bound
    # holds up to a condition number of 1e3 and grows with it beyond
    closed = _verdict(eigendecompose, H)
    if closed is not None:
        atol = _rounding_bound(H, closed)
        npt.assert_allclose(H @ closed.right, closed.right * closed.eigenvalues, rtol=0, atol=atol)
        biortho = closed.left.conj().T @ closed.right
        npt.assert_allclose(biortho, np.eye(2), rtol=0, atol=atol / max(1.0, np.linalg.norm(H)))
    try:
        general = _general(H)
    except DefectiveMatrixError as exc:
        if "eigenvector equation" in str(exc):
            return  # np.linalg.eig's vectors fail H V = V diag(E): no reference
        general = None
    if general is not None:
        residual = np.max(np.abs(H @ general.right - general.right * general.eigenvalues))
        if residual > _rounding_bound(H, general):
            # np.linalg.eig's vectors can miss H V = V diag(E) on a badly
            # scaled H by less than its gate: no reference
            return
    if (closed is None) != (general is None):
        accepted = closed or general
        assert _near_a_gate_line(H) or _pair_check_within_rounding(H, accepted), (
            "one path raises DefectiveMatrixError, the other does not"
        )
    elif closed is not None:
        w, v = closed.eigenvalues, general.eigenvalues
        atol = max(_rounding_bound(H, closed), _rounding_bound(H, general))
        assert min(np.max(np.abs(w - v)), np.max(np.abs(w - v[::-1]))) <= atol


def _unit_complex(draw):
    return complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))


@st.composite
def _two_by_two(draw):
    """Random complex 2 x 2 matrices: generic, scalar or nearly so, nearly
    diagonal, and rotated Jordan blocks, exact or nearly so, at scales 1e-3
    to 1e3."""
    kind = draw(st.sampled_from(["generic", "scalar", "near_scalar", "nearly_diagonal", "nilpotent_like"]))
    z0, z1, z2, z3 = (_unit_complex(draw) for _ in range(4))
    eps = draw(st.sampled_from([0.0, 10.0 ** draw(st.floats(-16.0, -1.0))]))
    if kind == "generic":
        H = np.array([[z0, z1], [z2, z3]])
    elif kind == "scalar":
        H = np.array([[z0, 0.0], [0.0, z0]])
    elif kind == "near_scalar":
        H = z0 * np.eye(2) + eps * np.array([[z1, z2], [z3, -z1]])
    elif kind == "nearly_diagonal":
        H = np.array([[z0, eps * z1], [eps * z2, z3]])
    else:
        theta, phi = draw(st.floats(0.0, np.pi)), draw(st.floats(0.0, 2 * np.pi))
        R = np.array([[np.cos(theta), -np.sin(theta) * np.exp(1j * phi)],
                      [np.sin(theta) * np.exp(-1j * phi), np.cos(theta)]])
        H = R @ np.array([[z0, z1], [eps * z2, z0]]) @ R.conj().T
    return H * 10.0 ** draw(st.floats(-3.0, 3.0))


@settings(max_examples=300, deadline=None)
@given(H=_two_by_two())
# eig's vector fails H V = V diag(E) on both; the closed form raises on the
# first (a coalescing pair) and must hold on the second
@example(H=np.array([[0.0, 2.8e-143j], [1j, 1e-15j]]))
@example(H=np.array([[0.0, 2.8e-143j], [1j, 1j]]))
def test_two_level_closed_form_matches_the_general_path(H):
    _check_closed_form_against_general(H)


@settings(max_examples=200, deadline=None)
@given(coupling=st.floats(1e-2, 1e2), ratio=st.floats(0.9, 1.1), sign=st.sampled_from([-1.0, 1.0]))
@example(coupling=1.0, ratio=1.0, sign=1.0)
@example(coupling=1.0, ratio=1.0 + 1e-13, sign=1.0)
@example(coupling=1.0, ratio=1.0 - 1e-13, sign=-1.0)
@example(coupling=3.0, ratio=1.0 - 1e-9, sign=1.0)
@example(coupling=0.5, ratio=1.0 + 1e-7, sign=-1.0)
def test_two_level_closed_form_matches_the_general_path_near_the_exceptional_point(coupling, ratio, sign):
    _check_closed_form_against_general(TwoLevel(coupling).hamiltonian(sign * ratio * coupling))


@pytest.mark.parametrize(
    "H",
    [
        np.array([[1j, 0.0], [1.1920929e-13j, 1j]]),
        np.array([[0.3 - 0.2j, 4.0], [0.0, 0.3 - 0.2j]]),
        np.array([[2.0, -1e-9j], [0.0, 2.0]]),
    ],
)
def test_two_level_jordan_blocks_are_refused(H):
    # exactly defective: equal eigenvalues and a single eigenvector.  The
    # closed form's vectors are exactly parallel; np.linalg.eig returned an
    # overlap of 0.99999827 for the first, below the coalescing check's
    # 1 - 1e-6, and the general path passed it
    with pytest.raises(DefectiveMatrixError):
        eigendecompose(H)


def test_two_level_gates_raise():
    # each DefectiveMatrixError gate of the closed form: a Jordan block has
    # no second right vector (infinite overlap condition number), the PT
    # qubit 1e-13 past its exceptional point a coalescing pair, and either
    # gate fires on a clean matrix when its threshold is tightened
    with pytest.raises(DefectiveMatrixError, match="condition number inf"):
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DefectiveMatrixError, match="coalesce with parallel eigenvectors"):
        eigendecompose(TwoLevel(1.0).hamiltonian(1.0 + 1e-13))
    H = np.array([[1 + 2j, 0.3], [-0.7j, -0.5]])
    es = eigendecompose(H)
    assert 0 < es.biortho_residual < 1e-15 and 0 < es.completeness_residual < 1e-15
    with pytest.raises(DefectiveMatrixError, match="condition number"):
        eigendecompose(H, DEFAULT.with_(defective_cond=0.5))
    with pytest.raises(DefectiveMatrixError, match="biorthonormalization failed"):
        eigendecompose(H, DEFAULT.with_(defective_residual=1e-17))


@pytest.mark.parametrize(
    "H",
    [
        2.5 * np.eye(2),
        np.array([[1.0, 1e-200], [2e-200, 1.0]]),
        np.array([[1e200, 3e199], [-2e199j, -1e200]]),
        np.array([[1e-300, 3e-301], [-2e-301j, -1e-300]]),
    ],
    ids=["scalar", "tiny_traceless_part", "huge", "tiny"],
)
def test_two_level_far_scales_take_the_closed_form(H):
    # a scalar matrix, and traceless parts whose squares would leave the
    # normal floats: the closed form scales the traceless part by a power
    # of two, meets its equations to rounding and has the eig branch's
    # eigenvalues (the eig branch's vectors for the two eigenvalues of
    # tiny_traceless_part, equal in floats, are another valid basis)
    es, general = eigendecompose(H), _general(H)
    npt.assert_allclose(es.eigenvalues, general.eigenvalues, rtol=1e-15, atol=0)
    residual = np.abs(H @ es.right - es.right * es.eigenvalues).max()
    assert residual <= 1e-15 * np.abs(H).max()
    assert es.biortho_residual <= 1e-15 and es.completeness_residual <= 1e-15


@pytest.mark.parametrize(
    "H",
    [
        Oscillator(omega_ref=1.0, shift=0.5, n_basis=16).hamiltonian(1.3),
        HatanoNelson(length=12, asymmetry=0.3, potential=tuple(np.linspace(-0.4, 0.4, 12))).hamiltonian(),
        HatanoNelson(length=13, asymmetry=0.2, boundary="periodic").hamiltonian(),
    ],
    ids=["oscillator", "chain_open", "chain_periodic"],
)
def test_real_matrices_decompose_like_the_complex_solver(H):
    # the real solver's spectrum and spectral projectors are the complex one's
    assert not H.imag.any()
    w, vl, vr = scipy.linalg.eig(H, left=True, right=True)
    order = np.lexsort((w.imag, w.real))
    w, vl, vr = w[order], vl[:, order], vr[:, order]
    projectors = np.einsum("ik,jk->kij", vr, vl.conj()) / np.sum(vl.conj() * vr, axis=0)[:, None, None]
    es = eigendecompose(H)
    npt.assert_allclose(es.eigenvalues, w, rtol=0, atol=1e-12)
    npt.assert_allclose(np.einsum("ik,jk->kij", es.right, es.left.conj()), projectors, rtol=0, atol=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(2, 6),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    ep_offset=st.floats(-1e-13, 1e-13),
)
def test_projectors_match_scipy_and_near_ep_is_refused(dim, real, seed, ep_offset):
    # V diag(w) V^-1 with cond(V) <= 1e3 and real parts of w at least 0.1
    # apart (one sort order for both solvers); real V and w give a real H,
    # which takes the real solver above 2 x 2
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((dim, dim))
    if not real:
        V = V + 1j * rng.standard_normal((dim, dim))
    assume(np.linalg.cond(V) <= 1e3)
    w = np.cumsum(rng.uniform(0.1, 1.0, dim)) + (0.0 if real else 1j * rng.uniform(-1.0, 1.0, dim))
    H = V @ np.diag(w) @ np.linalg.inv(V)
    ws, vl, vr = scipy.linalg.eig(H, left=True, right=True)
    order = np.lexsort((ws.imag, ws.real))
    vl, vr = vl[:, order], vr[:, order]
    expected = np.einsum("ik,jk->kij", vr, vl.conj()) / np.sum(vl.conj() * vr, axis=0)[:, None, None]
    es = eigendecompose(H)
    # projector entries grow with cond(V), and so does their rounding
    projectors = np.einsum("ik,jk->kij", es.right, es.left.conj())
    assert np.max(np.abs(projectors - expected)) <= 1e-10 * np.max(np.abs(expected))
    # the two-level family within 1e-13 of its exceptional point, either side
    with pytest.raises(DefectiveMatrixError):
        eigendecompose(two_level_matrix(1.0 + ep_offset))


def test_eigenvalues_sorted_by_real_then_imag():
    H = np.diag([3.0, -1.0, 2.0]).astype(complex)
    es = eigendecompose(H)
    npt.assert_allclose(es.eigenvalues.real, [-1.0, 2.0, 3.0], atol=0)
    # the closed form's m -/+ s, with s = 5e-11 - 1j, rounds to equal real
    # parts, so the imaginary parts order the pair
    H = np.array([[1e6, -1 - 1e-10j], [1, 1e6]])
    assert eigendecompose(H).eigenvalues.tolist() == [1e6 - 1j, 1e6 + 1j]


def test_biorthonormality_and_completeness():
    es = eigendecompose(two_level_matrix(0.5))
    n = es.dim
    npt.assert_allclose(es.left.conj().T @ es.right, np.eye(n), atol=1e-12)
    npt.assert_allclose(es.right @ es.left.conj().T, np.eye(n), atol=1e-12)
    assert es.biortho_residual < 1e-10
    assert es.completeness_residual < 1e-9


def test_eigenvector_equations_hold():
    H = two_level_matrix(0.7)
    es = eigendecompose(H)
    for k in range(es.dim):
        npt.assert_allclose(H @ es.right[:, k], es.eigenvalues[k] * es.right[:, k], atol=1e-12)
        npt.assert_allclose(
            es.left[:, k].conj() @ H,
            es.eigenvalues[k] * es.left[:, k].conj(),
            atol=1e-12,
        )


_FAR_SCALE_PAIR = np.array([[0.0, 2.8e-143j], [1j, 1e-15j]])


@pytest.mark.parametrize(
    "H",
    [scipy.linalg.block_diag(_FAR_SCALE_PAIR, 5.0), 1e-141 * _FAR_SCALE_PAIR, 1e141 * _FAR_SCALE_PAIR],
    ids=["block_diag_3x3", "scaled_down", "scaled_up"],
)
def test_general_path_refuses_a_failed_eigenvector_equation(H):
    # np.linalg.eig pairs E = 0 with the vector [1, 0] of the 2 x 2 block, so
    # max|H V - V diag(E)| is 1 for the 3 x 3 matrix and the scale for the
    # scaled ones, which the eig branch takes only when made to; the closed
    # form refuses those too, their right vectors being nearly parallel
    with pytest.raises(DefectiveMatrixError, match="eigenvector equation"):
        _general(H)
    with pytest.raises(DefectiveMatrixError):
        eigendecompose(H)


def test_stacked_general_path_refuses_a_failed_eigenvector_equation():
    # the Carnot legs' batched eig above two levels: eig returns unit vectors
    # (cond(VR) = 1) that miss the eigenvector equation by 1 at every point
    H = np.repeat(scipy.linalg.block_diag([[0, 2.8e-143j], [1j, 1j]], 5)[:, :, None], 5, axis=2)
    values = np.linspace(0.25, 1.25, 5)
    with pytest.raises(DefectiveMatrixError, match=r"eigenvector equation fails at control value 0\.25"):
        linalg._eig_stack(H, values, DEFAULT)
    # a well-scaled stack passes, and its eigen-data meet the equation
    H = np.repeat(scipy.linalg.block_diag([[0, 0.5j], [1j, 1j]], 5)[:, :, None], 5, axis=2)
    E, VR, VLh, _, _ = linalg._eig_stack(H, values, DEFAULT)
    A, V = np.moveaxis(H, -1, 0), np.moveaxis(VR, -1, 0)
    assert np.abs(A @ V - V * np.moveaxis(E, -1, 0)[:, None, :]).max() <= 1e-14


def test_three_level_jordan_block_is_refused():
    # np.linalg.eig returns exactly parallel right vectors for the 3 x 3
    # nilpotent Jordan block, so inv(V) fails: an infinite condition number
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DefectiveMatrixError, match="condition number inf"):
            eigendecompose(np.diag([1.0, 1.0], 1))


def test_exceptional_point_is_defective():
    with pytest.raises(DefectiveMatrixError):
        eigendecompose(two_level_matrix(1.0))


def test_near_exceptional_point_is_defective():
    # a coalescing pair with nearly parallel eigenvectors must not slip
    # through as a clean decomposition
    with pytest.raises(DefectiveMatrixError):
        eigendecompose(two_level_matrix(1.0 + 1e-13))


def test_classify_all_real():
    sc = classify_spectrum([1.0, 2.0, 3.0])
    assert sc.kind is SpectrumKind.ALL_REAL
    assert sc.all_real and not sc.conjugate_paired


def test_classify_conjugate_paired():
    sc = classify_spectrum([1 + 1j, 1 - 1j, 2.0])
    assert sc.kind is SpectrumKind.CONJUGATE_PAIRED
    pairing = np.asarray(sc.pairing)
    w = np.array([1 + 1j, 1 - 1j, 2.0])
    npt.assert_allclose(w[pairing], np.conj(w), atol=1e-12)


def test_classify_generic_unpaired():
    sc = classify_spectrum([1 + 1j, 2.0])
    assert sc.kind is SpectrumKind.GENERIC
    assert sc.pairing is None


def test_build_metric_refuses_a_generic_spectrum():
    # 1 + i has no conjugate partner beside 2, so no metric intertwines H
    H = np.array([[1 + 1j, 0.3], [0.0, 2.0]])
    assert classify_spectrum(eigendecompose(H).eigenvalues).kind is SpectrumKind.GENERIC
    with pytest.raises(UnpairedSpectrumError, match="neither all-real nor conjugate-paired"):
        build_metric(eigendecompose(H))


def test_finiteness_checks_accept_non_contiguous_views():
    # transposes and column slices have a non-contiguous last axis
    H = TwoLevel().hamiltonian(0.3)
    npt.assert_array_equal(eigendecompose(H.T).eigenvalues, eigendecompose(H.T.copy()).eigenvalues)
    assert pseudo_hermiticity_residual(H.T, np.eye(2)) == pseudo_hermiticity_residual(H.T.copy(), np.eye(2))
    E = np.array([[1.0 + 0j, 2.0], [-1.0, 0.5j]])
    assert classify_spectrum(E[:, 0]).all_real
    bad = np.asfortranarray(H)
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        eigendecompose(bad)
    with pytest.raises(ValueError, match="non-finite"):
        classify_spectrum(np.array([[1.0, np.inf], [0.0, 1.0]], dtype=complex)[:, 1])


def test_conjugate_pairing_involution():
    w = [0.5, 2 - 0.25j, 2 + 0.25j, -1.0]
    pairing = conjugate_pairing(w, 1e-10)
    assert pairing is not None
    # pairing is an involution and maps each eigenvalue onto its conjugate
    npt.assert_array_equal(pairing[pairing], np.arange(4))
    npt.assert_allclose(np.asarray(w)[pairing], np.conj(w), atol=1e-12)
    assert conjugate_pairing([1 + 1j, 3.0], 1e-10) is None


def test_build_metric_matches_analytic_two_level():
    lam = 0.5
    es = eigendecompose(two_level_matrix(lam))
    g = build_metric(es)
    analytic = np.array([[1.0, -1j * lam], [1j * lam, 1.0]], dtype=complex)
    ratio = g.g / analytic
    npt.assert_allclose(ratio, ratio[0, 0] * np.ones((2, 2)), atol=1e-8)
    assert g.positive_definite
    assert g.min_eigenvalue > 0
    # analytic eigenvalues are proportional to 2(1 +- lam): ratio 3 at 0.5
    w = np.linalg.eigvalsh(g.g)
    npt.assert_allclose(w[1] / w[0], 3.0, atol=1e-8)
    npt.assert_allclose(g.g @ g.g_inverse, np.eye(2), atol=1e-12)


def test_metric_intertwines_hamiltonian():
    lam = 0.7
    H = two_level_matrix(lam)
    # H is genuinely non-hermitian: ||H - H^dag||_F = 2 lam sqrt(2)
    npt.assert_allclose(np.linalg.norm(H - H.conj().T), 2 * lam * np.sqrt(2), atol=1e-12)
    assert pseudo_hermiticity_residual(H, SIGMA_X) < 1e-12
    g = build_metric(eigendecompose(H))
    assert pseudo_hermiticity_residual(H, g) < 1e-10


def test_metric_indefinite_for_paired_spectrum():
    H = np.array([[1.0, 2.0], [-2.0, 1.0]], dtype=complex)  # eigenvalues 1 +- 2i
    es = eigendecompose(H)
    assert classify_spectrum(es.eigenvalues).conjugate_paired
    g = build_metric(es)
    assert not g.positive_definite
    assert g.min_eigenvalue < 0
    npt.assert_allclose(g.g, g.g.conj().T, atol=1e-12)
    assert pseudo_hermiticity_residual(H, g) < 1e-10


def test_g_inner_sigma_x():
    e1 = np.array([1.0, 0.0])
    assert abs(g_inner(e1, e1, SIGMA_X)) < 1e-15
    u = np.array([1.0, 0.5j])
    v = np.array([0.2, -1.0])
    assert g_inner(u, v, SIGMA_X) == pytest.approx(np.conj(g_inner(v, u, SIGMA_X)))


def test_g_trace_equals_ordinary_trace(rng):
    H, _ = random_real_spectrum_matrix(rng, 5)
    es = eigendecompose(H)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    npt.assert_allclose(g_trace(A, es), np.trace(A), atol=1e-9)


def test_save_load_roundtrip(tmp_path, rng):
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "m.txt"
    save_matrix(path, M)
    lines = path.read_text().splitlines()
    assert lines[0] == "4"
    assert len(lines) == 5
    npt.assert_array_equal(load_matrix(path), M)


def test_load_matrix_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("oops\n")
    with pytest.raises(ValueError):
        load_matrix(path)


@pytest.mark.parametrize("cell", ["0,0,7", "1", "1,", "1,2,"])
def test_load_matrix_cell_holds_one_pair(tmp_path, cell):
    path = tmp_path / "bad.txt"
    path.write_text(f"2\n1,0 0,0\n0,0 {cell}\n")
    with pytest.raises(ValueError, match="row 1"):
        load_matrix(path)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_random_real_spectrum_properties(rng, dim):
    for _ in range(5):
        H, eigs = random_real_spectrum_matrix(rng, dim)
        es = eigendecompose(H)
        npt.assert_allclose(es.eigenvalues.real, eigs, atol=1e-8)
        assert np.max(np.abs(es.eigenvalues.imag)) < 1e-8
        assert es.biortho_residual < 1e-10
        assert es.completeness_residual < 1e-9
        g = build_metric(es)
        assert g.positive_definite
        assert pseudo_hermiticity_residual(H, g) < 1e-8
        sc = classify_spectrum(es.eigenvalues, 1e-8)
        assert sc.all_real
