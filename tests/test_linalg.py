"""Biorthogonal eigensystems, spectrum classes, and metric construction."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from pseudotherm import (
    DEFAULT,
    DefectiveMatrixError,
    HatanoNelson,
    Oscillator,
    SpectrumKind,
    TwoLevel,
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
        TwoLevel().hamiltonian(0.5),
        Oscillator(omega_ref=2.0, shift=1.0, n_basis=28).hamiltonian(2.4),
        HatanoNelson(length=40, hopping=1.0, asymmetry=0.3, boundary="open").hamiltonian(),
        HatanoNelson(length=40, hopping=1.0, asymmetry=0.3, boundary="periodic").hamiltonian(),
    ],
    ids=["two_level", "oscillator", "chain_open", "chain_periodic"],
)
def test_phase_convention_matches_per_column_loop(H):
    # the per-column loop the vectorised phase convention replaced, applied
    # to the same sorted eig output and biorthonormal left vectors
    w, vl, vr = scipy.linalg.eig(H, left=True, right=True)
    order = np.lexsort((w.imag, w.real))
    vl, vr = vl[:, order], vr[:, order]
    left = np.linalg.solve(vl.conj().T @ vr, vl.conj().T).conj().T
    for k in range(vr.shape[1]):
        j = int(np.argmax(np.abs(vr[:, k])))
        ph = vr[j, k] / abs(vr[j, k])
        vr[:, k] = vr[:, k] / ph
        left[:, k] = left[:, k] / ph
    es = eigendecompose(H)
    npt.assert_array_equal(es.right, vr)
    npt.assert_array_equal(es.left, left)


def test_eigenvalues_sorted_by_real_then_imag():
    H = np.diag([3.0, -1.0, 2.0]).astype(complex)
    es = eigendecompose(H)
    npt.assert_allclose(es.eigenvalues.real, [-1.0, 2.0, 3.0], atol=0)


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
