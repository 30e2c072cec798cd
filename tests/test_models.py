"""Model builders: two-level system, shifted oscillator, asymmetric chain."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudotherm import (
    DEFAULT,
    DefectiveMatrixError,
    HatanoNelson,
    Oscillator,
    SpectrumKind,
    TwoLevel,
    build_metric,
    classify_spectrum,
    eigendecompose,
    pseudo_hermiticity_residual,
    relaxation_time,
)

from conftest import SIGMA_X


class TestTwoLevel:
    def test_matrix_layout(self):
        H = TwoLevel().hamiltonian(0.3)
        npt.assert_array_equal(H, np.array([[0.3j, 1.0], [1.0, -0.3j]]))

    def test_coupling_scales_offdiagonal(self):
        H = TwoLevel(coupling=2.5).hamiltonian(0.0)
        npt.assert_array_equal(H, 2.5 * SIGMA_X)

    @pytest.mark.parametrize("lam, gap", [(0.0, 1.0), (0.6, 0.8), (0.5, 0.8660254037844386)])
    def test_closed_form_eigenvalues(self, lam, gap):
        m = TwoLevel()
        es = eigendecompose(m.hamiltonian(lam))
        npt.assert_allclose(es.eigenvalues, [-gap, gap], atol=1e-12)
        npt.assert_allclose(np.sort(m.eigenvalues_closed_form(lam)), [-gap, gap], atol=1e-15)

    def test_defective_at_critical_point(self):
        with pytest.raises(DefectiveMatrixError):
            eigendecompose(TwoLevel().hamiltonian(1.0))

    def test_analytic_metric(self):
        lam = 0.45
        m = TwoLevel()
        npt.assert_allclose(
            m.metric(lam),
            2.0 * np.array([[1.0, -1j * lam], [1j * lam, 1.0]]),
            atol=1e-15,
        )
        assert pseudo_hermiticity_residual(m.hamiltonian(lam), m.metric(lam)) < 1e-12
        assert pseudo_hermiticity_residual(m.hamiltonian(lam), SIGMA_X) < 1e-12
        npt.assert_allclose(m.metric(lam) @ m.metric_inverse(lam), np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("v", [1.0, -1.0, 1.5, np.array([0.2, 1.0, 1.0 + 1e-15, -0.999])])
    def test_hermitian_frame_exists_below_the_exceptional_point_only(self, v):
        finite = np.isfinite(TwoLevel().hermitian_frame(v)).all(axis=(-2, -1))
        npt.assert_array_equal(finite, np.abs(v) < 1.0)

    def test_constructed_metric_proportional_to_analytic(self):
        for lam in (-0.8, -0.3, 0.2, 0.7):
            g = build_metric(eigendecompose(TwoLevel().hamiltonian(lam))).g
            analytic = np.array([[1.0, -1j * lam], [1j * lam, 1.0]])
            ratio = g / analytic
            npt.assert_allclose(ratio, ratio[0, 0] * np.ones((2, 2)), atol=1e-8)

    @pytest.mark.parametrize("lam", [0.3, -0.5, 0.95])
    def test_metric_eigenvalues_inside_unbroken_region(self, lam):
        w = np.linalg.eigvalsh(TwoLevel().metric(lam))
        npt.assert_allclose(w, [2 * (1 - abs(lam)), 2 * (1 + abs(lam))], atol=1e-12)
        assert TwoLevel().metric_min_eigenvalue(lam) == pytest.approx(2 * (1 - abs(lam)))

    def test_metric_degenerates_outside(self):
        assert TwoLevel().metric_min_eigenvalue(1.2) < 0

    def test_metric_rate_is_derivative(self):
        m = TwoLevel()
        lam, dlam = 0.4, 0.7
        h = 1e-7
        numeric = (m.metric(lam + h) - m.metric(lam - h)) / (2 * h) * dlam
        npt.assert_allclose(m.metric_rate(lam, dlam), numeric, atol=1e-7)


class TestOscillator:
    def test_reference_frequency_gives_exact_ladder(self):
        m = Oscillator(omega_ref=0.5, shift=0.0, n_basis=24)
        H = m.hamiltonian(0.5)
        npt.assert_allclose(H, np.diag(np.diag(H)), atol=1e-14)
        npt.assert_allclose(np.diag(H).real, 0.5 * (np.arange(24) + 0.5), atol=1e-13)

    def test_hermitian_limit_ladder(self):
        # away from the reference frequency the low ladder still converges
        m = Oscillator(omega_ref=1.0, shift=0.0, n_basis=40)
        e = np.sort(np.linalg.eigvalsh(m.hamiltonian(0.7)))
        npt.assert_allclose(e[:10], 0.7 * (np.arange(10) + 0.5), atol=1e-6)

    def test_shifted_trap_keeps_real_ladder(self):
        # shift = 1, omega = 0.5, basis 40: the spectrum does not depend on
        # the shift; the raw matrix is near-defective at the top of the
        # basis, so only the eigenvalues are checked here
        loose = DEFAULT.with_(spectrum_imag=100.0, defective_residual=1.0, defective_cond=1e18)
        m = Oscillator(omega_ref=0.5, shift=1.0, n_basis=40)
        e = np.sort(eigendecompose(m.hamiltonian(0.5), loose).eigenvalues.real)
        npt.assert_allclose(e[:10], 0.5 * (np.arange(10) + 0.5), atol=1e-6)

    def test_shift_gauge_equivalence_clean_decomposition(self):
        # moderate size keeps the biorthogonal decomposition clean; the
        # shifted and unshifted spectra agree on the unpolluted low block
        base = Oscillator(omega_ref=1.0, shift=0.0, n_basis=32)
        shifted = Oscillator(omega_ref=1.0, shift=0.6, n_basis=32)
        e0 = np.sort(eigendecompose(base.hamiltonian(0.8)).eigenvalues.real)
        es = eigendecompose(shifted.hamiltonian(0.8), DEFAULT.with_(spectrum_imag=100.0))
        e1 = np.sort(es.eigenvalues.real)
        assert es.biortho_residual < 1e-10
        npt.assert_allclose(e0[:12], e1[:12], atol=1e-6)

    def test_hermitian_frame_is_hermitian_and_isospectral(self):
        m = Oscillator(omega_ref=1.0, shift=0.6, n_basis=24)
        h = m.hermitian_frame(1.0)
        npt.assert_allclose(h, h.conj().T, atol=1e-14)
        # at the reference frequency the frame is the exact ladder, which
        # the shifted matrix shares
        e_frame = np.sort(np.linalg.eigvalsh(h))
        e_raw = np.sort(eigendecompose(m.hamiltonian(1.0), DEFAULT.with_(spectrum_imag=100.0)).eigenvalues.real)
        npt.assert_allclose(e_frame[:12], e_raw[:12], atol=1e-10)

    def test_commutator_identity_interior_block(self):
        # exp(2 xi X) P exp(-2 xi X) = P + 2i xi on levels far from the
        # truncation edge
        xi = 0.3
        m = Oscillator(omega_ref=1.0, shift=xi, n_basis=40)
        lhs = m.position_exponential(2 * xi) @ m.momentum @ m.position_exponential(-2 * xi)
        rhs = m.momentum + 2j * xi * np.eye(40)
        assert np.max(np.abs((lhs - rhs)[:20, :20])) < 1e-10

    def test_metric_is_position_exponential(self):
        m = Oscillator(omega_ref=1.0, shift=0.4, n_basis=16)
        npt.assert_allclose(m.metric(), scipy.linalg.expm(2 * 0.4 * m.position), atol=1e-10)
        npt.assert_allclose(m.metric() @ m.position_exponential(-2 * 0.4), np.eye(16), atol=1e-9)
        assert np.linalg.eigvalsh(m.metric()).min() > 0
        assert m.metric_is_static  # a static metric declares metric() alone

    def test_ladder_energies_helper(self):
        m = Oscillator(omega_ref=1.0, n_basis=12)
        npt.assert_allclose(m.ladder_energies(0.3, 4), 0.3 * np.array([0.5, 1.5, 2.5, 3.5]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Oscillator(omega_ref=-1.0)
        with pytest.raises(ValueError):
            Oscillator(omega_ref=1.0, n_basis=4)


class TestHatanoNelson:
    def test_open_hermitian_limit(self):
        L, t = 6, 1.3
        m = HatanoNelson(length=L, hopping=t, asymmetry=0.0, boundary="open")
        e = np.sort(np.linalg.eigvalsh(m.hamiltonian()))
        expected = np.sort(-t * np.cos(np.pi * np.arange(1, L + 1) / (L + 1)))
        npt.assert_allclose(e, expected, atol=1e-12)

    def test_periodic_ellipse_spectrum(self):
        m = HatanoNelson(length=4, hopping=1.0, asymmetry=0.5, boundary="periodic")
        w = np.linalg.eigvals(m.hamiltonian())
        k = 2 * np.pi * np.arange(4) / 4
        expected = -(np.cosh(0.5) * np.cos(k) + 1j * np.sinh(0.5) * np.sin(k))
        # sort both by rounded (re, im) keys; +-0.0 real parts make the
        # default complex sort unstable
        key = lambda z: (round(z.real, 9), round(z.imag, 9))
        w = sorted(w.tolist(), key=key)
        expected = sorted(expected.tolist(), key=key)
        npt.assert_allclose(w, expected, atol=1e-12)
        sc = classify_spectrum(w)
        assert sc.kind is SpectrumKind.CONJUGATE_PAIRED

    def test_open_spectrum_all_real_any_asymmetry(self):
        m = HatanoNelson(length=8, hopping=1.0, asymmetry=0.5, boundary="open")
        es = eigendecompose(m.hamiltonian())
        assert classify_spectrum(es.eigenvalues).all_real
        # gauge equivalence: D H D^-1 with D = diag(e^{alpha x}) is the
        # hermitian chain
        D = np.diag(np.exp(0.5 * np.arange(8)))
        mapped = D @ m.hamiltonian() @ np.linalg.inv(D)
        hermitian = HatanoNelson(length=8, hopping=1.0, asymmetry=0.0, boundary="open").hamiltonian()
        npt.assert_allclose(mapped, hermitian, atol=1e-12)

    def test_onsite_potential_enters_diagonal(self):
        V = [0.1, -0.2, 0.3, 0.0, 0.05]
        m = HatanoNelson(length=5, hopping=1.0, asymmetry=0.2, potential=tuple(V), boundary="open")
        npt.assert_allclose(np.diag(m.hamiltonian()).real, V, atol=0)

    def test_diagonal_metric_intertwines(self):
        m = HatanoNelson(length=6, hopping=1.0, asymmetry=0.7, boundary="open")
        g = m.metric()
        assert pseudo_hermiticity_residual(m.hamiltonian(), g) < 1e-12
        npt.assert_allclose(g, g.conj().T, atol=0)
        assert np.min(np.linalg.eigvalsh(g)) > 0

    def test_periodic_metric_indefinite(self):
        m = HatanoNelson(length=4, hopping=1.0, asymmetry=0.5, boundary="periodic")
        g = build_metric(eigendecompose(m.hamiltonian()))
        assert not g.positive_definite
        assert pseudo_hermiticity_residual(m.hamiltonian(), g) < 1e-10

    def test_length_validation(self):
        with pytest.raises(ValueError):
            HatanoNelson(length=1, hopping=1.0, asymmetry=0.0)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda x: TwoLevel(x), "coupling"),
        (lambda x: Oscillator(omega_ref=x), "omega_ref"),
        (lambda x: Oscillator(omega_ref=1.0, shift=x), "shift"),
        (lambda x: Oscillator(omega_ref=1.0, mass=x), "mass"),
        (lambda x: HatanoNelson(length=4, hopping=x), "hopping"),
        (lambda x: HatanoNelson(length=4, asymmetry=x), "asymmetry"),
        (lambda x: HatanoNelson(length=2, potential=(0.0, x)), "potential"),
    ],
    ids=["two-level-coupling", "omega_ref", "shift", "mass", "hopping", "asymmetry", "potential"],
)
@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
def test_models_refuse_non_finite_parameters(build, match, x):
    # a non-finite parameter would otherwise surface later as NaN matrices
    # or an unnamed error, or not at all on the hermitian frame route
    with pytest.raises(ValueError, match=match):
        build(x)


def test_two_level_refuses_a_zero_coupling():
    # the metric divides by the coupling
    with pytest.raises(ValueError, match="coupling must be finite and nonzero"):
        TwoLevel(0.0)


@pytest.mark.parametrize("lam", [0.2, 0.5, 0.8, 0.95])
def test_relaxation_time_analytic(lam):
    es = eigendecompose(TwoLevel().hamiltonian(lam))
    expected = 1.0 / (2.0 * np.sqrt(1.0 - lam * lam))
    assert relaxation_time(es.eigenvalues) == pytest.approx(expected, abs=1e-12)


def test_relaxation_time_diverges_near_critical_point():
    t_far = relaxation_time(eigendecompose(TwoLevel().hamiltonian(0.2)).eigenvalues)
    t_near = relaxation_time(eigendecompose(TwoLevel().hamiltonian(0.9999)).eigenvalues)
    assert t_near > 35.0
    assert t_near / t_far > 60.0


@pytest.mark.parametrize("v", [0.7, np.array([0.3, 1.0, 1.7])])
@pytest.mark.parametrize("model", [Oscillator(1.0, 0.4, 10), Oscillator(0.2, 1.0, 28, mass=1.5)])
def test_oscillator_terms_are_its_families(model, v):
    # the terms against the two families written out, and both families
    # against H0 + f(v) H1 of their terms, exactly
    P2, X2, m, s = model._p_squared, model._x_squared, model.mass, model.shift
    trap = 0.5 * m * np.asarray(v) ** 2
    raw = (P2 - 2j * s * model.momentum - s**2 * np.eye(model.n_basis)) / (2.0 * m)
    for (H0, H1, f), kinetic, family in (
        (model.hamiltonian_terms(), raw, model.hamiltonian),
        (model.hermitian_frame_terms(), P2 / (2.0 * m), model.hermitian_frame),
    ):
        npt.assert_array_equal(H0, kinetic)
        npt.assert_array_equal(H1, X2)
        npt.assert_array_equal(f(v), trap)
        npt.assert_array_equal(family(v), kinetic + trap[..., None, None] * X2)
        npt.assert_array_equal(family(v), H0 + f(v)[..., None, None] * H1)
    assert model.hermitian_frame_terms()[0] is model.hermitian_frame_terms()[0]  # cached


def _metric_root(model, v) -> np.ndarray:
    """S = metric(v)^(1/2), from eigh."""
    w, V = np.linalg.eigh(model.metric(v))
    return (V * np.sqrt(w)) @ V.conj().T


@settings(max_examples=200, deadline=None)
@given(
    coupling=st.floats(0.05, 20.0) | st.floats(-20.0, -0.05),
    mu=st.tuples(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99)),
)
def test_two_level_frame_is_the_image_under_the_metric_root(coupling, mu):
    # h = S H S^-1 with S = g^(1/2), in closed form; S at any two drive
    # values commute, so S and its rate do, and the frame has no connection
    model = TwoLevel(coupling)
    v1, v2 = (coupling * m for m in mu)
    S1, S2 = _metric_root(model, v1), _metric_root(model, v2)
    H = model.hamiltonian(v1)
    frame = model.hermitian_frame(v1)
    assert np.max(np.abs(S1 @ H @ np.linalg.inv(S1) - frame)) <= 1e-12 * np.linalg.norm(H)
    npt.assert_array_equal(frame, frame.conj().T)
    assert np.max(np.abs(S1 @ S2 - S2 @ S1)) <= 1e-12


_BATCHED_METHODS = ("hamiltonian", "hermitian_frame", "metric", "metric_inverse", "metric_min_eigenvalue")


@pytest.mark.parametrize(
    "model, values",
    [
        (TwoLevel(coupling=1.3), np.array([-0.9, -0.2, 0.0, 0.35, 1.1])),
        (Oscillator(omega_ref=1.0, shift=0.4, n_basis=10), np.array([0.7, 1.0, 1.6])),
        (Oscillator(omega_ref=1.0, shift=-0.3, n_basis=9), np.array([0.5, 2.0])),
        (HatanoNelson(length=5, asymmetry=0.3, potential=(0.1, -0.2, 0.0, 0.3, 0.2)), np.array([0.0, 1.0])),
        (HatanoNelson(length=6, asymmetry=0.2, boundary="periodic"), np.array([0.0, 0.5, 2.0])),
    ],
)
def test_batched_methods_equal_stacked_scalar_calls(model, values):
    for name in _BATCHED_METHODS:
        method = getattr(model, name, None)
        if method is None:
            continue
        batched = method(values)
        assert batched.shape[0] == len(values)
        npt.assert_array_equal(batched, np.stack([method(float(v)) for v in values]))
    if model.metric_is_static:  # only a moving metric declares metric_rate
        return
    rates = np.linspace(-1.0, 2.0, len(values))
    npt.assert_array_equal(
        model.metric_rate(values, rates),
        np.stack([model.metric_rate(float(v), float(r)) for v, r in zip(values, rates)]),
    )
