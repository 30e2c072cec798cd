"""Thermal states, two-time work statistics, and the quasistatic cycle."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pseudotherm import (
    DEFAULT,
    ComplexPartitionFunctionError,
    DefectiveMatrixError,
    HatanoNelson,
    IsentropeNotFoundError,
    NonRealResultError,
    Oscillator,
    Protocol,
    TwoLevel,
    eigendecompose,
    entropy,
    free_energy,
    internal_energy,
    jarzynski_report,
    partition_function,
    projector,
    quasistatic_cycle,
    thermal_state,
    transition_matrix,
    two_time_work,
    work_distribution,
)
from pseudotherm import thermo
from pseudotherm.thermo import _g_normalized_columns


class TestPartitionFunction:
    def test_two_level_value(self):
        Z = partition_function([-1.0, 1.0], 1.0)
        assert Z == pytest.approx(np.exp(1) + np.exp(-1))  # ~3.0862
        assert free_energy(Z, 1.0) == pytest.approx(-np.log(np.exp(1) + np.exp(-1)))

    def test_oscillator_geometric_series(self):
        # long exact ladder reproduces 1/(2 sinh(beta omega / 2))
        ladder = 0.2 * (np.arange(400) + 0.5)
        Z = partition_function(ladder, 1.0)
        assert Z == pytest.approx(1.0 / (2.0 * np.sinh(0.1)), abs=1e-12)  # ~4.9917

    def test_conjugate_pairs_give_real_value(self):
        m = HatanoNelson(length=4, hopping=1.0, asymmetry=0.5, boundary="periodic")
        Z = partition_function(np.linalg.eigvals(m.hamiltonian()), 1.0)
        assert abs(Z.imag) < 1e-14

    def test_free_energy_trivial_and_gate(self):
        assert free_energy(1.0, 2.0) == 0.0
        with pytest.raises(ComplexPartitionFunctionError):
            free_energy(2.0 + 0.5j, 1.0)
        with pytest.raises(ComplexPartitionFunctionError):
            free_energy(-3.0, 1.0)

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            partition_function([1.0], -1.0)


class TestThermalState:
    def test_populations_normalized(self):
        st = thermal_state([-1.0, 0.5, 2.0], 1.3)
        assert st.eigen_populations.sum() == pytest.approx(1.0)
        assert np.all(st.eigen_populations > 0)
        assert st.F.real == pytest.approx(-np.log(st.Z.real) / 1.3)

    def test_internal_energy_two_level(self):
        st = thermal_state([-1.0, 1.0], 1.0)
        assert internal_energy(st) == pytest.approx(-np.tanh(1.0))
        S = entropy(st)
        assert S == pytest.approx(np.log(np.exp(1) + np.exp(-1)) - np.tanh(1.0))

    def test_ground_state_limit(self):
        st = thermal_state([-1.0, 1.0], 200.0)
        assert internal_energy(st) == pytest.approx(-1.0, abs=1e-12)
        assert entropy(st) == pytest.approx(0.0, abs=1e-10)

    def test_paired_spectrum_passes_reality_gate(self):
        m = HatanoNelson(length=4, hopping=1.0, asymmetry=0.5, boundary="periodic")
        st = thermal_state(np.linalg.eigvals(m.hamiltonian()), 1.0)
        E = internal_energy(st)
        S = entropy(st)
        assert isinstance(E, float) and isinstance(S, float)

    def test_generic_spectrum_trips_reality_gate(self):
        st = thermal_state([2.0 + 1.0j, 1.0, 3.0], 1.0)
        with pytest.raises(NonRealResultError):
            internal_energy(st)
        with pytest.raises(NonRealResultError):
            entropy(st)


class TestProjector:
    def test_two_level_idempotent_complete(self):
        es = eigendecompose(TwoLevel().hamiltonian(0.5))
        p1, p2 = projector(0, es), projector(1, es)
        npt.assert_allclose(p1 @ p1, p1, atol=1e-12)
        npt.assert_allclose(p2 @ p2, p2, atol=1e-12)
        npt.assert_allclose(p1 + p2, np.eye(2), atol=1e-12)
        npt.assert_allclose(p1 @ p2, np.zeros((2, 2)), atol=1e-12)

    def test_projector_weights_gibbs_state(self):
        es = eigendecompose(TwoLevel().hamiltonian(0.3))
        st = thermal_state(es.eigenvalues, 1.2)
        rho = sum(st.eigen_populations[k] * projector(k, es) for k in range(2))
        for n in range(2):
            assert np.trace(projector(n, es) @ rho).real == pytest.approx(
                st.eigen_populations[n], abs=1e-12
            )


class TestTransitionMatrix:
    def test_frozen_protocol_is_diagonal(self):
        model = TwoLevel()
        res = two_time_work(model, Protocol.linear(0.4, 0.4, 0.6), 1.0)
        st = thermal_state(res.energies_initial, 1.0)
        npt.assert_allclose(res.p, np.diag(st.eigen_populations), atol=1e-10)
        assert res.report.exp_avg_work == pytest.approx(1.0, abs=1e-10)
        assert abs(res.report.irreversible_work) < 1e-10

    def test_sudden_quench_overlap_oracle(self):
        # U = I: compare against an explicit loop over g-normalized vectors
        model = TwoLevel()
        eig0 = eigendecompose(model.hamiltonian(0.0))
        eigT = eigendecompose(model.hamiltonian(0.5))
        g0, gT = model.metric(0.0), model.metric(0.5)
        st = thermal_state(eig0.eigenvalues, 1.0)
        p = transition_matrix(eig0, eigT, g0, gT, np.eye(2), st)

        psi0 = _g_normalized_columns(eig0.right, g0)
        psiT = _g_normalized_columns(eigT.right, gT)
        expected = np.empty((2, 2))
        for n in range(2):
            for m in range(2):
                amp = psiT[:, m].conj() @ gT @ psi0[:, n]
                expected[n, m] = st.eigen_populations[n] * abs(amp) ** 2
        npt.assert_allclose(p, expected, atol=1e-12)
        assert np.all(p >= 0)

    def test_row_sums_track_populations(self):
        model = TwoLevel()
        res = two_time_work(model, Protocol.linear(0.0, 0.5, 1.0), 1.0)
        st = thermal_state(res.energies_initial, 1.0)
        npt.assert_allclose(res.p.sum(axis=1), st.eigen_populations, atol=1e-8)
        assert res.row_sum_defect < 1e-8


class TestWorkDistribution:
    def test_two_level_entries(self):
        res = two_time_work(TwoLevel(), Protocol.linear(0.0, 0.5, 1.0), 1.0)
        wd = res.work
        assert len(wd.entries) == 4
        gap = np.sqrt(1 - 0.25)
        expected_w = sorted([-gap - (-1.0), gap - (-1.0), -gap - 1.0, gap - 1.0])
        npt.assert_allclose(sorted(w for w, _ in wd.entries), expected_w, atol=1e-10)
        total = sum(p for _, p in wd.entries)
        assert total == pytest.approx(1.0, abs=1e-9)
        assert all(p >= 0 for _, p in wd.entries)
        assert wd.Emin_initial == pytest.approx(-1.0)
        assert wd.Emin_final == pytest.approx(-gap)

    def test_index_mismatch_rejected(self):
        es = eigendecompose(TwoLevel().hamiltonian(0.0))
        with pytest.raises(ValueError):
            work_distribution(np.ones((2, 2)), es, es, 1.0, rows=[0], cols=[0, 1])


class TestJarzynski:
    def test_two_level_linear_quench(self):
        res = two_time_work(TwoLevel(), Protocol.linear(0.0, 0.5, 1.0), 1.0)
        rep = res.report
        assert rep.relative_residual < 1e-6
        Z0 = partition_function(res.energies_initial, 1.0).real
        Zt = partition_function(res.energies_final, 1.0).real
        assert rep.exp_delta_F == pytest.approx(Zt / Z0, abs=1e-12)
        assert rep.irreversible_work == pytest.approx(rep.mean_work - rep.delta_F, abs=1e-12)
        assert rep.irreversible_work >= -1e-8
        assert rep.relative_residual == pytest.approx(
            abs(rep.exp_avg_work - rep.exp_delta_F) / rep.exp_delta_F, abs=1e-15
        )

    def test_oscillator_quench_consistent(self):
        # small shifted trap; populations referenced to the full-spectrum
        # partition function, so the entry total may undershoot by at most
        # the trimmed Gibbs mass
        model = Oscillator(omega_ref=0.3, shift=0.4, n_basis=16)
        res = two_time_work(model, Protocol.erf(0.3, 0.45, 0.4), 6.5)
        rep = res.report
        assert rep.relative_residual < 1e-8
        assert rep.irreversible_work >= -1e-8
        assert res.row_sum_defect < 1e-10
        total = sum(p for _, p in res.work.entries)
        assert 1.0 - 1e-7 <= total <= 1.0 + 1e-12

    def test_report_identity_protocol(self):
        wd = work_distribution(np.diag([0.7, 0.3]).astype(float),
                               eigendecompose(TwoLevel().hamiltonian(0.2)),
                               eigendecompose(TwoLevel().hamiltonian(0.2)),
                               2.0)
        rep = jarzynski_report(wd)
        assert rep.exp_avg_work == pytest.approx(1.0)
        assert rep.exp_delta_F == pytest.approx(1.0)
        assert rep.mean_work == pytest.approx(0.0, abs=1e-12)


class TestQuasistaticCycle:
    def test_hermitian_engine_hits_carnot(self):
        # coupling sweep with the control frozen: E = +/- gamma, so the
        # isentropes are exact and the telescoped first law is tight
        def family(gamma):
            return TwoLevel(coupling=gamma).hamiltonian(0.0)

        rep = quasistatic_cycle(family, 2.0, 1.0, (1.0, 0.75, 0.375, 0.5), 2000)
        assert rep.carnot_bound == pytest.approx(0.5)
        assert rep.efficiency == pytest.approx(0.5, abs=1e-12)
        assert rep.first_law_defect < 1e-12
        assert rep.Q_hot > 0 and rep.Q_cold > 0 and rep.W_net > 0

    def test_pseudo_hermitian_engine_matches(self):
        g = 0.85
        legs = (0.0, 0.4, np.sqrt(g * g - 0.375**2), np.sqrt(g * g - 0.425**2))
        rep = quasistatic_cycle(TwoLevel(coupling=g), 2.0, 1.0, legs, 4000)
        assert abs(rep.efficiency - 0.5) < 1e-4
        assert rep.efficiency <= rep.carnot_bound + 1e-5
        assert rep.first_law_defect < 1e-5 * abs(rep.Q_hot)
        assert rep.g_trace_crosscheck < 1e-10
        # every recorded entropy is a finite real
        legs_seen = {leg for leg, _, _ in rep.entropy_trace}
        assert len(legs_seen) == 4
        values = np.array([s for _, _, s in rep.entropy_trace])
        assert np.all(np.isfinite(values))

    def test_discretization_error_shrinks_quadratically(self):
        g = 0.85
        legs = (0.0, 0.4, np.sqrt(g * g - 0.375**2), np.sqrt(g * g - 0.425**2))
        err = [
            abs(quasistatic_cycle(TwoLevel(coupling=g), 2.0, 1.0, legs, n).efficiency - 0.5)
            for n in (1000, 4000)
        ]
        assert err[1] < err[0] / 8  # expect ~16x for a 4x refinement

    def test_infeasible_legs_raise(self):
        with pytest.raises(IsentropeNotFoundError):
            quasistatic_cycle(TwoLevel(coupling=1.0), 2.0, 1.0, (0.0, 0.4, 0.8, 0.7), 2000)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            quasistatic_cycle(TwoLevel(), 1.0, 2.0, (0.0, 0.1, 0.2, 0.1), 1000)
        with pytest.raises(ValueError):
            quasistatic_cycle(TwoLevel(), 2.0, 1.0, (0.0, 0.1, 0.2), 1000)

    @pytest.mark.parametrize(
        "T_hot, T_cold, legs, message",
        [
            (np.inf, 1.0, (0.0, 0.1, 0.2, 0.1), "need finite"),
            (2.0, np.nan, (0.0, 0.1, 0.2, 0.1), "need finite"),
            (np.nan, 1.0, (0.0, 0.1, 0.2, 0.1), "need finite"),
            (2.0, 1.0, (0.0, np.nan, 0.2, 0.1), "leg_points must be finite"),
        ],
    )
    def test_non_finite_arguments_raise(self, T_hot, T_cold, legs, message):
        # T_hot = inf used to run and fail with "hot isotherm released heat"
        with pytest.raises(ValueError, match=message):
            quasistatic_cycle(TwoLevel(), T_hot, T_cold, legs, 1000)

    def test_energy_crosscheck_is_live(self, monkeypatch):
        # a leg spectrum off by 1e-6 from the H it claims to diagonalize
        # must show in the crosscheck; a uniform shift leaves the entropies
        # and the accounting untouched
        eig2 = thermo._eig2

        def shifted(H, values, tol):
            E, VR, VLh = eig2(H, values, tol)
            return E + 1e-6, VR, VLh

        g = 0.85
        legs = (0.0, 0.4, np.sqrt(g * g - 0.375**2), np.sqrt(g * g - 0.425**2))
        assert quasistatic_cycle(TwoLevel(g), 2.0, 1.0, legs, 4000).g_trace_crosscheck < 1e-10
        monkeypatch.setattr(thermo, "_eig2", shifted)
        assert quasistatic_cycle(TwoLevel(g), 2.0, 1.0, legs, 4000).g_trace_crosscheck >= 1e-8

    def test_exceptional_point_leg_raises_without_crosscheck(self):
        # the hot leg ends at v = coupling, where the eigenvectors coalesce;
        # the leg's own gate names it, not the energy crosscheck
        with pytest.raises(DefectiveMatrixError, match="control value 1 "):
            quasistatic_cycle(TwoLevel(1.0), 2.0, 1.0, (0.6, 1.0, 0.2, 0.1), 4000)

    def test_exceptional_point_leg_raises_on_the_general_path(self):
        # the same leg embedded in three levels goes through np.linalg.eig
        def family(v):
            H = np.zeros((3, 3), dtype=complex)
            H[:2, :2] = TwoLevel(1.0).hamiltonian(v)
            H[2, 2] = 5.0
            return H

        with pytest.raises(DefectiveMatrixError, match="exceptional point"):
            quasistatic_cycle(family, 2.0, 1.0, (0.6, 1.0, 0.2, 0.1), 4000)

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_closed_form_matches_general_eigensolver(self, monkeypatch, hermitian):
        # acceptance test 08's geometries, through the d = 2 closed form and
        # through np.linalg.eig + inv
        if hermitian:
            args = (lambda gap: np.array([[0.0, gap], [gap, 0.0]], dtype=complex),
                    2.0, 1.0, (1.0, 0.75, 0.375, 0.5))
        else:
            g = 0.85
            legs = (0.0, 0.4, float(np.sqrt(g * g - 0.375**2)), float(np.sqrt(g * g - 0.425**2)))
            args = (TwoLevel(g), 2.0, 1.0, legs)
        closed = quasistatic_cycle(*args, steps=10000)
        monkeypatch.setattr(thermo, "_eig2", thermo._eig_general)
        general = quasistatic_cycle(*args, steps=10000)
        for name in ("efficiency", "Q_hot", "W_net"):
            assert getattr(closed, name) == pytest.approx(getattr(general, name), rel=1e-12, abs=0)
        assert [t[:2] for t in closed.entropy_trace] == [t[:2] for t in general.entropy_trace]


def _check_leg_eigensystem(H: np.ndarray):
    """The closed-form leg eigensystem of a (k, 2, 2) stack against its definition."""
    values = np.arange(H.shape[0], dtype=float)
    E, VR, VLh = thermo._eig2(np.moveaxis(H, 0, -1), values, DEFAULT)
    E, VR, VLh = E.T, np.moveaxis(VR, -1, 0), np.moveaxis(VLh, -1, 0)
    scale = np.maximum(1.0, np.linalg.norm(H, axis=(1, 2)))
    residual = np.linalg.norm(H @ VR - VR * E[:, None, :], axis=(1, 2))
    assert np.all(residual <= 1e-12 * scale)
    assert np.all(np.linalg.norm(VLh @ VR - np.eye(2), axis=(1, 2)) <= 1e-12)
    npt.assert_allclose(np.linalg.norm(VR, axis=1), 1.0, rtol=0, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    E=arrays(
        np.float64, st.tuples(st.integers(1, 9), st.integers(1, 4)), elements=st.floats(-20.0, 20.0)
    ),
    log_beta=arrays(np.float64, 4, elements=st.floats(np.log(1e-2), np.log(1e2))),
)
def test_leg_gibbs_kernels_match_the_scalar_path(E, log_beta):
    # the cycle's column-wise entropy and populations against thermal_state,
    # for real and complex-typed spectra (the cycle passes both).  S = beta (U
    # - F) subtracts two energies of size max|E|, so either path carries a
    # rounding error of order beta ulp(max|E|): the entropy is compared
    # relative to beta max|E| + |S|, not to S alone, which can be far smaller
    beta = np.exp(log_beta[: E.shape[1]])
    for spectrum in (E, E.astype(complex)):
        S = thermo._entropy_curve(spectrum, beta)
        pops = thermo._populations(spectrum, beta)
        for j, b in enumerate(beta):
            with np.errstate(over="ignore", invalid="ignore"):  # Z itself may overflow
                state = thermal_state(E[:, j], b)
            scale = b * np.max(np.abs(E[:, j])) + abs(S[j])
            assert abs(S[j] - entropy(state)) <= 1e-13 * scale
            npt.assert_allclose(pops[:, j].real, state.eigen_populations, rtol=1e-13, atol=0)


@settings(max_examples=40, deadline=None)
@given(
    levels=st.lists(
        st.tuples(st.floats(-3.0, 3.0), st.floats(0.05, 3.0)), min_size=1, max_size=16
    ),
    basis=arrays(np.float64, (16, 4), elements=st.floats(-1.0, 1.0)),
)
def test_closed_form_leg_eigensystem_on_random_real_spectra(levels, basis):
    # H = V diag(E) V^-1 with a real spectrum, a gap of at least 0.05 and an
    # eigenvector matrix kept well away from singular
    stack = []
    for (e, gap), row in zip(levels, basis):
        V = np.eye(2) + 0.4 * (row[:2].reshape(1, 2) + 1j * row[2:].reshape(2, 1))
        stack.append(V @ np.diag([e, e + gap]) @ np.linalg.inv(V))
    _check_leg_eigensystem(np.array(stack, dtype=complex))


@settings(max_examples=30, deadline=None)
@given(
    coupling=st.floats(0.05, 3.0),
    fraction=arrays(np.float64, 8, elements=st.floats(-0.98, 0.98)),
)
def test_closed_form_leg_eigensystem_on_the_two_level_families(coupling, fraction):
    # the pseudo-hermitian value family below its exceptional point, and the
    # hermitian coupling family [[i v, c], [c, -i v]] at v = 0
    _check_leg_eigensystem(TwoLevel(coupling).hamiltonian(coupling * fraction))
    gammas = coupling * (0.05 + np.abs(fraction))
    _check_leg_eigensystem(np.stack([TwoLevel(g).hamiltonian(0.0) for g in gammas]))


def test_closed_form_leg_eigensystem_on_diagonal_and_scalar_matrices():
    # nearly diagonal and scalar matrices, where [H01, r - a] alone would
    # cancel or vanish
    H = np.array(
        [
            [[1.0, 1e-9], [1e-9, -1.0]],
            [[1.0, 0.0], [0.0, -1.0]],
            [[-1.0, 0.0], [0.0, 1.0]],
            [[0.5, 0.0], [0.0, 0.5]],
        ],
        dtype=complex,
    )
    _check_leg_eigensystem(H)
