"""Thermal states, two-time work statistics, and the quasistatic cycle."""

from __future__ import annotations

import time
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pseudotherm import (
    DEFAULT,
    ComplexPartitionFunctionError,
    DefectiveMatrixError,
    HatanoNelson,
    IsentropeNotFoundError,
    JarzynskiReport,
    NonRealResultError,
    NonRealSpectrumError,
    Oscillator,
    Protocol,
    SingularMetricError,
    TruncationWarning,
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
from pseudotherm import linalg, thermo
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


@pytest.mark.parametrize("beta", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "call",
    [
        lambda beta: partition_function([0.0, 1.0], beta),
        lambda beta: thermal_state([0.0, 1.0], beta),
        lambda beta: work_distribution(np.eye(2), [0.0, 1.0], [0.0, 1.0], beta),
        lambda beta: two_time_work(TwoLevel(), Protocol.linear(0.0, 0.5, 1.0), beta),
    ],
    ids=["partition_function", "thermal_state", "work_distribution", "two_time_work"],
)
def test_non_finite_beta_raises(call, beta):
    # beta = inf used to give NaN populations, Z and F, and a NaN residual
    with pytest.raises(ValueError, match="beta must be finite and positive"):
        call(beta)


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

    def test_low_temperature_state_keeps_log_z(self):
        # Z = e^1000 overflows a float; it was stored as inf+nanj with two
        # RuntimeWarnings, while log_Z and F stay finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = thermal_state([-1.0, 1.0], 1000.0)
        assert st.Z.real == np.inf and st.Z.imag == 0.0
        assert st.log_Z == 1000.0 and st.F == -1.0
        npt.assert_array_equal(st.eigen_populations, [1.0, 0.0])
        assert internal_energy(st) == -1.0

    def test_log_z_matches_z(self):
        for E, beta in (([-1.0, 0.5, 2.0], 1.3), ([3.0, 3.5], 0.2)):
            st = thermal_state(E, beta)
            assert st.log_Z == pytest.approx(np.log(st.Z), rel=1e-15)
            assert st.F == pytest.approx(-np.log(st.Z) / beta, rel=1e-15)
        m = HatanoNelson(length=4, hopping=1.0, asymmetry=0.5, boundary="periodic")
        st = thermal_state(np.linalg.eigvals(m.hamiltonian()), 1.0)
        assert abs(np.exp(st.log_Z) - st.Z) <= 1e-14 * abs(st.Z)

    def test_ground_state_limit(self):
        st = thermal_state([-1.0, 1.0], 200.0)
        assert internal_energy(st) == pytest.approx(-1.0, abs=1e-12)
        assert entropy(st) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize(
        "E, beta",
        [(np.array([-8.0, 0.0, 0.0, 0.0]), 1.0), (np.array([1e4, 1e4 + 1.0, 1e4 + 3.0]), 0.7)],
    )
    def test_entropy_without_cancellation(self, E, beta):
        # S = beta (U - F) subtracted two energies of size max|E|: the scalar
        # and the leg path differed by 3.9e-13 relative in the first case,
        # and both missed S by 1.3e-12 relative in the second
        gaps = E[1:] - E[0]
        x = np.exp(-beta * gaps).sum()
        exact = beta * (gaps * np.exp(-beta * gaps)).sum() / (1 + x) + np.log1p(x)
        scalar = entropy(thermal_state(E, beta))
        leg = float(thermo._entropy_curve(E[:, None], np.array([beta]))[0])
        assert abs(scalar - leg) <= 1e-15 * abs(leg)
        assert abs(leg - exact) <= 1e-13 * exact

    def test_low_temperature_entropy_keeps_relative_accuracy(self):
        # sum q = 1 + e^{-30} rounds at ulp(1): ln sum q then missed
        # S = 2.9e-12 by 3.3e-5 relative
        E, beta = np.array([100.0, 101.0]), 30.0
        x = np.exp(-beta)
        exact = beta * x / (1 + x) + np.log1p(x)
        for S in (entropy(thermal_state(E, beta)), thermo._entropy_curve(E, beta)):
            assert abs(S - exact) <= 1e-13 * exact

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
        assert wd.w.shape == wd.p.shape == (2, 2)
        gap = np.sqrt(1 - 0.25)
        expected_w = sorted([-gap - (-1.0), gap - (-1.0), -gap - 1.0, gap - 1.0])
        npt.assert_allclose(sorted(wd.w.ravel()), expected_w, atol=1e-10)
        total = wd.p.sum()
        assert total == pytest.approx(1.0, abs=1e-9)
        assert (wd.p >= 0).all()

    def test_arrays_hold_the_row_major_pairs(self):
        # at beta = 20 the cutoff drops the sparsely populated initial levels,
        # so p covers fewer rows than columns
        res = two_time_work(Oscillator(omega_ref=0.3, shift=0.4, n_basis=16), Protocol.erf(0.3, 0.45, 0.4), 20.0)
        wd = res.work
        assert wd.w.shape == wd.p.shape == (len(res.rows), len(res.cols))
        assert len(res.rows) < len(res.cols)
        assert res.p is wd.p
        E0, ET = res.energies_initial.real, res.energies_final.real
        pairs = [(ET[m] - E0[n], wd.p[j, k]) for j, n in enumerate(res.rows) for k, m in enumerate(res.cols)]
        # the report as the sums over the list of (w, p) pairs, bit for bit
        w, pr = np.array([w for w, _ in pairs]), np.array([p for _, p in pairs])
        npt.assert_array_equal(wd.w.ravel(), w)
        log_ratio = wd.log_Ztau - wd.log_Z0
        with np.errstate(divide="ignore"):
            log_terms = np.log(pr) - wd.beta * w
        mean_work, delta_F = float(np.sum(pr * w)), -log_ratio / wd.beta
        expected = JarzynskiReport(
            exp_avg_work=float(np.sum(np.exp(log_terms))),
            exp_delta_F=float(np.exp(log_ratio)),
            relative_residual=abs(float(np.sum(np.exp(log_terms - log_ratio))) - 1.0),
            mean_work=mean_work,
            delta_F=delta_F,
            irreversible_work=mean_work - delta_F,
            total_weight=float(np.sum(pr)),
        )
        assert jarzynski_report(wd) == expected == res.report

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
        total = res.work.p.sum()
        assert 1.0 - 1e-7 <= total <= 1.0 + 1e-12

    def test_truncation_warning_names_the_caller(self):
        # the Gibbs tail of an 8-level trap at beta = 1 reaches its top levels
        model = Oscillator(omega_ref=1.0, shift=0.0, n_basis=8)
        with pytest.warns(TruncationWarning) as record:
            two_time_work(model, Protocol.linear(1.0, 1.2, 0.3), 1.0)
        assert [w.filename for w in record] == [__file__]

    def test_precondition_needs_a_hermitian_frame(self):
        with pytest.raises(ValueError, match="no hermitian frame"):
            two_time_work(HatanoNelson(length=4, asymmetry=0.3), Protocol.linear(0.0, 0.1, 1.0), 1.0,
                          gauge_precondition=True)

    def test_low_temperature_ramp_stays_finite(self):
        # Z0 = e^1000 overflows a float; its log does not, and the excited
        # row's zero population must add 0, not 0 * e^{1866}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = two_time_work(TwoLevel(1.0), Protocol.linear(0.0, 0.5, 1.0), 1000.0)
        rep = res.report
        assert res.work.log_Z0 == pytest.approx(1000.0, rel=1e-15)
        assert rep.relative_residual <= 1e-10
        assert rep.exp_delta_F == pytest.approx(np.exp(-1000.0 * (1.0 - np.sqrt(0.75))), rel=1e-12)
        assert rep.irreversible_work == pytest.approx(0.0, abs=1e-10)

    def test_zero_probability_entries_add_nothing(self):
        es = eigendecompose(TwoLevel().hamiltonian(0.0))
        p = np.array([[1.0, 0.0], [0.0, 0.0]])  # w = +2 and -2 off the diagonal
        rep = jarzynski_report(work_distribution(p, es, es, 400.0))
        assert rep.exp_avg_work == 1.0 and rep.relative_residual == 0.0

    def test_ratios_beyond_the_float_range_are_inf_without_a_warning(self):
        # beta = e^6.5: ln Z_tau/Z_0 = 710.8, past ln(max float) = 709.8;
        # the residual divides in the exponent and stays exact
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = two_time_work(TwoLevel(2.0), Protocol.linear(1.77, 0.0, 1.0), np.exp(6.5))
        assert res.work.log_Ztau - res.work.log_Z0 > 710.0
        rep = res.report
        assert rep.exp_delta_F == np.inf and rep.exp_avg_work == np.inf
        assert rep.relative_residual <= 1e-10

    def test_an_hbar_that_every_lane_refuses_fails_each_call(self):
        calls = [(TwoLevel(), Protocol.linear(0.0, end, 1.0), 1.0, {"hbar": -1.0}) for end in (0.3, 0.6)]
        ahead = thermo._measure_ahead(calls)
        assert all(isinstance(a.lane, ValueError) for a in ahead)
        with pytest.raises(ValueError, match=r"hbar must be finite and positive, got -1\.0"):
            two_time_work(TwoLevel(), Protocol.linear(0.0, 0.3, 1.0), 1.0, hbar=-1)

    def test_report_identity_protocol(self):
        wd = work_distribution(np.diag([0.7, 0.3]).astype(float),
                               eigendecompose(TwoLevel().hamiltonian(0.2)),
                               eigendecompose(TwoLevel().hamiltonian(0.2)),
                               2.0)
        rep = jarzynski_report(wd)
        assert rep.exp_avg_work == pytest.approx(1.0)
        assert rep.exp_delta_F == pytest.approx(1.0)
        assert rep.mean_work == pytest.approx(0.0, abs=1e-12)


class TestGivenPropagation:
    @staticmethod
    def _same(a, b):
        for name in ("p", "energies_initial", "energies_final"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
        assert (a.rows, a.cols, a.row_sum_defect, a.report) == (b.rows, b.cols, b.row_sum_defect, b.report)
        assert a.work.w.tobytes() == b.work.w.tobytes()

    @pytest.mark.parametrize("protocol", [Protocol.linear(0.0, 0.6, 1.0), Protocol.erf(0.1, 0.7, 0.4)])
    def test_a_lane_of_a_shared_propagation_measures_as_the_plain_call(self, protocol, monkeypatch):
        # the raw route: moving metric and gauge term
        self._lane_measures_as_the_plain_call(protocol, False, monkeypatch)

    @pytest.mark.parametrize("protocol", [Protocol.linear(0.0, 0.6, 1.0), Protocol.erf(0.1, 0.7, 0.4)])
    def test_a_lane_of_a_shared_frame_propagation_measures_as_the_plain_call(self, protocol, monkeypatch):
        self._lane_measures_as_the_plain_call(protocol, True, monkeypatch)

    def _lane_measures_as_the_plain_call(self, protocol, frame, monkeypatch):
        model = TwoLevel()
        plain = two_time_work(model, protocol, 1.3, gauge_precondition=frame)
        # a call of another window and start takes the first lane of the same propagation
        calls = [(model, Protocol.linear(-0.2, 0.5, 2.0), 1.3, {"gauge_precondition": frame}),
                 (model, protocol, 1.3, {"gauge_precondition": frame})]
        shared = []

        def lanes(model, protocols, initials, **options):
            shared.append(len(protocols))
            return propagate_lanes(model, protocols, initials, **options)

        propagate_lanes = thermo._propagate_lanes
        monkeypatch.setattr(thermo, "_propagate_lanes", lanes)
        ahead = thermo._measure_ahead(calls)
        assert shared == [2]
        given = two_time_work(model, protocol, 1.3, gauge_precondition=frame, ahead=ahead[1])
        assert given.propagation is ahead[1].lane
        self._same(given, plain)
        assert given.propagation.U.tobytes() == plain.propagation.U.tobytes()

    def test_refuses_a_look_ahead_made_for_another_call(self):
        model, protocol = TwoLevel(), Protocol.linear(0.0, 0.6, 1.0)
        (ahead,) = thermo._measure_ahead([(model, protocol, 1.0, {})])
        # equal arguments make the same call
        given = two_time_work(TwoLevel(), Protocol.linear(0.0, 0.6, 1.0), 1.0, ahead=ahead)
        self._same(given, two_time_work(model, protocol, 1.0))
        for args, keywords in (
            ((model, Protocol.linear(0.0, 0.5, 1.0), 1.0), {}),
            ((model, protocol, 1.5), {}),
            ((TwoLevel(1.2), protocol, 1.0), {}),
            ((model, protocol, 1.0), {"gauge_precondition": False}),
            ((model, protocol, 1.0), {"hbar": 2.0}),
            ((model, protocol, 1.0), {"steps": 256}),
            ((model, protocol, 1.0), {"entry_tol": 1e-9}),
            ((model, protocol, 1.0), {"unitarity_gate": 1e-6}),
            ((model, protocol, 1.0), {"tol": DEFAULT.with_(population_cutoff=0.0)}),
        ):
            with pytest.raises(ValueError, match="made for another two-time call"):
                two_time_work(*args, ahead=ahead, **keywords)


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
        legs_seen = [leg for leg, _, _ in rep.entropy_trace]
        assert legs_seen == ["hot", "cool", "cold", "heat"]
        values = np.concatenate([s for _, _, s in rep.entropy_trace])
        assert values.dtype == float and np.all(np.isfinite(values))

    def test_discretization_error_shrinks_quadratically(self):
        g = 0.85
        legs = (0.0, 0.4, np.sqrt(g * g - 0.375**2), np.sqrt(g * g - 0.425**2))
        err = [
            abs(quasistatic_cycle(TwoLevel(coupling=g), 2.0, 1.0, legs, n).efficiency - 0.5)
            for n in (1000, 4000)
        ]
        assert err[1] < err[0] / 8  # expect ~16x for a 4x refinement

    def test_conjugate_paired_legs_are_refused(self):
        # past the exceptional point the spectrum is a conjugate pair; the
        # cycle's first law and isentropes take only real spectra
        with pytest.raises(NonRealResultError) as info:
            quasistatic_cycle(TwoLevel(1.0), 2, 1, (1.05, 1.3, 1.4, 1.1))
        assert str(info.value) == "spectrum on leg hot has imaginary parts up to 4.537e-01"

    def test_legs_that_make_no_engine_raise(self):
        def family(gamma):
            return TwoLevel(coupling=gamma).hamiltonian(0.0)

        with pytest.raises(ValueError, match=r"hot isotherm released heat \(Q_hot = -0\.0905677\)"):
            quasistatic_cycle(family, 2.0, 1.0, (0.75, 1.0, 0.5, 0.375))

    @pytest.mark.parametrize(
        "legs", [(0.75, 1.0, 0.5, 0.375), (0.543, 0.666, 1.11, 0.65)], ids=["landing", "cool-misses"]
    )
    def test_a_hot_leg_that_releases_heat_raises_before_the_other_legs(self, monkeypatch, legs):
        # the hot isotherm alone decides that the legs make no engine; in the
        # second geometry the cool isentrope could not land either
        names = []

        def leg(h_of, name, *args):
            names.append(name)
            return cycle_leg(h_of, name, *args)

        cycle_leg = thermo._cycle_leg
        monkeypatch.setattr(thermo, "_cycle_leg", leg)
        with pytest.raises(ValueError, match="hot isotherm released heat"):
            quasistatic_cycle(lambda g: TwoLevel(coupling=g).hamiltonian(0.0), 2.0, 1.0, legs, 2000)
        assert names == ["hot"]

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
        eig_stack = thermo._eig_stack

        def shifted(H, values, tol):
            E, *rest = eig_stack(H, values, tol)
            return E + 1e-6, *rest

        g = 0.85
        legs = (0.0, 0.4, np.sqrt(g * g - 0.375**2), np.sqrt(g * g - 0.425**2))
        assert quasistatic_cycle(TwoLevel(g), 2.0, 1.0, legs, 4000).g_trace_crosscheck < 1e-10
        monkeypatch.setattr(thermo, "_eig_stack", shifted)
        assert quasistatic_cycle(TwoLevel(g), 2.0, 1.0, legs, 4000).g_trace_crosscheck >= 1e-8

    def test_exceptional_point_leg_raises_without_crosscheck(self):
        # the hot leg ends at v = coupling, where the eigenvectors coalesce;
        # the leg's own gate names it, not the energy crosscheck
        with pytest.raises(DefectiveMatrixError, match="control value 1 "):
            quasistatic_cycle(TwoLevel(1.0), 2.0, 1.0, (0.6, 1.0, 0.2, 0.1), 4000)

    @pytest.mark.parametrize("offset", [1e-13, 1e-14, 1e-15])
    def test_leg_through_a_coalescing_pair_names_its_control_value(self, offset):
        # the hot leg ends 1 - offset short of the exceptional point: the
        # eigenvector matrix's condition number stays below 1e8 there, but
        # the pair coalesces with parallel vectors.  The stacked kernel used
        # to pass it, and the cycle failed late in an isentrope
        end = 1.0 - offset
        with pytest.raises(DefectiveMatrixError, match=f"at control value {end:.17g} coalesce"):
            quasistatic_cycle(TwoLevel(1.0), 2.0, 1.0, (0.6, end, 0.2, 0.1), 4000)
        with pytest.raises(DefectiveMatrixError, match="coalesce"):
            eigendecompose(TwoLevel(1.0).hamiltonian(end))

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
        monkeypatch.setattr(linalg, "_closed_form", linalg._eig_batched)
        general = quasistatic_cycle(*args, steps=10000)
        for name in ("efficiency", "Q_hot", "W_net"):
            assert getattr(closed, name) == pytest.approx(getattr(general, name), rel=1e-12, abs=0)
        pairs = zip(closed.entropy_trace, general.entropy_trace, strict=True)
        for (leg, values, _), (leg_general, values_general, _) in pairs:
            assert leg == leg_general
            npt.assert_array_equal(values, values_general)


def _coupling_leg(c_from: float, c_to: float, k: int = 2501) -> np.ndarray:
    """The real (2, k) energies -/+c of the hermitian coupling family along a leg."""
    c = np.linspace(c_from, c_to, k)
    return np.stack((-c, c))


def _bisection_isentrope(E: np.ndarray, target: float) -> np.ndarray:
    """beta with S = target per column by 64 log-bisection sweeps over [beta_min, beta_max]."""
    llo = np.full(E.shape[1], np.log(DEFAULT.beta_min))
    lhi = np.full(E.shape[1], np.log(DEFAULT.beta_max))
    for _ in range(64):
        mid = 0.5 * (llo + lhi)
        above = thermo._entropy_curve(E, np.exp(mid)) > target
        llo = np.where(above, mid, llo)
        lhi = np.where(above, lhi, mid)
    return np.exp(0.5 * (llo + lhi))


class TestIsentropeSolver:
    def test_hermitian_coupling_family_keeps_beta_c_constant(self):
        # E = -/+c, so S depends on beta c alone and beta c is constant
        # along the isentrope from (c = 0.75, T = 2) to c = 0.375
        E = _coupling_leg(0.75, 0.375)
        target = float(thermo._entropy_curve(E[:, :1], np.array([0.5]))[0])
        beta, _, _ = thermo._solve_isentrope(E, target, 0.5, 1.0, DEFAULT)
        bc = beta * E[1]
        assert np.max(np.abs(bc / 0.375 - 1.0)) <= 1e-14

    def test_infeasible_targets_raise(self):
        E = _coupling_leg(0.75, 0.375, 11)
        for target in (np.log(2.0) + 1e-6, -1e-6):
            with pytest.raises(IsentropeNotFoundError, match="outside the reachable range"):
                thermo._solve_isentrope(E, target, 0.5, 1.0, DEFAULT)

    def test_flat_column_converges_without_warnings(self):
        # a flat column has S = ln 2 at every beta and no Newton step; the
        # other column's solution is beta = sqrt(8e-11) near beta_min
        E = np.array([[2.0, 0.0], [2.0, 1.0]])
        target = np.log(2.0) - 1e-11
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta, _, mismatch = thermo._solve_isentrope(E, target, 1.0, 1.0, DEFAULT)
            S = thermo._entropy_curve(E, beta)
        assert mismatch == np.max(np.abs(S - target)) <= DEFAULT.entropy_match
        assert beta[1] == pytest.approx(np.sqrt(8e-11), rel=1e-6)

    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "pseudo"])
    def test_carnot_geometry_takes_few_kernel_evaluations(self, monkeypatch, hermitian):
        # acceptance test 08's geometries; 64 bisection sweeps took 67
        if hermitian:
            args = (lambda gap: np.array([[0.0, gap], [gap, 0.0]], dtype=complex),
                    2.0, 1.0, (1.0, 0.75, 0.375, 0.5))
        else:
            g = 0.85
            legs = (0.0, 0.4, float(np.sqrt(g * g - 0.375**2)), float(np.sqrt(g * g - 0.425**2)))
            args = (TwoLevel(g), 2.0, 1.0, legs)
        weights, solve = thermo._shifted_weights, thermo._solve_isentrope
        calls, counts = [], []

        def counted_weights(*a):
            calls.append(1)
            return weights(*a)

        def counted_solve(*a):
            calls.clear()
            beta = solve(*a)
            counts.append(len(calls))
            return beta

        monkeypatch.setattr(thermo, "_shifted_weights", counted_weights)
        monkeypatch.setattr(thermo, "_solve_isentrope", counted_solve)
        rep = quasistatic_cycle(*args, steps=10000)
        assert len(counts) == 2
        assert max(counts) <= 12
        # the report records the same counts per isentrope, and each solve's entropy mismatch
        assert set(rep.isentrope_evaluations) == set(rep.entropy_mismatch) == {"cool", "heat"}
        assert [rep.isentrope_evaluations[leg] for leg in ("cool", "heat")] == counts
        assert all(0.0 <= m <= DEFAULT.entropy_match for m in rep.entropy_mismatch.values())


@st.composite
def _real_legs(draw):
    """(d, k) real energies, d <= 6, with some exact degeneracies, and a target every column reaches."""
    d, k = draw(st.integers(2, 6)), draw(st.integers(1, 8))
    gap = st.one_of(st.just(0.0), st.floats(0.05, 5.0))
    base = draw(arrays(np.float64, (1, k), elements=st.floats(-20.0, 20.0)))
    gaps = draw(arrays(np.float64, (d - 1, k), elements=gap))
    E = np.concatenate((base, base + np.cumsum(gaps, axis=0)))
    low = thermo._entropy_curve(E, np.full(k, DEFAULT.beta_max)).max()
    high = thermo._entropy_curve(E, np.full(k, DEFAULT.beta_min)).min()
    assume(high - low > 0.05)
    return E, low + draw(st.floats(0.1, 0.9)) * (high - low)


@settings(max_examples=60, deadline=None)
@given(leg=_real_legs(), log_start=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
def test_isentrope_solve_matches_bisection_on_random_real_legs(leg, log_start):
    E, target = leg
    beta, _, _ = thermo._solve_isentrope(E, target, *np.exp(log_start), DEFAULT)
    reference = _bisection_isentrope(E, target)
    assert np.all(np.abs(beta - reference) <= 1e-13 * reference)


def _check_leg_eigensystem(H: np.ndarray):
    """The closed-form leg eigensystem of a (k, 2, 2) stack against its definition."""
    values = np.arange(H.shape[0], dtype=float)
    E, VR, VLh, _, _ = linalg._eig_stack(np.moveaxis(H, 0, -1), values, DEFAULT)
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
    # for real and complex-typed spectra (the cycle passes both).  Both paths
    # evaluate S without cancellation; ln Z contributes an absolute rounding
    # error, which vanishes with beta max|E| (a flat spectrum is exact).
    # thermal_state warns at no beta, though Z itself may overflow
    beta = np.exp(log_beta[: E.shape[1]])
    for spectrum in (E, E.astype(complex)):
        _, q, total = weights = thermo._shifted_weights(spectrum, beta)
        pops, S = q / total, thermo._entropy_curve(spectrum, beta, weights=weights)
        npt.assert_array_equal(S, thermo._entropy_curve(spectrum, beta))
        for j, b in enumerate(beta):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                state = thermal_state(E[:, j], b)
            scale = min(1.0, b * np.max(np.abs(E[:, j]))) + abs(S[j])
            assert abs(S[j] - entropy(state)) <= 1e-13 * scale
            npt.assert_allclose(pops[:, j].real, state.eigen_populations, rtol=1e-13, atol=0)


def _four_contraction_accounting(H, E, VR, VLh, pops):
    """Reference: the first law from midpoint-H and dH contractions at both step ends, and tr(rho H)."""
    lo, hi = np.s_[..., :-1], np.s_[..., 1:]
    Hmid = 0.5 * (H[lo] + H[hi])
    dH = H[hi] - H[lo]
    d_lo = np.einsum("nek,efk,fnk->nk", VLh[lo], Hmid, VR[lo])
    d_hi = np.einsum("nek,efk,fnk->nk", VLh[hi], Hmid, VR[hi])
    w_lo = np.einsum("nek,efk,fnk->nk", VLh[lo], dH, VR[lo])
    w_hi = np.einsum("nek,efk,fnk->nk", VLh[hi], dH, VR[hi])
    dQ = (pops[hi] * d_hi).sum(axis=0) - (pops[lo] * d_lo).sum(axis=0)
    dW = 0.5 * ((pops[lo] * w_lo).sum(axis=0) + (pops[hi] * w_hi).sum(axis=0))
    via_trace = np.einsum("nek,efk,fnk,nk->k", VLh, H, VR, pops)
    cross = float(np.max(np.abs(via_trace - (pops * E).sum(axis=0))))
    return complex(dQ.sum()), complex(dW.sum()), cross


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 3, 5]),
    k=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
    log_beta=st.floats(np.log(0.05), np.log(20.0)),
    noise=st.sampled_from([0.0, 1e-6, 1e-2]),
)
def test_leg_accounting_matches_the_four_contraction_first_law(d, k, seed, log_beta, noise):
    # a biorthogonal leg of k + 1 points: VLh = VR^-1 with VR = 1 + (a norm
    # below 0.6), H = VR diag(E) VLh plus complex noise, so the energy
    # crosscheck is not only rounding, E complex and the cycle's populations
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)

    VR = np.eye(d) + 0.4 / d * cplx(k + 1, d, d)
    E = rng.uniform(-2, 2, (k + 1, d)) + 1e-3j * rng.uniform(-1, 1, (k + 1, d))
    VLh = np.linalg.inv(VR)
    H = VR @ (E[:, :, None] * VLh) + noise * cplx(k + 1, d, d)
    H, VR, VLh, E = (linalg._grid_last(A) for A in (H, VR, VLh, E))
    _, q, total = thermo._shifted_weights(E, np.full(k + 1, np.exp(log_beta)))
    pops = q / total
    got = thermo._leg_accounting(H, E, VR, VLh, pops)
    want = _four_contraction_accounting(H, E, VR, VLh, pops)
    # relative to the magnitude of the terms summed, sum_k sum_n |p_n| |VLh H VR|_nn
    terms = np.einsum("nek,efk,fnk,nk->k", np.abs(VLh), np.abs(H), np.abs(VR), np.abs(pops))
    for new, old in zip(got[:2], want[:2]):
        assert abs(new - old) <= 1e-12 * terms.sum()
    assert abs(got[2] - want[2]) <= 1e-12 * (terms + (np.abs(pops) * np.abs(E)).sum(axis=0)).max()


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


@settings(max_examples=200, deadline=None)
@given(
    log_coupling=st.floats(np.log(0.5), np.log(2.0)),
    ends=st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)),
    shape=st.sampled_from(["linear", "erf"]),
    log_tau=st.floats(np.log(0.1), np.log(5.0)),
    log_beta=st.floats(np.log(1e-2), np.log(1e3)),
    frame=st.sampled_from([False, True]),
)
def test_two_level_drives_meet_the_identities(log_coupling, ends, shape, log_tau, log_beta, frame):
    # the paper's identities on generated TwoLevel drives, at default
    # settings: the Jarzynski equality, metric unitarity in the row sums,
    # a total weight of 1, W_irr >= 0 and real Z, E and S at both edges;
    # on the raw route (gauge term, moving metric and its scan) and in the
    # hermitian frame
    coupling, beta = np.exp(log_coupling), np.exp(log_beta)
    start, end = (coupling * v for v in ends)
    protocol = getattr(Protocol, shape)(start, end, np.exp(log_tau))
    res = two_time_work(TwoLevel(coupling), protocol, beta, gauge_precondition=frame)
    rep = res.report
    assert rep.relative_residual <= 1e-5
    assert res.row_sum_defect <= 1e-8
    assert abs(rep.total_weight - 1.0) <= 1e-8
    assert rep.irreversible_work >= -1e-8
    for energies in (res.energies_initial, res.energies_final):
        state = thermal_state(energies, beta)
        assert state.Z.imag == 0.0 and state.log_Z.imag == 0.0
        assert np.isfinite(internal_energy(state)) and np.isfinite(entropy(state))


@settings(max_examples=100, deadline=None)
@given(
    log_coupling=st.floats(np.log(0.5), np.log(2.0)),
    ends=st.tuples(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99)),
    shape=st.sampled_from(["linear", "erf"]),
    log_tau=st.floats(np.log(0.1), np.log(5.0)),
    log_beta=st.floats(np.log(1e-2), np.log(1e3)),
)
def test_two_level_frame_and_raw_routes_agree(log_coupling, ends, shape, log_tau, log_beta):
    # Both routes accept a propagator whose entries moved by at most
    # DEFAULT.propagation = 1e-8 under the last step halving, and they
    # agree within it (at most 1.4e-9 on 3,000 random such drives).  The frame
    # family sqrt(c^2 - v^2) sigma_x commutes with itself at all times, so
    # its transitions off the diagonal vanish to rounding.
    coupling, beta = np.exp(log_coupling), np.exp(log_beta)
    start, end = (coupling * v for v in ends)
    protocol = getattr(Protocol, shape)(start, end, np.exp(log_tau))
    raw = two_time_work(TwoLevel(coupling), protocol, beta, gauge_precondition=False)
    frame = two_time_work(TwoLevel(coupling), protocol, beta)
    npt.assert_array_equal(frame.propagation.g_end, np.eye(2))
    assert np.max(np.abs(frame.p - raw.p)) <= DEFAULT.propagation
    assert abs(frame.report.irreversible_work - raw.report.irreversible_work) <= DEFAULT.propagation
    assert max(frame.p[0, 1], frame.p[1, 0]) <= 1e-15


@pytest.mark.parametrize(
    "end, error, message",
    [(1.0, DefectiveMatrixError, "eigenvector condition"), (1.2, NonRealSpectrumError, "final spectrum")],
    ids=["at-the-exceptional-point", "past-it"],
)
def test_the_frame_route_keeps_the_raw_routes_edge_errors(end, error, message):
    messages = []
    for frame in (False, None):
        with pytest.raises(error, match=message) as info:
            two_time_work(TwoLevel(), Protocol.linear(0.0, end, 1.0), 1.0, gauge_precondition=frame)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_the_frame_route_fails_fast_where_a_drive_crosses_the_exceptional_point():
    # both edges lie below the exceptional point at 1, and the drive passes
    # 1.15 mid-window: the model's metric is scanned before the frame is
    # evaluated at a step, as on the raw route
    protocol = Protocol.tabulated([(0.0, 0.3), (0.5, 1.15), (1.0, 0.2)])
    clock = time.perf_counter()
    with pytest.raises(SingularMetricError, match="metric loses positive-definiteness"):
        two_time_work(TwoLevel(), protocol, 1.0)
    assert time.perf_counter() - clock < 5.0
