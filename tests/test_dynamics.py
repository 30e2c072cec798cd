"""Protocols, gauge fields, and the metric-unitary propagator."""

from __future__ import annotations

import gc
import sys
import time
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, mutually_broadcastable_shapes

from pseudotherm import (
    DEFAULT,
    HatanoNelson,
    NotConvergedError,
    Oscillator,
    Protocol,
    ProtocolRangeError,
    SingularMetricError,
    TruncationWarning,
    TwoLevel,
    build_metric,
    eigendecompose,
    gauge_field,
    hamiltonian_at,
    propagate,
    two_time_work,
    unitarity_residual,
)
from pseudotherm import dynamics
from pseudotherm.dynamics import (
    _BlockExponentials,
    _block_steps,
    _expm2,
    _expm_taylor,
    _invariant_blocks,
    _mul2,
    _piece_products,
)

from conftest import SIGMA_X


class TestProtocol:
    def test_linear_values_and_rate(self):
        p = Protocol.linear(0.0, 0.5, 2.0)
        assert p.t_start == 0.0 and p.t_end == 2.0
        assert p.value(0.0) == 0.0
        assert p.value(2.0) == 0.5
        assert p.value(1.0) == pytest.approx(0.25)
        assert p.rate(0.3) == pytest.approx(0.25)

    def test_erf_window_and_symmetry(self):
        p = Protocol.erf(0.2, 0.6, 1.0, window=3.0)
        assert p.t_start == -3.0 and p.t_end == 3.0
        assert p.value(0.0) == pytest.approx(0.4)
        # edges sit deep in the tails of the switching function
        assert p.value(p.t_start) == pytest.approx(0.2, abs=1e-4)
        assert p.value(p.t_end) == pytest.approx(0.6, abs=1e-4)
        for t in (0.5, 1.5, 2.5):
            assert p.value(t) + p.value(-t) == pytest.approx(0.8)
        assert p.rate(0.0) > p.rate(2.0) > 0.0

    def test_out_of_window_raises(self):
        p = Protocol.linear(0.0, 1.0, 1.0)
        with pytest.raises(ProtocolRangeError):
            p.value(1.5)
        with pytest.raises(ProtocolRangeError):
            p.rate(-0.1)

    @pytest.mark.parametrize(
        "p",
        [Protocol.linear(0.0, 0.5, 2.0), Protocol.erf(0.2, 0.6, 1.0),
         Protocol.tabulated([(-1.0, 0.0), (0.5, 2.0), (3.0, 1.0)])],
        ids=["linear", "erf", "tabulated"],
    )
    def test_range_check_returns_in_window_times_bit_for_bit(self, p):
        lo, hi = p.t_start, p.t_end
        t = np.array([[lo, hi], [np.nextafter(lo, hi), np.nextafter(hi, lo)], [0.3 * lo + 0.7 * hi, -0.0]])
        out = p._check_range(t)
        assert out.dtype == float and out.tobytes() == t.tobytes()
        assert p._check_range(hi).tobytes() == np.float64(hi).tobytes()

    def test_range_check_clips_the_slack_band_and_raises_beyond_it(self):
        p = Protocol.linear(0.0, 0.5, 2.0)
        slack = 1e-9 * 2.0
        npt.assert_array_equal(p._check_range([-0.5 * slack, 1.0, 2.0 + 0.5 * slack]), [0.0, 1.0, 2.0])
        assert p.value(2.0 + 0.5 * slack) == 0.5
        with pytest.raises(ProtocolRangeError, match=r"^t = 2\.1 outside protocol window \[0, 2\]$"):
            p._check_range([1.0, 2.1, -3.0])
        with pytest.raises(ProtocolRangeError, match=r"^t = -3 outside"):
            p._check_range([0.5, -3.0, 2.1])
        with pytest.raises(ProtocolRangeError, match=r"^t = nan outside"):
            p._check_range([np.nan, -3.0, 2.1])

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, [0.5, np.nan]], ids=["nan", "inf", "-inf", "array"])
    def test_non_finite_times_raise(self, t):
        # for NaN both the in-window and the outside test are false, and
        # np.clip used to let it through: value NaN, rate 0.5, a NaN matrix
        p = Protocol.linear(0.0, 0.5, 2.0)
        for call in (p._check_range, p.value, p.rate, lambda t: hamiltonian_at(TwoLevel(), p, t)):
            with pytest.raises(ProtocolRangeError, match="outside protocol window"):
                call(t)

    def test_tabulated_interpolation(self):
        p = Protocol.tabulated([(0.0, 0.0), (1.0, 2.0), (3.0, 2.0)])
        assert p.value(0.5) == pytest.approx(1.0)
        assert p.rate(0.5) == pytest.approx(2.0)
        assert p.rate(2.0) == pytest.approx(0.0)
        assert p.value(3.0) == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Protocol.linear(0.0, 0.5, np.nan),
            lambda: Protocol.linear(0.0, 0.5, np.inf),
            lambda: Protocol.linear(np.inf, 0.5, 1.0),
            lambda: Protocol.erf(0.0, -np.inf, 1.0),
            lambda: Protocol.erf(0.0, 0.5, 1.0, window=np.nan),
            lambda: Protocol.tabulated([(0.0, 0.0), (np.nan, 1.0), (2.0, 0.5)]),
            lambda: Protocol.tabulated([(0.0, 0.0), (1.0, np.inf)]),
        ],
    )
    def test_non_finite_construction_raises(self, make):
        # NaN compares False with everything, so "duration <= 0" let it through
        with pytest.raises(ValueError, match="finite"):
            make()

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Protocol.linear(0.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            Protocol.tabulated([(0.0, 1.0)])
        with pytest.raises(ValueError):
            Protocol.tabulated([(0.0, 1.0), (0.0, 2.0)])


def test_hamiltonian_at_tracks_protocol():
    model = TwoLevel()
    proto = Protocol.linear(0.0, 0.5, 1.0)
    npt.assert_allclose(hamiltonian_at(model, proto, 0.6), model.hamiltonian(0.3), atol=1e-15)


def test_gauge_field_takes_a_metric_operator():
    # the operator's inverse against a solve with its matrix
    operator = build_metric(eigendecompose(TwoLevel().hamiltonian(0.3)))
    dg = TwoLevel().metric_rate(0.3, 0.7)
    expected = gauge_field(operator.g, dg, 0.5)
    assert np.max(np.abs(expected)) > 0.1
    npt.assert_allclose(gauge_field(operator, dg, 0.5), expected, rtol=0, atol=1e-13)


def test_gauge_field_matches_central_difference():
    model = TwoLevel()
    proto = Protocol.linear(0.0, 0.8, 1.0)
    t, h = 0.4, 1e-6
    g = model.metric(proto.value(t))
    dg = (model.metric(proto.value(t + h)) - model.metric(proto.value(t - h))) / (2 * h)
    exact = gauge_field(model.metric(proto.value(t)), model.metric_rate(proto.value(t), proto.rate(t)))
    npt.assert_allclose(gauge_field(g, dg), exact, atol=1e-6)
    # structure: G = -(i hbar / 2) g^{-1} dg/dt
    npt.assert_allclose(
        exact,
        -0.5j * np.linalg.inv(g) @ model.metric_rate(proto.value(t), proto.rate(t)),
        atol=1e-12,
    )


def test_constant_hermitian_propagator_closed_form():
    # frozen two-level system at the hermitian point: U(t) = cos(t) I - i sin(t) sigma_x
    model = TwoLevel()
    proto = Protocol.linear(0.0, 0.0, 1.0)
    res = propagate(model, proto, entry_tol=1e-12)
    expected = np.cos(1.0) * np.eye(2) - 1j * np.sin(1.0) * SIGMA_X
    npt.assert_allclose(res.U, expected, atol=1e-9)


def test_constant_nonhermitian_matches_expm():
    model = TwoLevel()
    proto = Protocol.linear(0.4, 0.4, 0.7)
    res = propagate(model, proto, entry_tol=1e-12)
    expected = scipy.linalg.expm(-0.7j * model.hamiltonian(0.4))
    npt.assert_allclose(res.U, expected, atol=1e-9)


def test_static_chain_matches_expm():
    model = HatanoNelson(length=6, hopping=1.0, asymmetry=0.4, boundary="open")
    proto = Protocol.linear(0.0, 0.0, 0.7)
    res = propagate(model, proto, entry_tol=1e-12)
    npt.assert_allclose(res.U, scipy.linalg.expm(-0.7j * model.hamiltonian()), atol=1e-9)


def test_composition_of_propagators():
    model = TwoLevel()
    proto = Protocol.linear(0.0, 0.5, 1.0)
    full = propagate(model, proto, entry_tol=1e-10)
    first = propagate(model, proto, entry_tol=1e-10, t0=0.0, t1=0.5)
    second = propagate(model, proto, entry_tol=1e-10, t0=0.5, t1=1.0)
    npt.assert_allclose(second.U @ first.U, full.U, atol=1e-8)


def test_checkpoints_below_gate_and_result_fields():
    model = TwoLevel()
    proto = Protocol.erf(0.0, 0.5, 0.5, window=3.0)
    res = propagate(model, proto, entry_tol=1e-10, unitarity_gate=1e-8)
    assert len(res.checkpoints) >= 10
    for t, defect in res.checkpoints:
        assert proto.t_start < t <= proto.t_end
        assert defect < 1e-8
    assert res.entry_change < 1e-10
    assert res.steps_used * res.step_size == pytest.approx(proto.t_end - proto.t_start)
    assert unitarity_residual(res.U, res.g_start, res.g_end) < 1e-8
    npt.assert_allclose(res.g_start, model.metric(proto.value(proto.t_start)), atol=1e-12)
    npt.assert_allclose(res.g_end, model.metric(proto.value(proto.t_end)), atol=1e-12)


@pytest.mark.parametrize(
    "model, proto",
    [
        (TwoLevel(), Protocol.erf(0.0, 0.5, 0.5, window=3.0)),
        (HatanoNelson(length=5, asymmetry=0.3), Protocol.linear(0.0, 1.0, 0.5)),
    ],
    ids=["two-level", "open-chain"],
)
def test_result_records_the_unitarity_gate_it_met(model, proto):
    # the default scales with ||g_start||, which exceeds 1 for the chain's diag(e^{2 g x})
    res = propagate(model, proto)
    assert res.unitarity_gate == DEFAULT.propagation * max(1.0, float(np.linalg.norm(res.g_start)))
    assert max(r for _, r in res.checkpoints) <= res.unitarity_gate
    assert propagate(model, proto, unitarity_gate=1e-7).unitarity_gate == 1e-7


def test_refinement_decreases_unitarity_defect():
    # seed the integrator at fixed coarse counts with acceptance disabled;
    # the g-unitarity defect must fall as the grid refines
    model = TwoLevel()
    proto = Protocol.linear(0.0, 0.7, 1.0)
    defects = []
    for steps in (8, 32, 128):
        res = propagate(model, proto, steps=steps, entry_tol=10.0, unitarity_gate=1e6)
        defects.append(unitarity_residual(res.U, res.g_start, res.g_end))
    assert defects[0] > defects[1] > defects[2]
    assert defects[2] < 1e-5


def test_column_block_initial_condition():
    model = TwoLevel()
    proto = Protocol.linear(0.0, 0.5, 1.0)
    full = propagate(model, proto, entry_tol=1e-10)
    col = np.array([[1.0], [0.0]], dtype=complex)
    res = propagate(model, proto, entry_tol=1e-10, initial=col)
    assert res.U.shape == (2, 1)
    npt.assert_allclose(res.U, full.U @ col, atol=1e-9)


@pytest.mark.parametrize(
    "initial, match",
    [
        (np.array([[1.0], [np.nan]]), "finite"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), "finite"),
        (np.zeros((2, 0)), "at least one column"),
        (np.eye(3)[:, :1], r"must be \(2 x k\), got \(3, 1\)"),
        (np.ones(2), r"must be \(2 x k\), got \(2,\)"),
    ],
    ids=["nan", "inf", "no_columns", "three_rows", "one_dimensional"],
)
def test_bad_initial_condition_is_refused_up_front(initial, match):
    with pytest.raises(ValueError, match=match):
        propagate(TwoLevel(), Protocol.linear(0.0, 0.5, 1.0), initial=initial)


class _Untouchable:
    """A model whose every attribute fails, to show a check runs before any model call."""

    def __getattr__(self, name):
        raise AssertionError(f"model.{name} read before the argument checks")


@pytest.mark.parametrize("hbar", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
def test_bad_hbar_is_refused_up_front(hbar):
    with pytest.raises(ValueError, match="hbar must be finite and positive"):
        propagate(TwoLevel(), Protocol.linear(0.0, 0.5, 1.0), hbar=hbar)
    with pytest.raises(ValueError, match="hbar"):
        propagate(_Untouchable(), Protocol.linear(0.0, 0.5, 1.0), hbar=hbar)


@pytest.mark.parametrize("steps, max_steps", [(1 << 40, dynamics.MAX_STEPS), (300, 256), (None, 100)])
def test_step_seed_above_max_steps_is_refused_up_front(steps, max_steps):
    for model in (TwoLevel(), _Untouchable()):
        with pytest.raises(ValueError, match=f"exceeds max_steps {max_steps}"):
            propagate(model, Protocol.linear(0.0, 0.5, 1.0), steps=steps, max_steps=max_steps)


def test_rungs_record_the_doubling_ladder():
    res = propagate(TwoLevel(), Protocol.erf(0.0, 0.5, 0.5), steps=16, entry_tol=1e-10)
    assert len(res.rungs) >= 2
    for rung in res.rungs:
        assert rung._fields == ("n", "entry_change", "worst_checkpoint", "seconds")
        assert rung.seconds >= 0 and rung.worst_checkpoint < 1
    assert [r.n for r in res.rungs] == [16 * 2**j for j in range(len(res.rungs))]
    assert res.rungs[0].entry_change == np.inf
    assert res.rungs[-1].n == res.steps_used
    assert res.rungs[-1].entry_change == res.entry_change
    assert res.rungs[-1].worst_checkpoint == max(r for _, r in res.checkpoints)
    assert res.steps_computed == sum(r.n for r in res.rungs)


def test_propagation_across_critical_point_raises():
    with pytest.raises(SingularMetricError):
        propagate(TwoLevel(), Protocol.linear(0.0, 1.2, 1.0))


@pytest.mark.parametrize("coupling", [1.0, -1.0])
def test_frame_propagation_across_critical_point_raises(coupling):
    # the frame exists only where the metric, of eigenvalues
    # 2 (1 +/- v / coupling), is positive definite: both routes scan it up
    # to |v| = |coupling|
    for frame in (False, True):
        with pytest.raises(SingularMetricError, match="metric loses positive-definiteness"):
            propagate(TwoLevel(coupling), Protocol.linear(0.0, 1.2, 1.0), gauge_precondition=frame)


def test_a_frame_that_is_not_finite_at_a_step_raises():
    # a drive can leave the frame's domain between the scan's points; a
    # model whose scan always passes stands in for it
    class Unscanned(TwoLevel):
        def metric_min_eigenvalue(self, v):
            return np.ones(np.shape(v))

    with pytest.raises(SingularMetricError, match="not finite at control value") as info:
        propagate(Unscanned(), Protocol.linear(0.0, 1.2, 1.0), gauge_precondition=True)
    assert str(info.value).startswith("the integrated family is not finite at control value ")
    assert str(info.value).endswith("; a hermitian frame exists only where the metric is positive definite")


class _NaNAboveHalf:
    """A d = 3 family with a static identity metric whose drive term is NaN for v > 0.5."""

    dimension = 3
    metric_is_static = True
    H0 = np.diag([0.0, 1.0, 2.5]).astype(complex)
    H1 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)

    @staticmethod
    def f(v):
        v = np.asarray(v, dtype=float)
        return np.where(v > 0.5, np.nan, v)

    def hamiltonian(self, v):
        return self.H0 + self.f(v)[..., None, None] * self.H1

    def metric(self, v=0.0):
        return np.eye(3, dtype=complex)


class _AffineNaNAboveHalf(_NaNAboveHalf):
    def hamiltonian_terms(self):
        return self.H0, self.H1, self.f


@pytest.mark.parametrize("model", [_NaNAboveHalf(), _AffineNaNAboveHalf()], ids=["generic", "affine"])
def test_a_family_that_is_not_finite_inside_the_window_raises_at_once(model):
    # the drive rises past 0.5 and comes back, so both window edges are
    # finite; a NaN propagator only overflows each run, so without a refusal
    # the ladder climbs to MAX_STEPS.  The raw family's message leaves out
    # the clause about hermitian frames
    clock = time.perf_counter()
    with pytest.raises(SingularMetricError) as info:
        propagate(model, Protocol.tabulated([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]))
    assert time.perf_counter() - clock < 1.0
    message = str(info.value)
    assert message.startswith("the integrated family is not finite at control value ")
    assert float(message.rsplit(" ", 1)[1]) > 0.5


def test_a_static_metric_that_is_not_positive_definite_is_refused():
    # the periodic chain's metric from its biorthogonal eigenbasis is indefinite
    with pytest.raises(SingularMetricError) as info:
        propagate(HatanoNelson(6, asymmetry=0.3, boundary="periodic"), Protocol.linear(0.0, 1.0, 1.0))
    assert str(info.value) == "static metric is not positive definite (min eigenvalue -1.000e+00)"


def test_gauge_preconditioned_oscillator_identity_metric():
    model = Oscillator(omega_ref=1.0, shift=0.5, n_basis=12)
    proto = Protocol.linear(1.0, 1.2, 0.5)
    res = propagate(model, proto, gauge_precondition=True, unitarity_gate=1e-8)
    npt.assert_allclose(res.g_start, np.eye(12), atol=0)
    assert unitarity_residual(res.U, res.g_start, res.g_end) < 1e-8
    for _, defect in res.checkpoints:
        assert defect < 1e-8


@pytest.mark.parametrize("t0, t1", [(0.0, np.nan), (np.nan, 1.0)])
def test_propagate_rejects_nan_window(t0, t1):
    with pytest.raises(ValueError, match="t1 must exceed t0"):
        propagate(TwoLevel(), Protocol.linear(0.0, 0.5, 1.0), t0=t0, t1=t1)


def test_gauge_precondition_needs_hermitian_frame():
    with pytest.raises(ValueError):
        propagate(HatanoNelson(length=4, asymmetry=0.3), Protocol.linear(0.0, 0.1, 1.0), gauge_precondition=True)


def test_step_seed_is_respected():
    model = TwoLevel()
    proto = Protocol.linear(0.0, 0.5, 1.0)
    res = propagate(model, proto, steps=100)
    assert res.steps_used >= 100
    assert res.steps_used % 100 == 0  # refinement only ever doubles the seed


@pytest.mark.parametrize(
    "proto",
    [
        Protocol.linear(0.2, 0.9, 1.5),
        Protocol.erf(0.1, 0.6, 0.7, window=2.5),
        Protocol.tabulated([(0.0, 0.0), (0.4, 1.0), (1.0, 0.5), (2.0, 0.5)]),
    ],
)
def test_protocol_accepts_arrays_of_times(proto):
    ts = np.linspace(proto.t_start, proto.t_end, 23)
    npt.assert_array_equal(proto.value(ts), [proto.value(float(t)) for t in ts])
    npt.assert_array_equal(proto.rate(ts), [proto.rate(float(t)) for t in ts])
    assert isinstance(proto.value(float(ts[3])), float)
    assert isinstance(proto.rate(float(ts[3])), float)
    outside = np.append(ts, proto.t_end + 0.1)
    with pytest.raises(ProtocolRangeError):
        proto.value(outside)
    with pytest.raises(ProtocolRangeError):
        proto.rate(outside[::-1])


# acceptance disabled: propagate(steps=s) returns the run at 2 s steps
NO_ACCEPTANCE = dict(entry_tol=10.0, unitarity_gate=1e6)


def test_magnus_step_is_fourth_order():
    model = TwoLevel()
    proto = Protocol.linear(0.0, 0.7, 1.0)
    ref = propagate(model, proto, steps=2048, **NO_ACCEPTANCE).U
    errors = [
        float(np.max(np.abs(propagate(model, proto, steps=s, **NO_ACCEPTANCE).U - ref)))
        for s in (8, 16, 32)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 <= coarse / fine <= 20.0


def test_hermitian_frame_steps_are_exactly_unitary():
    model = Oscillator(omega_ref=1.0, shift=0.5, n_basis=16)
    proto = Protocol.linear(1.0, 1.4, 1.0)
    res = propagate(model, proto, steps=8, gauge_precondition=True, **NO_ACCEPTANCE)
    assert res.steps_used == 16
    assert max(defect for _, defect in res.checkpoints) <= 1e-12


def test_block_size_follows_dimension():
    assert _block_steps(28) == 16
    assert _block_steps(2) == 3136
    assert _block_steps(60) == 16


def _assert_block_seeds_match(model, proto, fine, frame=False):
    block = _block_steps(model.dimension)
    for seed in (block - 1, block, block + 1):
        res = propagate(model, proto, steps=seed, entry_tol=1e-10, gauge_precondition=frame)
        assert res.steps_used % seed == 0
        assert np.max(np.abs(res.U - fine)) <= 1e-10


def test_block_boundaries_do_not_matter():
    model = TwoLevel()
    proto = Protocol.erf(0.0, 0.6, 0.5, window=3.0)
    fine = propagate(model, proto, entry_tol=1e-13)
    _assert_block_seeds_match(model, proto, fine.U)


def test_block_boundaries_do_not_matter_in_the_d28_hermitian_frame():
    model = Oscillator(omega_ref=1.0, shift=0.5, n_basis=28)
    proto = Protocol.linear(1.0, 1.2, 0.3)
    # at d = 28 rounding keeps entry changes above 1e-14, so the reference is
    # a fixed 2048-step run (1.3e-14 from the 1024-step one)
    fine = propagate(model, proto, steps=1024, gauge_precondition=True, **NO_ACCEPTANCE)
    _assert_block_seeds_match(model, proto, fine.U, frame=True)


def _assert_matches_expm(omega):
    E = scipy.linalg.expm(omega)
    scale = np.maximum(1.0, np.linalg.norm(E, ord=2, axis=(1, 2)))
    assert np.all(np.max(np.abs(_expm2(omega) - E), axis=(1, 2)) <= 1e-13 * scale)


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.complex128,
        st.integers(1, 8).map(lambda k: (k, 2, 2)),
        elements=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    )
)
def test_closed_form_two_by_two_exponential_matches_expm(omega):
    _assert_matches_expm(omega)


def test_closed_form_exponential_special_cases():
    # a multiple of the identity: N = 0
    c = 0.3 - 1.2j
    scalar = np.broadcast_to(c * np.eye(2), (1, 2, 2))
    _assert_matches_expm(scalar)
    npt.assert_array_equal(_expm2(scalar)[0], np.exp(c) * np.eye(2))
    # the two-level generator at the exceptional point: s = 0 with N nilpotent, N != 0
    omega = -0.37j * TwoLevel().hamiltonian(np.array([1.0]))
    _assert_matches_expm(omega)
    npt.assert_array_equal(_expm2(omega)[0], np.eye(2) + omega[0])
    # |s| = 1e-9, where cosh(s) and sinh(s)/s both sit at 1 + O(1e-18)
    near = np.array([[[0.1 + 2e-10j, 0.5], [2e-18, 0.1 - 2e-10j]]])
    _assert_matches_expm(near)


def test_two_level_propagation_avoids_scipy_expm(monkeypatch):
    def refuse(_):
        raise AssertionError("scipy.linalg.expm called on the two-level path")

    expected = scipy.linalg.expm(-0.7j * TwoLevel().hamiltonian(0.4))
    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    res = propagate(TwoLevel(), Protocol.linear(0.4, 0.4, 0.7), entry_tol=1e-12)
    npt.assert_allclose(res.U, expected, atol=1e-9)


_ENTRIES = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(shapes=mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=4), data=st.data())
def test_entrywise_two_by_two_product_matches_matmul(shapes, data):
    A = data.draw(arrays(np.complex128, shapes.input_shapes[0] + (2, 2), elements=_ENTRIES))
    B = data.draw(arrays(np.complex128, shapes.input_shapes[1] + (2, 2), elements=_ENTRIES))
    expected = A @ B
    got = _mul2(A, B)
    assert got.shape == expected.shape
    norms = np.linalg.norm(A, axis=(-2, -1)) * np.linalg.norm(B, axis=(-2, -1))
    scale = np.maximum(1.0, norms)[..., None, None]
    assert np.all(np.abs(got - expected) <= 1e-15 * scale)


@pytest.mark.parametrize("batch", [(), (3,)])
def test_product_tree_matches_sequential_product(rng, batch):
    # a batch of pieces of equal length, one product each
    for length in range(1, 41):
        shape = batch + (length, 2, 2)
        S = np.eye(2) + 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        expected = np.broadcast_to(np.eye(2, dtype=complex), batch + (2, 2))
        for k in range(length):
            expected = S[..., k, :, :] @ expected
        got = _piece_products(S.reshape(-1, 2, 2), length)
        assert got.shape == (int(np.prod(batch)), 2, 2)
        got = got.reshape(batch + (2, 2))
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def _carried_tree(S):
    """S[L-1] @ ... @ S[0] by pairwise levels that carry each level's odd factor up unpaired."""
    while len(S) > 1:
        even = len(S) // 2 * 2
        S = [*(_mul2(S[j + 1], S[j]) for j in range(0, even, 2)), *S[even:]]
    return S[0]


@settings(max_examples=200, deadline=None)
@given(every=st.integers(1, 40), full=st.integers(0, 5), last=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_padded_tree_pairs_like_the_carried_tree(every, full, last, seed):
    # `full` pieces of `every` steps and a last piece, possibly shorter
    last = min(last, every)
    k = full * every + last
    rng = np.random.default_rng(seed)
    E = np.eye(2) + 0.3 * (rng.standard_normal((k, 2, 2)) + 1j * rng.standard_normal((k, 2, 2)))
    expected = np.stack([_carried_tree(list(E[j : j + every])) for j in range(0, k, every)])
    got = _piece_products(E, every)
    assert got.flags.c_contiguous
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim, cols", [(2, 2), (2, 1), (5, 5), (5, 3)])
def test_stacked_unitarity_residual_equals_single_calls(rng, dim, cols):
    U = rng.standard_normal((6, dim, cols)) + 1j * rng.standard_normal((6, dim, cols))
    G = rng.standard_normal((6, dim, dim)) + 1j * rng.standard_normal((6, dim, dim))
    G0 = rng.standard_normal((cols, cols)) + 1j * rng.standard_normal((cols, cols))
    stacked = unitarity_residual(U, G0, G)
    assert stacked.shape == (6,)
    single = [unitarity_residual(U[k], G0, G[k]) for k in range(6)]
    assert all(isinstance(r, float) for r in single)
    npt.assert_array_equal(stacked, single)
    # a static metric broadcasts against the stack
    npt.assert_array_equal(unitarity_residual(U, G0, G[0]), [unitarity_residual(u, G0, G[0]) for u in U])


def _recording_expm2(monkeypatch):
    calls = []

    def record(omega):
        calls.append(_expm2(omega))
        return calls[-1]

    monkeypatch.setattr(dynamics, "_expm2", record)
    return calls


@pytest.mark.parametrize("steps", [50, 3500])
def test_two_level_chaining_matches_per_step_product(monkeypatch, steps):
    # n = 2 * steps is no multiple of the checkpoint stride n // 12; 7000
    # steps also cut the pieces at the block ends (3136, 6272)
    model = TwoLevel()
    proto = Protocol.erf(0.0, 0.6, 0.5, window=3.0)
    col = np.array([[0.6], [0.8j]])
    calls = _recording_expm2(monkeypatch)
    res = propagate(model, proto, steps=steps, initial=col, **NO_ACCEPTANCE)
    n = res.steps_used
    assert n == 2 * steps and n % (n // 12) != 0
    blocks = -(-n // _block_steps(2))
    # the accepted run's steps come last (at 50, after the first run's in the same call)
    per_step = np.concatenate(calls[-blocks:])[-n:]
    assert len(per_step) == n
    U = col.astype(complex)
    for E in per_step:
        U = E @ U
    assert np.max(np.abs(res.U - U)) <= 1e-13
    t0, dt, every = proto.t_start, res.step_size, n // 12
    expected_times = [t0 + k * dt for k in range(1, n + 1) if k % every == 0 or k == n]
    assert [t for t, _ in res.checkpoints] == expected_times


def _overflow_first_call(monkeypatch, rows):
    """Make the first `_expm2` call return inf in its first `rows(k)` of k exponentials."""
    first = []

    def overflow_once(omega):
        E = _expm2(omega)
        if not first:
            first.append(True)
            E[: rows(len(E))] = np.inf
        return E

    monkeypatch.setattr(dynamics, "_expm2", overflow_once)
    return first


def _assert_refines_past_overflow(res, expected, overflowed):
    assert res.steps_used >= expected.steps_used
    assert np.max(np.abs(res.U - expected.U)) <= 1e-9
    # neither an overflowing run nor the next has an entry change
    for rung in res.rungs[:overflowed]:
        assert rung.worst_checkpoint == rung.entry_change == np.inf
    after = res.rungs[overflowed]
    assert after.entry_change == np.inf and np.isfinite(after.worst_checkpoint)
    assert all(np.isfinite(r.entry_change) for r in res.rungs[overflowed + 1 :])


def test_overflowing_first_run_keeps_refining(monkeypatch):
    model = TwoLevel()
    proto = Protocol.linear(0.0, 0.5, 1.0)
    expected = propagate(model, proto, entry_tol=1e-10)
    # the first call holds the steps of the first two runs, which share a pass
    first = _overflow_first_call(monkeypatch, lambda k: k)
    res = propagate(model, proto, entry_tol=1e-10)
    assert first
    _assert_refines_past_overflow(res, expected, overflowed=2)


def test_overflowing_first_of_two_shared_runs_keeps_refining(monkeypatch):
    model = TwoLevel()
    proto = Protocol.linear(0.0, 0.5, 1.0)
    expected = propagate(model, proto, entry_tol=1e-10)
    # the first run's n steps lead the 3 n of the shared pass
    first = _overflow_first_call(monkeypatch, lambda k: k // 3)
    res = propagate(model, proto, entry_tol=1e-10)
    assert first
    _assert_refines_past_overflow(res, expected, overflowed=1)


class _CountingTwoLevel(TwoLevel):
    """TwoLevel that counts its hamiltonian and metric calls."""

    def __init__(self):
        object.__setattr__(self, "calls", {"hamiltonian": 0, "metric": 0})

    def hamiltonian(self, v):
        self.calls["hamiltonian"] += 1
        return super().hamiltonian(v)

    def metric(self, v):
        self.calls["metric"] += 1
        return super().metric(v)


def test_first_two_rungs_share_one_pass():
    model = _CountingTwoLevel()
    res = propagate(model, Protocol.linear(0.0, 0.5, 1.0), steps=128, **NO_ACCEPTANCE)
    assert [r.n for r in res.rungs] == [128, 256]
    first, second = res.rungs
    assert first.entry_change == np.inf and np.isfinite(second.entry_change)
    assert first.seconds > 0 and second.seconds > 0
    # the pass's wall time is shared in proportion to the steps
    assert second.seconds == pytest.approx(2 * first.seconds)
    # one family evaluation for all 3 n steps; the metric once at both
    # window edges and once for both runs' checkpoints
    assert model.calls == {"hamiltonian": 1, "metric": 2}


def _explicit_magnus_product(model, proto, n, hbar):
    """U of n Magnus steps, each built from the model and exponentiated on its own."""
    t0, dt = proto.t_start, (proto.t_end - proto.t_start) / n
    nodes = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0
    U = np.eye(2, dtype=complex)
    for k in range(n):
        A1, A2 = (
            (-1j / hbar) * (model.hamiltonian(v) + gauge_field(model.metric(v), model.metric_rate(v, r), hbar))
            for v, r in ((proto.value(t), proto.rate(t)) for t in t0 + (k + nodes) * dt)
        )
        omega = 0.5 * dt * (A1 + A2) + np.sqrt(3.0) / 12.0 * dt * dt * (A2 @ A1 - A1 @ A2)
        U = _expm2(omega[None])[0] @ U
    return U


@pytest.mark.parametrize("proto", [Protocol.linear(0.0, 0.6, 1.0), Protocol.erf(0.1, 0.7, 0.4)])
def test_joint_pass_matches_an_explicit_step_by_step_product(proto):
    # each run of the shared pass takes its own dt: a wrong one moves U by
    # far more than rounding
    hbar = 0.7
    res = propagate(TwoLevel(), proto, hbar=hbar, steps=48, **NO_ACCEPTANCE)
    assert [r.n for r in res.rungs] == [48, 96]
    expected = _explicit_magnus_product(TwoLevel(), proto, 96, hbar)
    assert np.max(np.abs(res.U - expected)) <= 1e-13


@pytest.mark.parametrize(
    "steps, max_steps, sizes",
    [
        (1045, dynamics.MAX_STEPS, [3135]),  # 3 n fills the batch of 3136 steps
        (1046, dynamics.MAX_STEPS, [1046, 2092]),  # 3 n exceeds it
        (128, 255, [128]),  # 2 n exceeds max_steps: one run, then no convergence
    ],
)
def test_first_two_rungs_share_a_pass_only_where_they_fit(monkeypatch, steps, max_steps, sizes):
    calls = _recording_expm2(monkeypatch)
    try:
        propagate(TwoLevel(), Protocol.linear(0.0, 0.5, 1.0), steps=steps, max_steps=max_steps,
                  **NO_ACCEPTANCE)
    except NotConvergedError:
        assert 2 * steps > max_steps
    assert [len(E) for E in calls] == sizes


def test_unreachable_checkpoint_gate_fails_loudly():
    # the raw shifted oscillator with every level propagated: the entries
    # converge, but the truncated basis corner keeps the checkpoints near
    # 3e3 at every step count, so refinement must stop instead of spinning
    # toward max_steps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        with pytest.raises(NotConvergedError, match="unitarity gate"):
            two_time_work(
                Oscillator(omega_ref=2.0, shift=1.0, n_basis=30),
                Protocol.erf(2.0, 2.8, 0.5, window=2.0),
                1.0,
                entry_tol=1e-9,
                gauge_precondition=False,
                tol=DEFAULT.with_(spectrum_imag=10.0, population_cutoff=0.0),
                unitarity_gate=10.0,
            )


def test_entry_tolerance_below_rounding_floor_fails_loudly():
    # in this hermitian frame the entry change under halving bottoms out
    # near 1.3e-14 at 2048 steps and then grows (5.0e-14, 1.7e-13), so 1e-14
    # is unreachable; refinement must stop there instead of doubling toward
    # max_steps
    with pytest.raises(NotConvergedError, match=r"failed to decrease.*n = 8192.*entry_tol 1\.0e-14"):
        propagate(
            Oscillator(omega_ref=1.0, shift=0.5, n_basis=28),
            Protocol.linear(1.0, 1.2, 0.3),
            steps=512,
            entry_tol=1e-14,
            gauge_precondition=True,
            max_steps=1 << 14,
        )


def _two_level_ramp(kind: str, end: float, tau: float) -> Protocol:
    return Protocol.linear(0.0, end, tau) if kind == "linear" else Protocol.erf(0.0, end, tau)


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(("linear", "erf")),
    end=st.floats(0.0, 0.9),
    tau=st.floats(0.2, 5.0),
    split=st.floats(0.1, 0.9),
)
def test_random_two_level_ramps_compose_within_gate(kind, end, tau, split):
    model = TwoLevel()
    proto = _two_level_ramp(kind, end, tau)
    t_mid = proto.t_start + split * (proto.t_end - proto.t_start)
    full = propagate(model, proto, entry_tol=1e-10)
    first = propagate(model, proto, entry_tol=1e-10, t1=t_mid)
    second = propagate(model, proto, entry_tol=1e-10, t0=t_mid)
    npt.assert_allclose(second.U @ first.U, full.U, rtol=0, atol=1e-8)
    gate = DEFAULT.propagation * max(1.0, float(np.linalg.norm(full.g_start)))
    assert max(defect for _, defect in full.checkpoints) <= gate


@settings(max_examples=10, deadline=None)
@given(
    kind=st.sampled_from(("linear", "erf")),
    end=st.floats(1.01, 2.0),
    sign=st.sampled_from((-1.0, 1.0)),
    tau=st.floats(0.2, 5.0),
)
def test_random_two_level_ramps_through_the_exceptional_point_raise(kind, end, sign, tau):
    with pytest.raises(SingularMetricError):
        propagate(TwoLevel(), _two_level_ramp(kind, sign * end, tau))


def _taylor(X: np.ndarray) -> np.ndarray:
    work = np.empty((10,) + X.shape, dtype=complex)
    work[1] = X
    return _expm_taylor(work)


def _random_stack(rng, k: int, b: int) -> np.ndarray:
    return rng.standard_normal((k, b, b)) + 1j * rng.standard_normal((k, b, b))


def _with_norm(X: np.ndarray, norm: float) -> np.ndarray:
    """X scaled so that the largest 1-norm in the stack is `norm`."""
    return X * (norm / np.abs(X).sum(axis=-2).max())


_STACKS = dict(
    k=st.integers(1, 4),
    b=st.integers(1, 9),
    log_norm=st.floats(np.log(1e-3), np.log(50.0)),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=80, deadline=None)
@given(normal=st.booleans(), **_STACKS)
def test_taylor_exponential_matches_expm(normal, k, b, log_norm, seed):
    # norms from the lowest Taylor degree's range up to six squarings
    rng = np.random.default_rng(seed)
    X = _random_stack(rng, k, b)
    if normal:  # a unitary similarity of a complex diagonal
        Q = np.linalg.qr(X)[0]
        X = (Q * _random_stack(rng, k, b)[:, :1, :]) @ Q.conj().swapaxes(-1, -2)
    X = _with_norm(X, np.exp(log_norm))
    expected = scipy.linalg.expm(X)
    scale = np.maximum(1.0, np.linalg.norm(expected, ord=2, axis=(1, 2)))
    assert np.all(np.max(np.abs(_taylor(X) - expected), axis=(1, 2)) <= 1e-13 * scale)


@settings(max_examples=40, deadline=None)
@given(**_STACKS)
def test_taylor_exponential_of_anti_hermitian_stacks_is_unitary(k, b, log_norm, seed):
    # each of the up to six squarings roughly doubles the defect
    X = _random_stack(np.random.default_rng(seed), k, b)
    E = _taylor(_with_norm(X - X.conj().swapaxes(-1, -2), np.exp(log_norm)))
    defect = np.max(np.abs(E.conj().swapaxes(-1, -2) @ E - np.eye(b)))
    assert defect <= 1e-15 * (10.0 + np.exp(log_norm))


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=5), seed=st.integers(0, 2**32 - 1))
def test_invariant_blocks_of_permuted_block_diagonal_stacks(sizes, seed):
    rng = np.random.default_rng(seed)
    d = sum(sizes)
    blocks = np.split(rng.permutation(d), np.cumsum(sizes)[:-1])
    H0, H1 = np.zeros((2, d, d), dtype=complex)
    for blk in blocks:
        H0[blk[:, None], blk], H1[blk[:, None], blk] = _random_stack(rng, 2, blk.size)
    pattern = (H0 != 0) | (H1 != 0)
    found = [tuple(row) for idx in _invariant_blocks(pattern | pattern.T) for row in idx]
    assert sorted(found) == sorted(tuple(sorted(blk)) for blk in blocks)
    # each group's stack holds the dense exponentials' diagonal blocks
    exponentials = _BlockExponentials(d, 2, (H0, H1, lambda v: v + 0.5 * v**2))
    assert sorted(tuple(row) for idx in exponentials.index for row in idx) == sorted(found)
    alpha, gamma = -0.3j, -0.05
    v = np.array([[0.2, 0.7], [-0.4, 1.1]])  # two steps, two nodes each
    stacks = exponentials.affine(exponentials.coefficients(v + 0.5 * v**2, alpha, gamma))
    A = H0 + (v + 0.5 * v**2).reshape(-1)[:, None, None] * H1
    A1, A2 = A[0::2], A[1::2]
    dense = scipy.linalg.expm(alpha * (A1 + A2) + gamma * (A2 @ A1 - A1 @ A2))
    scale = max(1.0, np.max(np.abs(dense)))
    for idx, E in zip(exponentials.index, stacks, strict=True):
        assert E.shape == (2, *idx.shape, idx.shape[1])
        assert np.max(np.abs(E - dense[:, idx[:, :, None], idx[:, None, :]])) <= 1e-13 * scale


def _magnus_steps(h_of, proto: Protocol, n: int, expm):
    """U after each of n fourth-order Magnus steps, one dense exponential at a time."""
    dt = (proto.t_end - proto.t_start) / n
    U = None
    for j in range(n):
        A = -1j * h_of(proto.value(proto.t_start + (j + dynamics._NODES) * dt))
        omega = 0.5 * dt * (A[0] + A[1]) + dynamics._COMMUTATOR * dt * dt * (A[1] @ A[0] - A[0] @ A[1])
        U = expm(omega) if U is None else expm(omega) @ U
        yield U


def _magnus_reference(h_of, proto: Protocol, n: int, expm) -> np.ndarray:
    """U after n fourth-order Magnus steps, one dense exponential at a time."""
    for U in _magnus_steps(h_of, proto, n, expm):
        pass
    return U


def _expm_eigh(omega: np.ndarray) -> np.ndarray:
    """exp(Omega) for anti-hermitian Omega through a hermitian eigendecomposition."""
    w, V = np.linalg.eigh(1j * omega)
    return (V * np.exp(-1j * w)) @ V.conj().T


def test_d28_hermitian_frame_matches_the_eigendecomposition_steps():
    # the frame couples level n to n +- 2 only, so it runs as two parity blocks
    model = Oscillator(0.2, 1.0, 28)
    proto = Protocol.erf(0.2, 0.6, 3.0)
    res = propagate(model, proto, steps=128, gauge_precondition=True, **NO_ACCEPTANCE)
    assert res.steps_used == 256
    expected = _magnus_reference(model.hermitian_frame, proto, 256, _expm_eigh)
    assert np.max(np.abs(res.U - expected)) <= 1e-12


def test_single_column_in_the_d28_frame_matches_the_dense_steps_to_rounding(rng):
    # a one-column block product takes a matrix-vector kernel whose summation
    # order depends on the block length, so a single column is not bitwise
    # the first column of a wider run; it agrees to rounding
    model = Oscillator(0.2, 1.0, 28)
    proto = Protocol.erf(0.2, 0.6, 3.0)
    X = rng.standard_normal((28, 2)) + 1j * rng.standard_normal((28, 2))
    kwargs = dict(steps=128, gauge_precondition=True, **NO_ACCEPTANCE)
    one = propagate(model, proto, initial=X[:, :1], **kwargs).U
    two = propagate(model, proto, initial=X, **kwargs).U
    scale = np.max(np.abs(two))
    assert np.max(np.abs(one - two[:, :1])) <= 1e-14 * scale
    dense = _magnus_reference(model.hermitian_frame, proto, 256, _expm_eigh) @ X[:, :1]
    assert np.max(np.abs(one - dense)) <= 1e-13 * scale


class _TermsFree:
    """A model without its affine terms, so `propagate` assembles each step
    from the node generators (the generic path)."""

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        if name.endswith("_terms"):
            raise AttributeError(name)
        return getattr(self._model, name)


def test_real_valued_generators_propagate_like_complex_ones():
    class RealFrame(Oscillator):
        def hermitian_frame(self, omega):
            return super().hermitian_frame(omega).real

    proto = Protocol.linear(1.0, 1.2, 0.3)
    kwargs = dict(steps=16, gauge_precondition=True, **NO_ACCEPTANCE)
    real = propagate(_TermsFree(RealFrame(1.0, 0.5, 12)), proto, **kwargs)
    npt.assert_array_equal(real.U, propagate(_TermsFree(Oscillator(1.0, 0.5, 12)), proto, **kwargs).U)


@pytest.mark.parametrize(
    "model, proto, frame",
    [
        (Oscillator(0.2, 1.0, 60), Protocol.erf(0.2, 0.6, 3.0), True),
        (Oscillator(1.0, 0.3, 28), Protocol.linear(1.0, 1.2, 0.3), False),
        (Oscillator(2.0, 1.0, 30), Protocol.linear(2.0, 2.8, 1.0), False),
    ],
    ids=["frame_d60", "raw_d28", "raw_d30"],
)
def test_affine_assembly_matches_the_generic_one(model, proto, frame):
    kwargs = dict(steps=64, gauge_precondition=frame, **NO_ACCEPTANCE)
    generic = propagate(_TermsFree(model), proto, **kwargs).U
    affine = propagate(model, proto, **kwargs).U
    assert np.max(np.abs(affine - generic)) <= 1e-13 * np.max(np.abs(generic))


@pytest.mark.parametrize("frame", [True, False], ids=["frame", "raw"])
def test_oscillator_propagation_makes_no_model_calls(monkeypatch, frame):
    # the affine terms replace every per-step evaluation of the family; the
    # family is called once, on the two window edges, to check its terms
    calls = []
    for name in ("hamiltonian", "hermitian_frame"):
        method = getattr(Oscillator, name)
        monkeypatch.setattr(Oscillator, name, lambda self, v, _m=method, _n=name: calls.append(_n) or _m(self, v))
    model = Oscillator(1.0, 0.3, 12)
    model.hamiltonian(1.0)
    assert calls == ["hamiltonian"]  # the counting wrappers are in place
    res = propagate(model, Protocol.linear(1.0, 1.2, 0.3), steps=16, gauge_precondition=frame, **NO_ACCEPTANCE)
    assert res.steps_used == 32
    assert calls == ["hamiltonian", "hermitian_frame" if frame else "hamiltonian"]


@pytest.mark.parametrize("frame", [True, False], ids=["frame", "raw"])
def test_a_family_without_matching_terms_is_refused(frame):
    # a subclass that shifts a family by the identity but keeps the base
    # class's terms would integrate the unshifted family
    name = "hermitian_frame" if frame else "hamiltonian"

    def base_terms(self):
        return getattr(Oscillator, f"{name}_terms")(self)

    def shifted_family(self, v):
        H0, H1, f = base_terms(self)
        return H0 + np.eye(self.n_basis) + f(v)[..., None, None] * H1

    class Shifted(Oscillator):
        pass

    setattr(Shifted, name, shifted_family)
    proto = Protocol.linear(1.0, 1.2, 0.3)
    kwargs = dict(steps=16, gauge_precondition=frame, **NO_ACCEPTANCE)
    with pytest.raises(ValueError, match=f"{name}_terms"):
        propagate(Shifted(1.0, 0.3, 12), proto, **kwargs)

    # overriding the terms as well makes the pair consistent: the shift only
    # multiplies U by the phase e^{-i tau}
    def shifted_terms(self):
        H0, H1, f = base_terms(self)
        return H0 + np.eye(self.n_basis), H1, f

    setattr(Shifted, f"{name}_terms", shifted_terms)
    shifted = propagate(Shifted(1.0, 0.3, 12), proto, **kwargs).U
    plain = propagate(Oscillator(1.0, 0.3, 12), proto, **kwargs).U
    npt.assert_allclose(shifted, np.exp(-0.3j) * plain, rtol=0, atol=1e-12)


class _AffineFamily:
    """H0 + f(v) H1 with f(v) = v + c v^2, under a static identity metric."""

    metric_is_static = True

    def __init__(self, H0, H1, c):
        self.dimension = H0.shape[0]
        self._terms = (H0, H1, lambda v: np.asarray(v) + c * np.asarray(v) ** 2)

    def hamiltonian_terms(self):
        return self._terms

    def hamiltonian(self, v):
        H0, H1, f = self._terms
        return H0 + f(v)[..., None, None] * H1

    def metric(self, v=0.0):
        return np.eye(self.dimension, dtype=complex)


class _BreathingAffineFamily(_AffineFamily):
    """An affine family under the moving metric (1 + v^2) I, whose gauge term
    is not part of the terms."""

    metric_is_static = False

    def metric(self, v=0.0):
        return (1.0 + np.asarray(v) ** 2)[..., None, None] * np.eye(self.dimension, dtype=complex)

    def metric_inverse(self, v=0.0):
        return np.eye(self.dimension, dtype=complex) / (1.0 + np.asarray(v) ** 2)[..., None, None]

    def metric_rate(self, v, dv_dt):
        return (2.0 * np.asarray(v) * dv_dt)[..., None, None] * np.eye(self.dimension, dtype=complex)


def test_a_moving_metric_keeps_the_generic_assembly():
    rng = np.random.default_rng(5)
    H0, H1 = 0.3 * _random_stack(rng, 2, 6)
    model = _BreathingAffineFamily(H0 + H0.conj().T, H1 + H1.conj().T, 0.5)
    proto = Protocol.linear(0.0, 0.8, 1.0)
    res = propagate(model, proto, steps=16, **NO_ACCEPTANCE)
    npt.assert_array_equal(res.U, propagate(_TermsFree(model), proto, steps=16, **NO_ACCEPTANCE).U)
    # the gauge term keeps U metric-unitary; without it the defect would be O(1)
    assert max(r for _, r in res.checkpoints) <= 1e-6


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(3, 12),
    blocks=st.booleans(),
    c=st.floats(-1.0, 1.0),
    steps=st.integers(2, 24),
    seed=st.integers(0, 2**32 - 1),
    generic=st.booleans(),
)
def test_random_affine_families_match_the_dense_magnus_steps(d, blocks, c, steps, seed, generic):
    rng = np.random.default_rng(seed)
    H0, H1 = 0.3 * _random_stack(rng, 2, d)
    if blocks:  # each term on its own permuted diagonal blocks
        labels = [rng.permutation(d) % int(rng.integers(2, d)) for _ in range(2)]
        H0, H1 = (np.where(lab[:, None] == lab, H, 0.0) for lab, H in zip(labels, (H0, H1)))
    model = _AffineFamily(H0, H1, c)
    proto = Protocol.erf(-0.5, 1.0, 0.4)
    # the generic case assembles each step from the node generators as one dense block
    res = propagate(_TermsFree(model) if generic else model, proto, steps=steps, **NO_ACCEPTANCE)
    expected = _magnus_reference(model.hamiltonian, proto, res.steps_used, scipy.linalg.expm)
    assert np.max(np.abs(res.U - expected)) <= 1e-13 * np.max(np.abs(expected))


def _block_family(rng, labels) -> _AffineFamily:
    """A non-hermitian affine family whose terms couple only levels with equal labels."""
    same = labels[:, None] == labels[None, :]
    H0, H1 = (np.where(same, H, 0.0) for H in 0.3 * _random_stack(rng, 2, labels.size))
    return _AffineFamily(H0, H1, 0.5)


@pytest.mark.parametrize("assembly", ["affine", "generic"])
def test_block_diagonal_initial_keeps_exact_off_block_zeros(assembly):
    # each step moves only the rows of its own block, so entries that couple
    # two blocks are never written to
    rng = np.random.default_rng(3)
    labels = rng.permutation(np.arange(9) % 3)
    model = _block_family(rng, labels)
    if assembly == "generic":
        model = _TermsFree(model)
    off_block = labels[:, None] != labels[None, :]
    initial = np.where(off_block, 0.0, _random_stack(rng, 1, 9)[0])
    res = propagate(model, Protocol.erf(-0.5, 1.0, 0.4), steps=40, initial=initial, **NO_ACCEPTANCE)
    assert np.all(res.U[off_block] == 0)
    assert np.all(res.U[~off_block] != 0)


def test_blocks_of_two_sizes_advance_a_column_block_through_checkpoints():
    # blocks of 2, 2 and 3 levels make two groups; 300 steps fill one batch
    # of 256 and part of a second, and most checkpoints fall inside a batch
    rng = np.random.default_rng(8)
    model = _block_family(rng, rng.permutation(np.array([0, 0, 1, 1, 2, 2, 2])))
    proto = Protocol.erf(-0.5, 1.0, 0.4)
    initial = _random_stack(rng, 1, 7)[0][:, :3]
    res = propagate(model, proto, steps=150, initial=initial, **NO_ACCEPTANCE)
    n, block = res.steps_used, _block_steps(7)
    assert (n, block) == (300, 256)
    marks = [k for k in range(1, n + 1) if k % (n // 12) == 0 or k == n]
    assert any(k % block for k in marks)
    dt = (proto.t_end - proto.t_start) / n
    assert [t for t, _ in res.checkpoints] == (proto.t_start + np.array(marks) * dt).tolist()
    steps = _magnus_steps(model.hamiltonian, proto, n, scipy.linalg.expm)
    at_mark = [U @ initial for k, U in enumerate(steps, 1) if k in marks]
    expected = at_mark[-1]
    assert np.max(np.abs(res.U - expected)) <= 1e-13 * np.max(np.abs(expected))
    M0 = initial.conj().T @ initial
    residuals = [np.linalg.norm(U.conj().T @ U - M0) for U in at_mark]
    npt.assert_allclose([r for _, r in res.checkpoints], residuals, rtol=1e-12)


class _SwitchedCoupling:
    """Non-hermitian blocks {0, 3, 6, 9} and the other eight levels, under a
    static identity metric; a hermitian coupling between the blocks is on
    only while the control exceeds 0.7."""

    dimension = 12
    metric_is_static = True

    def __init__(self):
        rng = np.random.default_rng(11)
        d = self.dimension
        M = 0.3 * _random_stack(rng, 1, d)[0]
        block = np.arange(d) % 3 == 0
        same = block[:, None] == block[None, :]
        self._blocks = np.where(same, M, 0.0)
        self._coupling = np.where(same, 0.0, M + M.conj().T)
        self._drive = np.diag(np.linspace(0.0, 1.0, d)).astype(complex)

    def hamiltonian(self, v):
        v = np.asarray(v, dtype=float)[..., None, None]
        return self._blocks + v * self._drive + np.maximum(v - 0.7, 0.0) * self._coupling

    def metric(self, v=0.0):
        return np.eye(self.dimension, dtype=complex)


def test_a_coupling_that_switches_on_and_off_runs_as_one_dense_block():
    # a family without terms takes all 12 levels as one block whatever its
    # zero pattern; 87 steps per batch: each run starts on the uncoupled
    # blocks, sees the coupled levels, and ends uncoupled in a short last batch
    model = _SwitchedCoupling()
    proto = Protocol.tabulated([(0.0, 0.0), (2.0, 1.0), (4.0, 0.0)])
    assert _block_steps(model.dimension) == 87
    assert [idx.shape for idx in _BlockExponentials(model.dimension, 87).index] == [(1, 12)]
    res = propagate(model, proto, steps=300, **NO_ACCEPTANCE)
    assert res.steps_used == 600
    expected = _magnus_reference(model.hamiltonian, proto, 600, scipy.linalg.expm)
    assert np.max(np.abs(res.U - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.skipif(sys.platform != "linux", reason="counts minor page faults through getrusage")
def test_d28_propagation_does_not_allocate_per_step():
    # a fresh (16, 28, 28) complex temporary per batch of 16 steps touches
    # about 50 new pages; the step buffers of a propagate call are reused
    import resource

    model, proto = Oscillator(0.2, 1.0, 28), Protocol.erf(0.2, 0.6, 3.0)
    cols = np.eye(28, dtype=complex)[:, :4]

    def run():
        return propagate(model, proto, steps=512, entry_tol=1e30, gauge_precondition=True, initial=cols)

    run()  # warm-up: model caches and the allocator's arenas
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    res = run()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert res.steps_used == 1024
    assert faults < 512 + 1024, f"{faults} minor page faults over 1536 steps"


# ---------------------------------------------------------------------------
# lanes: propagations of one model that share the doubling ladder's passes


def _solo(model, protocol, initial, **options):
    """propagate's result, or the exception it raises."""
    try:
        return propagate(model, protocol, initial=initial, **options)
    except Exception as exc:  # noqa: BLE001 - compared with the lane's
        return exc


def _assert_same_outcome(got, solo):
    """A lane's outcome is its solo propagate's bit for bit, or the same exception."""
    if isinstance(solo, Exception):
        assert type(got) is type(solo) and str(got) == str(solo)
        return
    assert not isinstance(got, Exception), got
    for name in ("U", "g_start", "g_end", "initial"):
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(solo, name))
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.checkpoints == solo.checkpoints
    for name in ("steps_used", "step_size", "entry_change", "unitarity_gate"):
        assert getattr(got, name) == getattr(solo, name), name
    assert [(r.n, r.entry_change, r.worst_checkpoint) for r in got.rungs] == [
        (r.n, r.entry_change, r.worst_checkpoint) for r in solo.rungs
    ]


_LANE = st.fixed_dictionaries({
    "kind": st.sampled_from(("linear", "erf")),
    "start": st.floats(-0.6, 0.6),
    "end": st.floats(-0.9, 0.9),
    "duration": st.floats(0.2, 3.0),
    "columns": st.integers(1, 2),
    "seed": st.integers(0, 2**32 - 1),
})


def _lane_inputs(lane: dict) -> tuple:
    kind, start, end, tau = lane["kind"], lane["start"], lane["end"], lane["duration"]
    protocol = Protocol.linear(start, end, tau) if kind == "linear" else Protocol.erf(start, end, tau)
    rng = np.random.default_rng(lane["seed"])
    return protocol, rng.standard_normal((2, lane["columns"])) + 1j * rng.standard_normal((2, lane["columns"]))


class _StaticMetricTwoLevel(TwoLevel):
    """TwoLevel that declares its metric static, so each lane takes it at its own window start."""

    metric_is_static = True


@settings(max_examples=30, deadline=None)
@given(
    lanes=st.lists(_LANE, min_size=1, max_size=12),
    climber=st.integers(0, 12),
    broken=st.integers(0, 12),
    model=st.sampled_from((TwoLevel(), TwoLevel(coupling=1.3), _StaticMetricTwoLevel(coupling=1.3),
                           HatanoNelson(length=2, asymmetry=0.3))),
    steps=st.sampled_from((None, 48, 100)),
    max_steps=st.sampled_from((dynamics.MAX_STEPS, 1024)),
)
@example(  # lanes of a static metric that depends on where each window starts
    lanes=[dict(kind="linear", start=s, end=0.5, duration=1.0, columns=2, seed=1) for s in (0.0, 0.4)],
    climber=0, broken=3, model=_StaticMetricTwoLevel(coupling=1.3), steps=None, max_steps=dynamics.MAX_STEPS,
)
def test_lanes_match_their_solo_propagations(lanes, climber, broken, model, steps, max_steps):
    inputs = [_lane_inputs(lane) for lane in lanes]
    # a lane that climbs past one batch of steps, and one past the exceptional point
    inputs.insert(climber % (len(inputs) + 1), (Protocol.linear(0.0, 0.99, 30.0), None))
    broken %= len(inputs) + 1
    inputs.insert(broken, (Protocol.linear(0.0, 1.2, 1.0), np.eye(2)[:, :1]))
    protocols, initials = zip(*inputs)
    options = dict(steps=steps, max_steps=max_steps)
    shared = []
    two_level_pass = dynamics._two_level_pass

    def passing(runs, *args):
        out = two_level_pass(runs, *args)
        shared.append({id(lane) for lane, _ in runs})
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_two_level_pass", passing)
        got = dynamics._propagate_lanes(model, protocols, initials, **options)
    assert len(got) == len(inputs)
    # the first pass served, in one piece, every lane that opened: all but
    # the broken one, which the metric scan refuses on TwoLevel()
    assert len(shared[0]) == len(inputs) - (model == TwoLevel())
    for outcome, protocol, initial in zip(got, protocols, initials):
        _assert_same_outcome(outcome, _solo(model, protocol, initial, **options))
    if model == TwoLevel():
        assert isinstance(got[broken], SingularMetricError)


def test_lanes_climb_together_one_pass_per_rung(monkeypatch):
    # 20 lanes' first two runs at the default seed, 128 + 256 steps each,
    # fill more than two batches, yet every lane climbs in the same passes;
    # the longer drives accept up to three rungs later than the shorter
    protocols = [Protocol.linear(0.0, 0.02 + 0.045 * i, 20.0 * (1.0 + 0.1 * i)) for i in range(20)]
    assert 20 * 3 * 128 > 2 * dynamics._block_steps(2)
    passes = []
    two_level_pass = dynamics._two_level_pass

    def passing(runs, *args):
        passes.append(sorted({(id(lane), n) for lane, n in runs}))
        return two_level_pass(runs, *args)

    monkeypatch.setattr(dynamics, "_two_level_pass", passing)
    got = dynamics._propagate_lanes(TwoLevel(), protocols, [None] * 20)
    monkeypatch.undo()
    rungs = max(len(res.rungs) for res in got)
    assert len(passes) == rungs - 1  # the first pass makes the first two rungs
    assert len({lane for lane, _ in passes[0]}) == 20
    assert [sorted({n for _, n in runs}) for runs in passes] == [
        [128, 256], *([128 << k] for k in range(2, rungs))]
    for outcome, protocol in zip(got, protocols):
        _assert_same_outcome(outcome, _solo(TwoLevel(), protocol, None))


@pytest.mark.parametrize(
    "model, options",
    [
        (Oscillator(omega_ref=1.0, shift=0.5, n_basis=10), dict(gauge_precondition=True)),
        (HatanoNelson(length=4, asymmetry=0.3, potential=(0.1, -0.2, 0.3, 0.0)), {}),
    ],
    ids=["affine-frame", "generic"],
)
def test_lanes_above_two_levels_run_one_after_another_as_alone(model, options):
    d = model.dimension
    protocols = [Protocol.erf(1.0, 1.3, 0.4), Protocol.linear(0.9, 1.2, 0.7), Protocol.linear(1.0, 1.1, 0.5)]
    initials = [None, np.eye(d)[:, :2], np.eye(d)[:, :1] * np.nan]
    got = dynamics._propagate_lanes(model, protocols, initials, entry_tol=1e-9, **options)
    for outcome, protocol, initial in zip(got, protocols, initials):
        _assert_same_outcome(outcome, _solo(model, protocol, initial, entry_tol=1e-9, **options))
    assert isinstance(got[2], ValueError)


class _FussyTwoLevel(TwoLevel):
    """TwoLevel whose family refuses drive values above 0.7 in any call."""

    def hamiltonian(self, v):
        if np.max(np.abs(v)) > 0.7:
            raise FloatingPointError("drive above 0.7")
        return super().hamiltonian(v)


def test_a_lane_that_fails_a_shared_pass_fails_alone():
    model = _FussyTwoLevel()
    protocols = [Protocol.linear(0.0, 0.5, 1.0), Protocol.linear(0.0, 0.9, 1.0), Protocol.erf(0.1, 0.6, 0.5)]
    initials = [None, None, np.eye(2)[:, 1:]]
    got = dynamics._propagate_lanes(model, protocols, initials)
    assert isinstance(got[1], FloatingPointError) and str(got[1]) == "drive above 0.7"
    for outcome, protocol, initial in zip(got, protocols, initials):
        _assert_same_outcome(outcome, _solo(model, protocol, initial))


def test_lanes_at_one_rung_share_each_batch(monkeypatch):
    calls = _recording_expm2(monkeypatch)
    model = _CountingTwoLevel()
    protocols = [Protocol.linear(0.0, end, 1.0) for end in (0.2, 0.4, 0.6)]
    got = dynamics._propagate_lanes(model, protocols, [None] * 3, steps=128, **NO_ACCEPTANCE)
    # one batch of all lanes' 128 + 256 steps, one family evaluation; the
    # metric once per lane at the window edges and once for all checkpoints
    assert [len(E) for E in calls] == [3 * 384]
    assert model.calls == {"hamiltonian": 1, "metric": 4}
    for res in got:
        first, second = res.rungs
        assert second.seconds == pytest.approx(2 * first.seconds)


def test_propagate_frees_its_buffers_without_the_cycle_collector():
    # the d > 2 exponential buffers are megabytes at d = 28; a reference
    # cycle through the ladder's closures would keep every call's until
    # the next collection
    gc.collect()
    gc.disable()
    try:
        propagate(Oscillator(omega_ref=1.0, shift=0.5, n_basis=10), Protocol.linear(1.0, 1.2, 0.5),
                  gauge_precondition=True)
        dynamics._propagate_lanes(TwoLevel(), [Protocol.linear(0.0, 0.5, 1.0)] * 2, [None] * 2)
        assert not [o for o in gc.get_objects() if isinstance(o, (_BlockExponentials, dynamics._Lane))]
    finally:
        gc.enable()
