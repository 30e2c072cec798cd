"""Protocols, gauge fields, and the metric-unitary propagator."""

from __future__ import annotations

import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings
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
    gauge_field,
    hamiltonian_at,
    propagate,
    two_time_work,
    unitarity_residual,
)
from pseudotherm import dynamics
from pseudotherm.dynamics import _block_steps, _expm2, _mul2, _tree_product

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


def test_propagation_across_critical_point_raises():
    with pytest.raises(SingularMetricError):
        propagate(TwoLevel(), Protocol.linear(0.0, 1.2, 1.0))


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
        propagate(TwoLevel(), Protocol.linear(0.0, 0.1, 1.0), gauge_precondition=True)


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
    # at d = 28 rounding keeps entry changes near 1.4e-13, so the reference is
    # a fixed 2048-step run (2e-13 from the 1024-step one)
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
    for length in range(1, 41):
        shape = batch + (length, 2, 2)
        S = np.eye(2) + 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        expected = np.broadcast_to(np.eye(2, dtype=complex), batch + (2, 2))
        for k in range(length):
            expected = S[..., k, :, :] @ expected
        got = _tree_product(S)
        assert got.shape == batch + (2, 2)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


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
    per_step = np.concatenate(calls[-blocks:])
    assert len(per_step) == n
    U = col.astype(complex)
    for E in per_step:
        U = E @ U
    assert np.max(np.abs(res.U - U)) <= 1e-13
    t0, dt, every = proto.t_start, res.step_size, n // 12
    expected_times = [t0 + k * dt for k in range(1, n + 1) if k % every == 0 or k == n]
    assert [t for t, _ in res.checkpoints] == expected_times


def test_overflowing_first_run_keeps_refining(monkeypatch):
    model = TwoLevel()
    proto = Protocol.linear(0.0, 0.5, 1.0)
    expected = propagate(model, proto, entry_tol=1e-10)
    first = []

    def overflow_once(omega):
        if not first:
            first.append(True)
            return np.full_like(omega, np.inf)
        return _expm2(omega)

    monkeypatch.setattr(dynamics, "_expm2", overflow_once)
    res = propagate(model, proto, entry_tol=1e-10)
    assert first and res.steps_used >= expected.steps_used
    assert np.max(np.abs(res.U - expected.U)) <= 1e-9


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
    # near 1.4e-13 at 1024 steps and then grows, so 1e-13 is unreachable;
    # refinement must stop there instead of doubling toward max_steps
    with pytest.raises(NotConvergedError, match=r"failed to decrease.*n = 4096.*entry_tol 1\.0e-13"):
        propagate(
            Oscillator(omega_ref=1.0, shift=0.5, n_basis=28),
            Protocol.linear(1.0, 1.2, 0.3),
            steps=512,
            entry_tol=1e-13,
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
