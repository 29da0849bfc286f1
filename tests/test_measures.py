import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrosize import fisher, measures, quantum
from macrosize.errors import DomainError

from conftest import random_density, random_hermitian

C = measures.constants()


def test_constant_values():
    assert C.Q0 == pytest.approx(8.7872e-38, rel=1e-4)
    assert C.P0 == pytest.approx(9.9643e-25, rel=1e-4)
    assert C.J0 == C.hbar / 2
    assert C.Q0 * C.P0 / C.m_u == pytest.approx(C.hbar / 2, rel=1e-12)


def test_extensive_size_two_branch():
    # Equal two-branch superposition: N_ext = (dQ / 2 Q0)^2.
    mass, dx = 1e-20, 1e-6
    dq = mass * dx
    qfi_value = (mass * dx) ** 2  # pure state, Var = (dQ/2)^2, F = 4 Var
    assert measures.extensive_size(qfi_value, C.Q0) == pytest.approx(
        (dq / (2 * C.Q0)) ** 2, rel=1e-12
    )


def test_extensive_size_leggett_momentum():
    delta_p = 1.6e13 * 12.5 * C.m_u * 5e-6
    n_ext = measures.extensive_size(delta_p**2, C.P0)
    assert n_ext == pytest.approx(6.9e11, rel=0.03)


def test_extensive_size_zero_and_errors():
    assert measures.extensive_size(0.0, C.Q0) == 0.0
    with pytest.raises(DomainError):
        measures.extensive_size(1.0, 0.0)


def test_entangled_size_ghz_saturation():
    rho, obs = quantum.ghz_state(5, 0.5)
    assert measures.entangled_size(rho, obs) == pytest.approx(5.0, abs=1e-9)


def test_entangled_size_product_plus_states():
    plus = np.full((2, 2), 0.5, dtype=complex)
    rho = quantum.tensor(plus, plus, plus, plus)
    _ghz, obs = quantum.ghz_state(4, 0.5)
    assert measures.entangled_size(rho, obs) == pytest.approx(1.0, abs=1e-10)


def _qutrit_mixed_max_size(u, p, n):
    """Rank-2 qutrit-register state whose entangled size saturates n."""
    plus = np.array([1.0, 0.0, 0.0], dtype=complex)
    zero = np.array([0.0, 1.0, 0.0], dtype=complex)
    minus = np.array([0.0, 0.0, 1.0], dtype=complex)

    def product(vec):
        out = np.array([1.0], dtype=complex)
        for _ in range(n):
            out = np.kron(out, vec)
        return out

    branch = (product(plus) + product(minus)) / math.sqrt(2.0)
    psi0 = math.sqrt(u) * branch + math.sqrt(1 - u) * product(zero)
    psi1 = math.sqrt(1 - u) * branch - math.sqrt(u) * product(zero)
    rho = p * np.outer(psi0, psi0.conj()) + (1 - p) * np.outer(psi1, psi1.conj())
    site = np.diag([1.0, 0.0, -1.0]).astype(complex)
    locals_ = []
    for i in range(n):
        mats = [np.eye(3, dtype=complex)] * n
        mats[i] = site
        locals_.append(quantum.tensor(*mats))
    return rho, measures.PartitionedObservable.from_locals(locals_, "qutrits")


def test_entangled_size_qutrit_mixed_maximum():
    rho, obs = _qutrit_mixed_max_size(u=0.3, p=0.6, n=4)
    assert measures.entangled_size(rho, obs) == pytest.approx(4.0, abs=1e-9)


def test_entangled_size_incoherent_local_diagnostic():
    # Product of sigma_z eigenstates: all local variances vanish.
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    _g, obs = quantum.ghz_state(2, 0.5)
    with pytest.raises(DomainError, match="incoherent-local"):
        measures.entangled_size(rho, obs)


def test_from_locals_rejects_mismatched_shapes():
    with pytest.raises(DomainError, match="differ in shape"):
        measures.PartitionedObservable.from_locals(
            [np.eye(2, dtype=complex), np.eye(4, dtype=complex)]
        )


def test_from_locals_rejects_non_hermitian_local():
    raising = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(DomainError, match="local observable is not Hermitian"):
        measures.PartitionedObservable.from_locals([quantum.SIGMA_Z, raising])


def _assert_report_is_the_composition(rho, obs):
    """The report equals fisher.qfi of the total and fisher.variance of each local."""
    report = measures.size_report_for_state(rho, obs)
    total_qfi = fisher.qfi(rho, obs.total).value
    local_vars = [fisher.variance(rho, a) for a in obs.locals_]
    assert report.inputs["qfi"] == total_qfi
    assert report.n_ext == measures.extensive_size(total_qfi, 1.0)
    assert report.n_ent == measures.entangled_size_from_values(total_qfi, local_vars)
    assert measures.entangled_size(rho, obs) == report.n_ent


def test_size_report_is_qfi_and_variance_composition(rng):
    for n in range(2, 10):
        _assert_report_is_the_composition(*quantum.ghz_state(n, 0.3, phase=0.4))
    obs = _random_qubit_partition(rng, 3)
    for _ in range(20):
        _assert_report_is_the_composition(random_density(rng, 8), obs)


def test_size_report_checks_the_state_once(monkeypatch):
    rho, obs = quantum.ghz_state(6, 0.3, phase=0.4)
    validated, qfi_operators, summed = [], [], []
    validate_density, qfi, np_sum = quantum.validate_density, fisher.qfi, np.sum

    def counting_validate(state, *args, **kwargs):
        validated.append(state)
        return validate_density(state, *args, **kwargs)

    def recording_qfi(state, operator):
        qfi_operators.append(operator)
        return qfi(state, operator)

    def recording_sum(a, *args, **kwargs):
        summed.append(a)
        return np_sum(a, *args, **kwargs)

    monkeypatch.setattr(quantum, "validate_density", counting_validate)
    monkeypatch.setattr(fisher, "qfi", recording_qfi)
    monkeypatch.setattr(np, "sum", recording_sum)
    measures.size_report_for_state(rho, obs)
    assert len(validated) == 1
    assert len(qfi_operators) == 1 and qfi_operators[0] is obs.total
    assert not any(a is obs.locals_ for a in summed)


@given(
    n=st.integers(min_value=1, max_value=8),
    q=st.floats(min_value=1e-12, max_value=1.0 - 1e-12),
    phase=st.floats(min_value=-100.0, max_value=100.0),
)
@settings(max_examples=60, deadline=None)
def test_ghz_saturates_the_partition(n, q, phase):
    report = measures.size_report_for_state(*quantum.ghz_state(n, q, phase))
    assert report.n_ent == pytest.approx(n, abs=1e-9)
    assert report.n_ext == pytest.approx(4.0 * n * n * q * (1.0 - q), rel=1e-9)
    for end in (0.0, 1.0):
        with pytest.raises(DomainError, match="incoherent-local"):
            measures.size_report_for_state(*quantum.ghz_state(n, end, phase))


def test_witness_depth_values():
    assert measures.witness_depth(4.2) == 5
    assert measures.witness_depth(1.0) == 1
    assert measures.witness_depth(5.1) == 6
    assert measures.witness_depth(0.0) == 0


def test_two_branch_limits():
    assert measures.two_branch_entangled_size(10.0, 1.0) == pytest.approx(5.0)
    assert measures.two_branch_entangled_size(10.0, float("inf")) == 10.0
    n, r = 1.6e13, 9.8e-9
    val = measures.two_branch_entangled_size(n, r)
    assert val == pytest.approx(n * r * r, rel=1e-10)
    assert 1e-3 <= val <= 2e-3


def _apply_mode(psi_tensor, op, mode):
    moved = np.moveaxis(psi_tensor, mode, 0)
    shape = moved.shape
    out = op @ moved.reshape(shape[0], -1)
    return np.moveaxis(out.reshape(shape), 0, mode)


def _two_branch_brute_force(n_modes, beta, per_dim):
    """Exact sizes of (|b..b> + |-b..-b>)/norm with A = sum_i x_i."""
    amps_p = quantum.coherent_amplitudes(beta, per_dim)
    amps_m = quantum.coherent_amplitudes(-beta, per_dim)
    psi_p = psi_m = np.array([1.0], dtype=complex)
    for _ in range(n_modes):
        psi_p = np.kron(psi_p, amps_p)
        psi_m = np.kron(psi_m, amps_m)
    psi = psi_p + psi_m
    psi /= np.linalg.norm(psi)
    psi = psi.reshape((per_dim,) * n_modes)
    _a, x, _p = quantum.fock_operators(per_dim, nu=0.5)
    x = np.asarray(x)
    applied = [_apply_mode(psi, x, i) for i in range(n_modes)]
    means = [float(np.real(np.vdot(psi, a))) for a in applied]
    local_vars = [
        float(np.real(np.vdot(a, a))) - m * m for a, m in zip(applied, means)
    ]
    total = np.sum(applied, axis=0)
    var_total = float(np.real(np.vdot(total, total))) - sum(means) ** 2
    return measures.entangled_size_from_values(4.0 * var_total, local_vars)


def test_two_branch_matches_explicit_gaussian_branches():
    # Pure coherent branches +-beta: per-mode branch ratio r = 2 beta, and
    # the exact value is (N r^2 + 1)/(1 + r^2): the convenience formula
    # plus the bounded per-branch-spread remainder 1/(1 + r^2), which is
    # negligible once the branches are well separated.
    beta, per_dim = 3.0, 36
    for n_modes in (2, 3, 4):
        exact = _two_branch_brute_force(n_modes, beta, per_dim)
        r = 2.0 * beta
        corrected = (n_modes * r**2 + 1.0) / (1.0 + r**2)
        assert exact == pytest.approx(corrected, rel=1e-4)
        formula = measures.two_branch_entangled_size(n_modes, r)
        assert exact == pytest.approx(formula, rel=2e-2)


# ---------------------------------------------------------------------------
# characteristic properties of the entangled size
# ---------------------------------------------------------------------------


def _random_qubit_partition(rng, n):
    sz = np.diag([1.0, -1.0]).astype(complex)
    locals_ = [quantum.qubit_site_operator(sz, i, n) for i in range(n)]
    return measures.PartitionedObservable.from_locals(locals_, f"{n} qubits")


def test_property_max_size(rng):
    for _ in range(30):
        n = int(rng.integers(2, 5))
        obs = _random_qubit_partition(rng, n)
        rho = random_density(rng, 2**n)
        assert measures.entangled_size(rho, obs) <= n + 1e-9


def test_property_ghz_is_the_saturator(rng):
    # Random non-GHZ states stay strictly below the cap; GHZ forms attain it.
    for q in (0.2, 0.5, 0.9):
        rho, obs = quantum.ghz_state(3, q, phase=0.7)
        assert measures.entangled_size(rho, obs) == pytest.approx(3.0, abs=1e-9)
    obs = _random_qubit_partition(rng, 3)
    for _ in range(20):
        rho = random_density(rng, 8, rank=2)
        assert measures.entangled_size(rho, obs) < 3.0 - 1e-6


def test_property_independent_systems(rng):
    sz = np.diag([1.0, -1.0]).astype(complex)
    eye2 = np.eye(2, dtype=complex)
    for _ in range(20):
        rho_a = random_density(rng, 4)
        rho_b = random_density(rng, 2)
        obs_a = _random_qubit_partition(rng, 2)
        joint = quantum.tensor(rho_a, rho_b)
        locals_ = [quantum.tensor(a, eye2) for a in obs_a.locals_]
        locals_.append(quantum.tensor(np.eye(4, dtype=complex), sz))
        obs = measures.PartitionedObservable.from_locals(locals_, "joint")
        lhs = measures.entangled_size(joint, obs)
        n_a = measures.entangled_size(rho_a, obs_a)
        n_b = fisher.qfi(rho_b, sz).value / (4.0 * fisher.variance(rho_b, sz))
        assert lhs <= max(n_a, n_b) + 1e-9


def test_property_classical_mixtures(rng):
    obs = _random_qubit_partition(rng, 3)
    for _ in range(20):
        rho = random_density(rng, 8)
        sigma = random_density(rng, 8)
        p = float(rng.uniform())
        lhs = measures.entangled_size(quantum.mix(p, rho, sigma), obs)
        rhs = max(
            measures.entangled_size(rho, obs), measures.entangled_size(sigma, obs)
        )
        assert lhs <= rhs + 1e-9


def _k_producible_state(rng, blocks):
    """Product of GHZ blocks (block size <= k), classically mixed."""
    parts = []
    for size in blocks:
        q = float(rng.uniform(0.2, 0.8))
        rho, _ = quantum.ghz_state(size, q) if size > 1 else (None, None)
        if rho is None:
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
        parts.append(rho)
    return quantum.tensor(*parts)


def test_property_k_producible_bound(rng):
    layouts = {2: [(2, 2), (2, 1, 1)], 3: [(3, 1), (3, 3)[:1] + (1,)]}
    for k, block_sets in layouts.items():
        for blocks in block_sets:
            n = sum(blocks)
            obs = _random_qubit_partition(rng, n)
            rho = quantum.mix(
                0.5,
                _k_producible_state(rng, blocks),
                _k_producible_state(rng, blocks),
            )
            assert measures.entangled_size(rho, obs) <= k + 1e-9


# ---------------------------------------------------------------------------
# scalar properties
# ---------------------------------------------------------------------------


@given(st.floats(min_value=0.0, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_witness_depth_is_ceiling(value):
    depth = measures.witness_depth(value)
    assert depth - 1 < value <= depth + 1e-9 or (value == 0 and depth == 0)


@given(
    n=st.floats(min_value=1.0, max_value=1e20),
    r1=st.floats(min_value=0.0, max_value=1e6),
    r2=st.floats(min_value=0.0, max_value=1e6),
)
@settings(max_examples=200, deadline=None)
def test_two_branch_monotone_and_bounded(n, r1, r2):
    lo, hi = sorted((r1, r2))
    v_lo = measures.two_branch_entangled_size(n, lo)
    v_hi = measures.two_branch_entangled_size(n, hi)
    assert 0.0 <= v_lo <= v_hi <= n
