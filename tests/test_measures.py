import math
import tracemalloc

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


def test_entangled_size_from_values_rejects_non_finite_input():
    cases = [(1.0, [math.nan]), (math.nan, [1.0]), (math.inf, [1.0]), (1.0, [math.inf])]
    for qfi_value, local_variances in cases:
        with pytest.raises(DomainError, match="must be finite"):
            measures.entangled_size_from_values(qfi_value, local_variances)
    # A rounding-level negative variance is not an incoherent partition.
    assert measures.entangled_size_from_values(1.0, [-1e-18, 1.0]) == 0.25


def test_from_locals_rejects_mismatched_shapes():
    for locals_ in (
        [np.eye(2, dtype=complex), np.eye(4, dtype=complex)],
        [np.array([1.0, -1.0]), quantum.SIGMA_Z],
    ):
        with pytest.raises(DomainError, match="differ in shape"):
            measures.PartitionedObservable.from_locals(locals_)


def test_from_locals_rejects_non_hermitian_local():
    raising = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(DomainError, match="local observable is not Hermitian"):
        measures.PartitionedObservable.from_locals([quantum.SIGMA_Z, raising])


def _sigma_z_partition(n):
    """The collective sigma_z of n qubits as dense qubit_site_operator locals."""
    locals_ = [quantum.qubit_site_operator(quantum.SIGMA_Z, i, n) for i in range(n)]
    return measures.PartitionedObservable.from_locals(locals_, f"{n} qubits")


def _assert_report_is_the_composition(rho, obs):
    """The report equals fisher.qfi of the total and fisher.variance of each local."""
    report = measures.size_report_for_state(rho, obs)
    total, locals_ = obs.total, obs.locals_
    if obs.diagonal:
        total, locals_ = np.diag(total), [np.diag(a) for a in locals_]
    total_qfi = fisher.qfi(rho, total).value
    local_vars = [fisher.variance(rho, a) for a in locals_]
    assert report.inputs["qfi"] == total_qfi
    assert report.n_ext == measures.extensive_size(total_qfi, 1.0)
    assert report.n_ent == measures.entangled_size_from_values(total_qfi, local_vars)
    assert measures.entangled_size(rho, obs) == report.n_ent


def test_size_report_is_qfi_and_variance_composition(rng):
    for n in range(2, 10):
        _assert_report_is_the_composition(*quantum.ghz_state(n, 0.3, phase=0.4))
    obs = _sigma_z_partition(3)
    for _ in range(20):
        _assert_report_is_the_composition(random_density(rng, 8), obs)


def _record_state_checks(monkeypatch):
    """Record every density check, vector check, QFI operator and np.sum input.

    A density matrix is checked by ``quantum.density`` (Hermiticity, trace
    and positivity from its one decomposition), which
    ``quantum.validate_density`` also calls, so each check counts once.
    """
    calls = {"validated": [], "populations": [], "qfi_operators": [], "summed": []}
    density, populations = quantum.density, quantum.populations
    qfi, np_sum = fisher._qfi, np.sum

    def counting_density(state, *args, **kwargs):
        calls["validated"].append(state)
        return density(state, *args, **kwargs)

    def counting_populations(psi, *args, **kwargs):
        calls["populations"].append(psi)
        return populations(psi, *args, **kwargs)

    def recording_qfi(state, operator):
        calls["qfi_operators"].append(operator)
        return qfi(state, operator)

    def recording_sum(a, *args, **kwargs):
        calls["summed"].append(a)
        return np_sum(a, *args, **kwargs)

    monkeypatch.setattr(quantum, "density", counting_density)
    monkeypatch.setattr(quantum, "populations", counting_populations)
    monkeypatch.setattr(fisher, "_qfi", recording_qfi)
    monkeypatch.setattr(np, "sum", recording_sum)
    return calls


def test_size_report_checks_the_state_once(monkeypatch):
    rho, _ = quantum.ghz_state(6, 0.3, phase=0.4)
    obs = _sigma_z_partition(6)
    calls = _record_state_checks(monkeypatch)
    measures.size_report_for_state(rho, obs)
    assert len(calls["validated"]) == 1 and not calls["populations"]
    assert len(calls["qfi_operators"]) == 1 and calls["qfi_operators"][0] is obs.total
    assert not any(a is obs.locals_ for a in calls["summed"])

    # A state vector with diagonal locals: one norm check, no density check.
    monkeypatch.undo()
    psi, obs = quantum.ghz_vector(6, 0.3, phase=0.4)
    calls = _record_state_checks(monkeypatch)
    measures.size_report_for_state(psi, obs)
    assert len(calls["populations"]) == 1 and calls["populations"][0] is psi
    assert not calls["validated"] and not calls["qfi_operators"]


@pytest.mark.parametrize("n", range(1, 11))
def test_structured_report_matches_dense(n):
    dense = _sigma_z_partition(n)
    for q in (1e-12, 1e-9, 0.3, 0.5, 1.0 - 1e-9):
        psi, obs = quantum.ghz_vector(n, q, phase=0.7)
        fast = measures.size_report_for_state(psi, obs)
        slow = measures.size_report_for_state(np.outer(psi, psi.conj()), dense)
        assert fast.n_ext == pytest.approx(slow.n_ext, rel=1e-12, abs=0.0)
        assert fast.n_ent == pytest.approx(slow.n_ent, rel=1e-12, abs=0.0)
        assert fast.witness_depth == slow.witness_depth == n


@pytest.mark.parametrize("n", range(1, quantum.GHZ_VECTOR_MAX_QUBITS + 1))
@given(
    q=st.floats(min_value=1e-12, max_value=1.0 - 1e-12),
    phase=st.floats(min_value=-100.0, max_value=100.0),
)
@settings(max_examples=4, deadline=None)
def test_ghz_vector_saturates_the_partition(n, q, phase):
    report = measures.size_report_for_state(*quantum.ghz_vector(n, q, phase))
    assert report.n_ent == pytest.approx(n, abs=1e-9)
    assert report.n_ext == pytest.approx(4.0 * n * n * q * (1.0 - q), rel=1e-9)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("q", [0.0, 1.0])
def test_ghz_product_ends_are_incoherent_local_on_both_paths(n, q):
    psi, obs = quantum.ghz_vector(n, q, phase=0.7)
    states = [
        (psi, obs),
        (np.outer(psi, psi.conj()), obs),
        (np.outer(psi, psi.conj()), _sigma_z_partition(n)),
    ]
    for state, partition in states:
        with pytest.raises(DomainError, match="incoherent-local"):
            measures.size_report_for_state(state, partition)


def test_state_vector_is_checked_at_the_boundary():
    psi, obs = quantum.ghz_vector(3, 0.5)
    bad_vectors = {
        "norm": 1.1 * psi,
        "nan": np.where(psi != 0, np.nan, psi),
        "inf": np.where(psi != 0, np.inf, psi),
    }
    for bad in bad_vectors.values():
        with pytest.raises(DomainError, match=r"state vector has norm\^2"):
            measures.size_report_for_state(bad, obs)
    with pytest.raises(DomainError, match="dimension mismatch"):
        measures.size_report_for_state(psi, quantum.ghz_vector(2, 0.5)[1])
    with pytest.raises(DomainError, match="dimension mismatch"):
        measures.size_report_for_state(psi, _sigma_z_partition(2))


@pytest.mark.parametrize(
    "diagonal",
    [np.array([1.0, np.nan]), np.array([np.inf, -1.0]), np.array([1.0, -1.0], dtype=complex)],
    ids=["nan", "inf", "complex"],
)
def test_from_locals_rejects_bad_diagonal(diagonal):
    with pytest.raises(DomainError, match="diagonal local observable must be real and finite"):
        measures.PartitionedObservable.from_locals([np.array([1.0, -1.0]), diagonal])


def _tiled_ghz_vector(n, q, phase):
    """The GHZ pair as it was built one site at a time: each site's diagonal
    its own ``np.tile`` of an ``np.repeat``, and the total their running sum."""
    psi, _ = quantum.ghz_vector(n, q, phase)
    locals_ = tuple(
        np.tile(np.repeat([1.0, -1.0], 2 ** (n - 1 - site)), 2**site) for site in range(n)
    )
    total = locals_[0].copy()
    for a in locals_[1:]:
        total += a
    return psi, measures.PartitionedObservable(total, locals_, "qubits")


def _report_or_error(psi, obs):
    try:
        report = measures.size_report_for_state(psi, obs)
    except DomainError as exc:
        return "DomainError", str(exc)
    return repr(report.n_ext), repr(report.n_ent), repr(report.inputs["qfi"])


# Register sizes and seeds of the byte-identity check: every n to 16, and a
# few draws of the larger registers, whose reports take up to 0.15 s each.
BLOCK_EDGE_WEIGHTS = (0.0, 1.0, 1e-300, 1.0 - 1e-16)
BLOCK_SEEDS = {n: range(3) for n in range(1, 17)} | {n: range(1) for n in range(17, 21)}


@pytest.mark.parametrize("n", sorted(BLOCK_SEEDS))
def test_block_register_reports_match_the_tiled_build(n):
    for seed in BLOCK_SEEDS[n]:
        rng = np.random.default_rng(1000 * n + seed)
        draws = [(q, float(rng.uniform(-4.0, 4.0))) for q in rng.uniform(0.0, 1.0, 2)]
        edges = [(q, float(rng.uniform(-4.0, 4.0))) for q in BLOCK_EDGE_WEIGHTS]
        for q, phase in draws + (edges if seed == 0 else []):
            psi, obs = quantum.ghz_vector(n, q, phase)
            assert _report_or_error(psi, obs) == _report_or_error(*_tiled_ghz_vector(n, q, phase))


def test_ghz_register_is_one_c_contiguous_block():
    _psi, obs = quantum.ghz_vector(5, 0.3)
    block = obs.locals_[0].base
    assert block.shape == (5, 32) and block.flags.c_contiguous and block.dtype == float
    assert all(a.base is block for a in obs.locals_)
    # A checked float block is used as given, not copied.
    again = measures.PartitionedObservable.from_locals(block)
    assert all(a.base is block for a in again.locals_)


@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (6, 64), (20, 5)])
def test_block_and_list_of_rows_give_the_same_partition(shape):
    block = np.random.default_rng(shape[0] * 100 + shape[1]).standard_normal(shape) * 1e3
    running = block[0].copy()
    for row in block[1:]:
        running += row
    for given_as in (block, list(block), np.asfortranarray(block)):
        obs = measures.PartitionedObservable.from_locals(given_as)
        assert obs.total.tobytes() == running.tobytes()
        assert all(a.flags.c_contiguous and a.dtype == float for a in obs.locals_)
        assert len(obs.locals_) == shape[0] and obs.diagonal


def _error_message(locals_):
    with pytest.raises(DomainError) as info:
        measures.PartitionedObservable.from_locals(locals_)
    return str(info.value)


def test_block_and_list_of_rows_raise_the_same_errors():
    for value in (np.nan, np.inf, -np.inf, 1j):
        block = np.ones((3, 4), dtype=complex if isinstance(value, complex) else float)
        block[1, 2] = value
        message = "a diagonal local observable must be real and finite"
        assert _error_message(block) == _error_message(list(block)) == message
    empty = "partition needs at least one local observable"
    assert _error_message(np.ones((0, 4))) == _error_message([]) == empty
    mismatched = [np.ones(2), np.ones(3)]
    assert _error_message(mismatched) == "local observables differ in shape: [(2,), (3,)]"
    # A bad local is reported before the shapes, as each local is checked first.
    assert _error_message([np.ones(2), np.array([1.0, np.nan, 1.0])]) == (
        "a diagonal local observable must be real and finite"
    )
    assert _error_message([np.ones(2), quantum.SIGMA_Z]) == (
        "local observables differ in shape: [(2,), (2, 2)]"
    )


def test_ghz_register_peak_memory_at_the_cap():
    # psi, the n x 2**n block, the total and the report's populations and
    # centred row: no n x 2**n temporary and no second copy of the block.
    n = quantum.GHZ_VECTOR_MAX_QUBITS
    tracemalloc.start()
    try:
        report = measures.size_report_for_state(*quantum.ghz_vector(n, 0.3, 0.7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_ent == pytest.approx(n, abs=1e-9)
    assert peak <= 210e6


@pytest.mark.parametrize("n,mixed,arrays", [(11, False, 2), (10, True, 6)])
def test_size_report_peak_memory_in_dense_arrays(n, mixed, arrays):
    # Diagonal locals act elementwise on psi or on the eigenvectors, so a GHZ
    # report holds no d x d array per local: at most ``arrays`` of them.
    rho, obs = quantum.ghz_state(n, 0.3, 0.7)
    dim = rho.shape[0]
    if mixed:
        rho = quantum.mix(0.9, rho, np.eye(dim) / dim)
    tracemalloc.start()
    try:
        measures.size_report_for_state(rho, obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 16 * dim * dim


def test_state_vector_with_dense_locals_matches_density_matrix(rng):
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    obs = _sigma_z_partition(3)
    from_vector = measures.size_report_for_state(psi, obs)
    from_rho = measures.size_report_for_state(np.outer(psi, psi.conj()), obs)
    assert from_vector == from_rho


def _vector_and_matrix_values(psi, obs):
    """repr of (QFI, local variances) from the vector and from |psi><psi|."""
    return [
        repr(measures._qfi_and_variances(state, obs))
        for state in (psi, np.outer(psi, psi.conj()))
    ]


def test_state_vector_with_dense_locals_keeps_the_density_matrix_bytes():
    # The vector's pure state is the one quantum.density reads off
    # |psi><psi|, so every value keeps its last bit.
    rng = np.random.default_rng(90210)
    for _ in range(300):
        dim = int(rng.integers(2, 33))
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        locals_ = [random_hermitian(rng, dim) for _ in range(int(rng.integers(1, 4)))]
        from_vector, from_matrix = _vector_and_matrix_values(
            psi, measures.PartitionedObservable.from_locals(locals_)
        )
        assert from_vector == from_matrix
    for n in range(1, 10):
        dense = _sigma_z_partition(n)
        for q in (1e-12, 0.3, 0.5, 1.0 - 1e-9, 1.0):
            psi, _ = quantum.ghz_vector(n, q, phase=0.7)
            from_vector, from_matrix = _vector_and_matrix_values(psi, dense)
            assert from_vector == from_matrix


def test_state_vector_with_dense_locals_forms_no_square_array():
    n = 10
    psi, _ = quantum.ghz_vector(n, 0.3, phase=0.7)
    obs = _sigma_z_partition(n)
    tracemalloc.start()
    try:
        report = measures.size_report_for_state(psi, obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_ent == pytest.approx(n, abs=1e-9)
    assert peak < 16 * 2**n * 2**n / 8


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
    for n, ratio in [(10.0, float("nan")), (10.0, -float("inf")), (float("nan"), 1.0)]:
        with pytest.raises(DomainError, match="must be finite"):
            measures.two_branch_entangled_size(n, ratio)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: measures.extensive_size(float("nan"), 1.0), "^qfi_value must be finite and >= 0, got nan$"),
        (lambda: measures.extensive_size(1.0, float("inf")), "^unit must be finite and positive, got inf$"),
        # int(ceil(inf)) raised OverflowError.
        (lambda: measures.witness_depth(float("inf")), "^n_ent must be finite and >= 0, got inf$"),
        (lambda: measures.witness_depth(float("nan")), "^n_ent must be"),
    ],
    ids=["nan-qfi", "infinite-unit", "infinite-depth", "nan-depth"],
)
def test_sizes_reject_non_finite_values(call, message):
    with pytest.raises(DomainError, match=message):
        call()
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


def test_property_max_size(rng):
    for _ in range(30):
        n = int(rng.integers(2, 5))
        obs = _sigma_z_partition(n)
        rho = random_density(rng, 2**n)
        assert measures.entangled_size(rho, obs) <= n + 1e-9


def test_property_ghz_is_the_saturator(rng):
    # Random non-GHZ states stay strictly below the cap; GHZ forms attain it.
    for q in (0.2, 0.5, 0.9):
        rho, obs = quantum.ghz_state(3, q, phase=0.7)
        assert measures.entangled_size(rho, obs) == pytest.approx(3.0, abs=1e-9)
    obs = _sigma_z_partition(3)
    for _ in range(20):
        rho = random_density(rng, 8, rank=2)
        assert measures.entangled_size(rho, obs) < 3.0 - 1e-6


def test_property_independent_systems(rng):
    sz = np.diag([1.0, -1.0]).astype(complex)
    eye2 = np.eye(2, dtype=complex)
    for _ in range(20):
        rho_a = random_density(rng, 4)
        rho_b = random_density(rng, 2)
        obs_a = _sigma_z_partition(2)
        joint = quantum.tensor(rho_a, rho_b)
        locals_ = [quantum.tensor(a, eye2) for a in obs_a.locals_]
        locals_.append(quantum.tensor(np.eye(4, dtype=complex), sz))
        obs = measures.PartitionedObservable.from_locals(locals_, "joint")
        lhs = measures.entangled_size(joint, obs)
        n_a = measures.entangled_size(rho_a, obs_a)
        n_b = fisher.qfi(rho_b, sz).value / (4.0 * fisher.variance(rho_b, sz))
        assert lhs <= max(n_a, n_b) + 1e-9


def test_property_classical_mixtures(rng):
    obs = _sigma_z_partition(3)
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
            obs = _sigma_z_partition(n)
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
