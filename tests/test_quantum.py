import math

import numpy as np
import pytest

from macrosize import quantum
from macrosize.errors import DomainError, TruncationError
from macrosize.fisher import variance

from conftest import random_density, random_hermitian


def test_eigh_pauli_z():
    spec = quantum.eigh(np.diag([1.0, -1.0]).astype(complex))
    assert np.allclose(spec.eigenvalues, [1.0, -1.0])


def test_eigh_position_two_level():
    # x in a dim-2 truncation with nu = 1/2 has +-1/sqrt(2) eigenvalues.
    _a, x, _p = quantum.fock_operators(2, nu=0.5)
    spec = quantum.eigh(x)
    assert np.allclose(spec.eigenvalues, [1.0 / math.sqrt(2), -1.0 / math.sqrt(2)])


def test_mixed_density_checks_hermiticity_once(monkeypatch):
    # density decomposes the array it checked, not through the checked eigh.
    calls = []
    check = quantum.require_hermitian

    def counting(matrix, *args, **kwargs):
        calls.append(matrix)
        return check(matrix, *args, **kwargs)

    monkeypatch.setattr(quantum, "require_hermitian", counting)
    rho = random_density(np.random.default_rng(5), 6)
    state = quantum.density(rho)
    assert state.psi is None and state.spectrum is not None
    assert len(calls) == 1
    quantum.eigh(rho)  # the public solver still checks its input
    assert len(calls) == 2


def _reconstruct(spec):
    v = spec.eigenvectors
    return (v * spec.eigenvalues) @ v.conj().T


def test_eigh_reconstruction_residual(rng):
    h = random_hermitian(rng, 8)
    spec = quantum.eigh(h)
    residual = np.max(np.abs(_reconstruct(spec) - h))
    assert residual <= 1e-9 * max(1e-300, np.max(np.abs(h)))


@pytest.mark.parametrize("dim", [2, 5, 16, 64])
def test_eigh_roundtrip_up_to_dim_64(rng, dim):
    h = random_hermitian(rng, dim, scale=3.0)
    spec = quantum.eigh(h)
    assert np.max(np.abs(_reconstruct(spec) - h)) <= 1e-9 * np.max(np.abs(h))
    # descending order and orthonormality
    assert np.all(np.diff(spec.eigenvalues) <= 1e-12)
    gram = spec.eigenvectors.conj().T @ spec.eigenvectors
    assert np.max(np.abs(gram - np.eye(dim))) <= 1e-9


def test_eigh_deterministic_phase(rng):
    h = random_hermitian(rng, 6)
    s1 = quantum.eigh(h)
    s2 = quantum.eigh(h.copy())
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)
    for k in range(6):
        col = s1.eigenvectors[:, k]
        lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert abs(lead.imag) <= 1e-12 and lead.real > 0


def _fix_phases_loop(vectors):
    """Column-by-column reference for quantum._fix_phases."""
    fixed = vectors.copy()
    for k in range(fixed.shape[1]):
        col = fixed[:, k]
        lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        fixed[:, k] = col * (np.conj(lead) / abs(lead))
    return fixed


@pytest.mark.parametrize("dim", [2, 7, 40, 120])
def test_fix_phases_matches_loop_bit_for_bit(rng, dim):
    # Random, diagonal (exact zeros) and tiny-leading-entry eigenvector sets.
    h = random_hermitian(rng, dim)
    tiny = h.copy()
    tiny[: dim // 2] *= 1e-13
    tiny[:, : dim // 2] *= 1e-13
    for matrix in (h, np.diag(rng.standard_normal(dim)).astype(complex), tiny):
        _values, vectors = np.linalg.eigh(matrix)
        fast, slow = quantum._fix_phases(vectors), _fix_phases_loop(vectors)
        assert fast.tobytes() == slow.tobytes()


def test_eigh_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(DomainError, match="asymmetry"):
        quantum.eigh(bad)


def test_fock_matrix_element():
    _a, x, _p = quantum.fock_operators(3, nu=0.5)
    assert x[0, 1] == pytest.approx(1.0 / math.sqrt(2), abs=1e-15)
    assert x[1, 2] == pytest.approx(1.0, abs=1e-15)  # sqrt(nu * 2) = 1


def test_vacuum_position_mean_zero():
    _a, x, _p = quantum.fock_operators(8, nu=0.5)
    assert np.trace(quantum.vacuum_state(8) @ x).real == pytest.approx(0.0, abs=1e-15)


def test_canonical_commutator_bulk():
    dim, hbar = 12, 1.0
    _a, x, p = quantum.fock_operators(dim, nu=0.5, hbar=hbar)
    comm = x @ p - p @ x
    diag = np.diag(comm)
    assert np.allclose(diag[: dim - 1], 1j * hbar, atol=1e-12)
    # the truncation artifact is confined to the top level
    assert diag[dim - 1] != pytest.approx(1j * hbar, abs=0.5)


def test_fock_operators_reject_small_dim():
    with pytest.raises(DomainError):
        quantum.fock_operators(1)


def test_thermal_diagonal_geometric():
    rho = quantum.thermal_state(1.0, 60)
    n = np.arange(60)
    expected = 0.5 * 0.5**n
    assert np.allclose(np.real(np.diag(rho)), expected, atol=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_cat_symmetry_and_purity():
    rho = quantum.cat_state(2.0, 30)
    quantum.validate_density(rho)
    _a, x, _p = quantum.fock_operators(30, nu=0.5)
    assert np.trace(rho @ x).real == pytest.approx(0.0, abs=1e-10)
    assert quantum.purity(rho) == pytest.approx(1.0, abs=1e-10)


def _old_fock_operators(dim, nu, hbar):
    # The dense construction that fock_operators replaced: a, a+, their sum
    # and their difference.
    a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)
    adag = a.conj().T
    x = math.sqrt(nu) * (a + adag)
    p = (hbar / (2.0 * math.sqrt(nu))) * 1j * (adag - a)
    return a, x, p


@pytest.mark.parametrize("dim", [2, 3, 120, 180, 600])
@pytest.mark.parametrize("nu,hbar", [(0.5, 1.0), (1.0, 1.054571817e-34), (0.3, 2.7)])
def test_fock_operators_bit_identical_to_dense_construction(dim, nu, hbar):
    for new, old in zip(
        quantum.fock_operators(dim, nu=nu, hbar=hbar), _old_fock_operators(dim, nu, hbar)
    ):
        assert np.array_equal(new.view(np.int64), old.view(np.int64))


@pytest.mark.parametrize("dim", [2, 3, 120, 180, 600])
def test_annihilation_is_the_quadrature_pair(dim):
    a, x, p = quantum.fock_operators(dim, nu=0.5)
    assert np.array_equal(quantum.annihilation(dim), a)
    # Equal to rounding, not bitwise: p's prefactor 1 / (2 sqrt(1/2)) rounds
    # one ulp below x's sqrt(1/2), which leaves about 1e-16 sqrt(n) on the
    # sub-diagonal of (x + ip) / sqrt2.
    pair = (x + 1j * p) / math.sqrt(2.0)
    assert np.max(np.abs(pair - a)) <= 4.0 * np.finfo(float).eps * math.sqrt(dim)


@pytest.mark.parametrize("dim", [2, 3, 120, 600])
@pytest.mark.parametrize("shape", ["vector", "columns"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_ladder_row_shifts_equal_the_dense_products(dim, shape, dtype):
    rng = np.random.default_rng(dim)
    size = (dim,) if shape == "vector" else (dim, 5)
    v = rng.standard_normal(size)
    if dtype is complex:
        v = v + 1j * rng.standard_normal(size)
    a = quantum.annihilation(dim)
    for shifted, dense in ((quantum.annihilate(v), a @ v), (quantum.create(v), a.conj().T @ v)):
        assert shifted.dtype == v.dtype
        assert shifted.shape == v.shape
        assert np.array_equal(shifted, dense)


def test_max_asymmetry_matches_full_expression():
    rng = np.random.default_rng(11)
    for trial in range(60):
        d = int(rng.integers(1, 200))
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if trial % 3 == 0:
            m = m + m.conj().T + 1e-13 * rng.standard_normal((d, d))
        if trial % 4 == 0:
            m = m.real.copy()
        expected = float(np.max(np.abs(m - m.conj().T)))
        assert quantum.max_asymmetry(m) == expected
    m[d - 1, 0] = np.nan
    assert math.isnan(quantum.max_asymmetry(m))


def test_require_hermitian_message_unchanged():
    m = np.zeros((130, 130), dtype=complex)
    m[129, 3] = 2e-3j
    with pytest.raises(DomainError, match="^op is not Hermitian: max asymmetry 2.000e-03$"):
        quantum.require_hermitian(m, "op")
    m[100, 70] = np.nan
    with pytest.raises(DomainError, match="max asymmetry nan"):
        quantum.require_hermitian(m, "op")


def _old_is_hermitian(m):
    # The two-pass check that require_hermitian replaced.
    scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
    return quantum.max_asymmetry(m) <= quantum.HERMITICITY_ATOL * scale


def _accepts(m):
    try:
        quantum.require_hermitian(m)
    except DomainError:
        return False
    return True


def test_require_hermitian_matches_two_pass_check():
    rng = np.random.default_rng(5)
    atol = quantum.HERMITICITY_ATOL
    decisions = set()
    for trial in range(120):
        d = int(rng.integers(1, 90))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = (g + g.conj().T) * (10.0 ** rng.uniform(-3.0, 3.0))
        scale = max(1.0, float(np.max(np.abs(m))))
        # Asymmetries just above and below the bound atol, and atol * scale
        # for entries above 1.
        bound = atol * scale if trial % 2 else atol
        m[d - 1, 0] += rng.choice([0.9, 0.999, 1.001, 1.1]) * bound
        if trial % 7 == 0:
            m[int(rng.integers(d)), int(rng.integers(d))] = np.nan
        expected = _old_is_hermitian(m)
        assert _accepts(m) == expected
        decisions.add(expected)
    assert decisions == {True, False}
    assert _accepts(np.zeros((0, 0)))


def test_coherent_amplitudes_match_gammaln():
    from scipy.special import gammaln

    # math.lgamma and gammaln differ by at most 4.8e-16 relative for n < 3000;
    # at dim 200 that moves an amplitude by less than 1e-12 relative.
    n = np.arange(200)
    alpha = 4.0 * np.exp(0.4j)
    log_mag = n * math.log(abs(alpha)) - 0.5 * gammaln(n + 1.0)
    expected = np.exp(log_mag - 0.5 * abs(alpha) ** 2) * np.exp(1j * n * np.angle(alpha))
    np.testing.assert_allclose(
        quantum.coherent_amplitudes(alpha, 200), expected, rtol=1e-12, atol=0.0
    )


def test_coherent_displacement_identity():
    dim = 40
    rho = quantum.coherent_state(1.5, dim)
    a, _x, _p = quantum.fock_operators(dim)
    mean_a = np.trace(rho @ a)
    assert mean_a.real == pytest.approx(1.5, abs=1e-8)
    assert mean_a.imag == pytest.approx(0.0, abs=1e-10)


def test_make_state_constructors_pass_invariants():
    for kind, params in [
        ("vacuum", {}),
        ("number", {"n": 3}),
        ("coherent", {"alpha": 1.2}),
        ("cat", {"alpha": 1.5}),
        ("thermal", {"nbar": 0.7}),
        ("squeezed", {"r": 0.6}),
    ]:
        rho = quantum.make_state(kind, 40, **params)
        quantum.validate_density(rho)


def _amplitudes_of(kind, params):
    if kind == "coherent":
        return lambda d: quantum.coherent_amplitudes(params["alpha"], d)
    if kind == "cat":
        alpha = params["alpha"]
        return lambda d: quantum.coherent_amplitudes(alpha, d) + quantum.coherent_amplitudes(-alpha, d)
    return lambda d: quantum.squeezed_amplitudes(params["r"], d)


def _old_make_state(kind, dim, **params):
    # The construction make_state used before built states carried their
    # decomposition: a one-hot rho, diag(weights), or psi psi^+ of the
    # normalized amplitudes.
    if kind in ("vacuum", "number"):
        rho = np.zeros((dim, dim), dtype=complex)
        rho[params.get("n", 0), params.get("n", 0)] = 1.0
        return rho
    if kind == "thermal":
        p = params["nbar"] / (1.0 + params["nbar"])
        weights = (1.0 - p) * p ** np.arange(dim)
        weights /= weights.sum()
        return np.diag(weights).astype(complex)
    amps = _amplitudes_of(kind, params)(dim)
    psi = amps / math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    return np.outer(psi, psi.conj())


# kind -> its public constructor, called as make_state is
CONSTRUCTORS = {
    "vacuum": lambda dim: quantum.vacuum_state(dim),
    "number": lambda dim, n: quantum.number_state(n, dim),
    "coherent": lambda dim, alpha: quantum.coherent_state(alpha, dim),
    "cat": lambda dim, alpha: quantum.cat_state(alpha, dim),
    "thermal": lambda dim, nbar: quantum.thermal_state(nbar, dim),
    "squeezed": lambda dim, r: quantum.squeezed_state(r, dim),
}

BUILT_STATES = [
    ("vacuum", {}),
    ("number", {"n": 13}),
    ("coherent", {"alpha": 2.7}),
    ("coherent", {"alpha": 1.9 * np.exp(0.4j)}),
    ("cat", {"alpha": 2.2}),
    ("thermal", {"nbar": 2.5}),
    ("squeezed", {"r": 0.9}),
]


@pytest.mark.parametrize("dim", [120, 140, 180, 600])
@pytest.mark.parametrize("kind,params", BUILT_STATES)
def test_built_states_are_decomposed_and_keep_their_bytes(kind, params, dim):
    state = quantum.build_state(kind, dim, **params)
    rho = quantum.make_state(kind, dim, **params)
    assert np.array_equal(rho.view(np.int64), _old_make_state(kind, dim, **params).view(np.int64))
    assert np.array_equal(state.rho.view(np.int64), rho.view(np.int64))
    assert np.array_equal(CONSTRUCTORS[kind](dim, **params).view(np.int64), rho.view(np.int64))
    # A built state carries no rho: its purity is ||psi||^4 or sum l^2.
    assert state._fields == ("purity", "psi", "spectrum")
    assert state.purity == pytest.approx(quantum.purity(rho), rel=0.0, abs=1e-12)
    if kind == "thermal":
        assert state.psi is None
        lam, vec = state.spectrum
        assert np.all(np.diff(lam) <= 0.0)
        assert np.array_equal(lam, np.real(np.diagonal(rho)))
        assert vec is None
    else:
        assert state.spectrum is None
        assert np.linalg.norm(state.psi) == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(np.outer(state.psi, state.psi.conj()), rho)


@pytest.mark.parametrize(
    "kind,params",
    [
        ("thermal", {"nbar": 1e9}),
        ("coherent", {"alpha": 100.0}),
        ("cat", {"alpha": 100.0}),
        ("squeezed", {"r": 12.0}),
        ("number", {"n": 5000}),
    ],
)
def test_truncation_beyond_the_cap_suggests_no_dim(kind, params):
    message = f"no dim up to DIM_CAP = {quantum.DIM_CAP} holds the state$"
    with pytest.raises(TruncationError, match=message) as excinfo:
        quantum.make_state(kind, 100, **params)
    assert excinfo.value.suggested_dim is None
    assert "use dim" not in str(excinfo.value)


@pytest.mark.parametrize(
    "kind,params",
    [
        ("thermal", {"nbar": 40.0}),
        ("coherent", {"alpha": 20.0}),
        ("cat", {"alpha": 20.0}),
        ("squeezed", {"r": 2.0}),
        ("number", {"n": 300}),
    ],
)
def test_suggested_dim_builds(kind, params):
    with pytest.raises(TruncationError) as excinfo:
        quantum.make_state(kind, 100, **params)
    suggested = excinfo.value.suggested_dim
    assert 100 < suggested <= quantum.DIM_CAP
    if kind != "number":
        assert str(excinfo.value).endswith(f"use dim >= {suggested}")
    quantum.make_state(kind, suggested, **params)


@pytest.mark.parametrize(
    "kind, name",
    [
        ("number", "n"),
        ("coherent", "alpha"),
        ("cat", "alpha"),
        ("thermal", "nbar"),
        ("squeezed", "r"),
    ],
)
def test_make_state_names_missing_parameter(kind, name):
    # No parameter has a default: a thermal state without nbar is not the vacuum.
    message = rf"^{kind} state takes parameters \['{name}'\], got \[\]$"
    with pytest.raises(DomainError, match=message):
        quantum.make_state(kind, 40)


def test_truncation_error_with_suggested_dim():
    with pytest.raises(TruncationError) as excinfo:
        quantum.thermal_state(5.0, 60)
    err = excinfo.value
    assert err.tail_weight >= 1e-8
    assert err.suggested_dim > 60
    # the suggestion is actionable
    quantum.thermal_state(5.0, err.suggested_dim)


def test_tail_weight_monotone_in_dim():
    # Each constructor reports its tail in the TruncationError; the tail
    # falls as dim grows, and the dim its tail table suggests is enough.
    for kind, params in [
        ("thermal", {"nbar": 20.0}),
        ("cat", {"alpha": 6.0}),
        ("coherent", {"alpha": 6.0}),
        ("squeezed", {"r": 2.0}),
    ]:
        tails = []
        for d in (20, 30, 45, 60):
            with pytest.raises(TruncationError) as excinfo:
                quantum.make_state(kind, d, **params)
            tails.append(excinfo.value.tail_weight)
        assert all(t1 >= t2 - 1e-17 for t1, t2 in zip(tails, tails[1:]))
        quantum.make_state(kind, excinfo.value.suggested_dim, **params)


def test_ghz_qfi_value():
    from macrosize.fisher import qfi

    rho, obs = quantum.ghz_state(3, 0.5)
    assert qfi(rho, np.diag(obs.total)).value == pytest.approx(36.0, rel=1e-10)


def test_ghz_product_limit():
    from macrosize.fisher import qfi

    rho, obs = quantum.ghz_state(3, 0.0)
    assert qfi(rho, np.diag(obs.total)).value == pytest.approx(0.0, abs=1e-10)


def test_ghz_variance_two_point():
    rho, obs = quantum.ghz_state(4, 0.3)
    assert variance(rho, np.diag(obs.total)) == pytest.approx(4 * 16 * 0.3 * 0.7, rel=1e-12)


def test_ghz_rejects_large_register():
    # One dense complex rho: 16 * 4**13 B = 1.1 GB.
    with pytest.raises(
        DomainError, match=r"needs a dense 8192x8192 density matrix \(~1\.1 GB\); capped at n=12"
    ):
        quantum.ghz_state(13, 0.5)


def test_ghz_vector_rejects_large_register():
    # psi at 16 B plus 22 diagonals at 8 B per entry: 192 * 2**21 B = 0.4 GB.
    with pytest.raises(
        DomainError,
        match=r"needs a 2097152-entry state vector and 22 diagonals \(~0\.4 GB\); capped at n=20",
    ):
        quantum.ghz_vector(21, 0.5)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_ghz_vector_diagonals_match_site_operators(n):
    psi, obs = quantum.ghz_vector(n, 0.3, phase=0.4)
    assert psi.shape == (2**n,) and psi.dtype == complex
    assert obs.partition_label == "qubits"
    for site, diagonal in enumerate(obs.locals_):
        assert diagonal.dtype == float
        assert np.array_equal(
            np.diag(diagonal), quantum.qubit_site_operator(quantum.SIGMA_Z, site, n)
        )
    rho, rho_obs = quantum.ghz_state(n, 0.3, phase=0.4)
    assert np.array_equal(rho, np.outer(psi, psi.conj()))
    assert np.array_equal(rho_obs.total, obs.total)


def test_ghz_vector_amplitudes_and_errors():
    psi, _ = quantum.ghz_vector(3, 0.25, phase=math.pi / 2)
    assert psi[0] == pytest.approx(math.sqrt(0.75))
    assert psi[-1] == pytest.approx(0.5j)
    assert np.count_nonzero(psi) == 2
    # At q = 1 the phase is global and dropped.
    psi, _ = quantum.ghz_vector(3, 1.0, phase=0.7)
    assert psi[-1] == 1.0 and psi[0] == 0.0
    with pytest.raises(DomainError, match="subsystem count must be >= 1, got 0"):
        quantum.ghz_vector(0, 0.5)
    with pytest.raises(DomainError, match=r"weight q must lie in \[0, 1\], got 1.5"):
        quantum.ghz_vector(3, 1.5)
    with pytest.raises(DomainError, match="subsystem count must be >= 1, got 0"):
        quantum.ghz_state(0, 0.5)


def test_mix_identity_and_tensor_trace():
    rho = quantum.thermal_state(0.5, 40)
    sigma = quantum.vacuum_state(40)
    assert np.allclose(quantum.mix(1.0, rho, sigma), rho)
    qubit = np.diag([0.7, 0.3]).astype(complex)
    prod = quantum.tensor(quantum.vacuum_state(2), qubit)
    assert prod.shape == (4, 4)
    assert np.trace(prod).real == pytest.approx(1.0, abs=1e-12)


def test_variance_additive_on_products(rng):
    from conftest import random_density

    for _ in range(5):
        rho = random_density(rng, 2)
        sigma = random_density(rng, 2)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        eye = np.eye(2, dtype=complex)
        joint = quantum.tensor(rho, sigma)
        obs = quantum.tensor(a, eye) + quantum.tensor(eye, b)
        assert variance(joint, obs) == pytest.approx(
            variance(rho, a) + variance(sigma, b), abs=1e-12
        )


def test_tensor_dim_cap():
    big = np.eye(100, dtype=complex)
    with pytest.raises(DomainError, match="cap"):
        quantum.tensor(big, big)


@pytest.mark.parametrize(
    "kind,params",
    [
        ("coherent", {"alpha": math.nan}),
        ("coherent", {"alpha": math.inf}),
        ("coherent", {"alpha": complex(1.0, math.inf)}),
        ("cat", {"alpha": math.nan}),
        ("cat", {"alpha": -math.inf}),
        ("cat", {"alpha": complex(math.nan, 0.5)}),
        ("squeezed", {"r": math.nan}),
        ("squeezed", {"r": math.inf}),
        ("thermal", {"nbar": math.inf}),
        ("number", {"n": math.nan}),
    ],
)
def test_build_state_rejects_non_finite_parameters(kind, params):
    # Before, NaN and infinite amplitudes built an all-NaN state silently.
    name = next(iter(params))
    with pytest.raises(DomainError, match=f"{kind} state parameter {name} must be finite"):
        quantum.build_state(kind, 40, **params)


@pytest.mark.parametrize("n", [-1, 2.5, -0.5])
def test_number_state_index_must_be_a_whole_number(n):
    # n = -1 was a TruncationError suggesting dim 0; n = 2.5 built |2>.
    builders = (lambda: quantum.build_state("number", 10, n=n), lambda: quantum.number_state(n, 10))
    for build in builders:
        with pytest.raises(DomainError, match="whole number >= 0") as excinfo:
            build()
        assert not isinstance(excinfo.value, TruncationError)


def test_number_state_whole_float_index_builds_the_integer_state():
    assert np.array_equal(
        quantum.make_state("number", 10, n=3.0), quantum.make_state("number", 10, n=3)
    )


@pytest.mark.parametrize(
    "build, message",
    [
        # These returned an all-NaN matrix with only a RuntimeWarning.
        (lambda: quantum.coherent_state(math.nan, 10), "alpha must be finite"),
        (lambda: quantum.squeezed_state(math.nan, 10), "r must be finite"),
        # Past DIM_CAP, and below the two levels every other path needs.
        (lambda: quantum.thermal_state(0.1, 5000), "whole number in"),
        (lambda: quantum.vacuum_state(1), "whole number in"),
    ],
    ids=["coherent-nan", "squeezed-nan", "thermal-past-cap", "vacuum-dim-1"],
)
def test_constructors_check_their_inputs_as_build_state_does(build, message):
    with pytest.raises(DomainError, match=message):
        build()


@pytest.mark.parametrize("dim", [2.5, np.float64(7.5), math.nan, np.float64("nan"), math.inf])
def test_build_state_rejects_a_dim_that_is_not_whole(dim):
    # 2.5 raised numpy's TypeError, NaN a TruncationError about "dim nan".
    with pytest.raises(DomainError, match="dim must be a whole number in") as excinfo:
        quantum.build_state("number", dim, n=1)
    assert not isinstance(excinfo.value, TruncationError)


def test_build_state_takes_a_whole_float_dim():
    assert np.array_equal(quantum.make_state("vacuum", 12.0), quantum.vacuum_state(12))


@pytest.mark.parametrize("n", [2.5, np.float64(3.5), math.nan])
def test_ghz_vector_rejects_a_count_that_is_not_whole(n):
    # 2.5 raised numpy's TypeError.
    with pytest.raises(DomainError, match="subsystem count must be"):
        quantum.ghz_vector(n, 0.3)


def test_constructors_keep_their_bytes():
    cases = [
        (quantum.vacuum_state, (12,), lambda: quantum._number(0, 12)),
        (quantum.number_state, (3, 12), lambda: quantum._number(3, 12)),
        (quantum.coherent_state, (1.2 - 0.7j, 30), lambda: quantum._coherent(1.2 - 0.7j, 30)),
        (quantum.cat_state, (1.5j, 40), lambda: quantum._cat(1.5j, 40)),
        (quantum.thermal_state, (0.8, 60), lambda: quantum._thermal(0.8, 60)),
        (quantum.squeezed_state, (0.4, 40), lambda: quantum._squeezed(0.4, 40)),
    ]
    for constructor, args, builder in cases:
        assert constructor(*args).tobytes() == builder().rho.tobytes()


@pytest.mark.parametrize("phase", [math.inf, -math.inf, math.nan])
def test_ghz_vector_rejects_non_finite_phase(phase):
    with pytest.raises(DomainError, match="phase must be finite"):
        quantum.ghz_vector(3, 0.5, phase=phase)
