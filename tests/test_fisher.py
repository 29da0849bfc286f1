import math
import tracemalloc

import numpy as np
import pytest

from macrosize import fisher, quantum
from macrosize.errors import DomainError

from conftest import random_density, random_hermitian, random_pure, random_unitary

PLUS = np.full((2, 2), 0.5, dtype=complex)  # |+><+|
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def test_qfi_pure_plus_state():
    result = fisher.qfi(PLUS, SIGMA_Z)
    assert result.method == "pure-variance"
    assert result.value == pytest.approx(4.0, rel=1e-12)


def test_qfi_ghz_three_qubits():
    rho, obs = quantum.ghz_state(3, 0.5)
    assert fisher.qfi(rho, np.diag(obs.total)).value == pytest.approx(36.0, rel=1e-10)


def test_qfi_thermal_closed_form():
    # Closed-form oracle: F = 4 nu (1-p)/(1+p) with p = nbar/(1+nbar).
    _a, x, _p = quantum.fock_operators(60, nu=0.5)
    rho = quantum.thermal_state(1.0, 60)
    assert fisher.qfi(rho, x).value == pytest.approx(2.0 / 3.0, rel=1e-6)


def test_qfi_dimension_mismatch():
    with pytest.raises(DomainError, match="mismatch"):
        fisher.qfi(PLUS, np.eye(3, dtype=complex))


def test_qfi_invalid_state():
    with pytest.raises(DomainError):
        fisher.qfi(2.0 * PLUS, SIGMA_Z)


def test_variance_vacuum_position():
    _a, x, _p = quantum.fock_operators(20, nu=0.5)
    assert fisher.variance(quantum.vacuum_state(20), x) == pytest.approx(0.5, rel=1e-12)


def test_variance_thermal():
    _a, x, _p = quantum.fock_operators(60, nu=0.5)
    for nbar in (0.5, 1.0, 2.0):
        rho = quantum.thermal_state(nbar, 60)
        assert fisher.variance(rho, x) == pytest.approx(0.5 * (2 * nbar + 1), rel=1e-9)


def test_f2_pure_equals_qfi():
    assert fisher.sub_qfi_f2(PLUS, SIGMA_Z).value == pytest.approx(4.0, rel=1e-12)


def test_f2_commuting_zero():
    mixed = 0.5 * np.eye(2, dtype=complex)
    assert fisher.sub_qfi_f2(mixed, SIGMA_Z).value == pytest.approx(0.0, abs=1e-14)


def test_f2_below_qfi_thermal():
    _a, x, _p = quantum.fock_operators(60, nu=0.5)
    rho = quantum.thermal_state(1.0, 60)
    f2 = fisher.sub_qfi_f2(rho, x).value
    assert f2 <= 2.0 / 3.0 + 1e-9


def _gaussian_grid(sigma, half_width=8.0, h=1e-3):
    x = np.arange(-half_width, half_width + h / 2, h)
    p = np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    return p / (np.sum(p) * h), h


def test_classical_fi_gaussian_unit():
    p, h = _gaussian_grid(1.0)
    assert fisher.classical_fi_grid(p, h).value == pytest.approx(1.0, abs=1e-3)


def test_classical_fi_gaussian_sigma_two():
    p, h = _gaussian_grid(2.0, half_width=16.0)
    assert fisher.classical_fi_grid(p, h).value == pytest.approx(0.25, abs=1e-3)


def test_classical_fi_uniform_interior_zero():
    n = 1001
    h = 1.0 / (n - 1)
    p = np.ones(n)
    p /= np.sum(p) * h
    assert fisher.classical_fi_grid(p, h).value == pytest.approx(0.0, abs=1e-9)


def test_classical_fi_rejects_unnormalized():
    p, h = _gaussian_grid(1.0)
    with pytest.raises(DomainError, match="integrates"):
        fisher.classical_fi_grid(1.5 * p, h)


def test_classical_fi_rejects_a_nan_sample():
    p, h = _gaussian_grid(1.0)
    p[len(p) // 2] = np.nan
    with pytest.raises(DomainError, match="NaN"):
        fisher.classical_fi_grid(p, h)
    with pytest.raises(DomainError, match="^h must be finite and positive, got nan$"):
        fisher.classical_fi_grid(np.ones(3), float("nan"))


def test_quadrature_scan_vacuum_flat():
    _a, x, p = quantum.fock_operators(20, nu=0.5)
    theta, result = fisher.qfi_max_quadrature(quantum.vacuum_state(20), x, p)
    assert result.value == pytest.approx(2.0, rel=1e-9)


def test_quadrature_scan_squeezed():
    r = 0.6
    dim = 40
    _a, x, p = quantum.fock_operators(dim, nu=0.5)
    rho = quantum.squeezed_state(r, dim)
    theta, result = fisher.qfi_max_quadrature(rho, x, p)
    # Pure-state oracle: 4 Var along the anti-squeezed axis.
    assert result.value == pytest.approx(2.0 * math.exp(2 * r), rel=1e-6)
    assert theta == pytest.approx(math.pi / 2, abs=1e-3)


def test_quadrature_scan_cat_position_axis():
    dim = 40
    _a, x, p = quantum.fock_operators(dim, nu=0.5)
    rho = quantum.cat_state(2.0, dim)
    assert fisher.variance(rho, x) > fisher.variance(rho, p)
    theta, result = fisher.qfi_max_quadrature(rho, x, p)
    assert min(theta, math.pi - theta) == pytest.approx(0.0, abs=1e-3)
    assert result.value == pytest.approx(4.0 * fisher.variance(rho, x), rel=1e-9)


def test_quadrature_scan_maximum_dominates_scan():
    # Oracle: the closed-form maximum is never below a 256-angle scan of
    # fisher.qfi, and fisher.qfi along the returned angle reproduces it.
    rng = np.random.default_rng(7)
    thetas = np.linspace(0, math.pi, 256, endpoint=False)
    for dim in (2, 3, 7, 12, 20, 30):
        _a, x, p = quantum.fock_operators(dim, nu=0.5)
        states = {
            "full-rank": random_density(rng, dim),
            "rank-deficient": random_density(rng, dim, max(1, dim // 3)),
            "pure": random_pure(rng, dim),
        }
        for kind, rho in states.items():
            theta, result = fisher.qfi_max_quadrature(rho, x, p)
            value = result.value
            assert 0.0 <= theta < math.pi, kind
            for t in thetas:
                op = math.cos(t) * x + math.sin(t) * p
                assert value >= fisher.qfi(rho, op).value - 1e-12, (kind, dim, t)
            along = fisher.qfi(rho, math.cos(theta) * x + math.sin(theta) * p)
            assert along.value == pytest.approx(value, rel=1e-10), (kind, dim)
            assert along.method == result.method


@pytest.mark.parametrize(
    "rho",
    [
        quantum.thermal_state(1.5, 60),
        quantum.coherent_state(3.0, 60),
        quantum.number_state(5, 30),
        quantum.vacuum_state(20),
    ],
    ids=["thermal", "coherent", "number", "vacuum"],
)
def test_quadrature_isotropic_states_give_zero_angle(rho):
    dim = rho.shape[0]
    _a, x, p = quantum.fock_operators(dim, nu=0.5)
    theta, result = fisher.qfi_max_quadrature(rho, x, p)
    assert theta == 0.0
    assert result.diagnostics["isotropic"] is True
    assert result.diagnostics["eigengap"] <= fisher.ISOTROPY_FACTOR * result.value


@pytest.mark.parametrize("r", [0.3, 0.9])
def test_quadrature_squeezed_eigengap(r):
    dim = 120
    _a, x, p = quantum.fock_operators(dim, nu=0.5)
    theta, result = fisher.qfi_max_quadrature(quantum.squeezed_state(r, dim), x, p)
    assert theta == pytest.approx(math.pi / 2, abs=1e-12)
    assert result.diagnostics["isotropic"] is False
    # F_pp = 2 e^{2r} along the anti-squeezed axis, F_xx = 2 e^{-2r}.
    gap = 2.0 * math.exp(2 * r) - 2.0 * math.exp(-2 * r)
    assert result.diagnostics["eigengap"] == pytest.approx(gap, rel=1e-8)


def test_quadrature_dimension_mismatch():
    _a, x, p = quantum.fock_operators(8, nu=0.5)
    with pytest.raises(DomainError, match="mismatch"):
        fisher.qfi_max_quadrature(quantum.vacuum_state(6), x, p)


def test_quadrature_spectral_diagnostics():
    _a, x, p = quantum.fock_operators(40, nu=0.5)
    rho = quantum.thermal_state(1.0, 40)
    _theta, result = fisher.qfi_max_quadrature(rho, x, p)
    along = fisher.qfi(rho, x)
    assert result.method == "spectral"
    for key in ("discarded_pairs", "discarded_overlap_mass", "pair_threshold"):
        assert result.diagnostics[key] == pytest.approx(along.diagnostics[key], rel=1e-12)
    assert "scanned" not in result.diagnostics


def test_fold_angle_both_sides_of_zero():
    # A rounding-level angle is 0, not a rounding step above 0 or below pi.
    assert fisher._fold_angle(-9e-16) == 0.0
    assert fisher._fold_angle(4e-17) == 0.0
    assert fisher._fold_angle(-fisher.ANGLE_FOLD_ATOL / 2) == 0.0
    assert fisher._fold_angle(-1e-3) == math.pi - 1e-3
    assert fisher._fold_angle(0.0) == 0.0
    assert fisher._fold_angle(math.pi / 2) == math.pi / 2


def test_quadrature_angle_of_a_rotated_cat():
    # exp(-i phi n) turns the x-aligned cat's long axis to -phi, i.e. pi - phi.
    dim, phi = 40, 1e-3
    _a, x, p = quantum.fock_operators(dim, nu=0.5)
    turn = np.exp(-1j * phi * np.arange(dim))
    rho = turn[:, None] * quantum.cat_state(2.0, dim) * turn.conj()[None, :]
    theta, _result = fisher.qfi_max_quadrature(rho, x, p)
    assert theta == pytest.approx(math.pi - phi, abs=1e-9)


# ---------------------------------------------------------------------------
# one check and one decomposition per state, against the dense reference
# ---------------------------------------------------------------------------


def reference_qfi_matrix(rho, operators):
    """The dense formulas: a separate eigvalsh positivity check, then
    4 Re tr(rho B_a B_b) for a pure rho, else the spectral sum over
    np.linalg.eigh with pairs below PAIR_THRESHOLD_FACTOR * l_max dropped."""
    rho = quantum.validate_density(rho)
    count = len(operators)
    matrix = np.empty((count, count))
    if np.real(np.sum(rho * rho.T)) > quantum.PURITY_PURE_THRESHOLD:
        eye = np.eye(rho.shape[0])
        centred = [op - np.real(np.trace(rho @ op)) * eye for op in operators]
        products = [rho @ op for op in centred]
        for a in range(count):
            for b in range(count):
                # tr(rho B_a B_b) = sum_ij (rho B_a)_ij (B_b)_ji
                matrix[a, b] = 4.0 * np.real(np.sum(products[a] * centred[b].T))
        return matrix
    lam, vec = np.linalg.eigh(rho)
    rotated = [vec.conj().T @ op @ vec for op in operators]
    sums = lam[:, None] + lam[None, :]
    keep = sums > fisher.PAIR_THRESHOLD_FACTOR * lam.max()
    weights = np.zeros_like(sums)
    weights[keep] = (lam[:, None] - lam[None, :])[keep] ** 2 / sums[keep]
    for a in range(count):
        for b in range(count):
            overlap = np.real(rotated[a] * np.conj(rotated[b]))
            matrix[a, b] = 2.0 * np.sum(weights * overlap)
    return matrix


@pytest.mark.parametrize("dim", [2, 3, 7, 30, 120, 200])
def test_qfi_matches_dense_reference(dim):
    rng = np.random.default_rng(dim)
    _a, x, p = quantum.fock_operators(dim, nu=0.5)
    generator = random_hermitian(rng, dim)
    states = {
        "pure": random_pure(rng, dim),
        "rank-deficient": random_density(rng, dim, max(2, dim // 3)),
        "full-rank": random_density(rng, dim),
    }
    if dim == 2:
        del states["rank-deficient"]
    for kind, rho in states.items():
        expected = reference_qfi_matrix(rho, [x, p])
        _theta, result = fisher.qfi_max_quadrature(rho, x, p)
        assert result.method == ("pure-variance" if kind == "pure" else "spectral")
        top = float(np.linalg.eigvalsh(expected)[-1])
        assert result.value == pytest.approx(top, rel=1e-12, abs=0.0), kind
        for op in (x, generator):
            value = float(reference_qfi_matrix(rho, [op])[0, 0])
            assert fisher.qfi(rho, op).value == pytest.approx(value, rel=1e-12, abs=0.0)
            centred = op - np.real(np.trace(rho @ op)) * np.eye(dim)
            variance = np.real(np.trace(rho @ centred @ centred))
            assert fisher.variance(rho, op) == pytest.approx(variance, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dim", [2, 5, 12])
def test_state_variance_and_qfi_read_the_decomposition_at_every_rank(dim):
    # Sum_k l_k ||B v_k||^2 from one image A V, for a matrix or a 1-D diagonal,
    # is the dense tr(rho B^2); the QFI of a diagonal is that of its matrix.
    rng = np.random.default_rng(40 + dim)
    dense, diagonal = random_hermitian(rng, dim), rng.standard_normal(dim)
    for rank in range(1, dim + 1):
        rho = random_density(rng, dim, rank)
        state = quantum.density(rho)
        assert (state.psi is not None) == (rank == 1)
        for op in (dense, diagonal):
            matrix = op if op.ndim == 2 else np.diag(op).astype(complex)
            centred = matrix - np.real(np.trace(rho @ matrix)) * np.eye(dim)
            expected = np.real(np.trace(rho @ centred @ centred))
            value = fisher._state_variance(state, op)
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0), (rank, op.ndim)
        qfi_of_diagonal = fisher._qfi(state, diagonal).value
        qfi_of_matrix = fisher._qfi(state, np.diag(diagonal).astype(complex)).value
        assert qfi_of_diagonal == pytest.approx(qfi_of_matrix, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dim", [1, 2, 7, 64, 300])
def test_diagonal_action_is_the_diagonal_matrix_product(dim):
    rng = np.random.default_rng(dim)
    a = rng.standard_normal(dim)
    matrix = np.diag(a).astype(complex)
    vector = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    columns = rng.standard_normal((dim, 5)) + 1j * rng.standard_normal((dim, 5))
    for v in (vector, columns):
        assert fisher._apply(a, v).tobytes() == (matrix @ v).tobytes()


def _near_pure_negative_state(dim=5):
    """Unit trace and purity 1 to rounding, with eigenvalues (0.9, s, 0.1 - s, 0, ...).

    sum l^2 = 1 fixes 0.9 s + 0.9 (0.1 - s) + s (0.1 - s) = 0, so the third
    eigenvalue is about -0.254.
    """
    s = 0.5 * (0.1 + math.sqrt(0.01 + 4 * 0.09))
    lam = np.zeros(dim)
    lam[:3] = (0.9, s, 0.1 - s)
    u = random_unitary(np.random.default_rng(3), dim)
    return (u * lam) @ u.conj().T


def _rejected_states():
    pure = random_pure(np.random.default_rng(4), 6)
    kick = np.zeros((6, 6), dtype=complex)
    kick[4, 4], kick[5, 5] = -1e-9, 1e-9
    return {
        "non-hermitian": np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex),
        "trace": np.diag([1.0, 0.5]).astype(complex),
        "non-square": np.full((2, 3), 0.5, dtype=complex),
        "nan": np.diag([np.nan, 1.0]).astype(complex),
        "mixed-negative": np.diag([0.6, 0.5, -0.1]).astype(complex),
        "near-pure-negative": _near_pure_negative_state(),
        "pure-with-negative-kick": pure + kick,
    }


@pytest.mark.parametrize("kind", sorted(_rejected_states()))
def test_qfi_entry_points_reject_what_validate_density_rejects(kind):
    rho = _rejected_states()[kind]
    with pytest.raises(DomainError) as expected:
        quantum.validate_density(rho)
    dim = max(2, rho.shape[0])
    _a, x, p = quantum.fock_operators(dim, nu=0.5)
    with pytest.raises(DomainError) as from_qfi:
        fisher.qfi(rho, x)
    with pytest.raises(DomainError) as from_quadrature:
        fisher.qfi_max_quadrature(rho, x, p)
    assert str(from_qfi.value) == str(from_quadrature.value) == str(expected.value)


def test_near_pure_negative_state_is_a_pure_path_candidate():
    # The certificate, not the purity gate, must reject it.
    rho = _near_pure_negative_state()
    assert quantum.purity(rho) > quantum.PURITY_PURE_THRESHOLD
    with pytest.raises(DomainError, match="negative eigenvalue -2.541e-01"):
        fisher.qfi(rho, quantum.fock_operators(5, nu=0.5)[1])


@pytest.mark.parametrize(
    "rho",
    [quantum.squeezed_state(0.8, 160), random_pure(np.random.default_rng(5), 150)],
    ids=["squeezed", "random"],
)
def test_pure_quadrature_calls_no_eigensolver(rho, monkeypatch):
    dim = rho.shape[0]
    _a, x, p = quantum.fock_operators(dim, nu=0.5)
    top = float(np.linalg.eigvalsh(reference_qfi_matrix(rho, [x, p]))[-1])

    def refuse(*_args, **_kwargs):
        raise AssertionError("eigensolver called on a pure state")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    _theta, result = fisher.qfi_max_quadrature(rho, x, p)
    assert result.method == "pure-variance"
    assert result.value == pytest.approx(top, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# built states arrive decomposed; the quadrature pair is one operator A
# ---------------------------------------------------------------------------

# kind, its benchmark dim, parameters in the benchmark's ranges
BENCHMARK_STATES = [
    ("vacuum", 140, {}),
    ("number", 180, {"n": 13}),
    ("coherent", 120, {"alpha": 2.7}),
    ("cat", 140, {"alpha": 2.2}),
    ("thermal", 140, {"nbar": 2.5}),
    ("squeezed", 160, {"r": 0.9}),
]


@pytest.mark.parametrize("near_cap", [False, True], ids=["benchmark-dim", "dim-600"])
@pytest.mark.parametrize(
    "kind,dim,params", BENCHMARK_STATES, ids=[kind for kind, _d, _p in BENCHMARK_STATES]
)
def test_built_state_matches_checked_state(kind, dim, params, near_cap):
    # A built state skips the check, the pure certificate and the eigensolver,
    # and takes the ladder operator as its quadrature pair.
    dim = 600 if near_cap else dim
    theta, built = fisher._max_quadrature(quantum.build_state(kind, dim, **params))
    _a, x, p = quantum.fock_operators(dim, nu=0.5)
    checked_theta, checked = fisher.qfi_max_quadrature(quantum.make_state(kind, dim, **params), x, p)
    assert built.method == checked.method
    assert built.diagnostics["isotropic"] == checked.diagnostics["isotropic"]
    assert built.value == pytest.approx(checked.value, rel=1e-12, abs=0.0)
    assert theta == pytest.approx(checked_theta, abs=1e-9)


def reference_best_quadrature(rho):
    """The best quadrature of the dense reference QFI matrix of the nu = 1/2
    pair (x, p): its top eigenvalue, eigengap, isotropy flag and angle in
    [0, pi), and for a mixed rho the count of dropped spectral pairs and their
    overlap mass sum |<i|cos(theta) x + sin(theta) p|j>|^2 along that angle."""
    _a, x, p = quantum.fock_operators(rho.shape[0], nu=0.5)
    values, vectors = np.linalg.eigh(reference_qfi_matrix(rho, [x, p]))
    top, gap = values[-1], values[-1] - values[0]
    isotropic = bool(gap <= fisher.ISOTROPY_FACTOR * top)
    theta = 0.0 if isotropic else math.atan2(vectors[1, -1], vectors[0, -1]) % math.pi
    expected = {"value": top, "eigengap": gap, "isotropic": isotropic, "theta": theta}
    if np.real(np.sum(rho * rho.T)) <= quantum.PURITY_PURE_THRESHOLD:
        lam, vec = np.linalg.eigh(rho)
        dropped = lam[:, None] + lam[None, :] <= fisher.PAIR_THRESHOLD_FACTOR * lam.max()
        along = vec.conj().T @ (math.cos(theta) * x + math.sin(theta) * p) @ vec
        expected["discarded_pairs"] = int(np.count_nonzero(dropped))
        expected["discarded_overlap_mass"] = float(np.sum(np.abs(along[dropped]) ** 2))
    return expected


def assert_matches_reference_best_quadrature(theta, result, expected):
    """Value, eigengap (both relative to the value) and discarded mass to
    1e-12, the angle to 1e-9 rad modulo pi, and equal pair counts and flags."""
    diagnostics = result.diagnostics
    top = expected["value"]
    assert result.method == ("spectral" if "discarded_pairs" in expected else "pure-variance")
    assert result.value == pytest.approx(top, rel=1e-12, abs=0.0)
    assert diagnostics["eigengap"] == pytest.approx(expected["eigengap"], rel=0.0, abs=1e-12 * top)
    assert diagnostics["isotropic"] == expected["isotropic"]
    miss = abs(theta - expected["theta"]) % math.pi
    assert min(miss, math.pi - miss) <= 1e-9
    assert 0.0 <= theta < math.pi
    for key in ("discarded_pairs", "discarded_overlap_mass"):
        assert (key in diagnostics) == (key in expected)
    if "discarded_pairs" in expected:
        assert diagnostics["discarded_pairs"] == expected["discarded_pairs"]
        assert diagnostics["discarded_overlap_mass"] == pytest.approx(
            expected["discarded_overlap_mass"], rel=1e-12, abs=0.0
        )


@pytest.mark.parametrize("near_cap", [False, True], ids=["benchmark-dim", "dim-600"])
@pytest.mark.parametrize(
    "kind,dim,params", BENCHMARK_STATES, ids=[kind for kind, _d, _p in BENCHMARK_STATES]
)
def test_ladder_best_quadrature_matches_dense_reference(kind, dim, params, near_cap):
    # The ladder's row shifts and the two weighted sums against dense x, p and
    # a separate eigendecomposition of rho.
    dim = 600 if near_cap else dim
    theta, result = fisher._max_quadrature(quantum.build_state(kind, dim, **params))
    expected = reference_best_quadrature(quantum.make_state(kind, dim, **params))
    assert_matches_reference_best_quadrature(theta, result, expected)


def thermal_weights(nbar, dim):
    """The descending weights of a thermal state on ``dim`` levels, with no
    tail check: nbar = 0 gives the vacuum's (1, 0, ..., 0)."""
    p = nbar / (1.0 + nbar)
    weights = (1.0 - p) * p ** np.arange(dim)
    return weights / weights.sum()


@pytest.mark.parametrize("dim", [2, 3, 7, 140, 600, 2000])
@pytest.mark.parametrize("nbar", [0.0, 1e-3, 0.5, 3.0])
def test_fock_diagonal_best_quadrature_matches_dense_rotation(nbar, dim):
    # The O(d) band sums of a spectrum on the Fock basis against the rotation
    # V^+ (a V) with V = I and the d^2 pair weights of the same spectrum.
    lam = thermal_weights(nbar, dim)
    if nbar > 0.0 and (nbar / (1.0 + nbar)) ** dim < quantum.TAIL_THRESHOLD:
        built = quantum.build_state("thermal", dim, nbar=nbar).spectrum
        assert built.eigenvectors is None
        assert np.array_equal(built.eigenvalues, lam)
    purity = float(lam @ lam)
    diagonal = quantum.Density(purity, None, quantum.Spectrum(lam, None))
    theta, result = fisher._max_quadrature(diagonal)
    dense_theta, dense = fisher._max_quadrature(
        quantum.Density(purity, None, quantum.Spectrum(lam, np.eye(dim)))
    )
    assert result.method == dense.method == "spectral"
    assert result.value == pytest.approx(dense.value, rel=1e-12, abs=0.0)
    for key in ("eigengap", "discarded_overlap_mass"):
        assert result.diagnostics[key] == pytest.approx(
            dense.diagnostics[key], rel=0.0, abs=1e-12 * dense.value
        )
    for key in ("discarded_pairs", "isotropic", "pair_threshold", "purity"):
        assert result.diagnostics[key] == dense.diagnostics[key]
    assert theta == dense_theta == 0.0
    if nbar <= 0.5 and dim >= 140:
        # Pairs drop at these dims; at nbar = 0 every pair of empty levels does.
        assert result.diagnostics["discarded_pairs"] > 0
    if nbar == 0.0:
        assert result.diagnostics["discarded_pairs"] == (dim - 1) ** 2
        assert result.value == 2.0


@pytest.mark.parametrize("seed", range(8))
def test_dropped_pair_count_matches_dense_count_at_the_threshold(seed):
    # Pairs whose sums land within a few ulps of the threshold, where the
    # unrounded comparison l_j <= threshold - l_i misjudges some rows, and
    # repeated eigenvalues.
    rng = np.random.default_rng(seed)
    threshold = float(rng.uniform(0.1, 2.0))
    for dim in (2, 7, 30, 60):
        base = rng.uniform(0.0, threshold, dim)
        partner = np.abs(threshold - base + rng.integers(-3, 4, dim) * np.spacing(threshold))
        lam = np.sort(np.concatenate([base, partner, base[: dim // 3]]))[::-1].copy()
        dense = int(np.count_nonzero(~(lam[:, None] + lam[None, :] > threshold)))
        assert fisher._count_dropped_pairs(lam, threshold) == dense


@pytest.mark.parametrize(
    "kind,params", [("thermal", {"nbar": 3.0}), ("squeezed", {"r": 0.9}), ("cat", {"alpha": 2.2})]
)
def test_built_state_best_quadrature_allocates_no_dense_matrix(kind, params):
    # One complex 2000 x 2000 array is 64 MB; a built state and its best
    # quadrature hold a few vectors of 2000 entries.
    tracemalloc.start()
    try:
        fisher._max_quadrature(quantum.build_state(kind, 2000, **params))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("dim", [2, 3, 7, 30, 120, 200])
def test_ladder_best_quadrature_matches_dense_reference_on_random_states(dim):
    rng = np.random.default_rng(70 + dim)
    states = [random_pure(rng, dim), random_density(rng, dim)]
    if dim > 2:
        states.append(random_density(rng, dim, max(2, dim // 3)))
    for rho in states:
        theta, result = fisher._max_quadrature(quantum.density(rho))
        assert_matches_reference_best_quadrature(theta, result, reference_best_quadrature(rho))
    if dim > 2:
        # The rank-deficient state drops its null-space pairs.
        assert result.diagnostics["discarded_pairs"] > 0


@pytest.mark.parametrize("dim", [2, 3, 12, 40])
def test_general_quadrature_pair_matches_four_rotations(dim):
    # One rotation of A = (x + ip) / sqrt2 against V^+ x V and V^+ p V, for a
    # random Hermitian pair that is no ladder.
    rng = np.random.default_rng(40 + dim)
    x, p = random_hermitian(rng, dim), random_hermitian(rng, dim)
    states = [random_pure(rng, dim), random_density(rng, dim)]
    if dim > 2:
        states.append(random_density(rng, dim, max(2, dim // 3)))
    for rho in states:
        expected = reference_qfi_matrix(rho, [x, p])
        values, vectors = np.linalg.eigh(expected)
        theta, result = fisher.qfi_max_quadrature(rho, x, p)
        assert result.value == pytest.approx(values[-1], rel=1e-12, abs=0.0)
        assert result.diagnostics["eigengap"] == pytest.approx(values[-1] - values[0], rel=1e-12)
        top = vectors[:, -1]
        assert theta == pytest.approx(math.atan2(top[1], top[0]) % math.pi, abs=1e-9)


# ---------------------------------------------------------------------------
# invariants on random ensembles
# ---------------------------------------------------------------------------


def test_convexity(rng):
    for _ in range(40):
        dim = int(rng.integers(2, 5))
        rho, sigma = random_density(rng, dim), random_density(rng, dim)
        a = random_hermitian(rng, dim)
        p = float(rng.uniform())
        lhs = fisher.qfi(quantum.mix(p, rho, sigma), a).value
        rhs = p * fisher.qfi(rho, a).value + (1 - p) * fisher.qfi(sigma, a).value
        assert lhs <= rhs + 1e-9


def test_additivity(rng):
    eye = np.eye(3, dtype=complex)
    for _ in range(20):
        rho, sigma = random_density(rng, 3), random_density(rng, 3)
        a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
        joint = quantum.tensor(rho, sigma)
        obs = quantum.tensor(a, eye) + quantum.tensor(eye, b)
        lhs = fisher.qfi(joint, obs).value
        rhs = fisher.qfi(rho, a).value + fisher.qfi(sigma, b).value
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_unitary_covariance(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        rho = random_density(rng, dim)
        a = random_hermitian(rng, dim)
        u = random_unitary(rng, dim)
        lhs = fisher.qfi(u @ rho @ u.conj().T, u @ a @ u.conj().T).value
        rhs = fisher.qfi(rho, a).value
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_ordering_chain(rng):
    for _ in range(40):
        dim = int(rng.integers(2, 8))
        rho = random_density(rng, dim)
        a = random_hermitian(rng, dim)
        f2 = fisher.sub_qfi_f2(rho, a).value
        f = fisher.qfi(rho, a).value
        four_var = 4.0 * fisher.variance(rho, a)
        assert f2 <= f + 1e-9
        assert f <= four_var + 1e-9


def _position_wavefunctions(dim, x):
    """Hermite functions for nu = 1/2 quadratures (stable recurrence)."""
    phi = np.zeros((dim, x.size))
    phi[0] = math.pi**-0.25 * np.exp(-0.5 * x * x)
    if dim > 1:
        phi[1] = math.sqrt(2.0) * x * phi[0]
    for n in range(1, dim - 1):
        phi[n + 1] = (
            math.sqrt(2.0 / (n + 1)) * x * phi[n] - math.sqrt(n / (n + 1.0)) * phi[n - 1]
        )
    return phi


def position_density(rho, x):
    phi = _position_wavefunctions(rho.shape[0], x)
    return np.real(np.einsum("mx,mn,nx->x", phi, rho, phi))


def test_classical_fi_never_exceeds_qfi(rng):
    # Position statistics of a translated state: the grid FI must stay
    # below the QFI of the translation generator (the momentum quadrature).
    # The state is embedded one Fock level up so the generator's coupling
    # out of the truncated basis is not clipped.
    h = 4e-3
    x = np.arange(-12.0, 12.0 + h / 2, h)
    _a, _x_op, p_op = quantum.fock_operators(7, nu=0.5)
    for _ in range(10):
        rho = random_density(rng, 6)
        p_density = position_density(rho, x)
        p_density = np.clip(p_density, 0.0, None)
        p_density /= np.sum(p_density) * h
        fi = fisher.classical_fi_grid(p_density, h).value
        embedded = np.zeros((7, 7), dtype=complex)
        embedded[:6, :6] = rho
        assert fi <= fisher.qfi(embedded, p_op).value + 1e-6
