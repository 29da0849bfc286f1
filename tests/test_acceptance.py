"""Acceptance suite: one test per criterion, one PASS/FAIL line per check.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Criterion 3 carries two known-red checks: the published entangled-size
anchors (about 5 and about 130) are mutually inconsistent with the same
chain's own coherence-length and geometry anchors, which this suite
reproduces; the exact values and the mechanism are printed.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from macrosize import catalog, diffraction, fisher, measures, oscillator, quantum, wigner
from macrosize.errors import TruncationError
from macrosize.measures import constants

from conftest import random_density, random_hermitian, random_unitary

C = constants()


class Checker:
    def __init__(self, criterion):
        self.criterion = criterion
        self.failures = []

    def check(self, label, ok, detail=""):
        verdict = "PASS" if ok else "FAIL"
        print(f"{verdict} [{self.criterion}] {label}: {detail}")
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def within(self, label, value, expected, rel):
        dev = abs(value - expected) / abs(expected)
        self.check(
            label,
            dev <= rel,
            f"value {value:.4e}, expected {expected:.4e} +/- {100 * rel:.0f}% "
            f"(deviation {100 * dev:.2f}%)",
        )

    def finish(self):
        assert not self.failures, "; ".join(self.failures)


# ---------------------------------------------------------------------------
# 1. Survey tight rows within 10%, runtime < 1 s
# ---------------------------------------------------------------------------


def test_criterion_1_survey_tight_rows():
    c = Checker("criterion 1")
    start = time.perf_counter()
    rows = {r.label: r for r in catalog.table1()}
    elapsed = time.perf_counter() - start
    tight = [
        "Teufel 2011 (drum)",
        "Verhagen 2012 (toroid)",
        "Ringbauer 2018 (membrane)",
        "Pikovski 2012 (proposal)",
        "Tobar 2024a (bar, 100 Hz)",
        "Tobar 2024b (bar, 1.1 kHz)",
        "Rossi 2024 (levitated)",
        "Bild 2023 (HBAR)",
    ]
    for label in tight:
        row = rows[label]
        c.within(f"{label} N_ext", row.n_ext, row.expected_n_ext, 0.10)
        c.within(f"{label} N_ent", row.n_ent, row.expected_n_ent, 0.10)
    c.check("runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f} s")
    c.finish()


# ---------------------------------------------------------------------------
# 2. Loose rows within one order of magnitude, mechanism printed
# ---------------------------------------------------------------------------


def test_criterion_2_survey_loose_rows():
    c = Checker("criterion 2")
    rows = {r.label: r for r in catalog.table1()}
    ion = rows["Kienzler 2016 (trapped ion)"]
    drums = rows["Chegnizadeh 2024 (six drums)"]
    for row in (ion, drums):
        ratio_ext = row.n_ext / row.expected_n_ext
        ratio_ent = row.n_ent / row.expected_n_ent
        c.check(
            f"{row.label} within one order",
            0.1 <= ratio_ext <= 10.0 and 0.1 <= ratio_ent <= 10.0,
            f"N_ext ratio {ratio_ext:.2f}, N_ent ratio {ratio_ent:.2f}",
        )
        c.check(f"{row.label} mechanism printed", bool(row.note), row.note)
    c.check(
        "trapped-ion mechanism names the unstated QFI bound",
        "QFI lower bound" in ion.note,
        ion.note,
    )
    c.check(
        "coupled-drum mechanism names the mass/scaling ambiguity",
        "inconsistent" in drums.note and "collective scaling" in drums.note,
        drums.note,
    )
    c.finish()


# ---------------------------------------------------------------------------
# 3. Diffraction chain
# ---------------------------------------------------------------------------


def test_criterion_3_diffraction_chain():
    c = Checker("criterion 3")
    start = time.perf_counter()
    setup = catalog.fein_setup()
    report = diffraction.diffraction_sizes(setup)
    setup_l0_1m = diffraction.TalbotLauSetup(
        mass=setup.mass,
        n_atoms=setup.n_atoms,
        grating_period=setup.grating_period,
        open_fraction=setup.open_fraction,
        visibility=setup.visibility,
        flight_time=setup.flight_time,
        source_g1=1.0,
        g1_g2=setup.g1_g2,
    )
    report_1m = diffraction.diffraction_sizes(setup_l0_1m)
    elapsed = time.perf_counter() - start

    c.within("QFI bound", report.inputs["qfi_bound"], 4.3e-60, 0.05)
    c.within("N_ext", report.n_ext, 1.4e14, 0.10)
    chi = report.inputs["coherence_length"]
    c.check(
        "coherence length in [20, 25] nm", 20e-9 <= chi <= 25e-9, f"{chi * 1e9:.2f} nm"
    )
    c.within("dX_2 at L0 = 0.2 m", report.inputs["delta_x_cm"], 396e-9, 0.01)
    # Known-red anchors: with the chain's own chi = 23.4 nm (the published
    # analysis rounds it to 20 nm) the entangled size at L0 = 0.2 m is
    # N (chi/dX2)^2 = 6.97, outside 5 +/- 20%; and no geometry consistent
    # with dX2 = 396 nm yields 130 at L0 = 1 m (the linear relation gives
    # dX2 = 132 nm and N_ent = 62.7).
    c.within("N_ent at L0 = 0.2 m (known red)", report.n_ent, 5.0, 0.20)
    c.within("N_ent at L0 = 1 m (known red)", report_1m.n_ent, 130.0, 0.20)
    c.check("runtime < 0.1 s", elapsed < 0.1, f"{elapsed:.4f} s")
    try:
        c.finish()
    except AssertionError:
        known_red = [f for f in c.failures if "known red" in f]
        if len(known_red) == len(c.failures):
            pytest.fail(
                "only the documented inconsistent anchors failed: "
                + "; ".join(known_red)
            )
        raise


# ---------------------------------------------------------------------------
# 4. Crystal thought experiment
# ---------------------------------------------------------------------------


def test_criterion_4_crystal():
    c = Checker("criterion 4")
    report = catalog.leggett_crystal(catalog.leggett_scenario())
    c.within("N_ext momentum", report["n_ext_momentum"], 6.9e11, 0.03)
    c.check(
        "N_ent momentum in [1e-3, 2e-3]",
        1e-3 <= report["n_ent_momentum"] <= 2e-3,
        f"{report['n_ent_momentum']:.3e}",
    )
    c.within("N_ext position @ 1 s", report["n_ext_position"], 8.9e37, 0.03)
    comparison = catalog.nucleon_partition_comparison(catalog.leggett_scenario())
    c.within("nucleon momentum suppression", comparison["momentum_suppression"], 1e8, 0.20)
    c.within("nucleon position enhancement", comparison["position_enhancement"], 12.5, 0.20)
    c.finish()


# ---------------------------------------------------------------------------
# 5. QFI kernel properties: 200 random instances each, dims <= 16
# ---------------------------------------------------------------------------


def _position_wavefunctions(dim, x):
    phi = np.zeros((dim, x.size))
    phi[0] = math.pi**-0.25 * np.exp(-0.5 * x * x)
    if dim > 1:
        phi[1] = math.sqrt(2.0) * x * phi[0]
    for n in range(1, dim - 1):
        phi[n + 1] = (
            math.sqrt(2.0 / (n + 1)) * x * phi[n] - math.sqrt(n / (n + 1.0)) * phi[n - 1]
        )
    return phi


def test_criterion_5_qfi_properties():
    c = Checker("criterion 5")
    start = time.perf_counter()
    rng = np.random.default_rng(515151)
    slack = 1e-9

    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 17))
        rho, sigma = random_density(rng, dim), random_density(rng, dim)
        a = random_hermitian(rng, dim)
        p = float(rng.uniform())
        lhs = fisher.qfi(quantum.mix(p, rho, sigma), a).value
        rhs = p * fisher.qfi(rho, a).value + (1 - p) * fisher.qfi(sigma, a).value
        worst = max(worst, lhs - rhs)
    c.check("convexity (200 instances)", worst <= slack, f"worst excess {worst:.2e}")

    worst = 0.0
    for _ in range(200):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        rho, sigma = random_density(rng, da), random_density(rng, db)
        a, b = random_hermitian(rng, da), random_hermitian(rng, db)
        obs = quantum.tensor(a, np.eye(db, dtype=complex)) + quantum.tensor(
            np.eye(da, dtype=complex), b
        )
        lhs = fisher.qfi(quantum.tensor(rho, sigma), obs).value
        rhs = fisher.qfi(rho, a).value + fisher.qfi(sigma, b).value
        worst = max(worst, abs(lhs - rhs))
    c.check("additivity (200 instances)", worst <= slack, f"worst deviation {worst:.2e}")

    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 17))
        rho = random_density(rng, dim)
        a = random_hermitian(rng, dim)
        u = random_unitary(rng, dim)
        lhs = fisher.qfi(u @ rho @ u.conj().T, u @ a @ u.conj().T).value
        worst = max(worst, abs(lhs - fisher.qfi(rho, a).value))
    c.check(
        "unitary covariance (200 instances)", worst <= slack, f"worst deviation {worst:.2e}"
    )

    worst_f2, worst_var = 0.0, 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 17))
        rho = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
        a = random_hermitian(rng, dim)
        f2 = fisher.sub_qfi_f2(rho, a).value
        f = fisher.qfi(rho, a).value
        worst_f2 = max(worst_f2, f2 - f)
        worst_var = max(worst_var, f - 4.0 * fisher.variance(rho, a))
    c.check(
        "ordering F2 <= F <= 4 Var (200 instances)",
        worst_f2 <= slack and worst_var <= slack,
        f"worst F2 excess {worst_f2:.2e}, worst 4Var excess {worst_var:.2e}",
    )

    # Classical FI of the position density under translations vs the QFI of
    # the generator (state embedded one level up so the truncated generator
    # does not clip the coupling out of the basis).
    h = 4e-3
    x = np.arange(-12.0, 12.0 + h / 2, h)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        rho = random_density(rng, dim)
        phi = _position_wavefunctions(dim, x)
        density = np.clip(np.real(np.einsum("mx,mn,nx->x", phi, rho, phi)), 0.0, None)
        density /= np.sum(density) * h
        fi_cl = fisher.classical_fi_grid(density, h).value
        embedded = np.zeros((dim + 1, dim + 1), dtype=complex)
        embedded[:dim, :dim] = rho
        _a, _x, p_op = quantum.fock_operators(dim + 1, nu=0.5)
        worst = max(worst, fi_cl - fisher.qfi(embedded, p_op).value)
    c.check(
        "classical FI <= QFI for projective position readout (200 instances)",
        worst <= slack,
        f"worst excess {worst:.2e}",
    )

    elapsed = time.perf_counter() - start
    c.check("runtime < 30 s", elapsed < 30.0, f"{elapsed:.1f} s")
    c.finish()


# ---------------------------------------------------------------------------
# 6. Entangled-size properties
# ---------------------------------------------------------------------------


def _qubit_partition(n):
    sz = np.diag([1.0, -1.0]).astype(complex)
    locals_ = [quantum.qubit_site_operator(sz, i, n) for i in range(n)]
    return measures.PartitionedObservable.from_locals(locals_, f"{n} qubits")


def test_criterion_6_entangled_size_properties():
    c = Checker("criterion 6")
    start = time.perf_counter()
    rng = np.random.default_rng(616161)
    slack = 1e-9

    worst = -np.inf
    for _ in range(200):
        n = int(rng.integers(2, 5))
        rho = random_density(rng, 2**n)
        worst = max(worst, measures.entangled_size(rho, _qubit_partition(n)) - n)
    c.check("maximum size <= n (200 instances)", worst <= slack, f"worst excess {worst:.2e}")

    worst = 0.0
    for q in (0.1, 0.3, 0.5, 0.7, 0.9):
        for n in (2, 3, 4, 5):
            rho, obs = quantum.ghz_state(n, q, phase=0.3)
            worst = max(worst, abs(measures.entangled_size(rho, obs) - n))
    c.check("GHZ saturation exact", worst <= slack, f"worst deviation {worst:.2e}")

    worst = -np.inf
    for _ in range(200):
        na, nb = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        rho_a, rho_b = random_density(rng, 2**na), random_density(rng, 2**nb)
        whole = measures.entangled_size(
            quantum.tensor(rho_a, rho_b), _qubit_partition(na + nb)
        )
        bound = max(
            measures.entangled_size(rho_a, _qubit_partition(na)),
            measures.entangled_size(rho_b, _qubit_partition(nb)),
        )
        worst = max(worst, whole - bound)
    c.check(
        "independent systems bounded by parts (200 instances)",
        worst <= slack,
        f"worst excess {worst:.2e}",
    )

    worst = -np.inf
    for _ in range(200):
        n = int(rng.integers(2, 4))
        obs = _qubit_partition(n)
        rho, sigma = random_density(rng, 2**n), random_density(rng, 2**n)
        p = float(rng.uniform())
        mixed = measures.entangled_size(quantum.mix(p, rho, sigma), obs)
        bound = max(
            measures.entangled_size(rho, obs), measures.entangled_size(sigma, obs)
        )
        worst = max(worst, mixed - bound)
    c.check(
        "classical mixtures bounded (200 instances)", worst <= slack, f"worst excess {worst:.2e}"
    )

    worst = -np.inf
    for _ in range(60):
        k = int(rng.integers(1, 4))
        blocks = []
        total = 0
        while total < 4:
            size = int(rng.integers(1, min(k, 4 - total) + 1))
            blocks.append(size)
            total += size

        def k_producible():
            parts = []
            for size in blocks:
                if size == 1:
                    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                    psi /= np.linalg.norm(psi)
                    parts.append(np.outer(psi, psi.conj()))
                else:
                    ghz, _ = quantum.ghz_state(size, float(rng.uniform(0.2, 0.8)))
                    parts.append(ghz)
            return quantum.tensor(*parts)

        rho = quantum.mix(float(rng.uniform(0.2, 0.8)), k_producible(), k_producible())
        value = measures.entangled_size(rho, _qubit_partition(sum(blocks)))
        worst = max(worst, value - k)
    c.check(
        "k-producible constructions bounded by k (60 instances)",
        worst <= slack,
        f"worst excess {worst:.2e}",
    )

    elapsed = time.perf_counter() - start
    c.check("runtime < 30 s", elapsed < 30.0, f"{elapsed:.1f} s")
    c.finish()


# ---------------------------------------------------------------------------
# 7. Thermal closed forms vs spectral oracle
# ---------------------------------------------------------------------------


def test_criterion_7_thermal_closed_forms():
    c = Checker("criterion 7")
    # The stated dim of 60 violates the constructors' truncation gate at
    # nbar = 5 (tail 2.1e-5 >= 1e-8), where the spectral value would also
    # miss the closed form by ~2e-4; the suggested dimension restores the
    # 1e-6 agreement the criterion targets.
    try:
        quantum.thermal_state(5.0, 60)
        c.check("nbar = 5 tail gate at dim 60", False, "construction unexpectedly passed")
    except TruncationError as exc:
        c.check(
            "nbar = 5 tail gate at dim 60",
            exc.suggested_dim > 60,
            f"tail {exc.tail_weight:.2e}, suggested dim {exc.suggested_dim}",
        )
        dim_for_5 = exc.suggested_dim

    for nbar, dim in ((0.0, 60), (0.5, 60), (1.0, 60), (5.0, dim_for_5)):
        rho = quantum.thermal_state(nbar, dim)
        for nu in (0.5, 1.0):
            _a, x, _p = quantum.fock_operators(dim, nu=nu)
            p = nbar / (1.0 + nbar)
            closed_f = 4.0 * nu * (1.0 - p) / (1.0 + p)
            closed_var = nu * (2.0 * nbar + 1.0)
            f = fisher.qfi(rho, x).value
            var = fisher.variance(rho, x)
            dev_f = abs(f - closed_f) / closed_f
            dev_var = abs(var - closed_var) / closed_var
            c.check(
                f"nbar={nbar} nu={nu} dim={dim}",
                dev_f <= 1e-6 and dev_var <= 1e-6,
                f"F dev {dev_f:.2e}, Var dev {dev_var:.2e}",
            )
    c.finish()


# ---------------------------------------------------------------------------
# 8. Mode volumes and the chain oracle
# ---------------------------------------------------------------------------


def test_criterion_8_mode_volumes_and_chain():
    c = Checker("criterion 8")
    geom = oscillator.circular_drum(7.5e-6, 100e-9, 2.71e3, 27.0 * C.m_u)
    closed = oscillator.mode_volume(geom, "fundamental")
    numerical = oscillator.mode_volume(geom, "fundamental", numerical=True)
    fraction = closed.mode_volume / geom.volume
    c.check(
        "drum fundamental V_k/V = 0.2695 +/- 1e-4",
        abs(fraction - 0.2695) <= 1e-4,
        f"{fraction:.6f}",
    )
    agreement = abs(numerical.mode_volume - closed.mode_volume) / closed.mode_volume
    c.check(
        "closed form vs quadrature", agreement <= 1e-6, f"relative gap {agreement:.2e}"
    )
    square = oscillator.square_drum(1.7e-3, 50e-9, 3.17e3, 20.0 * C.m_u)
    sq_fraction = oscillator.mode_volume(square, "fundamental").mode_volume / square.volume
    c.check("square drum = 1/4 exactly", sq_fraction == 0.25, f"{sq_fraction!r}")

    # 1-D chain, atoms as regions, warm environment (thermally excited
    # wavelengths far above the region size), addressed mode cooled.
    def omega(l):
        return 0.1 * np.asarray(l, dtype=float)

    chain = oscillator.HarmonicChain(256, omega, 3.2)
    nu2 = float(chain.nu[1])
    exact, continuum = oscillator.chain_oracle(
        256, omega, 3.2, n_regions=256, addressed=2,
        addressed_variance=nu2, addressed_qfi=4.0 * nu2,
    )
    gap = abs(exact - continuum) / continuum
    c.check(
        "chain oracle exact vs continuum within 5% (N = 256)",
        gap <= 0.05,
        f"exact {exact:.5g}, continuum {continuum:.5g}, gap {100 * gap:.2f}%",
    )
    c.finish()


# ---------------------------------------------------------------------------
# 9. Wigner pipeline round trip
# ---------------------------------------------------------------------------


def test_criterion_9_wigner_roundtrip():
    c = Checker("criterion 9")
    print(
        "NOTE [criterion 9] published experimental Wigner data are not "
        "available; synthetic states with matching QFI targets stand in "
        "(declared oracle substitution)."
    )
    cases = [
        ("vacuum", quantum.vacuum_state(16), 16, (-8, 8, 81), (-8, 8, 81)),
        (
            "squeezed F target 4.2",
            quantum.squeezed_state(0.5 * math.log(2.1), 40),
            40,
            (-9, 9, 181),
            (-9, 9, 121),
        ),
        ("cat alpha = 2", quantum.cat_state(2.0, 40), 40, (-10, 10, 121), (-10, 10, 121)),
    ]
    for label, state, dim, x_axis, p_axis in cases:
        grid = wigner.synth_grid(state, x_axis, p_axis)
        report = wigner.reconstruct(grid, dim)
        fid = wigner.fidelity(report.rho, state)
        c.check(f"{label} fidelity >= 0.995", fid >= 0.995, f"{fid:.6f}")
        fhat = wigner.qfi_from_grid(grid, dim)[1].value
        d = state.shape[0]
        _a, x_op, p_op = quantum.fock_operators(d, nu=0.5)
        _t, direct = fisher.qfi_max_quadrature(state, x_op, p_op)
        dev = abs(fhat - direct.value) / direct.value
        c.check(
            f"{label} F within 2% of spectral",
            dev <= 0.02,
            f"grid {fhat:.4f}, direct {direct.value:.4f}",
        )
        if label == "vacuum":
            c.check("vacuum F = 2.00 +/- 0.05", abs(fhat - 2.0) <= 0.05, f"{fhat:.4f}")
        if "4.2" in label:
            c.check("squeezed F target 4.2 +/- 0.1", abs(fhat - 4.2) <= 0.1, f"{fhat:.4f}")
    c.finish()


# ---------------------------------------------------------------------------
# 10. Decoherence-model consistency
# ---------------------------------------------------------------------------


def test_criterion_10_nh_consistency():
    c = Checker("criterion 10")
    dim = 10
    rng = np.random.default_rng(101010)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    _a, q_op, _p = quantum.fock_operators(dim, nu=0.5)
    coefficient = 0.81
    eye = np.eye(dim, dtype=complex)
    q2 = q_op @ q_op
    liouville = -coefficient * (
        np.kron(eye, q2) + np.kron(q2.T, eye) - 2.0 * np.kron(q_op.T, q_op)
    )
    dt = 1e-5

    def purity_at(t):
        prop = expm(liouville * t)
        rho_t = (prop @ rho.reshape(-1, order="F")).reshape(dim, dim, order="F")
        return float(np.real(np.trace(rho_t @ rho_t)))

    rate = -(purity_at(dt) - purity_at(-dt)) / (2.0 * dt)
    predicted = coefficient * fisher.sub_qfi_f2(rho, q_op).value
    dev = abs(rate - predicted) / predicted
    c.check(
        "purity-loss rate matches coefficient * F2 to 1e-6",
        dev <= 1e-6,
        f"finite difference {rate:.10e}, closed form {predicted:.10e}, dev {dev:.2e}",
    )

    params = catalog.NHParams(n_ext=1e14, coherence_time=3.8e-3, critical_length=100e-9)
    result = catalog.nh_mu(params)
    gap = abs(result["mu"] - result["mu_simplified"])
    c.check(
        "full relation reduces to simplified within 0.2 at l_q = 100 nm",
        gap <= 0.2,
        f"mu {result['mu']:.4f} vs simplified {result['mu_simplified']:.4f}",
    )
    c.finish()
