import math

import numpy as np
import pytest
from scipy.linalg import expm

from macrosize import catalog, quantum
from macrosize.catalog import (
    CrystalScenario,
    NHParams,
    bose_proposal_point,
    figure_dataset,
    flux_qubit,
    leggett_crystal,
    leggett_scenario,
    nh_mu,
    nh_rate,
    nucleon_partition_comparison,
    table1,
)
from macrosize.errors import DomainError
from macrosize.fisher import sub_qfi_f2
from macrosize.measures import constants

C = constants()


# ---------------------------------------------------------------------------
# crystal thought experiment
# ---------------------------------------------------------------------------


def test_leggett_momentum_extensive_size():
    report = leggett_crystal(leggett_scenario())
    assert report["n_ext_momentum"] == pytest.approx(6.9e11, rel=0.03)


def test_leggett_momentum_entangled_size():
    report = leggett_crystal(leggett_scenario())
    assert 1e-3 <= report["n_ent_momentum"] <= 2e-3
    assert report["r_p"] == pytest.approx(9.8e-9, rel=0.01)


def test_leggett_position_after_drift():
    report = leggett_crystal(leggett_scenario())
    assert report["n_ext_position"] == pytest.approx(8.9e37, rel=0.03)
    # branch separation 5 um over confinement 1e-11 m
    assert report["r_q"] == pytest.approx(2.5e5, rel=1e-6)
    assert report["n_ent_position"] == pytest.approx(1.6e13, rel=1e-6)


def test_nucleon_comparison():
    comparison = nucleon_partition_comparison(leggett_scenario())
    assert comparison["momentum_suppression"] == pytest.approx(1e8, rel=0.20)
    assert comparison["position_enhancement"] == pytest.approx(12.5, rel=0.20)


def test_nucleon_comparison_equal_confinement_is_unity():
    scenario = leggett_scenario()
    comparison = nucleon_partition_comparison(
        scenario, nucleon_confinement=scenario.confinement
    )
    assert comparison["momentum_suppression"] == pytest.approx(1.0, rel=1e-9)


def test_crystal_scenario_validation():
    with pytest.raises(DomainError):
        CrystalScenario(0, 1e-26, 5e-6, 1e-11, 1.0)


# ---------------------------------------------------------------------------
# survey table
# ---------------------------------------------------------------------------


def test_table1_row_count_and_tolerances():
    rows = table1()
    assert len(rows) == 10
    for row in rows:
        assert row.within_tolerance(), f"{row.label} outside tolerance"


def test_table1_tight_rows_within_ten_percent():
    tight = [r for r in table1() if r.tolerance_class == "tight"]
    assert len(tight) == 8
    for row in tight:
        assert row.deviation_ext <= 0.10, row.label
        assert row.deviation_ent <= 0.10, row.label


def test_table1_loose_rows_report_mechanism():
    loose = {r.label: r for r in table1() if r.tolerance_class == "order"}
    assert len(loose) == 2
    kinds = " ".join(r.note for r in loose.values())
    assert "QFI lower bound" in kinds  # trapped-ion row
    assert "inconsistent" in kinds  # coupled-drum row
    for row in loose.values():
        assert 0.1 <= row.n_ext / row.expected_n_ext <= 10.0


def test_table1_specific_rows():
    rows = {r.label: r for r in table1()}
    teufel = rows["Teufel 2011 (drum)"]
    assert teufel.n_ext == pytest.approx(7.9e17, rel=0.10)
    assert teufel.n_ent == pytest.approx(3.7e4, rel=0.10)
    tobar_a = rows["Tobar 2024a (bar, 100 Hz)"]
    assert tobar_a.n_ext == pytest.approx(8.2e37, rel=0.10)
    assert tobar_a.n_ent == pytest.approx(5.6e10, rel=0.10)


# ---------------------------------------------------------------------------
# flux qubit
# ---------------------------------------------------------------------------


def test_flux_qubit_formula_value():
    result = flux_qubit(2.0e-6, 560e-6)
    direct = (C.m_e * 560e-6 * 2.0e-6 / (2.0 * C.e * C.P0)) ** 2
    assert result["n_ext_momentum"] == pytest.approx(direct, rel=1e-12)
    assert result["n_ext_momentum"] == pytest.approx(1.0e7, rel=0.03)


def test_flux_qubit_zero_current():
    assert flux_qubit(0.0, 560e-6)["n_ext_momentum"] == 0.0


def test_flux_qubit_pair_length_scale():
    result = flux_qubit()
    assert result["pair_length_scale"] == pytest.approx(1e-6, rel=1.0)
    assert result["n_ent_pairs_full_cat"] == pytest.approx(1e9)


# ---------------------------------------------------------------------------
# decoherence-time macroscopicity
# ---------------------------------------------------------------------------


def test_nh_mu_simplified_plugin():
    result = nh_mu(NHParams(n_ext=1e14, coherence_time=3.8e-3))
    assert result["mu_simplified"] == pytest.approx(14 + math.log10(3.8e-3), rel=1e-9)
    assert result["mu_simplified"] == pytest.approx(11.6, abs=0.05)


def test_nh_mu_trivial_point():
    result = nh_mu(NHParams(n_ext=1.0, coherence_time=1.0))
    assert result["mu_simplified"] == pytest.approx(0.0, abs=1e-12)


def test_nh_mu_full_reduces_to_simplified_at_100nm():
    for n_ext, tau in [(1e10, 1e-3), (1e14, 3.8e-3), (1e20, 1.0)]:
        result = nh_mu(NHParams(n_ext=n_ext, coherence_time=tau, critical_length=100e-9))
        assert abs(result["mu"] - result["mu_simplified"]) <= 0.2


def test_nh_mu_rejects_relativistic_length():
    with pytest.raises(DomainError, match="floor"):
        NHParams(n_ext=1.0, coherence_time=1.0, critical_length=1e-15)


def _dephasing_superoperator(q_op, coefficient):
    dim = q_op.shape[0]
    eye = np.eye(dim, dtype=complex)
    q2 = q_op @ q_op
    # vec(d rho/dt) = -c (Q^2 rho - 2 Q rho Q + rho Q^2), column stacking
    return -coefficient * (
        np.kron(eye, q2) + np.kron(q2.T, eye) - 2.0 * np.kron(q_op.T, q_op)
    )


def test_nh_purity_loss_matches_f2():
    # Finite-difference oracle: evolve under the double-commutator master
    # equation and differentiate tr(rho^2) at t = 0.
    dim = 10
    rng = np.random.default_rng(42)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    _a, q_op, _p = quantum.fock_operators(dim, nu=0.5)
    coefficient = 0.37
    liouville = _dephasing_superoperator(q_op, coefficient)
    dt = 1e-5

    def purity_at(t):
        prop = expm(liouville * t)
        rho_t = (prop @ rho.reshape(-1, order="F")).reshape(dim, dim, order="F")
        return float(np.real(np.trace(rho_t @ rho_t)))

    rate = -(purity_at(dt) - purity_at(-dt)) / (2.0 * dt)
    predicted = coefficient * sub_qfi_f2(rho, q_op).value
    assert rate == pytest.approx(predicted, rel=1e-6)


def test_nh_rate_uses_f2():
    dim = 8
    rho = quantum.thermal_state(0.5, 40)[:dim, :dim]
    rho = rho / np.trace(rho).real
    _a, q_op, _p = quantum.fock_operators(dim, nu=0.5)
    sigma_q, tau_e = 1e-27, 1e10
    result = nh_rate(rho, q_op, sigma_q, tau_e)
    coefficient = sigma_q**2 / (tau_e * C.m_e**2 * C.hbar**2)
    assert result["purity_loss_rate"] == pytest.approx(
        coefficient * result["f2"], rel=1e-12
    )
    assert result["gamma"] == pytest.approx(result["purity_loss_rate"] / 4.0, rel=1e-12)
    assert "F2" in result["note"]


# ---------------------------------------------------------------------------
# scatter dataset
# ---------------------------------------------------------------------------


def test_bose_point_value():
    point = bose_proposal_point()
    expected = (1.0e-14 * 250e-6 / (2.0 * C.Q0)) ** 2
    assert point.n_ext == pytest.approx(expected, rel=1e-12)
    assert point.n_ext == pytest.approx(2.02e38, rel=0.01)
    assert point.n_ent == pytest.approx(1e-14 / (12 * C.m_u), rel=1e-12)
    assert "not a published value" in point.note


def test_figure_dataset_contents():
    points = figure_dataset()
    labels = [p.label for p in points]
    # ten survey rows + two crystal points + diffraction + gravity proposal
    assert len(points) == 14
    assert "Leggett 2016, t=0 (momentum)" in labels
    assert "Fein 2019 (diffraction)" in labels
    momentum_point = next(p for p in points if "t=0" in p.label)
    crystal = leggett_crystal(leggett_scenario())
    assert momentum_point.n_ext == pytest.approx(crystal["n_ext_momentum"])
    assert momentum_point.n_ent == pytest.approx(crystal["n_ent_momentum"])
    kinds = {p.kind for p in points}
    assert kinds == {"experiment", "proposal", "thought-experiment"}


def test_deviation_report_monotone_safe():
    # Computed values and deviations never depend on the tolerance class;
    # tightening a class can only add flags.
    import dataclasses

    for row in table1():
        tightened = dataclasses.replace(row, tolerance_class="tight")
        assert tightened.n_ext == row.n_ext and tightened.n_ent == row.n_ent
        assert tightened.deviation_ext == row.deviation_ext
        if tightened.within_tolerance():
            assert row.within_tolerance()
