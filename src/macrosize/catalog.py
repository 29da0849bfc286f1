"""Worked-example engine: crystal thought experiment, oscillator survey
table, diffraction point, flux-qubit estimate, and the decoherence-time
macroscopicity relation.

Every number is recomputed from embedded input parameters at run time;
published reference values live in a separate expected-values table used
only for deviation reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from . import oscillator
from .diffraction import TalbotLauSetup, diffraction_sizes
from .errors import DomainError, require_nonnegative, require_positive
from .fisher import sub_qfi_f2
from .measures import constants, two_branch_entangled_size
from .oscillator import OscillatorMode

# ---------------------------------------------------------------------------
# Crystal superposition thought experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrystalScenario:
    """A solid in an equal superposition of two total-momentum branches."""

    n_atoms: float
    atom_mass: float  # kg
    relative_speed: float  # m/s between the branches
    confinement: float  # m, single-atom rms position spread
    drift_time: float  # s of free evolution before the position analysis

    def __post_init__(self):
        require_positive(**vars(self))  # every field is a positive quantity


def leggett_scenario() -> CrystalScenario:
    """5-micrometre LiF cube moving at 5 um/s: 1.6e13 atoms of 12.5 m_u."""
    c = constants()
    return CrystalScenario(
        n_atoms=1.6e13,
        atom_mass=12.5 * c.m_u,
        relative_speed=5e-6,
        confinement=1e-11,
        drift_time=1.0,
    )


def leggett_crystal(scenario: CrystalScenario) -> dict:
    """Momentum sizes at t = 0 and position sizes after the drift time."""
    c = constants()
    total_mass = scenario.n_atoms * scenario.atom_mass
    delta_p_total = total_mass * scenario.relative_speed
    delta_p_atom = delta_p_total / scenario.n_atoms
    momentum_spread = c.hbar / (2.0 * scenario.confinement)
    r_p = delta_p_atom / (2.0 * momentum_spread)
    delta_x = scenario.relative_speed * scenario.drift_time
    r_q = delta_x / (2.0 * scenario.confinement)
    return {
        "delta_p_total": delta_p_total,
        "n_ext_momentum": (delta_p_total / (2.0 * c.P0)) ** 2,
        "r_p": r_p,
        "n_ent_momentum": two_branch_entangled_size(scenario.n_atoms, r_p),
        "delta_x": delta_x,
        "n_ext_position": (total_mass * delta_x / (2.0 * c.Q0)) ** 2,
        "r_q": r_q,
        "n_ent_position": two_branch_entangled_size(scenario.n_atoms, r_q),
    }


def nucleon_partition_comparison(
    scenario: CrystalScenario,
    nucleon_confinement: float = 1e-15,
) -> dict:
    """Compare atom and nucleon partitions for the crystal superposition.

    Momentum: the nucleon confinement scale replaces the atomic one
    (raising the per-branch momentum spread), which suppresses the branch
    ratio and hence the entangled size by its square.  Position: the
    nucleon position spread is still set by each atom's motion, so
    fine-graining an atom of mass m into m / m_u nucleons scales the
    variance denominator down and the entangled size up by m / m_u.
    """
    atoms = leggett_crystal(scenario)
    nucleons = leggett_crystal(replace(scenario, confinement=nucleon_confinement))
    momentum_suppression = atoms["n_ent_momentum"] / nucleons["n_ent_momentum"]
    position_enhancement = scenario.atom_mass / constants().m_u
    return {
        "atoms": atoms,
        "nucleons": nucleons,
        "momentum_suppression": momentum_suppression,
        "position_enhancement": position_enhancement,
    }


# ---------------------------------------------------------------------------
# Oscillator survey table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SizePoint:
    """The two sizes of one system, with its published values where there are any.

    A point without published values has None for ``expected_*``,
    ``tolerance_class`` and both deviations.
    """

    label: str
    kind: str  # experiment | proposal | thought-experiment
    n_ext: float
    n_ent: float
    expected_n_ext: float | None = None
    expected_n_ent: float | None = None
    tolerance_class: str | None = None  # tight (10%) | order (one order of magnitude)
    note: str = ""
    inputs: Mapping = field(default_factory=dict)

    @property
    def deviation_ext(self) -> float | None:
        return _deviation(self.n_ext, self.expected_n_ext)

    @property
    def deviation_ent(self) -> float | None:
        return _deviation(self.n_ent, self.expected_n_ent)

    def within_tolerance(self) -> bool:
        """Whether both sizes meet the tolerance class; True with no published values."""
        if self.tolerance_class is None:
            return True
        if self.tolerance_class == "tight":
            return self.deviation_ext <= 0.10 and self.deviation_ent <= 0.10
        ratios = (
            self.n_ext / self.expected_n_ext,
            self.n_ent / self.expected_n_ent,
        )
        return all(0.1 <= r <= 10.0 for r in ratios)


def _deviation(value: float, expected: float | None) -> float | None:
    return None if expected is None else abs(value - expected) / expected


def _thermal_row(label, kind, mode_mass, zero_point, nbar, n_k, delta_u, expected, note=""):
    mode = OscillatorMode(mode_mass=mode_mass, zero_point=zero_point, mode_particle_number=n_k)
    report = oscillator.thermal_sizes(mode, nbar, delta_u)
    return SizePoint(
        label=label,
        kind=kind,
        n_ext=report.n_ext,
        n_ent=report.n_ent,
        expected_n_ext=expected[0],
        expected_n_ent=expected[1],
        tolerance_class="tight",
        note=note,
        inputs=dict(report.inputs),
    )


def table1() -> list[SizePoint]:
    """Recompute the oscillator survey from embedded parameters.

    Eight rows reproduce the published estimates within 10% from the
    listed parameters alone; the trapped-ion and coupled-drum rows carry
    order-of-magnitude tolerances with the discrepancy mechanism noted.
    """
    c = constants()
    rows: list[SizePoint] = []

    # Trapped ion: ideal even cat alpha = 5.9 as the QFI oracle; the
    # published 1.5e9 rests on an experimental QFI lower bound that is
    # not reproducible from the listed parameters.
    alpha = 5.9
    ion_mass = 6.6e-26
    ion_omega = 2.0 * math.pi * 2.1e6
    ion_mode = OscillatorMode.from_mass_and_omega(ion_mass, ion_omega, 1.0)
    fhat_cat = 2.0 * (4.0 * alpha**2 + 1.0)  # vacuum => 2 convention
    ion_report = oscillator.measured_qfi_sizes(ion_mode, fhat_cat, vacuum_reference=2.0)
    rows.append(SizePoint(
        label="Kienzler 2016 (trapped ion)",
        kind="experiment",
        n_ext=ion_report.n_ext,
        n_ent=1.0,  # single particle, pure state: QFI = 4 Var exactly
        expected_n_ext=1.5e9,
        expected_n_ent=1.0,
        tolerance_class="order",
        note=(
            "published value uses an unstated experimental QFI lower bound; "
            "ideal-cat oracle (alpha = 5.9) gives the same order"
        ),
        inputs={"alpha": alpha, "mode_mass": ion_mass, "zero_point": ion_mode.zero_point},
    ))

    rows.append(_thermal_row(
        "Teufel 2011 (drum)", "experiment",
        mode_mass=1.3e-14, zero_point=7.8e-15, nbar=0.34, n_k=2.9e11,
        delta_u=oscillator.DELTA_U_PRESETS["Al"], expected=(7.9e17, 3.7e4),
    ))

    rows.append(_thermal_row(
        "Verhagen 2012 (toroid)", "experiment",
        mode_mass=3.2e-12, zero_point=1.8e-16, nbar=1.7, n_k=9.8e13,
        delta_u=oscillator.DELTA_U_PRESETS["SiO2"], expected=(1.0e19, 1.2e3),
    ))

    rows.append(_thermal_row(
        "Ringbauer 2018 (membrane)", "experiment",
        mode_mass=1.1e-10, zero_point=8.3e-16, nbar=6.0e7, n_k=3.5e15,
        delta_u=oscillator.DELTA_U_PRESETS["Si3N4"], expected=(9.8e15, 5.0e-2),
    ))

    # Six drums sharing a collective mode.  The listed collective mass and
    # particle number are inconsistent with (omega, zero_point); the
    # published sizes are recovered from the per-drum mode mass implied by
    # the zero-point spread, scaled collectively (x36 / x6).
    cheg_omega = 2.0 * math.pi * 2.0e6
    cheg_zp = 1.4e-15
    per_drum_mass = c.hbar / (2.0 * cheg_omega * cheg_zp**2)
    per_drum_atoms = per_drum_mass / (27.0 * c.m_u)
    cheg_mode = OscillatorMode(
        mode_mass=per_drum_mass, zero_point=cheg_zp, mode_particle_number=per_drum_atoms
    )
    cheg_base = oscillator.thermal_sizes(
        cheg_mode, nbar=0.4, delta_u=oscillator.DELTA_U_PRESETS["Al"]
    )
    cheg = oscillator.collective_scaling(cheg_base, 6)
    rows.append(SizePoint(
        label="Chegnizadeh 2024 (six drums)",
        kind="experiment",
        n_ext=cheg.n_ext,
        n_ent=cheg.n_ent,
        expected_n_ext=2.4e22,
        expected_n_ent=1.1e6,
        tolerance_class="order",
        note=(
            "listed collective mode mass 5.0e-11 kg is inconsistent with "
            "(omega, zero_point); per-drum mass hbar/(2 omega dX_zp^2) = "
            f"{per_drum_mass:.2e} kg used, then x36 / x6 collective scaling"
        ),
        inputs=dict(cheg.inputs),
    ))

    # HBAR resonator with a measured non-Gaussian state.  The published
    # sizes correspond to the dimensionless QFI 7.0 quoted for quadratures
    # scaled by the zero-point spread (ground state => 4), not the
    # vacuum-variance-1/2 convention (ground state => 2) used elsewhere.
    bild_mode = OscillatorMode(
        mode_mass=4.0e-9, zero_point=6.5e-19, mode_particle_number=1.2e17
    )
    bild = oscillator.measured_qfi_sizes(
        bild_mode,
        fhat=7.0,
        delta_u=oscillator.DELTA_U_PRESETS["sapphire"],
        vacuum_reference=4.0,
    )
    rows.append(SizePoint(
        label="Bild 2023 (HBAR)",
        kind="experiment",
        n_ext=bild.n_ext,
        n_ent=bild.n_ent,
        expected_n_ext=1.5e21,
        expected_n_ent=2.0e3,
        tolerance_class="tight",
        note="measured QFI 7.0 read in the zero-point-scaled convention (vacuum => 4)",
        inputs=dict(bild.inputs),
    ))

    rossi = oscillator.levitated_sizes(
        mass=1.2e-18,
        coherence_length=7.3e-11,
        delta_x_cm=1.2e-10,
        atom_count=3.6e7,
        delta_u=oscillator.DELTA_U_PRESETS["SiO2"],
    )
    rows.append(SizePoint(
        label="Rossi 2024 (levitated)",
        kind="experiment",
        n_ext=rossi.n_ext,
        n_ent=rossi.n_ent,
        expected_n_ext=9.9e17,
        expected_n_ent=1.3e7,
        tolerance_class="tight",
        inputs=dict(rossi.inputs),
    ))

    rows.append(_thermal_row(
        "Pikovski 2012 (proposal)", "proposal",
        mode_mass=1.0e-11, zero_point=2.9e-15, nbar=30.0, n_k=3.0e14,
        delta_u=oscillator.DELTA_U_DEFAULT, expected=(1.8e21, 4.1e5),
    ))

    rows.append(_thermal_row(
        "Tobar 2024a (bar, 100 Hz)", "proposal",
        mode_mass=7.5, zero_point=1.1e-19, nbar=0.0, n_k=5.0e26,
        delta_u=oscillator.DELTA_U_DEFAULT, expected=(8.2e37, 5.6e10),
    ))

    rows.append(_thermal_row(
        "Tobar 2024b (bar, 1.1 kHz)", "proposal",
        mode_mass=2.6e4, zero_point=5.5e-22, nbar=0.0, n_k=1.7e29,
        delta_u=oscillator.DELTA_U_DEFAULT, expected=(2.6e40, 5.1e8),
    ))

    return rows


# ---------------------------------------------------------------------------
# Flux qubit
# ---------------------------------------------------------------------------


def flux_qubit(
    delta_current: float = 2.0e-6,
    circuit_length: float = 560e-6,
    pair_momentum_shift: float = 6.0e-29,
    n_pairs: float = 1.0e9,
) -> dict:
    """Momentum extensive size of a persistent-current superposition.

    The current difference maps to a total-momentum difference
    m_e l dI / e, giving N_ext = (m_e l dI / 2 e P0)^2.  With the pair
    momentum shift far above the pair momentum spread, the Cooper-pair
    partition sits in the full-cat regime, N_ent ~ N_pairs.
    """
    c = constants()
    require_nonnegative(delta_current=delta_current)
    require_positive(circuit_length=circuit_length)
    n_ext = (c.m_e * circuit_length * delta_current / (2.0 * c.e * c.P0)) ** 2
    return {
        "n_ext_momentum": n_ext,
        "n_ent_pairs_full_cat": n_pairs,
        "pair_length_scale": c.hbar / pair_momentum_shift,
        "note": "full-cat regime: pair momentum spread << pair momentum shift",
    }


# ---------------------------------------------------------------------------
# Decoherence-time macroscopicity (diffusive momentum-kick model)
# ---------------------------------------------------------------------------

NH_LENGTH_FLOOR = 1e-14  # m; smaller critical lengths leave the model's domain


@dataclass(frozen=True)
class NHParams:
    """Inputs of the diffusive-limit macroscopicity relation."""

    n_ext: float
    coherence_time: float  # s
    critical_length: float = 100e-9  # m, l_q = hbar / sigma_q

    def __post_init__(self):
        require_positive(**vars(self))  # every field is a positive quantity
        if self.critical_length < NH_LENGTH_FLOOR:
            raise DomainError(
                f"critical length {self.critical_length} below the "
                f"{NH_LENGTH_FLOOR} m floor"
            )

    @property
    def sigma_q(self) -> float:
        return constants().hbar / self.critical_length


def nh_mu(params: NHParams) -> dict:
    """Excluded-decoherence-time exponent, full and simplified forms.

    Full: mu = log10 N_ext + log10 tau + 2 log10(a0 / l_q) + 2 log10(m_u / m_e);
    the simplified form drops the last two terms, which happen to cancel
    near l_q = 100 nm.
    """
    c = constants()
    tau_e = (
        params.coherence_time
        * (params.sigma_q * c.m_u * c.a0 / (c.m_e * c.hbar)) ** 2
        * params.n_ext
    )
    mu_full = math.log10(tau_e)
    mu_simple = math.log10(params.n_ext) + math.log10(params.coherence_time)
    return {
        "mu": mu_full,
        "mu_simplified": mu_simple,
        "tau_e": tau_e,
        "sigma_q": params.sigma_q,
    }


def nh_rate(
    rho: np.ndarray,
    q_operator: np.ndarray,
    sigma_q: float,
    tau_e: float,
) -> dict:
    """Decoherence rate of the diffusive momentum-kick model.

    The purity-loss rate is exactly (sigma_q^2 / tau_e m_e^2 hbar^2) F2;
    the headline rate substitutes F2 for the QFI (F2 ~ F), as noted in
    the output.
    """
    c = constants()
    require_positive(sigma_q=sigma_q, tau_e=tau_e)
    f2 = sub_qfi_f2(rho, q_operator).value
    coefficient = sigma_q**2 / (tau_e * c.m_e**2 * c.hbar**2)
    return {
        "purity_loss_rate": coefficient * f2,
        "gamma": coefficient * f2 / 4.0,
        "f2": f2,
        "note": "gamma uses the lower bound F2 in place of the QFI (F2 ~ F)",
    }


# ---------------------------------------------------------------------------
# Full scatter-plot dataset
# ---------------------------------------------------------------------------


def fein_setup() -> TalbotLauSetup:
    """25 kDa-molecule interferometer: 2000-atom molecules, 266 nm grating."""
    c = constants()
    return TalbotLauSetup(
        mass=26777.0 * c.m_u,
        n_atoms=2000.0,
        grating_period=266e-9,
        open_fraction=0.43,
        visibility=0.25,
        flight_time=1.0 / 260.0,
        source_g1=0.2,
        g1_g2=1.0,
    )


def bose_proposal_point() -> SizePoint:
    """Gravitationally entangled microspheres: 1e-14 kg, 250 um separation.

    No published entangled-size value exists; the full-cat-regime atom
    count (carbon composition) is reported with a provenance note.
    """
    c = constants()
    mass = 1.0e-14
    separation = 250e-6
    n_ext = (mass * separation / (2.0 * c.Q0)) ** 2
    n_atoms = mass / (12.0 * c.m_u)
    return SizePoint(
        label="Bose 2017 (gravity proposal)",
        n_ext=n_ext,
        n_ent=n_atoms,
        kind="proposal",
        note="entangled size = full-cat-regime atom count (not a published value)",
    )


def figure_dataset() -> list[SizePoint]:
    """All systems: survey rows, crystal (momentum and position), the
    diffraction experiment, and the gravity proposal."""
    crystal = leggett_crystal(leggett_scenario())
    fein = diffraction_sizes(fein_setup())
    return table1() + [
        SizePoint(
            label="Leggett 2016, t=0 (momentum)",
            kind="thought-experiment",
            n_ext=crystal["n_ext_momentum"],
            n_ent=crystal["n_ent_momentum"],
            note="momentum observable",
        ),
        SizePoint(
            label="Leggett 2016, t=1s (position)",
            kind="thought-experiment",
            n_ext=crystal["n_ext_position"],
            n_ent=crystal["n_ent_position"],
        ),
        SizePoint(
            label="Fein 2019 (diffraction)",
            kind="experiment",
            n_ext=fein.n_ext,
            n_ent=fein.n_ent,
            note="lower bounds from fringe statistics",
        ),
        bose_proposal_point(),
    ]
