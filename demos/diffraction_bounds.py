"""Lower-bound the sizes of diffracting molecules from fringe statistics.

A scanned final grating yields sinusoidal normalized counts
n(s) = 1 + v sin(ks).  The binary-trial Fisher information of passing the
grating bounds the classical FI of the detected positions, which bounds
the position QFI at the diffraction grating via F >= (hbar t)^2 F_cl.
"""

from dataclasses import replace

import numpy as np

from macrosize.catalog import fein_setup
from macrosize.diffraction import (
    FringeScan,
    cm_spread,
    diffraction_sizes,
    fit_fringe,
)

setup = fein_setup()

# Simulate a noisy fringe scan at the experiment's visibility and fit it.
rng = np.random.default_rng(2)
k = setup.wavenumber
s = np.linspace(0.0, 3 * setup.grating_period, 60)
counts = 1.0 + 0.25 * np.sin(k * s + 0.8) + rng.normal(0.0, 0.005, s.size)
fit = fit_fringe(FringeScan.from_raw(s, counts))
print(f"fitted visibility {fit.visibility:.4f} (true 0.25), "
      f"wavenumber {fit.wavenumber:.4e} 1/m, rms {fit.residual_rms:.1e}")

report = diffraction_sizes(replace(setup, visibility=fit.visibility))
print()
print(f"QFI bound            {report.inputs['qfi_bound']:.3e} kg^2 m^2")
print(f"coherence length     {report.inputs['coherence_length'] * 1e9:.1f} nm "
      f"({100 * report.inputs['coherence_length'] / setup.grating_period:.0f}% "
      "of the grating period)")
dx1, dx2 = cm_spread(setup)
print(f"CM spread at G2      {dx2 * 1e9:.0f} nm  (slit {dx1 * 1e9:.0f} nm, "
      f"magnified by 1 + L/L0 = {1 + setup.g1_g2 / setup.source_g1:.0f})")
print(f"extensive size       N_ext >= {report.n_ext:.2e}")
print(f"entangled size       N_ent >= {report.n_ent:.2f} "
      f"-> witnesses {report.witness_depth}-atom entanglement")
print()
print("The source-to-G1 distance L0 is only known to lie in [0.2 m, 1 m];")
print("shorter L0 magnifies the CM spread and weakens the witness:")
for l0 in (0.2, 0.5, 1.0):
    variant = diffraction_sizes(replace(setup, source_g1=l0))
    print(f"  L0 = {l0:3.1f} m:  N_ent >= {variant.n_ent:6.1f}")
slow = replace(setup, flight_time=2.0 * setup.flight_time)
ratio = diffraction_sizes(slow).inputs["qfi_bound"] / report.inputs["qfi_bound"]
print()
print(f"time-of-flight scaling: doubling t multiplies the bound by {ratio:.0f}")
