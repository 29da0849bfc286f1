"""Phase-space tomography pipeline: synthesize a Wigner grid for a cat
state, write it to the text format, load it back, reconstruct the density
matrix by kernel overlaps, and maximize the QFI over quadratures.

The dimensionless convention puts the vacuum variance at 1/2, so a ground
state reads out F = 2.0 and an ideal even cat of amplitude a reads out
2 (4 a^2 + 1).
"""

import math
import tempfile
from pathlib import Path

from macrosize import quantum, wigner
from macrosize.oscillator import OscillatorMode, measured_qfi_sizes

alpha = 2.0
state = quantum.cat_state(alpha, 40)
grid = wigner.synth_grid(state, (-10, 10, 121), (-10, 10, 121))
print(f"synthesized cat grid: normalization {grid.normalization():.6f}")
print(f"origin value {grid.values[60, 60]:.6f} (parity sum / pi)")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "cat.wig"
    wigner.save_grid(grid, path)
    loaded = wigner.load_grid(path)
    print(f"round-tripped through {path.name}: payload identical = "
          f"{(loaded.values == grid.values).all()}")

report = wigner.reconstruct(grid, 40)
print(f"reconstruction: dim {report.dim}, residual {report.residual:.2e}, "
      f"clipped mass {report.clipped_mass:.2e}")
print(f"fidelity with the exact cat: {wigner.fidelity(report.rho, state):.6f}")

theta, result, _ = wigner.qfi_from_grid(grid, 40)
fhat = result.value
print(f"QFI maximized over quadratures: F = {fhat:.3f} at theta* = {theta:.4f} rad")
print(f"ideal-cat value 2(4a^2+1) = {2 * (4 * alpha**2 + 1):.1f} "
      "(slightly reduced by the branch overlap)")

# Attach mode parameters to convert the dimensionless QFI into sizes.
mode = OscillatorMode(mode_mass=4.0e-9, zero_point=6.5e-19, mode_particle_number=1.2e17)
sizes = measured_qfi_sizes(mode, fhat, delta_u=6.5e-12)
print(f"as a resonator mode: N_ext = {sizes.n_ext:.2e}, N_ent = {sizes.n_ent:.2e}, "
      f"witnessed depth {sizes.witness_depth}")

# The vacuum anchor of the convention:
vac = wigner.synth_grid(quantum.vacuum_state(12), (-7, 7, 101), (-7, 7, 101))
f_vac = wigner.qfi_from_grid(vac, 12)[1].value
print(f"vacuum grid anchor: F = {f_vac:.4f} (convention target 2.0)")
print(f"vacuum peak {vac.values[50, 50]:.6f} vs 1/pi = {1 / math.pi:.6f}")
