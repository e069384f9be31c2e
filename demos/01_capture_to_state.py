"""From a synthetic height capture to the per-sector Gaussian summary.

Simulates a freshly laid sheet, renders a point-cloud capture, extracts the
uncompacted regions and prints the two Gaussians each sector carries.
"""
import numpy as np

from layup.sheet_state import extract_regions, state_from_regions
from layup.simulator import GroundTruthParams, builtin_sheet, init_sheet, render_capture

params = GroundTruthParams()
sheet = builtin_sheet("sheet1")
sim = init_sheet(sheet, params, seed=42)

print(f"ground truth: {len(sim.peak)} uncompacted regions")
for i, ((x, y), a, b, peak) in enumerate(zip(sim.centroids, sim.a, sim.b, sim.peak), start=1):
    print(f"  region {i}: centroid=({x:7.1f}, {y:7.1f})"
          f"  a={a:5.1f}  b={b:5.1f}  peak={peak:4.2f} mm")

frame = render_capture(sim)
print(f"\ncapture {frame.t}: {len(frame.points)} grid samples, "
      f"max height {frame.points[:, 2].max():.2f} mm")

groups, ellipses = extract_regions(frame, params.h_min, params.link_radius)
print(f"detected {len(ellipses)} regions above the {params.h_min} mm floor")
for ell, grp in zip(ellipses, groups):
    print(f"  fitted: centroid=({ell.centroid[0]:7.1f}, {ell.centroid[1]:7.1f})"
          f"  a={ell.a:5.1f}  b={ell.b:5.1f}  theta={np.degrees(ell.theta):6.1f} deg"
          f"  mean h={ell.mean_height:4.2f}  ({len(grp)} points)")

state = state_from_regions(groups, ellipses, sheet.geometry, frame.t)
print("\nper-sector summary (sectors are 45-degree wedges, 1 starts at +x):")
for sector, (mu, count) in enumerate(zip(state.mu, state.count), start=1):
    if count == 0:
        print(f"  sector {sector}: compacted")
        continue
    print(f"  sector {sector}: {count} region(s)  "
          f"centroid mean=({mu[0]:7.1f}, {mu[1]:7.1f})  "
          f"mean h={mu[2]:4.2f} mm  "
          f"ellipse mean a={mu[3]:5.1f} b={mu[4]:5.1f} "
          f"theta={np.degrees(mu[5]):6.1f} deg")
