"""Thinned versions of the built-in sweep presets.

The full presets run 62 node counts at 500 trials each; this demo keeps
every preset recognizable at a fraction of the cost and drops the CSV
and SVG outputs next to this script.
"""

import dataclasses
from pathlib import Path

from rec_persist import PRESETS, preset_spec, rows_to_csv, rows_to_svg, run_sweep

OUT_DIR = Path(__file__).resolve().parent / "sweep_output"
OUT_DIR.mkdir(exist_ok=True)

for key in sorted(PRESETS):
    spec = preset_spec(key)
    thinned = dataclasses.replace(
        spec,
        nodes=spec.nodes[::8],
        trials=60,
    )
    rows = run_sweep(thinned)
    csv_path = OUT_DIR / f"{thinned.name}.csv"
    svg_path = OUT_DIR / f"{thinned.name}.svg"
    rows_to_csv(rows, csv_path)
    rows_to_svg(thinned, rows, svg_path)
    top = rows[-1]
    print(f"{key}: {len(rows)} points, largest grid N={top.N} "
          f"D={top.D} mean={top.mean_empirical:.2f} "
          f"(exact={top.theory_exact})")
    print(f"  wrote {csv_path.name} and {svg_path.name}")

print()
print(f"outputs under {OUT_DIR}")
