"""Record every map diagnostic on small grids as tests/golden_maps.json.

Run from the repository root, only when the maps are meant to change, and
say in CHANGES.md why, how many cells moved and the largest move per map:

    PYTHONPATH=src python tests/record_golden_maps.py

Each grid is 13x13 over [0, pi]^2, so its rows form six mirror pairs and
a self-mirrored middle row. Every eigen cell also carries
conftest.tie_fragile's flag for its own spectrum, so test_golden_maps.py
recomputes the maps without a per-cell solve.
"""

import json
import re
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))  # conftest, when run as a script

from conftest import tie_fragile  # noqa: E402
from floquet_ising import quasienergy  # noqa: E402
from floquet_ising.model import CHAIN, FIELD_THEN_ISING, ISING_THEN_FIELD, RING  # noqa: E402
from floquet_ising.sweep import DIAGNOSTICS, GridSpec, classify_pd, sweep_diagnostic  # noqa: E402

GOLDEN_PATH = Path(__file__).with_name("golden_maps.json")
GRIDS = {
    f"n{n}_{boundary}_{order}": GridSpec(h_range=(0.0, np.pi, 13), j_range=(0.0, np.pi, 13), n_qubits=n,
                                         boundary=boundary, step_order=order)
    for n, boundary in ((3, RING), (4, CHAIN), (5, CHAIN))
    for order in (FIELD_THEN_ISING, ISING_THEN_FIELD)
}


def golden_maps(grid: GridSpec) -> dict[str, np.ndarray]:
    """Every diagnostic's map on grid at the default settings, and the weight map's pd_flag."""
    maps = {}
    for diagnostic in DIAGNOSTICS:
        diagram = sweep_diagnostic(grid, diagnostic)
        maps[diagnostic] = diagram.values
        if diagnostic == "weight":
            maps["pd_flag"] = classify_pd(diagram).astype(int)
    return maps


def main() -> int:
    record = {}
    for key, grid in GRIDS.items():
        maps = {name: values.tolist() for name, values in golden_maps(grid).items()}
        maps["tie_fragile"] = [
            [tie_fragile(quasienergy.floquet_eigensystem(grid.model_at(h, j)).epsilons, grid.period) for j in
             grid.j_values()] for h in grid.h_values()
        ]
        record[key] = maps
        print(f"{key}: {np.sum(maps['tie_fragile'])} tie-fragile eigen cells", file=sys.stderr)
    # one map row per line, so a re-recording's diff shows the rows that moved
    text = re.sub(r"\[\s+([^][]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(record, indent=1))
    GOLDEN_PATH.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
