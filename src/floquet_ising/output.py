"""CSV/JSON emission for every analysis product.

Floats are written with 17 significant digits so files round-trip the
underlying doubles exactly; repeated runs of a deterministic pipeline
produce byte-identical outputs. JSON has no NaN or Infinity, so a
non-finite float is written as null there (CSV keeps nan).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .dynamics import TimeSeries
from .metrology import CurvatureFit, FisherSeries
from .quasienergy import QuasienergyAnalysis
from .spectral import PowerSpectrum
from .sweep import PhaseDiagram


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _json_value(value):
    """A value as JSON takes it: floats as Python floats, non-finite ones as None (null)."""
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    return value


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n")


def _write_table(path: Path, header: list[str], rows: list[list], fmt: str) -> Path:
    if fmt == "json":
        path = path.with_suffix(".json")
        _write_json(path, [{key: _json_value(v) for key, v in zip(header, row)} for row in rows])
        return path
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


def write_time_series(directory: Path, series: TimeSeries, fmt: str = "csv") -> Path:
    rows = [[int(n), float(v)] for n, v in zip(series.times, series.values)]
    return _write_table(directory / f"{series.label}.csv", ["n", "value"], rows, fmt)


def write_spectrum(directory: Path, spectrum: PowerSpectrum, fmt: str = "csv") -> Path:
    rows = [
        [k, float(f), float(p)]
        for k, (f, p) in enumerate(zip(spectrum.frequencies, spectrum.powers))
    ]
    return _write_table(directory / "spectrum.csv", ["k", "f_k", "P_k"], rows, fmt)


def write_quasienergies(
    directory: Path, analysis: QuasienergyAnalysis, fmt: str = "csv"
) -> list[Path]:
    eps_rows = [[alpha, float(e)] for alpha, e in enumerate(analysis.epsilons)]
    pair_rows = [
        [i, j, float(g)] for (i, j), g in zip(analysis.pairs, analysis.gaps)
    ]
    return [
        _write_table(directory / "quasienergies.csv", ["alpha", "epsilon"], eps_rows, fmt),
        _write_table(directory / "pairs.csv", ["pair_i", "pair_j", "gap"], pair_rows, fmt),
    ]


def write_quasi_summary(
    directory: Path, pair_fraction: float, overlap: float, fmt: str = "csv"
) -> Path:
    rows = [[float(pair_fraction), float(overlap)]]
    return _write_table(directory / "summary.csv", ["f_pi", "W_overlap"], rows, fmt)


def write_fisher_series(directory: Path, series: FisherSeries, fmt: str = "csv") -> Path:
    name = series.kind + "_" + series.target
    if series.observable:
        name += "_" + series.observable
    rows = [
        [int(n), float(n * series.period), float(v), flag]
        for n, v, flag in zip(series.times, series.values, series.flags)
    ]
    return _write_table(directory / f"{name}.csv", ["n", "t", "value", "flag"], rows, fmt)


def write_curvature(directory: Path, fit: CurvatureFit) -> Path:
    path = directory / "curvature.json"
    record = {
        "a": _json_value(fit.a),
        "b": _json_value(fit.b),
        "c": _json_value(fit.c),
        "kappa": _json_value(fit.a),
        "rms": _json_value(fit.rms_residual),
        "window": list(fit.window),
    }
    _write_json(path, record)
    return path


def write_diagram(directory: Path, diagram: PhaseDiagram, fmt: str = "csv") -> Path:
    header = ["hxT", "JT", "value"]
    if diagram.classification is not None:
        header.append("pd_flag")
    rows = []
    h_values = diagram.grid.h_values()
    j_values = diagram.grid.j_values()
    for i, h in enumerate(h_values):
        for j, jt in enumerate(j_values):
            row = [float(h), float(jt), float(diagram.values[i, j])]
            if diagram.classification is not None:
                row.append(int(diagram.classification[i, j]))
            rows.append(row)
    return _write_table(directory / f"sweep_{diagram.field_name}.csv", header, rows, fmt)


def write_run_sidecar(
    directory: Path,
    command: str,
    config_dict: dict,
    summary: dict,
    outputs: list[Path],
    version: str,
) -> Path:
    path = directory / "run.json"
    payload = {
        "tool": "floquet-ising",
        "version": version,
        "command": command,
        "config": config_dict,
        "summary": {key: _json_value(value) for key, value in summary.items()},
        "outputs": [p.name for p in outputs],
    }
    _write_json(path, payload)
    return path
