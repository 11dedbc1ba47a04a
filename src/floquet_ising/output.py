"""CSV/JSON encoding of the tables and records a command returns.

A table is named columns (numpy arrays or lists) of equal length. Floats
are written with 17 significant digits so files round-trip the underlying
doubles exactly; repeated runs of a deterministic pipeline produce
byte-identical outputs. JSON has no NaN or Infinity, so a non-finite float
is written as null there (CSV keeps nan).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np


def _json_value(value):
    """A value as JSON takes it: non-finite floats as None (null), containers item by item."""
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_json(path: Path, payload) -> Path:
    """One JSON document (a record, or a table's list of row objects), non-finite floats as null."""
    path.write_text(json.dumps(_json_value(payload), indent=1, allow_nan=False) + "\n")
    return path


def write_table(path: Path, columns: dict, fmt: str) -> Path:
    """One row per index of the columns; JSON gives a list of row objects at path.json."""
    arrays = {name: np.asarray(column) for name, column in columns.items()}
    if fmt == "json":
        rows = zip(*(a.tolist() for a in arrays.values()))
        return write_json(path.with_suffix(".json"), [dict(zip(arrays, row)) for row in rows])
    text = [[format(v, ".17g") for v in a.tolist()] if a.dtype.kind == "f" else a.tolist() for a in arrays.values()]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(arrays)
        writer.writerows(zip(*text))
    return path
