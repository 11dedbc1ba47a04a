"""Every map diagnostic against the committed record of record_golden_maps.py.

The record was made on one machine; these bounds let another machine's
BLAS and rounding pass while a changed map fails:
- weight, kappa_hx and kappa_j within RECURRENCE_TOL (1 + |recorded|);
- pi_fraction exactly and overlap within OVERLAP_TOL, except at the cells
  the record flags tie-fragile, where rounding may change the pairing;
- pd_flag exactly, except where the recorded weight lies within
  THRESHOLD_MARGIN of the threshold.
A failed cell (nan) must fail in the record too.
"""

import json

import numpy as np
import pytest

from floquet_ising.sweep import AnalysisSettings
from record_golden_maps import GOLDEN_PATH, GRIDS, golden_maps

RECURRENCE_TOL = 1e-10
OVERLAP_TOL = 1e-9
THRESHOLD_MARGIN = 1e-9


@pytest.fixture(scope="module")
def record():
    return json.loads(GOLDEN_PATH.read_text())


def test_record_covers_every_grid(record):
    assert sorted(record) == sorted(GRIDS)


@pytest.mark.parametrize("key", sorted(GRIDS))
def test_maps_match_record(record, key):
    recorded = {name: np.array(values, dtype=float) for name, values in record[key].items()}
    maps = golden_maps(GRIDS[key])
    for name, values in maps.items():
        assert np.array_equal(np.isnan(values), np.isnan(recorded[name])), name
    sturdy = ~recorded["tie_fragile"].astype(bool)
    for name in ("weight", "kappa_hx", "kappa_j"):
        move = np.abs(maps[name] - recorded[name])
        assert np.nanmax(move / (1 + np.abs(recorded[name]))) <= RECURRENCE_TOL, (name, np.nanmax(move))
    fraction, expected = maps["pi_fraction"][sturdy], recorded["pi_fraction"][sturdy]
    assert np.array_equal(fraction, expected, equal_nan=True), np.flatnonzero(fraction != expected)
    assert np.nanmax(np.abs(maps["overlap"] - recorded["overlap"])[sturdy]) <= OVERLAP_TOL
    clear = np.abs(recorded["weight"] - AnalysisSettings.pd_threshold) > THRESHOLD_MARGIN
    assert np.array_equal(maps["pd_flag"][clear], recorded["pd_flag"][clear])
