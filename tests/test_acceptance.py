"""Acceptance gate: every release-blocking behaviour checked at a fixed
tolerance, one printed pass line per criterion (run with -s to see them).

Criteria 1-10 and 12 run in seconds; criterion 11 sweeps the larger
chains and emits the full seven-qubit curvature maps, which dominates
the runtime of this module (about 10 s in all with two workers on a
2-vCPU VM, one BLAS thread).
"""

import time
from pathlib import Path

import numpy as np
import pytest

import floquet_ising as fi
from floquet_ising import states
from floquet_ising.dynamics import magnetization_series, pair_correlation, total_magnetization
from floquet_ising.metrology import cfi_series, curvature_fit, qfi_series
from floquet_ising.model import TARGET_HX, TARGET_J, FloquetOperator, ModelSpec
from floquet_ising.output import write_table
from floquet_ising.spectral import power_spectrum, subharmonic_band, subharmonic_weight
from floquet_ising.sweep import GridSpec, SweepSettings, sweep_diagnostic

from conftest import dense, qfi_finite_difference

PD = (2.6, 1.57)
NON_PD_FIELD = (2.6, 0.1)  # same field, weak coupling
NON_PD_COUPLING = (0.1, 1.57)  # weak field, same coupling
WORKERS = 2

ARTIFACT_DIR = Path(__file__).resolve().parent.parent / "acceptance_outputs"


def spec_at(point, n_qubits=3, **kwargs):
    return ModelSpec.dimensionless(n_qubits, point[0], point[1], **kwargs)


def report(number, text):
    print(f"[PASS] criterion {number:2d}: {text}", flush=True)


@pytest.fixture(scope="module")
def psi0():
    return states.all_zero_state(3)


@pytest.fixture(scope="module")
def qfi_anchors(psi0):
    return {
        ("hx", PD): qfi_series(spec_at(PD), TARGET_HX, psi0, 400),
        ("hx", NON_PD_FIELD): qfi_series(spec_at(NON_PD_FIELD), TARGET_HX, psi0, 400),
        ("j", PD): qfi_series(spec_at(PD), TARGET_J, psi0, 400),
        ("j", NON_PD_COUPLING): qfi_series(spec_at(NON_PD_COUPLING), TARGET_J, psi0, 400),
    }


def truncated_fit(series, n_max):
    import dataclasses

    cut = dataclasses.replace(
        series,
        times=series.times[: n_max + 1],
        values=series.values[: n_max + 1],
        flags=series.flags[: n_max + 1],
    )
    return curvature_fit(cut, 0.5)


def test_c01_exact_pd_anchor(psi0):
    spec = spec_at((np.pi, np.pi))
    series = magnetization_series(spec, psi0, 562)
    alternation = np.abs(series.values - 3.0 * (-1.0) ** np.arange(563)).max()
    assert alternation <= 1e-10

    weight = subharmonic_weight(series).weight
    assert abs(weight - 1.0) <= 1e-10

    analysis = fi.detect_pi_pairs(fi.floquet_eigensystem(spec))
    assert len(analysis.pairs) == 4  # every state paired
    gap_error = np.abs(analysis.gaps - np.pi).max()
    assert gap_error <= 1e-10
    report(1, f"(pi, pi) anchor exact: |M_z - 3(-1)^n| <= {alternation:.1e}, "
              f"weight - 1 = {weight - 1:.1e}, max |gap - pi/T| = {gap_error:.1e}")


def test_c02_pd_vs_non_pd_spectra(psi0):
    start = time.perf_counter()
    samples, discard = 512, 50
    lo, hi = subharmonic_band(samples)

    def dominant_bin(point):
        series = magnetization_series(spec_at(point), psi0, discard + samples)
        window = series.values[discard : discard + samples]
        powers = power_spectrum(window - window.mean()).powers
        return 1 + int(np.argmax(powers[1:]))

    pd_bin = dominant_bin(PD)
    npd_bin = dominant_bin(NON_PD_FIELD)
    pd_weight = subharmonic_weight(magnetization_series(spec_at(PD), psi0, 562)).weight
    elapsed = time.perf_counter() - start

    # the PD response carries a slow beat, so its peak sits inside the
    # subharmonic band around M/2 rather than on the single Nyquist bin
    assert lo <= pd_bin <= hi
    assert pd_weight >= 0.8
    assert not lo <= npd_bin <= hi
    assert elapsed < 1.0
    report(2, f"PD dominant bin {pd_bin} in subharmonic band [{lo},{hi}], weight {pd_weight:.3f} >= 0.8; "
              f"non-PD dominant bin {npd_bin} outside; runtime {elapsed:.2f}s < 1s")


def test_c03_closed_form_qfi_and_cfi_saturation(psi0):
    spec = ModelSpec.dimensionless(3, 2.6, 0.0)
    qfi = qfi_series(spec, TARGET_HX, psi0, 100)
    n = np.arange(101)
    rel = np.abs(qfi.values[1:] - 3.0 * n[1:] ** 2) / (3.0 * n[1:] ** 2)
    assert rel.max() <= 1e-9

    cfi = cfi_series(spec, TARGET_HX, total_magnetization(3), psi0, 100)
    phase = np.sin(2 * n * spec.h_x * spec.protocol.t1)
    generic = (np.abs(phase) > 1e-3) & (n > 0) & cfi.defined()
    cfi_rel = np.abs(cfi.values[generic] - 3.0 * n[generic] ** 2) / (3.0 * n[generic] ** 2)
    assert cfi_rel.max() <= 1e-8
    report(3, f"J=0 law F_Q = 3n^2: max rel err {rel.max():.1e} <= 1e-9; "
              f"CFI(M_z) saturation at {int(generic.sum())} generic times: max rel err {cfi_rel.max():.1e} <= 1e-8")


def test_c04_null_sensitivity(psi0):
    spec = ModelSpec(n_qubits=3, h_x=0.0, couplings=1.57, boundary="ring")
    series = qfi_series(spec, TARGET_J, psi0, 100)
    assert np.abs(series.values).max() <= 1e-9
    report(4, f"h_x=0 gives F_Q(J) = 0: max |F_Q| = {np.abs(series.values).max():.1e} <= 1e-9")


def test_c05_qfi_orderings(qfi_anchors):
    window = slice(20, 201)
    hx_gap = qfi_anchors[("hx", NON_PD_FIELD)].values[window] - qfi_anchors[("hx", PD)].values[window]
    j_gap = qfi_anchors[("j", PD)].values[window] - qfi_anchors[("j", NON_PD_COUPLING)].values[window]
    assert np.all(hx_gap > 0)
    assert np.all(j_gap > 0)
    report(5, f"F_Q orderings hold for every n in [20, 200]: "
              f"min field-target margin {hx_gap.min():.1f}, min coupling-target margin {j_gap.min():.1f}")


def test_c06_curvature_values(qfi_anchors):
    fits = {}
    for n_max in (100, 200, 400):
        a_pd = truncated_fit(qfi_anchors[("hx", PD)], n_max).a
        a_npd = truncated_fit(qfi_anchors[("hx", NON_PD_FIELD)], n_max).a
        fits[n_max] = (a_pd, a_npd)
        print(f"    horizon n_max={n_max}: a_PD={a_pd:.4f}, a_nonPD={a_npd:.4f}, "
              f"ratio={a_npd / a_pd:.2f}", flush=True)
    a_pd, a_npd = fits[200]
    assert a_npd / a_pd >= 5.0  # hard ordering
    assert abs(a_pd - 0.426) / 0.426 <= 0.25  # soft absolute checks
    assert abs(a_npd - 5.84) / 5.84 <= 0.25
    report(6, f"curvatures at n_max=200: a_PD={a_pd:.4f} (ref 0.426), a_nonPD={a_npd:.4f} (ref 5.84), "
              f"ratio {a_npd / a_pd:.1f} >= 5")


def test_c07_cfi_orderings(psi0):
    def averaged(point, target, observable):
        series = cfi_series(spec_at(point), target, observable, psi0, 200)
        mask = series.defined() & (series.times >= 20) & (series.times <= 200)
        return float(series.values[mask].mean())

    mz, czz = total_magnetization(3), pair_correlation(3)
    field_npd = averaged(NON_PD_FIELD, TARGET_HX, mz)
    field_pd = averaged(PD, TARGET_HX, mz)
    coupling_pd = averaged(PD, TARGET_J, czz)
    coupling_npd = averaged(NON_PD_COUPLING, TARGET_J, czz)
    assert field_npd > field_pd
    assert coupling_pd > coupling_npd
    report(7, f"CFI(h_x; M_z): non-PD {field_npd:.0f} > PD {field_pd:.0f}; "
              f"CFI(J; C_zz): PD {coupling_pd:.0f} > non-PD {coupling_npd:.0f}")


def test_c08_oracle_equivalence(psi0):
    rng = np.random.default_rng(1848)
    worst = 0.0
    for _ in range(10):
        h, j = rng.uniform(0.5, 3.0, size=2)
        spec = ModelSpec.dimensionless(3, h, j)
        for target in (TARGET_HX, TARGET_J):
            exact = qfi_series(spec, target, psi0, 50).values[50]
            oracle = qfi_finite_difference(spec, target, psi0, 50, delta=1e-4)
            rel = abs(exact - oracle) / oracle
            worst = max(worst, rel)
            assert rel <= 1e-3
    report(8, f"exact-derivative QFI vs fidelity-susceptibility oracle: "
              f"worst rel err {worst:.1e} <= 1e-3 over 10 random points, both targets")


def test_c09_cramer_rao_suite(psi0):
    rng = np.random.default_rng(2718)
    observables = [total_magnetization(3), pair_correlation(3)]
    checked = 0
    for _ in range(10):
        h, j = rng.uniform(0.2, 3.0, size=2)
        spec = ModelSpec.dimensionless(3, h, j)
        for target in (TARGET_HX, TARGET_J):
            qfi = qfi_series(spec, target, psi0, 100)
            for obs in observables:
                cfi = cfi_series(spec, target, obs, psi0, 100)
                mask = cfi.defined()
                bound = qfi.values[mask] + 1e-6 * (1.0 + qfi.values[mask])
                assert np.all(cfi.values[mask] <= bound)
                checked += int(mask.sum())
    report(9, f"CFI <= QFI (1e-6 relative slack) at {checked} defined points "
              f"across 10 random parameter points, both targets, both observables")


def test_c10_structural_invariants(psi0, rng=np.random.default_rng(31415)):
    # real-signal spectral symmetry and Parseval
    x = rng.normal(size=512)
    spectrum = power_spectrum(x)
    sym = max(abs(spectrum.powers[k] - spectrum.powers[512 - k]) for k in range(1, 512))
    assert sym <= 1e-10 * spectrum.powers.max()
    parseval = abs(spectrum.powers.sum() - 512 * np.sum(x**2)) / spectrum.powers.sum()
    assert parseval <= 1e-8

    # weight scale/offset invariance
    signal = np.concatenate([np.zeros(50), rng.normal(size=512)])
    base = subharmonic_weight(signal).weight
    for transform in (lambda s: 17.0 * s, lambda s: s - 42.0, lambda s: -0.3 * s + 5.0):
        assert subharmonic_weight(transform(signal)).weight == pytest.approx(base, rel=1e-9)

    # eigen-residual bound over a 21 x 21 grid
    worst_residual = 0.0
    for h in np.linspace(0, np.pi, 21):
        for j in np.linspace(0, np.pi, 21):
            spec = ModelSpec.dimensionless(3, h, j)
            analysis = fi.floquet_eigensystem(spec)
            u = dense(FloquetOperator(spec))
            phases = np.exp(-1j * analysis.epsilons * analysis.period)
            res = u @ analysis.eigenvectors - analysis.eigenvectors * phases[np.newaxis, :]
            worst_residual = max(worst_residual, float(np.linalg.norm(res, axis=0).max()))
    assert worst_residual <= 1e-8

    # norm-derivative orthogonality along the evolution
    worst_overlap = 0.0
    for target in (TARGET_HX, TARGET_J):
        for ((chi, dchi),) in FloquetOperator(spec_at(PD)).frame_trajectory(psi0, 100, target):
            worst_overlap = max(worst_overlap, abs(np.vdot(chi, dchi).real))
    assert worst_overlap <= 1e-9
    report(10, f"spectral symmetry {sym:.1e}, Parseval {parseval:.1e}, weight invariances, "
               f"eigen-residual {worst_residual:.1e} on 21x21 grid, Re<psi|dpsi> {worst_overlap:.1e}")


def _pd_and_matched_cells(grid, weights):
    """PD cell and the matched non-PD anchor cells from a weight map.

    The PD cell maximizes the weight away from the trivially alternating
    near-flip band (field pulse within 0.3 of an exact flip), which carries
    weight 1 for every coupling but no interacting period doubling. The
    coupling comparison uses the same-JT cell at the smallest nonzero field
    with weight < 0.2; the field comparison uses the same-h_xT cell at the
    smallest nonzero coupling with weight < 0.2.
    """
    h, j = grid.h_values(), grid.j_values()
    candidates = np.where(h[:, None] <= np.pi - 0.3, weights, -1.0)
    pd_i, pd_j = np.unravel_index(np.argmax(candidates), weights.shape)
    same_jt = next(i for i in range(1, len(h)) if weights[i, pd_j] < 0.2)
    same_h = next(k for k in range(1, len(j)) if weights[pd_i, k] < 0.2)
    return (pd_i, pd_j), (same_jt, pd_j), (pd_i, same_h)


def test_c11_larger_chains_persistence():
    ARTIFACT_DIR.mkdir(exist_ok=True)
    settings = SweepSettings(workers=WORKERS)

    for n_qubits in (4, 5):
        grid = GridSpec(n_qubits=n_qubits)
        diagram = sweep_diagnostic(grid, "weight", settings)
        write_table(ARTIFACT_DIR / f"weight_n{n_qubits}.csv", diagram.columns(), "csv")
        weights = diagram.values
        assert (weights >= 0.8).sum() > 0  # non-empty PD region

        (pd_i, pd_j), (mj_i, mj_j), (mh_i, mh_j) = _pd_and_matched_cells(grid, weights)
        h, j = grid.h_values(), grid.j_values()
        psi0 = states.all_zero_state(n_qubits)

        def kappa(i, k, target):
            spec = ModelSpec.dimensionless(n_qubits, h[i], j[k], boundary="chain")
            return curvature_fit(qfi_series(spec, target, psi0, 200)).a

        kj_pd = kappa(pd_i, pd_j, TARGET_J)
        kj_matched = kappa(mj_i, mj_j, TARGET_J)
        khx_pd = kappa(pd_i, pd_j, TARGET_HX)
        khx_matched = kappa(mh_i, mh_j, TARGET_HX)
        print(f"    N={n_qubits}: PD cell ({h[pd_i]:.3f},{j[pd_j]:.3f}) w={weights[pd_i, pd_j]:.3f}; "
              f"kappa_J {kj_pd:.3f} vs {kj_matched:.3f} at ({h[mj_i]:.3f},{j[mj_j]:.3f}); "
              f"kappa_hx {khx_pd:.3f} vs {khx_matched:.3f} at ({h[mh_i]:.3f},{j[mh_j]:.3f})", flush=True)
        assert kj_pd > kj_matched
        assert khx_pd < khx_matched

    # full seven-qubit curvature maps, both targets, timed
    start = time.perf_counter()
    grid7 = GridSpec(n_qubits=7)
    for name in ("kappa_hx", "kappa_j"):
        diagram = sweep_diagnostic(grid7, name, SweepSettings(workers=WORKERS))
        assert np.isfinite(diagram.values).all()
        write_table(ARTIFACT_DIR / f"{name}_n7.csv", diagram.columns(), "csv")
    elapsed = time.perf_counter() - start
    assert elapsed < 1800
    report(11, f"N=4/5 PD regions non-empty with anchor-pair kappa contrasts; "
               f"N=7 curvature maps ({grid7.h_range[2]}x{grid7.j_range[2]} cells, both targets) "
               f"in {elapsed / 60:.1f} min < 30 min, written to {ARTIFACT_DIR.name}/")


def test_c12_sweep_determinism():
    grid = GridSpec(h_range=(0.0, np.pi, 9), j_range=(0.0, np.pi, 9))
    serial = sweep_diagnostic(grid, "weight", SweepSettings(workers=1))
    repeat = sweep_diagnostic(grid, "weight", SweepSettings(workers=1))
    pooled = sweep_diagnostic(grid, "weight", SweepSettings(workers=4))
    assert np.array_equal(serial.values, repeat.values)
    difference = np.abs(serial.values - pooled.values).max()
    assert difference <= 1e-12
    report(12, f"9x9 weight sweep bit-identical across repeats; workers 1 vs 4 "
               f"max cell difference {difference:.1e} <= 1e-12")
