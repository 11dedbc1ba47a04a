"""Command-line interface.

One subcommand per analysis product: evolve (stroboscopic time series),
spectrum (power spectrum + subharmonic weight), quasi (quasienergies and
pi-pairing), qfi / cfi (Fisher-information series + curvature fit) and
sweep (any diagnostic over an (h_x T, J T) grid). Every run writes its
delimited outputs plus a run.json sidecar with the fully resolved
configuration; feeding that sidecar back via --config reproduces the run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, metrology, output, quasienergy, spectral, sweep
from .config import ConfigError, RunConfig
from .dynamics import observable_by_label, stroboscopic_trajectory, total_magnetization, pair_correlation
from .errors import NumericalError
from .model import CHAIN, RING, STEP_ORDERS, TARGETS, ModelSpec
from .states import all_zero_state


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    """Config override flags; each flag's dest is its key in the config sections."""
    parser.add_argument("--config", help="config file (INI sections or a run.json sidecar)")
    model = parser.add_argument_group("model")
    model.add_argument("-N", "--n-qubits", type=int)
    model.add_argument("--hxt", type=float, dest="hx_t", help="dimensionless field h_x*T")
    model.add_argument("--jt", type=float, dest="j_t", help="dimensionless coupling J*T")
    model.add_argument("--boundary", choices=["auto", RING, CHAIN])
    model.add_argument("--period", type=float, help="driving period T (default 1)")
    model.add_argument("--t1-fraction", type=float, help="T1/T (default 0.5)")
    model.add_argument("--step-order", choices=list(STEP_ORDERS))
    model.add_argument("--couplings", help="comma list of per-bond J*T values")
    analysis = parser.add_argument_group("analysis")
    analysis.add_argument("--discard", type=int, dest="transient_discard",
                          help="transient periods to drop (default 50)")
    analysis.add_argument("--samples", type=int, dest="spectrum_samples",
                          help="spectral window length (default 512)")
    analysis.add_argument("--n-max", type=int, help="metrology horizon in periods (default 200)")
    analysis.add_argument("--pair-tolerance", type=float,
                          help="pi-pair gap tolerance (default 0.05*pi/T)")
    analysis.add_argument("--fit-window", type=float, help="tail fraction for curvature fits")
    analysis.add_argument("--pd-threshold", type=float, help="PD classification threshold")
    out = parser.add_argument_group("output")
    out.add_argument("-o", "--output-dir", dest="directory")
    out.add_argument("--format", choices=["csv", "json"])


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    for section, values in config.to_dict().items():
        for key in values:
            value = getattr(args, key, None)
            if value is not None:
                config.set(section, key, value)
    return config.validate()


def _protocol(config: RunConfig) -> dict:
    """Keywords shared by ModelSpec.dimensionless and GridSpec; boundary "auto" is None, the default by N."""
    m = config.model
    return {
        "period": m.period,
        "t1_fraction": m.t1_fraction,
        "boundary": None if m.boundary == "auto" else m.boundary,
        "step_order": m.step_order,
    }


def _build_model(config: RunConfig) -> ModelSpec:
    per_bond = config.per_bond_couplings()
    j_t = per_bond if per_bond is not None else config.model.j_t
    return ModelSpec.dimensionless(config.model.n_qubits, config.model.hx_t, j_t, **_protocol(config))


def _grid(config: RunConfig) -> sweep.GridSpec:
    if config.per_bond_couplings() is not None:
        raise ConfigError("sweep grids have uniform couplings; model.couplings must be empty")
    s = config.sweep
    return sweep.GridSpec(
        h_range=(s.h_min, s.h_max, s.h_count),
        j_range=(s.j_min, s.j_max, s.j_count),
        n_qubits=config.model.n_qubits,
        **_protocol(config),
    )


def _out_dir(config: RunConfig) -> Path:
    directory = Path(config.output.directory)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _finish(directory, command, config, summary, files) -> int:
    sidecar = output.write_run_sidecar(
        directory, command, config.to_dict(), summary, files, __version__
    )
    files = files + [sidecar]
    for key, value in summary.items():
        print(f"{key} = {value}")
    print("wrote " + ", ".join(str(f) for f in files))
    return 0


def _cmd_evolve(args) -> int:
    config = _resolve_config(args)
    spec = _build_model(config)
    periods = args.periods
    if periods is None:
        periods = config.analysis.transient_discard + config.analysis.spectrum_samples
    psi0 = all_zero_state(spec.n_qubits)
    observables = [total_magnetization(spec.n_qubits)]
    if spec.n_qubits >= 2:
        observables.append(pair_correlation(spec.n_qubits))
    series = stroboscopic_trajectory(spec, psi0, periods, observables)
    directory = _out_dir(config)
    files = [output.write_time_series(directory, s, config.output.format) for s in series]
    summary = {"periods": periods}
    for s in series:
        summary[f"{s.label}_final"] = float(s.values[-1])
    return _finish(directory, "evolve", config, summary, files)


def _cmd_spectrum(args) -> int:
    config = _resolve_config(args)
    spec = _build_model(config)
    discard = config.analysis.transient_discard
    samples = config.analysis.spectrum_samples
    psi0 = all_zero_state(spec.n_qubits)
    series = stroboscopic_trajectory(
        spec, psi0, discard + samples, [total_magnetization(spec.n_qubits)]
    )[0]
    diagnostic = spectral.subharmonic_weight(series, discard, samples)
    directory = _out_dir(config)
    files = [output.write_spectrum(directory, diagnostic.spectrum, config.output.format)]
    dominant = int(1 + np.argmax(diagnostic.spectrum.powers[1:]))
    summary = {
        "weight": diagnostic.weight,
        "dominant_bin": dominant,
        "subharmonic_bin": samples // 2,
    }
    return _finish(directory, "spectrum", config, summary, files)


def _cmd_quasi(args) -> int:
    config = _resolve_config(args)
    spec = _build_model(config)
    psi0 = all_zero_state(spec.n_qubits)
    analysis, overlap = quasienergy.analyze(spec, psi0, config.pair_tolerance())
    directory = _out_dir(config)
    files = output.write_quasienergies(directory, analysis, config.output.format)
    files.append(
        output.write_quasi_summary(directory, analysis.pair_fraction, overlap, config.output.format)
    )
    summary = {
        "f_pi": analysis.pair_fraction,
        "w_overlap": overlap,
        "n_pairs": len(analysis.pairs),
        "health": {"modulus_error": analysis.modulus_error, "residual": analysis.residual},
    }
    return _finish(directory, "quasi", config, summary, files)


def _fisher_summary(fit: metrology.CurvatureFit) -> dict:
    return {"a": fit.a, "b": fit.b, "c": fit.c, "kappa": fit.a,
            "rms": fit.rms_residual, "window": list(fit.window)}


def _cmd_qfi(args) -> int:
    config = _resolve_config(args)
    spec = _build_model(config)
    psi0 = all_zero_state(spec.n_qubits)
    series = metrology.qfi_series(spec, args.theta, psi0, config.analysis.n_max)
    fit = metrology.curvature_fit(series, config.analysis.fit_window)
    directory = _out_dir(config)
    files = [
        output.write_fisher_series(directory, series, config.output.format),
        output.write_curvature(directory, fit),
    ]
    return _finish(directory, "qfi", config, _fisher_summary(fit), files)


def _cmd_cfi(args) -> int:
    config = _resolve_config(args)
    spec = _build_model(config)
    psi0 = all_zero_state(spec.n_qubits)
    observable = observable_by_label(args.observable, spec.n_qubits)
    series = metrology.cfi_series(spec, args.theta, observable, psi0, config.analysis.n_max)
    directory = _out_dir(config)
    files = [output.write_fisher_series(directory, series, config.output.format)]
    try:
        fit = metrology.curvature_fit(series, config.analysis.fit_window)
    except ValueError:
        # too few defined points (e.g. a variance-degenerate observable)
        summary = {"fit": "skipped: too few defined points"}
    else:
        files.append(output.write_curvature(directory, fit))
        summary = _fisher_summary(fit)
    summary["undefined_points"] = int(np.sum(series.flags == metrology.FLAG_UNDEFINED))
    summary["divergent_points"] = int(np.sum(series.flags == metrology.FLAG_DIVERGENT))
    return _finish(directory, "cfi", config, summary, files)


_DIAG_BY_FLAG = {
    "weight": sweep.WEIGHT,
    "fpi": sweep.PI_FRACTION,
    "overlap": sweep.OVERLAP,
    "kappa-hx": sweep.KAPPA_HX,
    "kappa-j": sweep.KAPPA_J,
}


def _cmd_sweep(args) -> int:
    config = _resolve_config(args)
    diagnostic = _DIAG_BY_FLAG[args.diag]
    grid = _grid(config)
    settings = sweep.SweepSettings(
        transient_discard=config.analysis.transient_discard,
        spectrum_samples=config.analysis.spectrum_samples,
        n_max=config.analysis.n_max,
        pair_tolerance=config.pair_tolerance(),
        fit_window=config.analysis.fit_window,
        workers=config.sweep.workers,
    )
    diagram = sweep.sweep_diagnostic(grid, diagnostic, settings)
    if diagnostic == sweep.WEIGHT:
        sweep.classify_pd(diagram, config.analysis.pd_threshold)
    directory = _out_dir(config)
    files = [output.write_diagram(directory, diagram, config.output.format)]
    finite = diagram.values[np.isfinite(diagram.values)]
    summary = {
        "diagnostic": diagnostic,
        "cells": int(diagram.values.size),
        "failed_cells": int(diagram.values.size - finite.size),
        "min": float(finite.min()) if finite.size else None,
        "max": float(finite.max()) if finite.size else None,
    }
    if diagram.classification is not None:
        summary["pd_cells"] = int(diagram.classification.sum())
        summary["pd_threshold"] = config.analysis.pd_threshold
    return _finish(directory, "sweep", config, summary, files)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floquet-ising",
        description="Exact simulation and Fisher-information metrology of the "
        "periodically driven few-qubit transverse-field Ising model.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    evolve = commands.add_parser("evolve", help="stroboscopic M_z and C_zz time series")
    evolve.add_argument("--periods", type=int, help="number of driving periods (default discard+samples)")
    evolve.set_defaults(handler=_cmd_evolve)

    spectrum = commands.add_parser("spectrum", help="power spectrum and subharmonic weight")
    spectrum.set_defaults(handler=_cmd_spectrum)

    quasi = commands.add_parser("quasi", help="quasienergies, pi-pairs, overlap weight")
    quasi.set_defaults(handler=_cmd_quasi)

    qfi = commands.add_parser("qfi", help="quantum Fisher information series + curvature fit")
    qfi.add_argument("--theta", choices=list(TARGETS), required=True, help="estimation target")
    qfi.set_defaults(handler=_cmd_qfi)

    cfi = commands.add_parser("cfi", help="classical Fisher information series + curvature fit")
    cfi.add_argument("--theta", choices=list(TARGETS), required=True, help="estimation target")
    cfi.add_argument("--observable", choices=["mz", "czz"], default="mz")
    cfi.set_defaults(handler=_cmd_cfi)

    sweep_cmd = commands.add_parser("sweep", help="evaluate a diagnostic over an (h_x T, J T) grid")
    sweep_cmd.add_argument("--diag", choices=list(_DIAG_BY_FLAG), default="weight")
    grid = sweep_cmd.add_argument_group("grid")
    grid.add_argument("--h-min", type=float)
    grid.add_argument("--h-max", type=float)
    grid.add_argument("--h-count", type=int)
    grid.add_argument("--j-min", type=float)
    grid.add_argument("--j-max", type=float)
    grid.add_argument("--j-count", type=int)
    grid.add_argument("--workers", type=int, help="parallel worker processes (default 1)")
    sweep_cmd.set_defaults(handler=_cmd_sweep)

    for sub in (evolve, spectrum, quasi, qfi, cfi, sweep_cmd):
        _add_common_flags(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, NumericalError) as exc:
        label = "numerical error" if isinstance(exc, NumericalError) else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
