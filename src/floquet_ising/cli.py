"""Command-line interface.

One subcommand per analysis product: evolve (stroboscopic time series),
spectrum (power spectrum + subharmonic weight), quasi (quasienergies and
pi-pairing), qfi / cfi (Fisher-information series + curvature fit) and
sweep (any diagnostic over an (h_x T, J T) grid). A subcommand's handler
only computes: it returns its summary scalars, its tables (file name ->
named columns) and its JSON records. `main` resolves the configuration,
runs the handler and only then creates the output directory and writes
the tables, the records and a run.json sidecar with the fully resolved
configuration and subcommand arguments, so a failed command writes
nothing. Feeding that sidecar back via --config reproduces the run; its
environment (numpy, BLAS, CPUs, workers) and timings (compute, write and,
for sweeps, cells/s) blocks are records only, which a replay ignores.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__, metrology, output, quasienergy, spectral, sweep
from .config import ConfigError, RunConfig, recorded_arguments
from .dynamics import CZZ, MZ, observable_by_label, stroboscopic_trajectory, total_magnetization, pair_correlation
from .errors import NumericalError
from .model import CHAIN, RING, STEP_ORDERS, TARGETS, ModelSpec
from .states import all_zero_state

_DIAG_BY_FLAG = {flag: name for name, (flag, *_) in sweep.DIAGNOSTICS.items()}
_OBSERVABLES = (MZ, CZZ)

# Subcommand flags that run.json records under "arguments". A replay fills
# each one left unset from there, then from its default (theta is required).
_ARGUMENT_DEFAULTS = {"periods": None, "theta": None, "observable": MZ, "diag": "weight"}
_ARGUMENT_CHOICES = {"observable": _OBSERVABLES, "diag": tuple(_DIAG_BY_FLAG)}


def _common_flags() -> argparse.ArgumentParser:
    """Config override flags of every subcommand; each flag's dest is its key in the config sections."""
    parser = argparse.ArgumentParser(add_help=False)
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
    defaults = sweep.AnalysisSettings
    analysis = parser.add_argument_group("analysis")
    analysis.add_argument("--discard", type=int, dest="transient_discard",
                          help=f"transient periods to drop (default {defaults.transient_discard})")
    analysis.add_argument("--samples", type=int, dest="spectrum_samples",
                          help=f"spectral window length (default {defaults.spectrum_samples})")
    analysis.add_argument("--n-max", type=int, help=f"metrology horizon in periods (default {defaults.n_max})")
    analysis.add_argument("--pair-tolerance", type=float,
                          help="pi-pair gap tolerance (default 0.05*pi/T)")
    analysis.add_argument("--fit-window", type=float, help="tail fraction for curvature fits")
    analysis.add_argument("--pd-threshold", type=float, help="PD classification threshold")
    out = parser.add_argument_group("output")
    out.add_argument("-o", "--output-dir", dest="directory")
    out.add_argument("--format", choices=["csv", "json"])
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Flags over the config file over defaults; unset subcommand arguments are filled on args."""
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    for section, values in config.to_dict().items():
        for key in values:
            value = getattr(args, key, None)
            if value is not None:
                config.set(section, key, value)
    recorded = recorded_arguments(args.config) if args.config else {}
    for key, default in _ARGUMENT_DEFAULTS.items():
        if key in vars(args) and getattr(args, key) is None:
            value = recorded.get(key, default)
            valid = value in _ARGUMENT_CHOICES[key] if key in _ARGUMENT_CHOICES else value is None or type(value) is int
            if not valid:
                raise ConfigError(f"{args.config}: arguments.{key} cannot be {value!r}")
            setattr(args, key, value)
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


def _cmd_evolve(config, args):
    spec = _build_model(config)
    periods = args.periods
    if periods is None:
        periods = config.analysis.transient_discard + config.analysis.spectrum_samples
    observables = [total_magnetization(spec.n_qubits)]
    if spec.n_qubits >= 2:
        observables.append(pair_correlation(spec.n_qubits))
    series = stroboscopic_trajectory(spec, all_zero_state(spec.n_qubits), periods, observables)
    summary = {"periods": periods, **{f"{s.label}_final": float(s.values[-1]) for s in series}}
    return summary, {f"{s.label}.csv": {"n": s.times, "value": s.values} for s in series}, {}


def _cmd_spectrum(config, args):
    spec = _build_model(config)
    discard = config.analysis.transient_discard
    samples = config.analysis.spectrum_samples
    series = stroboscopic_trajectory(
        spec, all_zero_state(spec.n_qubits), discard + samples, [total_magnetization(spec.n_qubits)]
    )[0]
    diagnostic = spectral.subharmonic_weight(series, discard, samples)
    spectrum = diagnostic.spectrum
    summary = {
        "weight": diagnostic.weight,
        "dominant_bin": int(1 + np.argmax(spectrum.powers[1:])),
        "subharmonic_bin": samples // 2,
    }
    table = {"k": np.arange(spectrum.sample_count), "f_k": spectrum.frequencies, "P_k": spectrum.powers}
    return summary, {"spectrum.csv": table}, {}


def _cmd_quasi(config, args):
    spec = _build_model(config)
    analysis, overlap = quasienergy.analyze(spec, all_zero_state(spec.n_qubits), config.analysis.pair_tolerance or None)
    pairs = np.array(analysis.pairs, dtype=int).reshape(-1, 2)
    tables = {
        "quasienergies.csv": {"alpha": np.arange(len(analysis.epsilons)), "epsilon": analysis.epsilons},
        "pairs.csv": {"pair_i": pairs[:, 0], "pair_j": pairs[:, 1], "gap": analysis.gaps},
        "summary.csv": {"f_pi": [analysis.pair_fraction], "W_overlap": [overlap]},
    }
    summary = {
        "f_pi": analysis.pair_fraction,
        "w_overlap": overlap,
        "n_pairs": len(analysis.pairs),
        "health": {"modulus_error": analysis.modulus_error, "residual": analysis.residual},
    }
    return summary, tables, {}


def _fisher_table(series: metrology.FisherSeries) -> dict:
    name = "_".join(filter(None, (series.kind, series.target, series.observable)))
    columns = {"n": series.times, "t": series.times * series.period, "value": series.values, "flag": series.flags}
    return {f"{name}.csv": columns}


def _fisher_summary(fit: metrology.CurvatureFit) -> dict:
    """The fit record: the run summary and curvature.json."""
    return {"a": fit.a, "b": fit.b, "c": fit.c, "kappa": fit.a,
            "rms": fit.rms_residual, "window": list(fit.window)}


def _cmd_qfi(config, args):
    spec = _build_model(config)
    series = metrology.qfi_series(spec, args.theta, all_zero_state(spec.n_qubits), config.analysis.n_max)
    record = _fisher_summary(metrology.curvature_fit(series, config.analysis.fit_window))
    return record, _fisher_table(series), {"curvature.json": record}


def _cmd_cfi(config, args):
    spec = _build_model(config)
    observable = observable_by_label(args.observable, spec.n_qubits)
    series = metrology.cfi_series(
        spec, args.theta, observable, all_zero_state(spec.n_qubits), config.analysis.n_max
    )
    try:
        record = _fisher_summary(metrology.curvature_fit(series, config.analysis.fit_window))
    except ValueError:
        # too few defined points (e.g. a variance-degenerate observable)
        summary, records = {"fit": "skipped: too few defined points"}, {}
    else:
        summary, records = dict(record), {"curvature.json": record}
    summary["undefined_points"] = int(np.sum(series.flags == metrology.FLAG_UNDEFINED))
    summary["divergent_points"] = int(np.sum(series.flags == metrology.FLAG_DIVERGENT))
    return summary, _fisher_table(series), records


def _cmd_sweep(config, args):
    diagnostic = _DIAG_BY_FLAG[args.diag]
    grid = _grid(config)
    diagram = sweep.sweep_diagnostic(grid, diagnostic, sweep.SweepSettings(config.analysis, config.sweep.workers))
    finite = diagram.values[np.isfinite(diagram.values)]
    summary = {
        "diagnostic": diagnostic,
        "cells": int(diagram.values.size),
        "failed_cells": int(diagram.values.size - finite.size),
        "min": float(finite.min()) if finite.size else None,
        "max": float(finite.max()) if finite.size else None,
    }
    if diagnostic == "weight":
        summary["pd_cells"] = int(sweep.classify_pd(diagram, config.analysis.pd_threshold).sum())
        summary["pd_threshold"] = config.analysis.pd_threshold
    return summary, {f"sweep_{diagram.field_name}.csv": diagram.columns()}, {}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floquet-ising",
        description="Exact simulation and Fisher-information metrology of the "
        "periodically driven few-qubit transverse-field Ising model.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    common = [_common_flags()]

    evolve = commands.add_parser("evolve", parents=common, help="stroboscopic M_z and C_zz time series")
    evolve.add_argument("--periods", type=int, help="number of driving periods (default discard+samples)")
    evolve.set_defaults(handler=_cmd_evolve)

    spectrum = commands.add_parser("spectrum", parents=common, help="power spectrum and subharmonic weight")
    spectrum.set_defaults(handler=_cmd_spectrum)

    quasi = commands.add_parser("quasi", parents=common, help="quasienergies, pi-pairs, overlap weight")
    quasi.set_defaults(handler=_cmd_quasi)

    qfi = commands.add_parser("qfi", parents=common, help="quantum Fisher information series + curvature fit")
    qfi.add_argument("--theta", choices=list(TARGETS), required=True, help="estimation target")
    qfi.set_defaults(handler=_cmd_qfi)

    cfi = commands.add_parser("cfi", parents=common, help="classical Fisher information series + curvature fit")
    cfi.add_argument("--theta", choices=list(TARGETS), required=True, help="estimation target")
    cfi.add_argument("--observable", choices=_OBSERVABLES, help="measured observable (default mz)")
    cfi.set_defaults(handler=_cmd_cfi)

    sweep_cmd = commands.add_parser("sweep", parents=common, help="evaluate a diagnostic over an (h_x T, J T) grid")
    sweep_cmd.add_argument("--diag", choices=list(_DIAG_BY_FLAG), help="diagnostic (default weight)")
    grid = sweep_cmd.add_argument_group("grid")
    grid.add_argument("--h-min", type=float)
    grid.add_argument("--h-max", type=float)
    grid.add_argument("--h-count", type=int)
    grid.add_argument("--j-min", type=float)
    grid.add_argument("--j-max", type=float)
    grid.add_argument("--j-count", type=int)
    grid.add_argument("--workers", type=int, help="parallel worker processes (default 1)")
    sweep_cmd.set_defaults(handler=_cmd_sweep)
    return parser


_parser = lru_cache(maxsize=1)(build_parser)  # built once per process; parse_args leaves a parser as it was


def _environment(workers: int) -> dict:
    """The host as numpy and os already know it; no subprocess or library probe."""
    environment = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no mode="dicts"
        pass
    else:
        environment["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {**environment, "cpu_count": os.cpu_count(), "usable_cpus": usable, "workers": workers}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        start = time.perf_counter()
        summary, tables, records = args.handler(config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, NumericalError) as exc:
        label = "numerical error" if isinstance(exc, NumericalError) else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return 1
    computed = time.perf_counter()
    directory = Path(config.output.directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = [output.write_table(directory / name, columns, config.output.format) for name, columns in tables.items()]
    files += [output.write_json(directory / name, record) for name, record in records.items()]
    timings = {"compute_s": computed - start, "write_s": time.perf_counter() - computed}
    workers = config.sweep.workers if args.command == "sweep" else 1
    if args.command == "sweep":
        timings["cells_per_s"] = summary["cells"] / timings["compute_s"]
    arguments = {key: getattr(args, key) for key in _ARGUMENT_DEFAULTS if key in vars(args)}
    files.append(output.write_json(directory / "run.json", {
        "tool": "floquet-ising", "version": __version__, "command": args.command, "config": config.to_dict(),
        "arguments": arguments, "summary": summary, "outputs": [f.name for f in files],
        "environment": _environment(workers), "timings": timings,
    }))
    for key, value in summary.items():
        print(f"{key} = {value}")
    print("wrote " + ", ".join(str(f) for f in files))
    return 0


if __name__ == "__main__":
    sys.exit(main())
