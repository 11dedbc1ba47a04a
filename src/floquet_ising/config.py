"""Run configuration: defaults, config files and flag overrides.

Config files are plain INI text ([model] / [analysis] / [sweep] / [output]
sections, key = value lines, # comments). The resolved configuration is
echoed into every run's JSON sidecar, and that sidecar is itself accepted
back as a config file, so any run can be reproduced from its own output;
the subcommand flags it records under "arguments" are read by
recorded_arguments. The [analysis] section is sweep.AnalysisSettings, the
object a sweep reads, so each analysis setting is declared once. A file is
only parsed: validate() checks the values once the flags have overridden it.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .metrology import tail_window
from .model import BOUNDARIES, FIELD_THEN_ISING, STEP_ORDERS
from .states import MAX_QUBITS
from .sweep import AnalysisSettings


@dataclass
class ModelSection:
    n_qubits: int = 3
    boundary: str = "auto"  # ring for N=3, chain otherwise
    hx_t: float = 2.6
    j_t: float = 1.57
    period: float = 1.0
    t1_fraction: float = 0.5
    step_order: str = FIELD_THEN_ISING
    couplings: str = ""  # optional comma list of per-bond J*T values


@dataclass
class SweepSection:
    h_min: float = 0.0
    h_max: float = math.pi
    h_count: int = 61
    j_min: float = 0.0
    j_max: float = math.pi
    j_count: int = 61
    workers: int = 1


@dataclass
class OutputSection:
    directory: str = "."
    format: str = "csv"  # csv | json


_SECTION_TYPES = {
    "model": ModelSection,
    "analysis": AnalysisSettings,
    "sweep": SweepSection,
    "output": OutputSection,
}


class ConfigError(ValueError):
    """A config file or override could not be parsed."""


def recorded_arguments(path: str | Path) -> dict:
    """The subcommand arguments a run.json sidecar records; {} for any other config file."""
    text = Path(path).read_text()
    return json.loads(text).get("arguments", {}) if text.lstrip().startswith("{") else {}


def _parse_value(raw: str, kind: type, where: str):
    text = str(raw).strip()
    try:
        if kind is float:
            if text.lower() == "pi":
                return math.pi
            return float(text)
        if kind is int:
            return int(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind.__name__}") from exc


@dataclass
class RunConfig:
    model: ModelSection = field(default_factory=ModelSection)
    analysis: AnalysisSettings = field(default_factory=AnalysisSettings)
    sweep: SweepSection = field(default_factory=SweepSection)
    output: OutputSection = field(default_factory=OutputSection)

    def validate(self) -> "RunConfig":
        for section, values in self.to_dict().items():
            for key, value in values.items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(f"{section}.{key} must be finite, got {value}")
        m, a, s = self.model, self.analysis, self.sweep
        for valid, problem in (
            (m.boundary in ("auto",) + BOUNDARIES, f"model.boundary must be auto|ring|chain, got {m.boundary!r}"),
            (m.step_order in STEP_ORDERS, f"model.step_order must be one of {STEP_ORDERS}"),
            (1 <= m.n_qubits <= MAX_QUBITS, f"model.n_qubits must lie in 1..{MAX_QUBITS}, got {m.n_qubits}"),
            (m.period > 0, f"model.period must be positive, got {m.period}"),
            (0 < m.t1_fraction < 1, f"model.t1_fraction must lie in (0, 1), got {m.t1_fraction}"),
            (self.output.format in ("csv", "json"), f"output.format must be csv or json, got {self.output.format!r}"),
            (0 < a.fit_window <= 1, f"analysis.fit_window must lie in (0, 1], got {a.fit_window}"),
            (0 < a.pd_threshold < 1, f"analysis.pd_threshold must lie in (0, 1), got {a.pd_threshold}"),
            (a.spectrum_samples >= 4 and a.spectrum_samples % 2 == 0,
             f"analysis.spectrum_samples must be even and >= 4, got {a.spectrum_samples}"),
            (a.transient_discard >= 0, f"analysis.transient_discard must be >= 0, got {a.transient_discard}"),
            (a.n_max >= 1, f"analysis.n_max must be >= 1, got {a.n_max}"),
            (s.h_count >= 2, f"sweep.h_count must be at least 2, got {s.h_count}"),
            (s.j_count >= 2, f"sweep.j_count must be at least 2, got {s.j_count}"),
            (s.workers >= 1, f"sweep.workers must be at least 1, got {s.workers}"),
        ):
            if not valid:
                raise ConfigError(problem)
        if not 0 <= a.pair_tolerance < math.pi / m.period / 2:
            raise ConfigError(f"analysis.pair_tolerance must be 0 (default) or in (0, pi/(2T)), got {a.pair_tolerance}")
        try:
            tail_window(a.n_max + 1, a.fit_window)
        except ValueError as exc:
            raise ConfigError(f"analysis.fit_window {a.fit_window} of n_max {a.n_max} periods: {exc}") from exc
        per_bond = self.per_bond_couplings()
        if per_bond is not None and not all(math.isfinite(j) for j in per_bond):
            raise ConfigError(f"model.couplings must be finite, got {self.model.couplings!r}")
        return self

    def set(self, section: str, key: str, value) -> None:
        if section not in _SECTION_TYPES:
            raise ConfigError(f"unknown config section [{section}]")
        block = getattr(self, section)
        fields = {f.name: f.type for f in dataclasses.fields(block)}
        if key not in fields:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        kind = type(getattr(block, key))
        setattr(block, key, _parse_value(value, kind, f"[{section}] {key}"))

    def to_dict(self) -> dict:
        return {name: dataclasses.asdict(getattr(self, name)) for name in _SECTION_TYPES}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Parse {section: {key: value}} over the defaults; validate() checks the result."""
        config = cls()
        for section, values in data.items():
            if section not in _SECTION_TYPES:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in values.items():
                config.set(section, key, value)
        return config

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """Parse INI sections, or a JSON object whose "config" block (a run sidecar's) is used if present."""
        path = Path(path)
        text = path.read_text()
        try:
            if text.lstrip().startswith("{"):
                data = json.loads(text)
                return cls.from_dict(data.get("config", data))
            parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
            parser.read_string(text, source=str(path))
            return cls.from_dict({section: dict(parser.items(section)) for section in parser.sections()})
        except (configparser.Error, ConfigError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    def per_bond_couplings(self) -> list[float] | None:
        text = self.model.couplings.strip()
        if not text:
            return None
        try:
            return [float(x) for x in text.split(",")]
        except ValueError as exc:
            raise ConfigError(f"model.couplings must be a comma list of numbers, got {text!r}") from exc
