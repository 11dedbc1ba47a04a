"""Fisher information along the stroboscopic evolution.

The quantum Fisher information for the pure Floquet-evolved state,

    F_Q = 4 [ <d psi|d psi> - |<psi|d psi>|^2 ],

is computed from an exact state-derivative recurrence: both step
Hamiltonians are linear in their parameter, so d|psi_n>/d theta
propagates alongside |psi_n> with no step-size tuning. A finite-difference
fidelity-susceptibility estimator is kept as an independent oracle.

The classical Fisher information of a diagonal observable X uses the
error-propagation form F_C = (d<X>/d theta)^2 / Var(X), with the gradient
taken from the same exact derivative states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dynamics import DiagonalObservable
from .model import TARGET_HX, TARGET_J, FloquetOperator, ModelSpec, as_operator

QFI = "qfi"
CFI = "cfi"

FLAG_OK = "ok"
FLAG_UNDEFINED = "undefined"
FLAG_DIVERGENT = "divergent"

# a CFI point with variance below this is degenerate: undefined (0/0) when
# the gradient also vanishes, divergent otherwise
VARIANCE_CUTOFF = 1e-12
GRADIENT_CUTOFF = 1e-9


@dataclass
class DerivativeState:
    """State and its exact parameter derivative after n periods."""

    psi: np.ndarray
    dpsi: np.ndarray
    target: str
    n: int


def evolve_with_derivative(
    model: ModelSpec | FloquetOperator,
    target: str,
    psi0: np.ndarray,
    n_max: int,
) -> Iterator[DerivativeState]:
    """Yield (psi_n, d psi_n) for n = 0..n_max.

    Product rule over periods: d psi_{n+1} = U d psi_n + (dU) psi_n with
    d psi_0 = 0, one stacked propagator pass per period.
    """
    op = as_operator(model)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if target == TARGET_J and not op.spec.uniform:
        raise ValueError("J-derivative requires uniform couplings")
    psi = np.array(psi0, dtype=np.complex128)
    op._require_dim(psi)
    dpsi = np.zeros_like(psi)
    yield DerivativeState(psi=psi, dpsi=dpsi, target=target, n=0)
    for n in range(1, n_max + 1):
        psi, dpsi = op.apply_with_derivative(target, psi, dpsi)
        yield DerivativeState(psi=psi, dpsi=dpsi, target=target, n=n)


def qfi_value(psi: np.ndarray, dpsi: np.ndarray) -> float:
    """Pure-state QFI, 4 [ <d psi|d psi> - |<psi|d psi>|^2 ].

    Evaluated as 4 ||d psi - psi <psi|d psi>||^2: identical for a
    normalized state, but the cancellation happens on amplitudes instead
    of between two large scalars, which keeps analytic zeros (pure-phase
    sensitivity) at rounding level even after thousands of periods.
    """
    orthogonal = dpsi - psi * np.vdot(psi, dpsi)
    return 4.0 * float(np.vdot(orthogonal, orthogonal).real)


@dataclass
class FisherSeries:
    """QFI or CFI values indexed by period number (units of time^2).

    flags marks CFI points where the observable variance vanishes; those
    points carry value nan and are excluded from fits.
    """

    kind: str
    target: str
    times: np.ndarray
    values: np.ndarray
    period: float
    observable: str | None = None
    flags: np.ndarray | None = None

    def __post_init__(self):
        if self.flags is None:
            self.flags = np.full(len(self.values), FLAG_OK, dtype="<U9")

    def defined(self) -> np.ndarray:
        return self.flags == FLAG_OK

    def __len__(self) -> int:
        return len(self.values)


def qfi_series(
    model: ModelSpec | FloquetOperator,
    target: str,
    psi0: np.ndarray,
    n_max: int,
) -> FisherSeries:
    """Exact-derivative QFI at every stroboscopic time n = 0..n_max."""
    op = as_operator(model)
    values = np.empty(n_max + 1)
    for state in evolve_with_derivative(op, target, psi0, n_max):
        values[state.n] = qfi_value(state.psi, state.dpsi)
    return FisherSeries(
        kind=QFI,
        target=target,
        times=np.arange(n_max + 1),
        values=values,
        period=op.spec.protocol.period,
    )


def _shifted_spec(spec: ModelSpec, target: str, delta: float) -> ModelSpec:
    if target == TARGET_HX:
        return spec.with_h_x(spec.h_x + delta)
    if target == TARGET_J:
        return spec.with_uniform_coupling(spec.couplings + delta)
    raise ValueError(f"unknown derivative target {target!r}")


def _evolved_state(op: FloquetOperator, psi0: np.ndarray, n: int) -> np.ndarray:
    psi = np.asarray(psi0, dtype=np.complex128)
    for _ in range(n):
        psi = op.apply(psi)
    return psi


def qfi_finite_difference(
    model: ModelSpec | FloquetOperator,
    target: str,
    psi0: np.ndarray,
    n: int,
    delta: float = 1e-4,
) -> float:
    """Fidelity-susceptibility oracle, 8 (1 - |<psi(theta)|psi(theta+delta)>|) / delta^2.

    O(delta^2) accurate; independent of the exact-derivative path so the
    two can cross-validate each other.
    """
    if not 1e-7 <= delta <= 1e-3:
        raise ValueError(f"delta must lie in [1e-7, 1e-3], got {delta}")
    op = as_operator(model)
    shifted = FloquetOperator(_shifted_spec(op.spec, target, delta))
    psi_a = _evolved_state(op, psi0, n)
    psi_b = _evolved_state(shifted, psi0, n)
    fidelity = abs(np.vdot(psi_a, psi_b))
    return 8.0 * (1.0 - fidelity) / delta**2


def cfi_series(
    model: ModelSpec | FloquetOperator,
    target: str,
    observable: DiagonalObservable,
    psi0: np.ndarray,
    n_max: int,
) -> FisherSeries:
    """Error-propagation CFI of a diagonal observable, with degeneracy flags.

    The gradient d<X>/d theta = 2 Re <d psi|X|psi> comes from the exact
    derivative recurrence.
    """
    op = as_operator(model)
    if len(observable.diag) != op.dim:
        raise ValueError(
            f"observable {observable.label!r} has dimension {len(observable.diag)}, state has {op.dim}"
        )
    diag = np.asarray(observable.diag, dtype=float)

    expectations = np.empty(n_max + 1)
    second_moments = np.empty(n_max + 1)
    gradients = np.empty(n_max + 1)
    for state in evolve_with_derivative(op, target, psi0, n_max):
        probs = state.psi.real**2 + state.psi.imag**2
        expectations[state.n] = probs @ diag
        second_moments[state.n] = probs @ (diag * diag)
        gradients[state.n] = 2.0 * np.vdot(state.dpsi, diag * state.psi).real

    variances = second_moments - expectations**2
    values = np.full(n_max + 1, np.nan)
    flags = np.full(n_max + 1, FLAG_OK, dtype="<U9")
    degenerate = variances < VARIANCE_CUTOFF
    flags[degenerate & (np.abs(gradients) < GRADIENT_CUTOFF)] = FLAG_UNDEFINED
    flags[degenerate & (np.abs(gradients) >= GRADIENT_CUTOFF)] = FLAG_DIVERGENT
    ok = ~degenerate
    values[ok] = gradients[ok] ** 2 / variances[ok]

    return FisherSeries(
        kind=CFI,
        target=target,
        times=np.arange(n_max + 1),
        values=values,
        period=op.spec.protocol.period,
        observable=observable.label,
        flags=flags,
    )


@dataclass
class CurvatureFit:
    """Least-squares fit of F(t) = a t^2 / 2 + b t + c over the series tail.

    kappa is the fitted a, i.e. the second time derivative of F; the fit
    window is reported as the (first, last) period index it covers.
    """

    a: float
    b: float
    c: float
    window: tuple[int, int]
    rms_residual: float

    @property
    def kappa(self) -> float:
        return self.a


def curvature_fit(series: FisherSeries, window_fraction: float = 0.5) -> CurvatureFit:
    """Quadratic tail fit of a Fisher series over its defined points."""
    if not 0 < window_fraction <= 1:
        raise ValueError(f"window_fraction must lie in (0, 1], got {window_fraction}")
    defined = np.nonzero(series.defined())[0]
    count = int(np.ceil(window_fraction * len(defined)))
    window = defined[len(defined) - count :]
    if len(window) < 8:
        raise ValueError(
            f"need at least 8 defined points in the fit window, got {len(window)}"
        )
    t = series.times[window] * series.period
    f = series.values[window]
    # fit in a scaled domain for conditioning, then convert back to
    # ordinary polynomial coefficients
    coefficients = np.polynomial.Polynomial.fit(t, f, deg=2).convert().coef
    coefficients = np.pad(coefficients, (0, 3 - len(coefficients)))
    c, b, half_a = (float(x) for x in coefficients)
    residual = f - (half_a * t**2 + b * t + c)
    return CurvatureFit(
        a=2.0 * half_a,
        b=b,
        c=c,
        window=(int(series.times[window[0]]), int(series.times[window[-1]])),
        rms_residual=float(np.sqrt(np.mean(residual**2))),
    )
