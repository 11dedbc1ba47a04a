"""Fisher information along the stroboscopic evolution.

The quantum Fisher information for the pure Floquet-evolved state,

    F_Q = 4 [ <d psi|d psi> - |<psi|d psi>|^2 ],

is computed from an exact state-derivative recurrence: both step
Hamiltonians are linear in their parameter, so d|psi_n>/d theta
propagates alongside |psi_n> with no step-size tuning.

The classical Fisher information of a diagonal observable X uses the
error-propagation form F_C = (d<X>/d theta)^2 / Var(X). It has no loop of
its own: <X>, <X^2> and the gradient are the rows of
dynamics.expectation_records, read from the same exact derivative states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import DiagonalObservable, expectation_records
from .model import FloquetOperator, ModelSpec

QFI = "qfi"
CFI = "cfi"

FLAG_OK = "ok"
FLAG_UNDEFINED = "undefined"
FLAG_DIVERGENT = "divergent"

# a CFI point with variance below this is degenerate: undefined (0/0) when
# the gradient also vanishes, divergent otherwise
VARIANCE_CUTOFF = 1e-12
GRADIENT_CUTOFF = 1e-9


def qfi_value(psi: np.ndarray, dpsi: np.ndarray) -> float | np.ndarray:
    """Pure-state QFI, 4 [ <d psi|d psi> - |<psi|d psi>|^2 ], of a state or of each row of a block.

    Evaluated as 4 ||d psi - psi <psi|d psi>||^2: identical for a
    normalized state, but the cancellation happens on amplitudes instead
    of between two large scalars, which keeps analytic zeros (pure-phase
    sensitivity) at rounding level even after thousands of periods.
    """
    overlap = np.add.reduce(psi.conj() * dpsi, axis=-1)
    orthogonal = (dpsi - psi * overlap[..., np.newaxis]).view(np.float64)
    return 4.0 * np.add.reduce(orthogonal * orthogonal, axis=-1)


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


def qfi_records(
    op: FloquetOperator,
    target: str,
    psi0: np.ndarray,
    n_max: int,
) -> np.ndarray:
    """Exact-derivative QFI of every cell at n = 0..n_max, as a (cells, n_max + 1) array, read on frame states."""
    blocks = op.frame_trajectory(psi0, n_max, target)
    return np.stack([qfi_value(block[:, 0], block[:, 1]) for block in blocks], axis=-1)


def qfi_series(
    spec: ModelSpec,
    target: str,
    psi0: np.ndarray,
    n_max: int,
) -> FisherSeries:
    """Exact-derivative QFI at every stroboscopic time n = 0..n_max."""
    return FisherSeries(
        kind=QFI,
        target=target,
        times=np.arange(n_max + 1),
        values=qfi_records(FloquetOperator(spec), target, psi0, n_max)[0],
        period=spec.protocol.period,
    )


def cfi_series(
    spec: ModelSpec,
    target: str,
    observable: DiagonalObservable,
    psi0: np.ndarray,
    n_max: int,
) -> FisherSeries:
    """Error-propagation CFI of a diagonal observable, with degeneracy flags.

    One cell's expectation_records on [X, X^2]: the gradient
    d<X>/d theta = 2 Re <d psi|X|psi> is the derivative row of X, from the
    exact derivative recurrence.
    """
    square = DiagonalObservable(f"{observable.label}^2", np.square(observable.diag))
    records = expectation_records(FloquetOperator(spec), psi0, n_max, [observable, square], target)[0]
    (expectations, second_moments), (gradients, _) = records

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
        period=spec.protocol.period,
        observable=observable.label,
        flags=flags,
    )


@dataclass
class CurvatureFit:
    """Least-squares fit of F(t) = a t^2 / 2 + b t + c over the series tail.

    The curvature kappa is the fitted a, i.e. the second time derivative of
    F; the fit window is reported as the (first, last) period index it covers.
    """

    a: float
    b: float
    c: float
    window: tuple[int, int]
    rms_residual: float


def tail_window(count: int, window_fraction: float) -> slice:
    """The last ceil(window_fraction * count) of count points, at least 8 of them."""
    if not 0 < window_fraction <= 1:
        raise ValueError(f"window_fraction must lie in (0, 1], got {window_fraction}")
    size = int(np.ceil(window_fraction * count))
    if size < 8:
        raise ValueError(f"need at least 8 defined points in the fit window, got {size}")
    return slice(count - size, count)


def quadratic_fits(t: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares F(t) = a t^2 / 2 + b t + c through every row of f, one solve for all rows.

    The rows share the sample times t, so they share the design matrix: its
    pseudo-inverse, in the scaled domain x = (t - mid) / half for
    conditioning, is taken once and applied to each row as a row sum (so a
    row's fit does not depend on the other rows). Returns the (rows, 3)
    coefficients (a, b, c) and each row's rms residual.
    """
    mid, half = (t[-1] + t[0]) / 2.0, (t[-1] - t[0]) / 2.0
    x = (t - mid) / half
    solve = np.linalg.pinv(np.stack([np.ones_like(x), x, x * x], axis=1))
    p0, p1, p2 = (f[:, np.newaxis, :] * solve).sum(axis=-1).T
    # back from powers of x to ordinary polynomial coefficients in t
    half_a = p2 / half**2
    b = p1 / half - 2.0 * mid * half_a
    c = p0 - p1 * mid / half + mid**2 * half_a
    residual = f - (half_a[:, np.newaxis] * t**2 + b[:, np.newaxis] * t + c[:, np.newaxis])
    return np.stack([2.0 * half_a, b, c], axis=1), np.sqrt(np.mean(residual**2, axis=-1))


def curvature_fit(series: FisherSeries, window_fraction: float = 0.5) -> CurvatureFit:
    """Quadratic tail fit of a Fisher series over its defined points."""
    defined = np.nonzero(series.defined())[0]
    window = defined[tail_window(len(defined), window_fraction)]
    t = series.times[window] * series.period
    (coefficients,), (rms,) = quadratic_fits(t, series.values[np.newaxis, window])
    a, b, c = (float(x) for x in coefficients)
    return CurvatureFit(
        a=a,
        b=b,
        c=c,
        window=(int(series.times[window[0]]), int(series.times[window[-1]])),
        rms_residual=float(rms),
    )
