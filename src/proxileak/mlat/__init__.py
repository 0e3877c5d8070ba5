"""Position estimation from quantized distance observations.

The solver recovers a target's local-plane position from a set of
(observer position, reported distance) pairs by minimizing the mean
residual norm — mean absolute residual by default, mean squared residual
as an option — with a derivative-free compass search started at the
observer centroid. It is fully deterministic for a fixed (samples, config)
pair, including the seeded jitter applied to the initial guess.

The inner loops live in the C extension ``_kernels.c`` when it is built
and in its bit-identical pure-Python twin ``_kernels_py`` otherwise; see
``_backend``.
"""

from __future__ import annotations

import math
import random
import time
from array import array
from typing import Iterable, Sequence

from ..geo import EnuPoint, Frozen, _set
from ._backend import BACKEND, impl as _impl
from ._kernels_py import NORM_L1, NORM_L2

__all__ = [
    "DistanceSample", "SolverConfig", "PositionEstimate",
    "UnderdeterminedError", "DegenerateGeometryError",
    "multilaterate", "runtime_profile",
    "backend_name", "SOLVER_NORMS",
]

# Norm name -> kernel code: mean absolute, mean squared residual.
SOLVER_NORMS = {"l1": NORM_L1, "l2": NORM_L2}

# Observer spread below this singular-value ratio is treated as collinear.
COLLINEARITY_RTOL = 1e-6


class UnderdeterminedError(ValueError):
    """Fewer than three distance samples."""


class DegenerateGeometryError(ValueError):
    """Observers are (near-)collinear, so two mirror solutions exist."""


def _norm_code(norm: str) -> int:
    try:
        return SOLVER_NORMS[norm.lower()]
    except KeyError:
        raise ValueError(f"norm must be 'l1' or 'l2': {norm!r}") from None


class DistanceSample(Frozen):
    """One observation: where the observer stood, what distance was reported.

    ``quantum_m`` is the service-side quantization step that produced
    ``reported_m`` (0 means the distance is exact).
    """

    __slots__ = ("observer", "reported_m", "t", "quantum_m")

    def __init__(self, observer: EnuPoint, reported_m: float, t: float,
                 quantum_m: float = 0.0) -> None:
        if not 0.0 <= reported_m < math.inf:
            raise ValueError(f"reported_m must be finite and >= 0: {reported_m!r}")
        if not 0.0 <= quantum_m < math.inf:
            raise ValueError(f"quantum_m must be finite and >= 0: {quantum_m!r}")
        if quantum_m > 0.0:
            # floor(d / q) * q / q misses its integer by about an ulp of
            # the step count, so the tolerance scales with the count.
            steps = reported_m / quantum_m
            if (not math.isfinite(steps)
                    or abs(steps - round(steps)) > 1e-9 * max(1.0, steps)):
                raise ValueError(
                    f"reported_m {reported_m!r} is not a multiple "
                    f"of quantum_m {quantum_m!r}")
        _set(self, "observer", observer)
        _set(self, "reported_m", reported_m)
        _set(self, "t", t)
        _set(self, "quantum_m", quantum_m)


class SolverConfig(Frozen):
    """``norm`` is "l1" (mean absolute) or "l2" (mean squared residual)."""

    __slots__ = ("norm", "max_iterations", "step_init_m", "tol_m", "seed")

    def __init__(self, norm: str = "l1", max_iterations: int = 200,
                 step_init_m: float = 500.0, tol_m: float = 0.01,
                 seed: int = 0) -> None:
        _norm_code(norm)
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < tol_m < math.inf:
            raise ValueError(f"tol_m must be finite and > 0: {tol_m!r}")
        if not 0.0 < step_init_m < math.inf:
            raise ValueError(
                f"step_init_m must be finite and > 0: {step_init_m!r}")
        _set(self, "norm", norm)
        _set(self, "max_iterations", max_iterations)
        _set(self, "step_init_m", step_init_m)
        _set(self, "tol_m", tol_m)
        _set(self, "seed", seed)

    @property
    def norm_code(self) -> int:
        return _norm_code(self.norm)


class PositionEstimate(Frozen):
    __slots__ = ("p_hat", "residual", "iterations_used")

    def __init__(self, p_hat: EnuPoint, residual: float,
                 iterations_used: int) -> None:
        _set(self, "p_hat", p_hat)
        _set(self, "residual", residual)
        _set(self, "iterations_used", iterations_used)


def backend_name() -> str:
    """Which kernel backend is active: 'compiled' or 'pure-python'."""
    return BACKEND


def _as_arrays(samples: Sequence[DistanceSample]):
    ref = samples[0].observer.ref
    for s in samples:
        if s.observer.ref != ref:
            raise ValueError("all samples must share one ENU reference")
    xs = array("d", (s.observer.x_m for s in samples))
    ys = array("d", (s.observer.y_m for s in samples))
    ds = array("d", (s.reported_m for s in samples))
    return xs, ys, ds, ref


def _spread_singular_values(xs, ys, cx: float, cy: float) -> tuple[float, float]:
    # Singular values of the centered observer matrix, via the 2x2 Gram matrix.
    sxx = sxy = syy = 0.0
    for i in range(len(xs)):
        dx = xs[i] - cx
        dy = ys[i] - cy
        sxx += dx * dx
        sxy += dx * dy
        syy += dy * dy
    tr = sxx + syy
    disc = math.sqrt(max(0.0, (sxx - syy) * (sxx - syy) + 4.0 * sxy * sxy))
    lmax = max(0.0, (tr + disc) / 2.0)
    lmin = max(0.0, (tr - disc) / 2.0)
    return math.sqrt(lmax), math.sqrt(lmin)


def _linearized_start(cxs, cys, ds) -> tuple[float, float] | None:
    # Subtracting the first circle equation from the rest linearizes the
    # problem: 2(o_i - o_0) . p = (d_0^2 - d_i^2) + (|o_i|^2 - |o_0|^2).
    # The 2x2 normal-equation solution is a cheap global initializer.
    a11 = a12 = a22 = b1 = b2 = 0.0
    x0, y0, d0 = cxs[0], cys[0], ds[0]
    for i in range(1, len(cxs)):
        ax = 2.0 * (cxs[i] - x0)
        ay = 2.0 * (cys[i] - y0)
        rhs = (d0 * d0 - ds[i] * ds[i]
               + cxs[i] * cxs[i] + cys[i] * cys[i] - x0 * x0 - y0 * y0)
        a11 += ax * ax
        a12 += ax * ay
        a22 += ay * ay
        b1 += ax * rhs
        b2 += ay * rhs
    det = a11 * a22 - a12 * a12
    if det == 0.0 or not math.isfinite(det):
        return None
    return ((a22 * b1 - a12 * b2) / det, (a11 * b2 - a12 * b1) / det)


def multilaterate(samples: Sequence[DistanceSample], cfg: SolverConfig) -> PositionEstimate:
    """Estimate the target position from >= 3 non-collinear samples.

    The search runs in coordinates centered on the observer centroid (which
    makes the result equivariant under translation of the whole instance).
    The residual surface of quantized range data has genuine local minima
    (e.g. an antipodal pseudo-fit when the target sits far outside the
    observer cluster), so the descent is restarted from a deterministic set
    of initial points: the seeded jitter around the centroid, a linearized
    least-squares solution, and a fan of bearings at the median reported
    range. The best final objective wins, ties broken lexicographically on
    (x, y). Deterministic for fixed (samples, cfg).
    """
    if len(samples) < 3:
        raise UnderdeterminedError(
            f"need >= 3 samples to fix a 2-D position, got {len(samples)}")
    xs, ys, ds, ref = _as_arrays(samples)
    n = len(xs)
    cx = math.fsum(xs) / n
    cy = math.fsum(ys) / n
    smax, smin = _spread_singular_values(xs, ys, cx, cy)
    if smax == 0.0 or smin <= COLLINEARITY_RTOL * smax:
        raise DegenerateGeometryError(
            "observers are collinear; two mirror positions fit the distances")

    cxs = array("d", (x - cx for x in xs))
    cys = array("d", (y - cy for y in ys))

    rng = random.Random(cfg.seed)
    ang = rng.uniform(0.0, 2.0 * math.pi)
    rad = rng.uniform(0.0, cfg.step_init_m)
    starts = [(rad * math.cos(ang), rad * math.sin(ang))]
    lin = _linearized_start(cxs, cys, ds)
    if lin is not None:
        starts.append(lin)
    fan_r = sorted(ds)[n // 2]
    if fan_r > 0.0:
        for k in range(8):
            a = 2.0 * math.pi * k / 8.0
            starts.append((fan_r * math.cos(a), fan_r * math.sin(a)))

    best = None
    for sx, sy in starts:
        x, y, f, it = _impl.solve_pattern(
            cxs, cys, ds, sx, sy, cfg.step_init_m, cfg.tol_m,
            cfg.max_iterations, cfg.norm_code)
        key = (f, x, y)
        if best is None or key < best[0]:
            best = (key, x, y, f, it)
    _, x, y, f, it = best
    return PositionEstimate(
        p_hat=EnuPoint(x + cx, y + cy, ref),
        residual=f,
        iterations_used=it,
    )


def runtime_profile(sample_counts: Iterable[int], iteration_counts: Iterable[int],
                    min_time_s: float = 0.02) -> list[tuple[int, int, float]]:
    """Wall-clock cost grid of the solver over samples x iterations.

    Every cell times the search on a fixed synthetic instance with the full
    iteration budget forced (no early stop), so the measurement reflects
    iteration cost, not convergence luck. Returns (samples, iterations,
    seconds_per_call) rows; run it single-threaded for stable numbers.
    The search uses ``SolverConfig()``'s initial step and norm.
    """
    cfg = SolverConfig()
    rows: list[tuple[int, int, float]] = []
    for n in sample_counts:
        if n < 1:
            raise ValueError("sample counts must be positive")
        xs = array("d", (1000.0 * math.cos(2.0 * math.pi * i / n) for i in range(n)))
        ys = array("d", (1000.0 * math.sin(2.0 * math.pi * i / n) for i in range(n)))
        ds = array("d", (100.0 * math.floor(
            math.hypot(xs[i] - 137.0, ys[i] + 42.0) / 100.0) for i in range(n)))
        for iters in iteration_counts:
            if iters < 1:
                raise ValueError("iteration counts must be positive")
            repeats = 1
            while True:
                t0 = time.perf_counter()
                for _ in range(repeats):
                    _impl.solve_pattern(xs, ys, ds, 0.0, 0.0, cfg.step_init_m,
                                        0.0, iters, cfg.norm_code)
                elapsed = time.perf_counter() - t0
                if elapsed >= min_time_s or repeats >= 1 << 20:
                    break
                repeats *= 2
            rows.append((n, iters, elapsed / repeats))
    return rows
