"""Tensor-product quadrature with grid doubling and integer certification.

Each parameter axis is either periodic, integrated by the uniform
rectangle rule on ``[a, b)`` (spectrally accurate for smooth periodic
integrands), or open, integrated by Gauss-Legendre nodes interior to
``(a, b)`` so charts may be singular on the boundary itself.  The grid
is doubled until two consecutive levels agree to ``tol_conv``.

Certification divides a raw integral by the appropriate normalization
constant and accepts the nearest integer when the residual is within
``tol_cert``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, GaussMapError

__all__ = [
    "Interval", "DomainSpec", "QuadratureSpec", "IntegralResult",
    "Certification", "axis_nodes", "tensor_nodes", "integrate",
    "normalization_constant", "certify",
]


@dataclass(frozen=True)
class Interval:
    lower: float
    upper: float
    periodic: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise DomainError(f"interval bounds must be finite, "
                              f"got [{self.lower}, {self.upper}]")
        if self.upper <= self.lower:
            raise DomainError(f"empty interval [{self.lower}, {self.upper}]")

    @property
    def length(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class DomainSpec:
    intervals: tuple

    def __init__(self, intervals: Sequence[Interval]):
        object.__setattr__(self, "intervals", tuple(intervals))

    @property
    def n(self) -> int:
        return len(self.intervals)

    @property
    def fully_periodic(self) -> bool:
        return all(iv.periodic for iv in self.intervals)


@dataclass(frozen=True)
class QuadratureSpec:
    grid: int = 16
    max_levels: int = 6
    tol_conv: float = 1e-9
    tol_cert: float = 1e-6

    def __post_init__(self):
        if self.grid < 8:
            raise ValueError(f"grid must be at least 8, got {self.grid}")
        if self.max_levels < 1:
            raise ValueError("need at least one level")
        for name in ("tol_conv", "tol_cert"):
            tol = getattr(self, name)
            if not (math.isfinite(tol) and tol >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, "
                                 f"got {tol}")


@functools.lru_cache(maxsize=32)
def _gauss_legendre(m: int):
    """The ``m``-point Gauss-Legendre rule on ``[-1, 1]``, computed once
    per ``m`` and kept read-only."""
    xi, wi = np.polynomial.legendre.leggauss(m)
    xi.flags.writeable = wi.flags.writeable = False
    return xi, wi


def axis_nodes(interval: Interval, m: int):
    """Nodes and weights for one axis with ``m`` points."""
    if interval.periodic:
        h = interval.length / m
        x = interval.lower + h * np.arange(m)
        w = np.full(m, h)
    else:
        xi, wi = _gauss_legendre(m)
        mid = 0.5 * (interval.lower + interval.upper)
        half = 0.5 * interval.length
        x = mid + half * xi
        w = half * wi
    return x, w


def tensor_nodes(domain: DomainSpec, m: int):
    """Full tensor grid with ``m`` points per axis.

    Returns points of shape ``(n, m, ..., m)`` and the matching weight
    array of shape ``(m, ..., m)``.
    """
    axes = [axis_nodes(iv, m) for iv in domain.intervals]
    pts = np.stack(np.meshgrid(*[x for x, _ in axes], indexing="ij"))
    weights = axes[0][1]
    for _, w in axes[1:]:
        weights = np.multiply.outer(weights, w)
    return pts, weights


@dataclass(frozen=True)
class IntegralResult:
    value: float
    converged: bool
    levels_used: int
    trace: tuple  # raw value per level


# A level's working set is estimated at 1 KB a point, the tracemalloc peak
# per point of a 64^3 level of the 3-sphere in R^4 (degree route).  The
# same figure is applied to every dimension: the drivers measured 152 B
# (curves in the plane), 480 B (surfaces in R^3, both routes) and 664 B
# (surfaces in R^4), and a plain density may need far less.
LEVEL_BUDGET_BYTES = 4 << 30


def integrate(density: Callable[[np.ndarray], np.ndarray],
              domain: DomainSpec,
              quad: QuadratureSpec = QuadratureSpec()) -> IntegralResult:
    """Integrate a batched density over the domain, doubling until stable.

    ``density`` receives points of shape ``(n, ...)`` and must return
    values of the trailing batch shape.
    """
    return integrate_kernels(lambda pts: (pts,), (density,), domain, quad)[0]


def integrate_kernels(stage: Callable, kernels: Sequence[Callable],
                      domain: DomainSpec,
                      quad: QuadratureSpec = QuadratureSpec()) -> tuple:
    """Integrate several densities that share one per-level stage.

    Each level runs ``stage(pts)`` once and calls every active kernel on
    its result, ``kernel(*stage(pts))``.  A kernel stops once its last two
    levels agree; one ``IntegralResult`` is returned per kernel.

    Errors surface in the order of running the kernels one after another
    through all their levels.  A stage error raises at once.  A kernel's
    ``GaussMapError`` drops it and every later kernel, and raises once no
    earlier kernel is still running.  A level whose estimated working set
    (1 KB a point, whatever the dimension) exceeds ``LEVEL_BUDGET_BYTES``
    is refused before it is allocated.
    """
    traces = [[] for _ in kernels]
    results = [None] * len(kernels)
    active = list(range(len(kernels)))
    failure = None
    for level in range(quad.max_levels):
        if not active:
            break
        m = quad.grid * (1 << level)
        points = m ** domain.n
        estimate = points * 1024
        if estimate > LEVEL_BUDGET_BYTES:
            raise DomainError(
                f"quadrature level {level + 1} ({m} nodes per axis, "
                f"{points} points) needs about {estimate} bytes, over the "
                f"{LEVEL_BUDGET_BYTES}-byte level budget",
                location={"level": level + 1, "nodes": m,
                          "points": points, "bytes": estimate})
        pts, weights = tensor_nodes(domain, m)
        state = stage(pts)
        for i in list(active):
            try:
                values = np.asarray(kernels[i](*state), float)
            except GaussMapError as exc:
                if i == active[0]:
                    raise
                # keep the error without its traceback, which would pin
                # this level's arrays while the earlier kernels run on
                failure = exc.with_traceback(None)
                active = active[:active.index(i)]
                break
            traces[i].append(float(np.sum(values * weights)))
            del values
            trace = traces[i]
            if level > 0 and abs(trace[-1] - trace[-2]) < quad.tol_conv:
                results[i] = IntegralResult(
                    value=trace[-1], converged=True, levels_used=level + 1,
                    trace=tuple(trace))
                active.remove(i)
        # free this level before the next one is built
        del pts, weights, state
    if failure is not None:
        raise failure
    for i in active:
        results[i] = IntegralResult(
            value=traces[i][-1], converged=False,
            levels_used=quad.max_levels, trace=tuple(traces[i]))
    return tuple(results)


def normalization_constant(n: int, convention: str = "sphere") -> float:
    """Period of the degree form: unit n-sphere volume, or ``2^n * pi``;
    ``"2pi"`` is the period of the complex pairing, whatever ``n``."""
    if convention == "sphere":
        return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
    if convention == "paper":
        return (2.0 ** n) * math.pi
    if convention == "2pi":
        return 2.0 * math.pi
    raise ValueError(f"unknown normalization convention {convention!r}")


@dataclass(frozen=True)
class Certification:
    normalized: float
    k: Optional[int]     # nearest integer when within tolerance, else None
    residual: float
    tol: float


def certify(raw: float, n: int, tol_cert: float = 1e-6,
            convention: str = "sphere") -> Certification:
    """Certify a raw integral as an integer multiple of the normalization.

    The residual is always the distance to the nearest integer, whether
    or not certification succeeds.
    """
    normalized = raw / normalization_constant(n, convention)
    nearest = round(normalized)
    residual = abs(normalized - nearest)
    k = int(nearest) if residual <= tol_cert else None
    return Certification(normalized=normalized, k=k, residual=residual,
                         tol=tol_cert)
