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

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError

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


def axis_nodes(interval: Interval, m: int):
    """Nodes and weights for one axis with ``m`` points."""
    if interval.periodic:
        h = interval.length / m
        x = interval.lower + h * np.arange(m)
        w = np.full(m, h)
    else:
        xi, wi = np.polynomial.legendre.leggauss(m)
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

    @property
    def last_delta(self) -> Optional[float]:
        if len(self.trace) < 2:
            return None
        return abs(self.trace[-1] - self.trace[-2])


def integrate(density: Callable[[np.ndarray], np.ndarray],
              domain: DomainSpec,
              quad: QuadratureSpec = QuadratureSpec()) -> IntegralResult:
    """Integrate a batched density over the domain, doubling until stable.

    ``density`` receives points of shape ``(n, ...)`` and must return
    values of the trailing batch shape.
    """
    trace = []
    for level in range(quad.max_levels):
        m = quad.grid * (1 << level)
        pts, weights = tensor_nodes(domain, m)
        values = np.asarray(density(pts), float)
        trace.append(float(np.sum(values * weights)))
        if level > 0 and abs(trace[-1] - trace[-2]) < quad.tol_conv:
            return IntegralResult(value=trace[-1], converged=True,
                                  levels_used=level + 1, trace=tuple(trace))
    return IntegralResult(value=trace[-1], converged=False,
                          levels_used=quad.max_levels, trace=tuple(trace))


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
