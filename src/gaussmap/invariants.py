"""Integer invariants of closed immersed charts.

Each driver integrates a density over the parameter domain, divides by
the matching normalization constant and certifies the nearest integer.
Degeneracies are checked on every quadrature grid, so a chart that
loses rank anywhere the integrator looks fails loudly with the offending
parameter point.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import CertificationFailed, DomainError, FormSpecError
from .forms import (PlueckerFormSpec, canonical_density, gauss_bonnet_density,
                    generic_pluecker_density, kaehler_density,
                    projective_density)
from .geometry import (ConeChart, ImmersionChart, JetFrame, immersion_check,
                       minor_index_sets, pluecker)
from .integrate import (DomainSpec, IntegralResult, QuadratureSpec, certify,
                        integrate, normalization_constant)

__all__ = [
    "InvariantReport", "ProjectiveInvariants", "winding_number",
    "gauss_degree", "euler_characteristic", "kaehler_invariant",
    "projective_invariants", "form_invariant",
]


@dataclass(frozen=True)
class InvariantReport:
    kind: str
    raw: float
    normalized: Optional[float]
    k: Optional[int]
    residual: Optional[float]
    converged: bool
    levels_used: int
    trace: tuple
    convention: Optional[str] = None
    extras: dict = field(default_factory=dict)
    cross_checks: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "raw": self.raw,
            "normalized": self.normalized,
            "k": self.k,
            "residual": self.residual,
            "converged": self.converged,
            "levels_used": self.levels_used,
            "trace": list(self.trace),
            "convention": self.convention,
            "extras": dict(self.extras),
            "cross_checks": dict(self.cross_checks),
        }


def _checked_density(chart, kernel: Callable[[JetFrame], np.ndarray]):
    def density(pts):
        frame = chart.frame(pts)
        immersion_check(frame)
        return kernel(frame)
    return density


def _report(kind: str, res: IntegralResult, n: int, quad: QuadratureSpec,
            convention: str, **kw) -> InvariantReport:
    cert = certify(res.value, n, quad.tol_cert, convention)
    return InvariantReport(
        kind=kind, raw=res.value, normalized=cert.normalized, k=cert.k,
        residual=cert.residual, converged=res.converged,
        levels_used=res.levels_used, trace=res.trace,
        convention=convention, **kw)


def winding_number(chart: ImmersionChart, domain: DomainSpec,
                   quad: QuadratureSpec = QuadratureSpec(),
                   convention: str = "sphere") -> InvariantReport:
    """Certified degree of the direction map of a closed plane curve.

    The turning number of the curve is the negative of the certified
    integer, a consequence of the minor storage order; both are
    reported.
    """
    if chart.n != 1 or chart.ambient_dim != 2:
        raise ValueError("winding numbers are for plane curves")
    density = _checked_density(chart, lambda f: canonical_density(pluecker(f)))
    res = integrate(density, domain, quad)
    report = _report("winding", res, 1, quad, convention)
    turning = None if report.k is None else -report.k
    return replace(report, extras={"turning_number": turning})


def gauss_degree(chart: ImmersionChart, domain: DomainSpec,
                 quad: QuadratureSpec = QuadratureSpec(),
                 convention: str = "sphere",
                 cross_check: Optional[bool] = None) -> InvariantReport:
    """Certified degree of the unit-normal map in codimension one.

    For surfaces in 3-space the same number is recomputed through the
    curvature route by default; both raw values and their difference are
    reported so neither path can silently drift.
    """
    n = chart.n
    if chart.ambient_dim != n + 1:
        raise ValueError("degree route needs codimension one")
    density = _checked_density(chart, lambda f: canonical_density(pluecker(f)))
    res = integrate(density, domain, quad)
    report = _report("gauss_degree", res, n, quad, convention)

    if cross_check is None:
        cross_check = (n == 2)
    if cross_check:
        if n != 2:
            raise ValueError("curvature cross-check exists only for "
                             "surfaces in 3-space")
        alt = integrate(_checked_density(chart, gauss_bonnet_density),
                        domain, quad)
        diff = abs(alt.value - res.value)
        checks = {"curvature_route": {
            "raw": alt.value,
            "converged": alt.converged,
            "difference": diff,
            "agrees": bool(diff <= max(10 * quad.tol_conv,
                                       1e-10 * max(1.0, abs(res.value)))),
        }}
        report = replace(report, cross_checks=checks)
    return report


def euler_characteristic(chart: ImmersionChart, domain: DomainSpec,
                         quad: QuadratureSpec = QuadratureSpec(),
                         convention: str = "sphere",
                         strict: bool = False) -> InvariantReport:
    """Euler characteristic of a closed surface in 3-space, as twice the
    certified normal-map degree; even by construction."""
    report = gauss_degree(chart, domain, quad, convention)
    chi = None if report.k is None else 2 * report.k
    if strict and chi is None:
        raise CertificationFailed(
            "total curvature does not certify to an integer degree",
            location={"normalized": report.normalized,
                      "residual": report.residual})
    extras = dict(report.extras)
    extras["euler_characteristic"] = chi
    extras["gauss_degree"] = report.k
    return replace(report, kind="euler_characteristic", extras=extras)


def kaehler_invariant(chart: ImmersionChart, domain: DomainSpec,
                      quad: QuadratureSpec = QuadratureSpec(),
                      certify_2pi: bool = False) -> InvariantReport:
    """Pairing of the complex 2-form with a closed surface.

    The form is exact away from the origin of minor space, so the raw
    value of any closed chart is zero; certification against multiples
    of 2*pi is opt-in for that reason.
    """
    if chart.n != 2:
        raise ValueError("the complex pairing is a surface invariant")
    minors = len(minor_index_sets(2, chart.ambient_dim))
    if minors % 2:
        raise FormSpecError(
            f"the complex pairing needs an even number of minors; a "
            f"surface in R^{chart.ambient_dim} has {minors}")
    density = _checked_density(chart, lambda f: kaehler_density(pluecker(f)))
    res = integrate(density, domain, quad)
    if certify_2pi:
        return _report("kaehler", res, 2, quad, "2pi")
    return InvariantReport(
        kind="kaehler", raw=res.value, normalized=None, k=None,
        residual=None, converged=res.converged, levels_used=res.levels_used,
        trace=res.trace, convention=None)


@dataclass(frozen=True)
class ProjectiveInvariants:
    charts: tuple           # one InvariantReport per affine chart form
    ks: tuple               # certified integers (entries may be None)
    alpha: Optional[tuple] = None
    combined: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "kind": "projective",
            "charts": [r.to_dict() for r in self.charts],
            "ks": list(self.ks),
            "alpha": None if self.alpha is None else list(self.alpha),
            "combined": self.combined,
        }


def projective_invariants(cone: ConeChart, domain: DomainSpec,
                          quad: QuadratureSpec = QuadratureSpec(),
                          alpha: Optional[tuple] = None
                          ) -> ProjectiveInvariants:
    """Certified pairings of a closed curve through the projective plane
    with the three affine chart forms, optionally combined with weights.
    """
    if cone.n != 1 or cone.ambient_dim != 3:
        raise ValueError("projective invariants are for curves through "
                         "the projective plane")
    if not domain.fully_periodic:
        raise DomainError("projective invariants need a closed curve: "
                          "every axis must be periodic")
    if alpha is not None:
        alpha = tuple(float(a) for a in alpha)
        if len(alpha) != 3:
            raise ValueError("need exactly three weights")

    reports = []
    for i in range(3):
        density = _checked_density(
            cone, lambda f, i=i: projective_density(i, pluecker(f)))
        res = integrate(density, domain, quad)
        cert = certify(res.value, 1, quad.tol_cert, "sphere")
        reports.append(InvariantReport(
            kind=f"projective_chart_{i}", raw=res.value,
            normalized=cert.normalized, k=cert.k, residual=cert.residual,
            converged=res.converged, levels_used=res.levels_used,
            trace=res.trace, convention="sphere"))
    ks = tuple(r.k for r in reports)
    combined = None
    if alpha is not None:
        combined = float(sum(a * r.normalized for a, r in
                             zip(alpha, reports)))
    return ProjectiveInvariants(charts=tuple(reports), ks=ks, alpha=alpha,
                                combined=combined)


def form_invariant(chart, spec: PlueckerFormSpec, domain: DomainSpec,
                   quad: QuadratureSpec = QuadratureSpec(),
                   convention: str = "sphere") -> InvariantReport:
    """Pairing of a user-supplied form recipe with a chart.

    Certification normalizes by the constant for the form's own degree;
    for forms that are not degree forms the integer slot may simply stay
    empty.
    """
    density = _checked_density(
        chart, lambda f: generic_pluecker_density(spec, pluecker(f)))
    res = integrate(density, domain, quad)
    return _report("form", res, spec.n, quad, convention)
