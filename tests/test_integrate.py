"""Quadrature and certification against closed-form integrals."""
import math

import numpy as np
import pytest

from gaussmap.errors import DomainError
from gaussmap.integrate import (
    Certification, DomainSpec, Interval, QuadratureSpec, axis_nodes, certify,
    integrate, integrate_kernels, normalization_constant, tensor_nodes,
)


@pytest.mark.parametrize("key", ["tol_conv", "tol_cert"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0,
                                   -1e-300])
def test_tolerances_must_be_finite_and_not_negative(key, value):
    with pytest.raises(ValueError, match=f"{key} must be a finite number"):
        QuadratureSpec(**{key: value})
    assert getattr(QuadratureSpec(**{key: 0.0}), key) == 0.0


def test_interval_validation():
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(0.0, math.inf)


def test_quadrature_spec_floor():
    with pytest.raises(ValueError):
        QuadratureSpec(grid=4)


def test_periodic_rule_is_exact_for_trig_polynomials():
    dom = DomainSpec([Interval(0.0, 2 * math.pi, periodic=True)])
    res = integrate(lambda t: np.sin(t[0]) ** 2, dom, QuadratureSpec(grid=8))
    assert res.converged
    assert abs(res.value - math.pi) < 1e-12


def test_gauss_nodes_are_interior_and_exact_for_polynomials():
    dom = DomainSpec([Interval(0.0, 1.0)])
    pts, w = tensor_nodes(dom, 16)
    assert np.all(pts > 0.0) and np.all(pts < 1.0)
    # degree 23 is well under the 2*16 - 1 exactness bound
    assert abs(np.sum(pts[0] ** 23 * w) - 1.0 / 24) < 1e-15


def test_gauss_legendre_rule_is_cached_read_only():
    xi, wi = np.polynomial.legendre.leggauss(24)
    for _ in range(2):
        x, w = axis_nodes(Interval(-1.0, 3.0), 24)
        assert np.array_equal(x, 1.0 + 2.0 * xi)
        assert np.array_equal(w, 2.0 * wi)
        x[:] = w[:] = 0.0  # the caller's copies, not the cached rule


def test_sphere_area_mixed_axes():
    dom = DomainSpec([Interval(0.0, 2 * math.pi, periodic=True),
                      Interval(0.0, math.pi)])
    res = integrate(lambda t: np.sin(t[1]), dom)
    assert res.converged
    assert abs(res.value - 4 * math.pi) < 1e-8


def test_doubling_stops_once_levels_agree():
    dom = DomainSpec([Interval(0.0, 1.0)])
    res = integrate(lambda t: np.exp(t[0]), dom, QuadratureSpec(grid=8))
    assert res.converged
    assert res.levels_used == 2  # already machine-exact at the first doubling
    assert abs(res.value - (math.e - 1)) < 1e-14
    assert len(res.trace) == res.levels_used


def test_rough_integrand_reports_nonconvergence():
    dom = DomainSpec([Interval(0.0, 1.0)])
    res = integrate(lambda t: np.abs(t[0] - 1 / math.pi) ** 0.3, dom,
                    QuadratureSpec(grid=8, max_levels=3, tol_conv=1e-14))
    assert not res.converged
    assert res.levels_used == 3


def test_linearity_on_shared_nodes():
    dom = DomainSpec([Interval(0.0, 2 * math.pi, periodic=True)])
    quad = QuadratureSpec(grid=16, max_levels=1)
    f = lambda t: np.sin(t[0]) ** 2
    g = lambda t: np.cos(3 * t[0]) ** 2
    both = integrate(lambda t: 2 * f(t) - 5 * g(t), dom, quad)
    assert both.value == pytest.approx(
        2 * integrate(f, dom, quad).value - 5 * integrate(g, dom, quad).value,
        abs=1e-13)


def test_split_domain_adds_up():
    # periodic rule over the full circle vs two open halves
    f = lambda t: np.exp(np.sin(t[0]))
    whole = integrate(f, DomainSpec([Interval(0, 2 * math.pi, periodic=True)]))
    left = integrate(f, DomainSpec([Interval(0, math.pi)]))
    right = integrate(f, DomainSpec([Interval(math.pi, 2 * math.pi)]))
    assert whole.converged and left.converged and right.converged
    assert abs(whole.value - (left.value + right.value)) < 1e-8


def test_normalization_constants():
    assert normalization_constant(1) == pytest.approx(2 * math.pi)
    assert normalization_constant(2) == pytest.approx(4 * math.pi)
    assert normalization_constant(3) == pytest.approx(2 * math.pi ** 2)
    assert normalization_constant(1, "paper") == pytest.approx(2 * math.pi)
    assert normalization_constant(2, "paper") == pytest.approx(4 * math.pi)
    assert normalization_constant(3, "paper") == pytest.approx(8 * math.pi)
    with pytest.raises(ValueError):
        normalization_constant(2, "other")


def test_certify_accepts_near_integer():
    cert = certify(2 * (4 * math.pi) * (1 + 1e-9), n=2)
    assert cert.k == 2
    assert cert.residual < 1e-8


def test_certify_rejects_far_value_but_reports_residual():
    cert = certify(3.9, n=2)
    assert cert.k is None
    assert cert.normalized == pytest.approx(3.9 / (4 * math.pi))
    assert cert.residual == pytest.approx(0.31035, abs=1e-5)


def test_certify_negative_integers():
    cert = certify(-2 * math.pi * (1 - 1e-10), n=1)
    assert cert.k == -1


def _failing_kernel(tag, at_level, levels):
    """A kernel that records each call, raises at level ``at_level`` and
    never converges before."""
    def kernel(pts):
        levels.append(tag)
        if levels.count(tag) == at_level + 1:
            raise DomainError(tag)
        return np.full(pts.shape[1:], float(levels.count(tag)))
    return kernel


def test_kernels_share_one_stage_per_level():
    dom = DomainSpec([Interval(0.0, 2 * math.pi, periodic=True)])
    stages = []

    def stage(pts):
        stages.append(pts.shape)
        return (pts,)
    kernels = (lambda t: np.sin(t[0]) ** 2, lambda t: np.cos(t[0]) ** 2,
               lambda t: np.exp(np.sin(t[0])))
    results = integrate_kernels(stage, kernels, dom, QuadratureSpec(grid=8))
    for kernel, res in zip(kernels, results):
        assert res == integrate(kernel, dom, QuadratureSpec(grid=8))
    assert len(stages) == max(r.levels_used for r in results)


def test_kernel_errors_surface_in_sequential_order():
    dom = DomainSpec([Interval(0.0, 1.0)])
    quad = QuadratureSpec(grid=8, max_levels=4)
    stage = lambda pts: (pts,)
    # kernel 1 fails first in time, but kernel 0 would have failed first
    # had each run through all its levels alone
    levels = []
    kernels = (_failing_kernel("a", 3, levels), _failing_kernel("b", 0, levels),
               _failing_kernel("c", 0, levels))
    with pytest.raises(DomainError, match="a"):
        integrate_kernels(stage, kernels, dom, quad)
    assert levels == ["a", "b", "a", "a", "a"]
    # once the earlier kernel converges, the later error is raised
    levels = []
    kernels = (lambda t: np.ones(t.shape[1:]), _failing_kernel("b", 2, levels),
               _failing_kernel("c", 0, levels))
    with pytest.raises(DomainError, match="b"):
        integrate_kernels(stage, kernels, dom, quad)
    assert levels == ["b", "c", "b", "b"]


def test_stage_error_raises_at_once():
    dom = DomainSpec([Interval(0.0, 1.0)])

    def stage(pts):
        if pts.shape[1] > 8:
            raise DomainError("stage")
        return (pts,)
    levels = []
    kernels = (lambda t: np.ones(t.shape[1:]), _failing_kernel("b", 0, levels))
    with pytest.raises(DomainError, match="stage"):
        integrate_kernels(stage, kernels, dom, QuadratureSpec(grid=8))
