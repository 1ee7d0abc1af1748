"""Certified invariants against closed-form cases and a polyline oracle."""
import json
import math
import time
import warnings

import numpy as np
import pytest

from gaussmap.errors import (CertificationFailed, DegenerateJacobian,
                             DomainError, SingularForm)
from gaussmap.forms import parse_form_spec
from gaussmap.geometry import ConeChart, ImmersionChart
from gaussmap.integrate import DomainSpec, Interval, QuadratureSpec
from gaussmap.invariants import (euler_characteristic, form_invariant,
                                 gauss_degree, kaehler_invariant,
                                 projective_invariants, winding_number)

CIRCLE_DOM = DomainSpec([Interval(0, 2 * math.pi, periodic=True)])
TORUS_DOM = DomainSpec([Interval(0, 2 * math.pi, periodic=True),
                        Interval(0, 2 * math.pi, periodic=True)])
SPHERE_DOM = DomainSpec([Interval(0, 2 * math.pi, periodic=True),
                         Interval(0, math.pi)])

SPHERE = ["cos(t1)*sin(t2)", "sin(t1)*sin(t2)", "cos(t2)"]
TORUS = ["(2 + 0.5*cos(t2))*cos(t1)", "(2 + 0.5*cos(t2))*sin(t1)",
         "0.5*sin(t2)"]


def polyline_turning(chart, m=4096):
    """Tangent winding of a dense polygonal approximation."""
    ts = np.linspace(0, 2 * math.pi, m, endpoint=False)[np.newaxis]
    v = chart.frame(ts).jac[:, 0]
    ang = np.arctan2(v[1], v[0])
    steps = np.diff(np.concatenate([ang, ang[:1]]))
    steps = (steps + math.pi) % (2 * math.pi) - math.pi
    return round(float(np.sum(steps) / (2 * math.pi)))


# --- plane curves ------------------------------------------------------------

def test_circle_winding():
    rep = winding_number(ImmersionChart(["cos(t1)", "sin(t1)"], 1),
                         CIRCLE_DOM)
    assert rep.converged
    assert rep.k == -1
    assert rep.extras["turning_number"] == 1
    assert rep.raw == pytest.approx(-2 * math.pi, abs=1e-10)
    assert rep.residual < 1e-10


def test_clockwise_circle_flips_sign():
    rep = winding_number(ImmersionChart(["cos(t1)", "-sin(t1)"], 1),
                         CIRCLE_DOM)
    assert rep.k == 1
    assert rep.extras["turning_number"] == -1


def test_doubly_traversed_circle():
    rep = winding_number(ImmersionChart(["cos(2*t1)", "sin(2*t1)"], 1),
                         CIRCLE_DOM)
    assert rep.k == -2
    assert rep.extras["turning_number"] == 2


def test_limacon_against_polyline_oracle():
    chart = ImmersionChart(["(1 + 2*cos(t1))*cos(t1)",
                            "(1 + 2*cos(t1))*sin(t1)"], 1)
    rep = winding_number(chart, CIRCLE_DOM)
    assert rep.extras["turning_number"] == polyline_turning(chart)
    assert abs(rep.k) == 2


def test_random_loops_match_polyline_oracle():
    rng = np.random.default_rng(41)
    for _ in range(5):
        # 1/j^2 falloff keeps the perturbed speed bounded away from zero
        a = rng.uniform(-0.5, 0.5, size=3) / np.arange(2, 5) ** 2
        b = rng.uniform(-0.5, 0.5, size=3) / np.arange(2, 5) ** 2
        x = "cos(t1)" + "".join(
            f" + {float(a[j])!r}*cos({j + 2}*t1)" for j in range(3))
        y = "sin(t1)" + "".join(
            f" + {float(b[j])!r}*sin({j + 2}*t1)" for j in range(3))
        chart = ImmersionChart([x, y], 1)
        rep = winding_number(chart, CIRCLE_DOM)
        assert rep.k is not None
        assert rep.extras["turning_number"] == polyline_turning(chart)


def test_winding_rejects_surfaces():
    with pytest.raises(ValueError):
        winding_number(ImmersionChart(SPHERE, 2), SPHERE_DOM)


def test_cusp_is_reported_from_the_driver():
    cardioid = ImmersionChart(["(1 + cos(t1))*cos(t1)",
                               "(1 + cos(t1))*sin(t1)"], 1)
    with pytest.raises(DegenerateJacobian) as exc:
        winding_number(cardioid, CIRCLE_DOM)
    assert exc.value.location["t"][0] == pytest.approx(math.pi)


# --- surfaces in 3-space ------------------------------------------------------

def test_sphere_degree_with_cross_check():
    rep = gauss_degree(ImmersionChart(SPHERE, 2), SPHERE_DOM)
    assert rep.k == 1
    assert rep.converged
    assert rep.raw == pytest.approx(4 * math.pi, abs=1e-8)
    route = rep.cross_checks["curvature_route"]
    assert route["agrees"]
    assert route["difference"] < 1e-9


def test_ellipsoid_degree_and_euler():
    chart = ImmersionChart(["2*cos(t1)*sin(t2)", "1.5*sin(t1)*sin(t2)",
                            "0.7*cos(t2)"], 2)
    rep = euler_characteristic(chart, SPHERE_DOM)
    assert rep.extras["gauss_degree"] == 1
    assert rep.extras["euler_characteristic"] == 2


def test_torus_euler_vanishes():
    rep = euler_characteristic(ImmersionChart(TORUS, 2), TORUS_DOM)
    assert rep.extras["euler_characteristic"] == 0
    assert abs(rep.raw) < 1e-9


def test_parameter_swap_leaves_degree_alone():
    # the swap negates the minors and transposes the derivative rows;
    # the two sign changes cancel, as they must for a quantity that is
    # half an Euler characteristic
    swapped = ImmersionChart(["cos(t2)*sin(t1)", "sin(t2)*sin(t1)",
                              "cos(t1)"], 2)
    dom = DomainSpec([Interval(0, math.pi),
                      Interval(0, 2 * math.pi, periodic=True)])
    rep = gauss_degree(swapped, dom)
    assert rep.k == 1


def test_strict_euler_raises_when_uncertifiable():
    chart = ImmersionChart(["2*cos(t1)*sin(t2)", "1.5*sin(t1)*sin(t2)",
                            "0.7*cos(t2)"], 2)
    coarse = QuadratureSpec(grid=8, max_levels=1, tol_cert=1e-12)
    with pytest.raises(CertificationFailed):
        euler_characteristic(chart, SPHERE_DOM, coarse, strict=True)


def test_unconverged_report_is_honest():
    chart = ImmersionChart(SPHERE, 2)
    rep = gauss_degree(chart, SPHERE_DOM,
                       QuadratureSpec(grid=8, max_levels=1),
                       cross_check=False)
    assert not rep.converged
    assert rep.levels_used == 1
    assert len(rep.trace) == 1


# --- homotopy behavior --------------------------------------------------------

def test_perturbed_circle_keeps_winding():
    for eps in (0.3, 0.1, 0.02):
        chart = ImmersionChart(
            [f"cos(t1) + {eps}*cos(2*t1)", f"sin(t1) + {eps}*sin(3*t1)"], 1)
        assert winding_number(chart, CIRCLE_DOM).k == -1


def test_ambient_perturbation_keeps_sphere_degree():
    x1, x2, x3 = SPHERE
    bent = ImmersionChart([f"{x1} + 0.05*sin({x3})",
                           f"{x2} + 0.05*cos({x1})",
                           f"{x3} + 0.05*sin({x2})"], 2)
    assert gauss_degree(bent, SPHERE_DOM, cross_check=False).k == 1


# --- complex pairing ----------------------------------------------------------

def test_kaehler_vanishes_on_closed_torus_in_4_space():
    chart = ImmersionChart(["cos(t1)", "sin(t1)", "cos(t2)", "sin(t2)"], 2)
    rep = kaehler_invariant(chart, TORUS_DOM)
    assert rep.converged
    assert abs(rep.raw) < 1e-9
    assert rep.k is None and rep.normalized is None


def test_kaehler_certification_is_opt_in():
    chart = ImmersionChart(["cos(t1)", "sin(t1)", "cos(t2)", "sin(t2)"], 2)
    rep = kaehler_invariant(chart, TORUS_DOM, certify_2pi=True)
    assert rep.k == 0
    assert rep.convention == "2pi"


# --- projective chart forms ----------------------------------------------------

def test_ellipse_projective_signature():
    cone = ConeChart([None, "1.5*cos(t1)", "sin(t1)"], 1)
    res = projective_invariants(cone, CIRCLE_DOM)
    assert res.ks == (1, 0, 0)
    assert all(r.converged for r in res.charts)


def test_projective_weights():
    cone = ConeChart([None, "cos(t1)", "sin(t1)"], 1)
    res = projective_invariants(cone, CIRCLE_DOM, alpha=(2.0, 3.0, 5.0))
    assert res.combined == pytest.approx(2.0, abs=1e-8)


def test_projective_needs_closed_domain():
    cone = ConeChart([None, "cos(t1)", "sin(t1)"], 1)
    with pytest.raises(DomainError):
        projective_invariants(cone, DomainSpec([Interval(0, 2 * math.pi)]))


# --- user forms and reports -----------------------------------------------------

def test_form_invariant_reproduces_winding():
    spec = parse_form_spec("phi(p1) d[2] - phi(p2) d[1] / |p|^2", 1, 2)
    chart = ImmersionChart(["cos(t1)", "sin(t1)"], 1)
    rep = form_invariant(chart, spec, CIRCLE_DOM)
    assert rep.k == -1


def test_report_serializes_to_json():
    rep = winding_number(ImmersionChart(["cos(t1)", "sin(t1)"], 1),
                         CIRCLE_DOM)
    payload = json.loads(json.dumps(rep.to_dict()))
    assert payload["kind"] == "winding"
    assert payload["k"] == -1
    assert isinstance(payload["trace"], list)


# --- one level engine -----------------------------------------------------------

def _count_frames(chart):
    calls = []
    build = chart.frame

    def counted(t):
        calls.append(np.shape(t))
        return build(t)
    chart.frame = counted
    return calls


@pytest.mark.parametrize("coords", [SPHERE, TORUS])
def test_euler_builds_one_frame_per_level(coords):
    chart = ImmersionChart(coords, 2)
    calls = _count_frames(chart)
    dom = SPHERE_DOM if coords is SPHERE else TORUS_DOM
    rep = euler_characteristic(chart, dom)
    assert rep.cross_checks["curvature_route"]["converged"]
    assert len(calls) == rep.levels_used
    assert len(set(calls)) == len(calls)


def test_projective_builds_one_cone_frame_per_level():
    cone = ConeChart([None, "cos(t1)", "sin(t1)"], 1)
    calls = _count_frames(cone)
    res = projective_invariants(cone, CIRCLE_DOM)
    assert len(calls) == max(r.levels_used for r in res.charts)
    assert len(set(calls)) == len(calls)


def test_later_chart_error_waits_for_the_earlier_charts():
    # chart 2's form is singular at t = 0, a node of every level; chart
    # 1's at t = pi/16, first a node at the second level; chart 0 is
    # clean.  Run one after another, chart 1 fails first.
    cone = ConeChart([None, "1 - cos(t1 - pi/16)", "1 - cos(t1)"], 1)
    with pytest.raises(SingularForm) as exc:
        projective_invariants(cone, CIRCLE_DOM)
    assert exc.value.payload() == {
        "code": "singular_form",
        "message": "curve meets the singular locus of the chart form",
        "location": {"t": [0.19634954084936207], "chart_index": 1}}


def test_collapsed_chart_still_fails_the_rank_test():
    collapsed = ImmersionChart(["t1", "t1", "t1"], 2)
    with pytest.raises(DegenerateJacobian) as exc:
        gauss_degree(collapsed, SPHERE_DOM)
    assert exc.value.payload() == {
        "code": "degenerate_jacobian",
        "message": "Jacobian loses rank on the evaluation set",
        "location": {"t": [0.0, 0.016648972382576677], "sigma_min": 0.0}}


def test_unaffordable_level_is_refused_before_allocation():
    chart = ImmersionChart(["cos(t1)*sin(t2)*sin(t3)",
                            "sin(t1)*sin(t2)*sin(t3)",
                            "cos(t2)*sin(t3)", "cos(t3)"], 3)
    dom = DomainSpec([Interval(0, 2 * math.pi, periodic=True),
                      Interval(0, math.pi), Interval(0, math.pi)])
    start = time.perf_counter()
    with pytest.raises(DomainError) as exc:
        gauss_degree(chart, dom, QuadratureSpec(grid=256))
    assert time.perf_counter() - start < 1.0
    assert exc.value.location == {"level": 1, "nodes": 256,
                                  "points": 256 ** 3,
                                  "bytes": 256 ** 3 * 1024}


# --- extreme scales ----------------------------------------------------------

S3 = ["cos(t1)*sin(t2)*sin(t3)", "sin(t1)*sin(t2)*sin(t3)", "cos(t2)*sin(t3)",
      "cos(t3)"]
S3_DOM = DomainSpec([Interval(0, 2 * math.pi, periodic=True),
                     Interval(0, math.pi), Interval(0, math.pi)])


def _scaled_chart(coords, radius):
    return ImmersionChart([f"{radius!r}*({c})" for c in coords],
                          len(coords) - 1)


@pytest.mark.parametrize("coords, domain, radius, driver, k", [
    (["cos(t1)", "sin(t1)"], CIRCLE_DOM, 1e200, winding_number, -1),
    (["cos(t1)", "sin(t1)"], CIRCLE_DOM, 1e-200, winding_number, -1),
    (SPHERE, SPHERE_DOM, 1e120, euler_characteristic, 1),
    (S3, S3_DOM, 1e30, gauss_degree, 1),
    (S3, S3_DOM, 1e-30, gauss_degree, 1)])
def test_extreme_scale_charts_certify_without_warnings(coords, domain, radius,
                                                       driver, k):
    """Frames are scaled by a power of two before the minors, so huge
    and tiny charts certify like the unit ones and warn of nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = driver(_scaled_chart(coords, radius), domain)
    assert report.k == k and report.converged
    if driver is euler_characteristic:
        assert report.extras["euler_characteristic"] == 2
        assert report.cross_checks["curvature_route"]["agrees"]


def test_scaled_frame_reports_sigma_min_in_chart_units():
    """A flattened circle fails the rank test at any scale; the payload
    of the scaled frame is in the chart's own units."""
    def sigma_min(scale):
        chart = ImmersionChart([f"{scale!r}*cos(t1)",
                                f"{scale * 1e-10!r}*sin(t1)"], 1)
        with pytest.raises(DegenerateJacobian) as exc:
            winding_number(chart, CIRCLE_DOM)
        return exc.value.location["sigma_min"]
    unit = sigma_min(1.0)
    assert 0 < unit < 1e-9
    assert sigma_min(1e200) == pytest.approx(1e200 * unit, rel=1e-12)
    assert sigma_min(1e-200) == pytest.approx(1e-200 * unit, rel=1e-12)
