import math

import pytest

from gaussmap.errors import GaussMapError, ManifestError
from gaussmap.geometry import ConeChart, ImmersionChart
from gaussmap.invariants import projective_invariants, winding_number
from gaussmap.manifest import load_manifest, parse_manifest

CIRCLE = """\
# plane circle, one counterclockwise pass
kind: immersion
n: 1
ambient: 2
x1 = cos(t1)
x2 = sin(t1)
t1 in [0, 2*pi) periodic
"""

SPHERE = """\
kind: immersion
n: 2
ambient: 3
x1 = cos(t1) * sin(t2)
x2 = sin(t1) * sin(t2)
x3 = cos(t2)
t1 in [0, 2*pi) periodic
t2 in (0, pi) open
grid: 24
max_levels: 4
tol_conv: 1e-8
tol_cert: 1e-5
"""

CONE = """\
kind: cone
n: 1
ambient: 3
x1 = @chart
x2 = cos(t1)
x3 = sin(t1)
t1 in [0, 2*pi) periodic
"""


def test_circle_manifest():
    m = parse_manifest(CIRCLE)
    assert m.kind == "immersion"
    assert isinstance(m.chart, ImmersionChart)
    assert m.chart.n == 1
    assert m.chart.ambient_dim == 2
    assert m.domain.n == 1
    iv = m.domain.intervals[0]
    assert iv.periodic
    assert iv.lower == 0.0
    assert iv.upper == pytest.approx(2.0 * math.pi, abs=1e-15)
    # defaults
    assert m.quad.grid == 16
    assert m.quad.max_levels == 6


def test_quadrature_overrides():
    m = parse_manifest(SPHERE)
    assert m.quad.grid == 24
    assert m.quad.max_levels == 4
    assert m.quad.tol_conv == pytest.approx(1e-8)
    assert m.quad.tol_cert == pytest.approx(1e-5)
    assert m.domain.intervals[0].periodic
    assert not m.domain.intervals[1].periodic


def test_line_order_does_not_matter():
    shuffled = "\n".join(reversed(CIRCLE.strip().splitlines()))
    m = parse_manifest(shuffled)
    assert m.chart.ambient_dim == 2


def test_cone_manifest():
    m = parse_manifest(CONE)
    assert m.kind == "cone"
    assert isinstance(m.chart, ConeChart)
    assert m.chart.slot == 0
    assert m.chart.n == 1


def test_constant_bound_expressions():
    m = parse_manifest(CIRCLE.replace(
        "t1 in [0, 2*pi) periodic", "t1 in [-pi, pi) periodic"))
    iv = m.domain.intervals[0]
    assert iv.lower == pytest.approx(-math.pi)
    assert iv.upper == pytest.approx(math.pi)


def test_parsed_manifest_feeds_invariants():
    m = parse_manifest(CIRCLE)
    rep = winding_number(m.chart, m.domain, m.quad)
    assert rep.k == -1
    c = parse_manifest(CONE)
    rep = projective_invariants(c.chart, c.domain, c.quad)
    assert rep.ks == (1, 0, 0)


def test_load_manifest(tmp_path):
    path = tmp_path / "circle.man"
    path.write_text(CIRCLE)
    m = load_manifest(path)
    assert m.chart.ambient_dim == 2


def expect_error(text, fragment, line=None):
    with pytest.raises(ManifestError) as err:
        parse_manifest(text)
    assert fragment in err.value.message
    if line is not None:
        assert err.value.location == {"line": line}
    return err.value


@pytest.mark.parametrize("setting", ["tol_cert: nan", "tol_conv: -1",
                                     "tol_conv: inf"])
def test_bad_tolerance_keys_are_manifest_errors(setting):
    expect_error(CIRCLE + setting + "\n", "must be a finite number >= 0")


def test_unrecognized_line():
    expect_error(CIRCLE + "wibble wobble\n", "unrecognized", line=8)


def test_duplicate_lines():
    expect_error(CIRCLE + "n: 2\n", "duplicate setting", line=8)
    expect_error(CIRCLE + "x2 = t1\n", "duplicate coordinate", line=8)
    expect_error(CIRCLE + "t1 in (0, 1) open\n", "duplicate interval",
                 line=8)


def test_missing_required_settings():
    err = expect_error("n: 1\nambient: 2\nx1 = t1\nx2 = t1\n"
                       "t1 in (0, 1) open\n", "kind")
    assert err.location == {"line": None}
    expect_error(CIRCLE.replace("n: 1\n", ""), "'n'")


def test_bad_kind_and_counts():
    expect_error(CIRCLE.replace("immersion", "banana"), "kind", line=2)
    expect_error(CIRCLE.replace("n: 1", "n: 0"), "at least 1", line=3)
    expect_error(CIRCLE.replace("n: 1", "n: one"), "integer", line=3)
    expect_error(CIRCLE.replace("ambient: 2", "ambient: 3"),
                 "need coordinates")
    expect_error(SPHERE.replace("t2 in (0, pi) open\n", ""),
                 "need intervals")


def test_bad_component_expression():
    expect_error(CIRCLE.replace("x2 = sin(t1)", "x2 = sin(t1"),
                 "bad expression for x2", line=6)
    expect_error(CIRCLE.replace("x2 = sin(t1)", "x2 = sin(t2)"),
                 "bad expression for x2", line=6)


def test_chart_slot_rules():
    expect_error(CIRCLE.replace("x2 = sin(t1)", "x2 = @chart"),
                 "only valid in cone", line=6)
    expect_error(CONE.replace("x1 = @chart", "x1 = 1"), "exactly one")
    expect_error(CONE.replace("x2 = cos(t1)", "x2 = @chart"),
                 "exactly one")


def test_interval_style_must_match():
    expect_error(CIRCLE.replace("[0, 2*pi) periodic", "(0, 2*pi) periodic"),
                 "periodic intervals", line=7)
    expect_error(CIRCLE.replace("[0, 2*pi) periodic", "[0, 2*pi) open"),
                 "open intervals", line=7)
    expect_error(CIRCLE.replace("[0, 2*pi) periodic", "[0 2*pi) periodic"),
                 "two bounds", line=7)
    expect_error(CIRCLE.replace("[0, 2*pi) periodic",
                                "[0, 1, 2) periodic"),
                 "two bounds", line=7)


def test_bad_bounds():
    expect_error(CIRCLE.replace("[0, 2*pi)", "[0, t1)"), "bad bound",
                 line=7)
    expect_error(CIRCLE.replace("[0, 2*pi)", "[1, 0)"), "", line=7)
    expect_error(CIRCLE.replace("[0, 2*pi)", "[0, 1/0)"), "bad bound",
                 line=7)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bound", ["0^-1", "(-8)^(1/3)", "2^1025"])
def test_bounds_that_fail_to_fold(bound):
    err = expect_error(CIRCLE.replace("[0, 2*pi)", f"[0, {bound})"), "",
                       line=7)
    assert "bad bound" in err.message or "must be finite" in err.message


def test_bound_domain_error_names_the_function():
    expect_error(CIRCLE.replace("[0, 2*pi)", "[log(0), 1)"),
                 "log of non-positive argument", line=7)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("coord", ["cos(t1)^(0^-1)", "cos(t1)^((-8)^(1/3))",
                                   "(2+cos(t1))^(2^1025)"])
def test_coordinates_that_fail_to_fold(coord):
    m = parse_manifest(CIRCLE.replace("x1 = cos(t1)", f"x1 = {coord}"))
    with pytest.raises(GaussMapError):
        winding_number(m.chart, m.domain, m.quad)


def test_bad_quadrature_settings():
    expect_error(CIRCLE + "grid: tiny\n", "integer", line=8)
    err = expect_error(CIRCLE + "grid: 4\n", "")
    assert "grid" in err.message or "8" in err.message


def test_cone_needs_room():
    text = ("kind: cone\nn: 2\nambient: 2\nx1 = @chart\n"
            "x2 = cos(t1) + t2\n"
            "t1 in [0, 2*pi) periodic\nt2 in (0, 1) open\n")
    expect_error(text, "ambient >= n + 1", line=3)
