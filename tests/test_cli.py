import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import gaussmap
from gaussmap import errors
from gaussmap.cli import main
from gaussmap.integrate import tensor_nodes
from gaussmap.manifest import load_manifest

ROOT = Path(__file__).resolve().parent.parent
MANIFESTS = ROOT / "manifests"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([str(a) for a in argv])
    return code, buf.getvalue()


def run_json(*argv, expect=0):
    code, out = run_cli(*argv)
    assert code == expect, out
    return json.loads(out)


def run_error(*argv):
    doc = run_json(*argv, expect=1)
    assert set(doc) == {"error"}
    return doc["error"]


def test_winding_circle():
    doc = run_json("winding", MANIFESTS / "circle.man")
    assert doc["k"] == -1
    assert doc["extras"]["turning_number"] == 1
    assert doc["convention"] == "sphere"
    assert doc["converged"]


def test_winding_double_circle():
    doc = run_json("winding", MANIFESTS / "double_circle.man")
    assert doc["k"] == -2
    doc = run_json("winding", MANIFESTS / "limacon.man")
    assert doc["k"] == -2


def test_norm_flag_is_echoed():
    doc = run_json("winding", MANIFESTS / "circle.man", "--norm", "paper")
    # for curves both conventions normalize by the same constant
    assert doc["convention"] == "paper"
    assert doc["k"] == -1


def test_gauss_degree_torus():
    doc = run_json("gauss-degree", MANIFESTS / "torus.man")
    assert doc["k"] == 0
    assert abs(doc["raw"]) < 1e-9
    assert doc["cross_checks"]["curvature_route"]["agrees"]


def test_euler_sphere_and_ellipsoid():
    doc = run_json("euler", MANIFESTS / "sphere.man")
    assert doc["extras"]["euler_characteristic"] == 2
    doc = run_json("euler", MANIFESTS / "ellipsoid.man")
    assert doc["extras"]["euler_characteristic"] == 2
    assert doc["raw"] == pytest.approx(4.0 * math.pi, rel=1e-8)


def test_coarse_grid_reports_null_certificate():
    doc = run_json("euler", MANIFESTS / "ellipsoid.man", "--grid", "8",
                   "--max-levels", "1", "--tol-cert", "1e-12")
    assert doc["k"] is None
    assert doc["extras"]["euler_characteristic"] is None
    err = run_error("euler", MANIFESTS / "ellipsoid.man", "--grid", "8",
                    "--max-levels", "1", "--tol-cert", "1e-12", "--strict")
    assert err["code"] == "certification_failed"


def test_kaehler_product_torus():
    doc = run_json("kaehler", MANIFESTS / "product_torus.man")
    assert abs(doc["raw"]) < 1e-9
    assert doc["k"] is None
    doc = run_json("kaehler", MANIFESTS / "product_torus.man",
                   "--certify-2pi")
    assert doc["k"] == 0
    assert doc["convention"] == "2pi"


def test_kaehler_on_codimension_one_surface_is_structured():
    # a surface in R^3 has 3 minors, which cannot pair as complex numbers
    err = run_error("kaehler", MANIFESTS / "sphere.man")
    assert err["code"] == "form_spec"
    assert "even number of minors" in err["message"]


def test_projective_charts():
    doc = run_json("projective", MANIFESTS / "circle_rp2.man")
    assert doc["ks"] == [1, 0, 0]
    assert doc["combined"] is None
    doc = run_json("projective", MANIFESTS / "ellipse_rp2.man",
                   "--alpha", "2", "3", "5")
    assert doc["ks"] == [1, 0, 0]
    assert doc["combined"] == pytest.approx(2.0, abs=1e-9)


def test_form_reports():
    doc = run_json("form", MANIFESTS / "sphere.man",
                   "--spec", MANIFESTS / "canonical_n2.form")
    assert doc["k"] == 1
    assert doc["raw"] == pytest.approx(4.0 * math.pi, rel=1e-9)
    doc = run_json("form", MANIFESTS / "circle_rp2.man",
                   "--spec", MANIFESTS / "omega0.form")
    assert doc["k"] == 1
    assert doc["raw"] == pytest.approx(2.0 * math.pi, rel=1e-9)


def test_mesh_total_off():
    doc = run_json("mesh-total", MANIFESTS / "tetrahedron.off")
    assert doc["certifications"]["2pi"]["k"] == 2
    assert doc["certifications"]["4pi"]["k"] == 1
    assert not doc["experimental"]
    err = run_error("mesh-total", MANIFESTS / "tetrahedron.off",
                    "--dim", "3")
    assert err["code"] == "mesh"


def test_mesh_total_simplex4():
    doc = run_json("mesh-total", MANIFESTS / "simplex4.json", "--dim", "3")
    assert doc["experimental"]
    assert doc["total"] == pytest.approx(-29.754717165844013, abs=1e-10)
    assert doc["certifications"]["2pi^2"]["k"] is None
    assert doc["certifications"]["8pi"]["k"] is None


def test_mesh_vertex():
    doc = run_json("mesh-vertex", MANIFESTS / "tetrahedron.off",
                   "--vertex", "0")
    assert doc["value"] == pytest.approx(math.pi, abs=1e-13)
    assert not doc["experimental"]
    doc = run_json("mesh-vertex", MANIFESTS / "simplex4.json",
                   "--vertex", "2")
    assert doc["value"] == pytest.approx(-5.950943433168803, abs=1e-12)
    assert doc["experimental"]
    err = run_error("mesh-vertex", MANIFESTS / "tetrahedron.off",
                    "--vertex", "99")
    assert err["code"] == "mesh"


def test_cusp_chart_is_reported(tmp_path):
    path = tmp_path / "cusp.man"
    path.write_text("kind: immersion\nn: 1\nambient: 2\n"
                    "x1 = t1^2\nx2 = t1^3\n"
                    "t1 in [-1, 1) periodic\n")
    err = run_error("winding", path)
    assert err["code"] == "degenerate_jacobian"
    assert err["location"]["t"] == [pytest.approx(0.0, abs=1e-12)]


def test_pole_node_is_reported(tmp_path):
    path = tmp_path / "bad_sphere.man"
    text = (MANIFESTS / "sphere.man").read_text()
    path.write_text(text.replace("t2 in (0, pi) open",
                                 "t2 in [0, pi) periodic"))
    err = run_error("euler", path)
    assert err["code"] == "degenerate_jacobian"


def test_manifest_error_carries_line(tmp_path):
    path = tmp_path / "broken.man"
    path.write_text("kind: immersion\nn: 1\nambient: 2\n"
                    "x1 = cos(t1)\nx2 = sin(t9)\n"
                    "t1 in [0, 2*pi) periodic\n")
    err = run_error("winding", path)
    assert err["code"] == "manifest"
    assert err["location"] == {"line": 5}


ERROR_CODES = {cls.code for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.GaussMapError)}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bound,coord,code,fragment", [
    ("0^-1", "cos(t1)", "manifest", "bad bound"),
    ("(-8)^(1/3)", "cos(t1)", "manifest", "bad bound"),
    ("2^1025", "cos(t1)", "manifest", "must be finite"),
    ("log(0)", "cos(t1)", "manifest", "log of non-positive argument"),
    ("2*pi", "cos(t1)^(0^-1)", None, ""),
    ("2*pi", "cos(t1)^((-8)^(1/3))", None, ""),
    ("2*pi", "(2+cos(t1))^(2^1025)", None, ""),
])
def test_constant_folding_errors_are_structured(tmp_path, bound, coord, code,
                                                fragment):
    path = tmp_path / "fold.man"
    path.write_text("kind: immersion\nn: 1\nambient: 2\n"
                    f"x1 = {coord}\nx2 = sin(t1)\n"
                    f"t1 in [0, {bound}) periodic\n")
    err = run_error("winding", path)
    assert err["code"] == (code or err["code"]) and err["code"] in ERROR_CODES
    assert fragment in err["message"]


def test_form_coefficient_domain_error_names_minors(tmp_path):
    spec = tmp_path / "sqrt.form"
    spec.write_text("- phi(sqrt(p1)*sqrt(p1)) d[2] ^ d[3] + phi(p2) d[1] ^ "
                    "d[3] - phi(p3) d[1] ^ d[2] / |p|^3\n")
    err = run_error("form", MANIFESTS / "sphere.man", "--spec", spec)
    assert err["code"] == "expr_domain"
    assert err["message"] == "sqrt of non-positive argument in sqrt(p1)"
    # the parameter point under t, the minor values there under p
    t, p = err["location"]["t"], err["location"]["p"]
    assert len(t) == 2 and len(p) == 3 and p[0] <= 0.0
    m = load_manifest(MANIFESTS / "sphere.man")
    frame = m.chart.frame(np.array(t))
    assert np.allclose(gaussmap.geometry.pluecker(frame).p, p, atol=1e-15)


def test_density_dump_matches_quadrature(tmp_path):
    out = tmp_path / "torus.csv"
    doc = run_json("density-dump", MANIFESTS / "torus.man",
                   "--grid", "16", "--out", out)
    assert doc["rows"] == 256
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t1,t2,density"
    assert len(lines) == 257
    density = np.array([float(ln.split(",")[-1]) for ln in lines[1:]])
    m = load_manifest(MANIFESTS / "torus.man")
    _, weights = tensor_nodes(m.domain, 16)
    total = float(density @ weights.reshape(-1))
    ref = run_json("gauss-degree", MANIFESTS / "torus.man",
                   "--grid", "16", "--max-levels", "1")
    assert abs(total - ref["raw"]) <= 1e-12 * max(1.0, abs(ref["raw"]))


def test_density_dump_needs_codimension_one():
    err = run_error("density-dump", MANIFESTS / "product_torus.man",
                    "--out", "/dev/null")
    assert err["code"] == "manifest"


def test_io_error_is_structured():
    err = run_error("winding", MANIFESTS / "no_such.man")
    assert err["code"] == "io"


def test_kind_mismatch_is_structured():
    err = run_error("winding", MANIFESTS / "sphere.man")
    assert err["code"] == "manifest"
    err = run_error("projective", MANIFESTS / "circle.man")
    assert err["code"] == "manifest"


def test_usage_errors_exit_2():
    for argv in ([], ["no-such-command"],
                 ["winding", str(MANIFESTS / "circle.man"), "--grid", "4"],
                 ["form", str(MANIFESTS / "sphere.man")],
                 ["mesh-vertex", str(MANIFESTS / "tetrahedron.off")],
                 ["mesh-total", str(MANIFESTS / "simplex4.json"),
                  "--dim", "4"]):
        with pytest.raises(SystemExit) as err:
            with redirect_stdout(io.StringIO()):
                main(argv)
        assert err.value.code == 2


def test_pretty_flag():
    plain = run_json("winding", MANIFESTS / "circle.man")
    code, out = run_cli("winding", MANIFESTS / "circle.man", "--pretty")
    assert code == 0
    assert out.count("\n") > 3
    assert json.loads(out) == plain


def test_console_script():
    # Run the declared [project.scripts] target in a fresh interpreter, the
    # way an installed launcher does, so no install is needed.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["gaussmap"]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(gaussmap.__file__).parent.parent),
                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, "winding", str(MANIFESTS / "circle.man")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["k"] == -1
