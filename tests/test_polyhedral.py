import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gaussmap.errors import (BoundaryVertex, DegenerateTetrahedron,
                             DegenerateTriangle, LinkNotSphere, MeshError,
                             OpenMesh, ZeroLengthEdge)
from gaussmap.meshes import (cube_surface, icosahedron, random_convex_sphere,
                             simplex4_boundary, subdivide_midpoint,
                             tetrahedron, torus_mesh)
from gaussmap.polyhedral import (SimplicialImmersion, exterior_angle_2,
                                 exterior_angle_3, interior_angle,
                                 load_mesh_json, load_off,
                                 polygon_exterior_angles, solid_angle,
                                 total_invariant_2, total_invariant_3)

# solid angle at a vertex of a regular tetrahedron
REGULAR_TET_CORNER = math.acos(23.0 / 27.0)


def spherical_excess(u, v, w):
    """Solid angle of three rays from the origin, by the half-tangent
    product over the arc lengths.  Independent of the Gram route."""
    def arc(x, y):
        return math.atan2(np.linalg.norm(np.cross(x, y)), float(x @ y))

    a, b, c = arc(v, w), arc(u, w), arc(u, v)
    s = (a + b + c) / 2.0
    t = (math.tan(s / 2.0) * math.tan((s - a) / 2.0)
         * math.tan((s - b) / 2.0) * math.tan((s - c) / 2.0))
    return 4.0 * math.atan(math.sqrt(max(t, 0.0)))


# ---------------------------------------------------------------------------
# angle primitives


def test_interior_angle_basics():
    assert interior_angle((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)) \
        == pytest.approx(math.pi / 2.0, abs=1e-15)
    # equilateral corner, embedded with two padding coordinates
    a = (0.0, 0.0, 7.0, -1.0)
    b = (1.0, 0.0, 7.0, -1.0)
    c = (0.5, math.sqrt(3.0) / 2.0, 7.0, -1.0)
    assert interior_angle(a, b, c) == pytest.approx(math.pi / 3.0,
                                                    abs=1e-14)
    with pytest.raises(ZeroLengthEdge):
        interior_angle(a, a, c)


def test_solid_angle_matches_spherical_excess():
    rng = np.random.default_rng(11)
    apex = np.zeros(3)
    for _ in range(50):
        u, v, w = rng.standard_normal((3, 3))
        want = spherical_excess(u, v, w)
        got = solid_angle(apex, u, v, w)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_regular_tetrahedron_corner_angle():
    P = tetrahedron().vertices
    got = solid_angle(P[0], P[1], P[2], P[3])
    assert got == pytest.approx(REGULAR_TET_CORNER, abs=1e-14)
    assert REGULAR_TET_CORNER == pytest.approx(0.5512855984325308,
                                               abs=1e-15)


def test_solid_angle_only_sees_gram_data():
    # isometric embedding into R^6 must not change the angle
    rng = np.random.default_rng(5)
    P = tetrahedron().vertices
    rays = P[1:] - P[0]
    Q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    lifted = rays @ Q.T
    got = solid_angle(np.zeros(6), *lifted)
    assert got == pytest.approx(REGULAR_TET_CORNER, abs=1e-12)


def test_solid_angle_degeneracies():
    apex = np.zeros(3)
    with pytest.raises(DegenerateTetrahedron):
        solid_angle(apex, (1, 0, 0), (0, 1, 0), (1, 1, 0))
    with pytest.raises(ZeroLengthEdge):
        solid_angle(apex, (0, 0, 0), (0, 1, 0), (0, 0, 1))


# ---------------------------------------------------------------------------
# polygons


def test_square_turns_once():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    angles = polygon_exterior_angles(square)
    assert np.allclose(angles, math.pi / 2.0, atol=1e-15)
    assert math.fsum(angles) == pytest.approx(2.0 * math.pi, abs=1e-14)
    flipped = polygon_exterior_angles(square[::-1])
    assert math.fsum(flipped) == pytest.approx(-2.0 * math.pi, abs=1e-14)


def test_pentagram_turns_twice():
    pts = [(math.cos(4.0 * math.pi * k / 5.0 + math.pi / 2.0),
            math.sin(4.0 * math.pi * k / 5.0 + math.pi / 2.0))
           for k in range(5)]
    total = math.fsum(polygon_exterior_angles(pts))
    assert total == pytest.approx(4.0 * math.pi, abs=1e-13)


def test_polygon_rejects_bad_corners():
    with pytest.raises(ZeroLengthEdge):
        polygon_exterior_angles([(0, 0), (0, 0), (1, 0)])
    with pytest.raises(DegenerateTriangle):
        polygon_exterior_angles([(0, 0), (2, 0), (1, 0)])
    with pytest.raises(MeshError):
        polygon_exterior_angles([(0, 0), (1, 0)])
    with pytest.raises(MeshError):
        polygon_exterior_angles([(0, 0, 0), (1, 0, 0), (0, 1, 0)])


# ---------------------------------------------------------------------------
# triangle meshes


def test_tetrahedron_defects():
    rep = total_invariant_2(tetrahedron())
    # three equilateral corners of pi/3 leave a defect of pi apiece
    assert np.allclose(rep.per_vertex, math.pi, atol=1e-14)
    assert rep.total == pytest.approx(4.0 * math.pi, abs=1e-13)
    assert rep.certifications["2pi"]["k"] == 2
    assert rep.certifications["4pi"]["k"] == 1
    assert rep.extras["combinatorial_euler"] == 2
    assert rep.extras["agrees"]
    assert not rep.experimental


def test_cube_total():
    rep = total_invariant_2(cube_surface())
    assert rep.total == pytest.approx(4.0 * math.pi, abs=1e-13)
    assert rep.certifications["2pi"]["k"] == 2


def test_icosahedron_is_vertex_transitive():
    rep = total_invariant_2(icosahedron())
    assert np.allclose(rep.per_vertex, math.pi / 3.0, atol=1e-13)
    assert rep.total == pytest.approx(4.0 * math.pi, abs=1e-12)


def test_torus_total_vanishes():
    rep = total_invariant_2(torus_mesh(16, 8))
    assert abs(rep.total) < 1e-9
    assert rep.certifications["2pi"]["k"] == 0
    assert rep.extras["combinatorial_euler"] == 0
    assert rep.extras["agrees"]


def test_random_convex_sphere_total():
    mesh = random_convex_sphere(102, seed=2)
    assert len(mesh.simplices) == 200
    rep = total_invariant_2(mesh)
    assert rep.total == pytest.approx(4.0 * math.pi, rel=1e-9)
    assert rep.certifications["2pi"]["k"] == 2


def test_subdivision_keeps_total_and_flattens_midpoints():
    mesh = subdivide_midpoint(tetrahedron())
    rep = total_invariant_2(mesh)
    assert rep.total == pytest.approx(4.0 * math.pi, abs=1e-12)
    # edge midpoints sit inside two flat face planes: no defect there
    for v in range(4, mesh.num_vertices):
        assert abs(rep.per_vertex[v]) < 1e-12
    assert np.allclose(rep.per_vertex[:4], math.pi, atol=1e-13)


def test_defect_agrees_with_link_angle_route():
    # the defect can also be folded over the link: each neighbour
    # contributes pi minus its two far-corner angles
    mesh = random_convex_sphere(30, seed=3)
    P = mesh.vertices
    for v in range(6):
        star = [t for t in mesh.simplices if v in t]
        link = {u for t in star for u in t if u != v}
        folded = 0.0
        for mu in link:
            angles = [interior_angle(P[mu],
                                     *[P[i] for i in t if i != mu])
                      for t in star if mu in t]
            assert len(angles) == 2
            folded += math.pi - math.fsum(angles)
        direct = exterior_angle_2(mesh, v)
        assert direct == pytest.approx(2.0 * math.pi - folded, rel=1e-10,
                                       abs=1e-12)


def test_open_mesh_is_rejected():
    mesh = SimplicialImmersion([(0, 0, 0), (1, 0, 0), (0, 1, 0)],
                               [(0, 1, 2)])
    with pytest.raises(OpenMesh):
        total_invariant_2(mesh)
    with pytest.raises(BoundaryVertex):
        exterior_angle_2(mesh, 0)


def test_pinched_vertex_is_rejected():
    # two tetrahedron surfaces glued at a single vertex: every edge is
    # shared by two triangles, but the link at the pinch splits
    vertices = [(0.0, 0.0, 0.0),
                (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0)]
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
             (0, 4, 5), (0, 4, 6), (0, 5, 6), (4, 5, 6)]
    mesh = SimplicialImmersion(vertices, faces)
    with pytest.raises(LinkNotSphere):
        exterior_angle_2(mesh, 0)
    with pytest.raises(LinkNotSphere):
        total_invariant_2(mesh)
    # away from the pinch the defects are still fine: each outer corner
    # sees two right-isoceles angles of pi/4 and one equilateral pi/3
    assert exterior_angle_2(mesh, 4) \
        == pytest.approx(7.0 * math.pi / 6.0, abs=1e-14)


def test_collinear_triangle_is_rejected():
    vertices = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0),
                (0.0, 1.0, 0.0)]
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    mesh = SimplicialImmersion(vertices, faces)
    with pytest.raises(DegenerateTriangle):
        exterior_angle_2(mesh, 0)


def test_mesh_validation():
    with pytest.raises(MeshError):
        SimplicialImmersion([(0, 0), (1, 0)], [(0, 1, 1)])
    with pytest.raises(MeshError):
        SimplicialImmersion([(0, 0), (1, 0)], [(0, 1, 2)])
    with pytest.raises(MeshError):
        SimplicialImmersion([(0, 0), (1, 0), (0, 1)], [])
    with pytest.raises(MeshError):
        SimplicialImmersion([(0, 0), (1, 0), (0, 1), (1, 1)],
                            [(0, 1, 2), (0, 1, 2, 3)])
    with pytest.raises(MeshError):
        SimplicialImmersion([(0, 0), (1, 0), (0, math.inf)], [(0, 1, 2)])


def test_dimension_mismatch():
    with pytest.raises(MeshError):
        total_invariant_2(simplex4_boundary())
    with pytest.raises(MeshError):
        total_invariant_3(tetrahedron())
    with pytest.raises(MeshError):
        exterior_angle_3(tetrahedron(), 0)


# ---------------------------------------------------------------------------
# tetrahedral meshes (experimental)


def test_simplex4_boundary_total_frozen():
    rep = total_invariant_3(simplex4_boundary())
    assert rep.experimental
    # every vertex sees four star cells, each link vertex three of them
    each = -4.0 * math.pi + 12.0 * REGULAR_TET_CORNER
    assert np.allclose(rep.per_vertex, each, atol=1e-12)
    want = 60.0 * REGULAR_TET_CORNER - 20.0 * math.pi
    assert want == pytest.approx(-29.754717165844013, abs=1e-12)
    assert rep.total == pytest.approx(want, abs=1e-10)
    two_pi_sq = rep.certifications["2pi^2"]
    eight_pi = rep.certifications["8pi"]
    assert two_pi_sq["normalized"] == pytest.approx(-1.5073915810931509,
                                                    abs=1e-12)
    assert eight_pi["normalized"] == pytest.approx(-1.1839025793113362,
                                                   abs=1e-12)
    # neither convention lands on an integer here
    assert two_pi_sq["k"] is None
    assert eight_pi["k"] is None


def test_simplex4_total_is_stationary_under_perturbation():
    base = simplex4_boundary()
    rng = np.random.default_rng(7)
    moved = SimplicialImmersion(
        base.vertices + 1e-6 * rng.standard_normal(base.vertices.shape),
        base.simplices)
    drift = total_invariant_3(moved).total - total_invariant_3(base).total
    assert abs(drift) < 1e-9


def test_total_3_is_similarity_invariant():
    base = simplex4_boundary()
    rng = np.random.default_rng(13)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    moved = SimplicialImmersion(
        2.7 * base.vertices @ Q.T + np.array([3.0, -1.0, 0.5, 9.0]),
        base.simplices)
    got = total_invariant_3(moved).total
    assert got == pytest.approx(total_invariant_3(base).total, abs=1e-11)


def test_open_tetrahedral_mesh_rejected():
    base = simplex4_boundary()
    mesh = SimplicialImmersion(base.vertices, base.simplices[1:])
    with pytest.raises(OpenMesh):
        total_invariant_3(mesh)
    missing = base.simplices[0]
    with pytest.raises(BoundaryVertex):
        exterior_angle_3(mesh, missing[0])


# ---------------------------------------------------------------------------
# file formats


def test_off_roundtrip(tmp_path):
    path = tmp_path / "tet.off"
    mesh = tetrahedron()
    lines = ["OFF", "# a comment", "", "4 4 6"]
    lines += [" ".join(repr(float(x)) for x in v) for v in mesh.vertices]
    lines += ["3 " + " ".join(str(i) for i in f) for f in mesh.simplices]
    path.write_text("\n".join(lines) + "\n")
    loaded = load_off(path)
    assert np.array_equal(loaded.vertices, mesh.vertices)
    assert loaded.simplices == mesh.simplices


def test_noff_carries_ambient_dimension(tmp_path):
    path = tmp_path / "tet4.off"
    mesh = tetrahedron()
    lifted = np.hstack([mesh.vertices, np.full((4, 1), 2.5)])
    lines = ["nOFF", "4", "4 4 6"]
    lines += [" ".join(repr(float(x)) for x in v) for v in lifted]
    lines += ["3 " + " ".join(str(i) for i in f) for f in mesh.simplices]
    path.write_text("\n".join(lines) + "\n")
    loaded = load_off(path)
    assert loaded.vertices.shape == (4, 4)
    rep = total_invariant_2(loaded)
    assert rep.total == pytest.approx(4.0 * math.pi, abs=1e-13)


def test_off_errors(tmp_path):
    bad_face = tmp_path / "quad.off"
    bad_face.write_text("OFF\n4 1 4\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n"
                        "4 0 1 2 3\n")
    with pytest.raises(MeshError):
        load_off(bad_face)
    no_header = tmp_path / "plain.off"
    no_header.write_text("4 4 6\n0 0 0\n")
    with pytest.raises(MeshError):
        load_off(no_header)
    truncated = tmp_path / "short.off"
    truncated.write_text("OFF\n4 4 6\n0 0 0\n")
    with pytest.raises(MeshError):
        load_off(truncated)


def test_mesh_json_roundtrip(tmp_path):
    path = tmp_path / "cells.json"
    mesh = simplex4_boundary()
    path.write_text(json.dumps({
        "vertices": mesh.vertices.tolist(),
        "simplices": [list(s) for s in mesh.simplices],
    }))
    loaded = load_mesh_json(path)
    assert np.array_equal(loaded.vertices, mesh.vertices)
    assert loaded.simplices == mesh.simplices
    bad = tmp_path / "bad.json"
    bad.write_text("{\"vertices\": []}")
    with pytest.raises(MeshError):
        load_mesh_json(bad)
    worse = tmp_path / "worse.json"
    worse.write_text("not json")
    with pytest.raises(MeshError):
        load_mesh_json(worse)


# ---------------------------------------------------------------------------
# batched totals against the single-vertex route and a per-vertex loop


def _hull_mesh(count, dim, seed):
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return SimplicialImmersion(pts, ConvexHull(pts).simplices)


def _looped_defect(mesh, v):
    """The defect as a loop over the star found by scanning every
    simplex: triangle corner angles, or, for tetrahedra, the solid
    angles at each link vertex folded against 2*pi and then 4*pi."""
    P = mesh.vertices
    star = [s for s in mesh.simplices if v in s]
    if mesh.dim == 2:
        total = 0.0
        for tri in star:
            u, w = [P[i] - P[v] for i in tri if i != v]
            nu, nw = math.sqrt(float(u @ u)), math.sqrt(float(w @ w))
            dot = float(u @ w)
            total += math.atan2(
                math.sqrt(max(nu * nu * nw * nw - dot * dot, 0.0)), dot)
        return 2.0 * math.pi - total
    total = 0.0
    for mu in sorted({i for s in star for i in s if i != v}):
        omega = sum(solid_angle(P[mu], *[P[i] for i in s if i != mu])
                    for s in star if mu in s)
        total += 2.0 * math.pi - omega
    return 4.0 * math.pi - total


@pytest.mark.parametrize("make", [
    lambda: random_convex_sphere(60, seed=4),
    lambda: torus_mesh(12, 6),
    lambda: subdivide_midpoint(tetrahedron()),
    simplex4_boundary,
    lambda: _hull_mesh(40, 4, 8),
], ids=["convex_sphere", "torus", "subdivided", "simplex4", "hull4"])
def test_total_per_vertex_matches_single_vertex_and_loop(make):
    mesh = make()
    total, single = ((total_invariant_2, exterior_angle_2) if mesh.dim == 2
                     else (total_invariant_3, exterior_angle_3))
    got = np.array(total(mesh).per_vertex)
    alone = [single(mesh, v) for v in range(mesh.num_vertices)]
    looped = [_looped_defect(mesh, v) for v in range(mesh.num_vertices)]
    assert np.max(np.abs(got - alone)) <= 1e-12
    assert np.max(np.abs(got - looped)) <= 1e-12


def test_star_and_face_counts_match_a_scan():
    mesh = _hull_mesh(30, 4, 2)
    for v in range(mesh.num_vertices):
        assert mesh.star(v) == [s for s in mesh.simplices if v in s]
    counts = Counter()
    for s in mesh.simplices:
        for drop in s:
            counts[frozenset(i for i in s if i != drop)] += 1
    got = mesh.face_counts()
    assert got == counts
    assert list(got) == list(counts)


def _pinched(first):
    """Two tetrahedron surfaces glued at one vertex, numbered ``first``."""
    vertices = [(0.0, 0.0, 0.0),
                (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0)]
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
             (0, 4, 5), (0, 4, 6), (0, 5, 6), (4, 5, 6)]
    label = [first] + [i for i in range(7) if i != first]
    moved = [None] * 7
    for old, new in enumerate(label):
        moved[new] = vertices[old]
    return SimplicialImmersion(moved, [tuple(label[i] for i in f)
                                       for f in faces])


def _flat_simplex4(apex):
    base = simplex4_boundary()
    P = base.vertices.copy()
    P[0] = apex
    return SimplicialImmersion(P, base.simplices)


def _error_cases():
    base = simplex4_boundary()
    tet = tetrahedron()
    flat = {"code": "degenerate_tetrahedron",
            "message": "tetrahedron is flat at the apex",
            "location": {"gram_determinant": 0.0}}
    yield pytest.param(
        total_invariant_2,
        SimplicialImmersion([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)]),
        {"code": "open_mesh",
         "message": "face [1, 2] belongs to 1 simplices, need 2",
         "location": {"face": [1, 2], "count": 1}}, id="open")
    yield pytest.param(
        total_invariant_3,
        SimplicialImmersion(base.vertices, base.simplices[1:]),
        {"code": "open_mesh",
         "message": "face [2, 3, 4] belongs to 1 simplices, need 2",
         "location": {"face": [2, 3, 4], "count": 1}}, id="open_3")
    for first in (0, 3):
        yield pytest.param(
            total_invariant_2, _pinched(first),
            {"code": "link_not_sphere",
             "message": f"link of vertex {first} is disconnected",
             "location": {"vertex": first}}, id=f"pinched_{first}")
    yield pytest.param(
        total_invariant_2,
        SimplicialImmersion([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                             (2.0, 0.0, 0.0), (0.0, 1.0, 0.0)],
                            tet.simplices),
        {"code": "degenerate_triangle",
         "message": "triangle (0, 1, 2) is collinear",
         "location": {"triangle": [0, 1, 2]}}, id="collinear")
    yield pytest.param(
        total_invariant_2,
        SimplicialImmersion([(1.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                             (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)],
                            tet.simplices),
        {"code": "zero_length_edge",
         "message": "triangle (0, 1, 2) has a zero-length edge",
         "location": {"triangle": [0, 1, 2]}}, id="zero_edge")
    yield pytest.param(
        total_invariant_2,
        SimplicialImmersion([(5.0, 5.0, 5.0)] + tet.vertices.tolist(),
                            [tuple(i + 1 for i in f)
                             for f in tet.simplices]),
        {"code": "mesh", "message": "vertex 0 belongs to no simplex"},
        id="isolated")
    yield pytest.param(total_invariant_3,
                       _flat_simplex4((0.5, 0.5, 0.0, 0.0)), flat,
                       id="flat_tetrahedron")
    yield pytest.param(total_invariant_3,
                       _flat_simplex4((1 / 3, 1 / 3, 1 / 3, 0.0)), flat,
                       id="flat_tetrahedron_inexact")


@pytest.mark.parametrize("total, mesh, payload", _error_cases())
def test_total_error_payloads(total, mesh, payload):
    with pytest.raises(MeshError) as exc:
        total(mesh)
    assert exc.value.payload() == payload


def test_importing_the_package_leaves_scipy_out():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, gaussmap; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# malformed input


def test_ragged_off_vertex_row_is_a_mesh_error(tmp_path):
    path = tmp_path / "ragged.off"
    path.write_text("OFF\n4 4 6\n0 0 0\n1 0 0\n0 1\n0 0 1\n"
                    "3 0 1 2\n3 0 1 3\n3 0 2 3\n3 1 2 3\n")
    with pytest.raises(MeshError):
        load_off(path)


def test_ragged_json_vertex_row_is_a_mesh_error(tmp_path):
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps({
        "vertices": [[0, 0, 0], [1, 0, 0], [0, 1], [0, 0, 1]],
        "simplices": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}))
    with pytest.raises(MeshError):
        load_mesh_json(path)


def test_non_integer_simplex_index_is_a_mesh_error(tmp_path):
    path = tmp_path / "fraction.json"
    path.write_text(json.dumps({
        "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "simplices": [[0, 1, 2.5], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}))
    with pytest.raises(MeshError, match="non-integer"):
        load_mesh_json(path)
    # an integral float still names its vertex
    whole = SimplicialImmersion(tetrahedron().vertices,
                                [[0.0, 1.0, 2.0], [0, 1, 3], [0, 2, 3],
                                 [1, 2, 3]])
    assert whole.simplices == tetrahedron().simplices


@pytest.mark.parametrize("index, named", [
    (1e30, "1e+30"), (-1e30, "-1e+30"), (2.0 ** 63, "9.223372036854776e+18"),
    (10 ** 19, "1e+19"), (7.0, "7")])
def test_huge_simplex_index_is_named_without_warnings(tmp_path, index,
                                                      named):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "simplices": [[0, 1, index], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshError) as err:
            load_mesh_json(path)
    assert err.value.message == \
        f"simplex 0 references vertex {named}, have 4"


def test_huge_simplex_index_checks_keep_their_order():
    vertices = tetrahedron().vertices
    with pytest.raises(MeshError, match=r"non-integer.*\[1e\+30, 0.5, 1.0\]"):
        SimplicialImmersion(vertices, [[1e30, 0.5, 1.0]])
    with pytest.raises(MeshError, match=r"repeats a vertex: \(1e\+30, 1e\+30, 0\)"):
        SimplicialImmersion(vertices, [[1e30, 1e30, 0.0]])
    with pytest.raises(MeshError, match="references vertex 1e\\+30"):
        SimplicialImmersion(vertices, [[1e30, 2e30, 0.0]])


@pytest.mark.parametrize("index", [10 ** 20, -10 ** 20])
def test_simplex_index_past_64_bits_is_named(tmp_path, index):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "simplices": [[index, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}))
    with pytest.raises(MeshError) as err:
        load_mesh_json(path)
    assert err.value.message == \
        f"simplex 0 references vertex {index}, have 4"


def test_simplex_index_past_64_bits_keeps_the_check_order():
    vertices = tetrahedron().vertices
    with pytest.raises(MeshError, match="must be integers"):
        SimplicialImmersion(vertices, [[10 ** 20, 0.5, 1]])
    with pytest.raises(MeshError, match=r"simplex 1 repeats a vertex: "
                                        r"\(0, 100000000000000000000, 0\)"):
        SimplicialImmersion(vertices, [[0, 1, 2], [0, 10 ** 20, 0],
                                       [10 ** 21, 1, 2]])


@pytest.mark.parametrize("single, make", [
    (exterior_angle_2, tetrahedron), (exterior_angle_3, simplex4_boundary)])
def test_vertex_out_of_range_is_a_mesh_error(single, make):
    mesh = make()
    for v in (-1, mesh.num_vertices, mesh.num_vertices + 7):
        with pytest.raises(MeshError, match="out of range"):
            single(mesh, v)
