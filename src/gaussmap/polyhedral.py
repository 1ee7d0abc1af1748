"""Discrete analogues of the smooth invariants on simplicial meshes.

On a closed triangle mesh the angle defect concentrates curvature at
vertices, and its total is the Euler characteristic times 2*pi.  The
three-dimensional analogue replaces interior angles by solid angles of
the star tetrahedra at link vertices; that construction and its totals
are marked experimental throughout.

All angles are computed from Gram data (dot products only), so meshes
may live in any ambient dimension.
"""
from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from .errors import (BoundaryVertex, DegenerateTetrahedron,
                     DegenerateTriangle, LinkNotSphere, MeshError, OpenMesh,
                     ZeroLengthEdge)
from .geometry import _det

__all__ = [
    "SimplicialImmersion", "MeshTotal", "load_off", "load_mesh_json",
    "interior_angle", "solid_angle", "polygon_exterior_angles",
    "exterior_angle_2", "total_invariant_2", "exterior_angle_3",
    "total_invariant_3",
]


class SimplicialImmersion:
    """Vertex coordinates plus same-dimensional simplices, validated."""

    def __init__(self, vertices, simplices):
        self.vertices = np.asarray(vertices, float)
        if self.vertices.ndim != 2:
            raise MeshError("vertices must be a 2-d array of coordinates")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("vertex coordinates must be finite")
        V = self.vertices.shape[0]
        cleaned = []
        for s, raw in enumerate(simplices):
            ids = tuple(int(i) for i in raw)
            if len(set(ids)) != len(ids):
                raise MeshError(f"simplex {s} repeats a vertex: {ids}")
            for i in ids:
                if not 0 <= i < V:
                    raise MeshError(f"simplex {s} references vertex {i}, "
                                    f"have {V}")
            cleaned.append(ids)
        if not cleaned:
            raise MeshError("mesh has no simplices")
        sizes = {len(ids) for ids in cleaned}
        if len(sizes) != 1:
            raise MeshError(f"mixed simplex sizes {sorted(sizes)}")
        size = sizes.pop()
        if size < 3:
            raise MeshError("simplices must have at least 3 vertices")
        self.simplices = tuple(cleaned)
        self.dim = size - 1

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    def star(self, vertex: int):
        return [s for s in self.simplices if vertex in s]

    def face_counts(self) -> Counter:
        """How many simplices share each codimension-one face."""
        counts = Counter()
        for s in self.simplices:
            for drop in s:
                counts[frozenset(i for i in s if i != drop)] += 1
        return counts


def load_off(path) -> SimplicialImmersion:
    """Triangle meshes in OFF format; nOFF carries an ambient dimension."""
    with open(path) as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise MeshError(f"{path}: empty file")
    header = lines.pop(0).split()
    if header[0] not in ("OFF", "nOFF"):
        raise MeshError(f"{path}: expected OFF or nOFF header")
    try:
        if header[0] == "nOFF":
            ambient = int(header[1]) if len(header) > 1 \
                else int(lines.pop(0))
        else:
            ambient = 3
        nv, nf = [int(x) for x in lines.pop(0).split()[:2]]
        vertices = [[float(x) for x in lines.pop(0).split()[:ambient]]
                    for _ in range(nv)]
        faces = []
        for _ in range(nf):
            parts = [int(x) for x in lines.pop(0).split()]
            if parts[0] != 3:
                raise MeshError(
                    f"{path}: only triangle faces are supported, "
                    f"got a face of {parts[0]} vertices")
            faces.append(parts[1:4])
    except (ValueError, IndexError) as exc:
        raise MeshError(f"{path}: malformed OFF data: {exc}") from exc
    return SimplicialImmersion(vertices, faces)


def load_mesh_json(path) -> SimplicialImmersion:
    """Meshes of any dimension as {"vertices": [...], "simplices": [...]}."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MeshError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "vertices" not in data \
            or "simplices" not in data:
        raise MeshError(f"{path}: need 'vertices' and 'simplices' keys")
    return SimplicialImmersion(data["vertices"], data["simplices"])


# ---------------------------------------------------------------------------
# angle primitives

def interior_angle(at, b, c) -> float:
    """Angle at ``at`` between the rays to ``b`` and ``c``, any ambient
    dimension."""
    u = np.asarray(b, float) - np.asarray(at, float)
    v = np.asarray(c, float) - np.asarray(at, float)
    nu = math.sqrt(float(u @ u))
    nv = math.sqrt(float(v @ v))
    if nu <= 0.0 or nv <= 0.0:
        raise ZeroLengthEdge("angle ray has zero length")
    dot = float(u @ v)
    sin_sq = max(nu * nu * nv * nv - dot * dot, 0.0)
    return math.atan2(math.sqrt(sin_sq), dot)


def _triangle_angle(P, tri, at) -> float:
    b, c = [i for i in tri if i != at]
    u = P[b] - P[at]
    v = P[c] - P[at]
    nu = math.sqrt(float(u @ u))
    nv = math.sqrt(float(v @ v))
    if nu <= 0.0 or nv <= 0.0:
        raise ZeroLengthEdge(f"triangle {tri} has a zero-length edge",
                             location={"triangle": list(tri)})
    dot = float(u @ v)
    sin_sq = max(nu * nu * nv * nv - dot * dot, 0.0)
    if sin_sq <= (1e-12 * nu * nv) ** 2:
        raise DegenerateTriangle(f"triangle {tri} is collinear",
                                 location={"triangle": list(tri)})
    return math.atan2(math.sqrt(sin_sq), dot)


def solid_angle(apex, b, c, d) -> float:
    """Solid angle at ``apex`` of the tetrahedron ``apex b c d``.

    Uses the half-angle form on Gram data, so the vertices may sit in
    any ambient dimension of at least three.
    """
    apex = np.asarray(apex, float)
    rays = [np.asarray(p, float) - apex for p in (b, c, d)]
    G = np.array([[float(x @ y) for y in rays] for x in rays])
    lens = np.sqrt(np.diag(G))
    if np.min(lens) <= 1e-15 * max(np.max(lens), 1e-300):
        raise ZeroLengthEdge("tetrahedron edge at the apex has zero length")
    scale = float(lens[0] * lens[1] * lens[2])
    det = float(_det(G))
    if det <= 1e-14 * scale * scale:
        raise DegenerateTetrahedron(
            "tetrahedron is flat at the apex",
            location={"gram_determinant": det})
    denom = (scale + G[0, 1] * lens[2] + G[0, 2] * lens[1]
             + G[1, 2] * lens[0])
    return 2.0 * math.atan2(math.sqrt(det), denom)


def polygon_exterior_angles(points) -> np.ndarray:
    """Signed turn at each vertex of a closed planar polygon.

    The angles sum to 2*pi times the turning number of the polygon.
    """
    P = np.asarray(points, float)
    if P.ndim != 2 or P.shape[1] != 2:
        raise MeshError("need a closed polygon as an (m, 2) array")
    if P.shape[0] < 3:
        raise MeshError("polygon needs at least 3 vertices")
    incoming = P - np.roll(P, 1, axis=0)
    lens = np.hypot(incoming[:, 0], incoming[:, 1])
    scale = np.max(lens)
    tiny = lens <= 1e-15 * max(scale, 1e-300)
    if np.any(tiny):
        raise ZeroLengthEdge(
            f"edge into vertex {int(np.argmax(tiny))} has zero length")
    outgoing = np.roll(incoming, -1, axis=0)
    cross = (incoming[:, 0] * outgoing[:, 1]
             - incoming[:, 1] * outgoing[:, 0])
    dot = np.sum(incoming * outgoing, axis=1)
    spikes = (dot < 0) & (np.abs(cross) <= 1e-12 * np.abs(dot))
    if np.any(spikes):
        raise DegenerateTriangle(
            f"polygon doubles back at vertex {int(np.argmax(spikes))}")
    return np.arctan2(cross, dot)


# ---------------------------------------------------------------------------
# vertex invariants

def _closed_star_links(mesh: SimplicialImmersion, vertex: int):
    """Star simplices of a vertex whose link is closed and connected.

    Returns the star; raises when the vertex is isolated, lies on a
    boundary, or its link splits into several components.
    """
    star = mesh.star(vertex)
    if not star:
        raise MeshError(f"vertex {vertex} belongs to no simplex")
    # each link face must be shared by exactly two star simplices
    link_counts = Counter()
    for s in star:
        rest = [i for i in s if i != vertex]
        for drop in rest:
            link_counts[frozenset([vertex]
                                  + [i for i in rest if i != drop])] += 1
    for face, cnt in link_counts.items():
        if cnt != 2:
            raise BoundaryVertex(
                f"vertex {vertex} lies on a boundary",
                location={"vertex": vertex,
                          "face": sorted(face), "count": cnt})
    # connectivity of the link through shared faces
    adjacency = defaultdict(set)
    for s in star:
        rest = [i for i in s if i != vertex]
        for a in rest:
            for bb in rest:
                if a != bb:
                    adjacency[a].add(bb)
    seen = set()
    stack = [next(iter(adjacency))]
    while stack:
        a = stack.pop()
        if a in seen:
            continue
        seen.add(a)
        stack.extend(adjacency[a] - seen)
    if seen != set(adjacency):
        raise LinkNotSphere(
            f"link of vertex {vertex} is disconnected",
            location={"vertex": vertex})
    if mesh.dim == 3:
        # a closed connected link surface still needs genus zero
        link_edges = set()
        for s in star:
            rest = [i for i in s if i != vertex]
            for a in rest:
                for bb in rest:
                    if a < bb:
                        link_edges.add((a, bb))
        chi = len(adjacency) - len(link_edges) + len(star)
        if chi != 2:
            raise LinkNotSphere(
                f"link of vertex {vertex} has Euler characteristic {chi}",
                location={"vertex": vertex, "euler": chi})
    return star


def exterior_angle_2(mesh: SimplicialImmersion, vertex: int) -> float:
    """Angle defect at a vertex of a closed triangle mesh."""
    if mesh.dim != 2:
        raise MeshError("angle defects need a triangle mesh")
    star = _closed_star_links(mesh, vertex)
    total = sum(_triangle_angle(mesh.vertices, tri, vertex) for tri in star)
    return 2.0 * math.pi - total


def exterior_angle_3(mesh: SimplicialImmersion, vertex: int) -> float:
    """Solid-angle defect at a vertex of a closed tetrahedral mesh.

    Experimental: at each link vertex the star's solid angles are folded
    into a local defect against 2*pi, and those defects are folded once
    more against 4*pi.
    """
    if mesh.dim != 3:
        raise MeshError("solid-angle defects need a tetrahedral mesh")
    star = _closed_star_links(mesh, vertex)
    link_vertices = sorted({i for s in star for i in s if i != vertex})
    P = mesh.vertices
    total = 0.0
    for mu in link_vertices:
        omega = 0.0
        for s in star:
            if mu not in s:
                continue
            others = [i for i in s if i != mu]
            omega += solid_angle(P[mu], *[P[i] for i in others])
        total += 2.0 * math.pi - omega
    return 4.0 * math.pi - total


def _certified(value: float, constant: float, tol: float) -> dict:
    normalized = value / constant
    nearest = round(normalized)
    residual = abs(normalized - nearest)
    return {
        "normalized": normalized,
        "k": int(nearest) if residual <= tol else None,
        "residual": residual,
    }


@dataclass(frozen=True)
class MeshTotal:
    dim: int
    total: float
    per_vertex: tuple
    certifications: dict
    extras: dict = field(default_factory=dict)
    experimental: bool = False

    def to_dict(self) -> dict:
        return {
            "kind": f"mesh_total_{self.dim}",
            "dim": self.dim,
            "total": self.total,
            "per_vertex": list(self.per_vertex),
            "certifications": {k: dict(v)
                               for k, v in self.certifications.items()},
            "extras": dict(self.extras),
            "experimental": self.experimental,
        }


def _ensure_closed(mesh: SimplicialImmersion) -> None:
    for face, cnt in mesh.face_counts().items():
        if cnt != 2:
            raise OpenMesh(
                f"face {sorted(face)} belongs to {cnt} simplices, need 2",
                location={"face": sorted(face), "count": cnt})


def total_invariant_2(mesh: SimplicialImmersion,
                      tol_cert: float = 1e-6) -> MeshTotal:
    """Total angle defect of a closed triangle mesh.

    Certifies the Euler characteristic (total over 2*pi) and the normal
    degree (total over 4*pi), and cross-checks the characteristic
    against the face count.
    """
    if mesh.dim != 2:
        raise MeshError("need a triangle mesh")
    _ensure_closed(mesh)
    per_vertex = tuple(exterior_angle_2(mesh, v)
                       for v in range(mesh.num_vertices))
    total = float(math.fsum(per_vertex))
    chi = _certified(total, 2.0 * math.pi, tol_cert)
    kappa = _certified(total, 4.0 * math.pi, tol_cert)
    V = mesh.num_vertices
    F = len(mesh.simplices)
    E = len(mesh.face_counts())
    combinatorial = V - E + F
    return MeshTotal(
        dim=2, total=total, per_vertex=per_vertex,
        certifications={"2pi": chi, "4pi": kappa},
        extras={"combinatorial_euler": combinatorial,
                "agrees": chi["k"] == combinatorial})


def total_invariant_3(mesh: SimplicialImmersion,
                      tol_cert: float = 1e-6) -> MeshTotal:
    """Total solid-angle defect of a closed tetrahedral mesh.

    Experimental; reported against both the unit-3-sphere volume and the
    8*pi convention, with residuals for each.
    """
    if mesh.dim != 3:
        raise MeshError("need a tetrahedral mesh")
    _ensure_closed(mesh)
    per_vertex = tuple(exterior_angle_3(mesh, v)
                       for v in range(mesh.num_vertices))
    total = float(math.fsum(per_vertex))
    return MeshTotal(
        dim=3, total=total, per_vertex=per_vertex,
        certifications={
            "2pi^2": _certified(total, 2.0 * math.pi ** 2, tol_cert),
            "8pi": _certified(total, 8.0 * math.pi, tol_cert),
        },
        experimental=True)
