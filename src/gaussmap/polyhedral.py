"""Discrete analogues of the smooth invariants on simplicial meshes.

On a closed triangle mesh the angle defect concentrates curvature at
vertices, and its total is the Euler characteristic times 2*pi.  The
three-dimensional analogue replaces interior angles by solid angles of
the star tetrahedra at link vertices; that construction and its totals
are marked experimental throughout.

All angles are computed from Gram data (dot products only), so meshes
may live in any ambient dimension.  The totals work on whole index
arrays: every corner angle is computed once and folded per vertex.
Stars come from a vertex-to-simplex incidence built once per mesh, so
checking each vertex link costs the size of its star.  The single-vertex
routines are what report a fault, so a total raises exactly what its
lowest-numbered failing vertex raises on its own.
"""
from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import (BoundaryVertex, DegenerateTetrahedron,
                     DegenerateTriangle, LinkNotSphere, MeshError, OpenMesh,
                     ZeroLengthEdge)
from .geometry import _det
from .integrate import certify

__all__ = [
    "SimplicialImmersion", "MeshTotal", "load_off", "load_mesh_json",
    "interior_angle", "solid_angle", "polygon_exterior_angles",
    "exterior_angle_2", "total_invariant_2", "exterior_angle_3",
    "total_invariant_3",
]


class SimplicialImmersion:
    """Vertex coordinates plus same-dimensional simplices, validated.

    ``cells`` holds the simplices as one ``(F, dim + 1)`` integer array;
    ``simplices`` gives them as a tuple of index tuples.
    """

    def __init__(self, vertices, simplices):
        try:
            self.vertices = np.asarray(vertices, float)
        except (TypeError, ValueError) as exc:
            raise MeshError("vertex coordinates must be numbers, as many "
                            "in every row") from exc
        if self.vertices.ndim != 2:
            raise MeshError("vertices must be a 2-d array of coordinates")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("vertex coordinates must be finite")
        self.cells = _cell_array(simplices, self.vertices.shape[0])
        self.dim = self.cells.shape[1] - 1

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @cached_property
    def simplices(self) -> tuple:
        return tuple(zip(*self.cells.T.tolist()))

    @cached_property
    def _incidence(self):
        """Vertex-to-simplex incidence: the simplices of vertex ``v`` are
        ``ids[starts[v]:starts[v + 1]]``, in simplex order."""
        flat = self.cells.ravel()
        ids = np.argsort(flat, kind="stable") // self.cells.shape[1]
        starts = np.zeros(self.num_vertices + 1, np.intp)
        np.cumsum(np.bincount(flat, minlength=self.num_vertices),
                  out=starts[1:])
        return ids, starts

    def star(self, vertex: int) -> list:
        """Simplices that contain ``vertex``, in simplex order."""
        if not 0 <= vertex < self.num_vertices:
            raise MeshError(f"vertex {vertex} is out of range, mesh has "
                            f"{self.num_vertices} vertices")
        ids, starts = self._incidence
        rows = self.cells[ids[starts[vertex]:starts[vertex + 1]]]
        return list(map(tuple, rows.tolist()))

    def face_counts(self) -> Counter:
        """How many simplices share each codimension-one face, in order
        of first appearance."""
        faces, first, counts = _faces(self.cells)
        order = np.argsort(first)
        return Counter({frozenset(f): c for f, c in
                        zip(faces[order].tolist(), counts[order].tolist())})


def _cell_array(simplices, num_vertices: int) -> np.ndarray:
    """Simplices as one ``(F, k)`` integer array.

    The first simplex that has a non-integer entry, repeats a vertex or
    references a missing one is reported, in that order of checks; then
    an empty mesh, mixed sizes and sizes below 3.
    """
    rows = simplices if isinstance(simplices, np.ndarray) \
        else list(simplices)
    try:
        raw = np.array(rows)  # a copy: the mesh never aliases its input
    except ValueError:
        # ragged: check each simplex as a one-row array, then the sizes
        for s, row in enumerate(rows):
            _checked_rows(np.asarray(row)[None], num_vertices, s)
        raise MeshError(
            f"mixed simplex sizes {sorted({len(r) for r in rows})}") from None
    if len(raw) == 0:
        raise MeshError("mesh has no simplices")
    cells = _checked_rows(raw, num_vertices, 0)
    if cells.shape[1] < 3:
        raise MeshError("simplices must have at least 3 vertices")
    return cells


def _checked_rows(raw: np.ndarray, num_vertices: int,
                  offset: int) -> np.ndarray:
    """Index rows as int64; errors name simplex ``offset + row``."""
    if raw.ndim != 2:
        raise MeshError("each simplex must be a list of vertex indices")
    if raw.dtype.kind in "iu":
        cells = raw.astype(np.int64, copy=False)
        fractional = np.zeros(len(raw), bool)
    elif raw.dtype.kind == "f":
        integral = np.isfinite(raw) & (raw == np.round(raw))
        cells = np.where(integral, raw, 0).astype(np.int64)
        fractional = ~np.all(integral, axis=1)
    else:
        raise MeshError("vertex indices must be integers")
    ordered = np.sort(cells, axis=1)
    repeats = np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)
    missing = np.any((cells < 0) | (cells >= num_vertices), axis=1)
    bad = fractional | repeats | missing
    if np.any(bad):
        s = int(np.argmax(bad))
        if fractional[s]:
            raise MeshError(f"simplex {offset + s} has a non-integer "
                            f"vertex index: {raw[s].tolist()}")
        ids = tuple(cells[s].tolist())
        if repeats[s]:
            raise MeshError(f"simplex {offset + s} repeats a vertex: {ids}")
        i = next(i for i in ids if not 0 <= i < num_vertices)
        raise MeshError(f"simplex {offset + s} references vertex {i}, "
                        f"have {num_vertices}")
    return cells


def _faces(cells: np.ndarray):
    """Codimension-one faces: each distinct face as a sorted index row,
    the position of its first appearance in (simplex, dropped corner)
    order, and how many simplices share it."""
    k = cells.shape[1]
    keep = [[j for j in range(k) if j != r] for r in range(k)]
    faces = np.sort(cells[:, keep].reshape(-1, k - 1), axis=1)
    # a stable sort puts each face's first appearance first in its run
    order = np.lexsort(faces.T[::-1])
    ranked = faces[order]
    new = np.ones(len(faces), bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    starts = np.append(np.flatnonzero(new), len(faces))
    first = order[starts[:-1]]
    return faces[first], first, np.diff(starts)


def load_off(path) -> SimplicialImmersion:
    """Triangle meshes in OFF format; nOFF carries an ambient dimension."""
    with open(path) as fh:
        rows = filter(None, (ln.split("#", 1)[0].split() for ln in fh))
        header = next(rows, None)
        if header is None:
            raise MeshError(f"{path}: empty file")
        if header[0] not in ("OFF", "nOFF"):
            raise MeshError(f"{path}: expected OFF or nOFF header")
        try:
            ambient = 3
            if header[0] == "nOFF":
                ambient = int(header[1] if len(header) > 1
                              else next(rows, [""])[0])
            nv, nf = [int(x) for x in next(rows, [])[:2]]
            vertices = [[float(x) for x in row[:ambient]]
                        for row in islice(rows, max(nv, 0))]
            faces = []
            for row in islice(rows, max(nf, 0)):
                parts = [int(x) for x in row]
                if parts[0] != 3:
                    raise MeshError(
                        f"{path}: only triangle faces are supported, "
                        f"got a face of {parts[0]} vertices")
                faces.append(parts[1:4])
            if len(vertices) != nv or len(faces) != nf:
                raise ValueError(f"header promises {nv} vertices and {nf} "
                                 f"faces, found {len(vertices)} and "
                                 f"{len(faces)}")
        except ValueError as exc:
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
    at = np.asarray(at, float)
    theta, fault = _ray_angles(np.stack([np.asarray(b, float) - at,
                                         np.asarray(c, float) - at]))
    if fault == 1:
        raise ZeroLengthEdge("angle ray has zero length")
    return float(theta)


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


def _corner_rays(P, cells):
    """Rays from each corner of each simplex to its other corners, in
    simplex order: shape ``(F, k, k - 1, d)``."""
    k = cells.shape[1]
    X = P[cells]
    others = [[j for j in range(k) if j != c] for c in range(k)]
    return X[:, others] - X[:, :, None]


def _ray_angles(rays):
    """Angle between the two rays ``rays[..., 0, :]`` and
    ``rays[..., 1, :]``, and its fault: 0 none, 1 a zero-length ray,
    2 collinear rays."""
    u, v = rays[..., 0, :], rays[..., 1, :]
    nu = np.sqrt(np.einsum("...i,...i->...", u, u))
    nv = np.sqrt(np.einsum("...i,...i->...", v, v))
    dot = np.einsum("...i,...i->...", u, v)
    sin_sq = np.maximum(nu * nu * nv * nv - dot * dot, 0.0)
    fault = np.where((nu <= 0.0) | (nv <= 0.0), 1,
                     np.where(sin_sq <= (1e-12 * nu * nv) ** 2, 2, 0))
    return np.arctan2(np.sqrt(sin_sq), dot), fault


def _solid_corner_angles(P, tets):
    """Solid angle at every corner of every tetrahedron, ``(T, 4)``, by
    the half-angle formula of ``solid_angle``, and a mask of the corners
    that ``solid_angle`` rejects."""
    R = _corner_rays(P, tets)
    G = np.sum(R[:, :, :, None] * R[:, :, None], axis=4)  # (T, 4, 3, 3)
    lens = np.sqrt(np.diagonal(G, axis1=2, axis2=3))
    scale = lens[..., 0] * lens[..., 1] * lens[..., 2]
    det = _det(np.moveaxis(G, (2, 3), (0, 1)))
    fault = ((np.min(lens, axis=2)
              <= 1e-15 * np.maximum(np.max(lens, axis=2), 1e-300))
             | (det <= 1e-14 * scale * scale))
    denom = (scale + G[..., 0, 1] * lens[..., 2]
             + G[..., 0, 2] * lens[..., 1] + G[..., 1, 2] * lens[..., 0])
    return 2.0 * np.arctan2(np.sqrt(np.maximum(det, 0.0)), denom), fault


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

    Returns the star and the number of link vertices; raises when the
    vertex is isolated, lies on a boundary, or its link splits into
    several components.
    """
    star = mesh.star(vertex)
    if not star:
        raise MeshError(f"vertex {vertex} belongs to no simplex")
    links = [[i for i in s if i != vertex] for s in star]
    # each link face must be shared by exactly two link simplices
    link_counts = Counter()
    for rest in links:
        for j in range(len(rest)):
            link_counts[tuple(sorted(rest[:j] + rest[j + 1:]))] += 1
    for face, cnt in link_counts.items():
        if cnt != 2:
            raise BoundaryVertex(
                f"vertex {vertex} lies on a boundary",
                location={"vertex": vertex,
                          "face": sorted((vertex,) + face), "count": cnt})
    # connectivity of the link through shared simplices
    adjacency = defaultdict(set)
    for rest in links:
        for a in rest:
            adjacency[a].update(rest)
    seen = set()
    stack = [links[0][0]]
    while stack:
        a = stack.pop()
        if a not in seen:
            seen.add(a)
            stack.extend(adjacency[a] - seen)
    if len(seen) != len(adjacency):
        raise LinkNotSphere(
            f"link of vertex {vertex} is disconnected",
            location={"vertex": vertex})
    if mesh.dim == 3:
        # a closed connected link surface still needs genus zero; its
        # edges are the faces counted above
        chi = len(adjacency) - len(link_counts) + len(star)
        if chi != 2:
            raise LinkNotSphere(
                f"link of vertex {vertex} has Euler characteristic {chi}",
                location={"vertex": vertex, "euler": chi})
    return star, len(adjacency)


def exterior_angle_2(mesh: SimplicialImmersion, vertex: int) -> float:
    """Angle defect at a vertex of a closed triangle mesh."""
    if mesh.dim != 2:
        raise MeshError("angle defects need a triangle mesh")
    star, _ = _closed_star_links(mesh, vertex)
    P = mesh.vertices
    rays = P[[[i for i in tri if i != vertex] for tri in star]] - P[vertex]
    theta, fault = _ray_angles(rays)
    bad = np.flatnonzero(fault)
    if bad.size:
        tri = star[bad[0]]
        if fault[bad[0]] == 1:
            raise ZeroLengthEdge(f"triangle {tri} has a zero-length edge",
                                 location={"triangle": list(tri)})
        raise DegenerateTriangle(f"triangle {tri} is collinear",
                                 location={"triangle": list(tri)})
    return 2.0 * math.pi - sum(theta.tolist())


def exterior_angle_3(mesh: SimplicialImmersion, vertex: int) -> float:
    """Solid-angle defect at a vertex of a closed tetrahedral mesh.

    Experimental: at each link vertex the star's solid angles are folded
    into a local defect against 2*pi, and those defects are folded once
    more against 4*pi.  Summed over the star instead of the link, that
    is ``4*pi - 2*pi*|link| + sum over star tetrahedra of their solid
    angles at the three corners other than the vertex``.
    """
    if mesh.dim != 3:
        raise MeshError("solid-angle defects need a tetrahedral mesh")
    star, link = _closed_star_links(mesh, vertex)
    P = mesh.vertices
    tets = np.array(star)
    omega, fault = _solid_corner_angles(P, tets)
    at = tets == vertex
    # solid_angle reports a rejected corner, link vertex by link vertex
    rows, cols = np.nonzero(fault & ~at)
    for mu, s in sorted(zip(tets[rows, cols].tolist(), rows.tolist())):
        solid_angle(P[mu], *P[[i for i in star[s] if i != mu]])
    rest = np.sum(omega, axis=1) - omega[at]
    return 4.0 * math.pi - 2.0 * math.pi * link + sum(rest.tolist())


def _certified(value: float, n: int, convention: str, tol: float) -> dict:
    cert = certify(value, n, tol, convention)
    return {"normalized": cert.normalized, "k": cert.k,
            "residual": cert.residual}


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


def _closed_faces(mesh: SimplicialImmersion) -> np.ndarray:
    """Distinct codimension-one faces of a closed mesh, as sorted rows.

    Raises ``OpenMesh`` for the first face, in simplex order, that is not
    shared by exactly two simplices.
    """
    faces, first, counts = _faces(mesh.cells)
    open_faces = np.flatnonzero(counts != 2)
    if open_faces.size:
        g = open_faces[np.argmin(first[open_faces])]
        face, cnt = faces[g].tolist(), int(counts[g])
        raise OpenMesh(f"face {face} belongs to {cnt} simplices, need 2",
                       location={"face": face, "count": cnt})
    return faces


def _checked_links(mesh: SimplicialImmersion, vertex_defect,
                   suspects) -> np.ndarray:
    """Number of link vertices of every vertex.

    Checks each link in vertex order and runs the single-vertex routine
    where a corner angle was rejected, so a total raises what its
    lowest-numbered failing vertex raises on its own.
    """
    sizes = np.empty(mesh.num_vertices, np.intp)
    for v in range(mesh.num_vertices):
        sizes[v] = _closed_star_links(mesh, v)[1]
        if suspects[v]:
            vertex_defect(mesh, v)
    return sizes


def total_invariant_2(mesh: SimplicialImmersion,
                      tol_cert: float = 1e-6) -> MeshTotal:
    """Total angle defect of a closed triangle mesh.

    Certifies the Euler characteristic (total over 2*pi) and the normal
    degree (total over 4*pi), and cross-checks the characteristic
    against the face count.
    """
    if mesh.dim != 2:
        raise MeshError("need a triangle mesh")
    edges = _closed_faces(mesh)
    tris, V = mesh.cells, mesh.num_vertices
    theta, fault = _ray_angles(_corner_rays(mesh.vertices, tris))
    _checked_links(mesh, exterior_angle_2,
                   np.bincount(tris.ravel(), fault.ravel(), V) > 0)
    fold = np.bincount(tris.ravel(), theta.ravel(), V)
    per_vertex = tuple((2.0 * math.pi - fold).tolist())
    total = float(math.fsum(per_vertex))
    chi = _certified(total, 2, "2pi", tol_cert)
    combinatorial = V - len(edges) + len(tris)
    return MeshTotal(
        dim=2, total=total, per_vertex=per_vertex,
        certifications={"2pi": chi,
                        "4pi": _certified(total, 2, "sphere", tol_cert)},
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
    _closed_faces(mesh)
    tets, V = mesh.cells, mesh.num_vertices
    omega, fault = _solid_corner_angles(mesh.vertices, tets)
    # a rejected corner is a fault of the other three vertices
    blamed = np.sum(fault, axis=1, keepdims=True) - fault
    link = _checked_links(mesh, exterior_angle_3,
                          np.bincount(tets.ravel(), blamed.ravel(), V) > 0)
    rest = np.sum(omega, axis=1, keepdims=True) - omega
    per_vertex = tuple((4.0 * math.pi - 2.0 * math.pi * link
                        + np.bincount(tets.ravel(), rest.ravel(), V))
                       .tolist())
    total = float(math.fsum(per_vertex))
    return MeshTotal(
        dim=3, total=total, per_vertex=per_vertex,
        certifications={
            "2pi^2": _certified(total, 3, "sphere", tol_cert),
            "8pi": _certified(total, 3, "paper", tol_cert),
        },
        experimental=True)
