"""Independent reference values, computed with numpy alone.

Nothing here imports gaussmap.  The workloads compare the program's
answers against these, so a fault shared by the program and its own
tests still shows.
"""
from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def _winding_of_angles(theta: np.ndarray) -> int:
    """Whole turns of a sampled closed angle function.

    Each step is wrapped to (-pi, pi]; a step above 0.5 rad means the
    sample is too coarse to be sure of the direction, and is refused.
    """
    steps = np.diff(np.append(theta, theta[0]))
    steps = (steps + math.pi) % TWO_PI - math.pi
    if np.max(np.abs(steps)) > 0.5:
        raise ValueError("sample too coarse for an unwrapped angle count")
    turns = float(np.sum(steps)) / TWO_PI
    if abs(turns - round(turns)) > 1e-6:
        raise ValueError(f"unwrapped angle is not a whole turn: {turns}")
    return int(round(turns))


def polygon_turning(points: np.ndarray) -> int:
    """Turning number of the closed polygon through ``points`` (m, 2),
    from its unwrapped edge directions."""
    edges = np.roll(points, -1, axis=0) - points
    return _winding_of_angles(np.arctan2(edges[:, 1], edges[:, 0]))


def cone_chart_counts(lift: np.ndarray) -> tuple:
    """Degrees of the three affine-chart angle forms of a closed curve
    in the projective plane, sampled as a lift ``(3, m)`` on a uniform
    periodic grid.

    The tangent-plane vector of the cone is ``p_i = x'_a x_b - x'_b x_a``
    for the axes ``a < b`` other than ``i``; chart ``i`` counts how often
    the pair of the other two components ``(p_j, p_k)`` winds round the
    origin, with the sign the program's density uses (clockwise turns
    count positive).  ``x'`` is the spectral derivative of the sample.
    """
    m = lift.shape[1]
    freq = np.fft.fftfreq(m, d=1.0 / m)
    deriv = np.real(np.fft.ifft(1j * freq * np.fft.fft(lift, axis=1), axis=1))
    p = []
    for i in range(3):
        a, b = [ax for ax in range(3) if ax != i]
        p.append(deriv[a] * lift[b] - deriv[b] * lift[a])
    p = np.array(p)
    norm2 = np.sum(p * p, axis=0)
    counts = []
    for i in range(3):
        j, k = [ax for ax in range(3) if ax != i]
        if np.min((p[j] ** 2 + p[k] ** 2) / norm2) < 1e-3:
            raise ValueError(f"curve passes near the singular set of "
                             f"chart {i}")
        counts.append(-_winding_of_angles(np.arctan2(p[k], p[j])))
    return tuple(counts)


def edge_array(simplices: np.ndarray) -> np.ndarray:
    """Distinct edges (sorted vertex pairs) of a simplex array."""
    size = simplices.shape[1]
    pairs = [simplices[:, [a, b]] for a in range(size)
             for b in range(a + 1, size)]
    return np.unique(np.sort(np.concatenate(pairs), axis=1), axis=0)


def euler_characteristic_2(num_vertices: int, triangles: np.ndarray) -> int:
    """V - E + F of a triangle mesh, counted from its arrays."""
    return num_vertices - len(edge_array(triangles)) + len(triangles)


def _corners(points: np.ndarray, triangles: np.ndarray):
    """Per corner slot: the corner vertices and the Gram entries
    ``(u.u, v.v, u.v)`` of the two edges leaving them."""
    for c in range(3):
        at = triangles[:, c]
        u = points[triangles[:, (c + 1) % 3]] - points[at]
        v = points[triangles[:, (c + 2) % 3]] - points[at]
        yield (at, np.einsum("ij,ij->i", u, u), np.einsum("ij,ij->i", v, v),
               np.einsum("ij,ij->i", u, v))


def angle_defects_2(points: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """2*pi minus the corner angles at each vertex, in one Gram pass."""
    defect = np.full(len(points), TWO_PI)
    for at, uu, vv, uv in _corners(points, triangles):
        angle = np.arctan2(np.sqrt(np.maximum(uu * vv - uv * uv, 0.0)), uv)
        defect -= np.bincount(at, angle, minlength=len(points))
    return defect


def solid_corner_angles(points: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Solid angle at each corner of each tetrahedron, (T, 4).

    Half-angle formula on the Gram matrix of the three rays, with the
    3x3 determinant written out, in any ambient dimension.
    """
    omega = np.empty(tets.shape, float)
    for c in range(4):
        apex = points[tets[:, c]]
        r = [points[tets[:, d]] - apex for d in range(4) if d != c]
        g = [[np.einsum("ij,ij->i", x, y) for y in r] for x in r]
        det = (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
               - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
               + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]))
        lens = [np.sqrt(g[k][k]) for k in range(3)]
        denom = (lens[0] * lens[1] * lens[2] + g[0][1] * lens[2]
                 + g[0][2] * lens[1] + g[1][2] * lens[0])
        omega[:, c] = 2.0 * np.arctan2(np.sqrt(np.maximum(det, 0.0)), denom)
    return omega


def solid_defects_3(points: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Per-vertex solid-angle defect of a closed tetrahedral mesh.

    At vertex v the program folds, for every link vertex mu, 2*pi minus
    the solid angles at mu of the star tetrahedra, and subtracts the sum
    from 4*pi.  Summed over the star instead of the link, that is
    ``4*pi - 2*pi*deg(v) + sum over tets t at v of (angles of t at its
    other three corners)``.
    """
    nv = len(points)
    omega = solid_corner_angles(points, tets)
    rest = omega.sum(axis=1)[:, None] - omega
    star_sum = np.bincount(tets.ravel(), rest.ravel(), minlength=nv)
    degree = np.bincount(edge_array(tets).ravel(), minlength=nv)
    return 2.0 * TWO_PI - TWO_PI * degree + star_sum


def min_corner_sine(points: np.ndarray, triangles: np.ndarray) -> float:
    """Smallest sine of any corner angle, a mesh quality margin."""
    return min(float(np.min(np.sqrt(np.maximum(uu * vv - uv * uv, 0.0)
                                    / (uu * vv))))
               for _, uu, vv, uv in _corners(points, triangles))
