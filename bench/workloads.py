"""Seeded inputs of the four workloads, written as the files a user passes.

``generate(workload, seed, outdir, small)`` writes manifests, OFF and
JSON meshes into ``outdir`` and returns the plan: every case, the driver
it goes through, the values it must produce (worked out here, from the
analytic construction and from ``refs``), and the one command-line call
of the workload.  The same seed gives the same files.  ``small`` keeps
every kind of case but shrinks counts and sizes, for the self-test.
"""
from __future__ import annotations

import json
import math

import numpy as np
from scipy.spatial import ConvexHull

import refs

WORKLOADS = ("curves", "surfaces", "solids", "meshes")

PERIODIC = "[0, 2*pi) periodic"
OPEN = "(0, pi) open"

# The aliasing fault named in ROADMAP item 1: levels 8 and 16 agree, and
# the curve (true k = 15) certifies as 23.  It does not depend on the seed.
ALIASED = ("cos(t1) + 0.2*cos(15*t1)", "sin(t1) - 0.2*sin(15*t1)")


def _num(v: float) -> str:
    """A manifest literal: fixed point, parenthesised when negative."""
    text = f"{abs(v):.9f}"
    return f"(-{text})" if v < 0 else text


def _write_manifest(path, coords, intervals, kind="immersion", quad=None):
    lines = [f"kind: {kind}", f"n: {len(intervals)}",
             f"ambient: {len(coords)}"]
    lines += [f"x{i + 1} = {c}" for i, c in enumerate(coords)]
    lines += [f"t{j + 1} in {iv}" for j, iv in enumerate(intervals)]
    lines += [f"{k}: {v}" for k, v in (quad or {}).items()]
    path.write_text("\n".join(lines) + "\n")


class _Plan:
    def __init__(self, workload, seed, outdir):
        self.outdir = outdir
        self.data = {"workload": workload, "seed": seed, "inputs": {},
                     "cases": [], "cli": None}

    def manifest(self, name, coords, intervals, **kw):
        _write_manifest(self.outdir / name, coords, intervals, **kw)
        self.data["inputs"][name] = "manifest"

    def case(self, name, driver, expect, **extra):
        self.data["cases"].append({"id": f"{driver}:{name}", "input": name,
                                   "driver": driver, "expect": expect,
                                   **extra})


# ---------------------------------------------------------------------------
# curves: n = 1

def _curve(rng, m, am):
    """``e^{it} + a e^{-i(mt + phase)}``, turned, scaled, moved and maybe
    mirrored.  Its tangent winds once when ``m a < 1`` and ``-m`` times
    when ``m a > 1``; mirroring flips the sign."""
    a = am * (1.0 + rng.uniform(-0.03, 0.03)) / m
    phase, turn = rng.uniform(0.0, 2.0 * math.pi, 2)
    scale = rng.uniform(0.5, 2.0)
    cx, cy = rng.uniform(-1.0, 1.0, 2)
    mirror = -1.0 if rng.random() < 0.5 else 1.0
    u = f"(cos(t1) + {_num(a)}*cos({m}*t1 + {_num(phase)}))"
    v = f"(sin(t1) - {_num(a)}*sin({m}*t1 + {_num(phase)}))"
    c, s = math.cos(turn), math.sin(turn)
    coords = (f"{_num(cx)} + {_num(scale * c)}*{u} - {_num(scale * s)}*{v}",
              f"{_num(cy)} + {_num(mirror)}*({_num(scale * s)}*{u} + "
              f"{_num(scale * c)}*{v})")
    t = np.linspace(0.0, 2.0 * math.pi, 8192, endpoint=False)
    x = np.cos(t) + a * np.cos(m * t + phase)
    y = np.sin(t) - a * np.sin(m * t + phase)
    pts = np.stack([cx + scale * (c * x - s * y),
                    cy + mirror * scale * (s * x + c * y)], axis=1)
    turning = int(mirror) * (1 if am < 1 else -m)
    return coords, turning, pts


def _cone(rng, slot):
    """An affine ellipse lifted through chart ``slot`` of the projective
    plane.  Each centre coordinate sits well inside or well outside the
    matching radius, so the curve keeps clear of every chart's singular
    set; the reference refuses it otherwise and it is redrawn."""
    def offset(radius):
        inside = rng.random() < 0.5
        scale = rng.uniform(0.0, 0.5) if inside else rng.uniform(1.6, 2.2)
        return scale * radius * rng.choice([-1.0, 1.0])

    while True:
        rx, ry = rng.uniform(0.6, 2.0, 2)
        cx, cy = offset(rx), offset(ry)
        t = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        lift = np.insert(np.stack([cx + rx * np.cos(t),
                                   cy + ry * np.sin(t)]), slot, 1.0, axis=0)
        try:
            counts = refs.cone_chart_counts(lift)
        except ValueError:
            continue
        funcs = [f"{_num(cx)} + {_num(rx)}*cos(t1)",
                 f"{_num(cy)} + {_num(ry)}*sin(t1)"]
        funcs.insert(slot, "@chart")
        return funcs, counts


def _curves(plan, rng, small):
    # (m, m a) strata keep m a well away from 1, where the curve cusps
    strata = [(m, am) for m in (2, 3, 4, 5) for am in (0.25, 0.45, 2.0, 3.0)]
    copies = 1 if small else 9
    for i in range(copies * len(strata)):
        m, am = strata[i % len(strata)]
        coords, turning, pts = _curve(rng, m, am)
        if refs.polygon_turning(pts) != turning:
            raise AssertionError(f"curve {i}: sampled turning disagrees")
        name = f"curve{i:03d}.man"
        plan.manifest(name, coords, [PERIODIC])
        plan.case(name, "winding_number", {"k": -turning})
    for i in range(3 if small else 30):
        funcs, counts = _cone(rng, i % 3)
        name = f"cone{i:02d}.man"
        plan.manifest(name, funcs, [PERIODIC], kind="cone")
        plan.case(name, "projective_invariants", {"ks": list(counts)})
    plan.manifest("aliased.man", ALIASED, [PERIODIC],
                  quad={"grid": 8, "max_levels": 2})
    plan.case("aliased.man", "winding_number", {"k": 15}, pinned=True)
    plan.data["cli"] = {"args": ["winding", "curve000.man"],
                        "expect": plan.data["cases"][0]["expect"]}


# ---------------------------------------------------------------------------
# surfaces: n = 2

def _surface(rng, kind):
    """Coordinates, domain and Euler characteristic of one seeded chart.

    The parameter ranges keep each kind's level count at the default
    quadrature the same for every seed (2 for spheres and tori, 3 for the
    varied torus, 4 for ellipsoids and bumped spheres), so the work of a
    pass does not depend on the seed."""
    if kind in ("sphere", "ellipsoid", "bumped"):
        if kind == "sphere":
            axes = [rng.uniform(0.7, 1.5)] * 3
        elif kind == "ellipsoid":
            axes = [2.0, 1.5, 0.7] * (1.0 + rng.uniform(-0.05, 0.05, 3))
        else:
            axes = [1.0] * 3
        # the bump is eps (x^2 - y^2) + delta z^3 on the unit sphere
        eps, delta = rng.uniform(0.21, 0.25), rng.uniform(0.0, 0.1)
        r = (f"(1 + {_num(eps)}*sin(t2)^2*cos(2*t1) + "
             f"{_num(delta)}*cos(t2)^3)" if kind == "bumped" else "1")
        dirs = ("cos(t1)*sin(t2)", "sin(t1)*sin(t2)", "cos(t2)")
        coords = [f"{_num(ax)}*{r}*{d}" for ax, d in zip(axes, dirs)]
        return coords, [PERIODIC, OPEN], 2
    big = rng.uniform(1.9, 2.5)
    tube = f"{_num(rng.uniform(0.4, 0.55))}"
    if kind == "varied_torus":
        tube = f"{tube}*(1 + {_num(rng.uniform(0.2, 0.3))}*cos(2*t1))"
    ring = f"({_num(big)} + {tube}*cos(t2))"
    return ([f"{ring}*cos(t1)", f"{ring}*sin(t1)", f"{tube}*sin(t2)"],
            [PERIODIC, PERIODIC], 0)


def _surfaces(plan, rng, small):
    kinds = ("sphere", "ellipsoid", "torus", "bumped", "varied_torus")
    cases = [(k, None) for k in kinds] * (1 if small else 2)
    # the fixed grids of about 256^2: two levels, so convergence is tested
    fixed = {"grid": 32 if small else 128, "max_levels": 2}
    cases += [("bumped", fixed), ("varied_torus", fixed)]
    for i, (kind, quad) in enumerate(cases):
        coords, intervals, chi = _surface(rng, kind)
        name = f"{kind}{i:02d}.man"
        plan.manifest(name, coords, intervals, quad=quad)
        plan.case(name, "euler_characteristic", {"euler": chi})
    plan.data["cli"] = {"args": ["euler", "ellipsoid01.man"],
                        "expect": {"euler": 2}}


# ---------------------------------------------------------------------------
# solids: n = 3

def _solids(plan, rng, small):
    dirs = ("cos(t1)*sin(t2)*sin(t3)", "sin(t1)*sin(t2)*sin(t3)",
            "cos(t2)*sin(t3)", "cos(t3)")
    intervals = [PERIODIC, OPEN, OPEN]
    center = rng.uniform(-1.0, 1.0, 4)

    def coords(axes, order=(0, 1, 2, 3)):
        return [f"{_num(c)} + {_num(ax)}*{dirs[o]}"
                for c, ax, o in zip(center, axes, order)]

    radius = rng.uniform(0.7, 1.5)
    round_quad = {"grid": 16, "max_levels": 3}  # converges at 32^3
    plan.manifest("round.man", coords([radius] * 4), intervals,
                  quad=round_quad)
    plan.case("round.man", "gauss_degree", {"k": 1})
    # swapping two coordinates reverses the orientation
    plan.manifest("reversed.man", coords([radius] * 4, (1, 0, 2, 3)),
                  intervals, quad=round_quad)
    plan.case("reversed.man", "gauss_degree", {"k": -1})
    axes = 1.0 + rng.uniform(-0.1, 0.1, 4)
    plan.manifest("ellipsoid.man", coords(axes), intervals,
                  quad={"grid": 24 if small else 32, "max_levels": 2})
    plan.case("ellipsoid.man", "gauss_degree", {"k": 1})
    plan.data["cli"] = {"args": ["gauss-degree", "round.man"],
                        "expect": {"k": 1}}


# ---------------------------------------------------------------------------
# meshes: the polyhedral half

def _torus_mesh(rng, major, minor):
    """Structured torus of revolution with jittered angles."""
    big, tube = rng.uniform(1.8, 2.4), rng.uniform(0.4, 0.8)
    i, j = np.meshgrid(np.arange(major), np.arange(minor), indexing="ij")
    u = 2 * math.pi * (i + rng.uniform(-0.2, 0.2, i.shape)) / major
    v = 2 * math.pi * (j + rng.uniform(-0.2, 0.2, j.shape)) / minor
    ring = big + tube * np.cos(v)
    pts = np.stack([ring * np.cos(u), ring * np.sin(u),
                    tube * np.sin(v)], axis=-1).reshape(-1, 3)
    a = (i * minor + j).ravel()
    b = (((i + 1) % major) * minor + j).ravel()
    a1 = (i * minor + (j + 1) % minor).ravel()
    b1 = (((i + 1) % major) * minor + (j + 1) % minor).ravel()
    tris = np.concatenate([np.stack([a, b, a1], 1), np.stack([b, b1, a1], 1)])
    return pts, tris


def _hull_sphere(rng, count, dim, good):
    """Convex hull of random points on the unit sphere in R^dim, redrawn
    until ``good(points, simplices)`` holds."""
    while True:
        pts = rng.standard_normal((count, dim))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        simplices = ConvexHull(pts).simplices
        if good(pts, simplices):
            return pts, simplices


def _write_off(path, pts, tris):
    with open(path, "w") as fh:
        fh.write(f"OFF\n{len(pts)} {len(tris)} 0\n")
        np.savetxt(fh, pts, fmt="%.17g")
        np.savetxt(fh, np.hstack([np.full((len(tris), 1), 3), tris]),
                   fmt="%d")


def _meshes(plan, rng, small):
    def add_off(name, pts, tris):
        _write_off(plan.outdir / name, pts, tris)
        plan.data["inputs"][name] = "off"

    pts, tris = _torus_mesh(rng, *((16, 8) if small else (64, 32)))
    add_off("torus.off", pts, tris)
    plan.case("torus.off", "total_invariant_2", {
        "euler": refs.euler_characteristic_2(len(pts), tris),
        "per_vertex": refs.angle_defects_2(pts, tris).tolist()})

    pts, tris = _hull_sphere(
        rng, 100 if small else 1600, 3,
        lambda p, s: refs.min_corner_sine(p, s) > 1e-4)
    add_off("sphere.off", pts, tris)
    plan.case("sphere.off", "total_invariant_2", {
        "euler": refs.euler_characteristic_2(len(pts), tris),
        "per_vertex": refs.angle_defects_2(pts, tris).tolist()})

    pts, tets = _hull_sphere(
        rng, 40 if small else 200, 4,
        lambda p, s: np.min(refs.solid_corner_angles(p, s)) > 1e-4)
    (plan.outdir / "sphere3.json").write_text(json.dumps(
        {"vertices": pts.tolist(), "simplices": tets.tolist()}))
    plan.data["inputs"]["sphere3.json"] = "json"
    plan.case("sphere3.json", "total_invariant_3",
              {"per_vertex": refs.solid_defects_3(pts, tets).tolist()})

    pts, tris = _torus_mesh(rng, *((32, 16) if small else (256, 128)))
    add_off("big_torus.off", pts, tris)
    vertices = sorted(int(v) for v in rng.choice(len(pts), 4, replace=False))
    defects = refs.angle_defects_2(pts, tris)
    plan.case("big_torus.off", "exterior_angle_2",
              {"values": [float(defects[v]) for v in vertices]},
              vertices=vertices)
    plan.data["cli"] = {"args": ["mesh-total", "torus.off"],
                        "expect": {"euler": 0}}


_BUILDERS = {"curves": _curves, "surfaces": _surfaces, "solids": _solids,
             "meshes": _meshes}


def generate(workload: str, seed: int, outdir, small: bool = False) -> dict:
    plan = _Plan(workload, seed, outdir)
    _BUILDERS[workload](plan, np.random.default_rng([seed, 7]), small)
    return plan.data
