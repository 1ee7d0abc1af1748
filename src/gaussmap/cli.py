"""Command line front end: manifests and meshes in, JSON reports out.

Every command prints a single JSON document on stdout.  Exit status 0
means the computation ran (certification may still have declined to name
an integer); status 1 carries a structured ``{"error": ...}`` document;
status 2 is a usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .errors import GaussMapError, ManifestError, MeshError
from .forms import degree_density, parse_form_spec
from .geometry import ConeChart, ImmersionChart
from .integrate import QuadratureSpec, tensor_nodes
from .invariants import (euler_characteristic, form_invariant, gauss_degree,
                         kaehler_invariant, level_stage,
                         projective_invariants, winding_number)
from .manifest import Manifest, load_manifest
from .polyhedral import (exterior_angle_2, exterior_angle_3, load_mesh_json,
                         load_off, total_invariant_2, total_invariant_3)

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    """Flag-level mistake; reported through argparse with exit status 2."""


def _merge_quad(base: QuadratureSpec, args) -> QuadratureSpec:
    """``base`` with the quadrature flags that ``args`` has and sets."""
    kwargs = asdict(base)
    for key in kwargs:
        flag = getattr(args, key, None)
        if flag is not None:
            kwargs[key] = flag
    try:
        return QuadratureSpec(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _immersion_manifest(m: Manifest, command: str) -> ImmersionChart:
    if not isinstance(m.chart, ImmersionChart):
        raise ManifestError(f"{command} needs an immersion manifest, "
                            f"got kind {m.kind!r}")
    return m.chart


def _frame_arity(chart) -> int:
    return chart.n + (1 if isinstance(chart, ConeChart) else 0)


def _load_mesh(path: str):
    name = str(path).lower()
    if name.endswith(".off"):
        return load_off(path)
    if name.endswith(".json"):
        return load_mesh_json(path)
    raise MeshError(f"cannot tell the mesh format of {path!r}; "
                    "use a .off or .json file")


def _mesh_for(args):
    mesh = _load_mesh(args.mesh)
    if mesh.dim not in (2, 3):
        raise MeshError(f"mesh invariants need dimension 2 or 3, "
                        f"got {mesh.dim}")
    if args.dim is not None and args.dim != mesh.dim:
        raise MeshError(f"--dim {args.dim} was requested but the mesh "
                        f"has dimension {mesh.dim}")
    return mesh


# ---------------------------------------------------------------------------
# handlers


def cmd_winding(args) -> dict:
    m = load_manifest(args.manifest)
    chart = _immersion_manifest(m, "winding")
    if chart.n != 1 or chart.ambient_dim != 2:
        raise ManifestError("winding needs a plane curve: n 1, ambient 2")
    rep = winding_number(chart, m.domain, _merge_quad(m.quad, args),
                         convention=args.norm)
    return rep.to_dict()


def cmd_gauss_degree(args) -> dict:
    m = load_manifest(args.manifest)
    chart = _immersion_manifest(m, "gauss-degree")
    if chart.ambient_dim != chart.n + 1:
        raise ManifestError("gauss-degree needs a codimension-one chart")
    rep = gauss_degree(chart, m.domain, _merge_quad(m.quad, args),
                       convention=args.norm)
    return rep.to_dict()


def cmd_euler(args) -> dict:
    m = load_manifest(args.manifest)
    chart = _immersion_manifest(m, "euler")
    if chart.n != 2 or chart.ambient_dim != 3:
        raise ManifestError("euler needs a closed surface in 3-space")
    rep = euler_characteristic(chart, m.domain, _merge_quad(m.quad, args),
                               convention=args.norm, strict=args.strict)
    return rep.to_dict()


def cmd_kaehler(args) -> dict:
    m = load_manifest(args.manifest)
    chart = _immersion_manifest(m, "kaehler")
    if chart.n != 2:
        raise ManifestError("kaehler needs a surface manifest")
    rep = kaehler_invariant(chart, m.domain, _merge_quad(m.quad, args),
                            certify_2pi=args.certify_2pi)
    return rep.to_dict()


def cmd_projective(args) -> dict:
    m = load_manifest(args.manifest)
    if not isinstance(m.chart, ConeChart):
        raise ManifestError("projective needs a cone manifest")
    if m.chart.n != 1 or m.chart.ambient_dim != 3:
        raise ManifestError("projective needs a curve through the "
                            "projective plane: n 1, ambient 3")
    rep = projective_invariants(m.chart, m.domain,
                                _merge_quad(m.quad, args), alpha=args.alpha)
    return rep.to_dict()


def cmd_form(args) -> dict:
    m = load_manifest(args.manifest)
    with open(args.spec) as fh:
        text = fh.read()
    components = math.comb(m.chart.ambient_dim, _frame_arity(m.chart))
    spec = parse_form_spec(text, m.domain.n, components)
    rep = form_invariant(m.chart, spec, m.domain,
                         _merge_quad(m.quad, args), convention=args.norm)
    return rep.to_dict()


def cmd_mesh_total(args) -> dict:
    # the quadrature defaults and checks apply to the one flag it has
    tol = _merge_quad(QuadratureSpec(), args).tol_cert
    mesh = _mesh_for(args)
    if mesh.dim == 2:
        return total_invariant_2(mesh, tol_cert=tol).to_dict()
    return total_invariant_3(mesh, tol_cert=tol).to_dict()


def cmd_mesh_vertex(args) -> dict:
    mesh = _mesh_for(args)
    if args.vertex < 0 or args.vertex >= mesh.num_vertices:
        raise MeshError(f"vertex {args.vertex} is out of range, mesh has "
                        f"{mesh.num_vertices} vertices")
    if mesh.dim == 2:
        value = exterior_angle_2(mesh, args.vertex)
    else:
        value = exterior_angle_3(mesh, args.vertex)
    return {"kind": f"mesh_vertex_{mesh.dim}", "dim": mesh.dim,
            "vertex": args.vertex, "value": value,
            "experimental": mesh.dim == 3}


def cmd_density_dump(args) -> dict:
    m = load_manifest(args.manifest)
    if m.chart.ambient_dim != _frame_arity(m.chart) + 1:
        raise ManifestError("density-dump needs a codimension-one chart")
    grid = args.grid if args.grid is not None else m.quad.grid
    if grid < 2:
        raise UsageError(f"--grid must be at least 2, got {grid}")
    pts, _ = tensor_nodes(m.domain, grid)
    density = degree_density(*level_stage(m.chart)(pts))
    n = m.domain.n
    flat_pts = pts.reshape(n, -1)
    flat_density = np.asarray(density, float).reshape(-1)
    with open(args.out, "w") as fh:
        fh.write(",".join(f"t{j + 1}" for j in range(n)) + ",density\n")
        for row in range(flat_density.size):
            cells = [flat_pts[j, row] for j in range(n)]
            cells.append(flat_density[row])
            fh.write(",".join("%.17g" % c for c in cells) + "\n")
    return {"kind": "density_dump", "out": args.out, "grid": grid,
            "rows": int(flat_density.size)}


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussmap",
        description="Homotopy invariants of immersed manifolds, by "
                    "integrating tangent-plane densities or folding mesh "
                    "angle defects.")
    sub = parser.add_subparsers(dest="command", required=True)

    quad = argparse.ArgumentParser(add_help=False)
    quad.add_argument("--grid", type=int, default=None,
                      help="starting nodes per axis")
    quad.add_argument("--max-levels", type=int, default=None,
                      help="grid doublings to try before giving up")
    quad.add_argument("--tol-conv", type=float, default=None,
                      help="stop once successive levels agree this well")
    quad.add_argument("--tol-cert", type=float, default=None,
                      help="largest residual still certified as an integer")
    pretty = argparse.ArgumentParser(add_help=False)
    pretty.add_argument("--pretty", action="store_true",
                        help="indent the JSON report")
    norm = argparse.ArgumentParser(add_help=False)
    norm.add_argument("--norm", choices=("sphere", "paper"),
                      default="sphere",
                      help="normalization family: unit-sphere volumes or "
                           "powers of 2 times pi")

    def chart_cmd(name, handler, help_text, parents, needs_spec=False):
        p = sub.add_parser(name, parents=parents, help=help_text)
        p.add_argument("manifest", help="chart manifest file")
        if needs_spec:
            p.add_argument("--spec", required=True,
                           help="form recipe file")
        p.set_defaults(handler=handler)
        return p

    chart_cmd("winding", cmd_winding,
              "turning invariant of a closed plane curve",
              [quad, pretty, norm])
    chart_cmd("gauss-degree", cmd_gauss_degree,
              "degree of the unit normal of a codimension-one immersion",
              [quad, pretty, norm])
    p = chart_cmd("euler", cmd_euler,
                  "Euler characteristic of a closed surface in 3-space",
                  [quad, pretty, norm])
    p.add_argument("--strict", action="store_true",
                   help="fail instead of reporting a null certificate")
    p = chart_cmd("kaehler", cmd_kaehler,
                  "pairing of a surface with the stacked rotation form",
                  [quad, pretty])
    p.add_argument("--certify-2pi", action="store_true",
                   help="also certify the value against multiples of 2*pi")
    p = chart_cmd("projective", cmd_projective,
                  "chart pairings of a curve through the projective plane",
                  [quad, pretty])
    p.add_argument("--alpha", nargs=3, type=float, default=None,
                   metavar=("A0", "A1", "A2"),
                   help="combine the three chart pairings with weights")
    chart_cmd("form", cmd_form,
              "pairing with a user-supplied form recipe",
              [quad, pretty, norm], needs_spec=True)

    p = sub.add_parser("mesh-total", parents=[pretty],
                       help="total defect invariant of a closed mesh")
    p.add_argument("mesh", help="mesh file (.off or .json)")
    p.add_argument("--dim", type=int, choices=(2, 3), default=None,
                   help="require this mesh dimension")
    p.add_argument("--tol-cert", type=float, default=None)
    p.set_defaults(handler=cmd_mesh_total)

    p = sub.add_parser("mesh-vertex", parents=[pretty],
                       help="defect at a single mesh vertex")
    p.add_argument("mesh", help="mesh file (.off or .json)")
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--dim", type=int, choices=(2, 3), default=None)
    p.set_defaults(handler=cmd_mesh_vertex)

    p = sub.add_parser("density-dump", parents=[pretty],
                       help="tabulate the normal-degree density on a grid")
    p.add_argument("manifest", help="chart manifest file")
    p.add_argument("--grid", type=int, default=None,
                   help="nodes per axis (defaults to the manifest grid)")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(handler=cmd_density_dump)

    return parser


def _jsonify(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _finite(obj):
    """``obj`` with every non-finite float replaced by ``None``."""
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_finite(value) for value in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _emit(doc, indent=None) -> None:
    """Print ``doc`` as strict JSON, with non-finite floats as null."""
    try:
        text = json.dumps(doc, indent=indent, allow_nan=False,
                          default=_jsonify)
    except ValueError:
        text = json.dumps(_finite(doc), indent=indent, allow_nan=False,
                          default=_jsonify)
    print(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except UsageError as exc:
        parser.error(str(exc))
    except GaussMapError as exc:
        _emit({"error": exc.payload()})
        return 1
    except OSError as exc:
        _emit({"error": {"code": "io", "message": str(exc)}})
        return 1
    _emit(report, indent=2 if args.pretty else None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
