"""The per-layer run.

The drivers are not instrumented.  This module replays each driver's
level loop from the modules' public functions, stage by stage, under
spans recorded here: ``tensor_nodes`` -> frame -> ``immersion_check``
-> ``pluecker`` -> density -> weighted sum, and for meshes the face
counts, the per-vertex defects and the star scans inside them.  A span
is (name, start, end, parent, case); a layer's self time is its span
time minus its child spans.  Spans stay in memory and are written out
when the run ends.

The replay must reproduce the driver: its level counts must equal the
driver's, and its value at every level (and the per-vertex defects) must
match the driver's ``trace`` to 1e-10 relative, with a floor of 1 for
values near zero.  Renaming an internal function
can break this module, never the end-to-end run.
"""
from __future__ import annotations

import contextlib
import io
import json
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median

import numpy as np

import gaussmap
import gaussmap.cli
import gaussmap.geometry
from gaussmap import (SimplicialImmersion, canonical_density, exterior_angle_2,
                      exterior_angle_3, gauss_bonnet_density, immersion_check,
                      load_manifest, load_mesh_json, load_off, pluecker,
                      projective_density, tensor_nodes)

import worker

SMOOTH = ("winding_number", "projective_invariants", "gauss_degree",
          "euler_characteristic")
LAYERS = (
    "expr.eval_jet2_s", "geometry.frame_s", "geometry.immersion_check_s",
    "geometry.pluecker_s", "forms.canonical_density_s",
    "forms.gauss_bonnet_density_s", "forms.projective_density_s",
    "integrate.tensor_nodes_s", "integrate.weighted_sum_s",
    "polyhedral.face_counts_s", "polyhedral.star_s",
    "polyhedral.exterior_angle_2_s", "polyhedral.exterior_angle_3_s",
)
LOAD_REPS = 3
REPLAY_RTOL = 1e-10


class Recorder:
    """Spans and counts of one replay pass."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, case]
        self.stack = []
        self.case = None
        self.counts = Counter()

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        record = [name, 0.0, 0.0, parent, self.case]
        self.spans.append(record)
        self.stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def self_times(self) -> dict:
        """Summed self time per span name, in seconds."""
        inner = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - inner[i]
        return totals


@contextlib.contextmanager
def _traced_jets(rec):
    """A span round every ``eval_jet2`` that a chart frame makes."""
    original = getattr(gaussmap.geometry, "eval_jet2", None)
    if original is None:
        yield
        return

    def traced(*args, **kwargs):
        with rec.span("expr.eval_jet2"):
            return original(*args, **kwargs)

    gaussmap.geometry.eval_jet2 = traced
    try:
        yield
    finally:
        gaussmap.geometry.eval_jet2 = original


@contextlib.contextmanager
def _traced_star(rec, mesh):
    """A span round every ``star`` scan of one mesh."""
    original = mesh.star

    def traced(vertex):
        with rec.span("polyhedral.star"):
            return original(vertex)

    mesh.star = traced
    try:
        yield
    finally:
        del mesh.star


def _staged_integral(rec, chart, domain, quad, density):
    """The level loop of ``integrate``, one span per stage; returns the
    value of every level, as the driver's ``trace``."""
    trace = []
    for level in range(quad.max_levels):
        m = quad.grid * (1 << level)
        with rec.span("integrate.tensor_nodes"):
            pts, weights = tensor_nodes(domain, m)
        rec.counts["integrate.levels"] += 1
        rec.counts["integrate.points"] += weights.size
        with rec.span("geometry.frame"):
            frame = chart.frame(pts)
        with rec.span("geometry.immersion_check"):
            immersion_check(frame)
        values = density(frame)
        with rec.span("integrate.weighted_sum"):
            trace.append(float(np.sum(np.asarray(values, float) * weights)))
        if level > 0 and abs(trace[-1] - trace[-2]) < quad.tol_conv:
            break
    return trace


def _degree_density(rec):
    def density(frame):
        with rec.span("geometry.pluecker"):
            pv = pluecker(frame)
        with rec.span("forms.canonical_density"):
            return canonical_density(pv)
    return density


def _curvature_density(rec):
    def density(frame):
        with rec.span("forms.gauss_bonnet_density"):
            return gauss_bonnet_density(frame)
    return density


def _projective_density(rec, i):
    def density(frame):
        with rec.span("geometry.pluecker"):
            pv = pluecker(frame)
        with rec.span("forms.projective_density"):
            return projective_density(i, pv)
    return density


def _mesh_totals(rec, mesh, angle, name):
    """Face counts, per-vertex defects and the second face count, in the
    order ``total_invariant_2`` and ``total_invariant_3`` make them."""
    with rec.span("polyhedral.face_counts"):
        mesh.face_counts()
    with _traced_star(rec, mesh):
        per_vertex = []
        for v in range(mesh.num_vertices):
            with rec.span(name):
                per_vertex.append(angle(mesh, v))
    if mesh.dim == 2:
        with rec.span("polyhedral.face_counts"):
            mesh.face_counts()
    return per_vertex


def replay(rec, case, obj):
    """Stage one case; returns the values ``driver_values`` reads from
    the driver's output, as one flat list."""
    driver = case["driver"]
    if driver in ("winding_number", "gauss_degree", "euler_characteristic"):
        trace = _staged_integral(rec, obj.chart, obj.domain, obj.quad,
                                 _degree_density(rec))
        values = [len(trace), *trace]
        if obj.chart.n == 2:
            values.append(_staged_integral(rec, obj.chart, obj.domain,
                                           obj.quad,
                                           _curvature_density(rec))[-1])
        return values
    if driver == "projective_invariants":
        values = []
        for i in range(3):
            trace = _staged_integral(rec, obj.chart, obj.domain, obj.quad,
                                     _projective_density(rec, i))
            values += [len(trace), *trace]
        return values
    if driver == "total_invariant_2":
        return _mesh_totals(rec, obj, exterior_angle_2,
                            "polyhedral.exterior_angle_2")
    if driver == "total_invariant_3":
        return _mesh_totals(rec, obj, exterior_angle_3,
                            "polyhedral.exterior_angle_3")
    if driver == "exterior_angle_2":
        with _traced_star(rec, obj):
            values = []
            for v in case["vertices"]:
                with rec.span("polyhedral.exterior_angle_2"):
                    values.append(exterior_angle_2(obj, v))
        return values
    raise ValueError(f"no replay for driver {driver}")


def driver_values(case, out) -> list:
    """The driver's numbers that the replay must reproduce: for each
    integral its level count and the value of every level (only the
    value for the curvature route, which reports no trace), for meshes
    the per-vertex defects."""
    driver = case["driver"]
    if driver == "projective_invariants":
        return [v for r in out.charts for v in (len(r.trace), *r.trace)]
    if driver in SMOOTH:
        values = [len(out.trace), *out.trace]
        if "curvature_route" in out.cross_checks:
            values.append(out.cross_checks["curvature_route"]["raw"])
        return values
    if driver == "exterior_angle_2":
        return list(out)
    return list(out.per_vertex)


def replay_matches(staged, reference) -> bool:
    return len(staged) == len(reference) and all(
        abs(s - r) <= REPLAY_RTOL * max(1.0, abs(r))
        for s, r in zip(staged, reference))


class TracedPass:
    """One pass in which every driver call is followed at once by its
    traced replay, so that both see the machine in the same state."""

    def __init__(self, plan, inputs, tally):
        self.rec = Recorder()
        self.plain = {}          # case id -> untraced driver seconds
        self.traced = 0.0        # replay wall seconds, spans included
        self.drifted = []
        self.inputs = inputs
        self.total = worker.solve_pass(plan, inputs, tally, self._replay)[0]

    def _replay(self, case, seconds, out):
        self.plain[case["id"]] = seconds
        rec = self.rec
        rec.case = case["id"]
        start = time.perf_counter()
        with _traced_jets(rec), rec.span("case"):
            staged = replay(rec, case, self.inputs[case["input"]])
        self.traced += time.perf_counter() - start
        if not replay_matches(staged, driver_values(case, out)):
            self.drifted.append(case["id"])

    def staged_smooth(self) -> float:
        """Self time of the smooth layers' spans."""
        return sum(t for name, t in self.rec.self_times().items()
                   if name.split(".")[0] in ("expr", "geometry", "forms",
                                             "integrate"))

    def plain_smooth(self) -> float:
        return sum(t for cid, t in self.plain.items()
                   if cid.split(":")[0] in SMOOTH)


def load_layers(plan):
    """Median load times by loader, and the loaded inputs."""
    loaders = {"manifest": ("manifest.load_manifest_s", load_manifest),
               "off": ("polyhedral.load_off_s", load_off),
               "json": ("polyhedral.load_mesh_json_s", load_mesh_json)}
    base = Path(plan["dir"])
    samples = defaultdict(list)
    for _ in range(LOAD_REPS):
        sums = Counter()
        inputs = {}
        for name, kind in plan["inputs"].items():
            metric, load = loaders[kind]
            t0 = time.perf_counter()
            inputs[name] = load(base / name)
            sums[metric] += time.perf_counter() - t0
            if kind != "manifest":
                mesh = inputs[name]
                t0 = time.perf_counter()
                SimplicialImmersion(mesh.vertices, mesh.simplices)
                sums["polyhedral.validate_s"] += time.perf_counter() - t0
        for metric, _ in loaders.values():
            samples[metric].append(sums[metric])
        samples["polyhedral.validate_s"].append(sums["polyhedral.validate_s"])
    return {k: median(v) for k, v in samples.items()}, inputs


def cli_main_s(plan) -> tuple:
    """Median in-process ``gaussmap.cli.main`` time on the CLI case, and
    whether its report was right."""
    cli = plan["cli"]
    base = Path(plan["dir"])
    argv = [cli["args"][0], str(base / cli["args"][1])]
    times, ok = [], True
    for _ in range(LOAD_REPS):
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = gaussmap.cli.main(argv)
        times.append(time.perf_counter() - t0)
        ok = ok and code == 0 and worker.check_cli(
            cli["expect"], json.loads(buf.getvalue()))
    return median(times), ok


def peak_alloc_mb(case, obj) -> float:
    """tracemalloc peak of one driver call, in its own pass."""
    tracemalloc.start()
    try:
        worker.call_driver(case, obj)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def run_trace(plan, seconds) -> dict:
    metrics, inputs = load_layers(plan)
    tally = worker.Tally()
    warm = {}
    worker.solve_pass(plan, inputs, tally,
                      lambda case, dt, out: warm.__setitem__(case["id"], dt))
    passes = []
    start = time.perf_counter()
    while (len(passes) < worker.MIN_PASSES
           or time.perf_counter() - start < seconds):
        passes.append(TracedPass(plan, inputs, tally))
    for layer in LAYERS:
        metrics[layer] = median(p.rec.self_times().get(layer[:-2], 0.0)
                                for p in passes)
    metrics["invariants.self_s"] = median(
        p.plain_smooth() - p.staged_smooth() for p in passes)
    rec = passes[-1].rec
    metrics["integrate.levels"] = rec.counts["integrate.levels"]
    metrics["integrate.points"] = rec.counts["integrate.points"]
    metrics["polyhedral.simplices"] = sum(
        len(obj.simplices) for obj in inputs.values()
        if isinstance(obj, SimplicialImmersion))
    largest = max(plan["cases"], key=lambda c: warm.get(c["id"], 0.0))
    metrics["integrate.peak_alloc_mb"] = peak_alloc_mb(
        largest, inputs[largest["input"]])
    metrics["cli.main_s"], cli_ok = cli_main_s(plan)
    metrics["trace.overhead_ratio"] = median(p.traced / p.total
                                             for p in passes)
    drifted = sorted({cid for p in passes for cid in p.drifted})
    metrics["trace.replay_drift"] = len(drifted)

    out_dir = Path(__file__).resolve().parent / "_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spans-{plan['workload']}-{plan['seed']}.json").write_text(
        json.dumps({"fields": ["name", "start", "end", "parent", "case"],
                    "spans": rec.spans}))
    result = tally.as_dict()
    if not cli_ok:
        result["problems"].append("in-process CLI report was wrong")
    return {"metrics": metrics, "passes": len(passes), "drifted": drifted,
            **result}
