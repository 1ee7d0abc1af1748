"""The measured process: loads a plan's inputs and runs its cases.

    python3 worker.py setup PLAN            import, load, print the time
    python3 worker.py solve PLAN            peak RSS, then passes on demand
    python3 worker.py trace PLAN SECONDS    per-layer run (see tracing.py)

``run.py`` starts it with ``PYTHONPATH`` pointing at the program's
``src`` and BLAS/OpenMP pinned to one thread.  It prints one JSON
document on its last line.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

MIN_PASSES = 2   # measured passes after the warm-up, at least


def read_plan(path) -> dict:
    plan = json.loads(Path(path).read_text())
    plan["dir"] = str(Path(path).parent)
    return plan


def load_inputs(plan) -> dict:
    """Every input of the plan, loaded as a user would load it."""
    import gaussmap as gm
    loaders = {"manifest": gm.load_manifest, "off": gm.load_off,
               "json": gm.load_mesh_json}
    base = Path(plan["dir"])
    return {name: loaders[kind](base / name)
            for name, kind in plan["inputs"].items()}


def call_driver(case, obj):
    """One case through its public driver; the result the checks read."""
    import gaussmap as gm
    driver = case["driver"]
    if driver == "exterior_angle_2":
        return [gm.exterior_angle_2(obj, v) for v in case["vertices"]]
    if driver in ("total_invariant_2", "total_invariant_3"):
        return getattr(gm, driver)(obj)
    return getattr(gm, driver)(obj.chart, obj.domain, obj.quad)


def _close(got, want, tol=1e-9) -> bool:
    return len(got) == len(want) and all(
        abs(g - w) <= tol for g, w in zip(got, want))


def check(case, out):
    """None when ``out`` is right, else a one-line description."""
    driver, want = case["driver"], case["expect"]
    if case.get("pinned"):
        # right when it certifies the true k or declines to certify
        ok = out.k in (want["k"], None)
        return None if ok else f"k {out.k}, true k {want['k']}"
    if driver == "winding_number":
        ok = (out.k == want["k"]
              and out.extras["turning_number"] == -want["k"])
        return None if ok else f"k {out.k}, expected {want['k']}"
    if driver == "projective_invariants":
        ok = list(out.ks) == want["ks"]
        return None if ok else f"ks {list(out.ks)}, expected {want['ks']}"
    if driver == "euler_characteristic":
        chi = out.extras["euler_characteristic"]
        ok = (2 * out.k == want["euler"] and chi == want["euler"]
              and out.cross_checks["curvature_route"]["agrees"])
        return None if ok else (
            f"k {out.k}, euler {chi}, expected {want['euler']}, "
            f"curvature route {out.cross_checks.get('curvature_route')}")
    if driver == "gauss_degree":
        return None if out.k == want["k"] else \
            f"k {out.k}, expected {want['k']}"
    if driver == "total_invariant_2":
        k = out.certifications["2pi"]["k"]
        if k != want["euler"]:
            return f"2pi certificate {k}, V - E + F = {want['euler']}"
    if driver in ("total_invariant_2", "total_invariant_3"):
        return None if _close(out.per_vertex, want["per_vertex"]) else \
            "per-vertex defects differ from the reference"
    if driver == "exterior_angle_2":
        return None if _close(out, want["values"]) else \
            f"defects {out}, reference {want['values']}"
    raise ValueError(f"no check for driver {driver}")


def check_cli(expect, doc) -> bool:
    """Whether one ``gaussmap`` JSON report shows the expected answer."""
    if "euler" in expect and doc.get("kind") == "mesh_total_2":
        return doc["certifications"]["2pi"]["k"] == expect["euler"]
    if "euler" in expect:
        return doc["extras"]["euler_characteristic"] == expect["euler"]
    return doc.get("k") == expect["k"]


class Tally:
    """Operations attempted and failed over whole passes."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []

    def record(self, case, out, error=None):
        self.attempted += 1
        problem = error or check(case, out)
        if problem is None:
            return
        self.failed += 1
        if not case.get("pinned"):
            self.problems.append(f"{case['id']}: {problem}")

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems[:20]}


def solve_pass(plan, inputs, tally, on_case=None):
    """Every case once through its driver; returns the summed driver
    time and the outputs by case id.  ``on_case(case, seconds, output)``
    runs after each timed call that returned."""
    from gaussmap import GaussMapError
    total = 0.0
    outputs = {}
    for case in plan["cases"]:
        obj = inputs[case["input"]]
        t0 = time.perf_counter()
        try:
            out = call_driver(case, obj)
        except GaussMapError as exc:
            total += time.perf_counter() - t0
            tally.record(case, None, f"raised {exc.payload()}")
            continue
        dt = time.perf_counter() - t0
        total += dt
        outputs[case["id"]] = out
        tally.record(case, out)
        if on_case is not None:
            on_case(case, dt, out)
    return total, outputs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_setup(plan) -> dict:
    load_inputs(plan)
    return {"loaded_at": time.monotonic()}


def run_solve(plan) -> dict:
    """The warm-up pass, which is also the peak-RSS pass, then one solve
    pass for each ``pass`` line on stdin, each answered with its time.
    Any other line ends it; the last reply is the tally."""
    inputs = load_inputs(plan)
    tally = Tally()
    solve_pass(plan, inputs, tally)
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
    for line in sys.stdin:
        if line.strip() != "pass":
            break
        print(json.dumps({"pass_s": solve_pass(plan, inputs, tally)[0]}),
              flush=True)
    return tally.as_dict()


def main(argv) -> int:
    mode, plan = argv[0], read_plan(argv[1])
    if mode == "setup":
        result = run_setup(plan)
    elif mode == "solve":
        result = run_solve(plan)
    elif mode == "trace":
        import tracing
        result = tracing.run_trace(plan, float(argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
