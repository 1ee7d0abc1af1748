"""Benchmark of gaussmap's invariant sequence, end to end and per layer.

    python3 bench/run.py --workload curves --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --selftest

Run from the root of a checkout.  The program is imported from its
``src`` directory; without it the benchmark exits with status 2 and
prints no result.  Inputs are generated from ``--seed`` into
``bench/_work`` and removed at the end.  Every process it measures is a
child of this one, with BLAS and OpenMP pinned to one thread.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md for what each workload and metric is.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
import workloads  # noqa: E402

LAUNCH_ROUNDS = 5     # fresh-process rounds per run, at least
LAUNCH_SECONDS = 3.0  # with --trace 1: rounds before and after, each this long
CHILD_TIMEOUT = 150   # seconds; the whole run must end within 180
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB",
              "cli_s": "s"}
PER_LAYER = {
    "manifest.load_manifest_s": "s", "expr.eval_jet2_s": "s",
    "geometry.frame_s": "s", "geometry.immersion_check_s": "s",
    "geometry.pluecker_s": "s", "forms.canonical_density_s": "s",
    "forms.gauss_bonnet_density_s": "s", "forms.projective_density_s": "s",
    "integrate.tensor_nodes_s": "s", "integrate.weighted_sum_s": "s",
    "integrate.levels": "count", "integrate.points": "count",
    "integrate.peak_alloc_mb": "MB", "invariants.self_s": "s",
    "polyhedral.load_off_s": "s", "polyhedral.load_mesh_json_s": "s",
    "polyhedral.validate_s": "s", "polyhedral.face_counts_s": "s",
    "polyhedral.star_s": "s", "polyhedral.exterior_angle_2_s": "s",
    "polyhedral.exterior_angle_3_s": "s", "polyhedral.simplices": "count",
    "cli.import_s": "s", "cli.main_s": "s",
    "trace.overhead_ratio": "ratio", "trace.replay_drift": "count",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def launch(args, env) -> tuple:
    """Run a fresh interpreter to its end; (monotonic start, end, stdout)."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    end = time.monotonic()
    if proc.returncode != 0 and "gaussmap.cli" not in args:
        raise RuntimeError(f"{' '.join(args)} failed:\n{proc.stderr}")
    return start, end, proc.stdout


def solve_interleaved(plan_path, env, seconds, commands, rounds):
    """Drives ``worker.py solve`` pass by pass until the passes add up to
    ``seconds`` (and at least MIN_PASSES), with a launch round of
    ``commands`` before the first pass and after each one, topped up to
    LAUNCH_ROUNDS, so that the passes and the fresh processes sample the
    machine over the same stretch of time.  Returns (peak RSS, median
    pass time, tally)."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), "solve", str(plan_path)],
        env=env, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()

    def reply(request=None):
        if request is not None:
            proc.stdin.write(request + "\n")
            proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError("the measured process ended early")
        return json.loads(line)

    def launch_round():
        rounds.append([launch(args, env) for args in commands])

    try:
        rss = reply()["peak_rss_mb"]
        launch_round()
        passes = []
        while len(passes) < worker.MIN_PASSES or sum(passes) < seconds:
            passes.append(reply("pass")["pass_s"])
            launch_round()
        while len(rounds) < LAUNCH_ROUNDS:
            launch_round()
        tally = reply("done")
        proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return rss, median(passes), tally


def launch_rounds(commands, env, rounds):
    """Rounds of fresh processes, one launch of each command per round,
    for LAUNCH_SECONDS (and at least one round).  Appends each round's
    (start, end, stdout) triples to ``rounds``."""
    first = time.monotonic()
    while True:
        rounds.append([launch(args, env) for args in commands])
        if time.monotonic() - first >= LAUNCH_SECONDS:
            return


def cli_args(plan, workdir) -> list:
    command, name = plan["cli"]["args"]
    return ["-m", "gaussmap.cli", command, str(workdir / name)]


def measure(workload, seed, seconds, trace) -> dict:
    env = child_env()
    work_root = BENCH / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-",
                                    dir=work_root))
    try:
        plan = workloads.generate(workload, seed, workdir)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        setup_cmd = [str(BENCH / "worker.py"), "setup", str(plan_path)]
        # untimed: compiles the program's bytecode and warms the file cache
        launch(setup_cmd, env)
        launch(cli_args(plan, workdir), env)
        rounds = []
        if trace:
            # import launches before and after, the traced run between
            commands = [["-c", "import gaussmap"]]
            launch_rounds(commands, env, rounds)
            _, _, out = launch([str(BENCH / "worker.py"), "trace",
                                str(plan_path), str(seconds)], env)
            result = json.loads(out.strip().splitlines()[-1])
            launch_rounds(commands, env, rounds)
            metrics = result["metrics"]
            metrics["cli.import_s"] = median(end - start
                                             for (start, end, _), in rounds)
            cli_ok = True
            units = PER_LAYER
        else:
            commands = [setup_cmd, cli_args(plan, workdir)]
            rss, solve, result = solve_interleaved(plan_path, env, seconds,
                                                   commands, rounds)
            setup = [json.loads(out.strip().splitlines()[-1])["loaded_at"]
                     - start for (start, _, out), _ in rounds]
            metrics = {"setup_s": median(setup), "solve_s": solve,
                       "peak_rss_mb": rss,
                       "cli_s": median(end - start
                                       for _, (start, end, _) in rounds)}
            cli_ok = all(worker.check_cli(plan["cli"]["expect"],
                                          json.loads(out))
                         for _, (_, _, out) in rounds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = list(result["problems"])
    if not cli_ok:
        problems.append(f"gaussmap {' '.join(plan['cli']['args'])}: "
                        f"wrong report")
    for problem in problems:
        print(f"INCORRECT {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{workload} {name} {metrics[name]:.6g} {unit}")
    return {"correct": not problems, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def selftest() -> int:
    """Every workload at reduced size, in this process: all correctness
    checks, the replay against the drivers and the CLI report."""
    import tracing
    failures = 0
    (BENCH / "_work").mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=BENCH / "_work") as tmp:
            t0 = time.perf_counter()
            plan = workloads.generate(workload, 1, Path(tmp), small=True)
            plan["dir"] = tmp
            inputs = worker.load_inputs(plan)
            tally = worker.Tally()
            traced = tracing.TracedPass(plan, inputs, tally)
            drifted = traced.drifted
            _, cli_ok = tracing.cli_main_s(plan)
            pinned = sum(1 for c in plan["cases"] if c.get("pinned"))
            problems = tally.problems + [f"replay drifted: {d}"
                                         for d in drifted]
            if not cli_ok:
                problems.append("CLI report was wrong")
            if tally.failed - len(tally.problems) > pinned:
                problems.append("pinned case counted more than once")
            print(f"{workload}: {tally.attempted} attempted, "
                  f"{tally.failed} failed ({pinned} pinned), "
                  f"{len(traced.plain)} replayed, "
                  f"{time.perf_counter() - t0:.1f} s")
            for problem in problems:
                print(f"  FAIL {problem}")
            failures += len(problems)
    print("selftest", "passed" if not failures else f"{failures} failures")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload's checks at reduced size")
    args = parser.parse_args(argv)
    if not (SRC / "gaussmap" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'gaussmap'} is missing",
              file=sys.stderr)
        return 2
    # a terminated run still stops its children and removes its inputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.selftest:
        sys.path.insert(0, str(SRC))
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
