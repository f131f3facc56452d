"""moranspec benchmark: closed-loop CLI workloads, timed end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload measure --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

One process runs one workload: a single caller sends each op, an in-process
``moranspec.cli.main(argv)`` call on generated ``.moran`` files, only after
the previous op returned.  Ops come in passes (see ``workloads.py``); passes
repeat until ``--seconds`` have passed and at least ``MIN_OPS`` ops ran,
after one untimed warm-up pass.
With ``--trace 0`` nothing is wrapped and the end-to-end metrics are
reported; with ``--trace 1`` every pass runs once untimed by the tracer and
once traced, in alternating order, and the per-layer metrics are reported.
``--workload all`` runs each workload in its own process and prints one
table.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the
environment and, for traced runs, every span, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fewest timed ops in an untraced run, so that ten lie beyond op_p90_ms.
MIN_OPS = 100
#: Fewest fresh interpreters started per run; setup_s is their median.
SETUP_STARTS = 15


def cap_thread_pools() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; returns that count."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or int(value) > nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_cli():
    """Import moranspec.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "moranspec" / "cli.py").is_file():
        raise SystemExit(f"bench: no moranspec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from moranspec import cli

    if Path(cli.__file__).resolve().parent != SRC / "moranspec":
        raise SystemExit(f"bench: imported moranspec from {cli.__file__}")
    return cli


def environment(nproc: int) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        sha = None
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": nproc,
            "machine": platform.machine()}


def setup_argv() -> list[str]:
    """A fresh interpreter that imports moranspec.cli and prints the clock."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "import moranspec.cli; print(time.perf_counter())")
    return [sys.executable, "-I", "-c", code, str(SRC)]


def setup_start(argv) -> float:
    """Seconds from spawning ``argv`` until it has imported moranspec.cli."""
    start = perf_counter()
    done = subprocess.run(argv, check=True, capture_output=True, text=True)
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by both processes.
    return float(done.stdout) - start


class Run:
    """Ops sent one at a time through ``cli.main``, with their outcomes."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures = []  # (op name, reason)
        self.codes = {}

    def run_pass(self, ops, tracer=None) -> tuple[float, list[float]]:
        """Run one op list in order; returns its wall time and op latencies (s)."""
        latencies = []
        start = perf_counter()
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            code, reason = None, None
            span = tracer.op(op.name) if tracer else contextlib.nullcontext()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                    t0 = perf_counter()
                    try:
                        code = self.cli.main(list(op.argv))
                    finally:  # an op that raises keeps its latency too
                        latencies.append(perf_counter() - t0)
            except Exception as exc:  # an op that raises is a failed op
                traceback.print_exc()
                reason = f"raised {type(exc).__name__}: {exc}"
            self.attempted += 1
            if reason is None:
                reason = op.failure(code, out.getvalue())
                key = f"{op.argv[0]}:{code}"
                self.codes[key] = self.codes.get(key, 0) + 1
            if reason is not None:
                self.failures.append((op.name, reason))
        return perf_counter() - start, latencies


def traced_pass(run: Run, ops, tracer) -> float:
    tracer.install()
    try:
        wall, _ = run.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    tracer.end_pass()
    return wall


def run_workload(workload: str, seed: int, seconds: float, trace: bool, nproc: int):
    cli = import_cli()
    from workloads import make_pass
    from tracer import Tracer

    env = environment(nproc)
    argv = setup_argv()
    setups = []
    if not trace:
        # The first start writes bytecode caches, which a user pays once only.
        subprocess.run(argv, check=True, capture_output=True)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    data = SRC / "moranspec" / "data"
    run = Run(cli)
    tracer = Tracer() if trace else None
    timed, traced_walls = [], []  # (wall, op latencies) of each untraced pass
    try:
        # Pass 0 warms imports and caches; its ops are checked, not timed.
        run.run_pass(make_pass(workload, seed, 0, work, data))
        start = perf_counter()
        index = 1
        while (perf_counter() - start < seconds
               or not trace and sum(len(lat) for _, lat in timed) < MIN_OPS):
            pass_dir = work / str(index)
            pass_dir.mkdir()
            ops = make_pass(workload, seed, index, pass_dir, data)
            # A traced run goes first on odd passes, so that the warm-up the
            # second run of a pass gets favours neither side of the overhead.
            if tracer and index % 2:
                traced_walls.append(traced_pass(run, ops, tracer))
            timed.append(run.run_pass(ops))
            if tracer and not index % 2:
                traced_walls.append(traced_pass(run, ops, tracer))
            shutil.rmtree(pass_dir)
            index += 1
            if not trace:
                # One start per pass spreads the samples over the whole run.
                setups.append(setup_start(argv))
        while not trace and len(setups) < SETUP_STARTS:
            setups.append(setup_start(argv))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [wall for wall, _ in timed]
    if tracer:
        metrics = tracer.metrics()
        metrics["trace.overhead_share"] = (sum(traced_walls) / sum(walls) - 1, "ratio")
    else:
        lat = [x for _, pass_lat in timed for x in pass_lat]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            # The mean, not the median: the host's slow stretches last longer
            # than a pass, and a median jumps between a run's fast and slow
            # passes where the mean moves by their share.
            "wall_s": (statistics.fmean(walls), "s"),
            "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "op_p90_ms": (1e3 * statistics.quantiles(lat, n=10)[-1], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    failed = len(run.failures)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "env": env, "pass_walls": walls,
              "exit_codes": run.codes, "failures": run.failures,
              "error_rate": failed / run.attempted, "result": result}
    if tracer:
        record["spans"] = tracer.spans
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))

    print(f"workload {workload}  seed {seed}  timed passes {len(timed)} "
          f"({sum(len(lat) for _, lat in timed)} ops) + 1 warm-up  "
          f"ops {run.attempted}  env {json.dumps(env)}")
    print(f"exit codes: {json.dumps(run.codes, sort_keys=True)}")
    for name, reason in run.failures:
        print(f"FAILED {name}: {reason}")
    print(f"  {'error_rate':<44}{failed / run.attempted:>14.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44}{value:>14.6g} {unit}")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; one table and one combined result line."""
    from workloads import WORKLOADS

    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"bench: workload {workload} exited {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    nproc = cap_thread_pools()  # before anything imports numpy
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), nproc)


if __name__ == "__main__":
    sys.exit(main())
