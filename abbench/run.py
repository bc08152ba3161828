#!/usr/bin/env python3
"""Benchmark of the abcoulomb package: one client, closed loop, one
operation at a time in this process.

    python3 abbench/run.py --workload extension_roots --seed 1 --seconds 28 --trace 0
    python3 abbench/run.py --workload all --seed 1

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Each run imports the package, sets the workload up several
times (inputs from ``--seed``, package-side preparation, warm-up) and then:

* ``--trace 0`` makes round-robin passes over the workload's operations
  until ``--seconds`` have gone by and each has run MIN_REPEATS times,
  checks every output and reports the end-to-end metrics, taken over the
  median latency of each operation and scaled to the reference speed (see
  ReferenceClock);
* ``--trace 1`` alternates untraced and traced passes over the same
  operations for ``--seconds`` and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation fails
when it raises or its output check fails; failures are counted, and
reported by reason, never raised.  ``correct`` is false only when the
benchmark could not check an output (a check itself raised).  Failure
reports, and the spans of the last traced run's first traced pass, go to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("closed_form_scans", "extension_roots", "extension_profiles", "oracle_crosscheck")
DEFAULT_SECONDS = 28
SETUP_REPEATS = 3
# Executions of each input at least, so that its median latency means
# something.
MIN_REPEATS = 3
# Stop before the 180 s limit even when MIN_REPEATS has not been reached.
HARD_CAP_S = 150.0
# One client: BLAS, OpenMP and MKL pools are pinned to one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# Time of one ReferenceClock loop of each kind at the reference speed:
# roughly its time on the 2-vCPU Xeon host the benchmark was defined on, when
# that host was quiet.  It only sets the scale of the reported times.
REFERENCE_S = {"numeric": 4.0e-4, "text": 1.0e-3}


class ReferenceClock:
    """Scales wall times to the host's speed at the moment they were taken.

    The benchmark runs on a shared host whose speed drifts with its other
    tenants: a fixed loop ran 1.1 to 1.6 times its best time from one
    second to the next, and medians over 10, 30 and 60 s windows all had an
    interquartile range of about 17% of their median.  Longer runs do not
    average that away.  So a short fixed reference loop runs after each
    timed interval, and the interval is divided by the mean of the loop's
    times just before and after it, relative to REFERENCE_S.  A change to
    the program moves the scaled times in full; a change of host speed
    during a run cancels.  The unscaled wall times are printed as well.

    Contention slows different work by different amounts, so the loop
    resembles the workload's own work: ``numeric`` (interpreter arithmetic,
    small allocations, numpy array passes) for the special-function, root,
    profile and sparse-eigensolver workloads, and ``text`` (JSON and CSV
    formatting of row records) for the scan workload.  Under a contending
    process on the other core, the numeric loop cut the spread of one
    solve_secular pass from 7% to 1% and the text loop that of one scan
    pass from 8% to 1.4%; each loop did worse on the other workload."""

    def __init__(self, kind: str) -> None:
        import numpy as np

        self._array = np.linspace(1.0, 2.0, 4096)
        self._sqrt = np.sqrt
        self._records = [
            {"n": i, "m": -i, "energy": i * 0.37e-3, "kappa": 1.0 / (i + 0.5), "exists": True}
            for i in range(150)
        ]
        self._work = {"numeric": self._numeric, "text": self._text}[kind]
        self.reference_s = REFERENCE_S[kind]
        for _ in range(20):
            self._work()
        self.last = self._measure()
        self.slowness: list[float] = []

    def _numeric(self):
        total = 0
        for i in range(1000):
            total += i * i
        text = ",".join([f"{i * 0.37:.6g}" for i in range(200)])
        rows = [{"n": i, "e": i * 0.1} for i in range(200)]
        for _ in range(10):
            self._sqrt(self._array).sum()
        return total, text, rows

    def _text(self):
        lines = "\n".join(",".join([repr(r["n"]), repr(r["energy"]), repr(r["kappa"])])
                          for r in self._records)
        return json.dumps(self._records), lines

    def _measure(self) -> float:
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0

    def scale(self, seconds: float) -> float:
        """``seconds`` of wall time that ended just now, at the reference
        speed."""
        now = self._measure()
        slowness = 0.5 * (self.last + now) / self.reference_s
        self.last = now
        self.slowness.append(slowness)
        return seconds / slowness


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class FailureLog:
    """Checks outputs and records each failed operation with its workload,
    inputs and reason ``"<category>: <detail>"``.

    ``attempted`` and ``failed`` count distinct inputs, not executions: a
    run repeats its inputs as often as its time allows, so per-execution
    totals would change with the speed of the host while these repeat
    exactly for a seed.  An input fails if any of its executions fails."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.executions = 0
        self.seen: set[int] = set()
        self.failing: set[int] = set()
        self.sound = True
        self.by_input: dict[tuple[str, str], dict] = {}

    @property
    def attempted(self) -> int:
        return len(self.seen)

    @property
    def failed(self) -> int:
        return len(self.failing)

    def verdict(self, index: int, item, output=None, error: Exception | None = None) -> None:
        self.executions += 1
        self.seen.add(index)
        if error is not None:
            reason = f"raised_{type(error).__name__}: {error}"
        else:
            try:
                reason = self.workload.check(item, output)
            except Exception as exc:  # a broken check must not stop the run
                self.sound = False
                reason = f"check_error: {type(exc).__name__}: {exc}"
        if reason is None:
            return
        self.failing.add(index)
        inputs = self.workload.describe(item)
        key = (json.dumps(inputs, sort_keys=True), reason)
        entry = self.by_input.setdefault(
            key, {"workload": self.workload.name, "inputs": inputs, "reason": reason, "count": 0}
        )
        entry["count"] += 1

    def by_reason(self) -> Counter:
        """Failed inputs per reason category."""
        return Counter(entry["reason"].split(":", 1)[0] for entry in self.by_input.values())

    def write(self, path: Path, seed: int, trace: int) -> None:
        report = {
            "workload": self.workload.name, "seed": seed, "trace": trace,
            "attempted": self.attempted, "failed": self.failed, "executions": self.executions,
            "by_reason": dict(sorted(self.by_reason().items())),
            "failures": list(self.by_input.values()),
        }
        path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


def run_one(workload, index: int, item, log: FailureLog, op=None) -> float:
    """Run and check one operation; returns its latency in seconds (the
    check is not timed)."""
    op = op or workload.run
    output, error = None, None
    t0 = time.perf_counter()
    try:
        output = op(item)
    except Exception as exc:  # counted as a failed operation
        error = exc
    latency = time.perf_counter() - t0
    log.verdict(index, item, output, error)
    return latency


def timed_loop(workload, items, seconds: float, log: FailureLog,
               clock: ReferenceClock) -> tuple[list[list[float]], list[list[float]]]:
    """Wall and scaled latencies of each input, from round-robin passes over
    ``items`` until ``seconds`` have gone by and every input has run
    MIN_REPEATS times."""
    wall: list[list[float]] = [[] for _ in items]
    latencies: list[list[float]] = [[] for _ in items]
    start = time.perf_counter()
    while True:
        for index, item in enumerate(items):
            latency = run_one(workload, index, item, log)
            wall[index].append(latency)
            latencies[index].append(clock.scale(latency))
            elapsed = time.perf_counter() - start
            done = len(latencies[-1])
            if (elapsed >= HARD_CAP_S and done) or (elapsed >= seconds and done >= MIN_REPEATS):
                return wall, latencies


def latency_metrics(latencies: list[list[float]]) -> dict:
    """Throughput is the number of inputs over the sum of each input's
    median latency, which a burst of load from outside the process moves
    less than a mean would, and in which every input weighs the same
    whatever the run's length.  The percentiles are over every execution."""
    typical = [statistics.median(runs) for runs in latencies]
    executions = [latency for runs in latencies for latency in runs]
    return {
        "ops_per_s": (len(typical) / sum(typical), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(executions), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(executions, n=10)[8], "ms"),
    }


def traced_loop(workload, items, seconds: float, log: FailureLog, modules: dict, seed: int):
    """Alternate whole untraced and traced passes over ``items`` while the
    next pair of passes is expected to end within ``seconds``."""
    from abbench import tracing

    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) * (1 + 1 / len(passes)) <= seconds:
        plain_s += sum(run_one(workload, i, item, log) for i, item in enumerate(items))
        tracer.install(modules)
        try:
            traced_s += sum(
                run_one(workload, index, item, log,
                        op=lambda it, i=index: tracer.run_op(i, workload.run, it))
                for index, item in enumerate(items)
            )
        finally:
            tracer.uninstall()
        stats, spans = tracer.collect()
        if not passes:
            import numpy as np

            np.savez(OUT_DIR / f"spans-{workload.name}.npz", names=np.array(tracer.names),
                     seed=seed, **spans)
        passes.append(stats)
    metrics = tracing.per_layer_metrics(passes[0], passes)
    # equal operation counts on both sides, so the rate ratio is a time ratio
    metrics["trace.overhead"] = (plain_s / traced_s, "ratio")
    return metrics, tracing.layer_shares(passes)


def import_package() -> tuple[dict, float]:
    """Import abcoulomb from ``src/``; returns its modules and the import time."""
    t0 = time.perf_counter()
    from abcoulomb import cli, model, oracle, secular, specfun, spectrum, wavefunction

    seconds = time.perf_counter() - t0
    modules = {"cli": cli, "model": model, "spectrum": spectrum, "secular": secular,
               "specfun": specfun, "wavefunction": wavefunction, "oracle": oracle}
    return modules, seconds


def environment() -> str:
    import numpy
    import scipy

    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, {platform.machine()}, nproc {os.cpu_count()}, "
            f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}")


def run_workload(args: argparse.Namespace) -> int:
    modules, import_s = import_package()
    from abbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        wall_setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            items = workload.setup(args.seed, work)
            wall_setups.append(time.perf_counter() - t0)
        wall_setup_s = import_s + statistics.median(wall_setups)
        log = FailureLog(workload)
        t0 = time.perf_counter()
        if args.trace:
            metrics, shares = traced_loop(workload, items, args.seconds, log, modules, args.seed)
            metrics["error_rate"] = (log.failed / log.attempted, "ratio")
        else:
            clock = ReferenceClock(workload.reference)
            wall_latencies, latencies = timed_loop(workload, items, args.seconds, log, clock)
            metrics = latency_metrics(latencies)
            # Set-up is one stretch of a second or so, too short to pair
            # with reference loops; it is scaled by the host's median
            # slowness over the run.
            metrics["setup_s"] = (wall_setup_s / statistics.median(clock.slowness), "s")
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = (peak_rss, "MB")
            wall_metrics = latency_metrics(wall_latencies)
            wall_metrics["setup_s"] = (wall_setup_s, "s")
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log.write(OUT_DIR / f"failures-{workload.name}-seed{args.seed}-trace{args.trace}.json",
              args.seed, args.trace)

    print(f"{workload.name} seed {args.seed} trace {args.trace}: {log.attempted} inputs, "
          f"{log.failed} failed, {log.executions} executions, {wall:.1f} s")
    print(f"  environment: {environment()}")
    if not args.trace:
        print(f"  {'error_rate':<48} {log.failed / log.attempted:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:.6g} {unit}")
    if args.trace:
        print("  self-time share: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    else:
        print("  unscaled wall time: " + ", ".join(
            f"{name} {value:.6g} {unit}" for name, (value, unit) in wall_metrics.items()))
        print(f"  set-up wall time: import {import_s:.4f} s, set-ups "
              + ", ".join(f"{x:.4f}" for x in wall_setups) + " s")
        q = statistics.quantiles(clock.slowness, n=4)
        print(f"  host slowness vs reference: median {statistics.median(clock.slowness):.3f}, "
              f"quartiles {q[0]:.3f}-{q[2]:.3f}, over {len(clock.slowness)} intervals")
    reasons = log.by_reason()
    print("  failures by reason: "
          + (", ".join(f"{k} {v}" for k, v in sorted(reasons.items())) or "none"))
    result = {
        "correct": log.sound,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; prints each one's report and a
    combined JSON line with metrics keyed ``<workload>.<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=HARD_CAP_S + 60.0,
        )
        lines = proc.stdout.strip().split("\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "abcoulomb" / "__init__.py").is_file():
        print(f"error: no abcoulomb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
