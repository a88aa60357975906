"""Benchmark of the qsteenrod CLI: one workload, in one process, closed loop.

    python3 perfbench/run.py --workload formal|rational|badq --seed N \
        --seconds S --trace 0|1

One client runs the workload's operations one after another; an operation is
one CLI command executed in-process through `cli.main(argv)` with
`--format json` and stdout captured.  Before each operation every
`functools.lru_cache` of `qsteenrod` is cleared and `gc.collect()` runs, so
each costs what a fresh command costs, minus interpreter start.

Whole rounds of the operations repeat until at least S seconds have passed
(at least three rounds untraced, one traced), and each operation's time is
its mean over the rounds.  The shared host runs the same code up to 1.8x
slower for seconds to minutes at a time, so a fixed reference load
(calibrate.py) is timed before each operation and set-up probe and after
the last, and every reported time is scaled by REFERENCE_S / (the load's
mean time over the run): reference-speed seconds.  The raw seconds are kept
in the result file.  Reports are checked after the timed rounds (see
checks.py).

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per layer with --trace 1).  Results
and spans go to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import calibrate
import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = ".perfbench-out"
# Set-up probes are spread over the run, a few before each round, so that
# their median does not hang on one stretch of a noisy machine.
SETUP_PROBES = 6
PROBES_PER_ROUND = 2
MIN_ROUNDS = {0: 3, 1: 1}
# Stop starting rounds once another would end past this, so a run on a slow
# machine still exits well within its time limit.
TIME_LIMIT_S = 130.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _sympy_import_s(importtime_log: str) -> float:
    """Cumulative `import sympy` seconds from a `python -X importtime` log."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "sympy":
            return int(parts[1]) / 1e6
    return 0.0


def probe_setup(workload: str, seed: int, traced: bool) -> tuple[float, float]:
    """Seconds from a fresh interpreter to the first operation being ready.

    Also returns the cumulative `import sympy` seconds when traced, since
    traced probes run under `-X importtime`.
    """
    flags = ["-X", "importtime"] if traced else []
    proc = subprocess.run(
        [sys.executable, *flags, os.path.join(HERE, "probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    setup_s = json.loads(proc.stdout.splitlines()[-1])["setup_s"]
    return setup_s, _sympy_import_s(proc.stderr) if traced else 0.0


def lru_caches(modules) -> list:
    """Every functools.lru_cache object bound in the given modules."""
    found = {}
    for module in modules:
        for value in list(vars(module).values()):
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                found[id(value)] = value
    return list(found.values())


def run_op(main, argv: tuple[str, ...], caches) -> tuple[float, int | None, str, str]:
    """One operation: (seconds, exit code or None if it raised, stdout, stderr)."""
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    code = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--format", "json"])
        except Exception:  # the failure is counted and reported, the run goes on
            traceback.print_exc()
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(SRC, "qsteenrod", "cli.py")):
        print(f"perfbench: no qsteenrod sources under {SRC}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    ops = workloads.operations(args.workload, args.seed)
    probes: list[tuple[float, float]] = []
    # Times of the reference load, taken next to every probe and operation.
    loads: list[float] = []

    def take_probes(count: int) -> None:
        for _ in range(min(count, SETUP_PROBES - len(probes))):
            loads.append(calibrate.reference_seconds())
            probes.append(probe_setup(args.workload, args.seed, traced))
        loads.append(calibrate.reference_seconds())

    sys.path.insert(0, SRC)
    import qsteenrod.cli as cli
    from qsteenrod.scalars import QParam
    from qsteenrod.spaces import harm_component

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qsteenrod"]
    if any(not os.path.abspath(m.__file__).startswith(SRC + os.sep) for m in modules):
        print("perfbench: qsteenrod was not imported from this checkout", file=sys.stderr)
        return 2
    caches = lru_caches(modules)
    tracer = None
    if traced:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    os.makedirs(OUT, exist_ok=True)
    rounds: list[list[tuple]] = []
    layer_rounds: list[dict] = []
    begin = time.perf_counter()
    while len(rounds) < MIN_ROUNDS[args.trace] or time.perf_counter() - begin < args.seconds:
        take_probes(PROBES_PER_ROUND)
        round_start = time.perf_counter()
        shutil.rmtree(workloads.CACHE_DIR, ignore_errors=True)
        first_op = len(rounds) * len(ops)
        if tracer:
            tracer.reset_round()
        results = []
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = first_op + i
            results.append(run_op(cli.main, op.argv, caches))
            loads.append(calibrate.reference_seconds())
        rounds.append(results)
        if tracer:
            layer_rounds.append(tracer.round_metrics(set(range(first_op, first_op + len(ops)))))
        elapsed = time.perf_counter() - begin
        if elapsed + (time.perf_counter() - round_start) > TIME_LIMIT_S:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    take_probes(SETUP_PROBES)
    scale = calibrate.REFERENCE_S / statistics.fmean(loads)
    setup = [p[0] * scale for p in probes]
    shutil.rmtree(workloads.CACHE_DIR, ignore_errors=True)
    if tracer:
        tracer.uninstall()

    # -- checks, outside the timed region --------------------------------
    labels = [" ".join(op.argv) for op in ops]
    first = rounds[0]
    failures = checks.check_round(
        labels, [r[2] for r in first],
        lambda n, d, q: harm_component(n, d, QParam.parse(q)).dim,
    )
    raw_per_op = [statistics.fmean(r[i][0] for r in rounds) for i in range(len(ops))]
    per_op = [t * scale for t in raw_per_op]
    failed, correct, status = 0, True, []
    for i, op in enumerate(ops):
        problems = []
        for k, r in enumerate(rounds):
            _, code, out, err = r[i]
            if code != 0:
                problems.append(checks.CheckFailure("exit", f"round {k}: exit {code}: {err.strip()[-300:]}"))
            elif i in failures:
                problems.append(failures[i])
            elif out != first[i][2]:
                problems.append(checks.CheckFailure("rerun", f"round {k}: report differs from round 0"))
        failed += len(problems)
        known = all(p.kind == op.known_fault for p in problems)
        correct = correct and known
        note = "ok" if not problems else f"{'known fault' if known else 'FAILED'} ({problems[0]})"
        seconds = [r[i][0] * scale for r in rounds]
        status.append({"op": op.label, "mean_s": per_op[i], "min_s": min(seconds),
                       "max_s": max(seconds), "raw_mean_s": raw_per_op[i], "status": note})
        print(f"{per_op[i]:8.3f} {min(seconds):8.3f} {max(seconds):8.3f} {raw_per_op[i]:8.3f}  {op.label}  {note}")

    if traced:
        op_seconds = sum(r[0] for rnd in rounds for r in rnd)
        root_seconds = sum(tracer.root_seconds(k) for k in range(len(rounds) * len(ops)))
        metrics = {name: statistics.median(m[name] for m in layer_rounds) for name in layer_rounds[0]}
        metrics["setup.import.s"] = statistics.median(p[0] for p in probes)
        metrics["setup.sympy.s"] = statistics.median(p[1] for p in probes)
        metrics["trace.wall_s"] = sum(per_op)
        metrics["trace.named_share"] = 100.0 * root_seconds / op_seconds
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(per_op),
            "slowest_op_s": max(per_op),
            "peak_rss_mb": peak_rss_mb,
        }
    units = {name: unit_of(name) for name in metrics}
    result = {
        "correct": correct,
        "attempted": len(rounds) * len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": len(rounds), "setup_samples": setup,
              "raw_setup_samples": [p[0] for p in probes], "ops": status,
              "reference_load_s": loads, "scale": scale, "raw_wall_s": sum(raw_per_op),
              "round_seconds": [[r[0] * scale for r in rnd] for rnd in rounds],
              "raw_round_seconds": [[r[0] for r in rnd] for rnd in rounds], **result}
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


UNITS = {"setup_s": "s", "wall_s": "s", "slowest_op_s": "s", "peak_rss_mb": "MB",
         "trace.wall_s": "s", "trace.named_share": "%"}
QUANTITY_UNITS = {"s": "s", "self_s": "s", "bytes": "bytes", "out_max_bits": "bits"}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return QUANTITY_UNITS.get(metric.rsplit(".", 1)[-1], "count")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
