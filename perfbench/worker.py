"""One benchmark process: set up, say when ready, run timed ops, check them, report.

Run by run.py, never by hand. Setup imports crpolicy from the checkout's
src/, makes the workload's inputs and runs one tiny op as a warm-up, then
prints `READY <monotonic time>`; run.py measures setup time from just
before it started this process to that instant. With --probe the process
stops there. Otherwise it runs ops back to back, one caller in a closed
loop, until the timed ops add up to --seconds, checks each op's outputs
outside the timed interval, and prints `RESULT <json>` as its last line.

With --trace 1 the ops alternate untraced and traced, so the tracing
overhead is measured against ops run in the same conditions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# A traced run stops early past this many spans (~180 MB held in memory), so
# a program that gets much faster per op does not make the trace outgrow the machine.
MAX_SPANS = 1_000_000


def run_op(cli, argv, out_dir):
    """Run one CLI command into an empty out_dir; returns (seconds, error or "")."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
        error = "" if rc == 0 else f"exit code {rc}: {sink.getvalue().strip()[-300:]}"
    except SystemExit as exc:
        error = f"exit code {exc.code}: {sink.getvalue().strip()[-300:]}"
    except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, error


def measure(cli, wl, out_dir, seconds, trace):
    from tracer import Tracer, layer_metrics
    from workloads import OpResult, file_digests

    tracer = Tracer() if trace else None
    ops, timed = [], 0.0
    while len(ops) < (2 if trace else 1) or (timed < seconds and (not trace or len(tracer.spans) < MAX_SPANS)):
        op = len(ops)
        traced = tracer is not None and op % 2 == 1
        argv = wl.argv(op, out_dir)
        if traced:
            tracer.install()
            tracer.op, tracer.recording = op, True
        try:
            took, error = run_op(cli, argv, out_dir)
        finally:
            if traced:
                tracer.recording = False
                tracer.uninstall()
        timed += took
        digests = {}
        if error:
            verdict = OpResult(False, reason=error)
        else:
            digests = file_digests(out_dir)
            verdict = wl.check(op, out_dir, digests)
        ops.append(
            {
                "op": op,
                "seconds": took,
                "traced": traced,
                "ok": verdict.ok,
                "reason": verdict.reason,
                "objective": verdict.objective,
                "true_regret": verdict.true_regret,
                "argv": argv,
                "digests": digests,
            }
        )
    record = {"ops": ops, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        traced_s = [o["seconds"] for o in ops if o["traced"]]
        plain_s = [o["seconds"] for o in ops if not o["traced"]]
        layers = layer_metrics(tracer, traced_s)
        layers["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
        record.update(layers=layers, bindings=tracer.bindings, missing=tracer.missing(), tracer=tracer)
    return record


def blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "default"
    return {"numpy": np.__version__, "blas": name, "blas_threads": threads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--out", required=True, help="directory for scratch files and span dumps")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import workloads
    import crpolicy
    from crpolicy import cli

    if not os.path.abspath(crpolicy.__file__).startswith(SRC + os.sep):
        print(f"error: crpolicy was imported from {crpolicy.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload)
    work = os.path.join(args.out, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        out_dir = os.path.join(work, "out")
        wl.prepare(work, args.seed, tiny=args.tiny)
        _, error = run_op(cli, wl.warmup_argv(out_dir), out_dir)
        if error:
            print(f"error: warm-up op failed: {error}", file=sys.stderr)
            return 1
        print(f"READY {time.monotonic()!r}", flush=True)
        if args.probe:
            return 0
        record = measure(cli, wl, out_dir, args.seconds, args.trace)
        tracer = record.pop("tracer", None)
        if tracer is not None:
            record["spans_file"] = os.path.join(args.out, f"{args.workload}-seed{args.seed}.spans.csv.gz")
            tracer.write_spans(record["spans_file"])
        record["env"] = blas_info()
        print("RESULT " + json.dumps(record), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
