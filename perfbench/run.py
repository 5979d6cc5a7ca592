"""crpolicy benchmark: four CLI workloads, checked outputs, per-layer spans.

    python3 perfbench/run.py --workload fit-box-n20k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each run starts fresh worker processes (worker.py) that import crpolicy from
this checkout's src/. With --trace 0 it times setup in several fresh
processes, then runs the workload's ops for --seconds in one of them and
reports every end-to-end metric of BENCHMARK.json. With --trace 1 it runs
untraced and traced ops in turn and reports every per-layer metric.
Human-readable lines come first; the last line of stdout is one JSON
object {correct, attempted, failed, metrics}. The full record (environment,
per-op times, output digests) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 3  # fresh processes timed for setup_s, besides the measuring one
CHILD_TIMEOUT = 170.0
# Printed beside the metrics of BENCHMARK.json but not gated on: failed_frac is
# 0 when all is well, and the regrets depend on the seed's data, not the code's speed.
UNGATED_UNITS = {"failed_frac": "fraction", "objective_mean": "loss", "true_regret_mean": "loss"}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def child_env() -> dict:
    """Cap BLAS threads at the CPUs this process may use."""
    env = dict(os.environ)
    cap = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(env.get(var, cap))
        except ValueError:
            wanted = cap
        env[var] = str(max(1, min(wanted, cap)))
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest() -> str:
    """sha256 over src/crpolicy's files, so a record names the code it measured."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "crpolicy")
    for base, dirs, files in os.walk(pkg):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def run_worker(workload, seed, *, seconds=0.0, trace=0, tiny=False, probe=False):
    """Start worker.py; returns (setup seconds, RESULT record or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--out", OUT]
    cmd += ["--tiny"] * tiny + ["--probe"] * probe
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker for {workload} did not finish in {CHILD_TIMEOUT:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    ready, record = None, None
    for line in stdout.splitlines():
        if line.startswith("READY "):
            ready = float(line.split()[1])
        elif line.startswith("RESULT "):
            record = json.loads(line[len("RESULT "):])
    if ready is None:
        raise RuntimeError(f"worker for {workload} never reported ready")
    return ready - started, record


def tail(values):
    """(value, percentile): the highest percentile with ten samples beyond it.

    With n <= 10 samples no percentile has ten beyond it; the smallest sample,
    the one with the most beyond it, stands in.
    """
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(record, setups):
    ops = record["ops"]
    seconds = [o["seconds"] for o in ops]
    ok = [o for o in ops if o["ok"]]
    tail_s, tail_pct = tail(seconds)
    objectives = [o["objective"] for o in ok if o["objective"] is not None]
    regrets = [o["true_regret"] for o in ok if o["true_regret"] is not None]
    metrics = {
        "op_p50_s": statistics.median(seconds),
        "op_tail_s": tail_s,
        "ops_per_s": len(ok) / sum(seconds),
        "failed_frac": (len(ops) - len(ok)) / len(ops),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    if objectives:
        metrics["objective_mean"] = statistics.fmean(objectives)
    if regrets:
        metrics["true_regret_mean"] = statistics.fmean(regrets)
    notes = {
        "op_p50_s": f"n={len(ops)}",
        "op_tail_s": f"p{tail_pct:.0f}, n={len(ops)}",
        "failed_frac": f"{len(ops) - len(ok)}/{len(ops)}",
        "setup_s": f"median of {len(setups)} processes",
        "objective_mean": f"certified worst-case regret, n={len(objectives)}",
        "true_regret_mean": f"held-out oracle regret, n={len(regrets)}",
    }
    return metrics, notes


def run_workload(name, seed, seconds, trace, tiny, declared):
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(name, seed, tiny=tiny, probe=True)[0])
    setup, record = run_worker(name, seed, seconds=seconds, trace=trace, tiny=tiny)
    setups.append(setup)
    ops = record["ops"]
    if trace:
        metrics, notes = record["layers"], {"trace.op_s": "base of every op_frac"}
    else:
        metrics, notes = end_to_end(record, setups)
    record.update(workload=name, seed=seed, trace=trace, tiny=tiny, setup_s=setups, metrics=metrics)
    units = {m["name"]: m["unit"] for m in declared}
    printed = {**UNGATED_UNITS, **units} if not trace else units
    unknown = [m for m in units if m not in metrics]
    if unknown:
        raise RuntimeError(f"BENCHMARK.json names metrics this run does not compute: {unknown}")

    print(f"== {name}  seed={seed}  trace={trace}  seconds={seconds:g}  (closed loop, one caller, CLI in-process)")
    for key, value in metrics.items():
        if key in printed:
            print(f"  {key:<46s} {value:>14.6g} {printed[key]:<12s} {notes.get(key, '')}")
    for op in ops:
        if not op["ok"]:
            print(f"  FAILED op {op['op']}: {op['reason']}")
    for missing in record.get("missing", []):
        print(f"  WARNING: traced function {missing} is not bound anywhere in crpolicy; its figures read 0")
    digest = hashlib.sha256(json.dumps([o["digests"] for o in ops], sort_keys=True).encode()).hexdigest()
    distinct = len({json.dumps(o["digests"], sort_keys=True) for o in ops})
    print(f"  outputs: {len(ops)} ops, {distinct} distinct output sets, digest {digest[:16]}")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="crpolicy benchmark")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True, help="makes the workload's inputs")
    parser.add_argument("--seconds", type=float, required=True, help="timed op time to accumulate")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for smoke tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "crpolicy", "__init__.py")):
        return fail(f"no crpolicy source at {SRC}; run from a checkout of the repository")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    env = {
        "nproc": nproc(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "blas_threads_cap": child_env()["OPENBLAS_NUM_THREADS"],
        "source_sha256": source_digest(),
        "git_commit": git_commit(),
    }
    os.makedirs(OUT, exist_ok=True)
    records = []
    try:
        for name in names if args.workload == "all" else [args.workload]:
            record = run_workload(name, args.seed, args.seconds, args.trace, args.tiny, declared)
            record["env"] = {**env, **record["env"]}
            path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1)
            print(f"  env: {json.dumps(record['env'])}")
            print(f"  record: {os.path.relpath(path, ROOT)}")
            records.append(record)
    except RuntimeError as exc:
        return fail(str(exc))

    ops = [o for r in records for o in r["ops"]]
    failed = sum(not o["ok"] for o in ops)

    def metric(r, m):
        return {"value": r["metrics"][m["name"]], "unit": m["unit"]}

    if len(records) == 1:
        metrics = {m["name"]: metric(records[0], m) for m in declared}
    else:
        metrics = {f"{r['workload']}/{m['name']}": metric(r, m) for r in records for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
