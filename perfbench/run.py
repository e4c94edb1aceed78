"""Run one workload of the walkforge benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; walkforge is imported from its
``src/`` directory. One client issues the workload's fixed mix of short tasks
in a closed loop, one task at a time, in whole passes, until ``--seconds``
have gone by. Every task's output is checked against independent oracles
outside the timed region; a mismatch or an exception counts as a failed task
and never stops the run. Task times are each task's best over the passes:
on a shared host the median of a fixed piece of work drifts by a third
within minutes, while the best of many short repeats moves only with the
host's slower shifts in speed, by 10-15 %.

With ``--trace 0`` the last line of output carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics from spans around each
walkforge call, taken on every other pass, and the tracing overhead from
comparing those passes with the untraced ones. The reference rows, single
heavy calls timed by name, run only then, after the passes. A summary, each
task's input properties and timings, and the spans go to ``.perfbench/`` in
the checkout.
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
import time
from collections import defaultdict
from pathlib import Path

# BLAS threads are fixed before numpy loads; one thread, below the two cores
# of the reference box, keeps dense-matrix timings steady on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# Set-up is timed with bytecode caches, as an installed package has them:
# compiling the sources on every import would time the interpreter's
# compiler, and whether it runs would depend on the caller's environment.
# The caches go to __pycache__ directories inside the checkout.
sys.dont_write_bytecode = False
sys.pycache_prefix = None
CHILD_ENV = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 11
REF_REPEATS = 3
REF_METRICS = (
    "ref.unitary_distance_128_s",
    "ref.mcx6_unitary_s",
    "ref.cycle64_trotter10_unitary_s",
    "ref.encode_cycle256_s",
    "ref.qft6_replay_s",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "tasks_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[
        "trotter_verify", "gate_oracle", "encode_decode", "cli_pipeline"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed: int, workdir: Path, trace: bool):
    """Import walkforge, build the seeded tasks and warm BLAS; return the
    modules, tasks and the time it took."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import walkforge

    if Path(walkforge.__file__).resolve().parent != SRC / "walkforge":
        raise RuntimeError(f"walkforge was imported from {walkforge.__file__}, not from {SRC}")
    import tasks as taskmod
    import tracer as tracemod

    tr = tracemod.Tracer()
    if trace:
        tr.install()
    tasks = taskmod.build(workload, seed, tr, workdir)
    a = np.random.default_rng(seed).normal(size=(96, 96))
    np.linalg.eigh(a + a.T)
    np.linalg.qr(a @ a)
    return taskmod, tracemod, tr, tasks, time.perf_counter() - start


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    res = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout.strip().splitlines()[-1])


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the
    eleventh largest sample, and its percentile 100 (n - 10) / n."""
    ranked = sorted(times, reverse=True)
    k = min(10, len(ranked) - 1)
    return 100.0 * (len(ranked) - k) / len(ranked), ranked[k]


def measure(seconds: float, min_passes: int, trace_every: int, taskmod, tr, tasks):
    """Closed loop over whole passes of the task mix until ``seconds`` have
    gone by and at least ``min_passes`` are done. With ``trace_every`` k > 0,
    the last pass of every k is traced."""
    refused = {k: taskmod.refusal(t.dense_wires) for k, t in enumerate(tasks)}
    records = [{"name": t.name, "times": [], "failures": []} for t in tasks]
    pass_times = {True: [], False: []}
    attempted, failed = 0, 0
    traced_task_time = {}
    deadline = time.perf_counter() + seconds
    pass_no = 0
    while pass_no < min_passes or time.perf_counter() < deadline:
        traced = trace_every > 0 and pass_no % trace_every == trace_every - 1
        pass_time = 0.0
        for k, task in enumerate(tasks):
            attempted += 1
            if refused[k]:
                failed += 1
                records[k]["failures"].append("refused: " + refused[k])
                continue
            tr.task = (pass_no, k)
            tr.active = traced
            start = time.perf_counter()
            try:
                out, errs = task.run(), []
            except Exception as exc:  # a failing task is counted, never fatal
                out, errs = None, [f"{type(exc).__name__}: {exc}"]
            dt = time.perf_counter() - start
            tr.active = False
            if out is not None:
                try:
                    errs = task.check(out)
                    task.props.update(taskmod.describe(out))
                except Exception as exc:
                    errs = [f"check raised {type(exc).__name__}: {exc}"]
            del out
            records[k]["times"].append(dt)
            pass_time += dt
            if traced:
                traced_task_time[(pass_no, k)] = dt
            if errs:
                failed += 1
                records[k]["failures"].extend(errs[:3])
        pass_times[traced].append(pass_time)
        pass_no += 1
    return {
        "attempted": attempted, "failed": failed,
        "passes": pass_no, "records": records, "pass_times": pass_times,
        "traced_task_time": traced_task_time,
    }


def end_to_end(res, setup_s: float) -> tuple[dict, dict]:
    best = [min(r["times"]) for r in res["records"] if r["times"]]
    pct, tail_s = tail(best)
    passed = res["attempted"] - res["failed"]
    of = f"each task's best of {res['passes']} passes"
    metrics = {
        "setup_s": setup_s,
        "task_p50_s": statistics.median(best),
        "task_tail_s": tail_s,
        "tasks_per_s": passed / res["attempted"] * len(best) / sum(best),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "task_p50_s": f"median over n={len(best)} tasks of {of}",
        "task_tail_s": f"p{pct:.4g} over n={len(best)} tasks of {of}",
        "tasks_per_s": f"verified share of {len(best)} tasks over the sum of {of}",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, notes


def per_layer(res, tracemod, spans, counts, ref_spans, refs) -> dict:
    """Layer metrics per traced pass of the mix, the tracing overhead, and
    the reference rows from their own traced runs."""
    traced_passes = len(res["pass_times"][True])
    metrics = tracemod.report(spans, counts, traced_passes)
    metrics["trace.coverage"] = tracemod.coverage(spans, res["traced_task_time"])
    untraced = statistics.median(res["pass_times"][False])
    traced = statistics.median(res["pass_times"][True])
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_ratio"] = (traced - untraced) / untraced
    per_call = defaultdict(float)  # (pass, ref) -> time in that reference row's call
    for s in ref_spans:
        ref = refs[s.task[1]].ref
        if s.name == ref[1]:
            per_call[s.task] += s.end - s.start
    ref_times = defaultdict(list)
    for (_, k), value in per_call.items():
        ref_times[refs[k].ref[0]].append(value)
    for name in REF_METRICS:
        metrics[name] = statistics.median(ref_times[name]) if ref_times[name] else 0.0
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".coverage")):
        return "ratio"
    return "count"


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "blas_thread_vars": "OPENBLAS_NUM_THREADS OMP_NUM_THREADS MKL_NUM_THREADS",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "walkforge" / "__init__.py").is_file():
        print(f"perfbench: no walkforge sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    try:
        taskmod, tracemod, tr, tasks, own_setup = setup(args.workload, args.seed, workdir, bool(args.trace))
        if args.setup_only:
            print(own_setup)
            return 0
        setups = [own_setup] + [child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
        mix = [t for t in tasks if t.ref is None]
        refs = [t for t in tasks if t.ref is not None] if args.trace else []
        res = measure(args.seconds, 2 if args.trace else 1, 2 if args.trace else 0, taskmod, tr, mix)
        spans, counts = tr.spans[:], dict(tr.counts)
        ref_res = measure(0.0, REF_REPEATS, 1, taskmod, tr, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    if args.trace:
        metrics = per_layer(res, tracemod, spans, counts, tr.spans[len(spans):], refs)
        notes = {}
    else:
        metrics, notes = end_to_end(res, statistics.median(setups))
    attempted = res["attempted"] + ref_res["attempted"]
    failed = res["failed"] + ref_res["failed"]
    records = res["records"] + ref_res["records"]
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "passes": res["passes"], "attempted": attempted, "failed": failed,
        "setup_runs_s": setups, "metrics": metrics,
        "tasks": [dict(r, props=t.props) for r, t in zip(records, mix + refs)],
    }
    if args.trace:
        summary["spans"] = [[s.name, s.start, s.end, s.parent, list(s.task), s.error] for s in tr.spans]
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(summary))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
          f"{len(mix)} tasks per pass, {res['passes']} passes, {len(refs)} reference rows "
          f"x {REF_REPEATS if refs else 0}, closed loop, one client")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"fail_rate = {failed / attempted:.6g} ({failed} of {attempted} tasks failed or were refused)")
    for name, value in metrics.items():
        note = notes.get(name, "computed" if unit_of(name) == "count" else "")
        print(f"{name} = {value:.6g} {unit_of(name)}" + (f"  [{note}]" if note else ""))
    for rec in records:
        for msg in rec["failures"][:1]:
            print(f"FAILED {rec['name']}: {msg}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
