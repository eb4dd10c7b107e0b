"""Run one benchmark workload with one seed and print its result.

    python3 perfbench/run.py --workload train-sbm --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the package is imported from ./src and
never from an installed copy, so without ./src the run exits with code 2.
The run is one process with one client; BLAS threads are pinned to at most
the number of usable cores before numpy is imported.

Standard output ends with two JSON lines.  The last is the result:
``correct``, ``attempted`` and ``failed`` (ops, epochs on train-sbm) and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``, as BENCHMARK.json names them and their units.  The line before it is a detail record: the
environment, a digest of every generated input, the per-kind timings and
accuracies, the set-up repeats and every op's time and check outcome.  A
traced run also writes its spans to ``.perfbench_out/spans-<workload>-seed<seed>.jsonl``,
and its detail record carries the layer metrics that BENCHMARK.json leaves out
because no gated workload exercises them.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

WORKLOAD_NAMES = ("train-sbm", "robust-cold", "implicit-large")
OUT_DIR = ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_blas_threads(nproc):
    """Cap every BLAS/OpenMP thread-count variable at nproc; returns the cap."""
    limit = nproc
    for var in BLAS_THREAD_VARS:
        try:
            limit = min(limit, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(limit)
    return limit


@dataclass
class Record:
    kind: str
    units: int
    seconds: float
    parts: dict = field(default_factory=dict)
    error: str | None = None
    warmup: bool = False


def run_workload(wl, seconds, tracer=None, corrupt=None):
    """Set up, then run ops in a closed loop until ``seconds`` of op time
    are measured and the current cycle is complete (one cycle at least);
    ``wl.setup_reps`` set-ups are timed in all.

    The first ``wl.warmup_ops`` ops are checked and counted like any other
    but left out of the timing, so that allocator and cache warm-up on the
    first op after set-up does not read as op latency.  Every op's output is
    checked; an op that raises or fails its check is recorded with the
    reason and counts as failed.  ``corrupt``, if given, is applied to each
    output before its check (the tests' negative control).  Returns
    (set-up seconds per repeat, op records).
    """
    def phase(kind, index):
        return tracer.phase(kind, index) if tracer else nullcontext()

    setup_times = []

    def timed_setup():
        with phase("setup", len(setup_times)):
            t0 = time.perf_counter()
            state = wl.setup()
            setup_times.append(time.perf_counter() - t0)
        return state

    # The first set-up is the one the ops use.  The repeats are spread over
    # the timed phase (and their results dropped), so that one slow spell
    # on a shared machine moves at most one of them.
    wl.prepare(timed_setup())
    records = []
    busy = 0.0
    i = 0
    while i <= wl.warmup_ops or busy < seconds or i % wl.cycle_len:
        inp = wl.inputs(i)
        out, parts, error = None, {}, None
        with phase("op", i):
            t0 = time.perf_counter()
            try:
                out, parts = wl.op(inp)
            except Exception as exc:  # a raising op is a failed op, never a crash
                traceback.print_exc()
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        if error is None:
            if corrupt is not None:
                out = corrupt(out)
            try:
                error = wl.check(inp, out)
            except Exception as exc:  # a check that cannot evaluate the output fails it
                traceback.print_exc()
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            print(f"perfbench: op {i} ({wl.kind(inp)}) failed: {error}", file=sys.stderr)
        warmup = i < wl.warmup_ops
        records.append(Record(wl.kind(inp), wl.units(inp), dt, parts, error, warmup))
        if not warmup:
            busy += dt
        i += 1
        due = seconds * len(setup_times) / (wl.setup_reps - 1)
        if len(setup_times) < wl.setup_reps and busy >= due:
            timed_setup()
    while len(setup_times) < wl.setup_reps:
        timed_setup()
    return setup_times, records


def counts(records):
    attempted = sum(r.units for r in records)
    failed = sum(r.units for r in records if r.error is not None)
    return attempted, failed


def timed(records):
    return [r for r in records if not r.warmup]


def end_to_end(wl, setup_times, records):
    attempted, failed = counts(records)
    passed, busy = 0, 0.0
    for r in timed(records):
        passed += r.units if r.error is None else 0
        busy += r.seconds
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": passed / busy,
        "op_s.p50": statistics.median(wl.latency_samples(timed(records))),
        "ok_share": (attempted - failed) / attempted,
    }


def git_commit():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest(src):
    """sha256 over the package's source files, by relative path and content."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "unfoldgnn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(src, nproc, blas_threads):
    import numpy
    import scipy

    from unfoldgnn import _kernels

    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "numba": numba_version,
        "kernel_backend": _kernels.BACKEND, "nproc": nproc, "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads},
        "git_commit": git_commit(), "src_sha256": source_digest(src),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="op time to measure, after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at toy size, for the benchmark's tests")
    args = parser.parse_args(argv)

    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
    except FileNotFoundError:
        print("perfbench: no BENCHMARK.json here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    blas_threads = pin_blas_threads(nproc)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "unfoldgnn", "__init__.py")):
        print(f"perfbench: no package at {src}/unfoldgnn; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import unfoldgnn

    if not os.path.abspath(unfoldgnn.__file__).startswith(src + os.sep):
        print(f"perfbench: imported {unfoldgnn.__file__}, not the checkout's package",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    tracer = tracing.Tracer() if args.trace else None
    with tracer.installed() if tracer else nullcontext():
        setup_times, records = run_workload(wl, args.seconds, tracer)

    attempted, failed = counts(records)
    kinds, notes = wl.details(timed(records))
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "env": environment(src, nproc, blas_threads),
        "inputs": wl.digest(),
        "kinds": {k: {"value": v, "unit": u} for k, (v, u) in kinds.items()},
        "notes": notes,
        "setup_s_reps": setup_times,
        "ops": [[r.kind, r.units, r.seconds, r.parts, r.error, r.warmup] for r in records],
    }
    if tracer:
        epochs = {}
        for r in records:
            epochs[r.kind] = epochs.get(r.kind, 0) + r.units
        values = tracer.per_layer(records, wl.setup_reps, epochs)
        values["trace.op_s"] = statistics.median(wl.latency_samples(timed(records)))
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        detail["spans_file"] = spans_path
        detail["spans"] = len(tracer.spans)
    else:
        values = end_to_end(wl, setup_times, records)
    table = bench["per_layer"] if tracer else bench["end_to_end"]
    if tracer:
        # layer metrics no gated workload exercises stay out of BENCHMARK.json
        gated = {m["name"] for m in table}
        detail["layers_not_gated"] = {k: v for k, v in values.items() if k not in gated}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in table}}
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
