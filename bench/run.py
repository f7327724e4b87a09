"""Benchmark of the dessins enumerator, run against this checkout's src/.

    python3 bench/run.py --workload table_cold --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the named workload runs in this process: set-up (a
fresh import, input generation and one untimed warm-up operation),
repeated SETUPS times, then operations back to back for as long as a
median one still ends within ``--seconds``, each checked for correctness,
with a fixed reference loop timed after each of an operation's steps.
The last line of standard output is one JSON object with the end-to-end
metrics ``wall_ref`` (median over operations of the sum over steps of the
step's wall time divided by the mean of the reference loop's wall times
just before and just after it), ``peak_rss_mb`` and ``setup_s`` (median
seconds of the set-ups).
The median seconds per operation, ``wall_s``, is printed on the line
before it.

With ``--trace 1`` every workload runs in a fresh child process that
alternates untraced and traced operations; the JSON line then carries
the per-layer metrics, prefixed by workload, including each workload's
tracing overhead.  Spans are written to ``.bench_work/`` at exit.

Exit status is 0 whenever a result line is printed (its ``correct`` field
says whether every operation passed), 2 when the checkout has no
importable ``src/dessins``, 1 on any other error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from random import Random
from statistics import median, quantiles
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
TIME_LIMIT = 170.0  # the whole traced run, children included
SETUPS = 5  # set-ups per timed run; setup_s is their median

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def refuse(msg: str) -> None:
    """Stop without a result: there is nothing valid to measure."""
    log(f"error: {msg}")
    sys.exit(2)


def import_checkout() -> SimpleNamespace:
    """Import ``dessins`` afresh from ROOT/src and refuse any other copy.

    Modules left by an earlier call are dropped first, so each call pays
    the whole import and starts with empty module-level caches.
    """
    src = ROOT / "src"
    for name in [n for n in sys.modules if n.split(".")[0] == "dessins"]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import dessins
        from dessins import cache, cli, counts, evolution, kp, oracle, series
    except ImportError as exc:
        refuse(f"cannot import dessins from {src}: {exc}")
    here = Path(dessins.__file__).resolve()
    if src.resolve() not in here.parents:
        refuse(f"imported dessins from {here}, not from {src}")
    return SimpleNamespace(root=ROOT, cli=cli, cache=cache, counts=counts,
                           evolution=evolution, kp=kp, oracle=oracle,
                           series=series)


def environment() -> dict:
    import numpy
    try:
        commit = (ROOT / ".git" / "HEAD").read_text().strip()
        if commit.startswith("ref: "):
            commit = (ROOT / ".git" / commit[5:]).read_text().strip()
    except OSError:
        commit = "unknown (not a git checkout)"
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def run_op(wl, problems_out: list[str], between=lambda: None):
    """One checked operation.

    Returns the wall time of each step and what ``between()``, called
    after each step, returned.
    """
    wl.prepare()
    results, times, gaps = [], [], []
    try:
        for step in wl.steps():
            start = time.perf_counter()
            try:
                results.append(step())
            finally:
                times.append(time.perf_counter() - start)
            gaps.append(between())
    except Exception:  # a crashing operation is a failed one; keep measuring
        problems_out.append(traceback.format_exc(limit=3))
        return times, gaps
    problems_out.extend(wl.check(results))
    return times, gaps


def warm_up(wl, tally) -> None:
    """The untimed first operation; it is checked like every other."""
    problems: list[str] = []
    run_op(wl, problems)
    tally.record(wl, problems)


def _reference_terms(rng: Random) -> list:
    return [((rng.randrange(9), rng.randrange(9), rng.getrandbits(40)),
             rng.getrandbits(30)) for _ in range(300)]


REF_A, REF_B = _reference_terms(Random(0)), _reference_terms(Random(1))


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop that never calls ``dessins``.

    The host's cores are shared and their speed drifts by tens of percent
    within seconds.  The loop is a pair convolution of two fixed lists of
    (k, l, packed profile) terms into a fresh dict, the engine's kind of
    work, in about 50 ms.  Timed next to each step of an operation it
    measures the drift, and the ratio of the two measures the program.
    """
    start = time.perf_counter()
    acc: dict = {}
    for (k1, l1, c1), v1 in REF_A:
        wv1 = 123456789 * v1
        for (k2, l2, c2), v2 in REF_B:
            key = (k1 + k2, l1 + l2, c1 + c2)
            acc[key] = acc.get(key, 0) + wv1 * v2
    return time.perf_counter() - start


class Tally:
    """Attempted / failed operations and the exact counts they must repeat."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_counts: dict | None = None

    def record(self, wl, problems: list[str]) -> None:
        self.attempted += 1
        counts = wl.counts()
        if self.first_counts is None:
            self.first_counts = counts
        elif counts != self.first_counts:
            problems.append(f"exact counts drifted: {counts} != {self.first_counts}")
        if problems:
            self.failed += 1
            for p in problems[:5]:
                log(f"FAILED op {self.attempted}: {p}")


def timed_run(args) -> dict:
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    setups = []
    try:
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            wl = workloads.make(args.workload, import_checkout(), work, args.seed)
            wl.setup()
            warm_up(wl, tally)
            setups.append(time.perf_counter() - t0)
        times, refs, ratios, cycles = [], [reference_seconds()], [], []
        start = time.perf_counter()
        # start an operation only if a median one still ends inside the window
        while not cycles or (time.perf_counter() - start + median(cycles)
                             <= args.seconds):
            cycle_start = time.perf_counter()
            problems: list[str] = []
            steps, after = run_op(wl, problems, reference_seconds)
            tally.record(wl, problems)
            ratio = 0.0
            for step, ref in zip(steps, after):
                ratio += step / ((refs[-1] + ref) / 2)
                refs.append(ref)
            times.append(sum(steps))
            ratios.append(ratio)
            cycles.append(time.perf_counter() - cycle_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    env = environment()
    print("# env " + json.dumps(env))
    p90 = (f"{quantiles(times, n=10)[-1]:.4f} s" if len(times) >= 100
           else f"n/a (needs >= 100 samples for 10 beyond it, have {len(times)})")
    print(f"# {args.workload}: wall_s {median(times):.4f} s (median of "
          f"{len(times)} timed ops), wall_s.p90 {p90}, wall_ref {median(ratios):.3f} "
          f"(reference loop median {median(refs):.4f} s), peak_rss_mb "
          f"{peak_mb:.1f} MB, setup_s {median(setups):.3f} s (median of "
          f"{', '.join(f'{x:.3f}' for x in setups)}), fail_ratio "
          f"{tally.failed / tally.attempted:g} ({tally.failed} of "
          f"{tally.attempted} ops failed)")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {"wall_ref": {"value": median(ratios), "unit": "ref"},
                        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
                        "setup_s": {"value": median(setups), "unit": "s"}}}


def trace_child(args) -> None:
    """Traced pass over one workload; writes its findings to args.trace_child."""
    from spans import Tracer

    pkg = import_checkout()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    tally = Tally()
    plain, traced = [], []
    extra_metrics, extra_counts = None, {}

    def untraced_op() -> None:
        problems: list[str] = []
        plain.append(sum(run_op(wl, problems)[0]))
        tally.record(wl, problems)

    def traced_op() -> None:
        nonlocal extra_metrics, extra_counts
        problems: list[str] = []
        with tracer.installed(wl.trace_targets()):
            tracer.op = len(traced)
            traced.append(sum(run_op(wl, problems)[0]))
            tracer.op = None
            if extra_metrics is None and not problems:
                extra_metrics, extra_counts, problems = wl.traced_extra(tracer)
        tally.record(wl, problems)

    try:
        wl = workloads.make(args.workload, pkg, work, args.seed)
        wl.setup()
        warm_up(wl, tally)
        start = time.perf_counter()
        # at least two pairs, alternating which half goes first, so that
        # drift within the process does not bias the overhead
        while len(traced) < 2 or (time.perf_counter() - start + median(plain)
                                  + median(traced) <= args.seconds):
            pair = ((untraced_op, traced_op) if len(traced) % 2 == 0
                    else (traced_op, untraced_op))
            for half in pair:
                half()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    seconds = tracer.per_op_seconds(range(len(traced)))
    metrics = {name: seconds.get(name, 0.0) for name in wl.layer_names()}
    metrics.update(extra_metrics or {})
    metrics.update(tally.first_counts or {})
    metrics.update(extra_counts)
    metrics["trace.overhead_s"] = median(traced) - median(plain)
    Path(args.trace_child).write_text(json.dumps({
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": metrics, "wall_s": {"plain": plain, "traced": traced},
        "spans": tracer.spans}))


def traced_run(args) -> dict:
    """Run every workload's traced pass in its own fresh process."""
    deadline = time.monotonic() + TIME_LIMIT
    WORK.mkdir(exist_ok=True)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    trace_file = WORK / f"trace-seed{args.seed}.json"
    dump = {"seed": args.seed, "workloads": {}}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    share = max(1, args.seconds // len(workloads.WORKLOADS))
    for name in workloads.WORKLOADS:
        out = WORK / f"trace-{name}-{args.seed}-{os.getpid()}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(share),
               "--trace", "1", "--trace-child", str(out)]
        proc = subprocess.run(cmd, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            sys.exit(f"error: traced pass of {name} exited with {proc.returncode}")
        child = json.loads(out.read_text())
        out.unlink()
        attempted += child["attempted"]
        failed += child["failed"]
        for key, value in child["metrics"].items():
            metrics[f"{name}.{key}"] = {"value": value,
                                        "unit": units.get(f"{name}.{key}")}
        dump["workloads"][name] = {"wall_s": child["wall_s"], "spans": child["spans"]}
    if set(units) != set(metrics):
        sys.exit(f"error: traced metrics differ from BENCHMARK.json per_layer: "
                 f"{sorted(set(units) ^ set(metrics))}")
    env = environment()
    dump["env"] = env
    trace_file.write_text(json.dumps(dump))
    print("# env " + json.dumps(env))
    print(f"# spans written to {trace_file.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-child", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (ROOT / "src" / "dessins").is_dir():
        refuse(f"{ROOT} has no src/dessins to measure")
    if args.trace_child:
        trace_child(args)
        return
    result = traced_run(args) if args.trace else timed_run(args)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
