"""riopi benchmark: one closed-loop caller, one process, one thread.

    python3 bench/run.py --workload verify_suite --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; riopi is imported from ``src/``.
The untraced run (``--trace 0``) prints the end-to-end metrics; the traced
run (``--trace 1``) first repeats the untraced loop for half the time, then
replays the same jobs under the tracer and prints the per-layer metrics with
the tracer's overhead.  The last line of standard output is the result JSON.

Times are taken on the process CPU clock and stated at a fixed host speed:
after each job the run spends a twentieth of that job's time (after each
set-up, half of it) on a fixed stdlib reference workload, and every time is
scaled by how fast the reference ran over the same minutes (``Yardstick``).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5
TAIL_SAMPLES = 10  # jobs that must lie beyond a reported percentile
REF_SHARE = 0.05  # reference work after each job, as a share of its CPU time
SETUP_REF_SHARE = 0.5  # set-ups are short, so they are sampled more densely
REF_UNIT_NS = 1_200_000  # nominal CPU time of one reference unit (about the baseline host's)
_REF_TERMS = [Fraction(i + 1, 2 * i + 3) for i in range(20)]


def reference_unit() -> list:
    """A fixed stdlib workload shaped like riopi's: the truncated product of
    two 20-term ``Fraction`` series.  It never touches riopi."""
    c = [Fraction(0)] * 20
    for i, x in enumerate(_REF_TERMS):
        for j in range(20 - i):
            c[i + j] += x * _REF_TERMS[j]
    return c


class Yardstick:
    """The host's speed, sampled while a run works.

    On a shared host the CPU time of the same work moves by up to 1.7x
    within minutes, because other tenants' load slows the core it runs on.  After each timed piece of work the run spends ``share`` of
    that piece's CPU time on ``reference_unit``, so the reference is sampled
    evenly across the same minutes as the work.  ``scale`` turns CPU seconds
    on this host into seconds at the nominal speed, one unit per
    ``REF_UNIT_NS``; the raw figures are reported beside the scaled ones."""

    def __init__(self, share: float = REF_SHARE):
        self.share = share
        self.units = 0
        self.ns = 0

    def sample(self, work_ns: int) -> None:
        clock = time.process_time_ns
        start = clock()
        while True:
            reference_unit()
            self.units += 1
            spent = clock() - start
            if spent >= self.share * work_ns:
                break
        self.ns += spent

    @property
    def scale(self) -> float:
        return REF_UNIT_NS * self.units / self.ns


class Job:
    """One timed call: ``ns`` on the process CPU clock, ``wall_ns`` on the
    wall clock (the tracer's clock)."""

    __slots__ = ("kind", "ns", "wall_ns", "output", "error", "ok")

    def __init__(self, kind: str):
        self.kind = kind
        self.ns = 0
        self.wall_ns = 0
        self.output = None
        self.error = None
        self.ok = False


class Loop:
    """Jobs of one closed-loop measurement, grouped by input item."""

    def __init__(self):
        self.jobs: list[Job] = []
        self.items: list[tuple[object, list[Job]]] = []
        self.blocks = 0
        self.elapsed_ns = 0  # CPU time of the jobs alone
        self.wall_ns = 0  # wall time of the loop, reference work included
        self.ruler = Yardstick()  # sampled after each job

    @property
    def failed(self) -> int:
        return sum(not j.ok for j in self.jobs)


def import_riopi(root: Path):
    """Import riopi (every module) afresh from ``root/src``."""
    src = root / "src"
    if not (src / "riopi" / "__init__.py").is_file():
        raise SystemExit(f"error: no riopi sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "riopi" or n.startswith("riopi.")]:
        del sys.modules[name]
    import riopi
    import riopi.cli  # noqa: F401  (loads knowndata too)
    if Path(riopi.__file__).resolve().parent != (src / "riopi").resolve():
        raise SystemExit(f"error: riopi imported from {riopi.__file__}, not {src}")
    return riopi


def set_up(workload, seed: int, ruler: Yardstick):
    """Import, generate the seeded inputs, warm up; CPU seconds."""
    start = time.process_time_ns()
    riopi = import_riopi(ROOT)
    blocks = workload.blocks(seed)
    workload.warm_up(riopi)
    spent = time.process_time_ns() - start
    ruler.sample(spent)
    return spent / 1e9, riopi, blocks


def measure(riopi, workload, blocks, seconds: float, tracer=None) -> Loop:
    """Run whole blocks, closed loop, until the nearest block boundary to
    ``seconds`` of wall time; at least one block.  Outputs are checked
    afterwards.  ``loop.ruler`` samples the host's speed after each job.

    The process runs one thread, so its CPU clock counts the time the jobs
    compute and leaves out the time a shared host keeps it off a core."""
    loop = Loop()
    clock, wall = time.process_time_ns, time.perf_counter_ns

    def job(kind, fn):
        rec = Job(kind)
        loop.jobs.append(rec)
        if tracer is not None:
            tracer.job = len(loop.jobs) - 1
        start, start_wall = clock(), wall()
        try:
            rec.output = fn()
        except Exception as exc:  # a raising job is a failed job, not a crash
            rec.error = f"{type(exc).__name__}: {exc}"
        rec.wall_ns = wall() - start_wall
        rec.ns = clock() - start
        loop.elapsed_ns += rec.ns
        loop.ruler.sample(rec.ns)
        return rec.output

    gc.collect()
    start_wall = wall()
    for block in blocks:
        for item in block:
            first = len(loop.jobs)
            workload.run_item(riopi, item, job)
            loop.items.append((item, loop.jobs[first:]))
        loop.blocks += 1
        elapsed = wall() - start_wall
        if elapsed + elapsed / loop.blocks / 2 > seconds * 1e9:
            break
    loop.wall_ns = wall() - start_wall
    if tracer is not None:
        tracer.job = None
    return loop


def check(riopi, workload, loop: Loop) -> None:
    """Mark each job ok when it returned and its output check passed."""
    for item, jobs in loop.items:
        try:
            verdicts = workload.check(riopi, item, [j.output for j in jobs])
        except Exception as exc:  # a check that cannot run fails its jobs
            verdicts = [False] * len(jobs)
            for j in jobs:
                j.error = j.error or f"check raised {type(exc).__name__}: {exc}"
        for j, ok in zip(jobs, verdicts):
            j.ok = j.error is None and ok
            if not j.ok and j.error is None:
                j.error = "output check failed"


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def tail_percentile(n: int) -> float:
    """The highest percentile with TAIL_SAMPLES jobs beyond it, but never
    below p75: under 40 jobs that rule alone would name the median or less."""
    return max(75.0, 100.0 * (n - TAIL_SAMPLES) / n) if n else 75.0


def end_to_end(loop: Loop, setups: list[float], setup_scale: float) -> tuple[dict, dict]:
    """End-to-end metrics: CPU seconds times the host-speed factor measured
    over the same minutes, the set-ups' own for ``setup_s`` and the loop's
    for the jobs.  The unscaled CPU figures and the wall-clock ones go
    beside them."""
    scale = loop.ruler.scale
    times = sorted(j.ns / 1e9 for j in loop.jobs)
    walls = sorted(j.wall_ns / 1e9 for j in loop.jobs)
    n = len(times)
    q = tail_percentile(n)
    tail = percentile(times, q)
    cpu = {"setup_s": statistics.median(setups),
           "jobs_per_s": n / (loop.elapsed_ns / 1e9),
           "job_s.p50": percentile(times, 50),
           "job_s.tail": tail}
    metrics = {
        "setup_s": (cpu["setup_s"] * setup_scale, "s"),
        "jobs_per_s": (cpu["jobs_per_s"] / scale, "1/s"),
        "job_s.p50": (cpu["job_s.p50"] * scale, "s"),
        "job_s.tail": (cpu["job_s.tail"] * scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    by_kind: dict[str, list[float]] = {}
    for j in loop.jobs:
        by_kind.setdefault(j.kind, []).append(j.ns / 1e9 * scale)
    beside = {
        "setup_s": {"setups_cpu_s": setups},
        "job_s.p50": {"jobs": n, "rank": "nearest",
                      "by_kind": {k: statistics.median(v) for k, v in by_kind.items()}},
        "job_s.tail": {"percentile": q, "jobs": n,
                       "jobs_beyond": sum(t > tail for t in times)},
        "host_speed": {"scale": scale, "setup_scale": setup_scale,
                       "reference_units": loop.ruler.units,
                       "reference_cpu_s": loop.ruler.ns / 1e9},
        "cpu": cpu,
        "wall": {"jobs_per_s": n / (loop.wall_ns / 1e9),
                 "job_s.p50": percentile(walls, 50),
                 "job_s.tail": percentile(walls, q)},
    }
    return metrics, beside


def traced(riopi, workload, blocks, seconds: float) -> tuple[dict, dict, list[Loop], bool]:
    """Untraced loop for half the time, then the same blocks under the tracer."""
    plain = measure(riopi, workload, blocks, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loop = measure(riopi, workload, blocks[:plain.blocks], math.inf, tracer)
    finally:
        tracer.remove()
    metrics = tracing.layer_metrics(tracer, len(loop.jobs))
    metrics["trace.overhead_frac"] = (
        loop.elapsed_ns * loop.ruler.scale / (plain.elapsed_ns * plain.ruler.scale) - 1,
        "ratio")

    selfs = tracing.self_times(tracer.spans)
    per_job = [0] * len(loop.jobs)
    det = [0] * len(loop.jobs)
    for rec, own in zip(tracer.spans, selfs):
        per_job[rec[tracing.JOB]] += own
        if rec[tracing.NAME] == "hankel.hankel_det":
            det[rec[tracing.JOB]] += own
    # Spans are on the wall clock, so they are compared with wall job times.
    consistent = (all(own >= 0 for own in selfs)
                  and all(s <= j.wall_ns for s, j in zip(per_job, loop.jobs)))
    beside = {
        "traced_jobs": len(loop.jobs),
        "spans": len(tracer.spans),
        "selfcheck_base_s": tracing.selfcheck_share(tracer.spans)[1],
        "spans_consistent": consistent,
        "hankel_det_share": _det_share(loop, det),
    }
    return metrics, beside, [plain, loop], consistent


def _det_share(loop: Loop, det: list[int]) -> dict:
    """Mean hankel_det self-time share of job time, integer vs p/q items."""
    shares: dict[str, list[float]] = {"int": [], "pq": []}
    index = 0
    for item, jobs in loop.items:
        values = item if isinstance(item, tuple) else (item,)
        kind = "pq" if any(getattr(v, "denominator", 1) != 1 for v in values) else "int"
        for j in jobs:
            shares[kind].append(det[index] / j.wall_ns if j.wall_ns else 0.0)
            index += 1
    return {k: (statistics.fmean(v) if v else None) for k, v in shares.items()}


def host() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": commit(ROOT)}


def commit(root: Path) -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    workload = workloads.WORKLOADS[args.workload]()
    ruler = Yardstick(SETUP_REF_SHARE)
    setups = []
    for _ in range(SETUPS):
        seconds, riopi, blocks = set_up(workload, args.seed, ruler)
        setups.append(seconds)

    if args.trace:
        metrics, beside, loops, correct = traced(riopi, workload, blocks, args.seconds)
    else:
        loop = measure(riopi, workload, blocks, args.seconds)
        loops, correct = [loop], True
    for loop in loops:
        check(riopi, workload, loop)
    if not args.trace:
        metrics, beside = end_to_end(loops[0], setups, ruler.scale)

    main_loop = loops[-1]
    items = [item for item, _ in main_loop.items]
    descriptor = {"order": workload.order, "jobs": len(main_loop.jobs),
                  "blocks": main_loop.blocks,
                  **workload.descriptor(items, [[j.output for j in jobs]
                                                for _, jobs in main_loop.items])}
    attempted = sum(len(loop.jobs) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    beside["fail_frac"] = {"value": failed / attempted, "failed": failed,
                           "attempted": attempted}
    errors = sorted({j.error for loop in loops for j in loop.jobs if j.error})

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host(), "descriptor": descriptor,
              "beside": beside, "errors": errors[:5]}
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print("detail " + json.dumps(detail, default=str))
    result = {"correct": correct and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
