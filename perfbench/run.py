"""salemforge benchmark: the parent process that runs and checks the passes.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (or any checkout of it).  Every pass runs in a
fresh interpreter (child.py) with PYTHONHASHSEED fixed and its own
temporary store file, one child at a time.  With --trace 0 each child runs
the pass cold and then warm in the same process; children are started
while one more fits in --seconds (the last one may run the cold pass
only), and every pass repeats the same items.  Times are medians over the
repeats, in reference seconds: seconds of the host's CPU at full speed,
converted with samples of its speed (see SpeedProbe).
With --trace 1 the run alternates an untraced and a traced cold pass and
reports the per-layer metrics of the first traced pass and the tracing
overhead.

Every verdict is checked (check.py).  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.  Context (Python
version, CPU count, src/ line count, sample counts) goes to standard error.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import check
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_CHILDREN = 5
HARD_LIMIT_S = 170.0  # the whole run must end within 180 s
# SpeedProbe.kernel's CPU time on an idle core of the reference host (see
# README.md); times are reported as if every probe had taken this long
REFERENCE_PROBE_S = 1.5e-4

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "warm_wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    pass


def percentile(values, q):
    """Linear interpolation between closest ranks, q in [0, 1]."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo, hi = math.floor(pos), math.ceil(pos)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class SpeedProbe(threading.Thread):
    """Sample how fast the CPU a child runs on is, from outside the child.

    On a shared host a vCPU's speed changes every 10-100 ms by up to 1.7x,
    with the load of whatever shares its core, and a busy spell can last
    longer than a whole run.  No repeat of a pass then runs at full speed,
    so no statistic of raw wall times is steady from run to run.  This
    thread shares the child's CPU and every PERIOD seconds times a small
    Fraction-sum kernel in its own CPU time.  Of the kernels tried (integer
    spin loop, big-integer products, dict churn, Fraction sums) this one
    slows down most like the workloads, which are Python-level exact
    arithmetic.  The child's items are timed in CPU time too, so the
    probes (about 0.2 ms each) and anything else sharing the CPU do not
    count, and each item's CPU time is scaled by the mean speed over it.
    """

    PERIOD = 0.02

    def __init__(self, cpu):
        super().__init__(daemon=True)
        self.cpu = cpu
        self.done = threading.Event()
        self.samples = []  # (perf_counter at the probe's middle, kernel seconds)

    @staticmethod
    def kernel():
        total = Fraction(0)
        for i in range(1, 60):
            total += Fraction(i * i + 1, 2 * i + 3)
        return total

    def probe(self):
        begin = time.perf_counter()
        start = time.thread_time()
        self.kernel()
        took = time.thread_time() - start
        self.samples.append(((begin + time.perf_counter()) / 2, took))

    def run(self):
        if self.cpu is not None:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, {self.cpu})  # this thread only
        self.probe()
        while not self.done.wait(self.PERIOD):
            self.probe()


def child_cpu():
    """The CPU children and probes share, or None where affinity is unsupported."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    return max(os.sched_getaffinity(0))


def mean_speed(a, b, samples):
    """The mean speed of the child's CPU over [a, b], 1.0 being reference speed.

    Each instant runs at the speed of the nearest probe: a probe that took
    `took` seconds means speed REFERENCE_PROBE_S / took.
    """
    if not samples:
        return 1.0
    times = [t for t, _ in samples]
    i = max(bisect.bisect_left(times, a) - 1, 0)
    if b <= a:
        nearest = min(range(i, min(i + 2, len(times))), key=lambda j: abs(times[j] - a))
        return REFERENCE_PROBE_S / samples[nearest][1]
    total = 0.0
    while i < len(samples):
        lo = -math.inf if i == 0 else (times[i - 1] + times[i]) / 2
        hi = math.inf if i == len(samples) - 1 else (times[i] + times[i + 1]) / 2
        if lo >= b:
            break
        overlap = min(b, hi) - max(a, lo)
        if overlap > 0:
            total += overlap * REFERENCE_PROBE_S / samples[i][1]
        i += 1
    return total / (b - a)


def reference_seconds(span, samples):
    """CPU seconds of an item span [start, end, cpu] at reference speed."""
    start, end, cpu = span
    return cpu * mean_speed(start, end, samples)


def src_line_count():
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "salemforge").glob("*.py"))


class Runner:
    def __init__(self, workload, seed, started):
        self.workload, self.seed, self.started = workload, seed, started
        self.tmp = ROOT / ".bench_tmp" / str(os.getpid())
        self.out_dir = ROOT / ".bench_out"
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
        self.env.pop("PYTHONOPTIMIZE", None)
        self.cpu = child_cpu()
        self.setups, self.raw_setups = [], []  # reference and raw seconds
        self.probe_s = []  # every probe time, for the context line
        self.spawned = 0

    def child(self, mode, round_no=0):
        """Run one child to the end; returns its result dict (None for set-up only)."""
        self.spawned += 1
        store_dir = self.tmp / str(self.spawned)
        store_dir.mkdir(parents=True)
        spec = {
            "workload": self.workload,
            "seed": self.seed,
            "mode": mode,
            "store_dir": str(store_dir),
            "trace_path": str(self.out_dir / f"trace-{self.workload}-{self.seed}.json") if round_no == 0 else None,
        }
        probe = SpeedProbe(self.cpu)
        probe.start()
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.PIPE,
                text=True,
            )
        except BaseException:
            probe.done.set()
            probe.join()
            raise
        try:
            if self.cpu is not None:
                with contextlib.suppress(OSError):  # then the probe may watch another CPU
                    os.sched_setaffinity(proc.pid, {self.cpu})
            ready = proc.stdout.readline()
            ready_at = time.perf_counter()
            left = HARD_LIMIT_S - (ready_at - self.started)
            rest, _ = proc.communicate(timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise ChildFailed(f"{mode} child exceeded the run's time limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
            probe.done.set()
            probe.join()
            shutil.rmtree(store_dir, ignore_errors=True)
        if not ready.startswith("READY ") or proc.returncode != 0:
            raise ChildFailed(f"{mode} child exited {proc.returncode} (set-up line {ready.strip()!r})")
        samples = probe.samples
        setup_cpu = float(ready.split()[1])
        self.setups.append(reference_seconds([start, ready_at, setup_cpu], samples))
        self.raw_setups.append(ready_at - start)
        self.probe_s.extend(took for _, took in samples)
        if mode == "setup":
            return None
        result = json.loads(rest.strip().splitlines()[-1])
        for phase in ("cold", "warm"):
            if phase in result:
                ref_item_s = [reference_seconds(span, samples) for span in result[phase]["item_spans"]]
                result[phase]["ref_item_s"] = ref_item_s
                result[phase]["ref_wall_s"] = sum(ref_item_s)
        return result

    def cleanup(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass


def check_pass(workload, items, result, reference, seed):
    """Problem lists per item of one pass result."""
    return check.pass_problems(workload, items, result["verdicts"], result["facts"], reference, seed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if sys.flags.optimize:
        print("refusing to run under -O: asserts in salemforge decide verdicts", file=sys.stderr)
        return 3
    if not (ROOT / "src" / "salemforge" / "__init__.py").is_file():
        print(f"no salemforge sources under {ROOT / 'src'}: nothing to benchmark", file=sys.stderr)
        return 2

    reference = check.load_reference()
    inputs = workloads.make_inputs(args.workload, args.seed)
    runner = Runner(args.workload, args.seed, started)
    deadline = started + args.seconds
    attempted = failed = 0
    errors = []

    def charge(problems, result):
        nonlocal attempted, failed
        attempted += len(problems)
        bad = [p for p in problems if p]
        failed += len(bad)
        errors.extend(result["facts"]["errors"])
        errors.extend("; ".join(p) for p in bad[:3])

    items = workloads.pass_items(args.workload, inputs)
    extra = workloads.check_items(args.workload, inputs)
    cold, warm, item_runs, rss = [], [], [], []  # reference seconds, and MB
    raw_cold, raw_warm = [], []
    traced_walls, untraced_walls, layers, spans = [], [], None, 0
    took = {"run": 0.0, "cold": 0.0, "pair": 0.0}  # longest child (or pair) of each kind
    try:
        for _ in range(SETUP_ONLY_CHILDREN):
            runner.child("setup")
        if extra:  # untimed verdicts, once per run
            result = runner.child("check")
            charge(check_pass(args.workload, extra, result["cold"], reference, args.seed), result["cold"])
        rounds = 0
        while True:
            # a child runs the warm pass too while that fits; a cold-only
            # child may still fit at the end of the run
            kind = "pair" if args.trace else "run"
            now = time.perf_counter()
            if rounds and now + took[kind] > deadline:
                if kind == "run" and now + took["cold"] <= deadline:
                    kind = "cold"
                else:
                    break
            t0 = time.perf_counter()
            if kind == "pair":
                plain = runner.child("cold", rounds)
                charge(check_pass(args.workload, items, plain["cold"], reference, args.seed), plain["cold"])
                runner.out_dir.mkdir(exist_ok=True)
                traced = runner.child("traced", rounds)
                problems = check_pass(args.workload, items, traced["cold"], reference, args.seed)
                for p, a, b in zip(problems, plain["cold"]["verdicts"], traced["cold"]["verdicts"]):
                    if a != b:
                        p.append("traced verdict differs from untraced verdict")
                charge(problems, traced["cold"])
                untraced_walls.append(plain["cold"]["ref_wall_s"])
                traced_walls.append(traced["cold"]["ref_wall_s"])
                if layers is None:
                    layers, spans = traced["layers"], traced["spans"]
            else:
                result = runner.child(kind, rounds)
                for phase in ("cold", "warm")[: 2 if kind == "run" else 1]:
                    charge(check_pass(args.workload, items, result[phase], reference, args.seed), result[phase])
                cold.append(result["cold"]["ref_wall_s"])
                raw_cold.append(result["cold"]["wall_s"])
                item_runs.append(result["cold"]["ref_item_s"])
                rss.append(result["maxrss_mb"])
                if kind == "run":
                    warm.append(result["warm"]["ref_wall_s"])
                    raw_warm.append(result["warm"]["wall_s"])
            rounds += 1
            spent = time.perf_counter() - t0
            took[kind] = max(took[kind], spent)
            if kind == "run":
                took["cold"] = max(took["cold"], spent - result["warm"]["wall_s"])
    except ChildFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.cleanup()

    # Every time is in reference seconds (see SpeedProbe), and every pass
    # repeats the same items, so each time is the median over the repeats.
    if args.trace:
        values = dict(layers)
        values["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(untraced_walls)
        units = tracing.metric_units()
    else:
        item_s = [statistics.median(repeats) for repeats in zip(*item_runs)]
        values = {
            "setup_s": statistics.median(runner.setups),
            "wall_s": statistics.median(cold),
            "warm_wall_s": statistics.median(warm),
            "item_p50_ms": 1000.0 * percentile(item_s, 0.5),
            "item_p90_ms": 1000.0 * percentile(item_s, 0.9),
            "peak_rss_mb": statistics.median(rss),
        }
        units = END_TO_END_UNITS
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_loc": src_line_count(),
        "children": rounds,
        "setup_samples": len(runner.setups),
        "items_per_pass": len(items),
        "spans": spans,
        "cold_walls_s": [round(x, 4) for x in (cold or untraced_walls)],
        "warm_walls_s": [round(x, 4) for x in (warm or traced_walls)],
        "raw_cold_walls_s": [round(x, 4) for x in raw_cold],
        "raw_warm_walls_s": [round(x, 4) for x in raw_warm],
        "raw_setup_s": round(statistics.median(runner.raw_setups), 4),
        "probe_ms": [round(1000 * q, 4) for q in statistics.quantiles(runner.probe_s, n=10)[::4]],
        "elapsed_s": round(time.perf_counter() - started, 3),
    }
    print(json.dumps({"context": context}), file=sys.stderr)
    for line in errors[:20]:
        print(f"failure: {line}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
