"""Benchmark of the structura library: one workload, one seed, one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload analyze --seed 3 --seconds 38 --trace 0

Workloads are ``analyze``, ``roundtrip`` and ``minors`` (see
``workloads.py``). The benchmark is a closed loop with a single caller on a
single thread: each operation starts when the previous one has returned.
It runs whole passes over freshly generated corpora until the next pass
would end after ``--seconds``. Throughput is completed operations over the
time spent inside them, and the latency percentiles pool every completed
operation of the run.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median time of
``import structura.cli`` in fresh interpreters), ``ops_per_s``,
``latency_p50_ms``, ``latency_p95_ms`` and ``peak_rss_mb``. The times are
given at a reference speed: a shared host runs the same code up to twice as
slowly for tens of seconds at a time, so a fixed speed probe runs right
before and after each timed operation (and around each import), and each
time is scaled by ``PROBE_REFERENCE_S`` over the probe's time there (see
``speed_probe``). The record line keeps the unscaled figures.
``--trace 1``
reports the per-layer metrics instead, with every public function in
``tracer.TARGETS`` wrapped from outside: each operation runs once untraced
and once traced, the per-layer numbers cover the traced runs of pass 0
(corpus 0 of the seed), and ``tracing_overhead_ratio`` is traced over
untraced time across all passes.

Every output is checked outside the timed region (``workloads.check``); for
the default seed, pass 0 is also compared with ``golden/<workload>.json``.
The next-to-last line of standard output is a JSON record of the run
(environment, pass and sample counts, ``fail_ratio`` and the first failure
reasons); the last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

``--tiny`` runs one pass over a few cheap inputs; the smoke test uses it.
The library is imported from ``src/`` next to this directory, and nothing
else: without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH_DIR)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)
EXTRA_LAYER_METRICS = (
    ("extract.output_coeff_bits_max", "bits"),
    ("feasibility.Prescription.validate.calls_per_op", "calls/op"),
    ("synthesis.triangular_realization.smith_calls_per_call", "calls/call"),
    ("tracing_overhead_ratio", "ratio"),
)
SETUP_REPS = 21
PROBE_WARMUP = 50
# Seconds the speed probe takes at full speed on the reference machine, a
# quiet 2-core x86-64 host with CPython 3.11: the times the benchmark reports
# are scaled to this probe time (see ``at_reference_speed``).
PROBE_REFERENCE_S = 0.000185
MAX_FAILURES_SHOWN = 5

# The speed probe: a fixed piece of exact rational arithmetic on Python ints,
# the kind of work the library does, with no imports, so that a child can
# run it before ``import structura.cli`` without loading anything the
# library would load. The parent and the children run this same source.
_PROBE_SRC = """\
from time import perf_counter


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class _Q:
    __slots__ = ("n", "d")

    def __init__(self, n, d):
        g = _gcd(n, d)
        self.n = n // g
        self.d = d // g

    def __add__(self, o):
        return _Q(self.n * o.d + o.n * self.d, self.d * o.d)

    def __mul__(self, o):
        return _Q(self.n * o.n, self.d * o.d)


def speed_probe():
    t0 = perf_counter()
    acc = _Q(1, 3)
    for i in range(1, 40):
        acc = acc * _Q(i, i + 7) + _Q(1, i)
    return perf_counter() - t0
"""
_probe_ns = {}
exec(_PROBE_SRC, _probe_ns)
speed_probe = _probe_ns["speed_probe"]
speed_probe.__doc__ = """Seconds the probe takes now; it tracks the host's speed."""

_SETUP_CODE = _PROBE_SRC + f"""
for _ in range({PROBE_WARMUP}):
    speed_probe()
before = min(speed_probe() for _ in range(3))
t0 = perf_counter()
import structura.cli
t1 = perf_counter()
after = min(speed_probe() for _ in range(3))
print(t1 - t0)
print(min(before, after))
print(structura.cli.__file__)
"""


class LibraryMissing(Exception):
    pass


def _under_src(path):
    return os.path.abspath(path).startswith(os.path.join(SRC, "structura") + os.sep)


def load_library():
    """Import structura from src/ of this checkout, and only from there."""
    if not os.path.isfile(os.path.join(SRC, "structura", "__init__.py")):
        raise LibraryMissing(f"no structura package under {SRC}")
    sys.path.insert(0, SRC)
    import structura
    import structura.jsonio  # noqa: F401  (the tracer wraps names bound here)

    if not _under_src(structura.__file__):
        raise LibraryMissing(f"structura imported from {structura.__file__}")


def measure_setup(reps):
    """(seconds, probe seconds) of ``import structura.cli`` in ``reps`` fresh
    interpreters; the probe ran in the same interpreter around the import.

    One unrecorded first import compiles the bytecode cache, a cost paid
    once per installation rather than per invocation.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    samples = []
    for i in range(reps + 1):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        seconds, probe, path = proc.stdout.split("\n")[:3]
        if not _under_src(path):
            raise LibraryMissing(f"child imported structura from {path}")
        if i:
            samples.append((float(seconds), float(probe)))
    return samples


class Pass:
    """Outcome of one pass over a corpus."""

    def __init__(self):
        self.times = []  # seconds per completed operation, untraced
        self.probes = []  # speed probe around each timed operation, untraced
        self.traced_times = []  # the same operations traced (A/B passes only)
        self.failures = []  # (item index, reason)
        self.attempted = 0
        self.wall = 0.0
        self.coeff_bits = 0

    @property
    def busy(self):
        return sum(self.times)


def _timed(op, text):
    t0 = time.perf_counter()
    out = op(text)
    return time.perf_counter() - t0, out


def _probe_without_gc():
    """The speed probe with the collector off, so that a collection of the
    library's heap never lands in it and a larger heap never reads as a
    slower host."""
    gc.disable()
    try:
        return speed_probe()
    finally:
        gc.enable()


def _probed(op, text):
    """Time one operation between two speed probes; returns (seconds, the
    faster probe, output). The faster of the two is taken so that an
    interrupt during one probe does not count as a slow host."""
    before = _probe_without_gc()
    dt, out = _timed(op, text)
    return dt, min(before, _probe_without_gc()), out


def _run_ab(op, text, tracer, traced_first):
    """Run one operation untraced and traced, in the given order; returns
    (untraced seconds, traced seconds, untraced output, traced output)."""
    runs = {}
    for traced in (True, False) if traced_first else (False, True):
        if traced:
            tracer.install()
        try:
            runs[traced] = _timed(op, text)
        finally:
            if traced:
                tracer.uninstall()
    return runs[False][0], runs[True][0], runs[False][1], runs[True][1]


def run_pass(workload, items, op, golden, tracer=None):
    """Run and check every item once. With a tracer, each item runs twice,
    untraced and traced in alternating order, so that drifts in machine
    speed cancel out of the overhead ratio and the tracer sees exactly one
    run of each item."""
    result = Pass()
    gc.collect()
    start = time.perf_counter()
    for n, item in enumerate(items):
        result.attempted += 1
        try:
            if tracer is None:
                dt, probe, out = _probed(op, item.text)
            else:
                dt, traced_dt, out, traced_out = _run_ab(op, item.text, tracer, n % 2 == 1)
                result.traced_times.append(traced_dt)
        except Exception as exc:  # a failed operation is counted, not fatal
            result.failures.append((item.index, f"raised {type(exc).__name__}: {exc}"))
            continue
        result.times.append(dt)
        if tracer is None:
            result.probes.append(probe)
        reasons = workloads.check(workload, item, out, golden)
        if tracer is not None:
            if traced_out != out:
                reasons.append("tracing changed the output")
            for data in tracer.extracted:
                result.coeff_bits = max(result.coeff_bits, tracing.coeff_bits(data))
            tracer.extracted.clear()
        if reasons:
            result.failures.append((item.index, reasons[0]))
    result.wall = time.perf_counter() - start
    return result


def latency_ms(times):
    """(p50, p95) in milliseconds of a list of seconds."""
    t = sorted(times)
    if len(t) < 2:
        return (t[0] * 1000,) * 2 if t else (0.0, 0.0)
    return statistics.median(t) * 1000, statistics.quantiles(t, n=20)[18] * 1000


def at_reference_speed(samples):
    """Scale (seconds, probe seconds) samples to the reference probe time."""
    return [dt * PROBE_REFERENCE_S / probe for dt, probe in samples]


def end_to_end_metrics(setup, passes):
    """The end-to-end metrics at the reference speed, and the same unscaled."""
    ops = [(dt, probe) for p in passes for dt, probe in zip(p.times, p.probes)]
    values = {}
    for key, (setup_times, times) in {
        "scaled": (at_reference_speed(setup), at_reference_speed(ops)),
        "unscaled": ([dt for dt, _ in setup], [dt for dt, _ in ops]),
    }.items():
        p50, p95 = latency_ms(times)
        values[key] = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(times) / sum(times) if times else 0.0,
            "latency_p50_ms": p50,
            "latency_p95_ms": p95,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    slowdown = sorted(probe / PROBE_REFERENCE_S for _, probe in setup + ops)
    values["host_slowdown"] = {
        "min": slowdown[0],
        "median": statistics.median(slowdown),
        "max": slowdown[-1],
    }
    return values


def load_golden(workload, seed):
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(os.path.join(BENCH_DIR, "golden", f"{workload}.json")) as fh:
        return json.load(fh)["items"]


def git_commit():
    """HEAD of the checkout read from .git without running git, or None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "structura")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "STRUCTURA_MAX_SEARCH": os.environ.get("STRUCTURA_MAX_SEARCH", "unset"),
    }


def run_passes(args, op, golden, traced=False):
    """Passes over corpora 0, 1, ... until the next one would overrun
    ``--seconds``; returns the passes and the tracer of pass 0, if traced."""
    passes, tracers = [], []
    start = time.perf_counter()
    k = 0
    while True:
        tracer = tracing.Tracer() if traced else None
        items = workloads.corpus(args.workload, args.seed, k, tiny=args.tiny)
        passes.append(run_pass(args.workload, items, op, golden if k == 0 else None, tracer))
        tracers.append(tracer)
        k += 1
        elapsed = time.perf_counter() - start
        if args.tiny or elapsed + passes[-1].wall > args.seconds:
            return passes, tracers[0]


def layer_metrics(passes, tracer):
    """Per-layer metrics of pass 0, and the overhead ratio of all passes."""
    stats = tracer.stats
    values = {}
    for name, _ in tracing.metric_names():
        base, field = name.rsplit(".", 1)
        slot = {"calls": 0, "self_s": 1, "total_s": 2, "raised": 3}[field]
        values[name] = stats[base][slot]
    first = passes[0]
    triangular_calls = stats[tracing.TRIANGULAR][0]
    values["extract.output_coeff_bits_max"] = first.coeff_bits
    values["feasibility.Prescription.validate.calls_per_op"] = (
        stats["feasibility.Prescription.validate"][0] / max(first.attempted, 1)
    )
    values["synthesis.triangular_realization.smith_calls_per_call"] = (
        tracer.smith_in_triangular / triangular_calls if triangular_calls else 0
    )
    untraced = sum(p.busy for p in passes)
    values["tracing_overhead_ratio"] = (
        sum(sum(p.traced_times) for p in passes) / untraced if untraced else 0.0
    )
    units = dict(tracing.metric_names() + list(EXTRA_LAYER_METRICS))
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description="structura benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="one pass over a few cheap inputs")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        load_library()
    except (LibraryMissing, ImportError) as exc:
        print(f"cannot load the library: {exc}", file=sys.stderr)
        return 2
    golden = load_golden(args.workload, args.seed)
    op = workloads.make_op(args.workload)
    # untimed warm-up over a few inputs of corpus -1, checked and counted
    warmup = run_pass(args.workload, workloads.corpus(args.workload, args.seed, -1, tiny=True),
                      op, None)

    if args.trace:
        passes, tracer = run_passes(args, op, golden, traced=True)
        metrics = layer_metrics(passes, tracer)
    else:
        for _ in range(PROBE_WARMUP):
            speed_probe()
        setup = measure_setup(2 if args.tiny else SETUP_REPS)
        passes, _ = run_passes(args, op, golden)
        values = end_to_end_metrics(setup, passes)
        metrics = {
            name: {"value": values["scaled"][name], "unit": unit} for name, unit in END_TO_END
        }

    attempted = warmup.attempted + sum(p.attempted for p in passes)
    failures = [f for p in [warmup] + passes for f in p.failures]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "warmup_ops": warmup.attempted,
        "passes": len(passes),
        "ops_per_pass": [p.attempted for p in passes],
        "latency_samples": sum(len(p.times) for p in passes),
        "latency_samples_per_pass": [len(p.times) for p in passes],
        "busy_s_per_pass": [p.busy for p in passes],
        "fail_ratio": len(failures) / attempted if attempted else 1.0,
        "failures": [
            {"item": idx, "reason": reason} for idx, reason in failures[:MAX_FAILURES_SHOWN]
        ],
        "environment": environment(),
    }
    if not args.trace:
        record["unscaled"] = values["unscaled"]
        record["host_slowdown"] = values["host_slowdown"]
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
