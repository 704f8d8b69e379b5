"""hullkit benchmark: four closed-loop workloads over the public API.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload illum3d --seed 1 --seconds 20 --trace 0

Workloads (inputs.py, workloads.py): illum3d, tcvp3d, eval3d, planar.  One
client runs ops back to back in this single process, pinned to one CPU with
one BLAS thread, on bodies generated from --seed and handed to hullkit as
body JSON.  hullkit is imported from ``src/`` of the checkout, never from an
installed copy.

--trace 0, the timed run, prints the end-to-end metrics:

* setup_s: median over five fresh interpreters of the time from launch to
  inputs ready (``import hullkit`` and ``fileio.parse_body`` of every body);
* ops_per_s: ops per second of op time;
* op_p50_ms: median op latency;
* op_tail_ms: op latency at TAIL_PERCENTILE, the highest percentile with at
  least ten samples beyond it;
* peak_rss_mb: peak resident memory of this process.

Times are CPU times of single-threaded work without I/O, which differ from
wall times only by time other processes held the CPU, rescaled to the host's
full speed (speed.py); the detail record keeps them unscaled.  Ops run for
about --seconds, in whole cycles of the pool's size mix (inputs.py), and
always cover the ops behind the output digest and enough samples for the
tail.

--trace 1, the traced run, makes those digest ops once untraced and once
with every layer boundary traced (spans.py).  It prints the per-layer
metrics and trace.overhead_s, the traced pass's time minus the untraced
one's.  Counts repeat exactly for a seed; --seconds is not used.

Every op is checked after it is timed.  A failed check, an exception, or an
output differing from an earlier run of the same op counts in ``failed``.
The last line of stdout is the result JSON.  A table of the metrics with
fail_rate, and a detail record (environment, input and output digests, tail
percentile and samples beyond it, raw times), go to stderr and to
perfbench/out/.
"""

import os

# before numpy loads: one BLAS thread, in this process and in the set-up probes
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import HostSpeed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
PROBE_KERNELS = 20
TRACE_KERNELS = 3
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10

# op_tail_ms percentile per workload: the highest of 50, 75 and 90 that keeps
# TAIL_BEYOND samples beyond it at the op count a run makes at today's speed.
# It is fixed, so a faster program is not measured at a higher percentile;
# every timed run makes enough ops for it (see _min_ops).
TAIL_PERCENTILE = {"illum3d": 75, "tcvp3d": 50, "eval3d": 90, "planar": 90}


class BenchError(Exception):
    pass


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _probe_setup(texts, speed):
    """One set-up in a fresh interpreter: (rescaled seconds, raw seconds, counts).

    The probe reports the CPU time it took to get ready.  Meanwhile this
    process, otherwise idle and on the same CPU, samples the host speed.
    """
    payload = json.dumps(texts).encode()
    speed.probe(PROBE_KERNELS)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    try:
        line = speed.sampled(None, _send_and_read, proc, payload)
        t1 = time.perf_counter()
        proc.stdout.close()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not line:
        raise BenchError(f"set-up probe failed with exit code {code}")
    reply = json.loads(line)
    busy = reply.pop("cpu_s")
    speed.probe(PROBE_KERNELS)
    return speed.rescale(busy, t0, t1), busy, reply


def _send_and_read(proc, payload):
    proc.stdin.write(payload)
    proc.stdin.close()
    return proc.stdout.readline()


def _min_ops(percentile):
    """Fewest samples with TAIL_BEYOND of them beyond the percentile."""
    return math.ceil(TAIL_BEYOND / (1 - percentile / 100))


def _percentile(values, percentile):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(percentile / 100 * len(ordered))) - 1]


class Runner:
    """Runs and checks the ops of one workload over its parsed bodies."""

    def __init__(self, workload, inputs, parsed):
        import workloads

        self.run, self.check, self.render = workloads.WORKLOADS[workload]
        self.ops = inputs.ops
        self.cycle = inputs.cycle
        self.checked = inputs.checked
        self.parsed = parsed
        self.outputs = {}
        self.failures = []
        self.attempted = 0

    def one(self, i, call=None):
        """Run op ``i`` of the pool (cycling), then check it; returns its latency.

        Latency is the thread's CPU time, not wall time: the op is
        single-threaded and does no I/O, so the two differ only by time
        other processes held the CPU.
        """
        key = i % len(self.ops)
        spec = self.ops[key]
        body = self.parsed[spec.body]
        self.attempted += 1
        t0 = time.thread_time()
        try:
            result = call(i, self.run, body, spec.params) if call else self.run(body, spec.params)
        except Exception as exc:  # a failed op is counted, never dropped
            latency = time.thread_time() - t0
            self.failures.append((i, f"{type(exc).__name__}: {exc}"))
            return latency
        latency = time.thread_time() - t0
        try:
            problems = self.check(body, spec.params, result)
            text = "\t".join(self.render(result))
        except Exception as exc:
            problems, text = [f"check raised {type(exc).__name__}: {exc}"], None
        if text is not None and self.outputs.setdefault(key, text) != text:
            problems.append("output differs from an earlier run of the same op")
        if problems:
            self.failures.append((i, "; ".join(problems)))
        return latency

    def output_digest(self):
        """Hash of the rendered outputs of the first ``checked`` ops of the pool."""
        h = hashlib.sha256()
        for key in range(self.checked):
            h.update(self.outputs.get(key, "missing").encode())
            h.update(b"\n")
        return h.hexdigest()


def _environment(seed):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "seed": seed,
    }


def _timed(runner, texts, seconds, tail_pct):
    speed = HostSpeed()
    probes = [_probe_setup(texts, speed) for _ in range(SETUP_PROBES)]
    expected = {"bodies": len(runner.parsed), "vertices": sum(len(b) for b in runner.parsed)}
    if any(p[-1] != expected for p in probes):
        raise BenchError(f"set-up probes built {probes[0][-1]}, expected {expected}")

    raw, spans = [], []
    speed.probe()
    start = time.perf_counter()
    deadline = start + seconds
    least = max(runner.checked, _min_ops(tail_pct))
    i = 0
    # whole cycles; stop before one that would end further past the deadline
    # than half a mean cycle
    while True:
        if i % runner.cycle == 0:
            now = time.perf_counter()
            if i >= least and now + (now - start) / (i // runner.cycle) / 2 >= deadline:
                break
        t0 = time.perf_counter()
        latency = runner.one(i, call=speed.sampled)
        spans.append((latency - speed.inside_s, t0, time.perf_counter()))
        raw.append(latency)
        speed.probe()
        i += 1

    lat = [speed.rescale(*span) for span in spans]
    metrics = {
        "setup_s": (statistics.median(p[0] for p in probes), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * _percentile(lat, tail_pct), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "ops": len(lat),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": len(lat) - math.ceil(tail_pct / 100 * len(lat)),
        "kernel_median_ms": 1e3 * statistics.median(speed.samples),
        "kernel_fastest_ms": 1e3 * min(speed.samples),
        "kernel_samples": len(speed.samples),
        "raw_setup_s": statistics.median(p[1] for p in probes),
        "setup_probes_s": [p[:2] for p in probes],
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_p50_ms": 1e3 * statistics.median(raw),
        "op_ms": [1e3 * t for t in lat],
    }
    return metrics, detail


def _traced(runner, texts, workload, seed):
    from hullkit import fileio
    from spans import Tracer

    # times are rescaled as in the timed run, from kernel runs between ops
    # only: kernel runs inside an op would land inside its layers' spans
    speed = HostSpeed()
    setup_tracer = Tracer()
    speed.probe(PROBE_KERNELS)
    t0 = time.perf_counter()
    setup_tracer.install()
    try:
        for text in texts:
            fileio.parse_body(text)
    finally:
        setup_tracer.restore()
    t1 = time.perf_counter()
    speed.probe(PROBE_KERNELS)
    setup_scale = {None: speed.rescale(t1 - t0, t0, t1) / (t1 - t0)}

    def one_pass(call=None):
        spans = []
        for i in range(runner.checked):
            t0 = time.perf_counter()
            latency = runner.one(i, call=call)
            spans.append((latency, t0, time.perf_counter()))
            speed.probe(TRACE_KERNELS)
        return [(span[0], speed.rescale(*span)) for span in spans]

    speed.probe(TRACE_KERNELS)
    untraced = one_pass()
    tracer = Tracer()
    # a traced output that differs from the untraced one fails its op
    traced = one_pass(tracer.op)

    layers = tracer.layer_metrics({i: rescaled / raw for i, (raw, rescaled) in enumerate(traced)})
    layers["fileio.parse_body.busy_s"] = setup_tracer.layer_metrics(setup_scale)["fileio.parse_body.busy_s"]
    untraced_s = sum(rescaled for _, rescaled in untraced)
    traced_s = sum(rescaled for _, rescaled in traced)
    layers["trace.overhead_s"] = traced_s - untraced_s
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"setup": setup_tracer.spans(), "ops": tracer.spans()}, fh)

    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    metrics = {name: (layers[name], units[name]) for name in units}
    detail = {
        "ops": runner.checked,
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "raw_untraced_pass_s": sum(raw for raw, _ in untraced),
        "raw_traced_pass_s": sum(raw for raw, _ in traced),
        "spans": len(tracer.names) + len(setup_tracer.names),
        "spans_file": str(spans_path.relative_to(HERE.parent)),
    }
    return metrics, detail


def _print_table(workload, metrics):
    width = max(len(name) for name in metrics)
    print(f"{workload}:", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {shown:>12}  {unit}", file=sys.stderr)


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "hullkit" / "__init__.py").is_file():
        print(f"error: no hullkit sources at {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    # one CPU for this process and its set-up probes, so that the speed kernel
    # times the CPU the measured work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import inputs

    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {inputs.WORKLOADS}", file=sys.stderr)
        return 1
    made = inputs.make_inputs(args.workload, args.seed)

    import hullkit
    from hullkit import fileio

    if Path(hullkit.__file__).resolve().parent != SRC / "hullkit":
        print(f"error: hullkit imported from {hullkit.__file__}, not {SRC}", file=sys.stderr)
        return 1
    parsed = [fileio.parse_body(text) for text in made.bodies]
    runner = Runner(args.workload, made, parsed)
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, detail = _traced(runner, made.bodies, args.workload, args.seed)
        else:
            metrics, detail = _timed(runner, made.bodies, args.seconds, TAIL_PERCENTILE[args.workload])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = len(runner.failures)
    attempted = runner.attempted
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": _environment(args.seed),
        "input_digest": made.digest,
        "output_digest": runner.output_digest(),
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "first_failures": runner.failures[:5],
        **detail,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=2)
    _print_table(args.workload, {**metrics, "fail_rate": (failed / attempted, "ratio")})
    print(json.dumps({k: v for k, v in detail.items() if k not in ("metrics", "op_ms")}), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": detail["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
