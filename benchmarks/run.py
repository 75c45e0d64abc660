"""fgm benchmark: one workload, one seed, one process.

    python3 benchmarks/run.py --workload plain-w1 --seed 0 --seconds 25 --trace 0

Runs closed-loop operations of one workload for ``--seconds`` seconds and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.  The
line before it stamps the numeric environment, the deterministic counters
and the unscaled timings.  Times are scaled to the host's speed around
each step (see ``Calibration``).  ``--toy`` shrinks every workload for the
smoke tests.  See README.md for the workloads and metrics.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# The calibration kernel's milliseconds on a 2-core x86-64 host in a quiet
# spell; reported times are scaled to that speed (see Calibration).
NOMINAL_MS = 15.0
CALIB_ROUNDS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description="fgm benchmark runner")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the smoke tests")
    return parser.parse_args(argv)


def import_program():
    """Import fgm from this checkout's ``src``, single-threaded (HPC baseline).

    The thread pins must be set before numpy loads its BLAS.  Exits with
    code 2 when the checkout holds no program.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fgm
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import fgm from {src}: {exc}")
    if Path(fgm.__file__).resolve().parent != src / "fgm":
        sys.exit(f"benchmark: fgm was imported from {fgm.__file__}, not from {src}")


class Calibration:
    """Host speed, read from a fixed kernel before and after each timed step.

    The benchmark shares a few cores of a host with other machines, and the
    speed they leave it swings by up to half, in spells of a second or more.
    A timed step is scaled by ``NOMINAL_MS`` over the mean of the kernel's
    times just before and just after it, so a slow spell cancels while a
    slower program shows in full: the kernel runs no fgm code and does the
    same work on every run (BLAS, interpreter, and an 8 MB sum that streams
    from memory).  ``timed`` reuses the reading of the ``start`` or
    ``timed`` just before it as its "before".
    """

    def __init__(self):
        import numpy as np

        self.a = np.random.default_rng(0).standard_normal((256, 256))
        self.big = np.ones(1 << 20)
        self.ms: list[float] = []

    def read(self) -> float:
        """Median milliseconds of the kernel, run now."""
        times = []
        for _ in range(CALIB_ROUNDS):
            started = time.perf_counter()
            for _ in range(8):
                self.a @ self.a
            sum(i * i for i in range(100_000))
            for _ in range(4):
                self.big.sum()
            times.append(1000.0 * (time.perf_counter() - started))
        self.ms.append(statistics.median(times))
        return self.ms[-1]

    def start(self) -> float:
        """A fresh reading, the "before" of the next timed step."""
        self.last = self.read()
        return self.last

    def timed(self, fn, *args, **kwargs):
        """``(fn's result, wall seconds, speed)`` of one call.

        Wall seconds times ``speed`` are nominal seconds.
        """
        before = self.last
        started = time.perf_counter()
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - started
        self.start()
        return out, wall, NOMINAL_MS / (0.5 * (before + self.last))


def environment(seed: int, calib_ms: float) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "seed": seed, "calib_ms": calib_ms}


def measure(workload, inputs, args, tracer, calib):
    """Operations until the next one would end after ``--seconds``.

    With ``--trace 1`` every second operation is traced, so the run also
    measures untraced operations to compare counters and times with.
    Returns ``(traced, outcome)`` pairs, ``outcome`` None for an exception.
    """
    ops, durations = [], []
    began = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(ops) % 2 == 1
        started = time.perf_counter()
        try:
            with tracer.installed() if traced else contextlib.nullcontext():
                out, raw = workload.run(inputs, tracer.span, calib)
            workload.check(out, raw, inputs, reference=args.seed == 0 and not args.toy)
            if traced:
                out.layers, counters, problems = tracing.layer_metrics(tracer.spans, tracer.run)
                out.problems += problems
                if counters != out.counters:
                    out.problems.append(f"traced counters {counters} differ from "
                                        f"untraced {out.counters}")
        except Exception:
            traceback.print_exc()
            out = None
        ops.append((traced, out))
        durations.append(time.perf_counter() - started)
        enough = len(ops) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - began + max(durations) > args.seconds:
            return ops


def trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean of the values without the lowest and the highest ``cut`` of them.

    Slow spells of the host make step times bimodal even after scaling.  A
    median jumps between the two modes from run to run; a mean moves
    smoothly with the share of slow steps, and the trim drops rare outliers.
    """
    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.fmean(values[k:len(values) - k]) if values else 0.0


def summarize(ops, args, setup_s, calib_ms):
    """Result line: failures, and the end-to-end or per-layer metrics."""
    good = [(traced, out) for traced, out in ops if out is not None]
    counters = good[0][1].counters if good else {}
    for _, out in good:
        if out.counters != counters:
            out.problems.append("counters differ between operations")
    failed = [out for _, out in ops if out is None or out.problems]
    for out in failed:
        if out is not None:
            print(f"benchmark: failed checks: {out.problems}", file=sys.stderr)
    ok = [(traced, out) for traced, out in good if not out.problems]

    def median(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    plain = [out for traced, out in ok if not traced]
    if args.trace == 0:
        metrics = {
            "train_s": (trimmed_mean(o.train_s for o in plain), "s"),
            "predict_s": (trimmed_mean(t for o in plain for t in o.predict_samples), "s"),
            "pipeline_s": (trimmed_mean(o.pipeline_s for o in plain), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "test_accuracy": (median(o.test_accuracy for o in plain), "ratio"),
            "success_ratio": ((len(ops) - len(failed)) / len(ops), "ratio"),
        }
    else:
        traced = [out for is_traced, out in ok if is_traced]
        layer_names, counter_names, _ = tracing.layer_metrics([], 0)
        metrics = {name: (median(o.layers[name] for o in traced), tracing.unit(name))
                   for name in layer_names}
        metrics.update({f"counters.{k}": (counters.get(k, 0), "count") for k in counter_names})
        metrics["trace.overhead_s"] = (median(o.pipeline_s for o in traced)
                                       - median(o.pipeline_s for o in plain), "s")
        metrics["env.calib_ms"] = (calib_ms, "ms")
        metrics["engine.fgm_train.objective"] = (median(o.objective for o in traced), "F")
        for key in ("beta_drops", "beta_above_phi"):
            metrics[f"bounds.{key}"] = (median(o.bounds[key] for o in traced), "count")
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, counters


def wall_samples(ops) -> dict:
    """Unscaled seconds of every untraced operation, in the order taken."""
    plain = [out for traced, out in ops if out is not None and not traced]
    return {"train_s": [o.wall["train_s"] for o in plain],
            "predict_s": [t for o in plain for t in o.wall["predict_s"]],
            "pipeline_s": [o.wall["pipeline_s"] for o in plain]}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.toy:
        workload = workload.toy()
    imports_s = time.perf_counter() - _STARTED

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT, prefix="work-"))
    tracer = tracing.Tracer()
    try:
        calib = Calibration()
        setup_s = imports_s * NOMINAL_MS / calib.start()
        setups = []
        for _ in range(SETUP_REPEATS):
            inputs = None  # free the previous build first
            inputs, wall, speed = calib.timed(workload.setup, args.seed, work)
            setups.append(wall * speed)
        setup_s += statistics.median(setups)
        ops = measure(workload, inputs, args, tracer, calib)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    calib_ms = statistics.median(calib.ms)
    result, counters = summarize(ops, args, setup_s, calib_ms)
    print(json.dumps({"env": environment(args.seed, calib_ms), "counters": counters,
                      "wall": wall_samples(ops), "calib_readings_ms": calib.ms}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
