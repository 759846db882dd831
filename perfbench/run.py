"""varcert benchmark: one client drives `varcert.cli.main(argv)` in-process,
in a closed loop, over seeded random forms.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from any directory of a source checkout; it imports varcert from the
checkout's `src/` and refuses to run without it.  With `--trace 0` it
measures for S seconds and prints the end-to-end metrics; with `--trace 1`
it runs the same untraced loop and then a traced pass over a fixed set of
invocations, and prints the per-layer metrics.  The last line of standard
output is one JSON object {correct, attempted, failed, metrics}; the line
before it holds the run's details (seed, machine, rref tier, tail
percentile).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# one client, one thread: BLAS is pinned before numpy loads, whatever the
# caller's environment says, so results do not depend on how busy the
# machine's other cores are (at the sizes here a second BLAS thread measured
# no faster)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import spans
import workloads
from workloads import CheckFailed, FormPool, Workload

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPS = 5
IMPORT_SNIPPET = "import sys; sys.path.insert(0, sys.argv[1]); import varcert.cli"


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def import_program():
    if not (SRC / "varcert" / "cli.py").is_file():
        raise BenchError(f"no varcert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import varcert.cli
    if Path(varcert.cli.__file__).resolve().parent != (SRC / "varcert").resolve():
        raise BenchError(f"imported varcert from {varcert.cli.__file__}, not {SRC}")
    return varcert.cli


class Runner:
    """Invokes the CLI and checks every output against independent facts and
    against earlier repetitions of the same argv."""

    def __init__(self, cli):
        self.cli = cli
        self.digests: dict[tuple[str, ...], str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self, call: workloads.Call) -> tuple[float, bool]:
        self.attempted += 1
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(list(call.argv))
        except Exception as exc:  # a crash is a failed invocation, not a failed run
            seconds = time.perf_counter() - start
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.failures.append(f"{' '.join(call.argv)}: raised {exc!r} at "
                                 f"{Path(where.filename).name}:{where.lineno}")
            return seconds, False
        seconds = time.perf_counter() - start
        try:
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            report = json.loads(buf.getvalue())
            workloads.check(call, report)
            digest = workloads.output_digest(report)
            if self.digests.setdefault(call.argv, digest) != digest:
                raise CheckFailed("output differs from an earlier repetition")
        except (ValueError, KeyError, TypeError, CheckFailed) as exc:
            self.failures.append(f"{' '.join(call.argv)}: {exc}")
            return seconds, False
        return seconds, True


@dataclass
class Loop:
    latencies: list[float]
    good: list[bool]
    wall: float


def closed_loop(runner: Runner, wl: Workload, pool: FormPool, *,
                seconds: float = 0.0, count: int = 0, at_least: int = 0,
                recorder: spans.Recorder | None = None) -> Loop:
    """Run invocations back to back: a fixed number, or until `seconds` pass
    and at least `at_least` are done."""
    loop = Loop([], [], 0.0)
    t0 = time.perf_counter()
    k = 0
    while k < count if count else k < at_least or time.perf_counter() - t0 < seconds:
        if recorder is not None:
            recorder.invocation = k
        dt, good = runner.invoke(wl.call(pool, k))
        loop.latencies.append(dt)
        loop.good.append(good)
        k += 1
    loop.wall = time.perf_counter() - t0
    return loop


@contextlib.contextmanager
def tier_probe(exactla, seen: set[str]):
    """Record which private `_rref*` backends run while the block executes."""
    saved = {name: fn for name, fn in vars(exactla).items()
             if name.startswith("_rref") and callable(fn)}
    for name, fn in saved.items():
        def probe(*args, _fn=fn, _name=name, **kwargs):
            seen.add(_name)
            return _fn(*args, **kwargs)
        setattr(exactla, name, probe)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(exactla, name, fn)


@dataclass
class Setup:
    seconds: float
    pool: FormPool
    tiers: set[str]


def set_up(runner: Runner, wl: Workload, seed: int, rep_dir: Path, exactla) -> Setup:
    """Process start and imports (timed in a fresh child process), form
    generation and one warm-up invocation on the smaller shape."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
                   cwd=HERE.parent, check=True, timeout=120)
    rep_dir.mkdir(parents=True)
    pool = FormPool(rep_dir, wl.name, seed, wl.n, wl.d)
    for k in range(wl.forms):
        pool.path(k)
    warm = wl.warmup()
    warm_pool = FormPool(rep_dir, warm.name, seed, warm.n, warm.d)
    tiers: set[str] = set()
    with tier_probe(exactla, tiers):
        runner.invoke(warm.call(warm_pool, 0))
    return Setup(time.perf_counter() - t0, pool, tiers)


def tail(loop: Loop, wl: Workload) -> tuple[float, dict]:
    """latency_tail_ms and how it was taken: the median latency of the
    run's slowest form.  A run holds too few invocations (about 6 for
    maxvar, 15 for wlp at the default length) for a percentile with ten
    samples beyond it; every run covers each form at least once, so this
    rule picks the same kind of invocation however many fit in a run."""
    ms = [1000.0 * t for t in loop.latencies]
    by_form: dict[int, list[float]] = {}
    for k, x in enumerate(ms):
        by_form.setdefault(k % wl.forms, []).append(x)
    form, value = max(((f, statistics.median(xs)) for f, xs in by_form.items()),
                      key=lambda fv: fv[1])
    return value, {"rule": "slowest form median", "form": form,
                   "form_samples": len(by_form[form]), "samples": len(ms),
                   "percentile": 100.0 * sum(x <= value for x in ms) / len(ms)}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), None)
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas["name"], "blas_version": blas["version"],
            "blas_threads": blas_threads()}


def end_to_end(loop: Loop, wl: Workload, setup_s: float) -> tuple[dict, dict]:
    ok = sum(loop.good)
    tail_ms, how = tail(loop, wl)
    metrics = {
        "runs_per_min": (ok * 60.0 / loop.wall, "1/min"),
        "latency_p50_ms": (1000.0 * statistics.median(loop.latencies), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "setup_s": (setup_s, "s"),
        "success_rate": (ok / len(loop.good), "ratio"),
    }
    return metrics, how


def traced_pass(runner: Runner, wl: Workload, setup: Setup, loop: Loop,
                modules: dict, spans_path: Path) -> tuple[dict, Loop, list[str]]:
    """The first wl.trace_calls invocations again, with every layer wrapped;
    compared with the same invocations of the untraced loop."""
    recorder = spans.Recorder()
    recorder.install(modules)
    try:
        traced = closed_loop(runner, wl, setup.pool, count=wl.trace_calls,
                             recorder=recorder)
    finally:
        recorder.uninstall()
    OUT.mkdir(exist_ok=True)
    spans.write_spans(recorder.spans, spans_path)
    metrics, errors = spans.layer_metrics(recorder.spans, traced.latencies)
    n = min(wl.trace_calls, len(loop.latencies))
    untraced_rpm = sum(loop.good[:n]) * 60.0 / sum(loop.latencies[:n])
    traced_rpm = sum(traced.good) * 60.0 / traced.wall
    metrics["trace.overhead_runs_per_min"] = (traced_rpm - untraced_rpm, "1/min")
    return metrics, traced, errors


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args: argparse.Namespace) -> None:
    wl = workloads.WORKLOADS[args.workload]
    cli = import_program()
    modules = {layer: importlib.import_module(f"varcert.{layer}") for layer in spans.LAYERS}
    runner = Runner(cli)
    work = HERE / ".work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        reps = [set_up(runner, wl, args.seed, work / f"setup{i}", modules["exactla"])
                for i in range(SETUP_REPS)]
        setup = reps[-1]
        setup_s = statistics.median(r.seconds for r in reps)
        # one full-shape invocation before timing: the first one in a process
        # runs measurably slower than the rest (up to 20 % for wlp)
        warmup_s, _ = runner.invoke(wl.call(setup.pool, 0))
        loop = closed_loop(runner, wl, setup.pool, seconds=args.seconds,
                           at_least=wl.forms)
        detail = {
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "why": wl.why,
            "forms": {"shape": [wl.n, wl.d], "prime": wl.prime,
                      "coefficients": [-workloads.COEFF_BOUND, workloads.COEFF_BOUND],
                      "files": wl.forms},
            "rref_tier": sorted(setup.tiers), "machine": machine_facts(),
            "setup_s_reps": [r.seconds for r in reps],
            "warmup_ms": round(1000.0 * warmup_s, 1),
            "latencies_ms": [round(1000.0 * t, 1) for t in loop.latencies],
        }
        if args.trace:
            spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
            metrics, traced, errors = traced_pass(runner, wl, setup, loop, modules, spans_path)
            runner.failures += errors
            detail["spans_file"] = str(spans_path.relative_to(HERE.parent))
            detail["traced_invocations"] = len(traced.latencies)
        else:
            metrics, detail["latency_tail"] = end_to_end(loop, wl, setup_s)
        out = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        detail["failures"] = runner.failures[:10]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    print(json.dumps({"detail": detail}))
    failed = len(runner.failures)
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": out}))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        run(args)
    except (BenchError, ImportError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
