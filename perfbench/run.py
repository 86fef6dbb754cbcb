"""Benchmark for vqlat: training, greedy auto-encoding and latent interpolation.

    python3 perfbench/run.py --workload reconstruct --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Each workload repeats one ``vqlat``
subcommand (called in-process through ``vqlat.cli.main``), one call at a time,
for ``--seconds`` seconds after an untimed warm-up call whose outputs are
checked; every timed call must leave byte-identical outputs.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of perfbench/tracing.py with ``--trace 1``.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import gc
import io
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("reconstruct", "interpolate", "train")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _use_checkout_sources() -> None:
    """Import vqlat from this checkout's ``src``, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "vqlat" / "cli.py").is_file():
        raise SystemExit(f"no vqlat sources under {src}: run from a source checkout")
    sys.path.insert(0, str(src))


class Runner:
    """Calls one workload's subcommand, counting attempts and failures."""

    def __init__(self, op, cli_main):
        self.op = op
        self.cli_main = cli_main
        self.attempted = 0
        self.failed = 0

    def call(self, invoke=None) -> float | None:
        """Run the next call on a fresh output directory; its wall seconds, or None."""
        shutil.rmtree(self.op.out_dir, ignore_errors=True)
        argv = self.op.argv_of(self.attempted)
        gc.collect()
        _release_free_heap()
        self.attempted += 1
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = (invoke or self.cli_main)(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            print(f"operation failed with exit {code}: {' '.join(argv)}", file=sys.stderr)
            return None
        return elapsed


def _count_trained_tokens(runner, ad):
    """One call with the loss function wrapped to count its target tokens."""
    counted = [0]
    original = ad.cross_entropy_with_logits

    def counting(logits, targets, *args, **kwargs):
        counted[0] += len(targets)
        return original(logits, targets, *args, **kwargs)

    ad.cross_entropy_with_logits = counting
    try:
        runner.call()
    finally:
        ad.cross_entropy_with_logits = original
    return counted[0]


def run(workload: str, seed: int, seconds: float, trace: bool, size, work: Path) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    import resource

    import vqlat.autodiff as ad
    import vqlat.cli
    import checks
    import tracing
    import workloads
    from workloads import read_outputs

    checkpoint = (workloads.provision_checkpoint(size, work.parent / "cache")
                  if workload != "train" else None)
    # set-up: a fresh interpreter's import of vqlat, then the run's inputs
    setup_times = []
    for _ in range(size.setup_repeats):
        import_s = workloads.time_import()
        start = time.perf_counter()
        op = workloads.set_up(workload, seed, size, work, checkpoint)
        setup_times.append(import_s + time.perf_counter() - start)

    runner = Runner(op, vqlat.cli.main)
    problems: list[str] = []
    kept: list[Path] = []  # output directories still to check

    def keep_outputs():
        """Set aside a call's outputs: each new input's are checked, repeats must match."""
        if kept and op.seed_base is None:
            if read_outputs(op.out_dir) != read_outputs(kept[0]):
                problems.append(f"call {runner.attempted - 1} changed the outputs")
            return
        kept.append(op.out_dir.rename(work / f"checked-{runner.attempted - 1}"))

    # untimed warm-up call
    counted = None
    if workload == "train":
        counted = _count_trained_tokens(runner, ad)
    else:
        runner.call()
    if not runner.failed:
        keep_outputs()

    tracer = tracing.Tracer()
    plain, traced = [], []  # (items, seconds) per timed call
    deadline = time.perf_counter() + seconds
    while True:
        use_trace = trace and len(plain) > len(traced)
        if use_trace:
            with tracer.installed():
                elapsed = runner.call(lambda argv: tracer.run_operation(
                    f"cli.{workload}", vqlat.cli.main, argv))
        else:
            elapsed = runner.call()
        if elapsed is not None:
            (traced if use_trace else plain).append((op.items, elapsed))
            keep_outputs()
        # stop before a further call would overrun, once every kind of call has run
        sampled = plain and (traced or not trace)
        if (sampled or runner.failed) and time.perf_counter() + (elapsed or 0.0) > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for checked in kept:
        problems += checks.check_operation(op, size, checked, counted)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("timed calls (items, s): " + json.dumps(plain + traced), file=sys.stderr)

    if trace:
        summary = tracer.summary()
        trace_dir = work.parent / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_dir / f"{workload}-seed{seed}.json",
                    {"workload": workload, "seed": seed, "summary": summary})
        untraced, with_trace = _rate(plain), _rate(traced)
        summary.update({"trace.items_per_s": with_trace,
                        "trace.untraced_items_per_s": untraced,
                        "trace.overhead": untraced / with_trace - 1.0 if with_trace else 0.0})
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in _per_layer()}
    else:
        metrics = {
            "items_per_s": {"value": _rate(plain), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    return {"correct": not problems, "attempted": runner.attempted, "failed": runner.failed,
            "metrics": metrics}


def _rate(samples: list[tuple[int, float]]) -> float:
    """Items per second over all the calls: total items over total seconds."""
    seconds = sum(s for _, s in samples)
    return sum(n for n, _ in samples) / seconds if seconds else 0.0


def _per_layer() -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    return [(m["name"], m["unit"]) for m in spec]


# glibc mallopt parameters
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


@functools.lru_cache(maxsize=None)
def _glibc():
    """The C library, if it is glibc (it has ``mallopt`` and ``malloc_trim``); else None."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return None
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.malloc_trim.argtypes = (ctypes.c_size_t,)
    libc.malloc_trim.restype = ctypes.c_int
    return libc


def _pin_allocator() -> None:
    """Fix glibc's mmap and trim thresholds where its adaptive policy tops out.

    By default the mmap threshold grows, up to 32 MiB, with each large block
    freed, so which arrays come from the heap depends on allocation order,
    and peak RSS then moved by 32 MB with the corpus order alone.  Pinned at
    32 MiB (trim at twice that, as glibc pairs them) the rate is unchanged.
    """
    libc = _glibc()
    if libc is not None:
        libc.mallopt(M_MMAP_THRESHOLD, 32 << 20)
        libc.mallopt(M_TRIM_THRESHOLD, 64 << 20)


def _release_free_heap() -> None:
    """Return the heap's free pages, as a fresh command-line process starts without them.

    Otherwise free blocks a call leaves in the heap can stay resident under
    the next call's peak: reconstruct's peak RSS read 411 MB instead of
    335 MB on 2 of 6 seeds.
    """
    libc = _glibc()
    if libc is not None:
        libc.malloc_trim(0)


def main(argv=None) -> int:
    args = _parse_args(argv)
    # one BLAS thread, also for the child that trains the checkpoint: on a
    # 2-core machine these small matrices run faster and no less steadily so
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"})
    _pin_allocator()
    _use_checkout_sources()
    import workloads
    work = workloads.WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     workloads.FULL, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
