"""gapchain benchmark: one seeded workload per process.

    python3 bench/run.py --workload solve_cap --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 0            # every workload, one process each

A run builds the workload's inputs from the seed, then makes timed passes
over its items until `--seconds` is used up (at least two passes), checks
every outcome, and prints one JSON object as its last line of output. With
`--trace 1` it makes one more pass with per-layer wrappers installed and
reports the per-layer metrics instead of the end-to-end ones. See
bench/README.md for the metrics and why each workload exists.
"""

import os
import sys
import time

PROCESS_T0 = time.perf_counter()
# one BLAS thread: the process must stay on one core, and numpy reads these
# only when it is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
REFERENCES = BENCH / "reference"
SETUP_SAMPLES = 7
MIN_PASSES = 2
END_TO_END_UNITS = {"batch_s": "s", "slowest_item_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def import_program():
    """Import gapchain from this checkout's source tree, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import numpy  # noqa: F401
        import gapchain
    except ImportError as exc:
        sys.exit(f"bench: cannot import the program from {SRC}: {exc}")
    if Path(gapchain.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"bench: imported gapchain from {gapchain.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy

    env = {
        "python": platform.python_implementation() + " " + platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "git_commit": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                    capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return env
        if head.returncode == 0:
            env["git_commit"] = head.stdout.strip()
            env["git_dirty"] = bool(status.stdout.strip())
    return env


def load_reference(workload: str, seed: int):
    """Recorded outcomes of every item for this seed, or None if none were recorded."""
    path = REFERENCES / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(str(seed))


def time_setup_children(args, workdir: Path) -> list[float]:
    """Wall time of fresh processes that import and build the inputs, then exit."""
    times = []
    for i in range(SETUP_SAMPLES):
        child_dir = workdir / f"setup{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(child_dir)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(child_dir, ignore_errors=True)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up child failed:\n{proc.stderr}")
    return times


class Pass:
    """Outcome of one pass over every item."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.failed: list[str] = []
        self.witness_changed = 0
        self.outputs: dict[str, object] = {}

    @property
    def batch_s(self) -> float:
        return sum(self.times.values())


def run_pass(items, reference, first_records, tracer=None) -> Pass:
    """Run every item once, in order; only the call into gapchain is timed."""
    result = Pass()
    for item in items:
        item.prepare()
        gc.collect()
        if tracer is not None:
            tracer.item = item.name
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # an item that raises is a failed item
            out = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        result.times[item.name] = dt
        result.outputs[item.name] = out
        if isinstance(out, Exception):
            result.failed.append(f"{item.name}: raised {type(out).__name__}: {out}")
            continue
        ref = reference.get(item.name) if reference else None
        ok, record, note = item.check(out, ref)
        # a rerun of the same input must reproduce the first pass exactly
        first = first_records.setdefault(item.name, record)
        if record != first:
            ok = False
        if not ok:
            result.failed.append(f"{item.name}: wrong outcome {record}")
        result.witness_changed += note == "witness_changed"
    return result


def measure(args) -> dict:
    import workloads

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    items = workloads.build(args.workload, args.seed, workdir)
    own_setup_s = time.perf_counter() - PROCESS_T0
    reference = load_reference(args.workload, args.seed)
    try:
        setup_times = time_setup_children(args, workdir)
        first_records: dict = {}
        passes = []
        t_start = time.perf_counter()
        while True:
            passes.append(run_pass(items, reference, first_records))
            elapsed = time.perf_counter() - t_start
            # stop at the pass boundary nearest to --seconds
            if len(passes) >= MIN_PASSES and elapsed + passes[-1].batch_s / 2 > args.seconds:
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced = None
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(items, reference, first_records, tracer)
            finally:
                tracer.remove()
            for item in items:
                out = traced.outputs[item.name]
                if item.kind == "verify" and not isinstance(out, Exception):
                    tracer.count_verify_report(out[1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_passes = passes + ([traced] if traced else [])
    attempted = len(items) * len(all_passes)
    failures = [f for p in all_passes for f in p.failed]
    # per-item medians over the passes: a burst of machine noise that hits one
    # item in one pass does not move the estimate of a whole pass
    item_s = {name: statistics.median(p.times[name] for p in passes) for name in passes[0].times}
    batch = sum(item_s.values())
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "reference": reference is not None,
        "passes": len(passes),
        "batch_s_each": [round(p.batch_s, 4) for p in passes],
        "item_s_each": {name: [round(p.times[name], 4) for p in passes] for name in item_s},
        "own_setup_s": round(own_setup_s, 4),
        "setup_s_each": [round(t, 4) for t in setup_times],
        "item_s": {name: round(t, 4) for name, t in item_s.items()},
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:20],
    }
    if traced is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "batch_s": batch,
            "slowest_item_s": max(item_s.values()),
            "peak_rss_mb": rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        layer = tracer.layer_metrics()
        layer["oracle.witness_changed"] = sum(p.witness_changed for p in all_passes)
        layer["trace.overhead_s"] = traced.batch_s - batch
        layer["trace.unattributed_s"] = traced.batch_s - tracer.root_seconds()
        info["traced_batch_s"] = round(traced.batch_s, 4)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    return {
        "info": info,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": metrics,
        },
    }


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name == "formats.bytes_written":
        return "bytes"
    return "count"


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    import workloads

    results = {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        results[workload] = result
        print(f"== {workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_ratio={result['failed'] / result['attempted']:.4f} ratio")
        for name, m in result["metrics"].items():
            print(f"   {name:34s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"env": environment(), "results": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload serially")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.all:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.build(args.workload, args.seed, Path(args.workdir))
        return 0
    out = measure(args)
    print(json.dumps({"env": environment(), "info": out["info"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
