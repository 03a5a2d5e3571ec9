"""supcbi benchmark: the design, simulate and calibrate workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

Each workload is a list of operations: in-process `supcbi.cli.main` calls and
library calls, run one after another in this process. The timed phase
repeats passes over the list until --seconds have gone by, and at least one
pass. Every output is checked. The last line of standard output is a JSON
object with `correct`, `attempted`, `failed` and `metrics`:

- --trace 0: the end-to-end metrics. setup_s is the median over three fresh
  interpreters (child processes) of the time to import supcbi and write the
  workload's inputs, which this process then does once more, untimed. Each
  *_ms is the latency of one call of that operation: the median call of each
  variant of each slot (a slot is a position in the pass; its calls cycle
  over a few seed-drawn variants of their inputs), averaged over the
  variants and then over the operation's slots. wall_s is one pass with
  every slot at that time. peak_rss_mb is this process's peak resident
  memory. The first pass is a warm-up and is not timed.
- --trace 1: the per-layer metrics of perfbench/spans.py, per pass. After
  the warm-up one pass runs untraced and the rest traced; trace.overhead_s
  is the difference of their pass times. Spans are written to
  perfbench/out/*.csv.gz.

Times are in reference seconds. Other tenants of a shared host slow this
process by up to 1.8x, for seconds to minutes at a time, so a raw time says
as much about them as about supcbi. A fixed kernel of the kinds of work a
pass does (reference_s) runs after every call and around each set-up. Each
time is divided by the mean kernel time just before and after it and
multiplied by REFERENCE_S, the kernel's time on an idle 2-vCPU KVM guest
(Python 3.11, numpy 2.4, scipy 1.17, one BLAS thread). The kernel calls no supcbi code, so a change to supcbi moves these
times as it moves raw ones.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: certify does (n+1)^2 mat-vecs, and timings must not depend on idle cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("design", "simulate", "calibrate")
LATENCIES = ("lift_ms", "solve_ms", "sweep_ms", "certify_ms",
             "simulate_ms", "verify_ms", "identify_ms", "full_objective_ms")
SETUP_SAMPLES = 3
REFERENCE_S = 1.0e-3  # reference_s() on an idle 2-vCPU KVM guest
_KERNEL_SEED = 12345


def reference_s(repeats: int = 2) -> float:
    """Mean time of a fixed kernel: interpreter loops, small numpy and scipy.special calls
    and 80x80 matrix products, the kinds of work a pass does."""
    import numpy as np  # not at the top: a set-up child imports numpy inside its timed set-up
    from scipy.special import gammaincinv

    x = np.linspace(0.01, 0.99, 16)
    start_matrix = np.random.default_rng(_KERNEL_SEED).standard_normal((80, 80))
    start = time.perf_counter()
    for _ in range(repeats):
        table: dict[int, int] = {}
        for i in range(5000):
            table[i % 97] = table.get(i % 97, 0) + i * i % 7
        acc = 0.0
        for k in range(40):
            y = np.exp(-x * k) * x + 1.0
            acc += float(np.sum(y * y)) + float(np.max(y))
        gammaincinv(2.1, x)
        a = start_matrix
        for _ in range(6):
            a = a @ a
            a /= np.abs(a).max()
    return (time.perf_counter() - start) / repeats


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_S / kernel_s


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare(workload: str, seed: int, root: Path) -> list:
    """Import supcbi and write the workload's inputs under root; returns the slots of a pass."""
    sys.path.insert(0, str(SRC))  # the script's own directory is already on the path
    import supcbi

    if Path(supcbi.__file__).resolve().parent != SRC / "supcbi":
        raise ImportError(f"supcbi imported from {supcbi.__file__}, not from {SRC}")
    import ops

    return ops.build(workload, seed, root)


def setup_seconds(args: argparse.Namespace, scratch: Path) -> float:
    """Set-up time of a fresh interpreter, as it reports it, in reference seconds.

    The kernel runs in this warm process just before and after the child:
    in the child it would run cold, right after the set-up, and vary more.
    """
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only", str(scratch)]
    before = reference_s(10)
    done = subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.PIPE, text=True)
    after = reference_s(10)
    return at_reference_speed(float(done.stdout.split()[-1]), (before + after) / 2.0)


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs passes over the slots and keeps latencies, failures and digests.

    A slot is one position in a pass, holding the variants of one operation
    (ops.build); pass k calls variant k modulo their number. The warm-up
    pass counts.
    """

    def __init__(self, slots: list, scratch: Path):
        self.slots = slots
        self.scratch = scratch
        self.times: list[dict[int, list[float]]] = [{} for _ in slots]  # per slot and variant, reference s
        self.digests: dict[tuple[int, int], str] = {}  # per slot and variant
        self.attempted = self.failed = self.calls = self.passes = 0
        self.bytes_out = 0  # CLI output bytes, counted in traced passes only

    def run_pass(self, tracer=None, keep: bool = True) -> float:
        """One pass; returns the summed time of its operations, in reference seconds."""
        busy = 0.0
        kernel_before = reference_s()
        for index, slot in enumerate(self.slots):
            variant = self.passes % len(slot)
            op = slot[variant]
            self.calls += 1
            out = self.scratch / f"op{self.calls:06d}"
            if tracer is not None:
                tracer.op = self.calls
            start = time.perf_counter()
            try:
                result = op.call(out)
            except Exception as exc:  # a failed operation is counted, not fatal
                result = exc
            elapsed = time.perf_counter() - start
            try:
                problem = f"raised {result!r}" if isinstance(result, Exception) else op.check(out, result)
                if problem is None and op.cli:
                    problem = self._same_bytes((index, variant), out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
            if op.cli and out.exists():
                if tracer is not None:
                    self.bytes_out += sum(p.stat().st_size for p in out.iterdir())
                shutil.rmtree(out)
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                print(f"FAILED {op.label}: {problem}", file=sys.stderr)
            kernel_after = reference_s()
            elapsed = at_reference_speed(elapsed, (kernel_before + kernel_after) / 2.0)
            kernel_before = kernel_after
            busy += elapsed
            if keep:
                self.times[index].setdefault(variant, []).append(elapsed)
        self.passes += 1
        return busy

    def _slot_s(self, index: int) -> float:
        """A slot's time: each variant's median call, averaged over the variants.

        Averaging per variant keeps the result independent of how many passes
        each variant happened to get.
        """
        return statistics.fmean(map(statistics.median, self.times[index].values()))

    def latency_ms(self, metric: str) -> tuple[float, int]:
        """Mean over the metric's slots of each slot's time, and the call count."""
        slots = [i for i, slot in enumerate(self.slots) if slot[0].metric == metric]
        calls = sum(len(t) for i in slots for t in self.times[i].values())
        return 1e3 * statistics.fmean(map(self._slot_s, slots)), calls

    def pass_s(self) -> float:
        """One pass with each slot at its time."""
        return sum(map(self._slot_s, range(len(self.slots))))

    def _same_bytes(self, key: tuple[int, int], out: Path):
        found = digest(out)
        expected = self.digests.setdefault(key, found)
        return None if found == expected else "output bytes differ from an earlier call with the same inputs"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "supcbi" / "__init__.py").is_file():
        print(f"error: no supcbi sources at {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        start = time.perf_counter()
        prepare(args.workload, args.seed, Path(args.setup_only))
        print(time.perf_counter() - start)
        return 0

    scratch = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        reference_s()  # warm the kernel before it times the set-ups
        setups = [setup_seconds(args, scratch / f"setup{i}") for i in range(SETUP_SAMPLES)]
        slots = prepare(args.workload, args.seed, scratch / "inputs")
        runner = Runner(slots, scratch)
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        deadline = time.perf_counter() + args.seconds
        runner.run_pass(keep=False)  # warm-up: lazy imports and first-call caches
        passes, traced = [], []
        while not passes or (tracer is not None and not traced) or time.perf_counter() < deadline:
            if tracer is not None and passes:
                tracer.install()
                try:
                    traced.append(runner.run_pass(tracer, keep=False))
                finally:
                    tracer.uninstall()
            else:
                passes.append(runner.run_pass())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct = runner.failed == 0
    if tracer is None:
        latencies = {name: runner.latency_ms(name) for name in LATENCIES}
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (runner.pass_s(), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            **{name: (value, "ms") for name, (value, _) in latencies.items()},
        }
        counts = {"setup_s": len(setups), "wall_s": len(passes), "peak_rss_mb": 1,
                  **{name: calls for name, (_, calls) in latencies.items()}}
        print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
              f"{runner.attempted} operations, error_rate {runner.failed / runner.attempted:.4g}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<20} {value:12.4f} {unit:<4} (n={counts[name]})")
    else:
        metrics = spans.per_layer(tracer, len(traced), runner.bytes_out / len(traced))
        metrics["trace.overhead_s"] = (statistics.median(traced) - passes[0], "s")
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.csv.gz")
        missing = spans.uncovered(tracer)
        if missing:
            correct = False
            print(f"FAILED trace coverage: no calls recorded for {', '.join(missing)}", file=sys.stderr)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
