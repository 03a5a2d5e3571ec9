"""Record a benchmark snapshot, or compare two.

Usage, from the repository root:

    python3 tools/bench.py --out BENCH_<n>.json
    python3 tools/bench.py --compare A.json B.json

Recording runs perfbench/run.py on each workload (design, simulate,
calibrate) at seed SEED for SECONDS, once untraced (--trace 0, the
end-to-end metrics) and once traced (--trace 1, the per-layer metrics), one
after another in child processes. It then times `supcbi simulate` on long
B > 0 paths, which no perfbench workload reaches: cold, the least of
LONG_PATH_RUNS child processes, which is mostly interpreter start-up and
imports; and in-process, the median of LONG_PATH_RUNS `cli.main` calls in
one child after one untimed call. It times `supcbi verify` at its default
states and draws the same in-process way, as the median of VERIFY_RUNS
calls, and `supcbi lift` at its default levels (m = 6..13) as the median of
LIFT_RUNS calls; perfbench's `lift` calls stop at m = 9. Last it times the
tier-1 suite. It
writes their results together with the git revision, the sha256 of
`git diff --full-index` of src, tests and perfbench against that revision
and of the untracked files there (null when the tree matches it), so a
record of an uncommitted tree still names the code it timed, and the
Python, numpy and scipy versions and the CPU count. Comparing prints, for
every metric the two files share, both values and the ratio B / A.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("design", "simulate", "calibrate")
MODES = {"untraced": 0, "traced": 1}
SEED = 3
SECONDS = 25.0
# the reference B > 0 model on an 8-component lift; `simulate` draws the
# components of these paths in several batches of cluster generations
LONG_PATH_CONFIG = (
    "A = 0.5\nB = 0.3\nc1 = 0.4\nc2 = 1.3\nalpha = 2.1\nbeta = 0.8\n"
    "m = 3\ndt = 5\neps = 0.001\nseed = 1\n"
)
LONG_PATH_HORIZONS = (10_000, 100_000)
LONG_PATH_RUNS = 3
# the reference model with verify's defaults: 100 states and 20 draws per lift
VERIFY_CONFIG = "A = 0.5\nB = 0.3\nc1 = 0.4\nc2 = 1.3\nalpha = 2.1\nbeta = 0.8\n"
VERIFY_RUNS = 9
# the reference model's rate measure; `lift` builds m = 6..13, 16320 atoms in all
LIFT_CONFIG = "alpha = 2.1\nbeta = 0.8\n"
LIFT_RUNS = 9
# run in one child: an untimed `cli.main` call, then the timed ones; prints their wall times
IN_PROCESS = """
import json, sys, time
from supcbi.cli import main
runs, argv = int(sys.argv[1]), sys.argv[2:]
walls = []
for _ in range(runs + 1):
    start = time.perf_counter()
    if main(argv) != 0:
        sys.exit(f"{argv[0]} exited nonzero: {argv}")
    walls.append(time.perf_counter() - start)
print(json.dumps(walls[1:]))
"""


def _run(argv: list[str], env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, check=False)


def _src_env() -> dict[str, str]:
    """The environment with src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def _perfbench(workload: str, trace: int) -> dict:
    """The JSON of the last line of one perfbench run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    done = _run(argv)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv[1:])} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def _long_path(horizon: int) -> dict:
    """Least cold wall time and greatest peak RSS of LONG_PATH_RUNS `supcbi simulate` children,
    and the median wall time of LONG_PATH_RUNS in-process calls."""
    walls, peaks = [], []
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "long.cfg"
        config.write_text(LONG_PATH_CONFIG + f"horizon = {horizon}\n")
        command = ["simulate", "--config", str(config), "--out", tmp, "--quiet"]
        for _ in range(LONG_PATH_RUNS):
            start = time.perf_counter()
            child = subprocess.Popen([sys.executable, "-m", "supcbi.cli", *command], cwd=ROOT,
                                     env=_src_env(), stderr=subprocess.PIPE)
            # wait4 gives this child's own resource usage, ru_maxrss in KiB
            _, status, usage = os.wait4(child.pid, 0)
            walls.append(time.perf_counter() - start)
            child.returncode = os.waitstatus_to_exitcode(status)
            if child.returncode != 0:
                raise SystemExit(f"simulate at horizon {horizon} exited {child.returncode}:\n"
                                 f"{child.stderr.read().decode()}")
            child.stderr.close()
            peaks.append(usage.ru_maxrss / 1024.0)
        in_process = _in_process(command, LONG_PATH_RUNS)
    return {"wall_s": round(min(walls), 3), "in_process_s": round(in_process, 4),
            "peak_rss_mb": round(max(peaks), 1)}


def _in_process(command: list[str], runs: int) -> float:
    """Median wall time of `runs` `cli.main(command)` calls in one child, after one untimed call."""
    done = _run([sys.executable, "-c", IN_PROCESS, str(runs), *command], _src_env())
    if done.returncode != 0:
        raise SystemExit(f"in-process {' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return statistics.median(json.loads(done.stdout))


def _command(name: str, config_text: str, runs: int) -> dict:
    """Median in-process wall time of `runs` calls of `supcbi <name>` on config_text."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / f"{name}.cfg"
        config.write_text(config_text)
        command = [name, "--config", str(config), "--out", tmp, "--quiet"]
        return {"in_process_s": round(_in_process(command, runs), 4)}


def _tier1() -> dict:
    """Wall time and pytest's summary line of the tier-1 suite."""
    start = time.perf_counter()
    done = _run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors"], _src_env())
    wall = time.perf_counter() - start
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    return {"wall_s": round(wall, 3), "exit_code": done.returncode, "summary": summary}


def _source_hash() -> str | None:
    """sha256 of the tree's changes to src, tests and perfbench against HEAD; None when it has none.

    It hashes `git diff --full-index HEAD` together with the path and bytes of
    each untracked file there, which the diff leaves out.
    """
    paths = ["--", "src", "tests", "perfbench"]
    diff = _run(["git", "diff", "--full-index", "HEAD", *paths]).stdout
    untracked = _run(["git", "ls-files", "--others", "--exclude-standard", "-z", *paths]).stdout.split("\0")[:-1]
    if not diff and not untracked:
        return None
    h = hashlib.sha256(diff.encode())
    for name in untracked:
        h.update(b"\0" + name.encode() + b"\0" + (ROOT / name).read_bytes())
    return h.hexdigest()


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "revision": _run(["git", "rev-parse", "HEAD"]).stdout.strip(),
        "source_diff_sha256": _source_hash(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
    }


def record(out: Path) -> None:
    report = {**_environment(), "seed": SEED, "seconds": SECONDS, "workloads": {}}
    for workload in WORKLOADS:
        report["workloads"][workload] = {mode: _perfbench(workload, trace) for mode, trace in MODES.items()}
    report["long_paths"] = {str(horizon): _long_path(horizon) for horizon in LONG_PATH_HORIZONS}
    report["verify"] = _command("verify", VERIFY_CONFIG, VERIFY_RUNS)
    report["lift"] = _command("lift", LIFT_CONFIG, LIFT_RUNS)
    report["tier1"] = _tier1()
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    incorrect = [f"{w} {m}" for w, runs in report["workloads"].items() for m, run in runs.items()
                 if not run["correct"]]
    print(f"wrote {out}" + (f"; NOT correct: {', '.join(incorrect)}" if incorrect else ""))


def _metrics(report: dict) -> dict[str, float]:
    """Every metric of a snapshot, keyed workload/mode/metric, plus tier1/wall_s, the long paths, verify and lift."""
    flat = {"tier1/wall_s": report["tier1"]["wall_s"]}
    for workload, runs in report["workloads"].items():
        for mode, run in runs.items():
            for name, metric in run["metrics"].items():
                flat[f"{workload}/{mode}/{name}"] = metric["value"]
    for horizon, run in report.get("long_paths", {}).items():
        for name, value in run.items():
            flat[f"long_path/{horizon}/{name}"] = value
    for command in ("verify", "lift"):
        for name, value in report.get(command, {}).items():
            flat[f"{command}/{name}"] = value
    return flat


def compare(a_path: Path, b_path: Path) -> None:
    a, b = (_metrics(json.loads(p.read_text())) for p in (a_path, b_path))
    print(f"{'metric':<62} {'A':>12} {'B':>12} {'B/A':>7}")
    for key in (k for k in a if k in b):
        ratio = f"{b[key] / a[key]:7.3f}" if a[key] else "      -"
        print(f"{key:<62} {a[key]:12.5g} {b[key]:12.5g} {ratio}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="snapshot file to write")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
    elif args.out:
        record(args.out)
    else:
        parser.error("give --out or --compare")
    return 0


if __name__ == "__main__":
    sys.exit(main())
