"""Benchmark of the tubethrow package.

    python3 perfbench/run.py --workload {table4,trace_cv,realtime_solve} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; nothing is installed, ``src`` goes on
PYTHONPATH. The workload runs in a fresh single-threaded process
(``workload.py``, where the workloads and their checks are described). With
``--trace 0``, six more fresh processes only set up, and ``setup_s`` is the
median of the seven set-up times. The report lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of BENCHMARK.json, or
with ``--trace 1`` its ``per_layer`` metrics.

Exits non-zero, printing no result, when a workload process fails, overruns,
or reports metrics other than the ones BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table4", "trace_cv", "realtime_solve")
SETUP_RUNS = 7
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_workload(args: list[str], deadline: float) -> tuple[list[str], dict]:
    """Run workload.py to completion; return its report lines and its JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), *args],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"workload {args} ran over {timeout:.0f} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload {args} exited with {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def expected_metrics(trace: int) -> dict | None:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "tubethrow" / "__init__.py").is_file():
        print(f"error: no tubethrow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                _, setup = run_workload([*common, "--seconds", "0", "--setup-only"], deadline)
                setups.append(setup["setup_s"])
        lines, result = run_workload(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    expected = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in metrics.items()}
    if expected is not None and got != expected:
        print(f"error: metrics {got} differ from BENCHMARK.json {expected}", file=sys.stderr)
        return 1
    bad = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1

    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
