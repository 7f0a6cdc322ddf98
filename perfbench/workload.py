"""One tubethrow benchmark workload, in a process of its own.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

``run.py`` starts this from the repository root with ``src`` on PYTHONPATH and
one thread per numeric library. It prints report lines and, last, one JSON
object for ``run.py``.

Workloads (closed loop, one caller, no pool):

- ``table4`` does what ``tubethrow reproduce-table4`` does, serially: one
  ``run_batch`` per default controller spec over the 1500-condition mesh,
  then the trial CSV and the summary JSON. Its time is mostly the tube QP per
  tick and the release_sim step loop, so engine and QP speed-ups show here.
- ``trace_cv`` is ``error_trace_summary`` of the constant-velocity spec over
  the mesh. The QP does no work, so a QP change should read "no change". It
  reduces whole per-step traces, not only their maximum.
- ``realtime_solve`` is one ``assemble`` + ``solve`` at a time, on instances
  drawn as ``tubethrow bench`` draws them: the paper's real-time claim.
  release_sim and experiments do no work, so a batch-engine change should
  read "no change".

Each measured pass of ``table4`` and ``trace_cv`` uses trial seed
``seed + pass * SEED_STRIDE``; the mean over seeds 0..4 of the pass-0 MAEs of
``table4`` is the README table.

Failures never read as speed. An operation (a trial, or a solve) that raises,
or a trial row with a non-finite error or a note, counts as failed. It is
charged its deadline on top of the time it took: a trial the 100 ms release
window it simulates, a solve one 1 kHz control period.

Measured times are scaled to one host speed (see ``HostClock``); the
unscaled figures are printed as well. Set-up time is not scaled: it is mostly
imports, which follow the host speed much less.

The traced run (``--trace 1``) replays each pass from outside the package
with spans around the calls into each module, and reports per-layer numbers.
A layer the workload does not exercise reads 0.
"""

import time

T_START = time.perf_counter()  # setup_s counts the imports below

import argparse
import csv
import hashlib
import json
import math
import resource
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median

import numpy as np

from tubethrow.ballistics import DomainError, FlightState, flowmap_gradient, landing_position
from tubethrow.experiments import (
    DEFAULT_CONTROLLER_SPECS,
    build_mesh,
    error_trace_summary,
    run_batch,
    trial_rng,
    write_summary_json,
    write_trial_records_csv,
)
from tubethrow.release_sim import SimConfig, max_error_in_detach_window, simulate_release
from tubethrow.tube_qp import (
    DEFAULT_A_BOUNDS,
    EEMeasurement,
    SolveStatus,
    assemble,
    kkt_residual,
    solve,
)

import tracing

OUT_DIR = Path(".perfbench_out")

TRIAL_DEADLINE_S = 0.100  # the release window one trial simulates
SOLVE_DEADLINE_S = 0.001  # one control period at 1 kHz
SEED_STRIDE = 1_000_003
N_INSTANCES = 20_000
WARMUP_CONDITIONS = 4
WARMUP_SOLVES = 1_000
CAL_ROUNDS = 400
# calibration_s() on the reference host (2-vCPU 2.1 GHz Xeon VM, Python 3.11,
# numpy 2.4) when lightly loaded: measured times are reported at this speed
CAL_REF_S = 0.025
# stands for the MAE of a spec with failed trials: worse than any real MAE
WORST_MAE_CM = 1e6

SPECS = {spec.label: spec for spec in DEFAULT_CONTROLLER_SPECS}
CV_SPEC = SPECS["constant_velocity"]
PULLBACK_BY_FREQ = ("pullback_100hz", "pullback_200hz", "pullback_400hz")

# reference bands of acceptance criteria 1 and 3
CV_MAE_BAND_M = (0.968 * 0.85, 0.968 * 1.15)
P400_MAE_BAND_M = (0.311 * 0.70, 0.311 * 1.30)
ENTRY_MAE_BAND_M = (0.35, 0.45)
CV_END_MAE_BAND_M = (0.765, 1.035)
KKT_TOL = 1e-9
BOX_TOL = 1e-9

END_TO_END = {"ops_per_s": "1/s", "op_p50_us": "us", "op_p90_us": "us", "peak_rss_mb": "MB"}

QP_FAILURES = ("NameError", "DomainError", "EmptyBoxError", "other")
PER_LAYER = {
    "fail_frac": "frac",
    "experiments.build_mesh_ms": "ms",
    **{f"experiments.run_batch_s.{label}": "s" for label in SPECS},
    "experiments.trial_rng_us": "us",
    "experiments.trial_rng_calls": "count",
    "experiments.write_ms": "ms",
    "experiments.write_bytes": "bytes",
    "experiments.trace_summary_s": "s",
    **{f"experiments.mae_cm.{label}": "cm" for label in SPECS},
    **{f"release_sim.trial_us.{label}": "us" for label in SPECS},
    **{f"release_sim.self_us.{label}": "us" for label in SPECS},
    "release_sim.steps": "count",
    **{f"release_sim.ticks.{label}": "count" for label in SPECS},
    "tube_qp.command_us": "us",
    "tube_qp.assemble_us": "us",
    "tube_qp.solve_us": "us",
    "tube_qp.bound_active_frac": "frac",
    **{f"tube_qp.fail_count.{name}": "count" for name in QP_FAILURES},
    "ballistics.flowmap_ns": "ns",
    "ballistics.domain_error_count": "count",
    "trace.overhead_s": "s",
}


def calibration_s() -> float:
    """Time of a fixed kernel in the simulator's mix of work (float
    arithmetic, sqrt, small numpy writes). It calls nothing in tubethrow, so
    no change to the package can move it."""
    states = np.empty((101, 4))
    acc = 0.0
    start = time.perf_counter()
    for j in range(CAL_ROUNDS):
        r, z, r_dot, z_dot = 0.0, 1.0, 7.0 + j * 1e-3, 2.0
        for k in range(100):
            r_dot += 5e-4
            z_dot -= 9.81e-3
            r += 1e-3 * r_dot
            z += 1e-3 * z_dot
            states[k + 1] = (r, z, r_dot, z_dot)
            acc += abs(r + r_dot * (z_dot + math.sqrt(z_dot * z_dot + 19.62 * z)) / 9.81)
        acc += float(states[50:, 0].max())
    return time.perf_counter() - start


class HostClock:
    """Host speed around each measured stretch of work.

    On a shared host the speed left to this process changes by 2x over tens
    of seconds. ``calibration_s`` is timed after every stretch; the stretch's
    speed is ``CAL_REF_S`` over the mean of the kernel times before and after
    it, and its measured time is multiplied by that speed.
    """

    def __init__(self):
        self.last = calibration_s()

    def speed(self) -> float:
        now = calibration_s()
        speed = CAL_REF_S / ((self.last + now) / 2)
        self.last = now
        return speed


@dataclass
class State:
    seed: int
    conditions: list
    build_mesh_ms: float
    instances: list = field(default_factory=list)
    reference: np.ndarray | None = None  # realtime_solve commands of pass 0
    clock: HostClock | None = None


@dataclass
class Pass:
    deadline_s: float  # charged to each failed operation
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    # (measured s, host speed, measured s per operation, failed per operation)
    stretches: list = field(default_factory=list)
    problems: list = field(default_factory=list)  # failed correctness checks
    notes: list = field(default_factory=list)
    digest: str = ""
    outputs: object = None
    layers: dict = field(default_factory=dict)
    figures: dict = field(default_factory=dict)  # scaled -> (ops/s, p50 us, p90 us)
    speeds: list = field(default_factory=list)

    def close(self) -> None:
        """Reduce the pass to its figures, so that a run holds no more memory
        after many passes than after one."""
        for scaled in (True, False):
            wall, latencies = 0.0, []
            for seconds, speed, op_s, failed in self.stretches:
                speed = speed if scaled else 1.0
                wall += seconds * speed
                if op_s is not None:
                    latencies.append(op_s * speed + self.deadline_s * failed)
            q50, q90 = np.percentile(np.concatenate(latencies), (50, 90))
            ops = self.attempted / (wall + self.deadline_s * sum(self.failures.values()))
            self.figures[scaled] = (ops, float(q50) * 1e6, float(q90) * 1e6)
        self.speeds = [stretch[1] for stretch in self.stretches]
        self.stretches = self.outputs = None


def trial_seed(state: State, index: int) -> int:
    return state.seed + index * SEED_STRIDE


def trial_failure(record) -> str | None:
    if record.note:
        return record.note.split(":", 1)[0]
    if not math.isfinite(record.max_err):
        return "NonFinite"
    return None


def sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


def in_band(value: float, band: tuple[float, float]) -> bool:
    return band[0] <= value <= band[1]


def mesh(seed: int) -> State:
    start = time.perf_counter()
    conditions = build_mesh()
    return State(seed, conditions, (time.perf_counter() - start) * 1e3)


# ---------------------------------------------------------------- table4


def setup_table4(seed: int) -> State:
    state = mesh(seed)
    for spec in SPECS.values():
        with suppress(Exception):  # warm-up only: the measured passes count failures
            run_batch(state.conditions[:WARMUP_CONDITIONS], [spec], [seed], SimConfig())
    return state


def table4_pass(state: State, index: int) -> Pass:
    conditions, seed = state.conditions, trial_seed(state, index)
    n = len(conditions)
    p = Pass(TRIAL_DEADLINE_S, outputs={})
    records, stats, mae = [], [], {}
    for label, spec in SPECS.items():
        start = time.perf_counter()
        try:
            spec_stats, spec_records = run_batch(conditions, [spec], [seed], SimConfig())
            error = None
        except Exception as exc:  # fails this spec's trials, keeps the others
            spec_stats, spec_records, error = [], [], type(exc).__name__
        elapsed = time.perf_counter() - start
        failed = [error] * n if error else [trial_failure(r) for r in spec_records]
        failed_mask = np.array([f is not None for f in failed])
        p.stretches.append((elapsed, state.clock.speed(), np.full(n, elapsed / n), failed_mask))
        p.failures.update(f for f in failed if f)
        p.attempted += n
        p.layers[f"experiments.run_batch_s.{label}"] = elapsed
        errs = np.array([r.max_err for r in spec_records]) if spec_records else np.full(n, np.nan)
        p.outputs[label] = errs
        mae[label] = None if any(failed) else float(errs.mean())
        records += spec_records
        stats += spec_stats
    trials_csv, summary_json = OUT_DIR / "table4_trials.csv", OUT_DIR / "table4_summary.json"
    start = time.perf_counter()
    write_trial_records_csv(trials_csv, records)
    write_summary_json(summary_json, stats)
    elapsed = time.perf_counter() - start
    p.stretches.append((elapsed, state.clock.speed(), None, None))

    p.layers["experiments.write_ms"] = elapsed * 1e3
    p.layers["experiments.write_bytes"] = trials_csv.stat().st_size + summary_json.stat().st_size
    for label, value in mae.items():
        p.layers[f"experiments.mae_cm.{label}"] = WORST_MAE_CM if value is None else value * 100
        p.notes.append(
            f"{label}: MAE {'failed' if value is None else f'{value * 100:.2f} cm'}"
        )
    p.problems += check_table4(mae) + check_written(trials_csv, summary_json, records, stats)
    p.digest = sha256(*p.outputs.values())
    return p


def check_table4(mae: dict) -> list[str]:
    """Criterion-1 bands and criterion-2 monotonicity, on the specs whose
    trials all completed (the others are counted as failed)."""
    problems = []
    for label, band in (("constant_velocity", CV_MAE_BAND_M), ("pullback_400hz", P400_MAE_BAND_M)):
        if mae[label] is not None and not in_band(mae[label], band):
            problems.append(f"{label} MAE {mae[label]:.4f} m outside {band}")
    done = [(label, mae[label]) for label in PULLBACK_BY_FREQ if mae[label] is not None]
    for (slow, a), (fast, b) in zip(done, done[1:]):
        if a < b:
            problems.append(f"MAE {slow} {a:.4f} m < {fast} {b:.4f} m")
    return problems


def check_written(trials_csv: Path, summary_json: Path, records, stats) -> list[str]:
    """The written files hold what run_batch returned. Columns are found by
    header name, so added columns do not matter."""
    with open(trials_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(records):
        return [f"trial CSV has {len(rows)} rows for {len(records)} records"]
    for row, record in zip(rows, records):
        written = float(row["max_err_m"])
        same = (math.isnan(written) and math.isnan(record.max_err)) or abs(
            written - record.max_err
        ) <= 1e-9
        if row["controller"] != record.controller or not same:
            return [f"trial CSV row {row} does not match {record}"]
    text = summary_json.read_text()
    json.loads(text)
    missing = [s.controller for s in stats if f'"{s.controller}"' not in text]
    return [f"summary JSON lacks {missing}"] if missing else []


def traced_table4_pass(state: State, index: int, spans: tracing.Spans) -> Pass:
    p = table4_pass(state, index)
    conditions, seed = state.conditions, trial_seed(state, index)
    labels, ticks, qp_failures = {}, Counter(), Counter()
    steps = on_bound = qp_ticks = 0
    traced_s = 0.0
    for label, spec in SPECS.items():
        config = replace(SimConfig(), control_freq=spec.control_freq)
        controller = spec.make_controller()
        timed = None
        if spec.kind == "pullback":
            controller = timed = tracing.TimedController(controller, spans, spec.a_bounds)
        errs = np.full(len(conditions), np.nan)
        start = time.perf_counter()
        for i, condition in enumerate(conditions):
            trial = len(labels)
            labels[trial] = label
            with suppress(Exception):  # counted below from the controller and the traces
                trace, errs[i] = traced_trial(spans, controller, timed, condition, seed, config, trial)
                steps += len(trace.times) - 1
                ticks[label] += len(trace.tick_times)
        traced_s += time.perf_counter() - start
        if not np.array_equal(errs, p.outputs[label], equal_nan=True):
            p.problems.append(f"{label}: traced trials disagree with run_batch")
        if timed is not None:
            on_bound += timed.on_bound
            qp_ticks += timed.ticks
            qp_failures += timed.failures

    untraced_s = sum(p.layers[f"experiments.run_batch_s.{label}"] for label in SPECS)
    p.layers.update(trial_layers(spans, labels))
    p.layers.update(qp_failure_layers(qp_failures))
    p.layers["release_sim.steps"] = steps
    for label in SPECS:
        p.layers[f"release_sim.ticks.{label}"] = ticks[label]
    p.layers["tube_qp.bound_active_frac"] = on_bound / qp_ticks if qp_ticks else 0.0
    p.layers["trace.overhead_s"] = traced_s - untraced_s
    return p


def traced_trial(spans, controller, timed, condition, seed, config, trial, detach=True):
    """trial_rng -> simulate_release -> max_error_in_detach_window, as
    run_batch runs one trial, with a span around each call."""
    root = spans.open("trial", -1, trial)
    try:
        span = spans.open("experiments.trial_rng", root, trial)
        rng = trial_rng(seed, condition.index)
        spans.close(span)
        span = spans.open("release_sim.simulate_release", root, trial)
        if timed is not None:
            timed.parent, timed.trial = span, trial
        try:
            trace = simulate_release(controller, condition.state, condition.target, config, rng=rng)
        finally:
            spans.close(span)
        if not detach:
            return trace, math.nan
        span = spans.open("release_sim.max_error_in_detach_window", root, trial)
        err = max_error_in_detach_window(trace, config)
        spans.close(span)
        return trace, err
    finally:
        spans.close(root)


def trial_layers(spans: tracing.Spans, labels: dict) -> dict:
    sim, child, rng, commands = tracing.trial_times(spans)
    layers = {
        "experiments.trial_rng_us": float(np.mean(rng)) / 1e3 if rng else 0.0,
        "experiments.trial_rng_calls": len(rng),
        "tube_qp.command_us": float(np.mean(commands)) / 1e3 if commands else 0.0,
    }
    for label in SPECS:
        trials = [t for t, trial_label in labels.items() if trial_label == label]
        if trials:
            own = np.array([sim.get(t, 0) for t in trials], dtype=float)
            kids = np.array([child.get(t, 0) for t in trials], dtype=float)
            layers[f"release_sim.trial_us.{label}"] = own.mean() / 1e3
            layers[f"release_sim.self_us.{label}"] = (own - kids).mean() / 1e3
    return layers


def qp_failure_layers(failures: Counter) -> dict:
    layers = {f"tube_qp.fail_count.{name}": 0 for name in QP_FAILURES}
    for name, count in failures.items():
        key = f"tube_qp.fail_count.{name if name in QP_FAILURES else 'other'}"
        layers[key] += count
    return layers


# ---------------------------------------------------------------- trace_cv


def setup_trace_cv(seed: int) -> State:
    state = mesh(seed)
    with suppress(Exception):  # warm-up only: the measured passes count failures
        error_trace_summary(state.conditions[:WARMUP_CONDITIONS], CV_SPEC, [seed], SimConfig())
    return state


def trace_cv_pass(state: State, index: int) -> Pass:
    conditions = state.conditions
    n = len(conditions)
    p = Pass(TRIAL_DEADLINE_S, attempted=n)
    start = time.perf_counter()
    try:
        summary = error_trace_summary(conditions, CV_SPEC, [trial_seed(state, index)], SimConfig())
        failure = None
    except Exception as exc:  # one call runs every trial, so all of them fail
        summary, failure = None, type(exc).__name__
    elapsed = time.perf_counter() - start
    if summary is not None:
        bands = (summary.mae, summary.std, summary.env_min, summary.env_max)
        if not all(np.isfinite(b).all() for b in bands):
            failure = "NonFinite"
    failed = np.full(n, failure is not None)
    p.stretches.append((elapsed, state.clock.speed(), np.full(n, elapsed / n), failed))
    p.layers["experiments.trace_summary_s"] = elapsed
    if failure:
        p.failures[failure] = n
        return p
    p.outputs = bands
    entry, end = float(summary.mae[0]), float(summary.mae[-1])
    p.notes.append(f"window-entry MAE {entry:.4f} m, end MAE {end:.4f} m")
    if summary.n_trials != n:
        p.problems.append(f"{summary.n_trials} trials aggregated, expected {n}")
    if not in_band(entry, ENTRY_MAE_BAND_M):
        p.problems.append(f"window-entry MAE {entry:.4f} m outside {ENTRY_MAE_BAND_M}")
    if not in_band(end, CV_END_MAE_BAND_M):
        p.problems.append(f"end MAE {end:.4f} m outside {CV_END_MAE_BAND_M}")
    p.digest = sha256(*bands)
    return p


def traced_trace_cv_pass(state: State, index: int, spans: tracing.Spans) -> Pass:
    p = trace_cv_pass(state, index)
    conditions, seed = state.conditions, trial_seed(state, index)
    config = replace(SimConfig(), control_freq=CV_SPEC.control_freq)
    controller = CV_SPEC.make_controller()
    n_samples = config.n_steps + 1
    total, total_sq = np.zeros(n_samples), np.zeros(n_samples)
    env_min, env_max = np.full(n_samples, np.inf), np.full(n_samples, -np.inf)
    steps = ticks = 0
    failed = False
    start = time.perf_counter()
    for i, condition in enumerate(conditions):
        try:
            trace, _ = traced_trial(spans, controller, None, condition, seed, config, i, detach=False)
        except Exception:  # error_trace_summary failed on it as well, and is counted there
            failed = True
            continue
        errs = trace.landing_errors
        total += errs
        total_sq += errs * errs
        np.minimum(env_min, errs, out=env_min)
        np.maximum(env_max, errs, out=env_max)
        steps += len(trace.times) - 1
        ticks += len(trace.tick_times)
    traced_s = time.perf_counter() - start
    mae = total / len(conditions)
    std = np.sqrt(np.maximum(total_sq / len(conditions) - mae * mae, 0.0))
    if p.outputs is not None and (
        failed
        or not all(map(np.array_equal, (mae, std, env_min, env_max), p.outputs))
    ):
        p.problems.append("traced trials disagree with error_trace_summary")
    p.layers.update(trial_layers(spans, dict.fromkeys(range(len(conditions)), CV_SPEC.label)))
    p.layers["release_sim.steps"] = steps
    p.layers[f"release_sim.ticks.{CV_SPEC.label}"] = ticks
    p.layers["trace.overhead_s"] = traced_s - p.layers["experiments.trace_summary_s"]
    return p


# ---------------------------------------------------------------- realtime_solve


def setup_realtime(seed: int) -> State:
    """Instances as ``tubethrow bench`` draws them: a mesh state, +-5%
    velocity jitter, time-to-go uniform in [2.5 ms, 100 ms]."""
    state = mesh(seed)
    rng = np.random.default_rng(seed)
    picks = rng.integers(len(state.conditions), size=N_INSTANCES)
    jitter = rng.uniform(0.95, 1.05, size=(N_INSTANCES, 2)).tolist()
    horizons = rng.uniform(0.0025, 0.1, size=N_INSTANCES).tolist()
    for pick, (j_r, j_z), T in zip(picks.tolist(), jitter, horizons):
        c = state.conditions[pick]
        ee = EEMeasurement(p=(c.state.r, c.state.z), v=(c.state.r_dot * j_r, c.state.z_dot * j_z))
        state.instances.append((ee, T, c.target))
    for ee, T, target in state.instances[:WARMUP_SOLVES]:
        with suppress(Exception):  # warm-up only: the measured passes count failures
            solve(assemble(ee, T, target))
    return state


def realtime_pass(state: State, index: int) -> Pass:
    instances = state.instances
    n = len(instances)
    latencies = np.empty(n)
    failed = np.zeros(n, dtype=bool)
    commands = np.full((n, 2), np.nan)
    failures = Counter()
    check = state.reference is None
    worst_kkt, outside = 0.0, 0
    for i, (ee, T, target) in enumerate(instances):
        start = time.perf_counter()
        try:
            problem = assemble(ee, T, target)
            solution = solve(problem)
        except Exception as exc:  # counted and charged, never fatal
            latencies[i] = time.perf_counter() - start
            failed[i] = True
            failures[type(exc).__name__] += 1
            continue
        latencies[i] = time.perf_counter() - start
        commands[i] = solution.a_tube
        if check and solution.status is SolveStatus.OPTIMAL:
            kkt, inside = check_solution(problem, solution, T, target)
            worst_kkt = max(worst_kkt, kkt)
            outside += not inside
    p = Pass(SOLVE_DEADLINE_S, attempted=n, failures=failures)
    p.stretches.append((float(latencies.sum()), state.clock.speed(), latencies, failed))
    if check:
        state.reference = commands
        p.digest = sha256(commands)
        p.notes.append(f"{n - sum(failures.values())} of {n} instances solved")
        if worst_kkt > KKT_TOL:
            p.problems.append(f"worst KKT residual {worst_kkt:.2e} > {KKT_TOL:.0e}")
        if outside:
            p.problems.append(f"{outside} commands outside their box")
    elif not np.array_equal(commands, state.reference, equal_nan=True):
        p.problems.append("commands differ from pass 0 on the same instances")
    return p


def check_solution(problem, solution, T, target) -> tuple[float, bool]:
    """KKT residual of an OPTIMAL solve of the box QP, and whether the command
    lies inside its box."""
    w1, w2 = T * problem.grad[0], T * problem.grad[1]
    res = problem.r_land0 - target.r_target
    reg = problem.regularization
    (lo1, hi1), (lo2, hi2) = problem.box
    a1, a2 = solution.a_tube
    h = (w1 * w1 + reg, w1 * w2, w2 * w2 + reg, res * w1, res * w2)
    kkt = kkt_residual(*h, lo1, hi1, lo2, hi2, a1, a2)
    inside = lo1 - BOX_TOL <= a1 <= hi1 + BOX_TOL and lo2 - BOX_TOL <= a2 <= hi2 + BOX_TOL
    return kkt, inside


def traced_realtime_pass(state: State, index: int, spans: tracing.Spans) -> Pass:
    p = realtime_pass(state, index)
    untraced_s = p.stretches[0][0]
    failures = Counter()
    solved = on_bound = 0
    start = time.perf_counter()
    for i, (ee, T, target) in enumerate(state.instances):
        root = spans.open("realtime_solve.op", -1, i)
        stage = spans.open("tube_qp.assemble", root, i)
        try:
            problem = assemble(ee, T, target)
            spans.close(stage)
            stage = spans.open("tube_qp.solve", root, i)
            solution = solve(problem)
        except Exception as exc:  # classified below
            failures[type(exc).__name__] += 1
        else:
            solved += 1
            on_bound += tracing.on_bound_face(solution.a_tube, DEFAULT_A_BOUNDS)
        finally:
            spans.close(stage)
            spans.close(root)
    traced_s = time.perf_counter() - start

    durations = {"tube_qp.assemble": [], "tube_qp.solve": []}
    for name, begin, end, _, _ in spans.rows:
        if name in durations:
            durations[name].append(end - begin)
    p.layers["tube_qp.assemble_us"] = float(np.mean(durations["tube_qp.assemble"])) / 1e3
    p.layers["tube_qp.solve_us"] = (
        float(np.mean(durations["tube_qp.solve"])) / 1e3 if durations["tube_qp.solve"] else 0.0
    )
    p.layers["tube_qp.bound_active_frac"] = on_bound / solved if solved else 0.0
    p.layers.update(qp_failure_layers(failures))
    p.layers["trace.overhead_s"] = traced_s - untraced_s
    p.layers.update(flowmap_layers(state.instances))
    return p


def flowmap_layers(instances) -> dict:
    """landing_position + flowmap_gradient on the constant-velocity
    extrapolations that assemble linearizes around."""
    probes = []
    for ee, T, target in instances:
        (r, z), (r_dot, z_dot) = ee.p, ee.v
        probes.append((FlightState(r + T * r_dot, z + T * z_dot, r_dot, z_dot), target.z_land))
    total_ns = domain_errors = 0
    for flight, z_land in probes:
        start = time.perf_counter_ns()
        try:
            landing_position(flight, z_land)
            flowmap_gradient(flight, z_land)
        except DomainError:
            domain_errors += 1
        total_ns += time.perf_counter_ns() - start
    return {
        "ballistics.flowmap_ns": total_ns / len(probes),
        "ballistics.domain_error_count": domain_errors,
    }


# ---------------------------------------------------------------- run loop

WORKLOADS = {
    "table4": (setup_table4, table4_pass, traced_table4_pass),
    "trace_cv": (setup_trace_cv, trace_cv_pass, traced_trace_cv_pass),
    "realtime_solve": (setup_realtime, realtime_pass, traced_realtime_pass),
}


def measure(seconds: float, run_pass) -> list[Pass]:
    """Closed loop: pass after pass until ``seconds`` have gone by."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        p = run_pass(len(passes))
        p.close()
        passes.append(p)
    return passes


def end_to_end(passes: list[Pass], scaled: bool = True) -> dict:
    """Medians over passes of each pass's own figures: measured times scaled
    to the reference speed, plus the deadline of each failed operation."""
    ops, p50, p90 = zip(*(p.figures[scaled] for p in passes))
    return {
        "ops_per_s": median(ops),
        "op_p50_us": median(p50),
        "op_p90_us": median(p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(passes: list[Pass], state: State, attempted: int, failed: int) -> dict:
    values = dict.fromkeys(PER_LAYER, 0.0)
    for key in {k for p in passes for k in p.layers}:
        values[key] = median(p.layers.get(key, 0.0) for p in passes)
    values["experiments.build_mesh_ms"] = state.build_mesh_ms
    values["fail_frac"] = failed / attempted
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    setup, run_pass, run_traced_pass = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    state = setup(args.seed)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    state.clock = HostClock()

    first_spans = None
    if args.trace:
        def traced(index):
            nonlocal first_spans
            spans = tracing.Spans()
            p = run_traced_pass(state, index, spans)
            first_spans = first_spans or spans  # keep one pass's spans, not all
            return p

        passes = measure(args.seconds, traced)
        first_spans.write_csv(OUT_DIR / f"spans_{args.workload}.csv")
    else:
        passes = measure(args.seconds, lambda index: run_pass(state, index))

    failures = sum((p.failures for p in passes), Counter())
    attempted = sum(p.attempted for p in passes)
    failed = sum(failures.values())
    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p.problems]
    print(
        f"{args.workload} seed {args.seed}: {len(passes)} passes, {attempted} operations, "
        f"{failed} failed {dict(failures) if failed else ''}"
    )
    for note in passes[0].notes:
        print(f"pass 0: {note}")
    print(f"pass 0 sha256: {passes[0].digest or 'none (every operation failed)'}")
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    print(f"checks: {'all passed' if not problems else f'{len(problems)} failed'}")

    if args.trace:
        units = PER_LAYER
        values = per_layer(passes, state, attempted, failed)
    else:
        units = END_TO_END
        values = end_to_end(passes)
        raw = end_to_end(passes, scaled=False)
        print(
            f"host speed (reference {CAL_REF_S} s / calibration): median "
            f"{median(speed for p in passes for speed in p.speeds):.3f}; unscaled: "
            + ", ".join(f"{k} {v:.6g}" for k, v in raw.items() if k != "peak_rss_mb")
        )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
