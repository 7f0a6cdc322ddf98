"""Spans for the traced benchmark run, recorded from outside the package.

A span is ``(name, start_ns, end_ns, parent, trial)``: ``parent`` is the index
of the span that caused it (-1 for a root) and ``trial`` the id shared by the
spans of one trial or solve. Spans stay in memory and are written once, when
the run ends.
"""

from __future__ import annotations

import csv
from collections import Counter
from time import perf_counter_ns

# a command within this distance of an acceleration bound sits on its face
ON_BOUND_TOL = 1e-9


class Spans:
    def __init__(self):
        self.rows: list[list] = []

    def open(self, name: str, parent: int = -1, trial: int = -1) -> int:
        self.rows.append([name, perf_counter_ns(), 0, parent, trial])
        return len(self.rows) - 1

    def close(self, span: int) -> None:
        self.rows[span][2] = perf_counter_ns()

    def add(self, name: str, start: int, end: int, parent: int, trial: int) -> None:
        self.rows.append([name, start, end, parent, trial])

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start_ns", "end_ns", "parent", "trial"])
            writer.writerows(self.rows)


class TimedController:
    """Wraps a release controller and records one ``tube_qp.command`` span per
    control tick, as a child of the span set in ``parent``.

    It also counts ticks whose command sits on a face of ``a_bounds`` and the
    exceptions the wrapped controller raises, which it re-raises unchanged.
    """

    def __init__(self, inner, spans: Spans, a_bounds):
        self.inner = inner
        self.spans = spans
        self.a_bounds = a_bounds
        self.parent = -1
        self.trial = -1
        self.ticks = 0
        self.on_bound = 0
        self.failures: Counter = Counter()

    def command(self, r, z, r_dot, z_dot, target, time_to_go):
        start = perf_counter_ns()
        try:
            a = self.inner.command(r, z, r_dot, z_dot, target, time_to_go)
        except Exception as exc:
            self.failures[type(exc).__name__] += 1
            raise
        finally:
            self.spans.add("tube_qp.command", start, perf_counter_ns(), self.parent, self.trial)
        self.ticks += 1
        if on_bound_face(a, self.a_bounds):
            self.on_bound += 1
        return a


def on_bound_face(a, a_bounds) -> bool:
    return any(
        abs(a_i - bound) <= ON_BOUND_TOL
        for a_i, interval in zip(a, a_bounds)
        for bound in interval
    )


def trial_times(spans: Spans) -> tuple[dict, dict, list[int], list[int]]:
    """Per trial, the time in release_sim and in its controller children; and
    the durations of every ``experiments.trial_rng`` and ``tube_qp.command``
    span. All in ns."""
    sim: dict[int, int] = {}
    child: dict[int, int] = {}
    rng, commands = [], []
    for name, start, end, _, trial in spans.rows:
        if name == "tube_qp.command":
            child[trial] = child.get(trial, 0) + end - start
            commands.append(end - start)
        elif name.startswith("release_sim."):
            sim[trial] = sim.get(trial, 0) + end - start
        elif name == "experiments.trial_rng":
            rng.append(end - start)
    return sim, child, rng, commands
