"""Measurement loop, metrics and the result of one benchmark run.

A run is a closed loop with one caller: it repeats the workload's pass
(every call once, back to back, in this one process) until the measuring
time is used up, and reports medians over the passes. Output checks run
outside the timed section. The end-to-end times are scaled to the
reference machine speed that ``speed.Speedometer`` measures during each
pass and during the set-up; the raw times are printed beside them.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from speed import Speedometer
from tracing import SPAN_NAMES, Tracer, installed_wrappers

# set-up runs at least SETUP_REPEATS times and for at least SETUP_SECONDS;
# setup_s is the median, so that a set-up of a few milliseconds still gets
# enough samples to outlast the machine's short slow phases
SETUP_REPEATS = 9
SETUP_SECONDS = 1.5

# (name, unit, better): the metrics compared between commits, see BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("criterion_calls", "count", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# printed for the workloads they apply to; see README.md
REPORTED = (
    ("setup_raw_s", "s", "lower"),
    ("wall_raw_s", "s", "lower"),
    ("gs_s", "s", "lower"),
    ("mmpc_s", "s", "lower"),
    ("hc_s", "s", "lower"),
    ("mc_test_p50_s", "s", "lower"),
    ("mc_test_p75_s", "s", "lower"),
    ("ntests", "count", "lower"),
    ("nscores", "count", "lower"),
    ("shd", "count", "lower"),
    ("error_rate", "ratio", "lower"),
)

PER_LAYER = tuple(
    (f"{span}.{part}", unit, "lower")
    for span in SPAN_NAMES
    for part, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s"))
) + (
    ("scores.cache_hit_ratio", "ratio", "higher"),
    ("hillclimb.useful_ratio", "ratio", "higher"),
    ("independence.distinct_ratio", "ratio", "higher"),
    ("trace.events", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclass
class Measurement:
    """The passes of one measuring loop; the first keeps every output for the checks."""

    first: workloads.Pass
    walls: list[float] = field(default_factory=list)  # at the reference speed
    raw_walls: list[float] = field(default_factory=list)
    by_label: list[dict[str, float]] = field(default_factory=list)
    mc_latencies: list[list[float]] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)
    cache: tuple[int, int] = (0, 0)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    changed: list[set[int]] = field(default_factory=list)  # per later pass: outputs that differ

    def fingerprint(self, inputs: workloads.Inputs) -> dict:
        """Input-data hashes plus every output: learned arc sets, MC p-values."""
        return {"inputs": inputs.digests,
                "outputs": [f"{op.label} {op.digest()}" for op in self.first.ops]}


def _record(m: Measurement | None, p: workloads.Pass, scale: float = 1.0) -> Measurement:
    """Add one pass to ``m`` (a new Measurement for the first pass) and compare its outputs.

    ``scale`` converts the pass's times to the reference speed.
    """
    digests = [op.digest() for op in p.ops]
    if m is None:
        m = Measurement(p)
    else:
        expected = [op.digest() for op in m.first.ops]
        diff = {i for i in range(max(len(digests), len(expected)))
                if digests[i:i + 1] != expected[i:i + 1]}
        m.changed.append(diff)
        if diff:
            m.failures.append(f"pass {len(m.walls) + 1}: {len(diff)} outputs "
                              "differ from the first pass")
    m.attempted += len(p.ops)
    m.raw_walls.append(sum(op.seconds for op in p.ops))
    m.walls.append(scale * m.raw_walls[-1])
    labels = {}
    for op in p.ops:
        key = "hc" if op.kind == "score" else op.label
        labels[key] = labels.get(key, 0.0) + scale * op.seconds
    m.by_label.append(labels)
    m.mc_latencies.append([scale * op.seconds for op in p.ops if op.kind == "mc"])
    return m


def measure(workload: str, inputs: workloads.Inputs, seconds: float,
            tracer: Tracer | None = None) -> tuple[Measurement, Measurement | None]:
    """Repeat the pass for about ``seconds`` (at least once).

    A pass starts only if it is expected, at the mean pace so far, to end
    within ``seconds``, so a run does not overrun by a whole pass. Without a
    tracer, a speedometer runs and each pass's times are scaled to the
    reference speed. With a tracer, nothing is scaled and every untraced
    pass is followed by a traced one, with the wrappers installed for that
    pass only, so that each pair of passes sees the machine at nearly the
    same speed. Returns (untraced, traced).
    """
    start = time.perf_counter()
    plain = traced = None
    rounds = 0
    speed = Speedometer()
    with speed.running(tracer is None):
        while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
            rounds += 1
            since = len(speed.samples)
            p = workloads.run_pass(workload, inputs, speed=speed)
            plain = _record(plain, p, speed.scale(since))
            if tracer is not None:
                traced = _traced_pass(traced, workload, inputs, tracer)
    return plain, traced


def _traced_pass(traced: Measurement | None, workload: str, inputs: workloads.Inputs,
                 tracer: Tracer) -> Measurement:
    """One pass with the tracer's wrappers installed, added to ``traced``."""
    tracer.install()
    try:
        p = workloads.run_pass(workload, inputs, tracer)
    finally:
        tracer.remove()
    traced = _record(traced, p)
    traced.layers.append(tracer.layer_totals())
    traced.cache = tracer.cache_counts()
    return traced


def check(m: Measurement, inputs: workloads.Inputs) -> None:
    """Check the first pass's outputs and count the failed operations of every pass."""
    wrong = set()
    for i, op in enumerate(m.first.ops):
        problem = workloads.check_op(op, inputs)
        if problem is not None:
            wrong.add(i)
            m.failures.append(problem)
    # a later pass that repeats a wrong output is wrong too
    m.failed = len(wrong) + sum(len(c | wrong) for c in m.changed)


def _median_of(values) -> float:
    return float(statistics.median(values))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(m: Measurement, setup_times: list[float], setup_scale: float) -> dict[str, float]:
    ops = m.first.ops
    calls = sum(op.ntests for op in ops) + sum(1 for op in ops if op.kind == "mc")
    return {
        "setup_s": setup_scale * _median_of(setup_times),
        "wall_s": _median_of(m.walls),
        "criterion_calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def reported(m: Measurement, failed: int, attempted: int) -> dict[str, float]:
    """The per-learner and per-test figures, for the workloads they apply to."""
    ops = m.first.ops
    out = {}
    for label in ("gs", "mmpc", "hc"):
        if any(label in labels for labels in m.by_label):
            out[f"{label}_s"] = _median_of(labels.get(label, 0.0) for labels in m.by_label)
    if m.mc_latencies[0]:
        # with 40 tests, the 75th percentile is the highest with 10 samples beyond it
        out["mc_test_p50_s"] = _median_of(np.percentile(lat, 50) for lat in m.mc_latencies)
        out["mc_test_p75_s"] = _median_of(np.percentile(lat, 75) for lat in m.mc_latencies)
    constraint = [op for op in ops if op.kind == "constraint"]
    score = [op for op in ops if op.kind == "score"]
    if constraint:
        out["ntests"] = sum(op.ntests for op in constraint)
    if score:
        out["nscores"] = sum(op.ntests for op in score)
    if constraint or score:
        out["shd"] = sum(op.shd for op in constraint + score)
    out["error_rate"] = failed / attempted
    return out


def per_layer(traced: Measurement, untraced: Measurement) -> dict[str, float]:
    out = {}
    for span in SPAN_NAMES:
        rows = [layers[span] for layers in traced.layers]
        out[f"{span}.calls"] = rows[0]["calls"]
        out[f"{span}.self_s"] = _median_of(r["self_s"] for r in rows)
        out[f"{span}.total_s"] = _median_of(r["total_s"] for r in rows)
    ops = traced.first.ops
    constraint = [op for op in ops if op.kind == "constraint"]
    score = [op for op in ops if op.kind == "score"]
    hits, lookups = traced.cache
    out["scores.cache_hit_ratio"] = _ratio(hits, lookups)
    out["hillclimb.useful_ratio"] = _ratio(sum(op.moves for op in score),
                                           sum(op.test_events for op in score))
    out["independence.distinct_ratio"] = _ratio(sum(op.distinct_tests for op in constraint),
                                                sum(op.test_events for op in constraint))
    out["trace.events"] = _ratio(sum(op.events for op in constraint + score),
                                 len(constraint + score))
    out["trace.wall_s"] = _median_of(traced.walls)
    out["trace.overhead_s"] = _median_of(t - u for t, u in zip(traced.walls, untraced.walls))
    return out


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class Result:
    workload: str
    seed: int
    passes: int
    attempted: int
    failed: int
    failures: list[str]
    metrics: dict[str, float]
    reported: dict[str, float]
    fingerprint: dict

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.failures

    def line(self) -> str:
        units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted, "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in self.metrics.items()}})

    def table(self) -> str:
        rows = [f"workload {self.workload}  seed {self.seed}  passes {self.passes}  "
                f"fingerprint {_digest(self.fingerprint)}"]
        kinds = {name: (unit, better) for name, unit, better in END_TO_END + REPORTED + PER_LAYER}
        for name, value in list(self.metrics.items()) + list(self.reported.items()):
            unit, better = kinds[name]
            rows.append(f"  {name:<44} {value:>14.6g} {unit:<6} {better} is better")
        rows += [f"  FAILED: {f}" for f in self.failures[:20]]
        return "\n".join(rows)


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        spans_path: Path | None = None) -> Result:
    """One benchmark run: set-up, measuring loop(s) and checks."""
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, digests = [], []
        repeats, min_seconds = (1, 0.0) if trace else (SETUP_REPEATS, SETUP_SECONDS)
        speed = Speedometer()
        with speed.running(not trace):
            while len(setup_times) < repeats or sum(setup_times) < min_seconds:
                spent = speed.spent
                t0 = time.perf_counter()
                inputs = workloads.make_inputs(workload, seed, workdir)
                setup_times.append(time.perf_counter() - t0 - (speed.spent - spent))
                digests.append(inputs.digests)
            setup_scale = speed.scale()
        failures = [] if all(d == digests[0] for d in digests) else [
            "set-up gave different inputs for the same seed"]
        raw = {}
        if not trace:
            m, _ = measure(workload, inputs, seconds)
            checked = [m]
            metrics = end_to_end(m, setup_times, setup_scale)
            raw = {"setup_raw_s": _median_of(setup_times), "wall_raw_s": _median_of(m.raw_walls)}
        else:
            tracer = Tracer()
            untraced, m = measure(workload, inputs, seconds, tracer)
            checked = [untraced, m]
            if installed_wrappers():
                failures.append(f"wrappers left installed: {installed_wrappers()}")
            if m.fingerprint(inputs) != untraced.fingerprint(inputs):
                failures.append("the traced run's outputs differ from the untraced run's")
            metrics = per_layer(m, untraced)
            if spans_path is not None:
                tracer.save(spans_path)
        for c in checked:
            check(c, inputs)
            failures += c.failures
        attempted = sum(c.attempted for c in checked)
        failed = sum(c.failed for c in checked)
        return Result(workload, seed, len(m.walls), attempted, failed, failures, metrics,
                      {**raw, **reported(m, failed, attempted)}, m.fingerprint(inputs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
