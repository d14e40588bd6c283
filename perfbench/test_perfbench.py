"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import itertools
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bnsl  # noqa: E402
import bench  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cpdag import cpdag, shd  # noqa: E402


def _random_dag(rng, p):
    nodes = [f"N{i}" for i in range(p)]
    order = list(rng.permutation(nodes))
    arcs = {(order[i], order[j]) for i in range(p) for j in range(i + 1, p)
            if rng.random() < 0.5}
    return nodes, arcs


def _vstructures(arcs):
    adjacent = {frozenset(a) for a in arcs}
    out = set()
    for (a, c), (b, c2) in itertools.permutations(arcs, 2):
        if c == c2 and a < b and frozenset((a, b)) not in adjacent:
            out.add((a, c, b))
    return out


def _brute_force_cpdag(nodes, arcs):
    """Orient every skeleton edge both ways; keep the DAGs with the same v-structures."""
    edges = sorted(tuple(sorted(a)) for a in arcs)
    target = _vstructures(arcs)
    members = []
    for flips in itertools.product((False, True), repeat=len(edges)):
        cand = {(b, a) if f else (a, b) for (a, b), f in zip(edges, flips)}
        if workloads._acyclic(nodes, cand) and _vstructures(cand) == target:
            members.append(cand)
    directed = set.intersection(*members)
    undirected = {e for e in edges if e not in {tuple(sorted(a)) for a in directed}}
    return directed, undirected


def test_cpdag_matches_brute_force_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(150):
        nodes, arcs = _random_dag(rng, int(rng.integers(3, 7)))
        directed, undirected = cpdag(nodes, arcs)
        want_directed, want_undirected = _brute_force_cpdag(nodes, arcs)
        assert set(directed) == want_directed
        assert set(undirected) == want_undirected


def test_shd_counts_each_differing_pair_once():
    truth = ({("A", "C"), ("B", "C")}, {("C", "D")})
    assert shd(*truth, *truth) == 0
    # reversed arc, undirected where compelled, extra edge, missing edge
    learned = ({("C", "A")}, {("B", "C"), ("A", "D")})
    assert shd(*learned, *truth) == 4


def test_improving_move_finds_moves_off_the_optimum():
    d = bnsl.forward_sample(bnsl.networks.sixnode(), 2000, seed=1)
    spec = bnsl.ScoreSpec(kind="bic")
    assert workloads.improving_move(bnsl.empty_graph(d.names), d, spec) is not None
    g, _ = bnsl.hill_climb(d, bnsl.HillClimbConfig(score=spec))
    assert workloads.improving_move(g, d, spec) is None


def test_a_different_seed_gives_different_inputs(tmp_path):
    for w in workloads.WORKLOADS:
        one = workloads.make_inputs(w, 1, tmp_path)
        assert one.digests == workloads.make_inputs(w, 1, tmp_path).digests
        assert set(one.digests).isdisjoint(workloads.make_inputs(w, 2, tmp_path).digests)


def test_same_seed_repeats_fingerprint_and_counts(tmp_path):
    first, again = (bench.run("alarm-ci", 5, 0, False, tmp_path / str(i)) for i in range(2))
    assert first.correct and again.correct
    assert first.fingerprint == again.fingerprint
    counts = ("ntests", "shd")
    assert [first.reported[k] for k in counts] == [again.reported[k] for k in counts]
    assert first.metrics["criterion_calls"] == again.metrics["criterion_calls"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_matches_untraced_and_removes_its_wrappers(workload, tmp_path):
    untraced = bench.run(workload, 3, 0, False, tmp_path / "plain")
    traced = bench.run(workload, 3, 0, True, tmp_path / "traced", tmp_path / "spans.npz")
    assert untraced.correct and traced.correct, traced.failures
    assert traced.fingerprint == untraced.fingerprint
    assert tracing.installed_wrappers() == []
    assert set(traced.metrics) == {name for name, _, _ in bench.PER_LAYER}
    spans = np.load(tmp_path / "spans.npz")
    assert len(spans["name"]) > 0


def test_speedometer_samples_only_while_running_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    meter = speed.Speedometer()
    assert meter.scale() == 1.0
    with meter.running():
        time.sleep(0.3)  # the timer interrupts the sleep; Python resumes it
        pass_ = workloads.Pass(speed=meter)
        spent, start = meter.spent, time.perf_counter()
        pass_._timed(workloads.Op("load_table", 0), lambda: time.sleep(0.3))
        outside, inside = time.perf_counter() - start, meter.spent - spent
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(meter.samples) >= 4 and meter.spent == pytest.approx(sum(meter.samples))
    assert meter.scale() == pytest.approx(speed.REFERENCE_S * len(meter.samples) / meter.spent)
    # the operation's time leaves out the loop's
    assert inside > 0
    assert pass_.ops[0].seconds == pytest.approx(outside - inside, abs=1e-3)
    n = len(meter.samples)
    time.sleep(0.1)
    assert len(meter.samples) == n


def test_remove_restores_every_call_site_after_an_error():
    originals = [getattr(m, a) for m, a, _ in tracing.CALL_SITES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert len(tracing.installed_wrappers()) == len(tracing.CALL_SITES) + 1
        with pytest.raises(bnsl.DataError):
            bnsl.load_table("/nonexistent/file.csv")
    finally:
        tracer.remove()
    assert tracing.installed_wrappers() == []
    assert all(getattr(m, a) is o for (m, a, _), o in zip(tracing.CALL_SITES, originals))
    assert tracer.layer_totals()["data.load_table"]["calls"] == 1


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        [tuple(m) for m in bench.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in bench.PER_LAYER]
