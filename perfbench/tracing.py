"""Spans around calls into bnsl's modules, recorded from outside the library.

bnsl modules import each other's functions by name, so a wrapper has to be
installed on the module that makes the call, not only on the module that
defines the function. ``CALL_SITES`` lists every (module, attribute) the
traced run replaces and the span name it records; ``Tracer.remove`` puts
the original objects back.

Spans live in flat arrays in memory (name, start, end, parent span,
operation id) and are written out once, when the traced run ends.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

import bnsl
import bnsl.constraint
import bnsl.data
import bnsl.hillclimb
import bnsl.independence
import bnsl.scores

# (module whose attribute is replaced, attribute, span name). The span name
# is "<defining module>.<function>", which is the layer it is charged to.
CALL_SITES = (
    (bnsl, "load_table", "data.load_table"),
    (bnsl, "constraint_learn", "constraint.constraint_learn"),
    (bnsl, "hill_climb", "hillclimb.hill_climb"),
    (bnsl, "ci_test", "independence.ci_test"),
    (bnsl.data, "joint_config_codes", "data.joint_config_codes"),
    (bnsl.data, "correlation_matrix", "data.correlation_matrix"),
    (bnsl.independence, "contingency_counts", "data.contingency_counts"),
    (bnsl.independence, "joint_config_codes", "data.joint_config_codes"),
    (bnsl.independence, "partial_correlation", "data.partial_correlation"),
    (bnsl.independence, "permutation_pvalue", "independence.permutation_pvalue"),
    (bnsl.independence, "chi2_sf", "special.chi2_sf"),
    (bnsl.independence, "student_t_two_sided", "special.student_t_two_sided"),
    (bnsl.independence, "normal_two_sided", "special.normal_two_sided"),
    (bnsl.scores, "lgamma_array", "special.lgamma_array"),
    (bnsl.scores, "local_score", "scores.local_score"),
    (bnsl.hillclimb, "score_delta", "scores.score_delta"),
    (bnsl.hillclimb, "network_score", "scores.network_score"),
    (bnsl.hillclimb, "enumerate_moves", "hillclimb.enumerate_moves"),
    (bnsl.hillclimb, "apply_move", "hillclimb.apply_move"),
    (bnsl.hillclimb, "_has_directed_path", "graph._has_directed_path"),
    (bnsl.hillclimb, "Graph", "graph.Graph"),
    (bnsl.constraint, "Graph", "graph.Graph"),
    (bnsl.constraint, "propagate_directions", "graph.propagate_directions"),
    (bnsl.constraint, "ci_test", "independence.ci_test"),
    (bnsl.constraint, "joint_config_codes", "data.joint_config_codes"),
    (bnsl.constraint, "learn_markov_blanket", "constraint.learn_markov_blanket"),
    (bnsl.constraint, "neighbourhood_from_mb", "constraint.neighbourhood_from_mb"),
    (bnsl.constraint, "orient_vstructures", "constraint.orient_vstructures"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in CALL_SITES))


class Tracer:
    """Installs span-recording wrappers at ``CALL_SITES`` until ``remove``."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._originals = []
        self.caches = []  # every ScoreCache that hill_climb created while installed
        self.op = 0  # id of the benchmark operation that spans belong to
        self.name, self.parent, self.op_id = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self._stack = [-1]

    def clear(self) -> None:
        """Forget recorded spans and caches."""
        for column in (self.name, self.parent, self.op_id, self.start, self.end):
            del column[:]
        self._stack[:] = [-1]
        self.caches.clear()

    def _wrap(self, fn, span_id: int):
        clock = time.perf_counter
        name, start, end, parent, op_id, stack = (
            self.name, self.start, self.end, self.parent, self.op_id, self._stack)

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(span_id)
            parent.append(stack[-1])
            op_id.append(self.op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        self.clear()
        for module, attr, span in CALL_SITES:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, self._ids[span]))
        real_cache = bnsl.hillclimb.ScoreCache

        def counted_cache():
            cache = real_cache()
            self.caches.append(cache)
            return cache

        self._originals.append((bnsl.hillclimb, "ScoreCache", real_cache))
        bnsl.hillclimb.ScoreCache = counted_cache

    def remove(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name; self time excludes child spans."""
        ids = np.array(self.name, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int64)
        k = len(SPAN_NAMES)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(SPAN_NAMES)}

    def cache_counts(self) -> tuple[int, int]:
        """(hits, lookups) over the ScoreCaches created since the last clear."""
        hits = sum(c.hits for c in self.caches)
        return hits, hits + sum(c.misses for c in self.caches)

    def save(self, path) -> None:
        np.savez(path, names=np.array(SPAN_NAMES), name=np.array(self.name),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent), op=np.array(self.op_id))


def installed_wrappers() -> list[str]:
    """Call sites that do not hold bnsl's own object (empty once removed)."""
    left = [f"{m.__name__}.{a}" for m, a, _ in CALL_SITES
            if hasattr(getattr(m, a), "__wrapped__")]
    if bnsl.hillclimb.ScoreCache is not bnsl.scores.ScoreCache:
        left.append("bnsl.hillclimb.ScoreCache")
    return left
