"""Public surface: the names bnsl exports and the flags of every CLI subcommand.

A change here must be deliberate and written down in CHANGES.md.
"""

import inspect

import numpy as np
import pytest

import bnsl
from bnsl.cli import build_parser
from bnsl.networks import alarm_fitted, sixnode

from helpers import perfbench_module

PUBLIC_NAMES = [
    "ALGORITHMS", "ALGORITHM_NAMES", "ArcList", "CONTINUOUS_TESTS", "CYCLE_MESSAGE",
    "ComparisonReport", "Constraints", "ContingencyTable", "CycleError",
    "DISCRETE_TESTS", "DataError", "Dataset", "DiscreteCPT", "FittedNetwork", "Graph",
    "GraphError", "HillClimbConfig", "LearnConfig", "LearnTrace", "LinearGaussian",
    "PriorError", "PriorKnowledge", "Provenance", "SCORE_LABELS", "SCORE_NAMES",
    "ScoreCache", "ScoreError", "ScoreSpec", "TEST_LABELS", "TEST_NAMES", "TestError",
    "TestResult", "TraceEvent", "aic_test", "apply_move", "average_branching",
    "average_mb_size", "average_nbr_size", "ci_test", "compare", "constraint",
    "constraint_learn", "contingency_counts", "correlation_matrix", "data", "drop_arc",
    "empty_graph", "enumerate_moves", "extend_pdag", "find_vstructures", "fit_mle",
    "fmi_statistic", "format_modelstring", "forward_sample", "gaussian_statistic",
    "graph", "hill_climb", "hillclimb", "independence", "learn_markov_blanket",
    "load_table", "local_score", "mi_discrete", "mutate_arc", "neighbourhood_from_mb",
    "network_score", "normalize_priors", "nparams", "orient_vstructures",
    "parse_modelstring", "partial_correlation", "permutation_pvalue", "perturb_graph",
    "priors", "propagate_directions", "reverse_arc", "score_delta", "scores", "set_arc",
    "special", "structure_query", "symmetry_correction", "to_dot", "topological_order",
    "trace", "write_table", "x2_discrete",
]

_COMMON = ["--help", "--out", "-h"]
# the ingestion flags, only on the subcommands that read a data file
_DATA = ["--delimiter", "--type"]

# subcommand -> (positional arguments in order, sorted option strings)
CLI_FLAGS = {
    "learn": (["data"], sorted(_COMMON + _DATA + [
        "--B", "--algo", "--alpha", "--blacklist", "--debug", "--format", "--iss",
        "--optimized", "--perturb", "--restart", "--score", "--seed", "--start",
        "--test", "--whitelist"])),
    "score": (["graph", "data"], sorted(_COMMON + _DATA + ["--iss", "--score"])),
    "citest": (["data", "x", "y", "z"],
               sorted(_COMMON + _DATA + ["--B", "--seed", "--test"])),
    "compare": (["first", "second"], sorted(_COMMON + ["--nodes"])),
    "sample": ([], sorted(_COMMON + _DATA + ["--data", "--model", "--n", "--params", "--seed"])),
    "export-dot": (["graph"], sorted(_COMMON + ["--nodes"])),
    "modelstring": (["graph"], sorted(_COMMON + ["--nodes"])),
}


def test_public_names_unchanged():
    assert sorted(bnsl.__all__) == sorted(PUBLIC_NAMES)


def test_constraint_learn_parameters_unchanged():
    params = inspect.signature(bnsl.constraint_learn).parameters
    assert [(p.name, p.kind, p.default) for p in params.values()] == [
        ("d", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("cfg", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("pvalue", inspect.Parameter.POSITIONAL_OR_KEYWORD, None),
    ]


_POS = inspect.Parameter.POSITIONAL_OR_KEYWORD
_NONE = inspect.Parameter.empty


@pytest.mark.parametrize("fn, want", [
    (bnsl.learn_markov_blanket, [("target", _NONE), ("d", _NONE), ("cfg", _NONE),
                                 ("known_good", frozenset()), ("known_bad", frozenset()),
                                 ("tester", None)]),
    (bnsl.neighbourhood_from_mb, [("x", _NONE), ("blankets", _NONE), ("d", _NONE),
                                  ("cfg", _NONE), ("tester", None),
                                  ("known_good", frozenset()), ("known_bad", frozenset()),
                                  ("excluded", frozenset())]),
    (bnsl.orient_vstructures, [("skeleton", _NONE), ("dsep_sets", _NONE), ("d", _NONE),
                               ("cfg", _NONE), ("tester", None), ("cons", None)]),
])
def test_constraint_phase_parameters_unchanged(fn, want):
    # each phase reaches its trace, alpha and column order through the tester
    params = inspect.signature(fn).parameters
    assert [(p.name, p.kind, p.default) for p in params.values()] == [
        (name, _POS, default) for name, default in want]


def test_cli_flags_unchanged():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if a.dest == "command"]
    got = {}
    for name, sub in subparsers.choices.items():
        positional = [a.dest for a in sub._actions if not a.option_strings]
        flags = sorted(o for a in sub._actions for o in a.option_strings)
        got[name] = (positional, flags)
    assert got == CLI_FLAGS


def test_traced_benchmark_call_sites_exist():
    # the traced benchmark run replaces these names; a missing one makes it fail
    tracing = perfbench_module("tracing")
    missing = [f"{m.__name__}.{attr}" for m, attr, _ in tracing.CALL_SITES
               if not hasattr(m, attr)]
    assert missing == []


def test_hill_climb_creates_its_cache_through_the_module_name(monkeypatch):
    # the traced run counts cache hits by replacing bnsl.hillclimb.ScoreCache
    made = []

    def counted():
        made.append(bnsl.ScoreCache())
        return made[-1]

    monkeypatch.setattr(bnsl.hillclimb, "ScoreCache", counted)
    rng = np.random.default_rng(0)
    cols = {n: bnsl.data.CategoricalColumn(("a", "b"), rng.integers(0, 2, 50))
            for n in ("A", "B")}
    bnsl.hill_climb(bnsl.Dataset(("A", "B"), cols), bnsl.HillClimbConfig())
    assert len(made) == 1 and made[0].misses > 0


@pytest.mark.parametrize("algorithm,expected", [
    ("gs", {"Graph", "propagate_directions", "ci_test", "learn_markov_blanket",
            "neighbourhood_from_mb", "orient_vstructures"}),
    ("fast-iamb", {"Graph", "propagate_directions", "ci_test", "joint_config_codes",
                   "learn_markov_blanket", "neighbourhood_from_mb",
                   "orient_vstructures"}),
    ("mmpc", {"Graph", "ci_test"}),
])
def test_constraint_learners_call_the_traced_names(monkeypatch, algorithm, expected):
    # a name the learners stop calling through bnsl.constraint reads 0 calls
    # in the traced benchmark run, so its per-layer metric goes blind
    tracing = perfbench_module("tracing")
    names = [attr for m, attr, _ in tracing.CALL_SITES if m is bnsl.constraint]
    calls = dict.fromkeys(names, 0)
    for attr in names:
        def counted(*args, _attr=attr, _fn=getattr(bnsl.constraint, attr), **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(bnsl.constraint, attr, counted)
    d = bnsl.forward_sample(sixnode(), 2000, seed=1)
    bnsl.constraint_learn(d, bnsl.LearnConfig(algorithm=algorithm))
    assert {attr for attr, n in calls.items() if n} == expected


@pytest.mark.parametrize("algorithm", ["gs", "mmpc"])
def test_constraint_tests_reach_each_traced_layer_once(monkeypatch, algorithm):
    # the traced benchmark run counts these names inside every test: a route
    # around one blinds its layer, a second call through one inflates it
    tests, calls = [], dict.fromkeys(("contingency_counts", "joint_config_codes",
                                      "chi2_sf"), 0)
    ci_test = bnsl.constraint.ci_test

    def testing(d, x, y, z, **kwargs):
        tests.append(z)
        return ci_test(d, x, y, z, **kwargs)

    for module, attr in ((bnsl.independence, "contingency_counts"),
                         (bnsl.data, "joint_config_codes"),
                         (bnsl.independence, "chi2_sf")):
        def counted(*args, _attr=attr, _fn=getattr(module, attr), **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)
    monkeypatch.setattr(bnsl.constraint, "ci_test", testing)
    d = bnsl.forward_sample(alarm_fitted(1), 2000, seed=1)
    bnsl.constraint_learn(d, bnsl.LearnConfig(algorithm=algorithm, test="mi"))
    conditioned = sum(1 for z in tests if z)
    assert conditioned > 100 and len(tests) > conditioned + 1
    # one lookup of z's codes per conditioned table; with z empty the first
    # test counts its table and the rest read the stacked pass
    assert calls == {"contingency_counts": conditioned + 1,
                     "joint_config_codes": conditioned, "chi2_sf": len(tests)}
