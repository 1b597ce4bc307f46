"""Verifier plumbing: statuses, budget semantics, filtering, determinism."""

import json
import math
from collections import Counter

from zeroerr import combin, numopt, symmetry
from zeroerr.graphs import Budget
from zeroerr.verifier import (
    SCENARIOS,
    VerifyConfig,
    full_suite,
    report_to_csv,
    run_scenario,
)

FAST_CFG = VerifyConfig(trials=200)


def _by_id(scenario_id):
    return next(s for s in SCENARIOS if s.id == scenario_id)


def test_registry_covers_required_results():
    ids = {s.id for s in SCENARIOS}
    required = {
        "pentagon", "full-support", "si-operational", "perfect-family",
        "subfamily-closure", "alpha-superadditive", "union-capacity",
        "marton-identity", "product-marginals", "sum-channel-weights",
        "union-capacity-split", "perfect-collapse", "c6c8", "c5-with-perfect",
        "schlafli-strict", "vertex-transitive", "distributivity",
        "union-isomorphic", "type-split", "induced-sandwich", "marton-union",
        "eta", "witsenhausen", "codec-channel", "codec-partial-si",
        "codec-sum", "shifted-codebook",
    }
    assert required <= ids


def test_single_scenario_passes():
    rep = run_scenario(_by_id("pentagon"), FAST_CFG)
    assert rep["status"] == "pass"
    assert all(c["ok"] for c in rep["checks"])


def test_budget_starved_reports_undecided():
    with Budget(nodes=2):
        rep = run_scenario(_by_id("pentagon"), VerifyConfig(trials=50))
    assert rep["status"] == "undecided"
    assert "budget" in rep["reason"]


def test_tag_filter():
    rep = full_suite(VerifyConfig(trials=100, tags=("schlafli",)))
    assert rep["scenario_count"] == 1
    assert rep["scenarios"][0]["id"] == "schlafli-strict"


def test_schlafli_strictness_certified_without_matrix():
    # c0(S) <= log 3 (theta) and c0(S-bar) <= log 7 (A+I over GF(2)) sum
    # below log 27 with no user fitting matrix
    rep = run_scenario(_by_id("schlafli-strict"), FAST_CFG)
    check = next(c for c in rep["checks"] if c["name"] == "C0-level strictness")
    assert check["ok"] and "note" not in check
    assert abs(check["measured"] - math.log2(21)) < 1e-8  # reports keep 9 digits
    assert abs(check["target"] - math.log2(27)) < 1e-8


def test_report_csv_format():
    rep = full_suite(VerifyConfig(trials=100, tags=("pentagon",)))
    csv = report_to_csv(rep)
    lines = csv.strip().splitlines()
    assert lines[0] == "# zeroerr-verify csv v1"   # versioned header
    assert lines[1] == "scenario,check,measured,target,tolerance,status"
    assert all(line.count(",") == 5 for line in lines[2:])


def test_suite_deterministic_across_thread_knob():
    # two runs of one config give the same report bytes
    rep1 = full_suite(VerifyConfig(trials=150, tags=("codec",)))
    rep2 = full_suite(VerifyConfig(trials=150, tags=("codec",)))
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_suite_solves_each_graph_once_in_one_scope(monkeypatch):
    # under one Budget scope, as in `zeroerr verify`, the store leaves no
    # repeated solve (a raising one, never stored, is not counted); the
    # report is the one the suite gives with no store
    solves = Counter()
    for solver in (combin.alpha_exact, combin.chromatic_number_exact,
                   combin.clique_cover_number, symmetry.is_perfect, numopt.korner_entropy,
                   numopt.theta_transitive):
        def counted(*args, _real=solver.__wrapped__, _name=solver.__name__, **kwargs):
            result = _real(*args, **kwargs)
            solves[_name, args, tuple(kwargs.items())] += 1
            return result

        monkeypatch.setattr(solver, "__wrapped__", counted)
    with Budget():
        stored = full_suite(FAST_CFG)
    assert solves and max(solves.values()) == 1
    assert {name for name, _, _ in solves} == {
        "alpha_exact", "chromatic_number_exact", "clique_cover_number",
        "is_perfect", "korner_entropy", "theta_transitive"}
    monkeypatch.undo()
    assert json.dumps(stored, sort_keys=True) == json.dumps(full_suite(FAST_CFG), sort_keys=True)
