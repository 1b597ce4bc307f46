"""CLI contract: subcommands, file formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import zeroerr
from zeroerr import bounds, cli, numopt
from zeroerr.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_and_info(tmp_path, capsys):
    out = tmp_path / "s.json"
    code, stdout, _ = run(capsys, "graph", "catalog", "--name", "schlafli",
                          "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 27
    code, stdout, _ = run(capsys, "graph", "info", "--graph", str(out))
    assert code == 0
    info = json.loads(stdout)
    assert info["min_degree"] == info["max_degree"] == 16


def test_bounds_c0_pentagon(tmp_path, capsys):
    g = tmp_path / "c5.json"
    code, _, _ = run(capsys, "graph", "catalog", "--name", "cycle", "--n", "5",
                     "--out", str(g))
    assert code == 0
    code, stdout, _ = run(capsys, "bounds", "c0", "--graph", str(g), "--max-n", "2")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["quantity"] == "C0"
    assert abs(payload["lo"] - 1.16096405) < 1e-4
    assert abs(payload["hi"] - 1.16096405) < 1e-4
    assert payload["lo_cert"]["method"] == "alpha_power"


def test_graph_build_and_solve(tmp_path, capsys):
    g = tmp_path / "g.json"
    code, _, _ = run(capsys, "graph", "build", "--n", "4",
                     "--edges", "0-1,1-2,2-3,3-0", "--out", str(g))
    assert code == 0
    code, stdout, _ = run(capsys, "solve", "alpha", "--graph", str(g))
    assert code == 0
    assert json.loads(stdout)["alpha"] == 2
    code, stdout, _ = run(capsys, "solve", "chi", "--graph", str(g))
    assert json.loads(stdout)["chi"] == 2
    code, stdout, _ = run(capsys, "solve", "mis", "--graph", str(g))
    assert json.loads(stdout)["count"] == 2


def test_solve_hchi_with_dist(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(capsys, "graph", "catalog", "--name", "complete", "--n", "3",
        "--out", str(g))
    code, stdout, _ = run(capsys, "solve", "hchi", "--graph", str(g),
                          "--dist", "1/2,1/4,1/4")
    assert code == 0
    assert abs(json.loads(stdout)["h_chi_bits"] - 1.5) < 1e-9


def test_entropy_kappa(tmp_path, capsys):
    g = tmp_path / "c5.json"
    run(capsys, "graph", "catalog", "--name", "cycle", "--n", "5", "--out", str(g))
    code, stdout, _ = run(capsys, "entropy", "kappa", "--graph", str(g))
    assert code == 0
    assert abs(json.loads(stdout)["h_kappa_bits"] - math.log2(2.5)) < 1e-6


def _typewriter_file(tmp_path):
    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps({
        "x_count": 5, "y_count": 5,
        "support": [[x, y] for x in range(5) for y in (x, (x + 1) % 5)],
    }))
    return chan


def _partial_si_spec_file(tmp_path):
    # component 0 (outputs 0, 1) confuses both inputs, component 1 does not
    spec = tmp_path / "psi.json"
    spec.write_text(json.dumps({
        "channel": {"x_count": 2, "y_count": 4,
                    "support": [[0, 0], [0, 1], [1, 0], [1, 1], [0, 2], [1, 3]]},
        "g_map": [0, 0, 1, 1],
        "joint": [[0, 0, 0.125], [0, 1, 0.125], [1, 0, 0.125], [1, 1, 0.125],
                  [0, 2, 0.25], [1, 3, 0.25]],
    }))
    return spec


def test_codec_channel_and_simulate(tmp_path, capsys):
    chan = _typewriter_file(tmp_path)
    code, stdout, _ = run(capsys, "codec", "channel", "--channel", str(chan),
                          "--n", "2")
    assert code == 0
    payload = json.loads(stdout)
    assert len(payload["codewords"]) == 5
    code, stdout, _ = run(capsys, "codec", "simulate", "--channel", str(chan),
                          "--n", "2", "--trials", "500", "--seed", "7")
    assert code == 0
    assert json.loads(stdout)["errors"] == 0


def test_codec_partial_si(tmp_path, capsys):
    spec = _partial_si_spec_file(tmp_path)
    code, stdout, _ = run(capsys, "codec", "partial-si", "--spec", str(spec),
                          "--n", "6", "--eps", "0.5", "--trials", "300", "--seed", "7")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["errors"] == 0
    assert payload["components"] == 2 and payload["trials"] == 300
    # each (x, y) pair is one randrange(8) over the weights 1, 1, 1, 1, 2, 2,
    # the exact draw, not a float cumulative table
    assert payload["rate_bits_per_symbol"] == 0.985555556


def test_codec_simulate_si_draws_exactly_from_the_distribution(tmp_path, capsys):
    # one randrange(5) per symbol of the uniform default, the draw of the
    # verifier's si-operational scenario
    chan = _typewriter_file(tmp_path)
    code, stdout, _ = run(capsys, "codec", "simulate", "--mode", "si", "--channel", str(chan),
                          "--n", "2", "--eps", "0.3", "--trials", "3000", "--seed", "1")
    assert code == 0
    assert json.loads(stdout) == {"errors": 0, "mode": "si", "trials": 3000,
                                  "rate_bits_per_symbol": 1.9695}


def test_codec_spec_without_a_key_is_malformed(tmp_path, capsys):
    psi, sum_spec = tmp_path / "psi.json", tmp_path / "sum.json"
    psi.write_text(json.dumps({k: v for k, v in json.loads(
        _partial_si_spec_file(tmp_path).read_text()).items() if k != "g_map"}))
    sum_spec.write_text(json.dumps({"channel": []}))
    for argv, message in ((["partial-si", "--spec", str(psi)], "partial-SI spec JSON: 'g_map'"),
                          (["sum", "--spec", str(sum_spec), "--composition", "1"],
                           "sum spec JSON: 'channels'")):
        code, stdout, err = run(capsys, "codec", *argv)
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: malformed {message}") and "Traceback" not in err


def test_vertex_budget_reaches_si_codecs_and_verify(tmp_path, capsys):
    chan, spec = _typewriter_file(tmp_path), _partial_si_spec_file(tmp_path)
    for argv in (["codec", "si", "--channel", str(chan), "--n", "2"],
                 ["codec", "simulate", "--mode", "si", "--channel", str(chan),
                  "--n", "2", "--trials", "50"],
                 ["codec", "partial-si", "--spec", str(spec), "--n", "6", "--trials", "50"]):
        code, stdout, err = run(capsys, *argv, "--vertex-budget", "4")
        assert (code, stdout) == (2, "")
        assert err.startswith("undecided: product too large")
    code, stdout, _ = run(capsys, "verify", "--tag", "pentagon", "--vertex-budget", "4",
                          "--full-report")
    report = json.loads(stdout)
    assert code == 2 and report["scenario_count"] == 2
    assert [s["status"] for s in report["scenarios"]] == ["undecided", "undecided"]


def test_bounds_power_above_vertex_budget_exits_2(tmp_path, capsys):
    g = tmp_path / "c5.json"
    run(capsys, "graph", "catalog", "--name", "cycle", "--n", "5", "--out", str(g))
    for quantity in ("c0", "h0", "hbar", "c"):
        for budget in ("0", "24"):
            code, stdout, err = run(capsys, "bounds", quantity, "--graph", str(g),
                                    "--max-n", "2", "--vertex-budget", budget)
            assert (code, stdout) == (2, "")
            assert err.startswith(f"undecided: product too large: 25 > {budget} vertices")
    code, stdout, _ = run(capsys, "bounds", "c0", "--graph", str(g), "--max-n", "2",
                          "--vertex-budget", "25")
    assert code == 0 and json.loads(stdout)["lo_cert"]["details"]["n"] == 2
    # G^1 is the graph itself, so a budget below |V| leaves n = 1 alone
    base = run(capsys, "bounds", "c0", "--graph", str(g), "--max-n", "1")
    assert base[0] == 0
    assert run(capsys, "bounds", "c0", "--graph", str(g), "--max-n", "1",
               "--vertex-budget", "3") == base


def test_codec_sum_beyond_two_to_the_64_messages(tmp_path, capsys):
    spec = tmp_path / "sum.json"
    spec.write_text(json.dumps({"channels": [
        {"x_count": k, "y_count": k, "support": [[x, x] for x in range(k)]}
        for k in (3, 7)]}))
    code, stdout, _ = run(capsys, "codec", "sum", "--spec", str(spec),
                          "--composition", "20,20", "--trials", "5")
    payload = json.loads(stdout)
    assert code == 0 and payload["errors"] == 0
    assert int(payload["messages"]) > 2 ** 64


def test_eta_cli(tmp_path, capsys):
    parts = tmp_path / "parts.json"
    parts.write_text(json.dumps([
        {"n": 2, "edges": [[0, 1]], "dist": {"num": [1, 1], "den": 2}},
        {"n": 2, "edges": [[0, 1]], "dist": {"num": [1, 1], "den": 2}},
    ]))
    code, stdout, _ = run(capsys, "eta", "--parts", str(parts), "--pa", "1/2,1/2")
    assert code == 0
    payload = json.loads(stdout)
    assert abs(payload["lo"] - 1.0) < 1e-9 and abs(payload["hi"] - 1.0) < 1e-9
    assert payload["k"] == 2


def test_error_paths(tmp_path, capsys):
    # missing file: clean message, exit 1, no traceback
    code, stdout, err = run(capsys, "solve", "alpha", "--graph",
                            str(tmp_path / "nope.json"))
    assert code == 1 and "error:" in err and "Traceback" not in err
    # malformed JSON field naming the problem
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"edges": [[0, 1]]}))
    code, _, err = run(capsys, "solve", "alpha", "--graph", str(bad))
    assert code == 1 and "malformed" in err
    # budget refusal: exit 2
    g = tmp_path / "c5.json"
    run(capsys, "graph", "catalog", "--name", "cycle", "--n", "5", "--out", str(g))
    code, _, err = run(capsys, "graph", "power", "--graph", str(g), "--n", "9",
                       "--vertex-budget", "1000")
    assert code == 2 and "undecided" in err


def test_solve_mis_above_its_limit_is_undecided(tmp_path, capsys):
    # C5 has 5 maximal independent sets: a limit of 3 is a budget refusal
    g = tmp_path / "c5.json"
    run(capsys, "graph", "catalog", "--name", "cycle", "--n", "5", "--out", str(g))
    code, stdout, err = run(capsys, "solve", "mis", "--graph", str(g), "--mis-limit", "3")
    assert (code, stdout) == (2, "") and "undecided: more than 3 maximal" in err
    code, stdout, _ = run(capsys, "solve", "mis", "--graph", str(g), "--mis-limit", "5")
    assert code == 0 and json.loads(stdout)["count"] == 5


def test_usage_errors_exit_1_and_help_exits_0(tmp_path, capsys):
    # argparse's own exit code would be 2, which means undecided
    g = tmp_path / "c6.json"
    for argv in (["bounds", "c0", "--graph", str(g), "--bogus", "1"],
                 ["codec", "si", "--n", "two"], ["entropy", "nope"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (1, "") and "error:" in out.err
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--help"])
    assert exc.value.code == 0 and "--max-n" in capsys.readouterr().out


def _refused(capsys, argv, message):
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (1, "") and err.startswith(f"error: {message}")


def test_graph_actions_refuse_a_missing_required_option(tmp_path, capsys):
    g = tmp_path / "c5.json"
    run(capsys, "graph", "catalog", "--name", "cycle", "--n", "5", "--out", str(g))
    values = {"graph": str(g), "graph2": str(g), "channel": str(_typewriter_file(tmp_path)),
              "n": "2", "name": "cycle"}
    required = {"build": ["n"], "catalog": ["name"], "complement": ["graph"],
                "info": ["graph"], "power": ["graph", "n"], "product": ["graph", "graph2"],
                "union": ["graph", "graph2"], "characteristic": ["channel"]}
    for action, opts in required.items():
        for missing in opts:
            argv = ["graph", action]
            for opt in opts:
                if opt != missing:
                    argv += [f"--{opt}", values[opt]]
            _refused(capsys, argv, f"graph {action} requires --{missing}")


def test_graph_build_refuses_a_negative_vertex_count(capsys):
    _refused(capsys, ["graph", "build", "--n", "-2"], "--n must be nonnegative, got -2")


def test_graph_build_names_a_malformed_edge_token(capsys):
    for edges, token in (("0", "0"), ("0-1,1", "1"), ("0-1-2", "0-1-2"), ("0-x", "0-x")):
        _refused(capsys, ["graph", "build", "--n", "3", "--edges", edges],
                 f"--edges token {token!r} is not of the form i-j")


def test_negative_budgets_are_errors(tmp_path, capsys):
    g = tmp_path / "c5.json"
    run(capsys, "graph", "catalog", "--name", "cycle", "--n", "5", "--out", str(g))
    for flag in ("--vertex-budget", "--node-budget"):
        _refused(capsys, ["bounds", "c0", "--graph", str(g), flag, "-1"],
                 "budgets must be >= 0")


def test_trials_below_one_are_errors(tmp_path, capsys):
    chan, spec = _typewriter_file(tmp_path), _partial_si_spec_file(tmp_path)
    for argv in (["codec", "partial-si", "--spec", str(spec), "--trials", "0"],
                 ["codec", "simulate", "--mode", "si", "--channel", str(chan), "--trials", "0"],
                 ["codec", "simulate", "--channel", str(chan), "--trials", "-3"],
                 ["verify", "--tag", "pentagon", "--trials", "0"]):
        _refused(capsys, argv, "--trials must be at least 1")


def test_tol_bits_must_be_positive_and_finite(tmp_path, capsys):
    g = tmp_path / "c5.json"
    run(capsys, "graph", "catalog", "--name", "cycle", "--n", "5", "--out", str(g))
    for tol in ("0", "-1e-9", "nan", "inf"):
        _refused(capsys, ["entropy", "capdist", "--graph", str(g), f"--tol-bits={tol}"],
                 "--tol-bits must be positive and finite")


def test_malformed_inputs_are_errors(tmp_path, capsys):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    _refused(capsys, ["bounds", "c0", "--graph", write("g.json", {"n": 2, "edges": [[0, 5]]})],
             "malformed graph JSON: edge (0,5) has an endpoint outside [0, 2)")
    _refused(capsys, ["graph", "build", "--n", "2", "--edges", "0-5"], "edge (0,5)")
    for dist in ({"num": [1, 1]}, {"num": [1, 1], "den": 0}):
        pg = write("pg.json", {"n": 2, "edges": [], "dist": dist})
        _refused(capsys, ["entropy", "kappa", "--graph", pg], "malformed distribution JSON")
    k3 = write("k3.json", {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]})
    _refused(capsys, ["solve", "hchi", "--graph", k3, "--dist", "1/0,1/1,1/1"],
             "zero denominator")
    parts = write("parts.json", [{"n": 1, "edges": [], "dist": [1.0]}] * 2)
    _refused(capsys, ["eta", "--parts", parts, "--pa", "1/0,1/1"], "zero denominator")
    five = write("five.json", 5)
    _refused(capsys, ["entropy", "kappa", "--graph", five], "malformed graph JSON")
    _refused(capsys, ["eta", "--parts", five, "--pa", "1/2,1/2"], "malformed parts JSON")
    chan = write("neg.json", {"x_count": -1, "y_count": -3, "support": []})
    _refused(capsys, ["codec", "channel", "--channel", chan],
             "malformed channel JSON: x_count must be nonnegative, got -1")


def test_entropy_capdist_payload_keys(tmp_path, capsys):
    g = tmp_path / "p3.json"
    run(capsys, "graph", "build", "--n", "3", "--edges", "0-1,1-2", "--out", str(g))
    code, stdout, _ = run(capsys, "entropy", "capdist", "--graph", str(g))
    assert code == 0
    assert sorted(json.loads(stdout)) == ["capacity_bits", "converged", "distribution"]


def test_time_budget_out_of_range_is_an_error(tmp_path, capsys):
    # a zero interval would disarm the timer, so 0 must not mean "no limit";
    # above 10^12 ms the timer itself overflows
    g = tmp_path / "c5.json"
    run(capsys, "graph", "catalog", "--name", "cycle", "--n", "5", "--out", str(g))
    for ms in ("0", "-5", str(10 ** 12 + 1), str(10 ** 20)):
        out = tmp_path / f"out{ms}.json"
        code, stdout, err = run(capsys, "bounds", "c0", "--graph", str(g),
                                "--time-budget-ms", ms, "--out", str(out))
        assert code == 1 and stdout == "" and "error: time budget" in err
        assert not out.exists()


def test_time_budget_aborts_through_swallowing_handlers(tmp_path, capsys, monkeypatch):
    """The perfectness check of the bound pipelines swallows Undecided; the
    time limit still aborts the command inside it."""
    real = bounds.is_perfect

    def slow_is_perfect(g):
        end = time.monotonic() + 1.0
        while time.monotonic() < end:
            pass
        return real(g)

    monkeypatch.setattr(bounds, "is_perfect", slow_is_perfect)
    g = tmp_path / "c5.json"
    run(capsys, "graph", "catalog", "--name", "cycle", "--n", "5", "--out", str(g))
    code, stdout, err = run(capsys, "bounds", "c0", "--graph", str(g),
                            "--time-budget-ms", "50")
    assert code == 2 and stdout == "" and "undecided: time budget" in err


def test_verify_time_budget_abort_writes_no_file(tmp_path, capsys):
    out, csv = tmp_path / "report.json", tmp_path / "report.csv"
    code, stdout, err = run(capsys, "verify", "--time-budget-ms", "1",
                            "--out", str(out), "--csv", str(csv))
    assert code == 2 and stdout == "" and "undecided: time budget" in err
    assert not out.exists() and not csv.exists()


def test_output_determinism(tmp_path, capsys):
    g = tmp_path / "c6.json"
    run(capsys, "graph", "catalog", "--name", "cycle", "--n", "6", "--out", str(g))
    outs = []
    for threads in ("1", "8"):
        code, stdout, _ = run(capsys, "bounds", "hbar", "--graph", str(g),
                              "--threads", threads, "--seed", "99")
        assert code == 0
        outs.append(stdout)
    assert outs[0] == outs[1]


def _env():
    """Environment of a new interpreter that imports this package."""
    env = dict(os.environ)
    src = str(Path(zeroerr.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _fresh(python_args, **env):
    """(exit code, stdout) of `python <python_args>` in a new interpreter,
    with `env` added to its environment."""
    proc = subprocess.run([sys.executable, *python_args], env={**_env(), **env},
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def test_closed_stdout_exits_zero_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    with os.fdopen(write_end, "wb") as stdout:
        proc = subprocess.run(
            [sys.executable, "-m", "zeroerr.cli", "graph", "catalog", "--name", "cycle",
             "--n", "3"], env=_env(), stdout=stdout, stderr=subprocess.PIPE, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_shared_parser_matches_fresh_processes(tmp_path, capsys):
    g = tmp_path / "c5.json"
    run(capsys, "graph", "catalog", "--name", "cycle", "--n", "5", "--out", str(g))
    commands = [["solve", "chi", "--graph", str(g)],
                ["bounds", "c0", "--graph", str(g), "--max-n", "2"],
                ["solve", "chi", "--graph", str(g), "--node-budget", "1"]]
    for argv in commands:
        code, stdout, _ = run(capsys, *argv)
        assert (code, stdout) == _fresh(["-m", "zeroerr.cli", *argv])
    assert cli.build_parser() is cli.build_parser()


def test_blas_thread_count_does_not_change_theta_payloads(tmp_path, capsys):
    # theta's lambda_min comes from LAPACK; the variable is set only in the
    # child's environment, since the package reads none
    for name, extra in (("cycle", ("--n", "5")), ("schlafli", ())):
        g = tmp_path / f"{name}.json"
        run(capsys, "graph", "catalog", "--name", name, *extra, "--out", str(g))
        argv = ["-m", "zeroerr.cli", "bounds", "c0", "--graph", str(g)]
        one = _fresh(argv, OPENBLAS_NUM_THREADS="1")
        assert one[0] == 0 and "lovasz_theta_transitive" in one[1]
        assert one == _fresh(argv, OPENBLAS_NUM_THREADS="2")


def test_blas_thread_count_does_not_change_a_newton_finished_kappa(tmp_path, capsys):
    # P4 x N2 at U stalls the fixed-point kernel, so its Koerner solve ends
    # in the Newton finish, whose steps are LAPACK least-squares solves
    p4, n2, g = (tmp_path / f"{name}.json" for name in ("p4", "n2", "p4n2"))
    run(capsys, "graph", "build", "--n", "4", "--edges", "0-1,1-2,2-3", "--out", str(p4))
    run(capsys, "graph", "build", "--n", "2", "--out", str(n2))
    run(capsys, "graph", "product", "--graph", str(p4), "--graph2", str(n2), "--out", str(g))
    argv = ["-m", "zeroerr.cli", "entropy", "kappa", "--graph", str(g), "--tol-bits", "1e-11"]
    one = _fresh(argv, OPENBLAS_NUM_THREADS="1")
    payload = json.loads(one[1])
    assert one[0] == 0 and payload["h_kappa_bits"] == 1.0
    assert payload["iterations"] > numopt.KORNER_NEWTON_AFTER
    assert one == _fresh(argv, OPENBLAS_NUM_THREADS="2")
