"""Byte-for-byte goldens of CLI payloads.

`data/golden_verify_full_report.json` is the stdout of `zeroerr verify
--full-report`.  `data/golden_bounds.json` holds four non-perfect input
graphs (C5, C7, C5xK2, and `random_graph(SplitMix64(5), 7, 0.6)` with the
`random_distribution` drawn next from the same generator) and the stdout of
`zeroerr bounds c0|h0|hbar|c --max-n 2 --node-budget 10000` on each.  Both
were written by the code before the bound pipelines shared one loop over
AND powers; a change that alters them must say why.
"""

import json
import signal
from pathlib import Path

import pytest

from zeroerr.cli import main

DATA = Path(__file__).parent / "data"
BOUNDS = json.loads((DATA / "golden_bounds.json").read_text())


def test_verify_full_report_golden(capsys):
    assert main(["verify", "--full-report"]) == 0
    golden = (DATA / "golden_verify_full_report.json").read_bytes()
    assert capsys.readouterr().out.encode() == golden


@pytest.mark.parametrize("item", sorted(BOUNDS["outputs"]))
def test_bounds_golden(item, tmp_path, capsys):
    gid, quantity = item.split("/")
    path = tmp_path / f"{gid}.json"
    path.write_text(json.dumps(BOUNDS["graphs"][gid]))
    assert main(["bounds", quantity, "--graph", str(path), "--max-n", "2",
                 "--node-budget", "10000"]) == 0
    assert capsys.readouterr().out == BOUNDS["outputs"][item]


def test_bounds_golden_at_every_time_budget_that_finishes(tmp_path, capsys):
    """The time budget aborts a command or leaves its bytes alone: it never
    shapes a payload, and it leaves no timer or SIGALRM handler behind."""
    path = tmp_path / "C7.json"
    path.write_text(json.dumps(BOUNDS["graphs"]["C7"]))
    argv = ["bounds", "h0", "--graph", str(path), "--max-n", "2", "--node-budget", "10000"]
    handler = signal.getsignal(signal.SIGALRM)
    for extra in ([], ["--time-budget-ms", "100000000"]):
        assert main(argv + extra) == 0
        assert capsys.readouterr().out == BOUNDS["outputs"]["C7/h0"]
    assert main(argv + ["--time-budget-ms", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "undecided: time budget" in out.err
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
