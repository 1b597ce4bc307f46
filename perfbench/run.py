"""Layered benchmark of zeroerr, timed from outside the package.

    python3 perfbench/run.py --workload bounds --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/`.  One process, one client, closed loop, no threads.  A workload is
a fixed list of items made from `--seed`; the list is run in passes until
the next pass would end after `--seconds` (always at least one).  Every
pass re-runs the output checks and must print the same payloads.

With `--trace 0` the last line reports the end-to-end metrics.  With
`--trace 1` the untraced passes take half the time, one more pass runs
under the tracer, and the last line reports the per-layer metrics of that
traced pass plus `trace.overhead_s`; the spans go to `perfbench/out/`.
The lines before the last one name every metric with its unit and sample
count, every failed check, the payload digest and the property shares.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# one client and no threads: numpy's BLAS would otherwise start a thread per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy  # noqa: E402,F401  (imported once so every set-up repeat is alike)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

PACKAGE = "zeroerr"
MODULES = ("graphs", "combin", "symmetry", "numopt", "typicality", "bounds",
           "codec", "verifier", "cli")
SETUP_REPEATS = 11


def import_package():
    """Fresh import of the package from this checkout's src/."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    __import__(f"{PACKAGE}.cli")
    pkg = sys.modules[PACKAGE]
    if not Path(pkg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"{PACKAGE} imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: sys.modules[f"{PACKAGE}.{m}"] for m in MODULES})


def set_up(cls, seed, workdir):
    """Import the package and make the workload's inputs, SETUP_REPEATS
    times; the median is `setup_s`."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl = cls(import_package(), seed, workdir)
        times.append(perf_counter() - t0)
    wl.reference()
    return wl, times


def run_pass(wl, tracer=None, tag=""):
    outcomes, times = [], []
    for item_id, item in wl.items:
        if tracer:
            tracer.item = f"{tag}{item_id}"
        t0 = perf_counter()
        try:
            out = wl.run(item)
        except Exception as exc:  # a raising item is a failed item; the run goes on
            out = workloads.Outcome(f"raised {type(exc).__name__}: {exc}",
                                    [f"{wl.name}.raised:{type(exc).__name__}"])
        times.append(perf_counter() - t0)
        outcomes.append(out)
    wall = sum(times)
    for idx, check in wl.check_pass(outcomes):
        outcomes[idx].fails.append(check)
    return {"wall": wall, "times": times, "outcomes": outcomes}


def run_passes(wl, budget_s):
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(wl))
        if perf_counter() - start + passes[-1]["wall"] > budget_s:
            return passes


def digest(p):
    return hashlib.sha256("\n".join(o.payload for o in p["outcomes"]).encode()).hexdigest()


def summarize(wl, passes, traced, setup_times):
    """Failures (checks, raised errors, payload drift between passes) over
    every pass, and the reported metrics of the untraced passes."""
    reference = [o.payload for o in passes[0]["outcomes"]]
    attempted = failed = undecided = 0
    fail_names = {}
    for p in passes + ([traced] if traced else []):
        drift = ("digest.traced_equals_untraced" if p is traced
                 else "digest.same_every_pass")
        for o, ref in zip(p["outcomes"], reference):
            if o.payload != ref:
                o.fails.append(drift)
            attempted += 1
            failed += bool(o.fails)
            undecided += o.undecided
            for name in o.fails:
                fail_names[name] = fail_names.get(name, 0) + 1
    times = [t for p in passes for t in p["times"]]
    walls = [p["wall"] for p in passes]
    end_to_end = {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "item_p50_ms": (1000 * statistics.median(times), "ms", len(times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    extra = {}
    if len(times) >= 100:
        p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
        extra["item_p90_ms"] = (1000 * p90, "ms", len(times))
    extra["fail_ratio"] = (failed / attempted, "ratio", attempted)
    extra["undecided_ratio"] = (undecided / attempted, "ratio", attempted)
    spent = [(o.info["roundtrips"], t) for p in passes
             for o, t in zip(p["outcomes"], p["times"]) if "roundtrips" in o.info]
    if spent:
        extra["roundtrips_per_s"] = (sum(n for n, _ in spent) / sum(t for _, t in spent),
                                     "1/s", len(spent))
    extra.update(wl.report(passes[0]["outcomes"]))
    return attempted, failed, fail_names, end_to_end, extra


def show(kind, metrics):
    for name, (value, unit, n) in metrics.items():
        print(f"{kind:9s} {name:48s} {value:.6g} {unit} (n={n})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=out_dir))
    try:
        wl, setup_times = set_up(workloads.WORKLOADS[args.workload], args.seed, workdir)
        untraced_budget = args.seconds / 2 if args.trace else args.seconds
        passes = run_passes(wl, untraced_budget)
        traced = None
        if args.trace:
            tracer = Tracer()
            tracer.install(PACKAGE)
            wl.tracer = tracer
            try:
                traced = run_pass(wl, tracer, f"{len(passes)}/")
            finally:
                tracer.uninstall()
                wl.tracer = None
            tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
        attempted, failed, fail_names, end_to_end, extra = summarize(
            wl, passes, traced, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = sorted(p["wall"] for p in passes)
    print(f"workload {args.workload} seed {args.seed}: {len(wl.items)} items a pass, "
          f"{len(passes)} untraced pass(es) of {walls[0]:.3f} to {walls[-1]:.3f} s"
          + (f", 1 traced pass of {traced['wall']:.3f} s" if traced else ""))
    show("metric", end_to_end)
    show("report", extra)
    for name, count in sorted(fail_names.items()):
        print(f"FAILED    {name} ({count} item runs)")
    digests = {digest(p) for p in passes + ([traced] if traced else [])}
    print(f"digest    {' '.join(sorted(digests))}")

    if traced:
        layer = tracer.metrics()
        layer["trace.overhead_s"] = (traced["wall"] - end_to_end["wall_s"][0], "s")
        show("layer", {k: (v, u, 1) for k, (v, u) in layer.items()})
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in end_to_end.items()}
    print(json.dumps({"correct": failed == 0 and len(digests) == 1,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
