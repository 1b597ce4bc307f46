"""Outside tracer: spans and counters around the package's public functions.

Nothing under src/ is edited.  Each traced function is replaced by a wrapper
wherever the package binds it: in its defining module and in every module
that imported it by name (bounds, numopt, codec, cli and verifier use
`from .x import f`).  Spans (name, start, end, parent, item id) are kept in
memory and written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
from time import perf_counter

LAYERS = ("cli", "verifier", "bounds", "graphs", "symmetry", "combin",
          "numopt", "typicality", "codec")

# span name -> (module, attribute) of the wrapped function.  Names follow
# `<layer>.<function>`; the four codec builders share `codec.build` and the
# three roundtrip helpers share `codec.roundtrip`.
TRACED = {
    "cli.main": [("cli", "main")],
    "verifier.run_scenario": [("verifier", "run_scenario")],
    "bounds.c0_bounds": [("bounds", "c0_bounds")],
    "bounds.h0_bounds": [("bounds", "h0_bounds")],
    "bounds.hbar_bounds": [("bounds", "hbar_bounds")],
    "bounds.c_rel_bounds": [("bounds", "c_rel_bounds")],
    "graphs.and_power": [("graphs", "and_power")],
    "symmetry.is_perfect": [("symmetry", "is_perfect")],
    "combin.alpha_exact": [("combin", "alpha_exact")],
    "combin.chromatic_number_exact": [("combin", "chromatic_number_exact")],
    "combin.clique_cover_number": [("combin", "clique_cover_number")],
    "combin.min_entropy_coloring": [("combin", "min_entropy_coloring")],
    "combin.maximal_independent_sets": [("combin", "maximal_independent_sets")],
    "numopt.korner_entropy": [("numopt", "korner_entropy")],
    "numopt.capacity_achieving_distribution":
        [("numopt", "capacity_achieving_distribution")],
    "numopt.theta_transitive": [("numopt", "theta_transitive")],
    "numopt.haemers_bound": [("numopt", "haemers_bound")],
    "typicality.typical_set": [("typicality", "typical_set")],
    "typicality.typical_induced_subgraph":
        [("typicality", "typical_induced_subgraph")],
    "typicality.type_split": [("typicality", "type_split")],
    "typicality.eta_bounds": [("typicality", "eta_bounds")],
    "codec.build": [("codec", "build_si_code"), ("codec", "build_partial_si_code"),
                    ("codec", "build_channel_code"), ("codec", "build_sum_channel_code")],
    "codec.roundtrip": [("codec", "si_roundtrip"), ("codec", "channel_roundtrip"),
                        ("codec", "sum_channel_roundtrip")],
}

# Per-function metrics reported as `<name>.calls` and `<name>.s`.
TIMED = (
    "bounds.c0_bounds", "bounds.h0_bounds", "bounds.hbar_bounds", "bounds.c_rel_bounds",
    "graphs.and_power", "symmetry.is_perfect",
    "combin.alpha_exact", "combin.chromatic_number_exact", "combin.clique_cover_number",
    "combin.min_entropy_coloring", "combin.maximal_independent_sets",
    "numopt.korner_entropy", "numopt.capacity_achieving_distribution",
    "codec.build", "codec.roundtrip",
)
SECONDS_ONLY = ("numopt.theta_transitive", "numopt.haemers_bound")
CALLS_ONLY = ("cli.main", "verifier.run_scenario")
# Branch-and-bound kernels whose results carry an `exact` flag.
BNB = ("combin.alpha_exact", "combin.chromatic_number_exact", "combin.clique_cover_number")


def _graph_key(args, kwargs):
    """Repeat key of a call: the argument graph's rows (plus the weights when
    the argument is a probabilistic graph, since they change the answer)."""
    arg = args[0] if args else next(iter(kwargs.values()))
    if hasattr(arg, "rows"):
        return arg.rows
    return arg.graph.rows, arg.dist.weights


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, item, outermost]
        self._stack = []
        self._depth = {}
        self.item = None
        self.count = {}
        self._seen = set()       # (item, name, graph key) for repeat counting
        self._installed = []

    # -- recording ---------------------------------------------------------

    def _bump(self, key, by=1):
        self.count[key] = self.count.get(key, 0) + by

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around code it runs."""
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        self.spans.append([name, perf_counter(), 0.0, parent, self.item, depth == 0])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        span = self.spans[idx]
        span[2] = perf_counter()
        self._stack.pop()
        self._depth[span[0]] -= 1

    def _observe(self, name, args, kwargs, result):
        if name in BNB:
            self._bump("combin.bnb_calls")
            if not result.exact:
                self._bump("combin.inexact")
        if name.startswith("combin.") or name == "symmetry.is_perfect":
            key = (self.item, name, _graph_key(args, kwargs))
            group = "symmetry.is_perfect" if name == "symmetry.is_perfect" else "combin"
            self._bump(group + ".keyed")
            if key in self._seen:
                self._bump(group + ".repeats")
            else:
                self._seen.add(key)
        if name == "graphs.and_power":
            self._bump("graphs.and_power.vertices", result.n)
        elif name == "combin.maximal_independent_sets":
            self._bump("combin.maximal_independent_sets.sets", len(result))
        elif name == "numopt.korner_entropy":
            self._bump("numopt.korner_entropy.iterations", result.iterations)
            if not result.converged:
                self._bump("numopt.korner_entropy.unconverged")
        elif name == "numopt.capacity_achieving_distribution":
            self._bump("numopt.capacity_achieving_distribution.iterations",
                       result.iterations)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            tracer._observe(name, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package="zeroerr"):
        """Rebind every traced function in every loaded module of the package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, sites in TRACED.items():
            for mod_name, attr in sites:
                original = getattr(sys.modules[f"{package}.{mod_name}"], attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._installed.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._installed):
            setattr(mod, key, original)
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics: calls and outermost inclusive seconds per
        function, self seconds per layer, and the waste ratios."""
        dur = [s[2] - s[1] for s in self.spans]
        covered = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                covered[s[3]] += dur[i]
        calls, incl = {}, {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(self.spans):
            name = s[0]
            calls[name] = calls.get(name, 0) + 1
            if s[5]:
                incl[name] = incl.get(name, 0.0) + dur[i]
            layer_self[name.split(".", 1)[0]] += dur[i] - covered[i]
        c = self.count
        out = {}
        for name in TIMED:
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.s"] = (incl.get(name, 0.0), "s")
        for name in SECONDS_ONLY:
            out[f"{name}.s"] = (incl.get(name, 0.0), "s")
        for name in CALLS_ONLY:
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
        for key in ("graphs.and_power.vertices", "combin.maximal_independent_sets.sets",
                    "numopt.korner_entropy.iterations",
                    "numopt.capacity_achieving_distribution.iterations"):
            out[key] = (c.get(key, 0), "count")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer], "s")

        def ratio(num, den):
            return c.get(num, 0) / c[den] if c.get(den) else 0.0

        out["combin.inexact_ratio"] = (ratio("combin.inexact", "combin.bnb_calls"), "ratio")
        out["combin.repeat_ratio"] = (ratio("combin.repeats", "combin.keyed"), "ratio")
        out["symmetry.is_perfect.repeat_ratio"] = (
            ratio("symmetry.is_perfect.repeats", "symmetry.is_perfect.keyed"), "ratio")
        out["numopt.korner_entropy.unconverged_ratio"] = (
            c.get("numopt.korner_entropy.unconverged", 0) / calls["numopt.korner_entropy"]
            if calls.get("numopt.korner_entropy") else 0.0, "ratio")
        return out

    def write(self, path):
        """Write the spans as gzipped JSON lines, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, item, _ in self.spans:
                fh.write(json.dumps([name, round(start - t0, 7), round(end - t0, 7),
                                     parent, item]) + "\n")

