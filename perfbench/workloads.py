"""The four workloads: inputs made from the seed, items, and output checks.

An item is one timed unit of work.  `run` returns the item's printed
payload (floats at 9 significant digits, the digest input), the names of
the checks it failed, and whether the program flagged it inexact or
budget-undecided.  Checks compare against values computed here or by
networkx, never against a second answer from the package under test.

Every node budget is finite and every wall budget is far above any item's
run time, so payloads do not depend on machine speed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracles

NODE_BUDGET = "10000"          # branch-and-bound nodes per solve, `bounds`
WALL_BUDGET_MS = "100000000"   # about 28 hours: never reached
# Print-rounding slack: two 9-significant-digit roundings of values below 10.
PRINT_TOL = 1e-7


def r9(x):
    """Round floats to 9 significant digits, recursively, as the CLI prints."""
    if isinstance(x, float):
        return float(f"{x:.9g}")
    if isinstance(x, dict):
        return {k: r9(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [r9(v) for v in x]
    return x


def canonical(obj) -> str:
    return json.dumps(r9(obj), sort_keys=True, separators=(",", ":"))


@dataclass
class Outcome:
    payload: str
    fails: list = field(default_factory=list)
    undecided: bool = False
    info: dict = field(default_factory=dict)


def _cli(mods, argv):
    """In-process `zeroerr <argv>` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = mods.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _strong_product_edges(n1, e1, n2, e2):
    """AND product, vertex (i1, i2) -> i1 * n2 + i2 as the package numbers it."""
    adj1 = {(a, b) for a, b in e1} | {(b, a) for a, b in e1}
    adj2 = {(a, b) for a, b in e2} | {(b, a) for a, b in e2}
    near1 = lambda a, b: a == b or (a, b) in adj1
    near2 = lambda a, b: a == b or (a, b) in adj2
    verts = [(i, j) for i in range(n1) for j in range(n2)]
    return [(u[0] * n2 + u[1], v[0] * n2 + v[1])
            for u, v in itertools.combinations(verts, 2)
            if near1(u[0], v[0]) and near2(u[1], v[1])]


def _weights(rng, n):
    w = [rng.random() + 0.05 for _ in range(n)]
    total = sum(w)
    return [x / total for x in w]


def _cert_methods(node):
    if isinstance(node, dict):
        if "method" in node:
            yield node["method"]
        for v in node.values():
            yield from _cert_methods(v)
    elif isinstance(node, list):
        for v in node:
            yield from _cert_methods(v)


def _flagged(node) -> bool:
    """True when any certificate reports an inexact solve or no convergence."""
    if isinstance(node, dict):
        if node.get("exact") is False or node.get("converged") is False:
            return True
        return any(_flagged(v) for v in node.values())
    if isinstance(node, list):
        return any(_flagged(v) for v in node)
    return False


# ---------------------------------------------------------------------------
# bounds: `zeroerr bounds q --max-n 2` over a seeded graph corpus


class Bounds:
    name = "bounds"
    QUANTITIES = ("c0", "h0", "hbar", "c")
    RANDOM_PER_SIZE = 25          # random graphs on each of 6, 7 and 8 vertices

    def __init__(self, mods, seed, workdir: Path):
        self.mods = mods
        rng = random.Random(f"bounds:{seed}")
        corpus = [("C5", 5, _cycle_edges(5)), ("C7", 7, _cycle_edges(7)),
                  ("C5xK2", 10, _strong_product_edges(5, _cycle_edges(5), 2, [(0, 1)]))]
        for n in (6, 7, 8):
            for k in range(self.RANDOM_PER_SIZE):
                edges = self._random_edges(rng, n)
                corpus.append((f"R{n}.{k}", n, edges))
        self.graphs = {}
        for k, (gid, n, edges) in enumerate(corpus):
            spec = {"n": n, "edges": edges}
            # the three fixed graphs keep the CLI's default uniform distribution,
            # so the seed moves only the random graphs' share of the work
            if k >= 3:
                spec["dist"] = _weights(rng, n)
            path = workdir / f"{gid}.json"
            path.write_text(json.dumps(spec))
            self.graphs[gid] = {**spec, "path": str(path)}
        self.items = [(f"{gid}/{q}", (gid, q)) for gid in self.graphs
                      for q in self.QUANTITIES]
        # spread the many fast items over the whole pass, so that their median
        # samples the machine's speed over the pass and not over a few seconds
        rng.shuffle(self.items)

    @staticmethod
    def _random_edges(rng, n):
        """Edge probability drawn from [0.7, 0.9], then each edge.  A complete
        draw is drawn again: on a complete graph with a non-uniform P the
        package's `bounds c` can print hi one rounding step below lo = 0
        (Hbar rounded above H(P)), and the unchanged lo <= hi check would
        fail the run on every seed that draws one."""
        while True:
            p = rng.uniform(0.7, 0.9)
            edges = [(i, j) for i, j in itertools.combinations(range(n), 2)
                     if rng.random() < p]
            if len(edges) < n * (n - 1) // 2:
                return edges

    def reference(self):
        """Oracle values per graph (untimed): perfectness, alpha, omega, H(P)."""
        for g in self.graphs.values():
            ng = oracles.nx_graph(g["n"], g["edges"])
            g["perfect"] = oracles.is_perfect(ng)
            g["alpha"] = oracles.alpha(ng)
            g["omega"] = oracles.clique_number(ng)
            g["entropy"] = oracles.entropy(g.get("dist", [1 / g["n"]] * g["n"]))
        self.registry = self.mods.bounds.METHOD_REGISTRY

    def run(self, item) -> Outcome:
        gid, q = item
        g = self.graphs[gid]
        rc, out, err = _cli(self.mods, ["bounds", q, "--graph", g["path"], "--max-n", "2",
                                        "--node-budget", NODE_BUDGET,
                                        "--time-budget-ms", WALL_BUDGET_MS])
        if not out:   # exit 2 (budget-undecided) or 1 (error) prints no report
            return Outcome(canonical({"rc": rc, "stderr": err}),
                           [] if rc == 2 else ["bounds.exit_ok"], undecided=rc == 2)
        rep = json.loads(out)
        res = Outcome(canonical({"rc": rc, "report": rep}),
                      undecided=rc == 2 or _flagged(rep),
                      info={"lo": rep["lo"], "hi": rep["hi"]})
        lo, hi = rep["lo"], rep["hi"]
        if not lo <= hi:
            res.fails.append("interval.lo_le_hi")
        if any(m.split("(", 1)[0] not in self.registry for m in _cert_methods(rep)):
            res.fails.append("certificate.in_registry")
        if g["perfect"]:
            single = {"c0": math.log2(g["alpha"]), "h0": math.log2(g["omega"])}.get(q)
            if single is not None and not (abs(lo - single) <= PRINT_TOL
                                           and abs(hi - single) <= PRINT_TOL):
                res.fails.append(f"perfect.{q}_single_letter")
            if q in ("hbar", "c") and lo != hi:
                res.fails.append(f"perfect.{q}_collapses")
        if gid == "C5" and q == "c0":
            half = 0.5 * math.log2(5)
            if not (abs(lo - half) <= PRINT_TOL and abs(hi - half) <= PRINT_TOL):
                res.fails.append("c5.c0_half_log2_5")
        return res

    def check_pass(self, outcomes):
        """Marton identity C(G,P) = H(P) - Hbar(G,P) between each graph's items;
        returns (item index, failed check) pairs."""
        found = []
        index = {item_id: i for i, (item_id, _) in enumerate(self.items)}
        for gid, g in self.graphs.items():
            ih, ic = index[f"{gid}/hbar"], index[f"{gid}/c"]
            hb, c = outcomes[ih].info, outcomes[ic].info
            if not hb or not c:
                continue
            h = g["entropy"]
            if not (abs(c["lo"] - max(0.0, h - hb["hi"])) <= PRINT_TOL
                    and abs(c["hi"] - (h - hb["lo"])) <= PRINT_TOL):
                found.append((ic, "marton.c_equals_h_minus_hbar"))
        return found

    def report(self, outcomes):
        widths = [o.info["hi"] - o.info["lo"] for o in outcomes if o.info]
        perfect = sum(g["perfect"] for g in self.graphs.values())
        return {"width_mean_bits": (sum(widths) / len(widths), "bits", len(widths)),
                "perfect_share": (perfect / len(self.graphs), "ratio", len(self.graphs))}


# ---------------------------------------------------------------------------
# capacity: capacity-achieving distributions on perfect AND products

# Isomorphism classes of the factors the criterion-7 generator draws: every
# graph on 2 to 4 vertices for the first factor, 2 to 3 for the second.
CLASSES = {
    2: [[], [(0, 1)]],
    3: [[], [(0, 1)], [(0, 1), (0, 2)], [(0, 1), (0, 2), (1, 2)]],
    4: [[], [(0, 1)], [(0, 1), (0, 2)], [(0, 1), (2, 3)], [(0, 1), (0, 2), (1, 2)],
        [(0, 1), (0, 2), (0, 3)], [(0, 1), (1, 2), (2, 3)],
        [(0, 1), (1, 2), (2, 3), (0, 3)], [(0, 1), (0, 2), (1, 2), (2, 3)],
        [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], list(itertools.combinations(range(4), 2))],
}
CAP_TOL = 1e-3        # stationarity gap that certifies the value to CAP_TOL bits
CAP_MAX_ITER = 100    # ascent steps before an item is reported unconverged


class Capacity:
    """One item per pair of factor classes, so each pass holds every product
    the criterion-7 generator can draw, including the P4 products whose
    Koerner solves are slow and which hit `CAP_MAX_ITER`.  The seed draws
    each factor's labeling uniformly, which is the law of the generator's
    draws within a class, and the item order."""

    name = "capacity"

    def __init__(self, mods, seed, workdir):
        self.mods = mods
        rng = random.Random(f"capacity:{seed}")
        g = mods.graphs
        self.pairs = []
        for n1 in (2, 3, 4):
            for e1 in CLASSES[n1]:
                for n2 in (2, 3):
                    for e2 in CLASSES[n2]:
                        f1 = g.graph_from_edges(n1, self._relabel(rng, n1, e1))
                        f2 = g.graph_from_edges(n2, self._relabel(rng, n2, e2))
                        self.pairs.append((f1, f2, g.and_product_graph(f1, f2)))
        rng.shuffle(self.pairs)
        self.items = [(f"P{k}", k) for k in range(len(self.pairs))]

    @staticmethod
    def _relabel(rng, n, edges):
        perm = list(range(n))
        rng.shuffle(perm)
        return [(perm[a], perm[b]) for a, b in edges]

    def reference(self):
        self.log2_alpha = []
        for _, _, prod in self.pairs:
            ng = oracles.nx_graph(prod.n, prod.edges())
            # criterion 7 keeps only perfect products; every class pair gives one
            if not oracles.is_perfect(ng):
                raise RuntimeError("capacity corpus holds a non-perfect product")
            self.log2_alpha.append(math.log2(oracles.alpha(ng)))

    def run(self, k) -> Outcome:
        g, numopt = self.mods.graphs, self.mods.numopt
        f1, f2, prod = self.pairs[k]
        opt = numopt.capacity_achieving_distribution(prod, tol=CAP_TOL,
                                                     max_iter=CAP_MAX_ITER)
        m1, m2 = [0.0] * f1.n, [0.0] * f2.n
        for i1 in range(f1.n):
            for i2 in range(f2.n):
                w = float(opt.dist[i1 * f2.n + i2])
                m1[i1] += w
                m2[i2] += w
        marginal = g.Distribution(tuple(a * b for a in m1 for b in m2))
        val = numopt.relative_capacity_perfect(g.ProbabilisticGraph(prod, marginal),
                                               tol=1e-11).value
        target = self.log2_alpha[k]
        res = Outcome(canonical({"value": opt.value, "converged": opt.converged,
                                 "iterations": opt.iterations,
                                 "dist": [float(w) for w in opt.dist.weights],
                                 "marginal_value": val}),
                      undecided=not opt.converged,
                      info={"converged": opt.converged, "gap": abs(opt.value - target)})
        # C(G,P) <= C0(G) = log2 alpha(G) on perfect graphs, for every P
        if opt.value > target + 1e-9 or val > target + 1e-9:
            res.fails.append("capacity.at_most_log2_alpha")
        if opt.converged and abs(opt.value - target) > CAP_TOL:
            res.fails.append("capacity.converged_within_tol")
        return res

    def check_pass(self, outcomes):
        return []

    def report(self, outcomes):
        conv = [o.info["gap"] for o in outcomes if o.info.get("converged")]
        return {"converged_share": (len(conv) / len(outcomes), "ratio", len(outcomes)),
                "cap_gap_max_bits": (max(conv, default=0.0), "bits", len(conv))}


# ---------------------------------------------------------------------------
# codec: build the four codes, then simulate batches of roundtrips

SI_N, SI_EPS = 2, 0.3
PSI_N, PSI_EPS = 6, 0.5
BATCHES = 5                                   # per code and pass
BATCH = {"si": 4500, "partial-si": 450, "channel": 4500, "sum": 900}


def _typewriter(mods, k):
    return mods.graphs.ChannelSpec(k, k, frozenset((x, y) for x in range(k)
                                                   for y in (x, (x + 1) % k)))


class Codec:
    name = "codec"
    tracer = None

    def __init__(self, mods, seed, workdir):
        self.mods = mods
        rng = random.Random(f"codec:{seed}")
        g = mods.graphs
        self.tw5 = _typewriter(mods, 5)
        self.si_rows = {x: self.tw5.outputs_of(x) for x in range(5)}
        support = frozenset({(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 3)})
        joint = tuple((x, y, 0.125 if y < 2 else 0.25) for x, y in sorted(support))
        self.psi_spec = mods.codec.PartialSideInfoSpec(
            g.ChannelSpec(2, 4, support), (0, 0, 1, 1), joint)
        self.id3 = g.ChannelSpec(3, 3, frozenset((x, x) for x in range(3)))
        self.id7 = g.ChannelSpec(7, 7, frozenset((x, x) for x in range(7)))
        self.items = [(f"build/{kind}", ("build", kind, None))
                      for kind in ("si", "partial-si", "channel", "sum")]
        for b in range(BATCHES):
            for kind in ("si", "partial-si", "channel", "sum"):
                if kind == "si":
                    data = [self._si_pair(rng) for _ in range(BATCH[kind])]
                elif kind == "partial-si":
                    data = [self._joint_draw(rng, joint) for _ in range(BATCH[kind])]
                else:
                    data = rng.getrandbits(32)
                self.items.append((f"roundtrip/{kind}/{b}", ("roundtrip", kind, data)))
        self.codes = {}

    def _si_pair(self, rng):
        x = tuple(rng.randrange(5) for _ in range(SI_N))
        y = tuple(rng.choice(self.si_rows[s]) for s in x)
        return x, y

    @staticmethod
    def _joint_draw(rng, joint):
        draws = rng.choices([(x, y) for x, y, _ in joint],
                            weights=[w for _, _, w in joint], k=PSI_N)
        return tuple(x for x, _ in draws), tuple(y for _, y in draws)

    def reference(self):
        pass

    def run(self, item) -> Outcome:
        stage, kind, data = item
        return self._build(kind) if stage == "build" else self._roundtrips(kind, data)

    def _build(self, kind):
        c, g = self.mods.codec, self.mods.graphs
        if kind == "si":
            code = c.build_si_code(self.tw5, g.Distribution.uniform(5), SI_N, SI_EPS)
            desc = {"colors": code.color_count, "codewords": code.color_codewords,
                    "typical": len(code.typical_members)}
        elif kind == "partial-si":
            code = c.build_partial_si_code(self.psi_spec, PSI_N, PSI_EPS)
            desc = {"components": self.psi_spec.component_count}
        elif kind == "channel":
            code = c.build_channel_code(self.tw5, 2, "exact")
            desc = {"codewords": code.to_json_list()}
        else:
            books = [c.build_channel_code(ch, 1, "exact") for ch in (self.id3, self.id7)]
            code = c.build_sum_channel_code([self.id3, self.id7], books, (3, 7))
            desc = {"messages": str(code.message_count()), "rate": code.rate()}
        self.codes[kind] = code
        return Outcome(canonical({"build": kind, **desc}))

    def _roundtrips(self, kind, data):
        c = self.mods.codec
        code = self.codes[kind]
        errors, bits, trials = 0, 0, BATCH[kind]
        if kind == "si":
            for x, y in data:
                decoded, used = c.si_roundtrip(code, x, y)
                errors += decoded != x
                bits += used
        elif kind == "partial-si":
            g_map = self.psi_spec.g_map
            span = self.tracer.span if self.tracer else contextlib.nullcontext
            for xs, ys in data:
                # no package function wraps one partial-SI roundtrip: span it here
                with span("codec.roundtrip"):
                    enc = code.encode(xs, tuple(g_map[y] for y in ys))
                    decoded = code.decode(ys, enc)
                errors += decoded != xs
                bits += len(enc)
        elif kind == "channel":
            errors = c.channel_roundtrip(code, self.tw5, trials, seed=data)
        else:
            errors = c.sum_channel_roundtrip(code, trials, seed=data)
        res = Outcome(canonical({"roundtrips": kind, "errors": errors, "bits": bits}),
                      info={"kind": kind, "roundtrips": trials, "bits": bits})
        if errors:
            res.fails.append(f"codec.{kind}_zero_decode_errors")
        return res

    def check_pass(self, outcomes):
        return []

    def report(self, outcomes):
        si = [o.info for o in outcomes if o.info.get("kind") == "si"]
        n = sum(i["roundtrips"] for i in si)
        return {"si_bits_per_symbol": (sum(i["bits"] for i in si) / (SI_N * n), "bit", n)}


# ---------------------------------------------------------------------------
# verify: the scenario suite with its default config


class Verify:
    """`zeroerr verify --full-report` with the default config, whose own seed
    fixes the scenario inputs; the benchmark seed does not change them."""

    name = "verify"

    def __init__(self, mods, seed, workdir):
        self.mods = mods
        self.items = [("verify", None)]

    def reference(self):
        pass

    def run(self, item) -> Outcome:
        rc, out, err = _cli(self.mods, ["verify", "--full-report",
                                        "--time-budget-ms", WALL_BUDGET_MS])
        if not out:
            return Outcome(canonical({"rc": rc, "stderr": err}), ["verify.exit_ok"])
        rep = json.loads(out)
        summary = rep["summary"]
        res = Outcome(canonical({"rc": rc, "report": rep}),
                      undecided=summary["undecided"] > 0,
                      info={"undecided": summary["undecided"],
                            "scenarios": rep["scenario_count"]})
        res.fails += [f"verify.scenario_{s['status']}:{s['id']}" for s in rep["scenarios"]
                      if s["status"] in ("fail", "error")]
        return res

    def check_pass(self, outcomes):
        return []

    def report(self, outcomes):
        o = outcomes[0].info
        return {"scenario_undecided_ratio":
                (o["undecided"] / o["scenarios"] if o else 0.0, "ratio", o.get("scenarios", 0))}


WORKLOADS = {w.name: w for w in (Bounds, Capacity, Codec, Verify)}
