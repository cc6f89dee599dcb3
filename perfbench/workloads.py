"""The benchmark's workloads: seeded inputs, the timed op, and the checks.

Each workload is a closed loop with one caller in one process and one
thread: the next op starts when the previous one returns.  A workload is
built from a freshly imported library (see ``import_library``) and a seed,
which fixes every input.

Interface of a workload object:

``ops()``
    the op list of one pass, as ``(label, callable)`` pairs; the callable is
    the timed op and returns its result.
``output(label, result)``
    untimed; the result's bytes.  They are hashed to compare passes, traced
    and untraced.
``check(label, result)``
    untimed; the problem found, or None.  Passes repeat the same inputs, so
    the harness checks each distinct output of an op once.
``setup_problems``
    check failures found while setting up, by kind.
"""

from __future__ import annotations

import importlib
import json
import random
from collections import Counter
from fractions import Fraction

LIBRARY_MODULES = (
    "exact", "cones", "polyhedra", "complexes", "graphs", "splitting",
    "symmetry", "serialize", "reports", "potential", "diagram", "fixtures", "cli",
)


def import_library() -> dict:
    """Import every tropsplit module; short name -> module."""
    lib = {"tropsplit": importlib.import_module("tropsplit")}
    for name in LIBRARY_MODULES:
        lib[name] = importlib.import_module(f"tropsplit.{name}")
    return lib


def _stored_report(lib, name: str) -> str:
    return lib["cli"].expected_report_path(name).read_text(encoding="utf-8").strip()


# ---------------------------------------------------------------------------
# corpus: the 18 bundled cases, cold, as `tropsplit corpus run` runs them


class Corpus:
    name = "corpus"

    def __init__(self, lib, seed: int):
        cli = lib["cli"]
        self._cli, self._serialize = cli, lib["serialize"]
        self.cases = seeded_order(cli.corpus_cases(), seed)
        self.expected = {c["name"]: _stored_report(lib, c["name"]) for c in self.cases}
        self.setup_problems: Counter = Counter()

    def ops(self):
        return [(case["name"], lambda case=case: self._op(case)) for case in self.cases]

    def _op(self, case):
        # Looked up per call, so that a tracer installed later sees the call.
        return self._serialize.canonical_json(self._cli.run_corpus_case(case))

    def output(self, label, result):
        return result.encode()

    def check(self, label, result):
        return None if result == self.expected[label] else "mismatch"


def seeded_order(items, seed: int) -> list:
    """The op order of a pass; seed 0 keeps the bundled order."""
    items = list(items)
    if seed:
        random.Random(f"order:{seed}").shuffle(items)
    return items


# ---------------------------------------------------------------------------
# eta-sweep: warm split reports of the eight quasi-split graphs over seeded eta

SPLIT_GRAPHS = (
    "fig_square_top1", "fig_square_top2", "fig_cube_top1", "fig_cube_top2",
    "fig_drop_single_top", "fig_drop_three_top", "fig_four_top", "fig_four_top_prime",
)

ETAS_PER_PASS = 40


def eta_list(seed: int) -> list:
    """Seeded nonzero rational directions in Q^3; a graph in dimension n takes
    the first n coordinates, so the first two are never both zero."""
    rng = random.Random(f"eta:{seed}")
    out = []
    while len(out) < ETAS_PER_PASS:
        eta = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3))
        if eta[0] or eta[1]:
            out.append(eta)
    return out


class EtaSweep:
    name = "eta-sweep"

    def __init__(self, lib, seed: int):
        fixtures, serialize = lib["fixtures"], lib["serialize"]
        self._reports, self._serialize = lib["reports"], serialize
        self._cone_from_dict = serialize.cone_from_dict
        self._oracle = lib["cones"].is_increasing_inductive
        self.setup_problems: Counter = Counter()
        corpus_pairs = [c for c in lib["cli"].corpus_cases()
                        if c["kind"] == "split" and c["graph"] in SPLIT_GRAPHS]
        dec_of = {c["graph"]: c["dec"] for c in corpus_pairs}
        decs = {}
        self.graphs = {}  # name -> (QuasiSplitGraph, report inputs)
        for name in SPLIT_GRAPHS:
            dec_name = dec_of[name]
            if dec_name not in decs:
                dec_dict = fixtures.DECOMPOSITIONS[dec_name]()
                decs[dec_name] = (dec_dict, serialize.decomposition_from_dict(dec_dict))
            dec_dict, dec = decs[dec_name]
            top_dict = fixtures.GRAPHS[name]()
            vertex_map, to_graph = serialize.collapse_from_dict(top_dict)
            base_dict = fixtures.GRAPHS[to_graph]()
            q = lib["splitting"].QuasiSplitGraph(
                dec, serialize.graph_from_dict(base_dict),
                serialize.graph_from_dict(top_dict), vertex_map)
            self.graphs[name] = (q, {"dec": dec_dict, "top": top_dict, "base": base_dict})
        # Warm every graph's cached cones with its corpus reports, which must
        # reproduce the stored bytes.
        for case in corpus_pairs:
            q, inputs = self.graphs[case["graph"]]
            got = self._report(q, serialize.parse_vec(case["eta"]), inputs)
            if got != _stored_report(lib, case["name"]):
                self.setup_problems["mismatch"] += 1
        self.etas = eta_list(seed)

    def ops(self):
        return [(i, lambda eta=eta: self._sweep(eta)) for i, eta in enumerate(self.etas)]

    def _sweep(self, eta):
        return [self._report(q, eta[:q.n], inputs) for q, inputs in self.graphs.values()]

    def _report(self, q, eta, inputs) -> str:
        # Looked up per call, so that a tracer installed later sees the call.
        return self._serialize.canonical_json(self._reports.split_report(q, eta, inputs))

    def output(self, label, result):
        return "".join(result).encode()

    def check(self, label, result):
        for text in result:
            report = json.loads(text)
            scalings = self._cone_from_dict(report["scalings_cone"])
            if report["cone_condition_holds"] != self._oracle(scalings):
                return "oracle"
        return None


WORKLOADS = {w.name: w for w in (Corpus, EtaSweep)}
