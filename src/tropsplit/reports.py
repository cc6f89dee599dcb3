"""Machine-readable analysis reports.

Each report is a JSON-ready dict with deterministic ordering: identical
inputs always serialize to identical bytes.
"""

from __future__ import annotations

import functools
import hashlib
import marshal

from . import __version__
from .complexes import Decomposition, is_tropical_fiber
from .exact import as_int
from .graphs import split_edges, validate_graph, vertex_positions
from .potential import NovikovSeries, bg_potential, leading_terms
from .serialize import (
    canonical_json,
    cone_to_dict,
    decomposition_to_dict,
    lattice_to_dict,
    rat_str,
    series_to_list,
    thaw,
    vec_str,
)
from .splitting import QuasiSplitGraph, cone_condition, index_shift, is_rigid_split
from .symmetry import component_splitting, multiplicity, symmetry_group


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def input_digest(value) -> str:
    """``digest(canonical_json(value).encode())``, memoized by exact content.

    The memo key is ``marshal.dumps(value)``, which writes exact builtin
    types only: ``True``, ``1`` and ``1.0`` give different bytes, as do
    ``-0.0`` and ``0.0``, and a dict mutated in place gives new bytes, so
    a new key.  The digest is computed from the key alone (``_digest_of``
    loads it back, and marshal round-trips exact builtin values exactly),
    so a cached entry cannot disagree with its key.  No memo is keyed by
    identity: the caller's dicts are mutable.

    Marshal raises ``ValueError`` on a subclass of ``str``, ``int`` or
    ``dict``, on ``Fraction`` and on too-deep nesting, and it writes any
    other buffer object (a NumPy scalar, say) as plain bytes, which
    ``canonical_json`` then rejects with ``TypeError``.  Either error
    sends the value down the uncached line, which gives the same digest
    or raises the same exception as it always did.
    """
    try:
        return _digest_of(marshal.dumps(value))
    except (TypeError, ValueError):
        return digest(canonical_json(value).encode())


@functools.lru_cache(maxsize=64)
def _digest_of(data: bytes) -> str:
    return digest(canonical_json(marshal.loads(data)).encode())


def _head(command: str, inputs: dict) -> dict:
    return {
        "tool": "tropsplit",
        "version": __version__,
        "command": command,
        "inputs": {k: input_digest(v) for k, v in sorted(inputs.items())},
    }


def graph_report(dec: Decomposition, graph, inputs: dict) -> dict:
    graph = validate_graph(dec, graph)
    w = vertex_positions(dec, graph)
    out = _head("graph-check", inputs)
    out.update(
        {
            "valid": True,
            "realizable": w.realizable,
            "realizable_weakly": w.realizable_weakly,
            "dim": w.dim,
            "vertex_order": list(w.vertex_order),
            "witness": vec_str(w.witness) if w.witness is not None else None,
            "rigid": w.dim == 0 if w.realizable else None,
            "split_edges": list(split_edges(dec, graph)),
        }
    )
    return out


def split_report(q: QuasiSplitGraph, eta, inputs: dict, i_br=None) -> dict:
    cc = cone_condition(q, eta)
    w_dict, disc_dict = q.cone_dicts
    out = _head("split-check", inputs)
    out.update(
        {
            "eta": vec_str(eta),
            "split_order": list(q.split_order),
            "w_cone": thaw(w_dict),
            "w_dim": q.w.dim(),
            "disc_cone": thaw(disc_dict),
            "disc_dim": cc.disc_dim,
            "expected_disc_dim": cc.expected_disc_dim,
            "disc_dim_matches": cc.disc_dim == cc.expected_disc_dim,
            "projected_eta": [vec_str(p) for p in cc.projected_eta],
            "scalings_cone": cone_to_dict(cc.D),
            "cone_condition_holds": cc.holds,
            "genericity_certified": cc.certified,
            "genericity_violations": [
                cc.certificate_labels[i] for i in cc.certificate.violations
            ],
            "accepted": cc.holds and cc.certified,
            "rigid_split": is_rigid_split(q),
        }
    )
    if i_br is not None:
        i_split, i_red = index_shift(q, i_br)
        out["index_shift"] = {"i_br": as_int(i_br), "i_split": i_split, "i_red": i_red}
    return out


def _group_dict(group) -> dict:
    return {
        "complex_dimension": group.complex_dimension,
        "torsion_order": group.torsion_order,
        "exponent_lattice": lattice_to_dict(group.exponent_lattice),
        "variables": ["/".join(str(p) for p in v) for v in group.variables],
    }


def symmetry_report(dec: Decomposition, graph, framed: bool,
                    inputs: dict, split_edge_ids=None) -> dict:
    graph = validate_graph(dec, graph)
    group = symmetry_group(dec, graph, framed=framed, split_edge_ids=split_edge_ids)
    comps = component_splitting(dec, graph, split_edge_ids=split_edge_ids)
    out = _head("symmetry", inputs)
    out.update(
        {
            "framed": framed,
            "group": _group_dict(group),
            "component_splitting": [_group_dict(g) for g in comps],
            "component_dims": [g.complex_dimension for g in comps],
        }
    )
    return out


def mult_report(q: QuasiSplitGraph, inputs: dict) -> dict:
    out = _head("mult", inputs)
    out["multiplicity"] = multiplicity(q)
    return out


def potential_report(normals, constants, lam, inputs: dict) -> dict:
    series = bg_potential(normals, constants, lam)
    out = _head("potential-bg", inputs)
    out.update(
        {
            "num_vars": series.num_vars,
            "num_terms": len(series.terms),
            "series": series_to_list(series),
            "leading": series_to_list(leading_terms(series)),
        }
    )
    return out


def combine_report(series: NovikovSeries, inputs: dict) -> dict:
    out = _head("potential-combine", inputs)
    out.update(
        {
            "num_vars": series.num_vars,
            "series": series_to_list(series),
            "valuation": rat_str(series.valuation()) if not series.is_zero() else None,
        }
    )
    return out


def cut_report(dec: Decomposition, inner: str, lam, inputs: dict) -> dict:
    out = _head("cut", inputs)
    top = sorted(p.id for p in dec.polytopes.values() if p.dim == dec.ambient_dim)
    out.update(
        {
            "decomposition": decomposition_to_dict(dec),
            "inner_cell": inner,
            "num_cells": len(dec.polytopes),
            "num_top_cells": len(top),
            "tropical_fiber": is_tropical_fiber(dec, inner, lam),
        }
    )
    return out
