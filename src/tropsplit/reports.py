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
    vec_str,
    vec_str_over,
)
from .splitting import QuasiSplitGraph, cone_condition, index_shift, is_rigid_split
from .symmetry import component_splitting, multiplicity, symmetry_group


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _input_digests(inputs: dict) -> dict:
    """``{k: digest(canonical_json(v).encode()) for k, v in sorted(inputs.items())}``,
    memoized under one key for the whole mapping, ``marshal.dumps(inputs)``.

    Marshal writes exact builtin types only (``True``, ``1`` and ``1.0``
    give different bytes, as do ``-0.0`` and ``0.0``), and a value changed
    in place, however deep, gives new bytes, so a new key: no memo is keyed
    by identity.  ``_digests_of`` digests what it loads back from the key,
    so an entry cannot disagree with its key.  Marshal refuses a subclass
    of ``str``, ``int`` or ``dict``, a ``Fraction`` and too-deep nesting
    (``ValueError``), and writes any other buffer object (a NumPy scalar,
    say) as bytes, which ``canonical_json`` refuses (``TypeError``).  Either
    error digests each value uncached, with the same digests or the same
    exception.  Marshal writes a cyclic value and loads it back cyclic;
    ``canonical_json``, which keeps no markers, raises ``RecursionError``
    on it, as on the uncached route.
    """
    try:
        return dict(_digests_of(marshal.dumps(inputs)))
    except (TypeError, ValueError):
        return {k: digest(canonical_json(v).encode()) for k, v in sorted(inputs.items())}


@functools.lru_cache(maxsize=64)
def _digests_of(data: bytes) -> tuple:
    return tuple((k, digest(canonical_json(v).encode()))
                 for k, v in sorted(marshal.loads(data).items()))


def _head(command: str, inputs: dict) -> dict:
    return {
        "tool": "tropsplit",
        "version": __version__,
        "command": command,
        "inputs": _input_digests(inputs),
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
    """The ``split-check`` report of q for the cone direction eta.

    Its values are computed in the order they always were (the wire forms
    of w, Disc and D in that order) and laid out in sorted key order, as
    are those of ``index_shift`` and of each wire form, so that the
    encoder's key sort is one linear pass per dict."""
    eta = tuple(eta)  # read once: the direction tested is the one written
    cc = cone_condition(q, eta)
    digests = _input_digests(inputs)
    eta_str = vec_str(eta)
    split_order = list(q.split_order)
    w_cone = cone_to_dict(q.w)
    w_dim = q.w.minimal().dim()
    disc_cone = cone_to_dict(q.disc.disc)
    projected = [vec_str_over(p, cc.den) for p in cc.projected_num]
    scalings_cone = cone_to_dict(cc.D)
    violations = [cc.certificate.labels[i] for i in cc.certificate.violations]
    rigid = is_rigid_split(q)
    shift = {}
    if i_br is not None:
        i_split, i_red = index_shift(q, i_br)
        shift["index_shift"] = {"i_br": as_int(i_br), "i_red": i_red, "i_split": i_split}
    return {
        "accepted": cc.holds and cc.certified,
        "command": "split-check",
        "cone_condition_holds": cc.holds,
        "disc_cone": disc_cone,
        "disc_dim": cc.disc_dim,
        "disc_dim_matches": cc.disc_dim == cc.expected_disc_dim,
        "eta": eta_str,
        "expected_disc_dim": cc.expected_disc_dim,
        "genericity_certified": cc.certified,
        "genericity_violations": violations,
        **shift,
        "inputs": digests,
        "projected_eta": projected,
        "rigid_split": rigid,
        "scalings_cone": scalings_cone,
        "split_order": split_order,
        "tool": "tropsplit",
        "version": __version__,
        "w_cone": w_cone,
        "w_dim": w_dim,
    }


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
