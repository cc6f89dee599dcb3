import sys

import pytest

from tropsplit import fixtures as fx
from tropsplit import graphs
from tropsplit.serialize import decomposition_from_dict, graph_from_dict
from tropsplit.splitting import QuasiSplitGraph


@pytest.fixture(scope="session")
def square_plain():
    return decomposition_from_dict(fx.square_complex(split=()))


@pytest.fixture(scope="session")
def square_split():
    return decomposition_from_dict(fx.square_complex())


@pytest.fixture(scope="session")
def cube_split():
    return decomposition_from_dict(fx.cube_complex())


def graph(name):
    return graph_from_dict(fx.GRAPHS[name]())


def quasi(dec, top_name, split_order=None, partial=False):
    top_dict = fx.GRAPHS[top_name]()
    base_dict = fx.GRAPHS[top_dict["collapse"]["to_graph"]]()
    return QuasiSplitGraph(
        dec,
        graph_from_dict(base_dict),
        graph_from_dict(top_dict),
        top_dict["collapse"]["vertex_map"],
        split_order=split_order,
        partial=partial,
    )


def graph_checks(monkeypatch) -> list:
    """The graphs ``validate_graph`` checks from now on, counted in every
    module that binds it.  A graph it returns unchanged, already checked
    against the same decomposition, is not counted."""
    checked = []
    original = graphs.validate_graph

    def counted(dec, g):
        result = original(dec, g)
        if result is not g:
            checked.append(g)
        return result

    for name, module in list(sys.modules.items()):
        if name.startswith("tropsplit") and getattr(module, "validate_graph", None) is original:
            monkeypatch.setattr(module, "validate_graph", counted)
    return checked
