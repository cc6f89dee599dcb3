import contextlib
import io
import sys
from typing import NamedTuple

import pytest

from tropsplit import fixtures as fx
from tropsplit import graphs
from tropsplit.cli import main
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


class CliResult(NamedTuple):
    """What one in-process ``tropsplit`` call wrote and exited with."""

    exit_code: int
    output: str  # stdout and stderr together, in the order written
    stdout: str
    stderr: str
    exception: SystemExit | None  # the exit, unless its code is 0


class _Tee(io.StringIO):
    """A captured stream that also writes into a shared one."""

    def __init__(self, shared):
        super().__init__()
        self.shared = shared

    def write(self, text):
        self.shared.write(text)
        return super().write(text)


def run_cli(args) -> CliResult:
    """Runs ``tropsplit args`` in this process; stdout and stderr are
    captured apart and into one buffer, and the call must end in
    ``SystemExit``, as the console script does."""
    shared = io.StringIO()
    out, err = _Tee(shared), _Tee(shared)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as stop:
            main(args)
    code = stop.value.code
    return CliResult(code, shared.getvalue(), out.getvalue(), err.getvalue(),
                     stop.value if code else None)
