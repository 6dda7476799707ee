import os

import numpy as np
import pytest

from psu38 import harness
from psu38.coset import build_graph, sparse6_bytes
from psu38.gf64 import GF64
from psu38.grp import named_groups
from psu38.harness import VerifyContext

# passed by the acceptance suite; VerifyContext ignores it
CACHE_DIR = os.path.join(os.path.dirname(__file__), "..", ".psu38_cache")


@pytest.fixture(scope="session")
def field():
    return GF64()


@pytest.fixture(scope="session")
def ctx():
    return VerifyContext()


@pytest.fixture(scope="session")
def ng(ctx):
    return ctx.ng


@pytest.fixture(scope="session")
def refs(ctx):
    return ctx.refs


@pytest.fixture(scope="session")
def graph(ctx):
    return ctx.graph


@pytest.fixture(scope="session")
def graph43():
    """The graph built under the modulus 0x43."""
    return build_graph(named_groups(GF64(0b1000011)))


@pytest.fixture(scope="session")
def sparse6_full(graph):
    """The session graph's sparse6 bytes, as export_sparse6 writes them,
    and networkx's decoding of them, made once per session."""
    import networkx as nx
    data = sparse6_bytes(graph.nv, np.stack(graph._edge_ends(), 1))
    return data, nx.from_sparse6_bytes(data.strip())


@pytest.fixture
def builds(monkeypatch, graph):
    """The session's graph stands in for the builds of the CLI and of
    fresh contexts; the list gets one modulus per build."""
    made = []

    def standin(ng, progress=None):
        made.append(ng.field.modulus)
        return graph
    monkeypatch.setattr(harness, "build_graph", standin)
    return made
