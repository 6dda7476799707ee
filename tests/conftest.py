import os

import pytest

from psu38.coset import build_graph
from psu38.gf64 import GF64
from psu38.grp import named_groups, reference_groups
from psu38.harness import VerifyContext

CACHE_DIR = os.environ.get(
    "AMALGAM_CACHE_DIR", os.path.join(os.path.dirname(__file__), "..", ".psu38_cache")
)


@pytest.fixture(scope="session")
def field():
    return GF64()


@pytest.fixture(scope="session")
def ctx():
    return VerifyContext(cache_dir=CACHE_DIR)


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
