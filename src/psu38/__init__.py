"""Coset graph of PSU_3(8) on 59,584 vertices: construction and
mechanical verification of its local 5-arc transitivity and vertex
stabilizer structure."""

__version__ = "0.1.0"

from .gf64 import GF64, DEFAULT_MODULUS
from .psu import PElement, make_generators, pgenerators, check_relations
from .grp import SmallGroup, iso_check, is_split_extension, named_groups, reference_groups
from .coset import CosetGraph, build_graph, save_cache, load_cache
from .harness import VerifyContext, run_claims, main

__all__ = [
    "GF64", "DEFAULT_MODULUS", "PElement", "make_generators",
    "pgenerators", "check_relations", "SmallGroup", "iso_check",
    "is_split_extension", "named_groups", "reference_groups", "CosetGraph",
    "build_graph", "save_cache", "load_cache", "VerifyContext", "run_claims",
    "main",
]
