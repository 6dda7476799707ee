"""Test oracles: plain, direct computations that the program's fast paths
are checked against.  psu38 itself uses none of them."""

import numpy as np

from psu38.fastops import SubgroupArrays, bunpack, coset_canon_keys
from psu38.psu import Element, PElement


def scalar_mul(el: Element, s: int) -> Element:
    """el with its matrix scaled by the field element s, twist kept."""
    row = el.field.mulrows[s]
    return Element(el.field, tuple([row[v] for v in el.mat]), el.twist)


def subgroup_arrays(ops, G) -> SubgroupArrays:
    """The canonical-form scan's arrays for the elements of G."""
    return SubgroupArrays(ops, (x.key for x in G.elems))


def coset_canon(ops, sub: SubgroupArrays, g: PElement) -> PElement:
    """Least representative of the coset K.g by an exact scan; an oracle
    for the fingerprint key."""
    pm, pt = bunpack(np.array([g.key], dtype=np.uint64))
    key = coset_canon_keys(ops, sub, pm, pt)[0]
    return PElement(Element.from_key(ops.field, int(key)))


def rep_element(graph, v: int) -> PElement:
    """The stored representative of vertex v, as a plain PElement."""
    key = int(graph.reps[graph.side_of(v)][graph.local_id(v)])
    return PElement(Element.from_key(graph.field, key))
