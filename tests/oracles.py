"""Test oracles: plain, direct computations that the program's fast paths
are checked against.  psu38 itself uses none of them."""

import numpy as np

from psu38.fastops import SubgroupArrays, bunpack, coset_canon_keys
from psu38.grp import SmallGroup
from psu38.psu import Element, PElement


def unpack(key: int) -> tuple[tuple[int, ...], int]:
    """The (matrix, twist) that psu.pack packs into key."""
    twist = key & 7
    key >>= 3
    mat = [0] * 9
    for i in range(8, -1, -1):
        mat[i] = key & 63
        key >>= 6
    return tuple(mat), twist


def element_from_key(field, key: int) -> Element:
    mat, twist = unpack(key)
    return Element(field, mat, twist)


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
    return PElement(element_from_key(ops.field, int(key)))


def rep_element(graph, v: int) -> PElement:
    """The stored representative of vertex v, as a plain PElement."""
    key = int(graph.reps[graph.side_of(v)][graph.local_id(v)])
    return PElement(element_from_key(graph.field, key))


def group_from_keys(graph, keys, name: str = "") -> SmallGroup:
    """graph.group_from_keys, and the group on plain PElements where
    neither K1 nor K2 holds the keys (the stabilizer of a non-base
    vertex)."""
    if graph.ng.interned(keys) is not None:
        return graph.group_from_keys(keys, name)
    return SmallGroup.from_set(
        [PElement(element_from_key(graph.field, int(k))) for k in keys],
        PElement(Element.identity(graph.field)), name)


def vertex_stabilizer(graph, v: int, group: str = "K") -> SmallGroup:
    """The stabilizer of any vertex as a group: the base stabilizer at a
    base vertex, else the group on its stabilizer_keys."""
    if graph.local_id(v) == 0:
        return graph.vertex_stabilizer(v, group)
    return group_from_keys(graph, graph.stabilizer_keys(v, group), f"{group}_v{v}")


def perm_by_images(graph, x: PElement) -> np.ndarray:
    """graph.perm(x) by one whole-graph image_batch (conj_fingerprints on
    every vertex), uncached."""
    return graph.image_batch(np.arange(graph.nv), x.key).astype(np.int32)


def fixers_by_images(graph, keys, gids) -> np.ndarray:
    """graph.fixers by resolving the image of every (vertex, element) pair
    with one rowwise image_batch."""
    keys = np.asarray(keys, dtype=np.uint64)
    gids = np.asarray(gids, dtype=np.int64)
    img = graph.image_batch(np.repeat(gids, len(keys)), np.tile(keys, len(gids)))
    fixed = img.reshape(len(gids), len(keys)) == gids[:, None]
    return np.flatnonzero(fixed.all(axis=0))
