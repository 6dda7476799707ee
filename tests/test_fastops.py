import random

import numpy as np
import pytest

from psu38 import fastops
from psu38.coset import CosetGraph, _arm, transversal
from psu38.fastops import (FieldOps, bpack, bunpack, conj_fingerprint_grid,
                           conj_fingerprints, conj_tables, coset_canon_keys,
                           linear_conj_keys)
from psu38.gf64 import ALT_MODULI, DEFAULT_MODULUS, GF64
from psu38.grp import named_groups
from psu38.psu import make_generators

import oracles
from oracles import Element, ProjElement, element_from_key, obj, subgroup_arrays


@pytest.fixture(scope="module")
def f():
    return GF64()


@pytest.fixture(scope="module")
def ops(f):
    return FieldOps(f)


def random_elements(f, n, seed=23, sigma=True):
    """n random words in the generators, as oracle Elements."""
    g = {k: element_from_key(f, v) for k, v in make_generators(f).items()}
    names = list("ABCDEF") + (["sigma"] if sigma else [])
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        el = Element.identity(f)
        for _ in range(rng.randint(1, 15)):
            el = el * g[rng.choice(names)]
        out.append(el)
    return out


def of_every_twist(f, n, seed):
    """n random words without sigma, the i-th times sigma^(i mod 6), so
    each twist comes n/6 times."""
    sigma = element_from_key(f, make_generators(f)["sigma"])
    out = random_elements(f, n, seed, sigma=False)
    for i in range(n):
        for _ in range(i % 6):
            out[i] = out[i] * sigma
    assert sorted({x.twist for x in out}) == list(range(6))
    return out


def to_arrays(els):
    keys = np.array([e.key for e in els], dtype=np.uint64)
    return bunpack(keys)


def test_pack_roundtrip(f):
    els = random_elements(f, 40)
    keys = np.array([e.key for e in els], dtype=np.uint64)
    mats, tw = bunpack(keys)
    assert np.array_equal(bpack(mats, tw), keys)


def test_bsmul_matches_element_mul(f, ops):
    """bsmul against the oracle's Element products."""
    a = random_elements(f, 60, seed=1)
    b = random_elements(f, 60, seed=2)
    am, at = to_arrays(a)
    bm, bt = to_arrays(b)
    cm, ct = ops.bsmul(am, at, bm, bt)
    got = bpack(cm, ct)
    want = np.array([(x * y).key for x, y in zip(a, b)], dtype=np.uint64)
    assert np.array_equal(got, want)


def test_binv_matches_element_inv(f, ops):
    a = random_elements(f, 60, seed=3)
    am, at = to_arrays(a)
    im, it = ops.binv(am, at)
    got = bpack(im, it)
    want = np.array([x.inv().key for x in a], dtype=np.uint64)
    assert np.array_equal(got, want)


def test_bpkeys_matches_pelement(f, ops):
    a = random_elements(f, 80, seed=4)
    am, at = to_arrays(a)
    got = ops.bpkeys(am, at)
    want = np.array([ProjElement(x).key for x in a], dtype=np.uint64)
    assert np.array_equal(got, want)


def test_bpkeys_is_min_of_three_scalar_multiples(f, ops):
    """The scalar chosen from the first nonzero entry gives the least of
    the three packings, also when the leading entries are zero."""
    rng = np.random.default_rng(13)
    mats = rng.integers(0, 64, size=(3000, 3, 3), dtype=np.uint8)
    flat = mats.reshape(-1, 9)
    for i in range(len(flat)):
        flat[i, :i % 9] = 0          # 0 to 8 leading zeros
    am, at = to_arrays(random_elements(f, 60, seed=14))
    mats = np.concatenate([mats, am])
    tw = np.concatenate([rng.integers(0, 6, 3000).astype(np.uint8), at])
    want = np.minimum(np.minimum(bpack(mats, tw), bpack(f.MUL[f.alpha][mats], tw)),
                      bpack(f.MUL[f.alpha2][mats], tw))
    assert np.array_equal(ops.bpkeys(mats, tw), want)


@pytest.mark.parametrize("modulus", (DEFAULT_MODULUS,) + ALT_MODULI, ids=hex)
def test_bpkeys_equals_the_argmax_formula(modulus):
    """The lead entry read as entry 0, found by argmax only where that is
    0, gives the old formula's keys: on rows with 0 to 9 leading zeros (a
    whole first row zero, the zero matrix) and on elements of every twist;
    with Frobenius powers, the keys of rho^f of the matrices, transposed
    views included."""
    f = GF64(modulus)
    ops = FieldOps(f)
    rng = np.random.default_rng(41)
    mats = rng.integers(0, 64, size=(2000, 3, 3), dtype=np.uint8)
    flat = mats.reshape(-1, 9)
    for i in range(len(flat)):
        flat[i, :i % 10] = 0
    assert not mats[3, 0].any() and not mats[9].any()
    am, at = to_arrays(of_every_twist(f, 60, seed=42))
    mats = np.concatenate([mats, am])
    tw = np.concatenate([rng.integers(0, 6, 2000).astype(np.uint8), at])
    assert np.array_equal(ops.bpkeys(mats, tw), oracles.bpkeys_by_argmax(ops, mats, tw))
    frob = rng.integers(0, 6, len(tw))
    for m in (mats, mats.transpose(0, 2, 1)):
        want = oracles.bpkeys_by_argmax(ops, f.FROB[frob[:, None, None], m], tw)
        assert np.array_equal(ops.bpkeys(m, tw, frob), want)


@pytest.mark.parametrize("modulus", (DEFAULT_MODULUS,) + ALT_MODULI, ids=hex)
def test_conj_fingerprint_grid_equals_conj_fingerprints_on_repeated_rows(modulus):
    """Reps of all six twists against both sides' probe elements t^-1 y t,
    both fingerprint elements y and elements of every twist: the
    one-product kernel gives conj_fingerprints' keys on repeated rows, bit
    for bit, rep-major."""
    f = GF64(modulus)
    ops = FieldOps(f)
    ng = named_groups(f)
    graph = CosetGraph(f, ng)
    _arm(graph)
    rm, rt = to_arrays(of_every_twist(f, 300, seed=43))
    mixed = to_arrays(of_every_twist(f, 12, seed=44))
    cs = [mixed, (mixed[0][:1], mixed[1][:1])]
    for side, K in ((1, ng.K1), (2, ng.K2)):
        tm, tt = bunpack(np.array([t.key for t in transversal(K, ng.K12)], dtype=np.uint64))
        cs.append(ops.bsmul(*ops.bsmul(*ops.binv(tm, tt), *graph.ysets[3 - side]), tm, tt))
        cs.append(graph.ysets[side])
    for cm, ct in cs:
        want = oracles.fingerprints_of_repeated_rows(ops, rm, rt, cm, ct)
        assert np.array_equal(conj_fingerprint_grid(ops, rm, rt, cm, ct), want)


def test_coset_canon_against_bruteforce(f, ops, ng):
    """Exact oracle: scan every subgroup multiple in python."""
    sub = subgroup_arrays(ops, ng.S)
    probes = [ProjElement(x) for x in random_elements(f, 12, seed=5)]
    pm, pt = to_arrays([p.el for p in probes])
    got = coset_canon_keys(ops, sub, pm, pt)
    for i, pr in enumerate(probes):
        want = min((obj(k) * pr).key for k in ng.S.elems)
        assert int(got[i]) == want


def test_coset_canon_is_coset_invariant(f, ops, ng):
    sub = subgroup_arrays(ops, ng.Qh2)
    rng = random.Random(9)
    probes = [ProjElement(x) for x in random_elements(f, 8, seed=6)]
    shifted = [obj(rng.choice(ng.Qh2.elems)) * p for p in probes]
    pm, pt = to_arrays([p.el for p in probes])
    sm, st = to_arrays([p.el for p in shifted])
    assert np.array_equal(coset_canon_keys(ops, sub, pm, pt),
                          coset_canon_keys(ops, sub, sm, st))


def test_fingerprint_invariance(f, ops, ng):
    """The pair kernel is the least key of a^-1 y a and of its inverse, for
    rowwise or broadcast a and y, and it is constant on the cosets K.a
    when {1, y, y^-1} is normal in K: Z(K1) on side 1, the graph's Y2 on
    side 2.  Another order-3 subgroup of Z(Qh2) is not coset-invariant."""
    g = CosetGraph(ng.field, ng)
    _arm(g)
    y1, y2 = (obj(bpack(*g.ysets[s])[0], ng.field) for s in (1, 2))
    rng = random.Random(10)
    probes = [ProjElement(x) for x in random_elements(f, 10, seed=8)]
    pm, pt = to_arrays([p.el for p in probes])
    for y, K in ((y1, ng.K1), (y2, ng.K2)):
        ym, yt = to_arrays([y.el])
        shifted = [obj(rng.choice(K.elems)) * p for p in probes]
        fa = conj_fingerprints(ops, pm, pt, ym, yt)
        assert np.array_equal(fa, conj_fingerprints(
            ops, *to_arrays([p.el for p in shifted]), ym, yt))
        want = [min((p.inv() * y * p).key, (p.inv() * y.inv() * p).key)
                for p in probes]
        assert fa.tolist() == want
        # y rowwise against one a, and both rowwise
        ys = [p.inv() * y * p for p in probes]
        a = probes[3]
        got = conj_fingerprints(ops, *to_arrays([a.el]), *to_arrays([c.el for c in ys]))
        assert got.tolist() == [min((a.inv() * c * a).key, (a.inv() * c.inv() * a).key)
                                for c in ys]
        rows = conj_fingerprints(ops, pm, pt, *to_arrays([c.el for c in ys]))
        assert rows.tolist() == [min((p.inv() * c * p).key, (p.inv() * c.inv() * p).key)
                                 for p, c in zip(probes, ys)]
    Z = ng.Qh2.center()
    other = next(z for z in Z.sorted_elems()
                 if z.key not in (Z.identity.key, y2.key, y2.inv().key))
    om, ot = to_arrays([other])
    shifted = [obj(k) * p for p in probes for k in ng.K2.gens_list()]
    moved = conj_fingerprints(ops, *to_arrays([s.el for s in shifted]), om, ot)
    fixed = np.repeat(conj_fingerprints(ops, pm, pt, om, ot), len(ng.K2.gens_list()))
    assert not np.array_equal(moved, fixed)


def test_linear_conj_keys_match_conj_fingerprints(f, ops):
    """On a batch of every twist, for several x with and without sigma,
    the table lookups give conj_fingerprints' keys bit for bit."""
    cs = random_elements(f, 400, seed=31)
    ckeys = np.array([c.key for c in cs], dtype=np.uint64)
    assert len(np.unique(ckeys & np.uint64(7))) == 6
    for x in random_elements(f, 6, seed=32):
        xm, xt = to_arrays([x])
        want = conj_fingerprints(ops, xm, xt, *bunpack(ckeys))
        assert np.array_equal(linear_conj_keys(ops, xm, xt, ckeys), want)
        assert np.array_equal(linear_conj_keys(ops, xm, xt, ckeys[::7]), want[::7])


@pytest.mark.parametrize("chunk", [None, 7])
def test_linear_conj_keys_across_chunk_boundaries(graph, monkeypatch, chunk):
    """On 2 KEY_CHUNK + 1 rows (the library's chunk, then a chunk of 7),
    with and without a row index and the inverse columns, the chunked
    lookups equal the one-shot oracle."""
    if chunk:
        monkeypatch.setattr(fastops, "KEY_CHUNK", chunk)
    n = 2 * fastops.KEY_CHUNK + 1
    ckeys = np.concatenate([graph.reps[1], graph.reps[2]])[:n]
    assert len(ckeys) == n and len(np.unique(ckeys & np.uint64(7))) > 1
    xm, xt = bunpack(graph.reps[2][5:9])
    for xidx in (None, np.arange(n) % 4):
        for inverse in (True, False):
            got = linear_conj_keys(graph.ops, xm, xt, ckeys, xidx, inverse)
            want = oracles.linear_conj_keys_one_shot(graph.ops, xm, xt, ckeys, xidx, inverse)
            assert got.dtype == np.uint64 and np.array_equal(got, want)


def test_conj_fingerprint_grid_is_chunked(graph, monkeypatch):
    """100 reps against 3 elements c, and against a fingerprint element y
    alone: the grid kernel gives one unchunked call's keys whatever
    KEY_CHUNK is."""
    rm, rt = bunpack(graph.reps[1][:100])
    cs = [bunpack(graph.reps[2][:3]), graph.ysets[2]]
    assert 100 * 3 <= fastops.KEY_CHUNK
    want = [conj_fingerprint_grid(graph.ops, rm, rt, *c) for c in cs]
    for chunk in (1, 2, 7, 299):
        monkeypatch.setattr(fastops, "KEY_CHUNK", chunk)
        for c, w in zip(cs, want):
            assert np.array_equal(conj_fingerprint_grid(graph.ops, rm, rt, *c), w)


@pytest.mark.parametrize("modulus", (DEFAULT_MODULUS, ALT_MODULI[0]))
def test_conj_tables_from_bit_matrices_equal_the_unit_matrix_tables(modulus):
    """Tables filled by XOR doubling from the 54 bit matrices equal the
    tables of all 576 unit matrices, for six x at once (one of each
    twist), each of the 6 twists of c alone, all together and {2, 4},
    with and without the inverse columns."""
    f = GF64(modulus)
    ops = FieldOps(f)
    sigma = element_from_key(f, make_generators(f)["sigma"])
    xs = random_elements(f, 6, seed=33, sigma=False)
    for k in range(6):
        for _ in range(k):
            xs[k] = xs[k] * sigma
    xm, xt = to_arrays(xs)
    assert xt.tolist() == list(range(6))
    for inverse in (True, False):
        for twists in [[t] for t in range(6)] + [list(range(6)), [2, 4]]:
            got = conj_tables(ops, xm, xt, twists, inverse)
            want = oracles.conj_tables(ops, xm, xt, twists, inverse)
            assert got.shape == want.shape == (6 * len(twists) * 576, 6 if inverse else 3)
            assert np.array_equal(got, want)


def test_linear_conj_keys_per_row_elements(f, ops):
    """With a row index naming each row's x, the keys are those of one x
    at a time; without the inverse columns they are bpkeys(x^-1 c x)."""
    cs = random_elements(f, 300, seed=34)
    ckeys = np.array([c.key for c in cs], dtype=np.uint64)
    xs = random_elements(f, 4, seed=35)
    xm, xt = to_arrays(xs)
    xidx = np.arange(len(ckeys)) % len(xs)
    for inverse in (True, False):
        got = linear_conj_keys(ops, xm, xt, ckeys, xidx, inverse=inverse)
        for a in range(len(xs)):
            rows = xidx == a
            want = linear_conj_keys(ops, xm[a:a + 1], xt[a:a + 1], ckeys[rows],
                                    inverse=inverse)
            assert np.array_equal(got[rows], want)
    im, it = ops.binv(xm, xt)
    cm, ct = bunpack(ckeys)
    m, t = ops.bsmul(*ops.bsmul(im[xidx], it[xidx], cm, ct), xm[xidx], xt[xidx])
    assert np.array_equal(linear_conj_keys(ops, xm, xt, ckeys, xidx, inverse=False),
                          ops.bpkeys(m, t))
