import os
import random
import re

import numpy as np
import pytest

import psu38
from psu38 import fastops
from psu38.coset import CosetGraph, _arm, transversal
from psu38.fastops import (FieldOps, bpack, bunpack, conj_fingerprint_grid,
                           conj_fingerprints, coset_canon_keys, grid_tables, key_tables,
                           linear_conj_keys, lmul_keys, unique_sorted)
from psu38.gf64 import ALT_MODULI, DEFAULT_MODULUS, GF64
from psu38.grp import named_groups
from psu38.psu import IDENTITY, make_generators

import oracles
from oracles import (Element, ProjElement, element_from_key, lmul_tables, obj,
                     subgroup_arrays)


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
    for bit, rep-major, with the inverse and without."""
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
    rkeys = bpack(rm, rt)
    for cm, ct in cs:
        for inverse in (True, False):
            want = oracles.fingerprints_of_repeated_rows(ops, rm, rt, cm, ct, inverse)
            got = conj_fingerprint_grid(ops, rkeys, grid_tables(ops, cm, ct), inverse)
            assert np.array_equal(got, want)


@pytest.mark.parametrize("modulus", (DEFAULT_MODULUS,) + ALT_MODULI, ids=hex)
def test_plane_major_grid_equals_the_block_oracle(modulus):
    """The plane-major grid kernel gives the block-form oracle's keys bit
    for bit, against both sides' probe elements t^-1 y t, both fingerprint
    elements y and k = 1..4 elements c of mixed twists, on n = 0, 1 and
    KEY_CHUNK // k - 1 and + 1 reps of every twist, so across a chunk
    boundary.  Some rows' least keys have a zero entry 0, so bpkeys' lead
    fallback runs on the kernel's planes too."""
    f = GF64(modulus)
    ops = FieldOps(f)
    ng = named_groups(f)
    graph = CosetGraph(f, ng)
    _arm(graph)
    # 9,216 reps, the products of 96 random words of every twist in pairs
    am, at = to_arrays(of_every_twist(f, 96, seed=45))
    a, b = np.divmod(np.arange(96 * 96), 96)
    rm, rt = ops.bsmul(am[a], at[a], am[b], at[b])
    mixed = to_arrays(of_every_twist(f, 12, seed=46))
    cs = [(mixed[0][k:2 * k], mixed[1][k:2 * k]) for k in range(1, 5)]
    for side, K in ((1, ng.K1), (2, ng.K2)):
        tm, tt = bunpack(np.array([t.key for t in transversal(K, ng.K12)], dtype=np.uint64))
        cs.append(ops.bsmul(*ops.bsmul(*ops.binv(tm, tt), *graph.ysets[3 - side]), tm, tt))
        cs.append(graph.ysets[side])
    assert sorted(len(ct) for _, ct in cs) == [1, 1, 1, 2, 3, 3, 4, 4]
    assert all(len(set(ct.tolist())) == len(ct) for _, ct in cs[:4])
    leads = []
    rkeys = bpack(rm, rt)
    for cm, ct in cs:
        k = len(ct)
        for n in (0, 1, fastops.KEY_CHUNK // k - 1, fastops.KEY_CHUNK // k + 1):
            got = conj_fingerprint_grid(ops, rkeys[:n], grid_tables(ops, cm, ct))
            want = oracles.conj_fingerprint_grid_by_blocks(ops, rm[:n], rt[:n], cm, ct)
            assert got.dtype == np.uint64 and got.shape == (n * k,)
            assert np.array_equal(got, want)
            leads.append((got >> np.uint64(51)) & np.uint64(63))
    assert (np.concatenate(leads) == 0).any()


def test_conj_fingerprint_grid_of_no_c_or_no_r_is_empty(graph):
    """k = 0 elements c, like n = 0 elements r, give an empty uint64 array."""
    rkeys = graph.reps[1][:5]
    cm, ct = graph.ysets[1]
    for r, c in ((rkeys, (cm[:0], ct[:0])), (rkeys[:0], (cm, ct)),
                 (rkeys[:0], (cm[:0], ct[:0]))):
        for inverse in (True, False):
            got = conj_fingerprint_grid(graph.ops, r, grid_tables(graph.ops, *c), inverse)
            assert got.dtype == np.uint64 and got.shape == (0,)


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
    other = next(z for z in Z.elems
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
        assert np.array_equal(linear_conj_keys(ops, xm, xt, ckeys), want[None])
        assert np.array_equal(linear_conj_keys(ops, xm, xt, ckeys[::7]), want[None, ::7])


def _keys_of_every_twist(graph, n: int) -> np.ndarray:
    """n packed keys of all six twists: K1 conjugated by the reps of
    side-1 vertices 1, 2, ..., one stabilizer row after another.  (Every
    rep has twist 0, as each transversal is scanned in table order.)"""
    rows = 1 + n // len(graph.kkeys[1, "K"])
    return graph.stabilizer_key_rows(np.arange(1, 1 + rows)).reshape(-1)[:n]


@pytest.mark.parametrize("chunk", [None, 7])
def test_linear_conj_keys_across_chunk_boundaries(graph, monkeypatch, chunk):
    """On 2 KEY_CHUNK + 1 keys (the library's chunk, then a chunk of 7),
    shared by 1 and by 4 x and one row per x for 4 x, with and without the
    inverse columns, the chunked lookups equal the one-shot oracle."""
    if chunk:
        monkeypatch.setattr(fastops, "KEY_CHUNK", chunk)
    n = 2 * fastops.KEY_CHUNK + 1
    ckeys = _keys_of_every_twist(graph, n)
    assert len(ckeys) == n and len(np.unique(ckeys & np.uint64(7))) > 1
    xm, xt = bunpack(graph.kkeys[2, "K"][5:9])
    rows = np.stack([np.roll(ckeys, 5 * a) for a in range(4)])
    for nx, keys in ((1, ckeys), (4, ckeys), (4, rows)):
        for inverse in (True, False):
            got = linear_conj_keys(graph.ops, xm[:nx], xt[:nx], keys, inverse)
            want = oracles.linear_conj_keys_one_shot(graph.ops, xm[:nx], xt[:nx], keys, inverse)
            assert got.dtype == np.uint64 and got.shape == (nx, n)
            assert np.array_equal(got, want)


@pytest.mark.parametrize("batch", [1, 2])
def test_linear_conj_keys_across_batch_boundaries(graph, monkeypatch, batch):
    """With KEY_CHUNK set so that a batch of table sets holds 1 or 2 x,
    2 batch + 1 conjugators (3 batches), keys shared by all and one row per
    x, with and without the inverse columns: the batched lookups equal the
    one-shot oracle, and no key_tables call takes more x than a batch.  No
    x or no key gives an empty block and makes no tables."""
    ckeys = _keys_of_every_twist(graph, 3000)
    nt = len(np.unique(ckeys & np.uint64(7)))
    assert nt > 1
    monkeypatch.setattr(fastops, "KEY_CHUNK", batch * 576 * nt // 2)
    nx = 2 * batch + 1
    xm, xt = bunpack(graph.kkeys[2, "K"][5:5 + nx])
    made = []
    tables = fastops.key_tables
    monkeypatch.setattr(fastops, "key_tables",
                        lambda ops, am, at, *a: made.append(len(at)) or tables(ops, am, at, *a))
    rows = np.stack([np.roll(ckeys, 17 * a) for a in range(nx)])
    for keys in (ckeys, rows):
        for inverse in (True, False):
            want = oracles.linear_conj_keys_one_shot(graph.ops, xm, xt, keys, inverse)
            made.clear()
            got = linear_conj_keys(graph.ops, xm, xt, keys, inverse)
            assert got.dtype == np.uint64 and np.array_equal(got, want)
            assert made == [batch, batch, 1]
    made.clear()
    for x, keys in ((slice(0), ckeys), (slice(0), rows[:0]), (slice(None), ckeys[:0]),
                    (slice(None), rows[:, :0])):
        for inverse in (True, False):
            empty = linear_conj_keys(graph.ops, xm[x], xt[x], keys, inverse)
            assert empty.dtype == np.uint64 and empty.shape == (len(xt[x]), keys.shape[-1])
    assert made == []


def test_conj_fingerprint_grid_is_chunked(graph, monkeypatch):
    """100 reps against 3 elements c, and against a fingerprint element y
    alone: the grid kernel gives one unchunked call's keys whatever
    KEY_CHUNK is, with the inverse and without."""
    rkeys = graph.reps[1][:100]
    cs = [grid_tables(graph.ops, *c) for c in (bunpack(graph.reps[2][:3]), graph.ysets[2])]
    assert 100 * 3 <= fastops.KEY_CHUNK
    runs = [(c, inverse) for c in cs for inverse in (True, False)]
    want = [conj_fingerprint_grid(graph.ops, rkeys, *run) for run in runs]
    for chunk in (1, 2, 7, 299):
        monkeypatch.setattr(fastops, "KEY_CHUNK", chunk)
        for run, w in zip(runs, want):
            assert np.array_equal(conj_fingerprint_grid(graph.ops, rkeys, *run), w)


@pytest.mark.parametrize("modulus", (DEFAULT_MODULUS,) + tuple(ALT_MODULI))
def test_conj_tables_from_bit_matrices_equal_the_unit_matrix_tables(modulus):
    """Under all four moduli, key_tables filled by XOR doubling from the
    54 bit matrices equal the products a E b of all 576 unit matrices E,
    for six pairs (a, b) at once: two random pairs, two with b = 1 (the
    tables of c -> t c) and two with a = b^-1 (of c -> x^-1 c x), the a
    and the b of several twists; each of the 6 twists of c alone, all
    together and {2, 4}, with and without the inverse columns.  With b = 1
    and twists 0..5 they are the left multiplication tables that the rep
    keys were first read from (oracles.lmul_tables)."""
    f = GF64(modulus)
    ops = FieldOps(f)
    xm, xt = to_arrays(of_every_twist(f, 6, seed=33))
    ym, yt = to_arrays(of_every_twist(f, 6, seed=39))
    one = bunpack(np.full(2, IDENTITY, dtype=np.uint64))
    im, it = ops.binv(xm[4:], xt[4:])
    am, at = np.concatenate([xm[:4], im]), np.concatenate([xt[:4], it])
    bm, bt = (np.concatenate([ym[:2], one[0], xm[4:]]),
              np.concatenate([yt[:2], one[1], xt[4:]]))
    assert len(set(at.tolist())) > 3 and len(set(bt.tolist())) > 3
    for inverse in (True, False):
        for twists in [[t] for t in range(6)] + [list(range(6)), [2, 4]]:
            got = key_tables(ops, am, at, bm, bt, twists, inverse)
            want = oracles.key_tables(ops, am, at, bm, bt, twists, inverse)
            assert got.shape == want.shape == (6 * len(twists) * 576, 6 if inverse else 3)
            assert np.array_equal(got, want)
    got = key_tables(ops, am[2:4], at[2:4], bm[2:4], bt[2:4], range(6), False)
    assert np.array_equal(got, lmul_tables(ops, am[2:4], at[2:4]))


@pytest.mark.parametrize("modulus", (DEFAULT_MODULUS,) + tuple(ALT_MODULI))
def test_row_packed_tables_equal_the_bit_doubling_tables(modulus):
    """Under all four moduli, the tables made from row-packed lanes equal
    the bit-doubling oracle's value for value, once its (x, twist, entry,
    value) rows are moved to value-major order: for 1 and 4 x, 1, 2 and 6
    twists, with and without the inverse columns."""
    f = GF64(modulus)
    ops = FieldOps(f)
    xm, xt = to_arrays(of_every_twist(f, 6, seed=36)[2:6])
    assert len(set(xt.tolist())) == 4
    for nx in (1, 4):
        for twists in ([3], [1, 4], list(range(6))):
            for inverse in (True, False):
                x = xm[:nx], xt[:nx]
                got = key_tables(ops, *ops.binv(*x), *x, twists, inverse)
                old = oracles.conj_tables_by_bit_doubling(ops, *x, twists, inverse)
                assert got.shape == old.shape == (nx * len(twists) * 576, 6 if inverse else 3)
                assert np.array_equal(got, oracles.by_value_rows(old, nx, len(twists)))


def test_linear_conj_keys_per_row_elements(f, ops):
    """With one row of keys per x, row a is the keys of x_a alone; without
    the inverse columns they are bpkeys(x^-1 c x)."""
    cs = random_elements(f, 300, seed=34)
    ckeys = np.array([c.key for c in cs], dtype=np.uint64).reshape(4, 75)
    xs = random_elements(f, 4, seed=35)
    xm, xt = to_arrays(xs)
    for inverse in (True, False):
        got = linear_conj_keys(ops, xm, xt, ckeys, inverse=inverse)
        for a in range(len(xs)):
            want = linear_conj_keys(ops, xm[a:a + 1], xt[a:a + 1], ckeys[a], inverse=inverse)
            assert np.array_equal(got[a:a + 1], want)
    im, it = ops.binv(xm, xt)
    cm, ct = bunpack(ckeys.reshape(-1))
    xi = np.repeat(np.arange(4), 75)
    m, t = ops.bsmul(*ops.bsmul(im[xi], it[xi], cm, ct), xm[xi], xt[xi])
    assert np.array_equal(linear_conj_keys(ops, xm, xt, ckeys, inverse=False),
                          ops.bpkeys(m, t).reshape(4, 75))


@pytest.mark.parametrize("modulus", (DEFAULT_MODULUS,) + tuple(ALT_MODULI))
def test_lmul_keys_equal_products(modulus, monkeypatch):
    """Under all four moduli, for every element t_j of both transversals
    (all of twist 0) and for 6 random t of all six twists, against 60
    random elements r of all six twists, each given by its packed key and
    by its projective key: the table lookups give bpkeys(t r), as one
    bsmul and bpkeys per key give it, also in chunks of 7 keys and on no
    keys."""
    f = GF64(modulus)
    ng = named_groups(f)
    ops = FieldOps(f)
    rs = of_every_twist(f, 60, seed=37)
    raw = np.array([r.key for r in rs], dtype=np.uint64)
    canon = ops.bpkeys(*bunpack(raw))
    assert not np.array_equal(raw, canon)
    ts = [np.array([t.key for t in transversal(K, ng.K12)], dtype=np.uint64)
          for K in (ng.K1, ng.K2)]
    for tkeys in ts + [np.array([t.key for t in of_every_twist(f, 6, seed=38)], dtype=np.uint64)]:
        tm, tt = bunpack(tkeys)
        tables = lmul_tables(ops, tm, tt)
        assert tables.shape == (64 * len(tt) * 6 * 9, 3)
        tidx = np.repeat(np.arange(len(tt)), len(raw))
        for rkeys in (np.tile(raw, len(tt)), np.tile(canon, len(tt))):
            want = oracles.rep_keys_by_products(ops, tm, tt, rkeys, tidx)
            assert np.array_equal(lmul_keys(tables, rkeys, tidx), want)
            with monkeypatch.context() as m:
                m.setattr(fastops, "KEY_CHUNK", 7)
                assert np.array_equal(lmul_keys(tables, rkeys, tidx), want)
        empty = lmul_keys(tables, np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.intp))
        assert empty.dtype == np.uint64 and empty.shape == (0,)


def test_unique_sorted_equals_np_unique():
    """On uint64 keys with repeats, keys of 2^63 and more among them, on
    no key, one key and all-equal keys: the sorted distinct values equal
    np.unique's, and with index the first indices and the inverse equal
    those of np.unique(..., return_index=True, return_inverse=True)."""
    rng = np.random.default_rng(43)
    big = rng.integers(0, 1 << 62, 300, dtype=np.uint64) | np.uint64(1 << 63)
    cases = [rng.integers(0, 50, 1000).astype(np.uint64),
             np.concatenate([big, big[::3], rng.integers(0, 9, 200, dtype=np.uint64)])[
                 rng.permutation(600)],
             np.zeros(0, dtype=np.uint64), np.array([7], dtype=np.uint64),
             np.full(40, np.uint64(1 << 63) + np.uint64(5)), rng.integers(0, 100, 57)]
    for a in cases:
        assert np.array_equal(unique_sorted(a), np.unique(a))
        got = unique_sorted(a, index=True)
        want = oracles.unique_by_np_unique(a)
        assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))
    assert (cases[1] >= np.uint64(1 << 63)).any()


def test_no_np_unique_in_the_program():
    """No np.unique( call under src/psu38: numpy 2 dedups plain integer
    arrays by hashing, several times slower here than one sort and an
    adjacent difference, so fastops.unique_sorted is the program's one
    dedup."""
    src = os.path.dirname(psu38.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                for n, line in enumerate(fh, 1):
                    code = line.split("#")[0]
                    assert not re.search(r"np\.unique\(", code), f"{name}:{n}: {line.strip()}"
