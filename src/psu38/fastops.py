"""Vectorized kernels: batched GF(64) matrix algebra on packed element
arrays, the one implementation of the program's matrix products.

Element batches are (m,3,3) uint8 matrices plus (m,) uint8 twists.
Packed keys are uint64 (bpack: 9 entries of 6 bits, row-major, first
entry most significant, then the twist in the low 3 bits); comparing keys
as integers is the "lexicographically least" order of canonical forms.
psu's elements, the group tables of grp and the graph all hold packed
keys and reach products, inverses and canonical keys (bsmul, binv,
bpkeys) through bunpack and bpack.  Everything here is pure and
deterministic.  The graph conjugates by two kernels, one per shape, each
KEY_CHUNK rows at a time and each keying, with inverse, the least key of
the conjugate and its inverse, and without, the conjugate's key alone:
conj_fingerprint_grid, r^-1 c r for many packed r against a few c (whose
grid_tables a caller can make once) at one matrix product each, over 9
entry planes shifted out of KEY_CHUNK // k of the r (vertex keys, BFS
probes, images of a vertex), and linear_conj_keys, x^-1 c x for a few x
against a block of c by 9 lookups each in key_tables, the one builder of
tables of c -> a c b (the whole-graph action, stabilizer keys and the
fixer test); the BFS keys a new vertex's rep t r by 9 lookups in those of
c -> t c (lmul_keys).
conj_fingerprints, the same key rowwise, and coset_canon_keys, the exact
canonical-form scan, are test oracles that the benchmark's spans wrap by
name.  unique_sorted dedups by one sort and adjacent differences, not
np.unique, which numpy 2 runs by hashing.
"""

from __future__ import annotations

import numpy as np

from .gf64 import GF64

U64 = np.uint64
_W = (U64(64) ** np.arange(8, -1, -1, dtype=np.uint64)) * U64(8)
KEY_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)
KEY_CHUNK = 8192  # rows per fingerprint, lookup or adjacency kernel call; bounds their temporaries
# bit offset of matrix entry j in a packed key
_SHIFT = U64(3) + U64(6) * np.arange(8, -1, -1, dtype=np.uint64)
_ROW = _SHIFT[[2, 5, 8]]  # bit offset of matrix row r (its last entry) in a packed key


def bpack(mats: np.ndarray, tw: np.ndarray) -> np.ndarray:
    """(m,3,3)+(m,) -> (m,) uint64 keys."""
    flat = mats.reshape(len(mats), 9).astype(np.uint64)
    return flat @ _W + tw.astype(np.uint64)


def bunpack(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keys = np.asarray(keys, dtype=np.uint64)
    m = len(keys)
    tw = (keys & U64(7)).astype(np.uint8)
    rest = keys >> U64(3)
    mats = np.zeros((m, 9), dtype=np.uint8)
    for i in range(8, -1, -1):
        mats[:, i] = (rest & U64(63)).astype(np.uint8)
        rest = rest >> U64(6)
    return mats.reshape(m, 3, 3), tw


class FieldOps:
    """numpy views of one GF64 instance's tables."""

    def __init__(self, field: GF64):
        self.field = field
        self.MUL = field.MUL
        self.MULF = field.MUL.reshape(-1)  # MULF[a << 6 | b] = a.b
        self.MUL64 = field.MUL.astype(np.uint64)  # MUL widened, to pack key rows
        self.FROB = field.FROB
        self.LEAD = np.array(field.lead_scalar, dtype=np.uint8)
        # SCALE[f << 12 | a << 6 | z] = lead_scalar[rho^f(a)] . rho^f(z): entry
        # z of rho^f(X) scaled to the least multiple when a leads X
        self.SCALE = self.MUL[self.LEAD[self.FROB][:, :, None],
                              self.FROB[:, None, :]].reshape(-1)

    # -- batched element algebra ---------------------------------------

    def bmm(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Rowwise GF matmul: (m,3,3) x (m,3,3) -> (m,3,3), one gather
        on the flat product table per inner index k."""
        return self.bmm6(A.astype(np.uint16) << 6, B)

    def bmm6(self, A6: np.ndarray, B: np.ndarray) -> np.ndarray:
        """bmm of A = A6 >> 6, its entries given as flat product-table
        offsets; the leading axes of A6 and B broadcast."""
        X = np.take(self.MULF, A6[..., :, 0, None] | B[..., None, 0, :])
        X ^= np.take(self.MULF, A6[..., :, 1, None] | B[..., None, 1, :])
        X ^= np.take(self.MULF, A6[..., :, 2, None] | B[..., None, 2, :])
        return X

    def bsmul(self, gm, gt, hm, ht):
        """Rowwise semilinear product (gm.rho^gt(hm), gt+ht)."""
        hf = self.FROB[gt[:, None, None], hm]
        return self.bmm(gm, hf), (gt + ht) % 6

    def binv(self, gm, gt):
        """Rowwise inverse of unitary semilinear elements."""
        ms = self.FROB[3, gm.transpose(0, 2, 1)]
        e2 = ((6 - gt) % 6).astype(np.uint8)
        return self.FROB[e2[:, None, None], ms], e2

    def bpkeys(self, mats, tw, frob=None) -> np.ndarray:
        """Projective canonical keys: min over the 3 scalar multiples, of
        rho^frob[i](mats[i]) with twist tw[i] (of mats itself without frob).

        Scaling keeps the zero pattern, and the first nonzero entry m0 is
        the most significant nonzero field of the key, so the least
        multiple is the one scaled by GF64.lead_scalar[m0]; one packing
        suffices.  m0 is entry 0 but for the rare rows where that is 0.
        One gather in SCALE applies the Frobenius power and the scalar."""
        flat = mats.reshape(len(mats), 9)
        lead = flat[:, 0]
        zero = np.flatnonzero(lead == 0)
        if len(zero):
            lead = lead.copy()
            rows = flat[zero]
            lead[zero] = rows[np.arange(len(zero)), (rows != 0).argmax(axis=1)]
        at = lead.astype(np.uint16) << 6
        if frob is not None:
            at |= np.asarray(frob, dtype=np.uint16) << 12
        scaled = np.take(self.SCALE, at[:, None] | flat)
        key = tw.astype(np.uint64)
        for j in range(9):
            key |= scaled[:, j].astype(np.uint64) << _SHIFT[j]
        return key


class SubgroupArrays:
    """A subgroup's canonical elements, grouped by twist for the
    canonical-form scan."""

    def __init__(self, ops: FieldOps, keys):
        keys = np.sort(np.asarray(list(keys), dtype=np.uint64))
        self.ops = ops
        mats, tw = bunpack(keys)
        self.by_twist = []
        for e in range(6):
            sel = tw == e
            if sel.any():
                self.by_twist.append((e, np.ascontiguousarray(mats[sel])))
        self.n = len(keys)


def coset_canon_keys(
    ops: FieldOps,
    sub: SubgroupArrays,
    pm: np.ndarray,
    pt: np.ndarray,
    chunk: int = 256,
) -> np.ndarray:
    """Canonical representative key per probe: the minimum packed
    serialization over all subgroup multiples k*g and the 3 projective
    scalars.  An exact scan, kept as a test oracle for the vertex key."""
    parts = []
    for lo in range(0, len(pm), chunk):
        hi = min(len(pm), lo + chunk)
        pmats = pm[lo:hi]
        ptw = pt[lo:hi]
        best = np.full(hi - lo, KEY_MAX, dtype=np.uint64)
        for e, kmats in sub.by_twist:
            R = ops.FROB[e, pmats]  # (b,3,3)
            X = ops.MUL[kmats[:, None, :, :, None], R[None, :, None, :, :]]
            Cm = X[:, :, :, 0, :] ^ X[:, :, :, 1, :] ^ X[:, :, :, 2, :]
            twp = ((e + ptw) % 6).astype(np.uint8)
            n = len(kmats)
            b = hi - lo
            flat = Cm.reshape(n * b, 3, 3)
            twf = np.broadcast_to(twp, (n, b)).reshape(-1)
            keys = ops.bpkeys(flat, twf).reshape(n, b)
            np.minimum(best, keys.min(axis=0), out=best)
        parts.append(best)
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint64)


def conj_fingerprints(
    ops: FieldOps, am: np.ndarray, at: np.ndarray, ym: np.ndarray, yt: np.ndarray,
    inverse: bool = True,
) -> np.ndarray:
    """(m,) vertex keys, rowwise: with inverse, the least projective key
    of c = a^-1 y a and of c^-1; without, the projective key of c alone.
    a or y may be a single row, broadcast against the other.  No program
    path calls it: it is the test oracle of the two kernels below, and
    perfbench/spans.py wraps it by name.

    With inverse the key names the order-3 subgroup {1, c, c^-1} = Y^a,
    the same for every a in the coset Ka when Y is normal in K; without,
    it names c itself, the same for every a in Ka when y is central in K.
    Since (ax)^-1 y (ax) = x^-1 c x, the image of a vertex under x is the
    key of x^-1 c x, with a = x and y = c.
    """
    im, it = ops.binv(am, at)
    cm, ct = ops.bsmul(*ops.bsmul(im, it, ym, yt), am, at)
    key = ops.bpkeys(cm, ct)
    return np.minimum(key, ops.bpkeys(*ops.binv(cm, ct))) if inverse else key


def grid_tables(ops: FieldOps, cm, ct) -> tuple[np.ndarray, np.ndarray]:
    """conj_fingerprint_grid's tables of k elements c_j = (C, t): rows[q,
    j, v], the 3 product-table offsets of rho^(3-t_j)(v) . rho^-t_j(C_j)[q,
    :] packed in a uint64, for each entry value v, and the twists t."""
    t = np.asarray(ct, dtype=np.intp)
    F = ops.FROB
    lanes = np.zeros((3, len(t), 64, 4), dtype=np.uint16)
    lanes[..., :3] = ops.MUL[F[(3 - t) % 6][None, :, :, None],
                             F[(-t % 6)[:, None, None], cm].transpose(1, 0, 2)[:, :, None]]
    lanes <<= 6
    return lanes.view(np.uint64)[..., 0], t


def conj_fingerprint_grid(ops: FieldOps, rkeys, tables, inverse: bool = True) -> np.ndarray:
    """(n*k,) conj_fingerprints' keys (with or without inverse) of
    r_i^-1 c_j r_i for the n elements r_i = (M, e) packed in rkeys and the
    k elements c_j = (C, t) of tables = grid_tables(ops, cm, ct), row
    i*k + j (none if n or k is 0); no r is inverted, unpacked or repeated,
    one matrix product per row.

    From binv and bsmul, r^-1 c r = (rho^(t-e)(W), t) and its inverse is
    (rho^(3-e)(W^T), -t), where W = rho^(3-t)(M)^T . rho^-t(C) . M.  The r
    go KEY_CHUNK // k at a time (at least one: the temporaries do not grow
    with n), each chunk's keys shifted once into 9 entry planes P[3q + p]
    = M[q, p].  Row p of the left factor, the XOR over q of
    rho^(3-t)(M[q, p]) . rho^-t(C)[q, :], is 3 gathers of shape (k, nb) in
    the tables' rows; entry (a, b) of W is 3 product-table gathers over
    (k, nb) planes, into one c-major (k, nb, 3, 3) block.  bpkeys applies
    the Frobenius powers, to W and, with inverse, to W^T; keys go back
    rep-major."""
    rows, t = tables
    rkeys = np.asarray(rkeys, dtype=np.uint64)
    n, k = len(rkeys), len(t)
    out = np.empty(n * k, dtype=np.uint64)
    if not n * k:
        return out
    step = max(1, KEY_CHUNK // k)
    for lo in range(0, n, step):
        r = rkeys[lo:lo + step]
        P = r >> _SHIFT[:, None]
        P &= U64(63)
        P = P.astype(np.uint8)
        em = (r & U64(7)).astype(np.intp)
        nb = len(em)
        W = np.empty((k, nb, 3, 3), dtype=np.uint8)
        for a in range(3):
            L = rows[0].take(P[a], axis=1)
            L ^= rows[1].take(P[3 + a], axis=1)
            L ^= rows[2].take(P[6 + a], axis=1)
            L = L.view(np.uint16).reshape(k, nb, 4)
            for b in range(3):
                x = np.take(ops.MULF, L[..., 0] | P[b])
                x ^= np.take(ops.MULF, L[..., 1] | P[3 + b])
                x ^= np.take(ops.MULF, L[..., 2] | P[6 + b])
                W[:, :, a, b] = x
        W = W.reshape(k * nb, 3, 3)
        tw = np.repeat(t, nb).astype(np.uint8)
        key = ops.bpkeys(W, tw, ((t[:, None] - em) % 6).reshape(-1))
        if inverse:
            inv = ops.bpkeys(W.transpose(0, 2, 1), (6 - tw) % 6, np.tile((3 - em) % 6, k))
            np.minimum(key, inv, out=key)
            del inv
        out[lo * k:(lo + nb) * k].reshape(nb, k)[:] = key.reshape(k, nb).T
        # freed before the next chunk allocates its own: two chunks' worth
        # held at once raised the cold build's peak RSS
        del P, W, L, x, tw, key
    return out


def key_tables(ops: FieldOps, am, at, bm, bt, twists, inverse: bool) -> np.ndarray:
    """Key tables of c -> a c b, and with inverse of c -> a c^-1 b, one
    table set per row pair a = (am, at), b = (bm, bt), for c of each twist
    in twists.  At a fixed twist both maps (binv is linear in the matrix),
    a projective scalar and packing are GF(2)-linear in c's 54 matrix
    bits.  Row (v*nx*nt + x*nt + i)*9 + j holds the packed images under
    pair x of E_j(v), entry j equal to v and the rest 0, of twist
    twists[i]: 3 columns, the scalar multiples of a c b, then with inverse
    3 of a c^-1 b; the rows of entry 0 carry the image twist.  A key of
    any c is the XOR of 9 rows.

    Only the bit matrices E_pq(u), u = 2^b at j = (p, q), are mapped:
    with a = (A, e), b = (B, f) and c of twist t, row r of a E_pq(u) b is
    A[r, p] . rho^e(u) times row q of rho^(e+t)(B), of twist e + t + f,
    and E_pq(u)^-1 = E_qp(rho^(3-t)(u)) of twist -t.  A matrix row is 18
    key bits (at bit 39, 21 or 3), so each image is 3 lookups in lanes of
    the 64 multiples of each row of each rho^i(B), packed.  XOR doubling
    fills the rest, one contiguous block per bit: row v is row 0 (the
    twist alone) XOR the images of v's bits."""
    nx, nt = len(at), len(twists)
    e, t = np.broadcast_arrays(np.asarray(at, dtype=np.intp)[:, None],
                               np.asarray(twists, dtype=np.intp))
    f = np.asarray(bt, dtype=np.intp)[:, None]
    # per (pair, twist, c or c^-1): the powers of rho applied to u and B, the image twist
    kinds = [(e, e + t, e + t + f)] + ([(e + 3 - t, e - t, e - t + f)] if inverse else [])
    eu, em, et = (np.stack(v, -1) % 6 for v in zip(*kinds))  # (nx, nt, nk)
    nk = len(kinds)
    scalars = np.array([1, ops.field.alpha, ops.field.alpha2], dtype=np.uint8)
    su = ops.MUL[ops.FROB[eu[..., None], 1 << np.arange(6)][..., None], scalars]
    # lanes[r, x, i, q, v]: row q of rho^i(B) times v, packed as key row r
    fm, v, M = ops.FROB[:, bm].transpose(1, 0, 2, 3)[..., None, :], np.arange(64), ops.MUL64
    lanes = M[v, fm[..., 0]] << U64(12) | M[v, fm[..., 1]] << U64(6) | M[v, fm[..., 2]]
    lanes = (lanes << _ROW[:, None, None, None, None]).reshape(-1)
    # lam[r, b, x, t, p, k, s] = A[r, p] . (scalar s) . rho^eu(2^b)
    lam = ops.MUL[am.transpose(1, 0, 2)[:, None, :, None, :, None, None],
                  su.transpose(3, 0, 1, 2, 4)[None, :, :, :, None, :, :]]
    # idx[r, b, x, t, p, q, k, s] = (((r*nx + x)*6 + em)*3 + q)*64 + lam: row r's lane
    off = (np.arange(3)[:, None, None, None] * nx + np.arange(nx)[:, None, None]) * 1152 + em * 192
    idx = (off[:, None, :, :, None, None, :, None] + (64 * np.arange(3))[:, None, None]
           + lam[:, :, :, :, :, None])
    if inverse:  # entry (p, q) of c is entry (q, p) of c^-1
        idx[..., 1, :] = idx[..., 1, :].swapaxes(4, 5)
    bits = np.bitwise_or.reduce(lanes[idx]).reshape(6, nx, nt, 9, nk, 3)
    tab = np.zeros((64, nx, nt, 9, nk, 3), dtype=np.uint64)
    tab[0, :, :, 0] = et[..., None]
    for b in range(6):
        np.bitwise_xor(tab[:1 << b], bits[b], out=tab[1 << b:2 << b])
    return tab.reshape(64 * nx * nt * 9, nk * 3)


def linear_conj_keys(ops: FieldOps, xm, xt, ckeys: np.ndarray,
                     inverse: bool = True) -> np.ndarray:
    """(nx, n) keys of x^-1 c x, x each row of (xm, xt) and c packed in
    ckeys, (n,) and shared by every x or (nx, n), one row per x: with
    inverse, conj_fingerprints' key, the least projective key of x^-1 c x
    and of its inverse; without, bpkeys of x^-1 c x.  Each is an XOR of 9
    lookups per c in key_tables of (x^-1, x) (Albrecht, Bard and Hart,
    Algorithm 898, ACM TOMS 37 (2010)), one table set per x and twist
    present in ckeys; no product and no inverse is taken per key.  The
    tables are built for a batch of consecutive x at a time, at most 2
    KEY_CHUNK table rows (576 per x and twist), and the batch's rows,
    flattened, are looked up KEY_CHUNK at a time before the next batch's
    tables are made, so no temporary grows with nx (nor with n, but for a
    shared ckeys copied once per batch of more than one x)."""
    ckeys = np.asarray(ckeys, dtype=np.uint64)
    nx, n = len(xt), ckeys.shape[-1]
    out = np.empty((nx, n), dtype=np.uint64)
    if not out.size:
        return out
    seen = np.zeros(8, dtype=bool)
    flat = ckeys.reshape(-1)
    for lo in range(0, len(flat), KEY_CHUNK):
        seen[(flat[lo:lo + KEY_CHUNK] & U64(7)).astype(np.intp)] = True
    twists = np.flatnonzero(seen)
    per_x = len(twists) * 9
    slot = (np.cumsum(seen) - 1) * 9  # slot[t]: twist t's first row in a table set
    acc = np.empty((min(out.size, KEY_CHUNK), 6 if inverse else 3), dtype=np.uint64)
    step = max(1, 2 * KEY_CHUNK // (64 * per_x))
    for x0 in range(0, nx, step):
        b = xm[x0:x0 + step], xt[x0:x0 + step]
        tables = key_tables(ops, *ops.binv(*b), *b, twists, inverse)
        keys = np.broadcast_to(ckeys, (nx, n))[x0:x0 + step].reshape(-1)
        block = out[x0:x0 + step].reshape(-1)
        for lo in range(0, len(keys), KEY_CHUNK):
            c = keys[lo:lo + KEY_CHUNK]
            base = np.arange(lo, lo + len(c)) // n * per_x
            base += slot[(c & U64(7)).astype(np.intp)]
            _xor_lookups(tables, c, base, acc, block[lo:lo + len(c)])
        # freed before the next batch's tables are made
        del tables, keys
    return out


def lmul_keys(tables: np.ndarray, rkeys: np.ndarray, tidx) -> np.ndarray:
    """bpkeys of t r for each r packed in rkeys, t at row tidx[i] of the
    key_tables of c -> t c (twists 0..5, no inverse): the least column of
    an XOR of 9 rows, KEY_CHUNK keys at a time.  The key of r may pack any
    scalar multiple of r, which multiplies t r by a scalar."""
    n = len(rkeys)
    out = np.empty(n, dtype=np.uint64)
    acc = np.empty((min(n, KEY_CHUNK), 3), dtype=np.uint64)
    for lo in range(0, n, KEY_CHUNK):
        r = rkeys[lo:lo + KEY_CHUNK]
        base = np.asarray(tidx[lo:lo + KEY_CHUNK], dtype=np.intp) * 6
        base += (r & U64(7)).astype(np.intp)
        base *= 9
        _xor_lookups(tables, r, base, acc, out[lo:lo + len(r)])
    return out


def unique_sorted(a: np.ndarray, index: bool = False):
    """np.unique of a 1-d array by one default (quick)sort and adjacent
    differences, never numpy's hash path: the sorted distinct values, and
    with index also the first index of each in a and the inverse (a ==
    values[inverse]), as np.unique's return_index and return_inverse give
    them.  The first index of a run of equal keys is the least of their
    positions in a (np.minimum.reduceat), so the sort need not be stable."""
    a = np.asarray(a).reshape(-1)
    order = np.argsort(a) if index else None
    s = a[order] if index else np.sort(a)
    new = np.empty(len(s), dtype=bool)  # where each run of equal values starts
    new[:1] = True
    np.not_equal(s[1:], s[:-1], out=new[1:])
    if not index:
        return s[new]
    starts = np.flatnonzero(new)
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return s[starts], np.minimum.reduceat(order, starts), inverse


def _xor_lookups(tables, c, base, acc, best) -> None:
    """best[i] = the least column of the XOR of the 9 rows of tables that
    key c[i] selects, its table set at row base[i] of each value's block;
    acc holds at least len(c) rows of tables' width."""
    a = acc[:len(c)]
    a.fill(0)
    for j in range(9):
        entry = ((c >> _SHIFT[j]) & U64(63)).astype(np.intp)
        entry *= len(tables) // 64
        entry += base
        a ^= np.take(tables[j:], entry, axis=0)
    best[:] = a[:, 0]
    for col in range(1, a.shape[1]):  # faster than a.min(axis=1)
        np.minimum(best, a[:, col], out=best)
