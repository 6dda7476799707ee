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
KEY_CHUNK rows at a time: conj_fingerprint_grid, r^-1 c r for many r
against a few c at one matrix product each (vertex keys, BFS probes,
images of a vertex), and linear_conj_keys, x^-1 c x for a few x against
many c by 9 lookups in conj_tables each (the whole-graph action,
stabilizer keys and the fixer test).  conj_fingerprints, the same key
rowwise, and coset_canon_keys, the exact canonical-form scan, are test
oracles that the benchmark's spans wrap by name.
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
    ops: FieldOps, am: np.ndarray, at: np.ndarray, ym: np.ndarray, yt: np.ndarray
) -> np.ndarray:
    """(m,) vertex keys: the least projective key of c = a^-1 y a and of
    c^-1, rowwise; a or y may be a single row, broadcast against the other.
    No program path calls it: it is the test oracle of the two kernels
    below, and perfbench/spans.py wraps it by name.

    The key names the order-3 subgroup {1, c, c^-1} = Y^a.  When Y is
    normal in the coset subgroup K, Y^a is the same for every a in the
    coset Ka, so the graph keys the coset by it; since Y^(ax) = x^-1 Y^a x,
    the image of a vertex under x is the key of x^-1 c x, with a = x and
    y = c.
    """
    im, it = ops.binv(am, at)
    cm, ct = ops.bsmul(*ops.bsmul(im, it, ym, yt), am, at)
    return np.minimum(ops.bpkeys(cm, ct), ops.bpkeys(*ops.binv(cm, ct)))


def conj_fingerprint_grid(ops: FieldOps, rm, rt, cm, ct) -> np.ndarray:
    """(n*k,) conj_fingerprints' keys of r_i^-1 c_j r_i for n elements
    r_i = (M, e) and k elements c_j = (C, t), row i*k + j; no r is
    inverted or repeated, and each row takes one matrix product.

    From binv and bsmul, r^-1 c r = (rho^(t-e)(W), t) and its inverse is
    (rho^(3-e)(W^T), -t), where W = rho^(3-t)(M)^T . rho^-t(C) . M.  Row p
    of the left factor is the XOR over q of rho^(3-t)(M[q, p]) .
    rho^-t(C)[q, :]: 9 lookups per c in three 64-entry tables of whole
    rows (3 product-table offsets packed in a uint64), so bmm6 gives W with
    M itself, broadcast over the c, as the right factor.  bpkeys applies
    the Frobenius powers on its way to both keys.  The tables are built
    once per call, and the r go KEY_CHUNK // k at a time (at least one),
    so the temporaries do not grow with n."""
    n, k = len(rt), len(ct)
    t = np.asarray(ct, dtype=np.intp)
    F = ops.FROB
    # lanes[q, v, j, :3] = rho^(3-t_j)(v) . rho^-t_j(C_j)[q, :], shifted
    lanes = np.zeros((3, 64, k, 4), dtype=np.uint16)
    lanes[..., :3] = ops.MUL[F[(3 - t) % 6].T[None, :, :, None],
                             F[(-t % 6)[:, None, None], cm].transpose(1, 0, 2)[:, None]]
    lanes <<= 6
    rows = lanes.view(np.uint64)[..., 0]  # (3, 64, k)
    out = np.empty(n * k, dtype=np.uint64)
    step = max(1, KEY_CHUNK // k)
    for lo in range(0, n, step):
        m, em = rm[lo:lo + step], rt[lo:lo + step].astype(np.intp)
        left = np.empty((len(em), k, 3), dtype=np.uint64)
        for p in range(3):
            left[:, :, p] = rows[0, m[:, 0, p]] ^ rows[1, m[:, 1, p]] ^ rows[2, m[:, 2, p]]
        W = ops.bmm6(left.view(np.uint16).reshape(len(em), k, 3, 4)[..., :3], m[:, None])
        W = W.reshape(len(em) * k, 3, 3)
        tw = np.tile(t, len(em)).astype(np.uint8)
        key = ops.bpkeys(W, tw, ((t - em[:, None]) % 6).reshape(-1))
        inv = ops.bpkeys(W.transpose(0, 2, 1), (6 - tw) % 6, np.repeat((3 - em) % 6, k))
        out[lo * k:(lo + len(em)) * k] = np.minimum(key, inv)
        # freed before the next chunk allocates its own: two chunks' worth
        # held at once raised the cold build's peak RSS
        del left, W, tw, key, inv
    return out


def conj_tables(ops: FieldOps, xm, xt, twists, inverse: bool = True) -> np.ndarray:
    """Key tables of c -> x^-1 c x, one table set per row x of (xm, xt),
    for the elements c of each twist in twists.  For a fixed twist this
    map, and c -> x^-1 c^-1 x (binv is linear in the matrix), is
    GF(2)-linear in the 54 matrix bits of c, and so are scaling by a
    projective scalar and packing the matrix.  Row (v*nx*nt + a*nt + i)*9
    + j holds, as packed keys, the images under x_a of the matrix with
    entry j equal to v and the rest 0, of twist twists[i]: 3 columns for
    the scalar multiples of x^-1 c x, then, with inverse, 3 for
    x^-1 c^-1 x; the rows of entry 0 carry the image twist.  A key of any
    c is then the XOR of 9 rows.

    Only the bit matrices E_pq(u), u = 2^b at entry j = (p, q), are
    conjugated: with x = (m, -e), x^-1 = (m', e) and c of twist t, row r
    of x^-1 E_pq(u) x is m'[r, p] . rho^e(u) times row q of rho^(e+t)(m),
    and E_pq(u)^-1 = E_qp(rho^(3-t)(u)) of twist -t.  A matrix row is 18
    key bits (at bit 39, 21 or 3), so each image is 3 lookups in lanes of
    the 64 multiples of each row of rho^f(m), packed.  XOR doubling fills
    the rest, one contiguous block per bit: row v is row 0 (the twist
    alone) XOR the images of v's bits."""
    xm, xt = np.asarray(xm, dtype=np.uint8), np.asarray(xt, dtype=np.uint8)
    nx, nt = len(xt), len(twists)
    xim, xit = ops.binv(xm, xt)
    e, t = np.broadcast_arrays(xit.astype(np.intp)[:, None], np.asarray(twists, dtype=np.intp))
    # per (x, twist, c or c^-1): the powers of rho applied to u and m, the image twist
    kinds = [(e, e + t, t)] + ([(e + 3 - t, e - t, -t)] if inverse else [])
    eu, em, et = (np.stack(v, -1) % 6 for v in zip(*kinds))  # (nx, nt, nk)
    nk = len(kinds)
    scalars = np.array([1, ops.field.alpha, ops.field.alpha2], dtype=np.uint8)
    su = ops.MUL[ops.FROB[eu[..., None], 1 << np.arange(6)][..., None], scalars]
    # lanes[r, x, f, q, v]: row q of rho^f(m) times v, packed as key row r
    fm, v, M = ops.FROB[:, xm].transpose(1, 0, 2, 3)[..., None, :], np.arange(64), ops.MUL64
    lanes = M[v, fm[..., 0]] << U64(12) | M[v, fm[..., 1]] << U64(6) | M[v, fm[..., 2]]
    lanes = (lanes << _ROW[:, None, None, None, None]).reshape(-1)
    # lam[r, b, x, t, p, k, s] = m'[r, p] . (scalar s) . rho^eu(2^b)
    lam = ops.MUL[xim.transpose(1, 0, 2)[:, None, :, None, :, None, None],
                  su.transpose(3, 0, 1, 2, 4)[None, :, :, :, None, :, :]]
    # idx[r, b, x, t, p, q, k, s] = (((r*nx + x)*6 + em)*3 + q)*64 + lam: row r's lane
    at = (np.arange(3)[:, None, None, None] * nx + np.arange(nx)[:, None, None]) * 1152 + em * 192
    idx = (at[:, None, :, :, None, None, :, None] + (64 * np.arange(3))[:, None, None]
           + lam[:, :, :, :, :, None])
    if inverse:  # entry (p, q) of c is entry (q, p) of c^-1
        idx[..., 1, :] = idx[..., 1, :].swapaxes(4, 5)
    bits = np.bitwise_or.reduce(lanes[idx]).reshape(6, nx, nt, 9, nk, 3)
    tab = np.zeros((64, nx, nt, 9, nk, 3), dtype=np.uint64)
    tab[0, :, :, 0] = et[..., None]
    for b in range(6):
        np.bitwise_xor(tab[:1 << b], bits[b], out=tab[1 << b:2 << b])
    return tab.reshape(64 * nx * nt * 9, nk * 3)


def linear_conj_keys(ops: FieldOps, xm, xt, ckeys: np.ndarray, xidx=None,
                     inverse: bool = True) -> np.ndarray:
    """Keys of x^-1 c x for every c packed in ckeys, x the row xidx[i] of
    (xm, xt) for ckeys[i] (row 0 for all when xidx is None): with inverse,
    conj_fingerprints' key, the least projective key of x^-1 c x and of
    its inverse; without, the projective key of x^-1 c x alone (bpkeys).
    Each is an XOR of 9 lookups in conj_tables per c (Albrecht, Bard and
    Hart, Algorithm 898, ACM TOMS 37 (2010)), with one table set per x
    and twist present in ckeys; no product and no inverse is taken per
    row.  The lookups run KEY_CHUNK rows at a time into one accumulator
    made once, so their temporaries do not grow with len(ckeys).  With a
    row index, whose rows may come in any order, the table sets are built
    for a batch of consecutive x at a time, at most 2 KEY_CHUNK table rows
    (576 per x and twist present), and each batch's rows are looked up
    before the next batch's tables are made, so the tables do not grow
    with len(xt) either."""
    n = len(ckeys)
    out = np.empty(n, dtype=np.uint64)
    if not n:
        return out
    seen = np.zeros(8, dtype=bool)
    for lo in range(0, n, KEY_CHUNK):
        seen[(ckeys[lo:lo + KEY_CHUNK] & U64(7)).astype(np.intp)] = True
    twists = np.flatnonzero(seen)
    per_x = len(twists) * 9
    slot = np.zeros(8, dtype=np.intp)
    slot[twists] = np.arange(len(twists)) * 9
    acc = np.empty((min(n, KEY_CHUNK), 6 if inverse else 3), dtype=np.uint64)
    if xidx is None:
        tables = conj_tables(ops, xm[:1], xt[:1], twists, inverse)
        for lo in range(0, n, KEY_CHUNK):
            c = ckeys[lo:lo + KEY_CHUNK]
            _xor_lookups(tables, c, slot[(c & U64(7)).astype(np.intp)], acc,
                         out[lo:lo + len(c)])
        return out
    xidx = np.asarray(xidx, dtype=np.intp)
    step = max(1, 2 * KEY_CHUNK // (64 * per_x))
    for x0 in range(0, len(xt), step):
        rows = np.flatnonzero((xidx >= x0) & (xidx < x0 + step))
        if not len(rows):
            continue
        tables = conj_tables(ops, xm[x0:x0 + step], xt[x0:x0 + step], twists, inverse)
        for lo in range(0, len(rows), KEY_CHUNK):
            r = rows[lo:lo + KEY_CHUNK]
            c = ckeys[r]
            base = slot[(c & U64(7)).astype(np.intp)] + (xidx[r] - x0) * per_x
            best = np.empty(len(r), dtype=np.uint64)
            _xor_lookups(tables, c, base, acc, best)
            out[r] = best
        # freed before the next batch's tables are made
        del tables
    return out


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
