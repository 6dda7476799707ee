"""Vectorized kernels for the graph build: batched GF(64) matrix algebra
on packed element arrays.

Element batches are (m,3,3) uint8 matrices plus (m,) uint8 twists.
Packed keys are uint64 and agree bit for bit with psu.pack, so python
Element objects and array rows interconvert freely.  Everything here is
pure and deterministic.  The graph keys its vertices by
conj_fingerprints; coset_canon_keys is the exact canonical-form scan,
kept as a test oracle.
"""

from __future__ import annotations

import numpy as np

from .gf64 import GF64

U64 = np.uint64
_W = (U64(64) ** np.arange(8, -1, -1, dtype=np.uint64)) * U64(8)
KEY_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)


def bpack(mats: np.ndarray, tw: np.ndarray) -> np.ndarray:
    """(m,3,3)+(m,) -> (m,) uint64 keys; matches psu.pack."""
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
        self.FROB = field.FROB
        self.LEAD = np.array(field.lead_scalar, dtype=np.uint8)

    # -- batched element algebra ---------------------------------------

    def bmm(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Rowwise GF matmul: (m,3,3) x (m,3,3) -> (m,3,3), one gather
        on the flat product table per inner index k."""
        A6 = A.astype(np.uint16) << 6
        X = np.take(self.MULF, A6[:, :, 0, None] | B[:, None, 0, :])
        X ^= np.take(self.MULF, A6[:, :, 1, None] | B[:, None, 1, :])
        X ^= np.take(self.MULF, A6[:, :, 2, None] | B[:, None, 2, :])
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

    def bpkeys(self, mats, tw) -> np.ndarray:
        """Projective canonical keys: min over the 3 scalar multiples.

        Scaling keeps the zero pattern, and the first nonzero entry m0 is
        the most significant nonzero field of the key, so the least
        multiple is the one scaled by GF64.lead_scalar[m0]; one packing
        suffices."""
        flat = mats.reshape(len(mats), 9)
        lead = flat[np.arange(len(flat)), (flat != 0).argmax(axis=1)]
        return bpack(self.MUL[self.LEAD[lead][:, None, None], mats], tw)


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

    @staticmethod
    def from_group(ops: FieldOps, G) -> "SubgroupArrays":
        return SubgroupArrays(ops, (x.key for x in G.elems))


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
    ops: FieldOps, pm: np.ndarray, pt: np.ndarray, zm: np.ndarray, zt: np.ndarray
) -> np.ndarray:
    """(m, nz) sorted projective keys of g^-1 z g over the fingerprint set.

    The fingerprint set is the nonidentity part of a normal subgroup Z of
    the coset subgroup K, so the row is constant on cosets Kg: replacing
    g by kg conjugates Z by k, which permutes Z.  Rows are sorted to kill
    that permutation.  The row names the conjugate subgroup Z^g; the graph
    packs it into its vertex key.
    """
    im, it = ops.binv(pm, pt)
    zkeys = list(ops.bpkeys(zm, zt))
    zinv = ops.bpkeys(*ops.binv(zm, zt))
    conj = []
    for i in range(len(zm)):
        if zinv[i] in zkeys[:i]:
            # g^-1 z^-1 g is the inverse of a conjugate already made
            conj.append(ops.binv(*conj[zkeys.index(zinv[i])]))
        else:
            m1, t1 = ops.bsmul(im, it, np.broadcast_to(zm[i], im.shape),
                               np.broadcast_to(zt[i], it.shape))
            conj.append(ops.bsmul(m1, t1, pm, pt))
    F = np.stack([ops.bpkeys(m, t) for m, t in conj], axis=1)
    F.sort(axis=1)
    return F
