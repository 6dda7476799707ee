"""Semilinear unitary 3x3 transformations over GF(64), as packed keys.

An element is an exact pair (M, e): a matrix M in SU_3(8) together with a
Frobenius twist exponent e, composing by

    (M, e) * (N, f) = (M . rho^e(N), e + f mod 6)

i.e. the right factor acts first on column vectors.  It is held as its
packed key (fastops.bpack: 9 entries of 6 bits, row-major, first entry
most significant, then the twist in the low 3 bits), and every product,
inverse and canonical key is taken by the batched kernels of fastops.
PElement is the image modulo the scalar subgroup <alpha I> (the matrix
Z), held as the least packed key of its three scalar multiples
(FieldOps.bpkeys).

make_generators gives the SU-level generators as packed keys, and words
evaluates words in them and their inverses, one batched product per
letter position.  PElement is the one element class: K1 and K2 are index
tables (grp.Table) of PElements, closed on packed keys by the same
kernels, and every product of their elements is index arithmetic in one
table, so PElement products serve only pgenerators' three composites.

The paper-facing conventions (which commutator bracket, which direction
of conjugation by sigma) are not stated in the source material and are
resolved empirically by check_relations().
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .fastops import FieldOps, bpack, bunpack
from .gf64 import GF64

# the identity's packed key, at SU level and projectively
IDENTITY = int(bpack(np.eye(3, dtype=np.uint8)[None], np.zeros(1, dtype=np.uint8))[0])


class PElement:
    """Projective class of a semilinear unitary element: its canonical key
    (the least packed key of its scalar multiples, FieldOps.bpkeys), and
    the field kernels that multiply it."""

    __slots__ = ("ops", "key")

    def __init__(self, ops: FieldOps, key: int):
        self.ops = ops
        self.key = key

    def __mul__(self, other: "PElement") -> "PElement":
        ops = self.ops
        m, t = bunpack([self.key, other.key])
        return PElement(ops, int(ops.bpkeys(*ops.bsmul(m[:1], t[:1], m[1:], t[1:]))[0]))

    def inv(self) -> "PElement":
        ops = self.ops
        return PElement(ops, int(ops.bpkeys(*ops.binv(*bunpack([self.key])))[0]))

    @property
    def twist(self) -> int:
        return self.key & 7

    def __eq__(self, other) -> bool:
        return isinstance(other, PElement) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __lt__(self, other: "PElement") -> bool:
        return self.key < other.key

    def __repr__(self):
        return f"PElement(key={self.key:#x})"


# ---------------------------------------------------------------------------
# named generators and words in them


def det(field: GF64, mat) -> int:
    """The determinant of the 3x3 matrix with these 9 row-major entries:
    the Leibniz sum, with no signs in characteristic 2."""
    t = 0
    for p in permutations(range(3)):
        v = 1
        for i in range(3):
            v = field.mul(v, mat[3 * i + p[i]])
        t ^= v
    return t


def special_unitary(ops: FieldOps, keys) -> list[bool]:
    """Per packed key of (M, e): whether binv(M, e) . (M, e) is the
    identity, where binv inverts through the conjugate transpose, so
    exactly when M is unitary; and whether det M = 1."""
    m, t = bunpack(keys)
    unitary = bpack(*ops.bsmul(*ops.binv(m, t), m, t)) == np.uint64(IDENTITY)
    return [bool(u) and det(ops.field, mat) == 1
            for u, mat in zip(unitary, m.reshape(-1, 9).tolist())]


def make_generators(field: GF64) -> dict[str, int]:
    """The seven explicit SU_3(8) matrices plus the twist generator sigma,
    as packed keys.

    Raises if any matrix fails unitarity or det 1 under the configured
    field, which would mean a transcription or convention error.
    """
    a, b = field.alpha, field.beta
    ai = field.inv(a)
    bi = field.inv(b)
    b4 = field.pow(b, 4)
    mats = {
        "A": (0, 0, 1, 1, 0, 0, 0, 1, 0),
        "B": (1, 0, 0, 0, a, 0, 0, 0, ai),
        "C": (b, 0, 0, 0, b4, 0, 0, 0, b4),
        "D": (1, 1, 1, 1, a, ai, 1, ai, a),
        "E": (1, 0, 0, 0, b, 0, 0, 0, bi),
        "F": (1, 0, 0, 0, 0, 1, 0, 1, 0),
        "Z": (a, 0, 0, 0, a, 0, 0, 0, a),
    }
    keys = bpack(np.array(list(mats.values()), dtype=np.uint8).reshape(-1, 3, 3),
                 np.zeros(len(mats), dtype=np.uint8)).tolist()
    for name, ok in zip(mats, special_unitary(FieldOps(field), keys)):
        if not ok:
            raise AssertionError(f"generator {name} is not in SU_3(8)")
    out = dict(zip(mats, keys))
    out["sigma"] = IDENTITY + 1  # the identity matrix, twist 1
    return out


def words(ops: FieldOps, gens: dict[str, int], ws) -> list[int]:
    """The packed keys, at SU level, of the words ws: each a sequence of
    names of gens, with x' the inverse of x, multiplied left to right; the
    empty word is the identity.  One bsmul per letter position takes the
    next letter of every word that long."""
    m, t = bunpack(list(gens.values()))
    letters = dict(gens)
    letters.update(zip((k + "'" for k in gens), bpack(*ops.binv(m, t)).tolist()))
    m, t = bunpack([letters[w[0]] if w else IDENTITY for w in ws])
    for k in range(1, max(map(len, ws), default=0)):
        rows = [i for i, w in enumerate(ws) if len(w) > k]
        lm, lt = bunpack([letters[ws[i][k]] for i in rows])
        m[rows], t[rows] = ops.bsmul(m[rows], t[rows], lm, lt)
    return bpack(m, t).tolist()


def pgenerators(field: GF64) -> dict[str, PElement]:
    """Projective images of the generators plus common composites."""
    ops = FieldOps(field)
    g = make_generators(field)
    keys = ops.bpkeys(*bunpack(list(g.values()))).tolist()
    p = {name: PElement(ops, k) for name, k in zip(g, keys)}
    p["sigma2"] = p["sigma"] * p["sigma"]
    p["sigma3"] = p["sigma2"] * p["sigma"]
    p["Fsigma3"] = p["F"] * p["sigma3"]
    return p


# ---------------------------------------------------------------------------
# relation table and convention resolution


def comm_std(x: str, y: str) -> tuple:
    """[x, y] = x^-1 y^-1 x y, as a word."""
    return (x + "'", y + "'", x, y)


def comm_alt(x: str, y: str) -> tuple:
    """[x, y] = x y x^-1 y^-1, as a word."""
    return (x, y, x + "'", y + "'")


def conj_right(x: str, g: str) -> tuple:
    """x^g = g^-1 x g, as a word."""
    return (g + "'", x, g)


def conj_left(x: str, g: str) -> tuple:
    """x^g = g x g^-1, as a word."""
    return (g, x, g + "'")


COMMUTATORS = (("x^-1y^-1xy", comm_std), ("xyx^-1y^-1", comm_alt))
CONJUGATIONS = (("g^-1xg", conj_right), ("gxg^-1", conj_left))


@dataclass
class RelationReport:
    commutator_convention: str  # "x^-1y^-1xy" or "xyx^-1y^-1"
    conjugation_convention: str  # "g^-1xg" or "gxg^-1"
    sigma_matches_frobenius: bool
    rows: list[tuple[str, bool]]

    @property
    def all_ok(self) -> bool:
        return bool(self.rows) and all(ok for _, ok in self.rows)


def _relations(comm, conj) -> list[tuple[str, tuple, tuple]]:
    """The relation table under one convention pair: (name, left word,
    right word)."""
    s = "sigma"
    return [
        ("C^3=Z", ("C", "C", "C"), ("Z",)),
        ("D^2=F", ("D", "D"), ("F",)),
        ("E^3=B", ("E", "E", "E"), ("B",)),
        ("[A,B]=Z^2", comm("A", "B"), ("Z", "Z")),
        ("[A,C]=BZ^2", comm("A", "C"), ("B", "Z", "Z")),
        ("[B,C]=1", comm("B", "C"), ()),
        ("[D,A]=BA", comm("D", "A"), ("B", "A")),
        ("[D,B]=A^2B", comm("D", "B"), ("A", "A", "B")),
        ("A^s=A", conj("A", s), ("A",)),
        ("B^s=B^-1", conj("B", s), ("B'",)),
        ("C^s=C^2", conj("C", s), ("C", "C")),
        ("D^s=D^-1", conj("D", s), ("D'",)),
        ("[E,A]=BC", comm("E", "A"), ("B", "C")),
        ("[E,B]=1", comm("E", "B"), ()),
        ("[E,C]=1", comm("E", "C"), ()),
        ("[F,A]=A^2", comm("F", "A"), ("A", "A")),
        ("[F,B]=B^2", comm("F", "B"), ("B", "B")),
        ("[F,C]=1", comm("F", "C"), ()),
        ("[F,E]=E^2", comm("F", "E"), ("E", "E")),
        ("E^s=E^2", conj("E", s), ("E", "E")),
        ("F^s=F", conj("F", s), ("F",)),
    ]


def relation_rows(field: GF64) -> tuple[dict, dict]:
    """The relation table's rows under each (commutator, conjugation)
    convention pair, and per conjugation convention whether sigma
    conjugates each of A..F to its entrywise Frobenius image.  Every
    distinct word is evaluated in one batch and compared by packed key at
    SU level: projectively, C^3 = Z and [A,B] = Z^2 would hold trivially."""
    ops = FieldOps(field)
    g = make_generators(field)
    tables = {(cname, jname): _relations(comm, conj)
              for cname, comm in COMMUTATORS for jname, conj in CONJUGATIONS}
    sigma_words = {jname: [conj(k, "sigma") for k in "ABCDEF"]
                   for jname, conj in CONJUGATIONS}
    ws = list(dict.fromkeys([w for rel in tables.values() for _, lhs, rhs in rel
                             for w in (lhs, rhs)]
                            + [w for v in sigma_words.values() for w in v]))
    val = dict(zip(ws, words(ops, g, ws)))
    # the entrywise Frobenius images, by scalar operations
    m, t = bunpack([g[k] for k in "ABCDEF"])
    frob = bpack(np.array([field.frobenius(v) for v in m.reshape(-1).tolist()],
                          dtype=np.uint8).reshape(m.shape), t).tolist()
    rows = {pair: [(name, val[lhs] == val[rhs]) for name, lhs, rhs in rel]
            for pair, rel in tables.items()}
    sigma = {jname: [val[w] == k for w, k in zip(v, frob)]
             for jname, v in sigma_words.items()}
    return rows, sigma


def check_relations(field: GF64) -> RelationReport:
    """Evaluate the full relation table at SU level under both commutator
    and both conjugation candidates; exactly one combination must satisfy
    everything, and the satisfying conjugation must agree with the
    entrywise Frobenius image.  Hard-fails otherwise.
    """
    results, sigma = relation_rows(field)
    winners = [k for k, rows in results.items() if all(ok for _, ok in rows)]
    if len(winners) != 1:
        raise AssertionError(
            f"relation table satisfied by {len(winners)} convention pairs, expected exactly 1"
        )
    cname, jname = winners[0]
    if not all(sigma[jname]):
        raise AssertionError("sigma conjugation does not match the Frobenius image")
    return RelationReport(cname, jname, True, results[winners[0]])
