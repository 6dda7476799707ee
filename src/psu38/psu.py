"""Semilinear unitary 3x3 transformations over GF(64).

An Element is an exact pair (M, e): a matrix M in SU_3(8) together with a
Frobenius twist exponent e, composing by

    (M, e) * (N, f) = (M . rho^e(N), e + f mod 6)

i.e. the right factor acts first on column vectors.  PElement is the
image modulo the scalar subgroup <alpha I> (the matrix Z), represented by
the scalar multiple whose packed serialization is smallest.

Products, inverses and the canonical form are each one pass over the
entries, through the tuple tables of GF64: a product is three lookups in
rows of the product table per entry, and the canonical multiple is the
matrix scaled once by GF64.lead_scalar of its first nonzero entry, so a
PElement product is packed once.

This module is matrix arithmetic only.  The groups that the claims work
in are index tables built from PElement closures (grp.Table);
PElement products build those tables and serve the products that no
table holds.

The paper-facing conventions (which commutator bracket, which direction
of conjugation by sigma) are not stated in the source material and are
resolved empirically by resolve_conventions(); see check_relations().
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .gf64 import GF64

# serialization: 9 entries of 6 bits, row-major, first entry most
# significant, twist in the low 3 bits (57 bits); comparing keys as
# integers is the "lexicographically least" order used for canonical forms


def pack(mat: tuple[int, ...], twist: int) -> int:
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = mat
    return ((((((((((m0 << 6 | m1) << 6 | m2) << 6 | m3) << 6 | m4) << 6 | m5)
               << 6 | m6) << 6 | m7) << 6 | m8) << 3) | twist)


def _product(f: GF64, a: tuple[int, ...], e: int, n: tuple[int, ...]) -> tuple[int, ...]:
    """Entries of the matrix a . rho^e(n): one row of the product table
    per entry of a, one lookup in it per term."""
    if e:
        fr = f.frobrows[e]
        n = [fr[v] for v in n]
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = n
    rows = f.mulrows
    r0, r1, r2, r3, r4, r5, r6, r7, r8 = [rows[v] for v in a]
    return (r0[b0] ^ r1[b3] ^ r2[b6], r0[b1] ^ r1[b4] ^ r2[b7], r0[b2] ^ r1[b5] ^ r2[b8],
            r3[b0] ^ r4[b3] ^ r5[b6], r3[b1] ^ r4[b4] ^ r5[b7], r3[b2] ^ r4[b5] ^ r5[b8],
            r6[b0] ^ r7[b3] ^ r8[b6], r6[b1] ^ r7[b4] ^ r8[b7], r6[b2] ^ r7[b5] ^ r8[b8])


def _inverse(f: GF64, m: tuple[int, ...], e: int) -> tuple[int, ...]:
    """Matrix of (m, e)^-1 = (rho^-e(m*), -e) for unitary m: the conjugate
    transpose (entrywise rho^3) and rho^-e are one table, rho^(3-e).  With
    e = 0 it is the conjugate transpose m*."""
    fr = f.frobrows[(9 - e) % 6]
    return (fr[m[0]], fr[m[3]], fr[m[6]], fr[m[1]], fr[m[4]], fr[m[7]],
            fr[m[2]], fr[m[5]], fr[m[8]])


def _canonical_mat(f: GF64, mat: tuple[int, ...]) -> tuple[int, ...]:
    """The scalar multiple of mat with the least packed key: scaled once,
    by the lead scalar of its first nonzero entry."""
    for v in mat:
        if v:
            break
    s = f.lead_scalar[v]
    if s == 1:
        return mat
    row = f.mulrows[s]
    return tuple([row[v] for v in mat])


def value_product(f: GF64, a: tuple, b: tuple) -> tuple:
    """The product of two projective classes, each given as the (matrix,
    twist) of its canonical representative, as the same pair: what
    PElement.__mul__ computes, with no Element or PElement made."""
    (m, e), (n, k) = a, b
    return _canonical_mat(f, _product(f, m, e, n)), (e + k) % 6


class Element:
    """Exact semilinear unitary map; immutable value."""

    __slots__ = ("field", "mat", "twist", "key")

    def __init__(self, field: GF64, mat: tuple[int, ...], twist: int = 0):
        self.field = field
        self.mat = mat
        self.twist = twist % 6
        self.key = pack(mat, self.twist)

    @staticmethod
    def identity(field: GF64) -> "Element":
        return Element(field, (1, 0, 0, 0, 1, 0, 0, 0, 1), 0)

    def __mul__(self, other: "Element") -> "Element":
        f = self.field
        return Element(f, _product(f, self.mat, self.twist, other.mat),
                       self.twist + other.twist)

    def star(self) -> "Element":
        """Conjugate transpose (entrywise tau, then transpose); twist kept."""
        return Element(self.field, _inverse(self.field, self.mat, 0), self.twist)

    def inv(self) -> "Element":
        """Inverse, using M^-1 = M* for unitary M."""
        e = self.twist
        return Element(self.field, _inverse(self.field, self.mat, e), 6 - e)

    def det(self) -> int:
        f = self.field
        m = self.mat
        t = 0
        for p in permutations(range(3)):
            v = 1
            for i in range(3):
                v = f.mul(v, m[3 * i + p[i]])
                if v == 0:
                    break
            t ^= v
        return t

    def is_unitary(self) -> bool:
        prod = self.star_matrix_times_self()
        return prod == (1, 0, 0, 0, 1, 0, 0, 0, 1)

    def star_matrix_times_self(self) -> tuple[int, ...]:
        return _product(self.field, self.star().mat, 0, self.mat)

    def frob_image(self, k: int = 1) -> "Element":
        """Entrywise rho^k image, twist unchanged."""
        fr = self.field.frobrows[k % 6]
        return Element(self.field, tuple([fr[v] for v in self.mat]), self.twist)

    def power(self, k: int) -> "Element":
        if k < 0:
            return self.inv().power(-k)
        r = Element.identity(self.field)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __lt__(self, other: "Element") -> bool:
        return self.key < other.key

    def __repr__(self):
        return f"Element(key={self.key:#x}, twist={self.twist})"


def canonicalize(el: Element) -> Element:
    """Least packed serialization among {M, alpha M, alpha^2 M}."""
    mat = _canonical_mat(el.field, el.mat)
    return el if mat is el.mat else Element(el.field, mat, el.twist)


class PElement:
    """Projective class of an Element, stored in canonical form."""

    __slots__ = ("el", "key")

    def __init__(self, el: Element):
        c = canonicalize(el)
        self.el = c
        self.key = c.key

    @staticmethod
    def _canonical(f: GF64, mat: tuple[int, ...], twist: int) -> "PElement":
        """The class of (mat, twist), packed once."""
        p = PElement.__new__(PElement)
        p.el = el = Element(f, _canonical_mat(f, mat), twist)
        p.key = el.key
        return p

    def __mul__(self, other: "PElement") -> "PElement":
        a, b = self.el, other.el
        f = a.field
        return PElement._canonical(f, _product(f, a.mat, a.twist, b.mat), a.twist + b.twist)

    def inv(self) -> "PElement":
        a = self.el
        return PElement._canonical(a.field, _inverse(a.field, a.mat, a.twist), 6 - a.twist)

    @property
    def twist(self) -> int:
        return self.el.twist

    def __eq__(self, other) -> bool:
        return isinstance(other, PElement) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __lt__(self, other: "PElement") -> bool:
        return self.key < other.key

    def __repr__(self):
        return f"PElement(key={self.key:#x})"


# ---------------------------------------------------------------------------
# named generators


def make_generators(field: GF64) -> dict[str, Element]:
    """The seven explicit SU_3(8) matrices plus the twist generator sigma.

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
    out: dict[str, Element] = {}
    for name, m in mats.items():
        el = Element(field, m, 0)
        if not el.is_unitary() or el.det() != 1:
            raise AssertionError(f"generator {name} is not in SU_3(8)")
        out[name] = el
    out["sigma"] = Element(field, (1, 0, 0, 0, 1, 0, 0, 0, 1), 1)
    return out


def pgenerators(field: GF64) -> dict[str, PElement]:
    """Projective images of the generators plus common composites."""
    g = make_generators(field)
    p = {k: PElement(v) for k, v in g.items()}
    p["sigma2"] = p["sigma"] * p["sigma"]
    p["sigma3"] = p["sigma2"] * p["sigma"]
    p["Fsigma3"] = p["F"] * p["sigma3"]
    return p


# ---------------------------------------------------------------------------
# relation table and convention resolution


def comm_std(x: Element, y: Element) -> Element:
    """[x, y] = x^-1 y^-1 x y."""
    return x.inv() * y.inv() * x * y


def comm_alt(x: Element, y: Element) -> Element:
    """[x, y] = x y x^-1 y^-1."""
    return x * y * x.inv() * y.inv()


def conj_right(x: Element, g: Element) -> Element:
    """x^g = g^-1 x g."""
    return g.inv() * x * g


def conj_left(x: Element, g: Element) -> Element:
    """x^g = g x g^-1."""
    return g * x * g.inv()


@dataclass
class RelationReport:
    commutator_convention: str  # "x^-1y^-1xy" or "xyx^-1y^-1"
    conjugation_convention: str  # "g^-1xg" or "gxg^-1"
    sigma_matches_frobenius: bool
    rows: list[tuple[str, bool]]

    @property
    def all_ok(self) -> bool:
        return bool(self.rows) and all(ok for _, ok in self.rows)


def _relation_rows(g: dict[str, Element], comm, conj) -> list[tuple[str, bool]]:
    A, B, C, D, E, F, Z, S = (g[k] for k in ("A", "B", "C", "D", "E", "F", "Z", "sigma"))
    Z2 = Z * Z
    rows = [
        ("C^3=Z", C.power(3) == Z),
        ("D^2=F", D * D == F),
        ("E^3=B", E.power(3) == B),
        ("[A,B]=Z^2", comm(A, B) == Z2),
        ("[A,C]=BZ^2", comm(A, C) == B * Z2),
        ("[B,C]=1", comm(B, C) == Element.identity(A.field)),
        ("[D,A]=BA", comm(D, A) == B * A),
        ("[D,B]=A^2B", comm(D, B) == A * A * B),
        ("A^s=A", conj(A, S) == A),
        ("B^s=B^-1", conj(B, S) == B.inv()),
        ("C^s=C^2", conj(C, S) == C * C),
        ("D^s=D^-1", conj(D, S) == D.inv()),
        ("[E,A]=BC", comm(E, A) == B * C),
        ("[E,B]=1", comm(E, B) == Element.identity(A.field)),
        ("[E,C]=1", comm(E, C) == Element.identity(A.field)),
        ("[F,A]=A^2", comm(F, A) == A * A),
        ("[F,B]=B^2", comm(F, B) == B * B),
        ("[F,C]=1", comm(F, C) == Element.identity(A.field)),
        ("[F,E]=E^2", comm(F, E) == E * E),
        ("E^s=E^2", conj(E, S) == E * E),
        ("F^s=F", conj(F, S) == F),
    ]
    return rows


def check_relations(field: GF64) -> RelationReport:
    """Evaluate the full relation table at SU level under both commutator
    and both conjugation candidates; exactly one combination must satisfy
    everything, and the satisfying conjugation must agree with the
    entrywise Frobenius image.  Hard-fails otherwise.
    """
    g = make_generators(field)
    results = {}
    for cname, comm in (("x^-1y^-1xy", comm_std), ("xyx^-1y^-1", comm_alt)):
        for jname, conj in (("g^-1xg", conj_right), ("gxg^-1", conj_left)):
            rows = _relation_rows(g, comm, conj)
            results[(cname, jname)] = rows
    winners = [k for k, rows in results.items() if all(ok for _, ok in rows)]
    if len(winners) != 1:
        raise AssertionError(
            f"relation table satisfied by {len(winners)} convention pairs, expected exactly 1"
        )
    cname, jname = winners[0]
    conj = conj_right if jname == "g^-1xg" else conj_left
    sig = g["sigma"]
    frob_match = all(
        conj(g[k], sig) == g[k].frob_image(1) for k in ("A", "B", "C", "D", "E", "F")
    )
    if not frob_match:
        raise AssertionError("sigma conjugation does not match the Frobenius image")
    return RelationReport(cname, jname, frob_match, results[winners[0]])
