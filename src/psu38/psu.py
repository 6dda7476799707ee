"""Semilinear unitary 3x3 transformations over GF(64).

An Element is an exact pair (M, e): a matrix M in SU_3(8) together with a
Frobenius twist exponent e, composing by

    (M, e) * (N, f) = (M . rho^e(N), e + f mod 6)

i.e. the right factor acts first on column vectors.  PElement is the
image modulo the scalar subgroup <alpha I> (the matrix Z), represented by
the scalar multiple whose packed serialization is smallest.

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
    k = 0
    for v in mat:
        k = (k << 6) | v
    return (k << 3) | twist


def unpack(key: int) -> tuple[tuple[int, ...], int]:
    twist = key & 7
    key >>= 3
    mat = [0] * 9
    for i in range(8, -1, -1):
        mat[i] = key & 63
        key >>= 6
    return tuple(mat), twist


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

    @staticmethod
    def from_key(field: GF64, key: int) -> "Element":
        mat, twist = unpack(key)
        return Element(field, mat, twist)

    def __mul__(self, other: "Element") -> "Element":
        f = self.field
        exp, log = f.exp, f.log
        n = other.mat
        e = self.twist
        if e:
            fr = f.FROB[e]
            n = tuple(int(fr[v]) for v in n)
        a = self.mat
        c = [0] * 9
        for i in (0, 3, 6):
            a0, a1, a2 = a[i], a[i + 1], a[i + 2]
            for j in (0, 1, 2):
                v = 0
                b = n[j]
                if a0 and b:
                    v ^= exp[log[a0] + log[b]]
                b = n[3 + j]
                if a1 and b:
                    v ^= exp[log[a1] + log[b]]
                b = n[6 + j]
                if a2 and b:
                    v ^= exp[log[a2] + log[b]]
                c[i + j] = v
        return Element(f, tuple(c), e + other.twist)

    def star(self) -> "Element":
        """Conjugate transpose (entrywise tau, then transpose); twist kept."""
        f = self.field
        m = self.mat
        conj = f.FROB[3]
        mt = tuple(int(conj[m[3 * j + i]]) for i in range(3) for j in range(3))
        return Element(f, mt, self.twist)

    def inv(self) -> "Element":
        """Inverse, using M^-1 = M* for unitary M."""
        f = self.field
        e = self.twist
        mi = self.star().mat
        if e:
            fr = f.FROB[(6 - e) % 6]
            mi = tuple(int(fr[v]) for v in mi)
        return Element(f, mi, (6 - e) % 6)

    def inv_generic(self) -> "Element":
        """Inverse via adjugate/determinant; no unitarity assumption."""
        f = self.field
        m = self.mat
        d = self.det()
        if d == 0:
            raise ZeroDivisionError("singular matrix")
        di = f.inv(d)
        adj = [0] * 9
        for i in range(3):
            for j in range(3):
                r = [k for k in range(3) if k != j]
                c = [k for k in range(3) if k != i]
                # char 2: cofactor signs vanish
                adj[3 * i + j] = f.add(
                    f.mul(m[3 * r[0] + c[0]], m[3 * r[1] + c[1]]),
                    f.mul(m[3 * r[0] + c[1]], m[3 * r[1] + c[0]]),
                )
        mi = tuple(f.mul(di, v) for v in adj)
        e = self.twist
        if e:
            fr = f.FROB[(6 - e) % 6]
            mi = tuple(int(fr[v]) for v in mi)
        return Element(f, mi, (6 - e) % 6)

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
        f = self.field
        a = self.star().mat
        b = self.mat
        c = [0] * 9
        for i in range(3):
            for j in range(3):
                v = 0
                for k in range(3):
                    v ^= f.mul(a[3 * i + k], b[3 * k + j])
                c[3 * i + j] = v
        return tuple(c)

    def frob_image(self, k: int = 1) -> "Element":
        """Entrywise rho^k image, twist unchanged."""
        fr = self.field.FROB[k % 6]
        return Element(self.field, tuple(int(fr[v]) for v in self.mat), self.twist)

    def scalar_mul(self, s: int) -> "Element":
        f = self.field
        return Element(f, tuple(f.mul(s, v) for v in self.mat), self.twist)

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
    f = el.field
    best = el
    for s in (f.alpha, f.alpha2):
        c = el.scalar_mul(s)
        if c.key < best.key:
            best = c
    return best


class PElement:
    """Projective class of an Element, stored in canonical form."""

    __slots__ = ("el", "key")

    def __init__(self, el: Element):
        c = canonicalize(el)
        self.el = c
        self.key = c.key

    def __mul__(self, other: "PElement") -> "PElement":
        return PElement(self.el * other.el)

    def inv(self) -> "PElement":
        return PElement(self.el.inv())

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
