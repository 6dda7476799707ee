"""psu's kernel path (make_generators, words, special_unitary, PElement,
check_relations) against the Python Element arithmetic of oracles."""

import random

import pytest

from psu38.fastops import FieldOps, bpack, bunpack
from psu38.gf64 import ALT_MODULI, DEFAULT_MODULUS, GF64, polymul_mod
from psu38.psu import (CONJUGATIONS, COMMUTATORS, IDENTITY, PElement, check_relations,
                       det, make_generators, pgenerators, relation_rows,
                       special_unitary, words)

import oracles
from oracles import (Element, ProjElement, canonicalize, element_from_key, obj, pack,
                     scalar_mul, unpack)

NAMES = list("ABCDEF") + ["sigma"]


def inv_adjugate(el: Element) -> Element:
    """Inverse via adjugate/determinant, with no unitarity assumption: an
    oracle for Element.inv."""
    f = el.field
    m = el.mat
    d = el.det()
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
    e = (6 - el.twist) % 6
    mi = tuple(f.frobenius(f.mul(di, v), e) for v in adj)
    return Element(f, mi, e)


def schoolbook_product(modulus: int, a: Element, b: Element) -> tuple:
    """(a.mat . rho^e(b.mat), twist) from polymul_mod alone, no tables."""
    def frob(x, k):
        for _ in range(k):
            x = polymul_mod(x, x, modulus)
        return x

    n = [frob(v, a.twist) for v in b.mat]
    c = []
    for i in range(3):
        for j in range(3):
            v = 0
            for k in range(3):
                v ^= polymul_mod(a.mat[3 * i + k], n[3 * k + j], modulus)
            c.append(v)
    return tuple(c), (a.twist + b.twist) % 6


def random_words(rng, n, longest):
    """n random words in the generators, each 1 to longest letters."""
    return [tuple(rng.choice(NAMES) for _ in range(rng.randint(1, longest)))
            for _ in range(n)]


def evaluate(g, w) -> Element:
    """The word w in the oracle Elements g, multiplied left to right."""
    el = Element.identity(next(iter(g.values())).field)
    for n in w:
        el = el * g[n]
    return el


@pytest.fixture(scope="module")
def f():
    return GF64()


@pytest.fixture(scope="module")
def ops(f):
    return FieldOps(f)


@pytest.fixture(scope="module")
def keys(f):
    return make_generators(f)


@pytest.fixture(scope="module")
def g(f, keys):
    """The generators as oracle Elements."""
    return {k: element_from_key(f, v) for k, v in keys.items()}


@pytest.fixture(scope="module")
def p(f):
    return pgenerators(f)


def test_generators_are_special_unitary(f, ops, keys, g):
    names = ("A", "B", "C", "D", "E", "F", "Z")
    assert special_unitary(ops, [keys[n] for n in names]) == [True] * len(names)
    for name in names:
        el = g[name]
        assert el.is_unitary(), name
        assert el.det() == 1 == det(f, el.mat), name


def test_unitarity_brute_force_for_D(f, ops, keys, g):
    """Rows of D are orthonormal under the Hermitian form; the diagonal
    needs 1+1+1 = 1 and the off-diagonal 1 + alpha + alpha^2 = 0."""
    a = f.alpha
    assert f.add(f.add(1, a), f.mul(a, a)) == 0
    d = g["D"]
    form = d.star_matrix_times_self()
    assert form == (1, 0, 0, 0, 1, 0, 0, 0, 1)
    assert words(ops, keys, [("D'", "D")]) == [IDENTITY] == [pack(form, 0)]


def test_power_relations(ops, keys, g):
    assert g["C"].power(3) == g["Z"]
    assert g["D"] * g["D"] == g["F"]
    assert g["E"].power(3) == g["B"]
    assert words(ops, keys, [("C", "C", "C"), ("D", "D"), ("E", "E", "E")]) == [
        g["Z"].key, g["F"].key, g["B"].key]


def test_sigma_has_order_six(f, ops, keys, g):
    s = g["sigma"]
    x = s
    for i in range(1, 6):
        assert x != Element.identity(f)
        x = x * s
    assert x == Element.identity(f)
    powers = words(ops, keys, [("sigma",) * k for k in range(1, 7)])
    assert powers == [s.power(k).key for k in range(1, 7)]
    assert powers.index(IDENTITY) == 5


def test_identity_laws(f, ops, keys, g):
    e = Element.identity(f)
    for el in g.values():
        assert el * e == el
        assert e * el == el
        assert el * el.inv() == e
        assert el.inv() * el == e
    got = words(ops, keys, [w for k in keys for w in ((k, k + "'"), (k + "'", k), (k,))])
    assert got == [w for k in keys for w in (e.key, e.key, g[k].key)]


def test_inverse_examples(f, ops, keys, g):
    assert Element.identity(g["A"].field).inv() == Element.identity(g["A"].field)
    assert g["A"].inv() == g["A"] * g["A"]
    assert g["D"].inv() * g["D"].inv() == g["F"].inv()
    a_inv, a2, d_inv2, f_inv = words(ops, keys, [("A'",), ("A", "A"), ("D'", "D'"), ("F'",)])
    assert a_inv == a2 == g["A"].inv().key and d_inv2 == f_inv == g["F"].inv().key
    m, t = bunpack([IDENTITY])
    assert bpack(*ops.binv(m, t)).tolist() == [IDENTITY]


def test_inverse_against_adjugate(f, ops, keys, g):
    rng = random.Random(7)
    els = [evaluate(g, w) for w in random_words(rng, 50, 12)]
    want = [inv_adjugate(el) for el in els]
    assert [el.inv() for el in els] == want
    got = bpack(*ops.binv(*bunpack([el.key for el in els])))
    assert got.tolist() == [x.key for x in want]


def test_unitarity_preserved_by_products(f, ops, keys, g):
    rng = random.Random(11)
    ws = random_words(rng, 40, 20)
    els = [evaluate(g, w) for w in ws]
    for el in els:
        assert el.is_unitary()
        assert el.inv().is_unitary()
    got = words(ops, keys, ws)
    assert got == [el.key for el in els]
    assert special_unitary(ops, got + [el.inv().key for el in els]) == [True] * 80


def test_twist_additivity(f, ops, keys, g):
    rng = random.Random(13)
    names = list("ABCDEF")
    el = Element.identity(f)
    nsig = 0
    seq, want = [], []
    for _ in range(60):
        n = rng.choice(names + ["sigma"])
        el = el * g[n]
        if n == "sigma":
            nsig += 1
        assert el.twist == nsig % 6
        seq.append(n)
        want.append(el.key)
    got = words(ops, keys, [tuple(seq[:i]) for i in range(1, 61)])
    assert got == want


def test_pack_unpack_roundtrip(f, ops, keys, g):
    rng = random.Random(17)
    els = [evaluate(g, w) for w in random_words(rng, 30, 10)]
    for el in els:
        mat, tw = unpack(el.key)
        assert mat == el.mat and tw == el.twist
        assert pack(mat, tw) == el.key
        assert element_from_key(f, el.key) == el
    m, t = bunpack([el.key for el in els])
    assert m.reshape(-1, 9).tolist() == [list(el.mat) for el in els]
    assert t.tolist() == [el.twist for el in els]
    assert bpack(m, t).tolist() == [el.key for el in els]


def test_canonicalize_idempotent_and_scalar_absorbing(f, ops, g):
    a = f.alpha
    for el in (g["B"], g["D"], g["E"] * g["sigma"]):
        c = canonicalize(el)
        assert canonicalize(c) == c
        assert canonicalize(scalar_mul(el, a)) == c
        assert canonicalize(scalar_mul(el, f.alpha2)) == c
        multiples = [c, el, scalar_mul(el, a), scalar_mul(el, f.alpha2)]
        got = ops.bpkeys(*bunpack([x.key for x in multiples]))
        assert got.tolist() == [c.key] * 4
    z = g["Z"]
    m = g["D"]
    assert canonicalize(z * m) == canonicalize(m)
    ident = Element.identity(f)
    assert canonicalize(ident) == ident
    assert ops.bpkeys(*bunpack([z.key, ident.key])).tolist() == [IDENTITY] * 2


def test_projective_equality_is_congruence(f, ops, g):
    """Two scalar multiples are one class, for the oracle's ProjElement and
    for PElement, and so are their products with a third element."""
    rng = random.Random(19)
    names = list("ABCDEF") + ["sigma"]
    for _ in range(25):
        el = Element.identity(f)
        for _ in range(rng.randint(1, 10)):
            el = el * g[rng.choice(names)]
        g1 = ProjElement(el)
        g2 = ProjElement(scalar_mul(el, f.alpha))
        assert g1 == g2
        h = ProjElement(g[rng.choice(names)])
        assert g1 * h == g2 * h
        assert h * g1 == h * g2
        p1, p2, ph = (PElement(ops, int(ops.bpkeys(*bunpack([x.key]))[0]))
                      for x in (el, scalar_mul(el, f.alpha), h))
        assert p1 == p2 and p1.key == g1.key
        assert (p1 * ph).key == (p2 * ph).key == (g1 * h).key
        assert (ph * p1).key == (h * g1).key


def test_pelement_z_is_identity(f, ops, g, p):
    assert ProjElement(g["Z"]) == ProjElement(Element.identity(f))
    assert p["Z"] == PElement(ops, IDENTITY)
    assert p["Fsigma3"] == p["F"] * p["sigma3"]
    assert p["Fsigma3"].key == ProjElement(g["F"] * g["sigma"].power(3)).key


def test_relation_table(f):
    rep = check_relations(f)
    assert rep.all_ok
    assert rep.sigma_matches_frobenius
    assert rep.commutator_convention == "x^-1y^-1xy"
    assert dict(rep.rows)["[B,C]=1"]
    assert dict(rep.rows)["[F,E]=E^2"]
    assert dict(rep.rows)["B^s=B^-1"]


def test_relation_table_alternate_modulus():
    rep = check_relations(GF64(0b1000011))
    assert rep.all_ok


@pytest.mark.parametrize("modulus", (DEFAULT_MODULUS,) + ALT_MODULI)
def test_relation_rows_equal_the_oracle_rows(modulus):
    """The rows of all four convention pairs, and the sigma/Frobenius
    check of each conjugation convention, from batched words equal those
    of the oracle Elements; exactly one pair satisfies every row."""
    f = GF64(modulus)
    g = {k: element_from_key(f, v) for k, v in make_generators(f).items()}
    rows, sigma = relation_rows(f)
    assert list(rows) == [(c, j) for c, _ in COMMUTATORS for j, _ in CONJUGATIONS]
    oracle_comm = {"x^-1y^-1xy": oracles.comm_std, "xyx^-1y^-1": oracles.comm_alt}
    oracle_conj = {"g^-1xg": oracles.conj_right, "gxg^-1": oracles.conj_left}
    for (c, j), got in rows.items():
        assert got == oracles.relation_rows(g, oracle_comm[c], oracle_conj[j])
    for j, got in sigma.items():
        assert got == [oracle_conj[j](g[k], g["sigma"]) == g[k].frob_image(1)
                       for k in "ABCDEF"]
    assert sum(all(ok for _, ok in r) for r in rows.values()) == 1


def test_commutator_example(ops, keys, g):
    # [F,E] = E^2 under the chosen convention
    assert oracles.comm_std(g["F"], g["E"]) == g["E"] * g["E"]
    assert words(ops, keys, [("F'", "E'", "F", "E")]) == [(g["E"] * g["E"]).key]


def test_bad_matrix_rejected(f, ops):
    el = Element(f, (1, 1, 0, 0, 1, 0, 0, 0, 1), 0)
    assert not el.is_unitary()
    assert special_unitary(ops, [el.key]) == [False]


def test_product_matches_schoolbook(f, ops, ng):
    """Element products (row-table lookups) and bsmul equal the schoolbook
    product over polymul_mod on random pairs from K1 and K2, under every
    twist."""
    rng = random.Random(29)
    pool = [unpack(x.key)[0] for x in ng.K1.elems + ng.K2.elems]
    pairs = []
    for _ in range(400):
        a = Element(f, rng.choice(pool), rng.randrange(6))
        for tb in range(6):
            b = Element(f, rng.choice(pool), tb)
            c = a * b
            want = schoolbook_product(f.modulus, a, b)
            assert (c.mat, c.twist) == want
            pairs.append((a.key, b.key, pack(*want)))
    am, at = bunpack([a for a, _, _ in pairs])
    bm, bt = bunpack([b for _, b, _ in pairs])
    assert bpack(*ops.bsmul(am, at, bm, bt)).tolist() == [c for _, _, c in pairs]


def test_canonicalize_is_min_of_three_scalar_multiples(f, ops):
    """One scaling by the lead scalar gives the least of the three packed
    scalar multiples, also with 0 to 8 leading zero entries: for the
    oracle's canonicalize and for bpkeys."""
    rng = random.Random(31)
    keys, wants = [], []
    for i in range(3000):
        mat = tuple(0 if j < i % 9 else rng.randrange(64) for j in range(9))
        tw = rng.randrange(6)
        want = min(pack(tuple(polymul_mod(s, v, f.modulus) for v in mat), tw)
                   for s in (1, f.alpha, f.alpha2))
        el = Element(f, mat, tw)
        assert canonicalize(el).key == want
        assert ProjElement(el).key == want
        keys.append(el.key)
        wants.append(want)
    assert ops.bpkeys(*bunpack(keys)).tolist() == wants


def test_pelement_product_and_inverse_are_canonical(ng):
    """PElement products and inverses, one kernel row each, are the
    classes of the oracle's Element products and inverses."""
    rng = random.Random(37)
    for _ in range(300):
        x, y = rng.choice(ng.K1.elems), rng.choice(ng.K2.elems)
        ex, ey = obj(x).el, obj(y).el
        assert (x * y).key == canonicalize(ex * ey).key
        assert x.inv().key == canonicalize(ex.inv()).key
