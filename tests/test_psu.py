import random

import pytest

from psu38.gf64 import GF64, polymul_mod
from psu38.psu import (Element, PElement, canonicalize, check_relations,
                       comm_std, make_generators, pack, pgenerators)

from oracles import element_from_key, plain, scalar_mul, unpack


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


@pytest.fixture(scope="module")
def f():
    return GF64()


@pytest.fixture(scope="module")
def g(f):
    return make_generators(f)


@pytest.fixture(scope="module")
def p(f):
    return pgenerators(f)


def test_generators_are_special_unitary(f, g):
    for name in ("A", "B", "C", "D", "E", "F", "Z"):
        el = g[name]
        assert el.is_unitary(), name
        assert el.det() == 1, name


def test_unitarity_brute_force_for_D(f, g):
    """Rows of D are orthonormal under the Hermitian form; the diagonal
    needs 1+1+1 = 1 and the off-diagonal 1 + alpha + alpha^2 = 0."""
    a = f.alpha
    assert f.add(f.add(1, a), f.mul(a, a)) == 0
    d = g["D"]
    form = d.star_matrix_times_self()
    assert form == (1, 0, 0, 0, 1, 0, 0, 0, 1)


def test_power_relations(g):
    assert g["C"].power(3) == g["Z"]
    assert g["D"] * g["D"] == g["F"]
    assert g["E"].power(3) == g["B"]


def test_sigma_has_order_six(f, g):
    s = g["sigma"]
    x = s
    for i in range(1, 6):
        assert x != Element.identity(f)
        x = x * s
    assert x == Element.identity(f)


def test_identity_laws(f, g):
    e = Element.identity(f)
    for el in g.values():
        assert el * e == el
        assert e * el == el
        assert el * el.inv() == e
        assert el.inv() * el == e


def test_inverse_examples(g):
    assert Element.identity(g["A"].field).inv() == Element.identity(g["A"].field)
    assert g["A"].inv() == g["A"] * g["A"]
    assert g["D"].inv() * g["D"].inv() == g["F"].inv()


def test_inverse_against_adjugate(f, g):
    rng = random.Random(7)
    names = list("ABCDEF") + ["sigma"]
    for _ in range(50):
        el = Element.identity(f)
        for _ in range(rng.randint(1, 12)):
            el = el * g[rng.choice(names)]
        assert el.inv() == inv_adjugate(el)


def test_unitarity_preserved_by_products(f, g):
    rng = random.Random(11)
    names = list("ABCDEF") + ["sigma"]
    for _ in range(40):
        el = Element.identity(f)
        for _ in range(rng.randint(1, 20)):
            el = el * g[rng.choice(names)]
        assert el.is_unitary()
        assert el.inv().is_unitary()


def test_twist_additivity(f, g):
    rng = random.Random(13)
    names = list("ABCDEF")
    el = Element.identity(f)
    nsig = 0
    for _ in range(60):
        n = rng.choice(names + ["sigma"])
        el = el * g[n]
        if n == "sigma":
            nsig += 1
        assert el.twist == nsig % 6


def test_pack_unpack_roundtrip(f, g):
    rng = random.Random(17)
    names = list("ABCDEF") + ["sigma"]
    for _ in range(30):
        el = Element.identity(f)
        for _ in range(rng.randint(1, 10)):
            el = el * g[rng.choice(names)]
        mat, tw = unpack(el.key)
        assert mat == el.mat and tw == el.twist
        assert pack(mat, tw) == el.key
        assert element_from_key(f, el.key) == el


def test_canonicalize_idempotent_and_scalar_absorbing(f, g):
    a = f.alpha
    for el in (g["B"], g["D"], g["E"] * g["sigma"]):
        c = canonicalize(el)
        assert canonicalize(c) == c
        assert canonicalize(scalar_mul(el, a)) == c
        assert canonicalize(scalar_mul(el, f.alpha2)) == c
    z = g["Z"]
    m = g["D"]
    assert canonicalize(z * m) == canonicalize(m)
    ident = Element.identity(f)
    assert canonicalize(ident) == ident


def test_projective_equality_is_congruence(f, g):
    rng = random.Random(19)
    names = list("ABCDEF") + ["sigma"]
    for _ in range(25):
        el = Element.identity(f)
        for _ in range(rng.randint(1, 10)):
            el = el * g[rng.choice(names)]
        g1 = PElement(el)
        g2 = PElement(scalar_mul(el, f.alpha))
        assert g1 == g2
        h = PElement(g[rng.choice(names)])
        assert g1 * h == g2 * h
        assert h * g1 == h * g2


def test_pelement_z_is_identity(f, g, p):
    assert PElement(g["Z"]) == PElement(Element.identity(f))
    assert p["Fsigma3"] == p["F"] * p["sigma3"]


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


def test_commutator_example(f, g):
    # [F,E] = E^2 under the chosen convention
    assert comm_std(g["F"], g["E"]) == g["E"] * g["E"]


def test_bad_matrix_rejected(f):
    el = Element(f, (1, 1, 0, 0, 1, 0, 0, 0, 1), 0)
    assert not el.is_unitary()


def test_product_matches_schoolbook(f, ng):
    """Element products (row-table lookups) equal the schoolbook product
    over polymul_mod on random pairs from K1 and K2, under every twist."""
    rng = random.Random(29)
    pool = [x.el.mat for x in ng.K1.elems + ng.K2.elems]
    for _ in range(400):
        a = Element(f, rng.choice(pool), rng.randrange(6))
        for tb in range(6):
            b = Element(f, rng.choice(pool), tb)
            c = a * b
            assert (c.mat, c.twist) == schoolbook_product(f.modulus, a, b)


def test_canonicalize_is_min_of_three_scalar_multiples(f):
    """One scaling by the lead scalar gives the least of the three packed
    scalar multiples, also with 0 to 8 leading zero entries."""
    rng = random.Random(31)
    for i in range(3000):
        mat = tuple(0 if j < i % 9 else rng.randrange(64) for j in range(9))
        tw = rng.randrange(6)
        want = min(pack(tuple(polymul_mod(s, v, f.modulus) for v in mat), tw)
                   for s in (1, f.alpha, f.alpha2))
        el = Element(f, mat, tw)
        assert canonicalize(el).key == want
        assert PElement(el).key == want


def test_pelement_product_and_inverse_are_canonical(ng):
    """PElement products and inverses, built in one pass, are the classes
    of the Element products and inverses."""
    rng = random.Random(37)
    for _ in range(300):
        x, y = plain(rng.choice(ng.K1.elems)), rng.choice(ng.K2.elems)
        assert (x * y).key == canonicalize(x.el * y.el).key
        assert x.inv().key == canonicalize(x.el.inv()).key
