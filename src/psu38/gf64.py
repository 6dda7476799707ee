"""Exact arithmetic in GF(2^6).

Elements are ints 0..63; bit i is the coefficient of x^i in the residue
class modulo a fixed degree-6 primitive polynomial.  Addition is XOR.
The exp/log tables come from repeated multiplication by the class of x,
so they are valid exactly when that class generates the 63 units (which
also forces the modulus to be irreducible); the full 64x64 product table
and the Frobenius powers are read off them.

The product table MUL[a, b] = a.b and the Frobenius powers
FROB[k, a] = a^(2^k) are numpy arrays, read by the batched kernels of
fastops, the one place that multiplies matrices.  The scalar operations
read exp and log.  lead_scalar is the one definition of the projective
canonical scalar.
"""

from __future__ import annotations

import numpy as np

# degree-6 Conway polynomial x^6 + x^4 + x^3 + x + 1
DEFAULT_MODULUS = 0b1011011

# a few other primitive degree-6 moduli, handy for invariance tests
ALT_MODULI = (0b1000011, 0b1100001, 0b1101101)


class BadModulus(ValueError):
    """Modulus is not a degree-6 polynomial with primitive root x."""


def polymul_mod(a: int, b: int, modulus: int) -> int:
    """Schoolbook carry-less multiply of a and b reduced mod the modulus.

    Independent of the table path; used to build the tables and as the
    oracle they are tested against.
    """
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & 0x40:
            a ^= modulus
    return r


class GF64:
    """Tables for one choice of modulus. Immutable after construction."""

    def __init__(self, modulus: int = DEFAULT_MODULUS):
        if modulus.bit_length() != 7:
            raise BadModulus(f"modulus {modulus:#b} is not of degree 6")
        self.modulus = modulus
        exp = [1]
        for _ in range(62):
            exp.append(polymul_mod(exp[-1], 2, modulus))
        if len(set(exp)) != 63 or 0 in exp:
            # reducible modulus or x imprimitive: either way the unit
            # group generated by x has fewer than 63 elements
            raise BadModulus(f"x is not a primitive root mod {modulus:#b}")
        self.exp = exp + exp  # doubled so exp[i+j] needs no reduction
        log = [0] * 64
        for i, v in enumerate(exp):
            log[v] = i
        self.log = log

        # MUL[a, b] = a.b and FROB[k, a] = a^(2^k), from the logs of the
        # nonzero elements
        E, L = np.array(self.exp, dtype=np.uint8), np.array(log)
        nz = np.arange(64) > 0
        self.MUL = np.where(nz[:, None] & nz, E[L[:, None] + L], 0).astype(np.uint8)
        self.FROB = np.where(nz, E[(L << np.arange(6)[:, None]) % 63], 0).astype(np.uint8)

        self.zeta = 2
        self.beta = exp[7]
        self.alpha = exp[21]
        self.alpha2 = exp[42]
        if self.order(self.beta) != 9 or self.order(self.alpha) != 3:
            raise BadModulus("derived constants have wrong order")
        # lead_scalar[a]: the s in {1, alpha, alpha^2} with the least s.a
        # (1 for a = 0).  The three s.a of a nonzero a are distinct, so
        # scaling a matrix by lead_scalar[first nonzero entry] gives the
        # least packed key of its three scalar multiples.
        scalars = (1, self.alpha, self.alpha2)
        self.lead_scalar = tuple(
            min(scalars, key=lambda s: self.mul(s, a)) for a in range(64))

    # -- scalar operations ------------------------------------------------

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        return self.exp[self.log[a] + self.log[b]] if a and b else 0

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(64)")
        return self.exp[63 - self.log[a]]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            return 0 if k else 1
        return self.exp[(self.log[a] * k) % 63]

    def frobenius(self, a: int, k: int = 1) -> int:
        """a^(2^k); k is taken mod 6."""
        return self.exp[(self.log[a] << (k % 6)) % 63] if a else 0

    def conj(self, a: int) -> int:
        """tau = frobenius cubed, the order-2 automorphism x -> x^8."""
        return self.frobenius(a, 3)

    def order(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        la = self.log[a]
        n = 63
        from math import gcd

        return n // gcd(n, la)

    def __eq__(self, other) -> bool:
        return isinstance(other, GF64) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("GF64", self.modulus))

    def __repr__(self):
        return f"GF64(modulus={self.modulus:#b})"
