"""Cayley-Dickson doubling over the rationals: reals through octonions.

Levels 0..3 give coordinate algebras of dimension 1, 2, 4, 8.  The doubling
product is

    (a, b) (c, d) = (a c - conj(d) b,  d a + b conj(c))

and conjugation is (a, b)* = (a*, -b).  Basis vectors multiply by XOR of
their indices up to sign: eps(i) eps(j) = +/- eps(i ^ j), with the sign
produced by the recursion.  Levels above 3 lose the composition property
and are rejected.

:class:`CD` is the reference arithmetic and the source of
:func:`basis_table`.  Matrices with Cayley-Dickson entries are computed on
integers instead: ``sign_tensor(level)`` is the table as one signed
(d, d, d) array, and :func:`mat_product` multiplies (..., n, n, d) integer
arrays through it (Baez, "The Octonions", Bull. AMS 39, 2002).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .linalg import frac, max_abs_int

MAX_LEVEL = 3


def _conj_coords(a: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    return (a[0],) + tuple(-x for x in a[1:])


def _mul_coords(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = len(a)
    if n == 1:
        return (a[0] * b[0],)
    h = n // 2
    a1, a2 = a[:h], a[h:]
    c1, c2 = b[:h], b[h:]
    first = tuple(
        x - y
        for x, y in zip(_mul_coords(a1, c1), _mul_coords(_conj_coords(c2), a2))
    )
    second = tuple(
        x + y
        for x, y in zip(_mul_coords(c2, a1), _mul_coords(a2, _conj_coords(c1)))
    )
    return first + second


@dataclass(frozen=True)
class CD:
    """Element of the level-th Cayley-Dickson algebra."""

    level: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if not (0 <= self.level <= MAX_LEVEL):
            raise ValueError("Cayley-Dickson level must be between 0 and %d" % MAX_LEVEL)
        if len(self.coords) != 2**self.level:
            raise ValueError("expected %d coordinates" % 2**self.level)
        object.__setattr__(self, "coords", tuple(frac(x) for x in self.coords))

    @staticmethod
    def from_coords(level: int, coords: Sequence) -> "CD":
        return CD(level, tuple(frac(x) for x in coords))

    @staticmethod
    def zero(level: int) -> "CD":
        return CD(level, (Fraction(0),) * 2**level)

    @staticmethod
    def one(level: int) -> "CD":
        return CD.basis(level, 0)

    @staticmethod
    def basis(level: int, j: int) -> "CD":
        n = 2**level
        if not (0 <= j < n):
            raise ValueError("basis index out of range")
        return CD(level, tuple(Fraction(1 if i == j else 0) for i in range(n)))

    @staticmethod
    def scalar(level: int, x) -> "CD":
        n = 2**level
        return CD(level, (frac(x),) + (Fraction(0),) * (n - 1))

    def _check(self, other: "CD"):
        if self.level != other.level:
            raise ValueError("mixed Cayley-Dickson levels")

    def __add__(self, other: "CD") -> "CD":
        self._check(other)
        return CD(self.level, tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "CD") -> "CD":
        self._check(other)
        return CD(self.level, tuple(x - y for x, y in zip(self.coords, other.coords)))

    def __neg__(self) -> "CD":
        return CD(self.level, tuple(-x for x in self.coords))

    def __mul__(self, other):
        if isinstance(other, CD):
            self._check(other)
            return CD(self.level, _mul_coords(self.coords, other.coords))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "CD":
        c = frac(c)
        return CD(self.level, tuple(c * x for x in self.coords))

    def conj(self) -> "CD":
        return CD(self.level, _conj_coords(self.coords))

    def real_part(self) -> Fraction:
        return self.coords[0]

    def norm_sq(self) -> Fraction:
        # equals real_part(a * conj(a)) for levels 0..3
        return sum((x * x for x in self.coords), Fraction(0))

    def inverse(self) -> "CD":
        n = self.norm_sq()
        if n == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.conj().scale(Fraction(1) / n)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)

    def is_real(self) -> bool:
        return all(x == 0 for x in self.coords[1:])


@lru_cache(maxsize=None)
def basis_table(level: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """table[i][j] = (k, sign) with eps_i * eps_j = sign * eps_k.

    Derived from the doubling recursion; k is always i XOR j.
    """
    n = 2**level
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = CD.basis(level, i) * CD.basis(level, j)
            nz = [(k, c) for k, c in enumerate(prod.coords) if c != 0]
            if len(nz) != 1 or abs(nz[0][1]) != 1 or nz[0][0] != i ^ j:
                raise AssertionError("eps_%d * eps_%d is not +-eps_%d" % (i, j, i ^ j))
            k, c = nz[0]
            row.append((k, 1 if c > 0 else -1))
        out.append(tuple(row))
    return tuple(out)


@lru_cache(maxsize=None)
def sign_tensor(level: int) -> np.ndarray:
    """Read-only (d, d, d) int64 array o with eps_a eps_b = sum_c o[a, b, c] eps_c.

    The nonzero entries are o[a, b, a ^ b] = +/-1, read off :func:`basis_table`.
    """
    table = basis_table(level)
    d = len(table)
    o = np.zeros((d, d, d), dtype=np.int64)
    for a, row in enumerate(table):
        for b, (c, sign) in enumerate(row):
            o[a, b, c] = sign
    o.setflags(write=False)
    return o


def conj_array(x: np.ndarray) -> np.ndarray:
    """Entrywise conjugate of an array whose last axis holds coordinates."""
    return np.concatenate((x[..., :1], -x[..., 1:]), axis=-1)


def mat_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Products of n x n matrices with Cayley-Dickson entries, as (..., n, n, d) arrays.

    (xy)[i, j] = sum_t x[i, t] y[t, j], each entry product contracted with
    ``sign_tensor``; leading axes broadcast.  The sum runs in int64 only when
    max|x| max|y| n d is below 2**63, and in object dtype otherwise: every
    output has at most n d nonzero terms, so this bounds the partial sums of
    any contraction order einsum picks.
    """
    n, d = x.shape[-2:]
    if max_abs_int(x) * max_abs_int(y) * n * d >= 2**63:
        x, y = x.astype(object), y.astype(object)
    o = sign_tensor(d.bit_length() - 1)
    return np.einsum("...ita,...tjb,abc->...ijc", x, y, o, optimize=True)


def coords_in_basis(w: np.ndarray, basis: np.ndarray) -> Optional[np.ndarray]:
    """Integer coordinates of each (n, n, d) matrix of w in basis, or None.

    basis is (N, n, n, d) with entries 0, +1, -1 and pairwise disjoint
    supports, so a coordinate is the inner product with its basis matrix
    divided by that matrix's squared norm.  None when some matrix of w is not
    the integer combination of the basis its coordinates give.  Each sum has
    at most two nonzero terms, so int64 input below 2**62 cannot overflow.
    """
    b = basis.reshape(len(basis), int(np.prod(basis.shape[1:])))
    flat = w.reshape(-1, b.shape[1])
    coords = (flat @ b.T) // (b * b).sum(axis=1)
    if not (coords @ b == flat).all():
        return None
    return coords.reshape(w.shape[:-3] + (len(basis),))
