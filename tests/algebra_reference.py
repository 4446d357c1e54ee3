"""The algebra presentation as a dict of Fraction tuples, kept as a reference.

``TableAlgebra`` is ``AlgebraPresentation`` as it was before it became one
integer structure tensor and one scale: the constants are a dict from
ordered pairs (i, j) to sorted (k, Fraction) tuples, and every product and
check is a Python loop over it.  It differs from that code in one place on
purpose: coefficients given twice at one (i, j, k) are added when the table
is cleaned, as the library does now.  Before, the products added them while
the cleared integer tensor kept the last one, so the two disagreed.

``reference_direct_sum`` and ``reference_split_null_extension`` build their
tables from the operands' entries, as the library's constructors did.
"""

from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from jordanium.linalg import Mat, frac

Vec = tuple[Fraction, ...]


class TableAlgebra:
    """Commutative unital algebra on a dict of Fraction tuples."""

    def __init__(self, label: str, dim: int, unit: Sequence, structure):
        self.label = str(label)
        self.dim = int(dim)
        self.unit: Vec = tuple(frac(x) for x in unit)
        if len(self.unit) != self.dim:
            raise ValueError("unit has wrong length")
        table: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = {}
        for (i, j), entries in structure.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError("structure index out of range")
            sums: dict[int, Fraction] = {}
            for k, q in entries:
                k, q = int(k), frac(q)
                if q and not 0 <= k < self.dim:
                    raise ValueError("structure index out of range")
                sums[k] = sums.get(k, Fraction(0)) + q
            cleaned = tuple(sorted((k, q) for k, q in sums.items() if q))
            if (j, i) in table and table[(j, i)] != cleaned:
                raise ValueError("structure constants are not commutative")
            table[(i, j)] = cleaned
            table[(j, i)] = cleaned
        self._table = {ij: entries for ij, entries in table.items() if entries}
        j = self.unit_defect()
        if j is not None:
            raise ValueError("unit law fails on basis vector %d" % j)

    def basis_product(self, i: int, j: int) -> Vec:
        out = [Fraction(0)] * self.dim
        for k, q in self._table.get((i, j), ()):
            out[k] += q
        return tuple(out)

    def mul(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vec:
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                if xi and yj:
                    for k, q in self._table.get((i, j), ()):
                        out[k] += xi * yj * q
        return tuple(out)

    def unit_defect(self) -> Optional[int]:
        """First j with unit e_j != e_j, or None."""
        for j in range(self.dim):
            col = [Fraction(0)] * self.dim
            for i, ui in enumerate(self.unit):
                for k, q in self._table.get((i, j), ()) if ui else ():
                    col[k] += ui * q
            if col != [Fraction(int(k == j)) for k in range(self.dim)]:
                return j
        return None

    def structure_entries(self) -> list[tuple[int, int, int, Fraction]]:
        out = [(i, j, k, q) for (i, j), entries in self._table.items() for k, q in entries]
        out.sort(key=lambda e: e[:3])
        return out

    def int_tensor(self) -> tuple[np.ndarray, int]:
        """The entries cleared to one scale as a dense tensor, one index at a
        time: int64 when every entry is below 2**62 in size, else object."""
        entries = self.structure_entries()
        vals = Mat.from_rows([[q for *_, q in entries]])
        out = np.zeros((self.dim,) * 3, dtype=vals.ints.dtype)
        for (i, j, k, _), v in zip(entries, vals.ints[0]):
            out[i, j, k] = v
        return out, vals.den

    def __eq__(self, other):
        return (
            isinstance(other, TableAlgebra)
            and self.label == other.label
            and self.dim == other.dim
            and self.unit == other.unit
            and self._table == other._table
        )


def upper_structure(entries) -> dict:
    """The map (i, j) -> [(k, q)] of the entries with i <= j."""
    out: dict = {}
    for i, j, k, q in entries:
        if i <= j:
            out.setdefault((i, j), []).append((k, q))
    return out


def reference_direct_sum(a: TableAlgebra, b: TableAlgebra, label: Optional[str] = None) -> TableAlgebra:
    structure = upper_structure(a.structure_entries())
    for i, j, k, q in b.structure_entries():
        if i <= j:
            structure.setdefault((a.dim + i, a.dim + j), []).append((a.dim + k, q))
    return TableAlgebra(label or (a.label + "+" + b.label), a.dim + b.dim, a.unit + b.unit, structure)


def reference_split_null_extension(a: TableAlgebra, action_entries, mdim: int, label: str) -> TableAlgebra:
    """J + M from the module's (i, alpha, beta, coeff) action entries."""
    n = a.dim
    structure = upper_structure(a.structure_entries())
    for i, alpha, beta, v in action_entries:
        structure.setdefault((i, n + alpha), []).append((n + beta, v))
    unit = a.unit + (Fraction(0),) * mdim
    return TableAlgebra("snx(%s,%s)" % (a.label, label), n + mdim, unit, structure)
