"""The d^2 certificate one basis form at a time, kept as a reference.

``reference_d2_results`` is ``forms d2check`` as it ran before it became one
product of two cached differentials (``forms.d_squared_witness``): for each
degree, each sorted key and each algebra basis element it builds the basis
form, tests d(d w) and stops at the first failure.  ``bent_frame`` copies a
derivation basis with one bracket constant or one frame operator entry
changed, so that d^2 = 0 fails and both routes report a failure; ``BENDS``
are the bent frames the tests compare the routes on, as (algebra alias,
kind, where) triples.
"""

from itertools import combinations
from typing import Iterable

import numpy as np

from jordanium.derivations import DerivationBasis, bracket_constants
from jordanium.forms import DerForm, d_der
from jordanium.linalg import Mat

BENDS = [
    ("j23", "bracket", (0, 1, 7)),
    ("j13", "bracket", (0, 1, 2)),
    ("jspin4", "bracket", (0, 1, 5)),
    ("j13", "frame", (2, 4, 5)),
    ("jspin4", "frame", (5, 3, 4)),
    ("j23", "idle", (0, 1)),
    ("jspin4", "idle", (0, 1)),
]


def reference_d2_results(der: DerivationBasis, degrees: Iterable[int]) -> dict:
    """The d2check results of the per-form loop over the given degrees."""
    a = der.algebra
    checked = 0
    failure = None
    for deg in degrees:
        for key in combinations(range(der.dim), deg):
            for i in range(a.dim):
                w = DerForm(der, deg, {key: a.basis_element(i)})
                checked += 1
                if not d_der(d_der(w)).is_zero():
                    failure = {"degree": deg, "key": list(key), "basis": i}
                    break
            if failure:
                break
        if failure:
            break
    results = {"forms_checked": checked, "all_zero": failure is None}
    if failure:
        results["first_failure"] = failure
    return results


def bent_frame(der: DerivationBasis, kind: str, where: tuple[int, ...]) -> DerivationBasis:
    """A copy of der over its own bracket constants, with one raised by one.

    kind "bracket": c^tau_pq for where (p, q, tau), p < q (the upper
    triangle, which the differential reads).  kind "frame": the entry
    X_mu[i, j] of a frame operator for where (mu, i, j).  kind "idle": a zero
    operator X_d is appended and c^d_pq raised for where (p, q); [X_p, X_q]
    still expands in the frame, so d^2 vanishes on degree 0 and first fails
    on degree 1.
    """
    br = bracket_constants(der)
    d = der.dim
    c = br.ints.reshape(d, d, d)
    mats = list(der.mats)
    if kind == "idle":
        c = np.pad(c, ((0, 1), (0, 1), (0, 1)))
        mats.append(Mat.zeros(der.algebra.dim, der.algebra.dim))
        where = (*where, d)
        kind = "bracket"
    else:
        c = c.copy()
    if kind == "bracket":
        p, q, tau = where
        c[p, q, tau] += br.den
    else:
        mu, i, j = where
        x = mats[mu].ints.copy()
        x[i, j] += mats[mu].den
        mats[mu] = Mat(x, mats[mu].den)
    bent = DerivationBasis(der.algebra, tuple(mats), der.free_coords)
    # DerivationBasis is frozen; bracket_constants stores its result the same way
    object.__setattr__(bent, "brackets", Mat(c.reshape(len(mats) ** 2, len(mats)), br.den))
    return bent
