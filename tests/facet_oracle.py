"""Independent enumeration of the facets of the local polytope.

Built from (setting, outcome) labels alone, in this module's own cell
order, so that it can check the package's table of CHSH liftings.  Keep
this module free of imports from ``mzpair``.

Conventions mirrored (they are the contract, not the implementation):

* each side's in-arm detector is ``"placed"`` (outcomes U, C, D) or
  ``"absent"`` (outcomes C, D);
* a cell is ``(setting1, setting2, outcome1, outcome2)``, and a behavior
  gives each of the 25 cells a probability, each setting pair summing to 1;
* a local deterministic strategy fixes each side's outcome per setting.

Every facet is a labelled row ``(label, coefficients, bound)`` over
:data:`CELLS`, read as ``coefficients . p <= bound``.  The 25 positivity
rows and the 72 liftings of CHSH are the 97 facets of the polytope the 36
strategies span, which has affine dimension 15; each row is tight on
strategies of affine rank 14.
"""

from __future__ import annotations

import itertools

import numpy as np

OUTCOMES = {"absent": ("C", "D"), "placed": ("U", "C", "D")}
SETTINGS = tuple(itertools.product(OUTCOMES, OUTCOMES))

# Outcome pair first, then setting pair: an order the package does not use.
CELLS = tuple(
    sorted(
        (
            (x1, x2, a1, a2)
            for x1, x2 in SETTINGS
            for a1 in OUTCOMES[x1]
            for a2 in OUTCOMES[x2]
        ),
        key=lambda cell: (cell[2], cell[3], cell[0], cell[1]),
    )
)
INDEX = {cell: k for k, cell in enumerate(CELLS)}


def row(weights: dict) -> np.ndarray:
    """Integer coefficients over ``CELLS``; cells not in ``weights`` get 0."""
    out = np.zeros(len(CELLS), dtype=np.int64)
    for cell, weight in weights.items():
        out[INDEX[cell]] = weight
    return out


def strategies() -> list[np.ndarray]:
    """The 36 deterministic strategies, each as a 0/1 behavior over ``CELLS``."""
    responses = [
        {"placed": placed, "absent": absent}
        for placed in OUTCOMES["placed"]
        for absent in OUTCOMES["absent"]
    ]
    return [
        row({(x1, x2, side1[x1], side2[x2]): 1 for x1, x2 in SETTINGS})
        for side1 in responses
        for side2 in responses
    ]


def positivity_facets() -> list[tuple]:
    """``-p(cell) <= 0`` for each of the 25 cells."""
    return [(("positive", cell), row({cell: -1}), 0) for cell in CELLS]


def chsh_liftings() -> list[tuple]:
    """The 72 liftings of CHSH, ``coefficients . p <= 2``.

    Each side splits its placed-detector outcomes into one letter, read as
    +1, against the other two, read as -1 (3 ways); with its detector absent
    it reads D as +1 and C as -1.  A cell's coefficient is the product of
    the two readings, negated on the ``minus`` setting pair (4 ways), and
    negated throughout when ``flipped`` (2 ways).  Label:
    ``("chsh", letter1, letter2, minus, flipped)``.
    """
    facets = []
    for letter1, letter2 in itertools.product(OUTCOMES["placed"], repeat=2):
        plus = (letter1, letter2)
        for minus in SETTINGS:
            for flipped in (False, True):
                weights = {}
                for cell in CELLS:
                    x1, x2, a1, a2 = cell
                    sign = -1 if (x1, x2) == minus else 1
                    sign = -sign if flipped else sign
                    for side, (x, a) in enumerate(((x1, a1), (x2, a2))):
                        wanted = plus[side] if x == "placed" else "D"
                        sign = sign if a == wanted else -sign
                    weights[cell] = sign
                facets.append((("chsh", letter1, letter2, minus, flipped), row(weights), 2))
    return facets


def four_term() -> tuple[np.ndarray, int]:
    """The paper's inequality ``p(U1,U2) - p(U1,!C2) - p(!C1,U2) - p(C1,C2) <= 0``.

    Each term is one cell: the middle terms take ``!C`` on a side whose
    detector is absent, where it is {D}.
    """
    return (
        row(
            {
                ("placed", "placed", "U", "U"): 1,
                ("placed", "absent", "U", "D"): -1,
                ("absent", "placed", "D", "U"): -1,
                ("absent", "absent", "C", "C"): -1,
            }
        ),
        0,
    )


def affine_rank(points: list[np.ndarray]) -> int:
    """Dimension of the affine hull of ``points``."""
    base = points[0]
    return int(np.linalg.matrix_rank(np.array([p - base for p in points], dtype=float)))
