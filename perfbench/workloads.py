"""The four benchmark workloads: frozen check-id lists and their sizes.

Each workload is one call of ``eisen2.checks.run_all`` -- the function
``eisen2 verify`` calls -- with a frozen id list and fixed sizes.  The
``full`` sizes are what the benchmark measures; the ``tiny`` sizes exercise
the same code paths in well under a second each and are used by the
benchmark's own tests.

The id lists are written out rather than taken from the registry, so a
change that adds, drops or renames a check shows up as a correctness
failure instead of silently changing the work measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ORDER_IDS = (
    "RAM-DE",
    *(f"RS-DE({m})" for m in range(2, 13)),
    *(f"KS-DE({m})" for m in range(2, 13)),
    "E6STAR-ABC", "HAHN-SYS", "L4", "MINORS-L1", "GARVAN", "DIS", "L5",
    "DET-L2", "P4", "DELTA-FAMILY",
)

RANGE_IDS = (
    "SIGMA3-CLASSICAL", "T5", "T7", "T8", "C1", "T314", "C2", "THETA-REL",
    "JACOBI", "T9", "R24-FACT", "T10", "C10",
)

ALL_IDS = tuple(sorted(ORDER_IDS + RANGE_IDS + ("T49", "TABLE2", "TAU-PROPS")))


@dataclass(frozen=True)
class Workload:
    name: str
    ids: tuple[str, ...]
    full: dict  # run_all keyword sizes: order, nmax, mmax
    tiny: dict

    def sizes(self, scale: str) -> dict:
        return {"full": self.full, "tiny": self.tiny}[scale]

    def ids_for_seed(self, seed: int) -> list[str]:
        """The frozen ids in a seed-determined execution order.

        Catalog builds are memoized per run, so the order moves which check
        pays for a shared build but not the total work.
        """
        ids = list(self.ids)
        random.Random(seed).shuffle(ids)
        return ids


_TINY = {"order": 16, "nmax": 30, "mmax": 6}

WORKLOADS = {
    w.name: w
    for w in (
        # the everyday `eisen2 verify all`; touches every layer, and the
        # order-1000 discriminant build for TAU-PROPS is a large share
        Workload(
            "registry-default",
            ALL_IDS,
            {"order": 64, "nmax": 200, "mmax": 20},
            _TINY,
        ),
        # dense, mostly-Fraction QSeries mul, pow, det and invert
        Workload(
            "series-deep",
            ORDER_IDS,
            {"order": 96, "nmax": 200, "mmax": 20},
            _TINY,
        ),
        # O(n^2) Fraction loops and sigma tables; QSeries work is sparse
        # integer theta powers
        Workload(
            "convolution-wide",
            RANGE_IDS,
            {"order": 64, "nmax": 300, "mmax": 20},
            _TINY,
        ),
        # the graded-ring recursion and exact decompositions; QSeries work
        # only at orders of 30 or less
        Workload(
            "graded-tower",
            ("T49",),
            {"order": 64, "nmax": 200, "mmax": 40},
            _TINY,
        ),
    )
}
