"""RCC-8 relations of two discs and the tangency tolerance.

The three tangency relations (EC, TPP/TPPI at the internal threshold, EQ)
hold on measure-zero distance sets, so classification assigns them within a
configurable band of half-width `eps` around the exact thresholds.  The
classifier of a center distance, `stories.classify_discs`, reads the regime
table; this module compares no distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class RccRelation(Enum):
    DC = "DC"          # disconnected
    EC = "EC"          # externally connected (tangent, no overlap)
    PO = "PO"          # partial overlap
    TPP = "TPP"        # k tangential proper part of l
    NTPP = "NTPP"      # k non-tangential proper part of l
    EQ = "EQ"          # identical regions
    TPPI = "TPPI"      # l tangential proper part of k
    NTPPI = "NTPPI"    # l non-tangential proper part of k

    def __str__(self) -> str:
        return self.value


INVERSE: dict[RccRelation, RccRelation] = {
    RccRelation.DC: RccRelation.DC,
    RccRelation.EC: RccRelation.EC,
    RccRelation.PO: RccRelation.PO,
    RccRelation.EQ: RccRelation.EQ,
    RccRelation.TPP: RccRelation.TPPI,
    RccRelation.TPPI: RccRelation.TPP,
    RccRelation.NTPP: RccRelation.NTPPI,
    RccRelation.NTPPI: RccRelation.NTPP,
}


@dataclass(frozen=True)
class Tolerance:
    """Half-width (m) of the band within which tangency relations apply."""

    eps: float = 1e-9

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive and finite, got {self.eps!r}")


DEFAULT_TOLERANCE = Tolerance()


def bands_overlap(r_k: float, r_l: float, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True when the EC and TPP/EQ tolerance bands collide (pathological radii).

    Classification stays deterministic in that case (EC wins over TPP/TPPI,
    which win over EQ), but results near the thresholds are not meaningful.
    """
    return (r_k + r_l) - abs(r_k - r_l) <= 2.0 * tol.eps
