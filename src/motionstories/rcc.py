"""RCC-8 relations of two discs and the tangency tolerance.

The three tangency relations (EC, TPP/TPPI at the internal threshold, EQ)
hold on measure-zero distance sets, so classification assigns them within a
configurable band of half-width `eps` around the exact thresholds.  The
classifier of a center distance and the thresholds live in `stories`, next to
the regime table; this module computes no threshold and compares no distances.
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

