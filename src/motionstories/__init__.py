"""Qualitative representation of the relative motion of two uniformly moving discs.

Seen from one disc, the other moves on a straight line, so the sequence of
topological relations they pass through ("story") is finite and fully
determined by the closest-approach distance d_min = |dp x dv| / |dv| relative
to the radius sum and difference.  This package classifies motion states into
those stories, refines them with the current relation and approach phase,
derives and validates conceptual neighborhood graphs, and recognizes motion
patterns such as collision-avoidance maneuvers.

The package level exports the common entry points; everything else is
imported from its module (`motionstories.stories`, `.neighborhood`, ...).
"""

from .kinematics import Disc, UniformMotionState, Vec2
from .neighborhood import motion_cng
from .oracle import default_plan, sample_story
from .patterns import detect_avoidance
from .stories import Tolerance, augmented_relation, augmented_set, classify_discs, story_of
from .validate import ValidationReport, validate_motion_cng

__all__ = [
    "Disc",
    "Tolerance",
    "UniformMotionState",
    "ValidationReport",
    "Vec2",
    "augmented_relation",
    "augmented_set",
    "classify_discs",
    "default_plan",
    "detect_avoidance",
    "motion_cng",
    "sample_story",
    "story_of",
    "validate_motion_cng",
]

__version__ = "0.1.0"
