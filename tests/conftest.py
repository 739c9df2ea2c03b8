"""Shared fixtures: synthetic trajectories used by CLI and acceptance tests."""

import math

import pytest


def steered_avoidance_points() -> list[tuple[float, float]]:
    """Waypoints for disc k (disc l fixed at the origin, radii 1 and 2).

    Each unit-length leg is aimed so that its straight-line extension misses
    the origin by the next target distance, walking the closest-approach
    distance monotonically outward: 0.5 (full passage), 1 (inner tangency),
    2 (overlap), 3 (outer tangency), 4 (clear).  Evaluated with a two-record
    velocity window, the legs classify as the five-story avoidance chain.
    """
    targets = [0.5, 1.0, 2.0, 3.0, 4.0]
    a = (-20.0, 0.5)
    pts = [a]
    for h in targets:
        dist = math.hypot(*a)
        phi = math.atan2(a[1], a[0])
        # Head inward (cos(theta - phi) < 0) with miss distance exactly h.
        theta = phi + math.pi - math.asin(h / dist)
        a = (a[0] + math.cos(theta), a[1] + math.sin(theta))
        pts.append(a)
    return pts


def points_to_csv(points: list[tuple[float, float]]) -> str:
    rows = ["t,xk,yk,xl,yl"]
    rows += [f"{i},{x!r},{y!r},0,0" for i, (x, y) in enumerate(points)]
    return "\n".join(rows) + "\n"


def swap_discs(csv: str) -> str:
    """The same trajectory CSV with disc k's and disc l's columns swapped."""
    header, *lines = csv.splitlines()
    rows = (",".join((t, xl, yl, xk, yk)) for t, xk, yk, xl, yl in (r.split(",") for r in lines))
    return "\n".join([header, *rows]) + "\n"


@pytest.fixture(scope="session")
def avoidance_csv() -> str:
    return points_to_csv(steered_avoidance_points())


@pytest.fixture(scope="session")
def reversed_avoidance_csv() -> str:
    return points_to_csv(list(reversed(steered_avoidance_points())))


@pytest.fixture(scope="session")
def swapped_avoidance_csv() -> str:
    """The steered avoidance with the discs swapped: read at radii 2 and 1,
    it is the "gt" chain."""
    return swap_discs(points_to_csv(steered_avoidance_points()))
