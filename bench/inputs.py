"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and size: the same arguments
give the same bytes.  The generators use only the standard library, so the
inputs do not depend on the program under test or on numpy's stream policy.
"""

from __future__ import annotations

import json
import math
import random

EPS = 1e-9

# Radius configurations and the open miss-distance intervals between their
# tangency thresholds, with the story each interval yields.  Each entry is
# (story id, low, high); the upper interval is capped so S11 encounters still
# come near the discs.
CONFIGS = {
    "lt": (1.0, 2.0),
    "gt": (2.0, 1.0),
    "eq": (1.5, 1.5),
}
MOVING_REGIMES = {
    "lt": (("S15", 0.0, 1.0), ("S13", 1.0, 3.0), ("S11", 3.0, 6.0)),
    "gt": (("S15I", 0.0, 1.0), ("S13", 1.0, 3.0), ("S11", 3.0, 6.0)),
    "eq": (("S13", 0.0, 3.0), ("S11", 3.0, 6.0)),
}
RIGID_REGIMES = {
    "lt": (("S05", 0.0, 1.0), ("S03", 1.0, 3.0), ("S11", 3.0, 6.0)),
    "gt": (("S05I", 0.0, 1.0), ("S03", 1.0, 3.0), ("S11", 3.0, 6.0)),
    "eq": (("S03", 0.0, 3.0), ("S11", 3.0, 6.0)),
}


# --------------------------------------------------------------------------
# CLI trajectories
# --------------------------------------------------------------------------

# Miss-distance regimes of the encounters for radii 1 and 2, cycled in a
# shuffled order: each interior interval plus the two thresholds themselves.
# With position noise the threshold encounters land on either side of the
# threshold (never inside the +-eps band), which exercises the near-tangency
# regimes without making the output depend on the last ulp of the fit.
_ENCOUNTER_MISS = (
    ("inner", 0.0, 1.0),
    ("at-inner", 1.0, 1.0),
    ("middle", 1.0, 3.0),
    ("at-outer", 3.0, 3.0),
    ("outer", 3.0, 6.0),
)
_START_DISTANCE = 8.0   # m; every encounter leg starts and ends this far apart
_RATE_HZ = 10           # records per second of trajectory time
_NOISE = 1e-3           # m, standard deviation of the position noise


def trajectory_csv(seed: int, n_records: int, part: int = 0) -> str:
    """A multi-encounter `t,xk,yk,xl,yl` trajectory for radii 1 and 2.

    Disc l drifts at a constant velocity.  Disc k, relative to l, follows a
    piecewise-linear path of straight encounter legs: each leg starts at
    distance 8 m, passes l at a prescribed miss distance and ends at 8 m on
    the far side, where the next leg turns toward l again.  Positions carry
    Gaussian noise and `t` increases strictly.  `part` numbers independent
    trajectories drawn from one seed.
    """
    rng = random.Random(f"trajectory:{seed}:{part}")
    vl = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    pl0 = (rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0))
    angle = rng.uniform(0.0, 2.0 * math.pi)
    rel = (_START_DISTANCE * math.cos(angle), _START_DISTANCE * math.sin(angle))

    order: list[tuple[str, float, float]] = []
    rows = ["t,xk,yk,xl,yl"]
    i = 0
    leg_t0 = 0.0
    while i < n_records:
        if not order:
            order = list(_ENCOUNTER_MISS)
            rng.shuffle(order)
        _, lo, hi = order.pop()
        h = lo if lo == hi else rng.uniform(lo, hi)
        d = math.hypot(*rel)
        phi = math.atan2(rel[1], rel[0])
        side = 1.0 if rng.random() < 0.5 else -1.0
        theta = phi + math.pi - side * math.asin(min(1.0, h / d))
        speed = rng.uniform(1.5, 3.0)
        length = 2.0 * math.sqrt(max(0.0, d * d - h * h))
        ux, uy = math.cos(theta), math.sin(theta)
        leg_t1 = leg_t0 + length / speed
        while i < n_records:
            t = i / _RATE_HZ
            if t >= leg_t1:
                break
            s = speed * (t - leg_t0)
            xl = pl0[0] + vl[0] * t
            yl = pl0[1] + vl[1] * t
            xk = xl + rel[0] + ux * s
            yk = yl + rel[1] + uy * s
            rows.append(
                f"{t!r},{xk + rng.gauss(0.0, _NOISE)!r},{yk + rng.gauss(0.0, _NOISE)!r},"
                f"{xl + rng.gauss(0.0, _NOISE)!r},{yl + rng.gauss(0.0, _NOISE)!r}"
            )
            i += 1
        rel = (rel[0] + ux * length, rel[1] + uy * length)
        leg_t0 = leg_t1
    return "\n".join(rows) + "\n"


# --------------------------------------------------------------------------
# Motion states for the oracle cross-check
# --------------------------------------------------------------------------


def _near_threshold(d: float, r_k: float, r_l: float) -> bool:
    return any(abs(d - theta) <= 10.0 * EPS for theta in (r_k + r_l, abs(r_k - r_l), 0.0))


def _moving_state(rng: random.Random, r_k: float, r_l: float, lo: float, hi: float):
    h = rng.uniform(lo, hi)
    speed = rng.uniform(0.5, 5.0)
    a = rng.uniform(0.0, 2.0 * math.pi)
    dvx, dvy = speed * math.cos(a), speed * math.sin(a)
    side = 1.0 if rng.random() < 0.5 else -1.0
    nx, ny = -side * math.sin(a), side * math.cos(a)
    tau = rng.uniform(-4.0, 4.0)  # time from the epoch to closest approach
    cx, cy = rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0)
    wx, wy = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
    xl, yl = cx + h * nx - tau * dvx, cy + h * ny - tau * dvy
    state = [r_k, r_l, cx, cy, wx, wy, xl, yl, wx + dvx, wy + dvy, 0.0]
    # Miss distance of the floats the program will see: |dp x dv| / |dv|.
    dpx, dpy = xl - cx, yl - cy
    dvx, dvy = state[8] - wx, state[9] - wy
    d_min = abs(dpx * dvy - dpy * dvx) / math.hypot(dvx, dvy)
    return state, d_min


def _rigid_state(rng: random.Random, r_k: float, r_l: float, lo: float, hi: float):
    d = rng.uniform(lo, hi)
    a = rng.uniform(0.0, 2.0 * math.pi)
    cx, cy = rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0)
    wx, wy = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
    xl, yl = cx + d * math.cos(a), cy + d * math.sin(a)
    state = [r_k, r_l, cx, cy, wx, wy, xl, yl, wx, wy, 0.0]
    return state, math.hypot(xl - cx, yl - cy)


def oracle_states(seed: int, n_per_config: int) -> list[dict]:
    """Stratified motion states for the `lt`, `gt` and `eq` configurations.

    Uniformly random states are almost all S11, so each state draws its miss
    distance from the next regime in a fixed cycle: three moving states per
    rigid one, every open interval between thresholds in turn.  States whose
    closest approach lies within 10 eps of a threshold are redrawn.  Each item
    is `{"config", "story", "state"}` where `state` lists
    r_k, r_l, xk, yk, vxk, vyk, xl, yl, vxl, vyl, epoch and `story` is the
    story id the drawn regime implies.
    """
    rng = random.Random(f"states:{seed}")
    out = []
    for config, (r_k, r_l) in CONFIGS.items():
        moving, rigid = MOVING_REGIMES[config], RIGID_REGIMES[config]
        for k in range(n_per_config):
            if k % 4 == 3:
                story, lo, hi = rigid[(k // 4) % len(rigid)]
                make = _rigid_state
            else:
                story, lo, hi = moving[(k - k // 4) % len(moving)]
                make = _moving_state
            while True:
                state, d = make(rng, r_k, r_l, lo, hi)
                if lo < d < hi and not _near_threshold(d, r_k, r_l):
                    break
            out.append({"config": config, "story": story, "state": state})
    return out


def states_json(states: list[dict]) -> str:
    return json.dumps(states, separators=(",", ":")) + "\n"


# --------------------------------------------------------------------------
# Validator jobs
# --------------------------------------------------------------------------


def validator_jobs(seed: int, n_pairs: int, n_trials: int) -> list[dict]:
    """One validator call per radius configuration, each with its own seed."""
    rng = random.Random(f"validate:{seed}")
    return [
        {
            "config": config,
            "r_k": r_k,
            "r_l": r_l,
            "n_pairs": n_pairs,
            "n_trials": n_trials,
            "seed": rng.randrange(2**31),
        }
        for config, (r_k, r_l) in CONFIGS.items()
    ]


def histogram(labels: list[str]) -> dict[str, float]:
    """Share of items per label, sorted by label."""
    counts: dict[str, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    n = len(labels)
    return {k: counts[k] / n for k in sorted(counts)}
