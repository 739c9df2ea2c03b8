"""Acceptance gate: one test per release criterion.

Each test prints a single pass/fail line (visible in normal pytest runs) and
then asserts, so a red criterion is both human-readable and build-breaking.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from motionstories.cli import main as cli_main
from motionstories.kinematics import Disc, UniformMotionState, Vec2, closest_approach_state
from motionstories.neighborhood import (
    motion_cng,
    rcc_cng,
    shortest_path,
)
from motionstories.oracle import default_plan, sample_story, sweep_stories
from motionstories.patterns import detect_avoidance
from motionstories.stories import (
    DEFAULT_TOLERANCE,
    RELATIONS,
    STORY_LABELS,
    AugmentedRelation,
    RccRelation,
    StoryId,
    asymptotic_direction,
    augmented_chain,
    augmented_set,
    axis,
    stories_set,
    story_of,
)
from motionstories.validate import validate_motion_cng

from conftest import points_to_csv, steered_avoidance_points

R = RccRelation
DATA = Path(__file__).parent / "data"


def report(capsys, num: int, desc: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    with capsys.disabled():
        print(f"criterion {num:2d} [{status}] {desc} ({elapsed:.2f}s / {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s budget: {elapsed:.2f}s"


def test_criterion_1_story_catalogue(capsys):
    t0 = time.monotonic()
    ss = stories_set(1.0, 2.0)
    expected = {
        (R.EC,), (R.PO,), (R.TPP,), (R.NTPP,),
        (R.DC,),
        (R.DC, R.EC, R.DC),
        (R.DC, R.EC, R.PO, R.EC, R.DC),
        (R.DC, R.EC, R.PO, R.TPP, R.PO, R.EC, R.DC),
        (R.DC, R.EC, R.PO, R.TPP, R.NTPP, R.TPP, R.PO, R.EC, R.DC),
    }
    ok = len(ss) == 9 and {s.labels for s in ss} == expected
    report(capsys, 1, "stories_set(1,2) is exactly the nine-story catalogue",
           ok, time.monotonic() - t0, 1.0)


def test_criterion_2_augmented_catalogue(capsys):
    t0 = time.monotonic()
    expected = {
        "S02(EC)", "S03(PO)", "S04(TPP)", "S05(NTPP)",
        "S11(DC)",
        "S12(DC-)", "S12(EC)", "S12(DC+)",
        "S13(DC-)", "S13(EC-)", "S13(PO)", "S13(EC+)", "S13(DC+)",
        "S14(DC-)", "S14(EC-)", "S14(PO-)", "S14(TPP)",
        "S14(PO+)", "S14(EC+)", "S14(DC+)",
        "S15(DC-)", "S15(EC-)", "S15(PO-)", "S15(TPP-)", "S15(NTPP)",
        "S15(TPP+)", "S15(PO+)", "S15(EC+)", "S15(DC+)",
    }
    got = {str(a) for a in augmented_set(1.0, 2.0)}
    ok = got == expected and len(got) == 29
    report(capsys, 2, "augmented_set(1,2) is exactly the 29 phased relations",
           ok, time.monotonic() - t0, 1.0)


def test_criterion_3_grazing_reconstruction(capsys):
    t0 = time.monotonic()
    state = UniformMotionState(
        disc_k=Disc(Vec2(0, 0), 1.0), vel_k=Vec2(2, 0),
        disc_l=Disc(Vec2(10, 3), 2.0), vel_l=Vec2(-1, 0),
    )
    story = story_of(state)
    t_min = 10 / 3
    ok = (
        story.labels == (R.DC, R.EC, R.DC)
        and all(abs(b - t_min) <= 1e-9 for b in story.boundaries)
    )
    report(capsys, 3, "grazing scenario reconstructs (DC,EC,DC) at t=10/3",
           ok, time.monotonic() - t0, 1.0)


def test_criterion_4_full_passage_reconstruction(capsys):
    t0 = time.monotonic()
    state = UniformMotionState(
        disc_k=Disc(Vec2(0, 0), 1.0), vel_k=Vec2(1, -1),
        disc_l=Disc(Vec2(10, -5), 2.0), vel_l=Vec2(-1, 0),
    )
    story = story_of(state)
    e, i = 3 / math.sqrt(5), 1 / math.sqrt(5)
    expected = (5 - e, 5 - e, 5 - i, 5 - i, 5 + i, 5 + i, 5 + e, 5 + e)
    ok = (
        story.id is StoryId.S15
        and len(story.labels) == 9
        and all(abs(b - x) <= 1e-9 for b, x in zip(story.boundaries, expected))
    )
    report(capsys, 4, "collision scenario reconstructs the nine-label story",
           ok, time.monotonic() - t0, 1.0)


def _random_nondegenerate_states(n: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    eps = DEFAULT_TOLERANCE.eps
    out = []
    while len(out) < n:
        px, py, qx, qy = rng.uniform(-30.0, 30.0, size=4)
        vx, vy, wx, wy = rng.uniform(-5.0, 5.0, size=4)
        state = UniformMotionState(
            disc_k=Disc(Vec2(px, py), 1.0), vel_k=Vec2(vx, vy),
            disc_l=Disc(Vec2(qx, qy), 2.0), vel_l=Vec2(wx, wy),
        )
        t_min, d_min = closest_approach_state(state)
        if t_min is None:
            continue
        if min(abs(d_min - 3.0), abs(d_min - 1.0)) <= 10 * eps:
            continue
        out.append(state)
    return out


def test_criterion_5_oracle_equivalence(capsys):
    t0 = time.monotonic()
    mismatches = 0
    for state in _random_nondegenerate_states(1000):
        analytic = story_of(state).labels
        sampled = sample_story(state, default_plan(state)).labels
        if analytic != sampled:
            mismatches += 1
    report(capsys, 5, "1000 random states: analytic labels == sampling oracle",
           mismatches == 0, time.monotonic() - t0, 30.0)


def test_criterion_6_finiteness_and_asymptotics(capsys):
    t0 = time.monotonic()
    ok = all(len(labels) <= 9 for labels in STORY_LABELS.values())

    expected = frozenset(
        STORY_LABELS[sid]
        for sid in (
            StoryId.S02, StoryId.S03, StoryId.S04, StoryId.S05,
            StoryId.S11, StoryId.S12, StoryId.S13, StoryId.S14, StoryId.S15,
        )
    )
    ok = ok and sweep_stories(1.0, 2.0, 10_000) == expected

    lengths = sorted(len(s.labels) for s in stories_set(1.0, 2.0))
    ok = ok and lengths[-1] == 9 and lengths[-2] < 9

    ok = ok and all(
        s.labels[0] is R.DC and s.labels[-1] is R.DC
        for s in stories_set(1.0, 2.0)
        if not s.rigid and len(s.labels) > 1
    )

    rng = np.random.default_rng(11)
    for _ in range(200):
        vals = rng.uniform(-5.0, 5.0, size=8)
        state = UniformMotionState(
            disc_k=Disc(Vec2(vals[0], vals[1]), 1.0), vel_k=Vec2(vals[2], vals[3]),
            disc_l=Disc(Vec2(vals[4], vals[5]), 2.0), vel_l=Vec2(vals[6], vals[7]),
        )
        if (state.vel_l - state.vel_k).norm() == 0.0:
            continue
        fwd = asymptotic_direction(state, +1)
        back = asymptotic_direction(state, -1)
        ok = ok and abs(fwd.x + back.x) <= 1e-12 and abs(fwd.y + back.y) <= 1e-12

    report(capsys, 6, "finiteness, sweep completeness, extreme and asymptotic laws",
           ok, time.monotonic() - t0, 60.0)


def test_criterion_7_avoidance_detection(capsys):
    t0 = time.monotonic()
    from motionstories.cli import SceneConfig, _relation_stream, _velocity_fits, parse_trajectory

    def stream(points):
        data, lines = parse_trajectory(points_to_csv(points))
        fits = _velocity_fits(data, 2)
        codes = _relation_stream(data, lines, fits, SceneConfig(), axis(1.0, 2.0))
        return [RELATIONS["lt"][c] for c in codes.tolist()]

    stream_fwd = stream(steered_avoidance_points())
    stream_rev = stream(list(reversed(steered_avoidance_points())))
    ok = len(detect_avoidance(stream_fwd)) == 1 and detect_avoidance(stream_rev) == []
    report(capsys, 7, "steered trajectory: one avoidance match, zero on reversal",
           ok, time.monotonic() - t0, 1.0)


def test_criterion_8_control_path(capsys):
    t0 = time.monotonic()
    g = motion_cng(augmented_set(1.0, 2.0))
    validation = validate_motion_cng(g, 1.0, 2.0, n_pairs=60, n_trials=80)
    aug = AugmentedRelation.parse
    path = shortest_path(g, aug("S15(DC-)"), aug("S11(DC)"))
    ok = validation.ok and path == [
        aug("S15(DC-)"), aug("S14(DC-)"), aug("S13(DC-)"),
        aug("S12(DC-)"), aug("S11(DC)"),
    ]
    report(capsys, 8, "validated motion graph routes the five-relation chain",
           ok, time.monotonic() - t0, 5.0)


def test_criterion_9_cng_soundness(capsys):
    t0 = time.monotonic()
    motion = motion_cng(augmented_set(1.0, 2.0))
    ok = True
    for story in stories_set(1.0, 2.0):
        chain = augmented_chain(story.id)
        ok = ok and all(motion.has_edge(a, b) for a, b in zip(chain, chain[1:]))

    rcc = rcc_cng()
    for state in _random_nondegenerate_states(100, seed=23):
        labels = sample_story(state, default_plan(state, n_points=201)).labels
        ok = ok and all(rcc.has_edge(a, b) for a, b in zip(labels, labels[1:]))
    report(capsys, 9, "story chains are motion-graph paths; sampled sequences walk the relation graph",
           ok, time.monotonic() - t0, 10.0)


def test_criterion_10_cli_golden(capsys, tmp_path):
    t0 = time.monotonic()
    fixture = str(DATA / "scenario_a.csv")
    code = cli_main(["story", "--verify", fixture])
    out = capsys.readouterr().out
    golden = (
        '{"id": "S12", "labels": ["DC", "EC", "DC"],'
        ' "boundaries": [3.333333333333333, 3.333333333333333]}\n'
    )
    ok = code == 0 and out == golden

    bad = tmp_path / "bad.csv"
    bad.write_text("t,xk,yk,xl,yl\n0,0,0,10,3\n1,nope,0,9,3\n")
    code2 = cli_main(["story", str(bad)])
    err = capsys.readouterr().err
    ok = ok and code2 == 2 and "line 3" in err
    report(capsys, 10, "CLI golden story bytes and line-numbered format errors",
           ok, time.monotonic() - t0, 1.0)
