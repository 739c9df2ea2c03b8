"""Self-test of the benchmark's own machinery (not of the program).

Usage (from the root of a checkout): python3 bench/selftest.py

Checks that the generators are deterministic, that the output checks flag a
corrupted line or a wrong story, and that the timing shims count calls and
restore the program's functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
from calibrate import REFERENCE_S, reference_seconds  # noqa: E402
from spans import Tracer  # noqa: E402


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok   {what}")


def test_same_seed_same_bytes() -> None:
    for seed in (0, 7):
        check(inputs.trajectory_csv(seed, 500) == inputs.trajectory_csv(seed, 500),
              f"trajectory seed {seed} reproduces its bytes")
        a = inputs.states_json(inputs.oracle_states(seed, 12))
        check(a == inputs.states_json(inputs.oracle_states(seed, 12)),
              f"oracle states seed {seed} reproduce their bytes")
        check(inputs.validator_jobs(seed, 60, 80) == inputs.validator_jobs(seed, 60, 80),
              f"validator jobs seed {seed} reproduce")
    check(inputs.trajectory_csv(0, 500) != inputs.trajectory_csv(1, 500),
          "another seed gives another trajectory")
    text = inputs.trajectory_csv(3, 2000)
    ts = [float(line.split(",")[0]) for line in text.splitlines()[1:]]
    check(len(ts) == 2000 and all(b > a for a, b in zip(ts, ts[1:])),
          "trajectory has the requested records with strictly increasing t")


def test_states_cover_every_regime() -> None:
    states = inputs.oracle_states(5, 24)
    for config in inputs.CONFIGS:
        drawn = {s["story"] for s in states if s["config"] == config}
        wanted = {r[0] for r in inputs.MOVING_REGIMES[config] + inputs.RIGID_REGIMES[config]}
        check(drawn == wanted, f"{config} states cover every open regime {sorted(wanted)}")


def test_corrupted_cli_line_is_flagged() -> None:
    text = inputs.trajectory_csv(11, 300)
    expected = run.expected_lines(run.cli_stream(text, 10), "classify")
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run._program().cli.main(["--rk", "1", "--rl", "2", "--window", "10",
                                            "classify", str(path)])
    got = out.getvalue()
    check(code == 0 and run.compare_lines(got, expected) == 0,
          "CLI classify output equals the reference")
    lines = got.splitlines()
    lines[42] = "S12(EC)" if lines[42] != "S12(EC)" else "S11(DC)"
    check(run.compare_lines("\n".join(lines) + "\n", expected) == 1,
          "one corrupted output line is flagged once")
    check(run.compare_lines("\n".join(lines[:-1]) + "\n", expected) == 2,
          "a corrupted and a missing line are flagged twice")


def test_wrong_oracle_story_is_flagged() -> None:
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        w = run.Workload("oracle-crosscheck", 3, Path(tmp))
        ids = list(w.expected)
        good = {"ids": ids, "mismatches": []}
        check(w.check({}, good)[2] == 0, "oracle check passes the generator's stories")
        ids[5] = "S12"
        check(w.check({}, {"ids": ids, "mismatches": [9]})[2] == 2,
              "a wrong story id and an oracle mismatch are two failures")


def test_calibration_scales_by_nearby_probes() -> None:
    units = [1.0, 2.0]
    at_reference = [[REFERENCE_S], [REFERENCE_S], [REFERENCE_S]]
    check(abs(reference_seconds(units, at_reference) - 3.0) < 1e-12,
          "probes at reference speed leave unit times unchanged")
    slow_second = [[REFERENCE_S], [REFERENCE_S], [3 * REFERENCE_S]]
    got = reference_seconds(units, slow_second)
    check(abs(got - (1.0 / 1.0 + 2.0 / 2.0)) < 1e-12,
          "each unit is scaled by the probes right before and after it")


def test_tracer_counts_and_restores() -> None:
    ms = run._program()
    original = ms.stories.story_of
    state = ms.UniformMotionState(ms.Disc(ms.Vec2(0, 0), 1.0), ms.Vec2(1, -1),
                                  ms.Disc(ms.Vec2(10, -5), 2.0), ms.Vec2(-1, 0))
    tracer = Tracer()
    tracer.install()
    try:
        ms.augmented_relation(state)
        ms.story_of(state)
    finally:
        tracer.restore()
    snap = json.loads(json.dumps(tracer.snapshot()))
    check(snap["spans"]["stories.story_of"]["calls"] == 2,
          "shims see internal and package-level calls of story_of")
    edges = {(e["caller"], e["span"]): e["calls"] for e in snap["edges"]}
    check(edges.get(("stories.augmented_relation", "stories.story_of")) == 1,
          "spans record the span that caused them")
    check(ms.stories.story_of is original and ms.story_of is original,
          "restore() puts the original functions back")
    check(not snap["missing"], "every traced function is found")


if __name__ == "__main__":
    run.WORK.mkdir(exist_ok=True)
    test_same_seed_same_bytes()
    test_states_cover_every_regime()
    test_corrupted_cli_line_is_flagged()
    test_wrong_oracle_story_is_flagged()
    test_calibration_scales_by_nearby_probes()
    test_tracer_counts_and_restores()
    print("selftest ok")
