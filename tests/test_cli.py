import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from motionstories.cli import (
    EXIT_DEGENERATE,
    EXIT_FORMAT,
    EXIT_OK,
    EXIT_USAGE,
    SceneConfig,
    TrajectoryFormatError,
    TrajectoryRecord,
    _velocity_fits,
    estimate_velocity,
    main,
    parse_trajectory,
)

DATA = Path(__file__).parent / "data"
SCENARIO_A_CSV = str(DATA / "scenario_a.csv")

GOLDEN_STORY_A = (
    '{"id": "S12", "labels": ["DC", "EC", "DC"],'
    ' "boundaries": [3.333333333333333, 3.333333333333333]}\n'
)


class TestParseTrajectory:
    def test_valid(self):
        records = parse_trajectory("t,xk,yk,xl,yl\n0,0,0,10,3\n1,2,0,9,3\n")
        assert records == [
            TrajectoryRecord(0, 0, 0, 10, 3),
            TrajectoryRecord(1, 2, 0, 9, 3),
        ]

    def test_blank_lines_are_skipped(self):
        records = parse_trajectory("t,xk,yk,xl,yl\n0,0,0,10,3\n\n1,2,0,9,3\n")
        assert len(records) == 2

    def test_bad_header(self):
        with pytest.raises(TrajectoryFormatError, match="line 1"):
            parse_trajectory("time,x,y\n0,0,0\n")

    def test_wrong_field_count(self):
        with pytest.raises(TrajectoryFormatError, match="line 2"):
            parse_trajectory("t,xk,yk,xl,yl\n0,0,0\n")

    def test_malformed_number_names_line_and_column(self):
        with pytest.raises(TrajectoryFormatError, match="line 3, column 2"):
            parse_trajectory("t,xk,yk,xl,yl\n0,0,0,10,3\n1,oops,0,9,3\n")

    def test_non_finite_value(self):
        with pytest.raises(TrajectoryFormatError, match="line 2, column 4"):
            parse_trajectory("t,xk,yk,xl,yl\n0,0,0,inf,3\n")

    def test_non_increasing_timestamps(self):
        with pytest.raises(TrajectoryFormatError, match="line 3"):
            parse_trajectory("t,xk,yk,xl,yl\n0,0,0,10,3\n0,2,0,9,3\n")

    def test_header_only(self):
        with pytest.raises(TrajectoryFormatError, match="no records"):
            parse_trajectory("t,xk,yk,xl,yl\n")


class TestEstimateVelocity:
    def test_exact_on_affine_data(self):
        records = [TrajectoryRecord(t, 2 * t, -t, 10 - t, 3.0) for t in range(5)]
        vk = estimate_velocity(records, "k")
        vl = estimate_velocity(records, "l")
        assert (vk.x, vk.y) == pytest.approx((2.0, -1.0))
        assert (vl.x, vl.y) == pytest.approx((-1.0, 0.0))

    def test_two_points(self):
        records = [TrajectoryRecord(0, 0, 0, 0, 0), TrajectoryRecord(2, 3, 1, 0, 0)]
        v = estimate_velocity(records, "k")
        assert (v.x, v.y) == pytest.approx((1.5, 0.5))

    def test_needs_two_records(self):
        with pytest.raises(ValueError):
            estimate_velocity([TrajectoryRecord(0, 0, 0, 0, 0)], "k")

    def test_rejects_unknown_entity(self):
        records = [TrajectoryRecord(0, 0, 0, 0, 0), TrajectoryRecord(1, 1, 0, 0, 0)]
        with pytest.raises(ValueError):
            estimate_velocity(records, "m")


def _trailing(i: int, window: int) -> int:
    """First record of the trailing fit window ending at record i."""
    lo = 0 if window <= 0 else max(0, i + 1 - window)
    return lo if i + 1 - lo >= 2 else i - 1


def _exact_slope(ts, xs) -> float:
    t = [Fraction(v) for v in ts]
    x = [Fraction(v) for v in xs]
    t_bar, x_bar = sum(t) / len(t), sum(x) / len(x)
    num = sum((a - t_bar) * (b - x_bar) for a, b in zip(t, x))
    return float(num / sum((a - t_bar) ** 2 for a in t))


class TestVelocityFits:
    @pytest.mark.parametrize("window", [0, 1, 2, 3, 10])
    @pytest.mark.parametrize("t0", [0.0, 1.7e9])
    @pytest.mark.parametrize("dt", [0.1, 1e-3])
    def test_matches_exact_least_squares(self, window, t0, dt):
        rng = random.Random(window)
        offsets = (5e6, -5e6, 2e6, 0.0)
        speeds = (3.0, -0.5, -1.0, 2.0)
        records, t = [], t0
        for _ in range(40):
            t += rng.uniform(0.5, 2.0) * dt
            noise = [rng.uniform(-0.05, 0.05) * dt for _ in offsets]
            coords = [o + v * (t - t0) + e for o, v, e in zip(offsets, speeds, noise)]
            records.append(TrajectoryRecord(t, *coords))
        fits = _velocity_fits(records, window)
        assert np.isnan(fits[0]).all()
        for i in range(1, len(records)):
            span = records[_trailing(i, window) : i + 1]
            for c, name in enumerate(("xk", "yk", "xl", "yl")):
                exact = _exact_slope([r.t for r in span], [getattr(r, name) for r in span])
                assert fits[i, c] == pytest.approx(exact, rel=1e-9, abs=0.0)

    @given(
        st.floats(-1e9, 1e9),
        st.lists(
            st.tuples(st.floats(1e-3, 1e3), *[st.floats(-1e6, 1e6)] * 4),
            min_size=2,
            max_size=30,
        ),
        st.integers(0, 12),
    )
    def test_equals_estimate_velocity_on_window_slice(self, t0, rows, window):
        records, t = [], t0
        for step, *coords in rows:
            t += step
            records.append(TrajectoryRecord(t, *coords))
        fits = _velocity_fits(records, window)
        for i in range(1, len(records)):
            span = records[_trailing(i, window) : i + 1]
            vk, vl = estimate_velocity(span, "k"), estimate_velocity(span, "l")
            duration = span[-1].t - span[0].t
            for c, want in enumerate((vk.x, vk.y, vl.x, vl.y)):
                # Both are float sums in different orders: allow rounding
                # relative to the coordinate's spread over the window.
                xs = [(r.xk, r.yk, r.xl, r.yl)[c] for r in span]
                scale = (max(xs) - min(xs)) / duration
                assert fits[i, c] == pytest.approx(want, rel=1e-9, abs=1e-9 * scale)


class TestSceneConfig:
    def test_defaults(self):
        cfg = SceneConfig()
        assert (cfg.r_k, cfg.r_l, cfg.eps) == (1.0, 2.0, 1e-9)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SceneConfig(r_k=-1.0)
        with pytest.raises(ValueError):
            SceneConfig(eps=0.0)


class TestStoryCommand:
    def test_golden_json_output(self, capsys):
        assert main(["story", SCENARIO_A_CSV]) == EXIT_OK
        assert capsys.readouterr().out == GOLDEN_STORY_A

    def test_verify_agrees_with_oracle(self, capsys):
        assert main(["story", "--verify", SCENARIO_A_CSV]) == EXIT_OK
        assert capsys.readouterr().out == GOLDEN_STORY_A

    def test_text_mode(self, capsys):
        assert main(["story", "--text", SCENARIO_A_CSV]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("S12: DC @(-inf,")

    def test_missing_file(self, capsys):
        assert main(["story", "/nonexistent.csv"]) == EXIT_FORMAT
        assert "error:" in capsys.readouterr().err


class TestClassifyCommand:
    def test_stream(self, capsys):
        assert main(["classify", SCENARIO_A_CSV]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["S12(DC-)", "S12(DC-)"]

    def test_avoidance_stream(self, tmp_path, capsys, avoidance_csv):
        path = tmp_path / "steered.csv"
        path.write_text(avoidance_csv)
        assert main(["--window", "2", "classify", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["S15(DC-)", "S14(DC-)", "S13(DC-)", "S12(DC-)", "S11(DC)"]


class TestRecognizeCommand:
    def test_detects_avoidance(self, tmp_path, capsys, avoidance_csv):
        path = tmp_path / "steered.csv"
        path.write_text(avoidance_csv)
        assert main(["--window", "2", "recognize", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == [{"start": 0, "end": 4}]

    def test_reversal_is_not_avoidance(self, tmp_path, capsys, reversed_avoidance_csv):
        path = tmp_path / "reversed.csv"
        path.write_text(reversed_avoidance_csv)
        assert main(["--window", "2", "recognize", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == []

    def test_custom_pattern_file(self, tmp_path, capsys, avoidance_csv):
        traj = tmp_path / "steered.csv"
        traj.write_text(avoidance_csv)
        pattern = tmp_path / "pattern.json"
        pattern.write_text(json.dumps([{"rel": "DC", "phase": "-"}] * 2))
        args = ["--window", "2", "recognize", "--pattern", str(pattern), str(traj)]
        assert main(args) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == [
            {"start": 0, "end": 1},
            {"start": 2, "end": 3},
        ]

    def test_bad_pattern_file(self, tmp_path, capsys, avoidance_csv):
        traj = tmp_path / "steered.csv"
        traj.write_text(avoidance_csv)
        pattern = tmp_path / "pattern.json"
        pattern.write_text("{not json")
        args = ["recognize", "--pattern", str(pattern), str(traj)]
        assert main(args) == EXIT_FORMAT


class TestCngCommand:
    def test_rcc_dot_default(self, capsys):
        assert main(["cng"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("graph cng {\n")
        assert "  DC -- EC;\n" in out

    def test_motion_json(self, capsys):
        assert main(["cng", "--motion", "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["nodes"]) == 29
        assert len(doc["edges"]) == 60


class TestControlCommand:
    def test_route(self, capsys):
        assert main(["control", "--from", "S15(NTPP)", "--to", "S11(DC)"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["S14(TPP)", "S13(PO)", "S12(EC)", "S11(DC)"]

    def test_unparseable_relation(self, capsys):
        assert main(["control", "--from", "bogus", "--to", "S11(DC)"]) == EXIT_FORMAT

    def test_relation_outside_configuration(self, capsys):
        args = ["--rk", "2", "--rl", "2", "control", "--from", "S15(DC-)", "--to", "S11(DC)"]
        assert main(args) == EXIT_FORMAT


class TestStoriesSetCommand:
    def test_lists_stories_and_augmented(self, capsys):
        assert main(["stories-set"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["stories"]) == 9
        assert len(doc["augmented"]) == 29
        assert "S15(DC-)" in doc["augmented"]


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        assert main(["story"]) == EXIT_USAGE  # missing trajectory argument
        assert main(["no-such-command"]) == EXIT_USAGE

    def test_format_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,xk,yk,xl,yl\n0,0,0,oops,3\n")
        assert main(["story", str(bad)]) == EXIT_FORMAT

    @pytest.mark.parametrize(
        "csv",
        [
            # Relative speeds near 1e200 m/s overflow |dv|^2.
            "t,xk,yk,xl,yl\n0,0,0,1e200,3\n\n1,1e200,0,0,3\n2,2e200,0,-1e200,3\n",
            # Time steps of 1e-300 s make the least-squares fit singular.
            "t,xk,yk,xl,yl\n0,0,0,10,3\n\n1e-300,1,0,9,3\n2e-300,2,0,8,3\n",
        ],
        ids=["overflow", "singular-fit"],
    )
    def test_unusable_record_is_a_format_error(self, tmp_path, capfd, csv):
        path = tmp_path / "bad.csv"
        path.write_text(csv)
        assert main(["classify", str(path)]) == EXIT_FORMAT
        # Read the file descriptors: native code writes past sys.stdout.
        # Only the one error line may appear.
        out, err = capfd.readouterr()
        assert out == ""
        # The blank line 3 is skipped; the first classified record is line 4.
        assert len(err.splitlines()) == 1 and err.startswith("error: line 4:")
        assert "RuntimeWarning" not in err

    def test_strict_escalates_degenerate_inputs(self, tmp_path, capsys):
        cases = [
            # Closest approach a few tolerance bands away from outer tangency.
            ([], [(t, 2 * t, 0, 10 - t, 3.0 + 5e-9) for t in range(3)]),
            # 3e-9 m outside the inner threshold |1 - 1.000001|, with the last
            # record 100 s before closest approach.
            (["--rl", "1.000001"], [(t, t - 102, 1e-6 + 3e-9, 0, 0) for t in range(3)]),
        ]
        for radii, rows in cases:
            csv = "t,xk,yk,xl,yl\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows)
            path = tmp_path / "near.csv"
            path.write_text(csv)
            assert main([*radii, "story", str(path)]) == EXIT_OK
            assert "warning:" in capsys.readouterr().err
            assert main([*radii, "--strict", "story", str(path)]) == EXIT_DEGENERATE
            assert "warning:" in capsys.readouterr().err

    def test_config_file_and_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r_k": 2.0, "r_l": 2.0}))
        args = ["--config", str(cfg), "--rl", "1.0", "cng", "--motion", "--json"]
        assert main(args) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        # r_k=2 from file, r_l=1 overridden: the mirror configuration.
        assert "S15I(NTPPI)" in doc["nodes"]

    def test_bad_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[]")
        assert main(["--config", str(cfg), "stories-set"]) == EXIT_FORMAT


class TestRoundTrip:
    def test_classify_story_consistency(self, tmp_path, capsys):
        # The story reported for the trajectory must contain every relation
        # the classify stream reports.
        assert main(["story", SCENARIO_A_CSV]) == EXIT_OK
        story = json.loads(capsys.readouterr().out)
        assert main(["classify", SCENARIO_A_CSV]) == EXIT_OK
        stream = capsys.readouterr().out.splitlines()
        for entry in stream:
            rel = entry.split("(")[1].rstrip(")").rstrip("+-")
            assert rel in story["labels"]
