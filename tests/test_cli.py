import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import motionstories
from motionstories.cli import (
    EXIT_DEGENERATE,
    EXIT_FORMAT,
    EXIT_OK,
    EXIT_USAGE,
    SceneConfig,
    TrajectoryFormatError,
    _relation_stream,
    _state_at,
    _velocity_fits,
    _walk_lines,
    estimate_velocity,
    main,
    parse_trajectory,
)
from motionstories.kinematics import Disc, UniformMotionState, Vec2
from motionstories.patterns import Pattern, detect_avoidance, match_pattern
from motionstories.stories import (
    RELATIONS,
    AugmentedRelation,
    Phase,
    RccRelation,
    TemporalSequence,
    Tolerance,
    augmented_relation,
    axis,
    classify_discs,
    story_of,
)

from conftest import points_to_csv, steered_avoidance_points

DATA = Path(__file__).parent / "data"
SCENARIO_A_CSV = str(DATA / "scenario_a.csv")

# Nested deeper than the JSON decoder's recursion limit.
DEEP_JSON = "[" * 100_000 + "]" * 100_000

GOLDEN_STORY_A = (
    '{"id": "S12", "labels": ["DC", "EC", "DC"],'
    ' "boundaries": [3.333333333333333, 3.333333333333333]}\n'
)


class TestParseTrajectory:
    def test_valid(self):
        data, lines = parse_trajectory("t,xk,yk,xl,yl\n0,0,0,10,3\n1,2,0,9,3\n")
        assert data.tolist() == [[0, 0, 0, 10, 3], [1, 2, 0, 9, 3]]
        assert lines == [2, 3]

    def test_blank_lines_are_skipped(self):
        data, lines = parse_trajectory("t,xk,yk,xl,yl\n0,0,0,10,3\n\n1,2,0,9,3\n")
        assert data.shape == (2, 5) and lines == [2, 4]

    def test_bad_header(self):
        with pytest.raises(TrajectoryFormatError, match="line 1"):
            parse_trajectory("time,x,y\n0,0,0\n")

    def test_wrong_field_count(self):
        with pytest.raises(TrajectoryFormatError, match="line 2"):
            parse_trajectory("t,xk,yk,xl,yl\n0,0,0\n")

    def test_malformed_number_names_line_and_column(self):
        with pytest.raises(TrajectoryFormatError, match="line 3, column 2"):
            parse_trajectory("t,xk,yk,xl,yl\n0,0,0,10,3\n1,oops,0,9,3\n")

    @pytest.mark.parametrize("field", ["\x1f10", "10\x1f"])
    def test_unit_separator_is_malformed(self, field):
        # `loadtxt` strips U+001F around a number; `float` does not.
        with pytest.raises(TrajectoryFormatError, match="line 2, column 4: malformed number"):
            parse_trajectory(f"t,xk,yk,xl,yl\n0,0,0,{field},0\n1,1,0,9,0\n")

    def test_non_finite_value(self):
        with pytest.raises(TrajectoryFormatError, match="line 2, column 4"):
            parse_trajectory("t,xk,yk,xl,yl\n0,0,0,inf,3\n")

    def test_non_increasing_timestamps(self):
        with pytest.raises(TrajectoryFormatError, match="line 3"):
            parse_trajectory("t,xk,yk,xl,yl\n0,0,0,10,3\n0,2,0,9,3\n")

    def test_header_only(self):
        # Also with no line break or only blank lines after the header.  The
        # pytest configuration escalates only RuntimeWarning; `loadtxt` would
        # warn about no data with a UserWarning.
        for text in ["t,xk,yk,xl,yl\n", "t,xk,yk,xl,yl", "t,xk,yk,xl,yl\n\n  \n\t\n"]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(TrajectoryFormatError, match="^no records$"):
                    parse_trajectory(text)

    def test_fast_path_at_scale(self):
        # 2 000 records of 17-digit fields, with blank and whitespace lines
        # between them: `loadtxt` reads them all, to `float`'s bits.
        rng = random.Random(17)
        rows, t = ["t,xk,yk,xl,yl"], 0.0
        for _ in range(2000):
            rows.extend(rng.choice(["", " ", "\t", " \t "]) for _ in range(rng.randrange(2)))
            t += rng.uniform(1e-3, 1.0)
            rows.append(",".join(map(repr, [t, *(rng.uniform(-1e4, 1e4) for _ in range(4))])))
        text = "\n".join(rows) + "\n"
        want, want_lines = _walk_lines(text.splitlines())
        assert len(want) == 2000 and len(want_lines) < len(rows) - 1
        with mock.patch("motionstories.cli._walk_lines", side_effect=AssertionError("walked")):
            data, lines = parse_trajectory(text)
        assert data.tobytes() == want.tobytes() and data.shape == want.shape
        assert lines == want_lines


class TestEstimateVelocity:
    def test_exact_on_affine_data(self):
        data = np.array([(t, 2 * t, -t, 10 - t, 3.0) for t in range(5)])
        vk = estimate_velocity(data, "k")
        vl = estimate_velocity(data, "l")
        assert (vk.x, vk.y) == pytest.approx((2.0, -1.0))
        assert (vl.x, vl.y) == pytest.approx((-1.0, 0.0))

    def test_two_points(self):
        data = np.array([(0, 0, 0, 0, 0), (2, 3, 1, 0, 0)], dtype=float)
        v = estimate_velocity(data, "k")
        assert (v.x, v.y) == pytest.approx((1.5, 0.5))

    def test_needs_two_records(self):
        with pytest.raises(ValueError):
            estimate_velocity(np.zeros((1, 5)), "k")

    def test_rejects_unknown_entity(self):
        data = np.array([(0, 0, 0, 0, 0), (1, 1, 0, 0, 0)], dtype=float)
        with pytest.raises(ValueError):
            estimate_velocity(data, "m")


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
        rows, t = [], t0
        for _ in range(40):
            t += rng.uniform(0.5, 2.0) * dt
            noise = [rng.uniform(-0.05, 0.05) * dt for _ in offsets]
            coords = [o + v * (t - t0) + e for o, v, e in zip(offsets, speeds, noise)]
            rows.append((t, *coords))
        data = np.array(rows)
        fits = _velocity_fits(data, window)
        assert np.isnan(fits[0]).all()
        for i in range(1, len(data)):
            span = data[_trailing(i, window) : i + 1].tolist()
            for c in range(4):
                exact = _exact_slope([r[0] for r in span], [r[1 + c] for r in span])
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
    @example(  # a subnormal spread: the fits differ by one subnormal step over s_tt
        t0=0.0,
        rows=[(1, 0, 0, 0, 0)] * 3 + [(1, 0, 0, 0, 2.2250738585e-313), (0.015625, 0, 0, 0, 0)],
        window=1,
    )
    def test_equals_estimate_velocity_on_window_slice(self, t0, rows, window):
        table, t = [], t0
        for step, *coords in rows:
            t += step
            table.append((t, *coords))
        data = np.array(table, dtype=float)
        fits = _velocity_fits(data, window)
        for i in range(1, len(data)):
            span = data[_trailing(i, window) : i + 1]
            vk, vl = estimate_velocity(span, "k"), estimate_velocity(span, "l")
            ts = span[:, 0].tolist()
            s_tt = sum((t - sum(ts) / len(ts)) ** 2 for t in ts)
            for c, want in enumerate((vk.x, vk.y, vl.x, vl.y)):
                # Both are float sums in different orders: allow rounding
                # relative to the coordinate's spread over the window.
                xs = span[:, 1 + c].tolist()
                spread = max(xs) - min(xs)
                bound = 1e-9 * spread / (ts[-1] - ts[0])
                if 0 < spread < sys.float_info.min:
                    # Products of subnormal numbers round to absolute steps
                    # of math.ulp(0.0): up to one per record in the centred
                    # cross sum, which the slope divides by s_tt, and one in
                    # the quotient.  Twice that bounds both paths.
                    bound = max(bound, 2 * math.ulp(0.0) * (1 + len(span) / s_tt))
                assert fits[i, c] == pytest.approx(want, rel=1e-9, abs=bound)


class TestSceneConfig:
    def test_defaults(self):
        cfg = SceneConfig()
        assert (cfg.r_k, cfg.r_l, cfg.eps) == (1.0, 2.0, 1e-9)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SceneConfig(r_k=-1.0)
        with pytest.raises(ValueError):
            SceneConfig(eps=0.0)
        with pytest.raises(ValueError):
            SceneConfig(r_l=math.inf)
        with pytest.raises(ValueError):
            SceneConfig(eps=math.inf)


class TestStoryCommand:
    def test_golden_json_output(self, capsys):
        assert main(["story", SCENARIO_A_CSV]) == EXIT_OK
        assert capsys.readouterr().out == GOLDEN_STORY_A

    def test_verify_agrees_with_oracle(self, capsys):
        assert main(["story", "--verify", SCENARIO_A_CSV]) == EXIT_OK
        assert capsys.readouterr().out == GOLDEN_STORY_A

    def test_verify_far_from_closest_approach(self, tmp_path, capsys):
        # Closest approach (S15, miss 0.5 m) 1e5 s after the last record.
        path = tmp_path / "far.csv"
        path.write_text("t,xk,yk,xl,yl\n0,-100001,0.5,0,0\n1,-100000,0.5,0,0\n")
        assert main(["story", "--verify", str(path)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["id"] == "S15"

    # |dv| = 1e-155 m/s has the subnormal square 1e-310, so story_of calls
    # the motion rigid (TPP), while the sampler sees the discs pass
    # (PO, TPP, PO) at radii about as small as the speed.
    @pytest.mark.xfail(strict=True, reason="the subnormal rigid rule disagrees with the sampler")
    def test_verify_subnormal_speed_at_radii_as_small(self, tmp_path, capsys):
        path = tmp_path / "subnormal-rigid.csv"
        path.write_text("t,xk,yk,xl,yl\n0,0,0,-1e-155,2e-155\n1,0,0,0,2e-155\n")
        code = main(["--rk", "1e-155", "--rl", "3e-155", "--eps", "1e-170", "story", "--verify", str(path)])
        assert (code, capsys.readouterr().err) == (EXIT_OK, "")

    def test_verify_failure_names_the_last_record(self, capsys):
        # The oracle agrees on every input known to parse, so it is made to
        # disagree: the last record's state is the one checked.
        sampled = TemporalSequence((RccRelation.DC,), (0.0, 1.0), ())
        with mock.patch("motionstories.cli.sample_story", return_value=sampled):
            assert main(["story", "--verify", SCENARIO_A_CSV]) == EXIT_FORMAT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "error: line 4: verification failed: sampled labels ['DC'] != analytic ['DC', 'EC', 'DC']"
        ]

    def test_verify_plan_overflow_names_the_half_width(self, tmp_path, capsys):
        # Speed 1e-108 and radii summing to 1e200: the oracle's window is 2e308 s wide,
        # (1e200 + 1e200 * 2**-40) / 1e-108 s either side.
        path = tmp_path / "slow.csv"
        path.write_text("t,xk,yk,xl,yl\n0,0,0,0,0\n1,1e-108,0,0,0\n")
        assert main(["--rk", "4e199", "--rl", "6e199", "story", "--verify", str(path)]) == EXIT_FORMAT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: line 3: half_width must be positive and keep the grid finite,"
            " got 1.0000000000009093e+308\n"
        )

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

    def test_byte_order_mark_is_no_text(self, tmp_path, capsys):
        # Spreadsheet exports start UTF-8 files with one.
        text = b"t,xk,yk,xl,yl\n0,0,0,5,0\n1,1,0,4,0\n2,2,0,3,0\n"
        results = []
        for name, contents in [("plain.csv", text), ("bom.csv", b"\xef\xbb\xbf" + text)]:
            path = tmp_path / name
            path.write_bytes(contents)
            assert main(["classify", str(path)]) == EXIT_OK
            results.append(capsys.readouterr())
        assert results[0] == results[1] and results[0].out and not results[0].err

    @pytest.mark.parametrize(
        "line_3, error",
        [
            (b"1,x,0,4,0", "error: line 3, column 2: malformed number 'x'"),
            (b"1,\xff,0,4,0", "error: line 3: not valid UTF-8"),
        ],
        ids=["number", "utf-8"],
    )
    def test_byte_order_mark_keeps_line_numbers(self, tmp_path, capsys, line_3, error):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbft,xk,yk,xl,yl\n0,0,0,5,0\n" + line_3 + b"\n")
        assert main(["classify", str(path)]) == EXIT_FORMAT
        assert capsys.readouterr().err == error + "\n"


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
        args = ["recognize", "--pattern", str(pattern), str(traj)]
        malformed = ['[{"story": "S99"}]', "[]", '{"rel": "DC"}', '"DC"', "[1]", "null"]
        for contents in ["{not json", DEEP_JSON, *malformed]:
            pattern.write_text(contents)
            assert main(args) == EXIT_FORMAT
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and err.startswith("error: pattern:"), err
            assert "pattern: pattern:" not in err
            assert "attribute" not in err and "iterable" not in err, err

    def test_pattern_is_read_before_the_trajectory(self, tmp_path, capsys):
        missing = [str(tmp_path / "missing.json"), str(tmp_path / "missing.csv")]
        assert main(["recognize", "--pattern", *missing]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: pattern:"), err


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

    def test_motion_dot_quotes_every_name(self, capsys):
        # Augmented relation names hold parentheses and signs, so DOT needs
        # each one quoted; the graph is the one `--json` prints.
        assert main(["cng", "--motion", "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert main(["cng", "--motion"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "graph cng {" and lines[-1] == "}"
        nodes, edges = set(), set()
        for line in lines[1:-1]:
            names = line.removeprefix("  ").removesuffix(";").split(" -- ")
            assert all(n.startswith('"') and n.endswith('"') for n in names), line
            names = [n[1:-1] for n in names]
            nodes.update(names)
            if len(names) == 2:
                edges.add(frozenset(names))
        assert '"S15(DC-)"' in "\n".join(lines)
        assert nodes == set(doc["nodes"])
        assert edges == {frozenset(e) for e in doc["edges"]} and len(edges) == 60


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


def _piped_cli(args: list[str]) -> subprocess.Popen:
    """`python -m motionstories.cli` on this package, stdout and stderr piped."""
    src = str(Path(motionstories.__file__).parent.parent)
    path_env = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.Popen(
        [sys.executable, "-m", "motionstories.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path_env},
    )


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        assert main(["story"]) == EXIT_USAGE  # missing trajectory argument
        assert main(["no-such-command"]) == EXIT_USAGE

    def test_format_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,xk,yk,xl,yl\n0,0,0,oops,3\n")
        assert main(["story", str(bad)]) == EXIT_FORMAT

    def test_calls_in_one_process_match_fresh_ones(self, tmp_path, capfd):
        # The parser is built once per process; what one call parses leaves
        # nothing behind for the next.
        bad = tmp_path / "bad.csv"
        bad.write_text("t,xk,yk,xl,yl\n0,0,0,oops,3\n")
        calls = [["story"], ["story", str(bad)], ["--window", "10", "classify", SCENARIO_A_CSV]]
        motionstories.cli._build_parser.cache_clear()
        in_process = []
        for args in calls:
            code = main(args)
            in_process.append((code, *capfd.readouterr()))
        fresh = []
        for args in calls:
            proc = _piped_cli(args)
            out, err = proc.communicate()
            fresh.append((proc.returncode, out.decode(), err.decode()))
        assert [c for c, _, _ in in_process] == [EXIT_USAGE, EXIT_FORMAT, EXIT_OK]
        assert in_process == fresh

    @pytest.mark.parametrize("command", [["classify"], ["story"], ["recognize"]])
    def test_one_record_is_a_format_error(self, tmp_path, capfd, command):
        path = tmp_path / "one.csv"
        path.write_text("t,xk,yk,xl,yl\n0,0,0,5,0\n")
        assert main([*command, str(path)]) == EXIT_FORMAT
        assert capfd.readouterr() == ("", "error: need at least 2 records to estimate motion\n")

    @pytest.mark.parametrize(
        "csv",
        [
            # Relative speeds near 1e200 m/s overflow |dv|^2.
            "t,xk,yk,xl,yl\n0,0,0,1e200,3\n\n1,1e200,0,0,3\n2,2e200,0,-1e200,3\n",
            # Time steps of 1e-300 s make the least-squares fit singular.
            "t,xk,yk,xl,yl\n0,0,0,10,3\n\n1e-300,1,0,9,3\n2e-300,2,0,8,3\n",
            # Centers 2e308 m apart: the relative position overflows.
            "t,xk,yk,xl,yl\n0,-1e308,0,1e308,0\n\n1,-1e308,0,1e308,0\n2,-1e308,0,1e308,0\n",
        ],
        ids=["overflow", "singular-fit", "relative-position-overflow"],
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

    @pytest.mark.parametrize(
        "csv, relation, instants",
        [
            # (theta - h)(theta + h) overflows, but sqrt(theta - h) * sqrt(theta + h)
            # does not, and every instant is finite: the story is printed.
            (
                "t,xk,yk,xl,yl\n0,-4e200,1e200,0,0\n1e100,-3e200,1e200,0,0\n",
                "S14(DC-)",
                (1.1715728752538102e100, 4e100, 6.8284271247461905e100),
            ),
            # A half-width near 2.8e310 s: the instant is beyond float range.
            ("t,xk,yk,xl,yl\n0,-5e39,-1e200,0,0\n1e150,5e39,-1e200,0,0\n", "S14(TPP)", None),
        ],
        ids=["half-width-overflow", "instant-beyond-range"],
    )
    @pytest.mark.parametrize("text", [[], ["--text"]])
    def test_non_finite_instant_is_a_format_error(self, tmp_path, capfd, csv, relation, instants, text):
        path = tmp_path / "huge.csv"
        path.write_text(csv)
        argv = ["--rk", "1e200", "--rl", "2e200"]
        code = main([*argv, "story", *text, str(path)])
        out, err = capfd.readouterr()
        if instants is None:
            assert (code, out, err) == (EXIT_FORMAT, "", "error: line 3: a transition instant is not finite\n")
        elif text:
            assert (code, err) == (EXIT_OK, "")
            assert out.startswith("S14: ") and all(f"{t:g}" in out for t in instants)
        else:
            assert (code, err) == (EXIT_OK, "")
            assert json.loads(out)["boundaries"] == [t for t in instants for _ in (0, 1)]
        # The relation at the last record needs no instant; classify prints it.
        assert main([*argv, "classify", str(path)]) == EXIT_OK
        assert capfd.readouterr() == (relation + "\n", "")

    def test_strict_escalates_degenerate_inputs(self, tmp_path, capsys):
        cases = [
            # Closest approach a few tolerance bands away from outer tangency.
            ([], [(t, 2 * t, 0, 10 - t, 3.0 + 5e-9) for t in range(3)]),
            # 3e-9 m outside the inner threshold |1 - 1.000001|, with the last
            # record 100 s before closest approach.
            (["--rl", "1.000001"], [(t, t - 102, 1e-6 + 3e-9, 0, 0) for t in range(3)]),
            # Radii equal within eps: the EQ band is centred on 0, not on
            # |r_k - r_l| = 5e-10, so 1.2e-9 m lies just outside it.
            (
                ["--rk", "1.5", "--rl", "1.5000000005"],
                [(t, 0, 0, t - 2, 1.2e-9) for t in range(3)],
            ),
        ]
        for radii, rows in cases:
            csv = "t,xk,yk,xl,yl\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows)
            path = tmp_path / "near.csv"
            path.write_text(csv)
            assert main([*radii, "story", str(path)]) == EXIT_OK
            assert "warning:" in capsys.readouterr().err
            assert main([*radii, "--strict", "story", str(path)]) == EXIT_DEGENERATE
            assert "warning:" in capsys.readouterr().err

    def test_one_warning_per_tangency_threshold(self, tmp_path, capsys):
        # For radii 1e-17 and 1 both thresholds are 1.0 in floats and the PO
        # interval between them is empty; a closest approach 5e-9 m outside
        # 1.0 is near two thresholds, not three regimes.
        rows = [(t, t - 2, 1.0 + 5e-9, 0, 0) for t in range(3)]
        path = tmp_path / "near.csv"
        path.write_text("t,xk,yk,xl,yl\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))
        assert main(["--rk", "1e-17", "--rl", "1", "classify", str(path)]) == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            "warning: tolerance bands of the tangency thresholds overlap",
            "warning: closest approach within 5e-09 m of a tangency threshold",
            "warning: closest approach within 5e-09 m of a tangency threshold",
        ]

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

    def test_unusable_config_value_is_a_format_error(self, tmp_path, capsys):
        control = ["control", "--from", "S15(DC-)", "--to", "S11(DC)"]
        cases = [
            ["--rk", "inf", "stories-set"],
            ["--eps", "inf", "stories-set"],
            ["--rk", "inf", "cng", "--motion"],
            ["--rk", "inf", *control],
            # Each radius is finite, their sum is not.
            ["--rk", "1e308", "--rl", "1e308", "story", SCENARIO_A_CSV],
        ]
        for i, contents in enumerate(['{"r_k": "abc"}', '{"r_k": [1]}', DEEP_JSON]):
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(contents)
            cases.append(["--config", str(cfg), "stories-set"])
        for argv in cases:
            assert main(argv) == EXIT_FORMAT, argv
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and err.startswith("error: config:"), err
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "contents, argv, first_words",
        [
            (
                b"t,xk,yk,xl,yl\n0,0,0,5,0\n1,\xff,0,4,0\n",
                ["classify", "{path}"],
                "error: line 3: not valid UTF-8",
            ),
            (b'{"r_k": "\xff"}', ["--config", "{path}", "stories-set"], "error: config:"),
        ],
        ids=["trajectory", "config"],
    )
    def test_non_utf8_input_is_a_format_error(self, tmp_path, capsys, contents, argv, first_words):
        path = tmp_path / "input"
        path.write_bytes(contents)
        assert main([a.format(path=path) for a in argv]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(first_words), err

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # 10^4 lines are well past a pipe's 64 KiB buffer, so the command is
        # still printing when its reader goes away.
        rows = [f"{t},{t * 1e-3!r},0,{0.1 + t * 1.01e-3!r},0\n" for t in range(10_000)]
        path = tmp_path / "long.csv"
        path.write_text("t,xk,yk,xl,yl\n" + "".join(rows))
        proc = _piped_cli(["--rk", "2", "--rl", "1", "classify", str(path)])
        assert proc.stdout.readline() == b"S15I(NTPPI)\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_OK
        assert err == b""

    def test_closed_stderr_keeps_the_exit_code(self, tmp_path):
        # A warning escalated by --strict (closest approach 5e-9 m outside
        # EC) and a format error each print to stderr before returning.
        near = tmp_path / "near.csv"
        rows = [(t, 2 * t, 0, 10 - t, 3.0 + 5e-9) for t in range(3)]
        near.write_text("t,xk,yk,xl,yl\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))
        bad = tmp_path / "bad.csv"
        bad.write_text("t,xk,yk,xl,yl\n0,0,0,1\n")
        for args, code in [
            (["--strict", "story", str(near)], EXIT_DEGENERATE),
            (["story", str(bad)], EXIT_FORMAT),
        ]:
            proc = _piped_cli(args)
            proc.stderr.close()
            proc.stdout.read()
            proc.stdout.close()
            assert proc.wait(timeout=60) == code, args


_PREFIX = "".join(f"{t},{t * 0.1!r},0,5,1\n" for t in range(50))


class TestErrorMessages:
    """Each unusable input is named by its first bad line, blank lines
    counted, with one error line and nothing on stdout, whatever the command."""

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0,0,0,5,0\n\n\n1,0,0,oops,0\n", "line 5, column 4: malformed number 'oops'"),
            (_PREFIX + "50,1,2\n", "line 52: expected 5 comma-separated fields, got 3"),
            (_PREFIX + "50,nan,0,5,1\n", "line 52, column 2: non-finite value 'nan'"),
            (_PREFIX + "50,0, inf ,5,1\n", "line 52, column 3: non-finite value 'inf'"),
            (_PREFIX + "49,0,0,5,1\n", "line 52: timestamp 49.0 not after 49.0"),
            (_PREFIX + "50,x,0,5,1\n51,y,0,5,1\n", "line 52, column 2: malformed number 'x'"),
            # Two records whose centers are too far apart to subtract, after
            # blank lines.
            (
                _PREFIX + "\n50,-1e308,0,1e308,1\n\n51,-1e308,0,1e308,1\n",
                "line 53: velocity fit is singular or overflows",
            ),
            # Finite relative positions whose length overflows, moving rigidly.
            (
                "0,0,0,1.5e308,1.5e308\n\n1,0,0,1.5e308,1.5e308\n",
                "line 4: center distance must be finite and >= 0, got inf",
            ),
        ],
        ids=[
            "blank-lines",
            "field-count",
            "nan-text",
            "inf-text",
            "non-increasing-t",
            "first-of-two-numbers",
            "first-of-two-records",
            "rigid-distance-overflow",
        ],
    )
    @pytest.mark.parametrize("command", [["classify"], ["recognize"]])
    def test_first_bad_line_is_named(self, tmp_path, capfd, body, message, command):
        path = tmp_path / "bad.csv"
        path.write_text("t,xk,yk,xl,yl\n" + body)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*command, str(path)]) == EXIT_FORMAT
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capfd.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "command, message",
        [
            (["classify"], "line 53: velocity fit is singular or overflows"),
            (["--window", "3", "classify"], "line 53: x must be finite, got inf"),
        ],
    )
    def test_window_changes_which_check_names_the_line(self, tmp_path, capfd, command, message):
        # Both records are bad; the whole-history fit overflows at the first,
        # while a 3-record fit stays finite and the centers fail to subtract.
        path = tmp_path / "bad.csv"
        path.write_text("t,xk,yk,xl,yl\n" + _PREFIX + "\n50,-1e308,0,1e308,1\n\n51,-1e308,0,1e308,1\n")
        assert main([*command, str(path)]) == EXIT_FORMAT
        assert capfd.readouterr() == ("", f"error: {message}\n")


_RADII = [(1.0, 2.0), (2.0, 1.0), (1.5, 1.5), (1.0, 1.0 + 5e-10)]


def _nudged(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def _stream_row(draw, r_k: float, r_l: float):
    """Positions (xk, yk, xl, yl) and fitted velocities (vxk, vyk, vxl, vyl)
    of one record: noise, a distance on a tangency band's edge, rigid motion,
    a relative speed whose square underflows, or values near 1e308."""
    kind = draw(st.sampled_from(["noise", "edge", "rigid", "underflow", "huge"]))
    finite = st.floats(-1e6, 1e6)
    if kind == "noise":
        return draw(st.tuples(*[finite] * 4)), draw(st.tuples(*[finite] * 4))
    if kind == "edge":
        eps = SceneConfig().eps
        theta = draw(st.sampled_from(axis(r_k, r_l, Tolerance(eps)).thresholds))
        edge = abs(_nudged(theta + draw(st.sampled_from([-eps, eps])), draw(st.integers(-2, 2))))
        speed = draw(st.sampled_from([1.0, -1.0, 0.3, 7.0]))
        if draw(st.booleans()):  # the closest approach on the edge
            along = draw(st.sampled_from([0.0, 1e-9, -2.5, 4.0]))
            return (0.0, 0.0, along, edge), (0.0, 0.0, speed, 0.0)
        return (0.0, 0.0, edge, 0.0), (0.0, 0.0) + draw(st.tuples(finite, finite))
    if kind == "rigid":
        v = draw(st.tuples(finite, finite))
        return draw(st.tuples(*[finite] * 4)), v + v
    if kind == "underflow":
        tiny = st.floats(1e-170, 1e-150) | st.just(0.0)
        return draw(st.tuples(*[finite] * 4)), (0.0, 0.0) + draw(st.tuples(tiny, tiny))
    huge = st.floats(-1.8e308, 1.8e308, allow_infinity=False) | finite
    return draw(st.tuples(*[huge] * 4)), draw(st.tuples(*[huge] * 4))


def _case(r_k, r_l, rows, lines):
    """A scene, records after a first one at the origin, their input lines and
    the velocities fitted at them (none at the first)."""
    data = np.array([(0.0,) * 5] + [(i + 1.0, *pos) for i, (pos, _) in enumerate(rows)])
    fits = np.array([(np.nan,) * 4] + [vel for _, vel in rows])
    return SceneConfig(r_k=r_k, r_l=r_l), data, lines, fits


@st.composite
def _stream_case(draw):
    r_k, r_l = draw(st.sampled_from(_RADII))
    rows = draw(st.lists(_stream_row(r_k, r_l), min_size=1, max_size=8))
    lines = sorted(draw(st.sets(st.integers(2, 40), min_size=len(rows) + 1, max_size=len(rows) + 1)))
    return _case(r_k, r_l, rows, lines)


def _scalar_stream(data, lines, fits, cfg):
    """The reference: one `UniformMotionState` per record through the scalar
    `augmented_relation`, stopping at the first record it rejects."""
    stream = []
    for i in range(1, len(data)):
        _, xk, yk, xl, yl = data[i].tolist()
        vxk, vyk, vxl, vyl = fits[i].tolist()
        try:
            if not np.isfinite(fits[i]).all():
                raise ValueError("velocity fit is singular or overflows")
            state = UniformMotionState(
                Disc(Vec2(xk, yk), cfg.r_k), Vec2(vxk, vyk), Disc(Vec2(xl, yl), cfg.r_l), Vec2(vxl, vyl)
            )
            stream.append(augmented_relation(state, cfg.tolerance))
        except ValueError as exc:
            return stream, f"line {lines[i]}: {exc}"
    return stream, None


class TestRelationStream:
    @settings(max_examples=400, deadline=None)
    @given(_stream_case())
    # math.hypot puts this distance on the EC band's edge; np.hypot one ulp off it.
    @example(_case(1.0, 2.0, [((0, 0, 1.0042317393859435, 2.8269274167565537), (0,) * 4)], [2, 3]))
    # t_min = -dp.dv / |dv|^2 overflows while |dv|^2 and d_min do not.
    @example(_case(1.0, 2.0, [((0, 0, 1e300, 0), (0, 0, 1e-10, 0))], [2, 3]))
    # |dv|^2 rounds to the least subnormal, so d_min lands in PO at dp.dv == 0
    # while the distance now is on EC: the phase is PLUS.
    @example(_case(1.0, 2.0, [((0, 0, 3.0, 0), (0, 0, 0, 2e-162))], [2, 3]))
    def test_equals_the_scalar_path(self, case):
        cfg, data, lines, fits = case
        want, error = _scalar_stream(data, lines, fits, cfg)
        if error is None:
            relations = RELATIONS[axis(cfg.r_k, cfg.r_l, cfg.tolerance).config]
            codes = _relation_stream(data, lines, fits, cfg).tolist()
            assert [relations[c] for c in codes] == want
        else:
            with pytest.raises(TrajectoryFormatError) as info:
                _relation_stream(data, lines, fits, cfg)
            assert str(info.value) == error


def _split_legs(points, parts):
    """Each leg between consecutive points as `parts` equal steps."""
    out = points[:1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        out += [(x0 + (x1 - x0) * k / parts, y0 + (y1 - y0) * k / parts) for k in range(1, parts + 1)]
    return out


class TestRepeatedRelations:
    # The steered trajectory with each leg split into four records, so the
    # stream repeats each relation and `recognize` has repeats to merge.
    @pytest.mark.parametrize("window", [0, 2, 10])
    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
    def test_outputs_equal_the_scalar_stream(self, tmp_path, capsys, window, reverse):
        points = _split_legs(steered_avoidance_points(), 4)
        text = points_to_csv(points[::-1] if reverse else points)
        traj, pattern = tmp_path / "legs.csv", tmp_path / "pattern.json"
        traj.write_text(text)
        pattern.write_text(json.dumps([{"rel": "DC", "phase": "-"}] * 2))
        data, lines = parse_trajectory(text)
        stream, error = _scalar_stream(data, lines, _velocity_fits(data, window), SceneConfig())
        assert error is None and len(set(stream)) < len(stream)

        def run(*args):
            assert main(["--window", str(window), *args, str(traj)]) == EXIT_OK
            return capsys.readouterr().out

        def doc(matches):
            return json.dumps([{"start": m.start_index, "end": m.end_index} for m in matches]) + "\n"

        assert run("classify") == "".join(f"{aug}\n" for aug in stream)
        assert run("recognize") == doc(detect_avoidance(stream))
        assert run("recognize", "--relaxed") == doc(detect_avoidance(stream, relaxed=True))
        want = doc(match_pattern(stream, Pattern.from_json_list(json.loads(pattern.read_text()))))
        assert run("recognize", "--pattern", str(pattern)) == want


def _composed_relation(state, tol):
    """The augmented relation as the story, `classify_discs` of the distance
    now and the phase rule compose it, without the decode table."""
    story = story_of(state, tol)
    rel = classify_discs(state.dp.norm(), state.disc_k.radius, state.disc_l.radius, tol)
    if rel is story.labels[len(story.labels) // 2]:
        return AugmentedRelation(story.id, rel, Phase.NONE)
    closing = state.dp.dot(state.dv) < 0
    return AugmentedRelation(story.id, rel, Phase.MINUS if closing else Phase.PLUS)


class TestScalarDecode:
    @settings(max_examples=400, deadline=None)
    @given(_stream_case())
    @example(_case(1.0, 2.0, [((0, 0, 1.0042317393859435, 2.8269274167565537), (0,) * 4)], [2, 3]))
    @example(_case(1.0, 2.0, [((0, 0, 1e300, 0), (0, 0, 1e-10, 0))], [2, 3]))
    @example(_case(1.0, 2.0, [((0, 0, 3.0, 0), (0, 0, 0, 2e-162))], [2, 3]))
    # The relative velocity overflows, so no state can be built.
    @example(_case(1.0, 2.0, [((0, 0, 0, 0), (0, -1e308, 0, 1e308))], [2, 3]))
    def test_equals_the_composition(self, case):
        # Same relation, or the same error, on every record of the stream cases.
        cfg, data, _, fits = case

        def outcome(classify, row, fit):
            try:
                return classify(_state_at(row, fit, cfg), cfg.tolerance)
            except ValueError as exc:
                return str(exc)

        for row, fit in zip(data[1:], fits[1:]):
            assert outcome(augmented_relation, row, fit) == outcome(_composed_relation, row, fit)


_FIELD = st.sampled_from(
    ["0", "1_0", " 1 ", "2.5", "-0", "nan", "inf", "-inf", "1e999", "oops", "", "0x1", "١",
     "\t3\x0c", "\u20034", "1 2", "+.5", "1e", "\x1f5", "5\x1f"]
) | st.floats(-10, 10).map(repr)


@st.composite
def _csv_text(draw) -> str:
    """A header (rarely a wrong one), then rows of 5 fields (sometimes not),
    blank lines, and times that mostly increase."""
    header = draw(st.sampled_from(["t,xk,yk,xl,yl", " t,xk,yk,xl,yl ", "t,x,y"]))
    lines = [header]
    for t in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "  "])))
        fields = draw(st.lists(_FIELD, min_size=4, max_size=5))
        if len(fields) == 4 or draw(st.booleans()):
            fields = [repr(t - draw(st.integers(0, 1)) * 0.5), *fields[:4]]
        lines.append(",".join(fields))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class TestParseTable:
    @settings(max_examples=400, deadline=None)
    @given(_csv_text())
    def test_equals_parse_trajectory(self, text):
        # The `loadtxt` path and the line walk give the same table and lines,
        # or the same message.  Input the walk accepts reaches it only when
        # it has numbers `loadtxt` rejects and `float` reads (those with
        # underscores or non-ASCII digits) or a U+001F, which `loadtxt` strips.
        try:
            want, want_lines = _walk_lines(text.splitlines())
        except TrajectoryFormatError as exc:
            with pytest.raises(TrajectoryFormatError) as info:
                parse_trajectory(text)
            assert str(info.value) == str(exc)
            return

        def walk(lines):
            assert "_" in text or "\x1f" in text or any(
                not c.isascii() and c.isdecimal() for c in text
            ), "walked"
            return _walk_lines(lines)

        with mock.patch("motionstories.cli._walk_lines", side_effect=walk):
            data, lines = parse_trajectory(text)
        assert data.tobytes() == want.tobytes() and data.shape == want.shape
        assert lines == want_lines


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


def _strict_json(text: str):
    """`json.loads` without the NaN and Infinity extensions."""

    def reject(constant: str):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=reject)


_ROW = st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 4).map(
    lambda xs: ",".join(map(repr, xs))
)


@st.composite
def _trajectory_bytes(draw) -> bytes:
    """The CSV header, then rows of floats, arbitrary bytes, or both."""
    rows = draw(st.lists(_ROW, max_size=6))
    times = sorted(draw(st.sets(st.integers(-5, 50), min_size=len(rows), max_size=len(rows))))
    text = "".join(f"{t},{row}\n" for t, row in zip(times, rows))
    tail = draw(st.binary(max_size=40)) if draw(st.booleans()) else b""
    return ("t,xk,yk,xl,yl\n" + text).encode() + tail


class TestMainFuzz:
    # One input file per test call, rewritten by every example.
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        contents=_trajectory_bytes(),
        command=st.sampled_from(["classify", "story", "recognize"]),
        options=st.tuples(
            st.floats(), st.floats(), st.floats(), st.integers(-3, 10**6)
        ).map(lambda o: [f"--rk={o[0]!r}", f"--rl={o[1]!r}", f"--eps={o[2]!r}", f"--window={o[3]}"]),
        pick=st.lists(st.booleans(), min_size=4, max_size=4),
    )
    @example(
        contents=b"t,xk,yk,xl,yl\n0,-4e200,1e200,0,0\n1e100,-3e200,1e200,0,0\n",
        command="story",
        options=["--rk=1e200", "--rl=2e200", "--eps=1e-09", "--window=0"],
        pick=[True, True, False, False],
    )
    def test_every_input_gets_an_exit_code(self, tmp_path, contents, command, options, pick):
        path = tmp_path / "fuzz.csv"
        path.write_bytes(contents)
        argv = [o for o, keep in zip(options, pick) if keep] + [command, str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_FORMAT, EXIT_DEGENERATE), (argv, err.getvalue())
        if code == EXIT_FORMAT:
            assert out.getvalue() == "" or command == "classify"
            assert len(err.getvalue().splitlines()) == 1
            assert err.getvalue().startswith("error: ")
            return
        if command == "classify":
            for line in out.getvalue().splitlines():
                AugmentedRelation.parse(line)
        else:
            _strict_json(out.getvalue())
