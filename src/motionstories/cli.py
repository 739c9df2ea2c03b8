"""Batch command-line front end.

Ingests CSV trajectories, estimates velocities by least squares, classifies
motion states, reports stories as JSON, exports neighborhood graphs, and runs
pattern detection.  Exit codes: 0 success (also when the reader closes
stdout early), 1 usage error, 2 input-format error, 3 degenerate-input
warning escalated by --strict; a closed stderr changes none of them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .kinematics import Disc, UniformMotionState, Vec2, closest_approach_state
from .neighborhood import motion_cng, rcc_cng, to_dot, to_json_adjacency
from .oracle import default_plan, sample_story
from .patterns import Pattern, control_suggestion, detect_avoidance, match_pattern
from .stories import (
    RELATIONS,
    AugmentedRelation,
    Tolerance,
    augmented_relation,
    augmented_relation_indices,
    augmented_set,
    axis,
    bands_overlap,
    format_story,
    radius_config,
    stories_set,
    story_of,
    story_to_json_dict,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_DEGENERATE = 3

_HEADER = "t,xk,yk,xl,yl"


class TrajectoryFormatError(ValueError):
    """Malformed trajectory input; the message names the offending line."""


@dataclass(frozen=True)
class SceneConfig:
    r_k: float = 1.0
    r_l: float = 2.0
    eps: float = 1e-9
    strict: bool = False

    def __post_init__(self) -> None:
        # The classifier's own checks: positive, finite eps and radii.
        radius_config(self.r_k, self.r_l, self.tolerance)

    @property
    def tolerance(self) -> Tolerance:
        return Tolerance(self.eps)


def parse_trajectory(text: str) -> tuple[np.ndarray, list[int]]:
    """The records as rows (t, xk, yk, xl, yl) of an (n, 5) array, and their
    input lines.

    numpy's C `loadtxt` parses input that passes every check, with `float`'s
    conversion and so `float`'s bits.  It rejects some numbers `float` accepts:
    digit-group underscores (`1_0`) and non-ASCII digits.  It also strips the
    unit separator U+001F around a number, which `float` rejects, so text with
    one skips it.  That input, input without records, and input failing a
    check go to `_walk_lines`, which returns the rows `float` accepts or names
    the first bad line.
    """
    lines = text.splitlines()
    numbered = [n for n, line in enumerate(lines) if n and line.strip()]
    data = np.empty(0)
    if numbered and "\x1f" not in text:  # loadtxt warns on no lines and strips U+001F
        try:
            data = np.loadtxt(
                [lines[n] for n in numbered], delimiter=",", comments=None, ndmin=2, dtype=float
            )
        except ValueError:  # a row of the wrong length or a malformed number
            pass
    ok = data.shape[1:] == (5,) and lines[0].strip() == _HEADER and np.isfinite(data).all()
    if ok and (data[1:, 0] > data[:-1, 0]).all():
        return data, [n + 1 for n in numbered]
    return _walk_lines(lines)


def _walk_lines(lines: list[str]) -> tuple[np.ndarray, list[int]]:
    """The `parse_trajectory` of input `loadtxt` rejects, line by line: the
    first bad line's error, or the rows if `float` accepts what `loadtxt` did not."""
    if not lines or lines[0].strip() != _HEADER:
        raise TrajectoryFormatError(f"line 1: expected header '{_HEADER}'")
    rows: list[list[float]] = []
    numbers: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 5:
            raise TrajectoryFormatError(
                f"line {lineno}: expected 5 comma-separated fields, got {len(fields)}"
            )
        values = []
        for col, raw in enumerate(fields, start=1):
            try:
                value = float(raw)
            except ValueError:
                raise TrajectoryFormatError(
                    f"line {lineno}, column {col}: malformed number {raw.strip()!r}"
                ) from None
            if not math.isfinite(value):
                raise TrajectoryFormatError(
                    f"line {lineno}, column {col}: non-finite value {raw.strip()!r}"
                )
            values.append(value)
        if rows and values[0] <= rows[-1][0]:
            raise TrajectoryFormatError(
                f"line {lineno}: timestamp {values[0]!r} not after {rows[-1][0]!r}"
            )
        rows.append(values)
        numbers.append(lineno)
    if not rows:
        raise TrajectoryFormatError("no records")
    return np.array(rows, dtype=float), numbers


def _slopes(s_tt: np.ndarray, s_tx: np.ndarray) -> np.ndarray:
    """Least-squares slopes from centred sums (call under np.errstate); NaN
    where the time spread is not positive and finite or the slope overflows."""
    slopes = s_tx / s_tt
    return np.where((s_tt > 0) & np.isfinite(s_tt) & np.isfinite(slopes), slopes, np.nan)


def _velocity_fits(data: np.ndarray, window: int) -> np.ndarray:
    """Velocities (vxk, vyk, vxl, vyl) fitted at every `parse_trajectory` row, shape (n, 4).

    Row i is the least-squares slope of each coordinate over the trailing
    window ending at record i: all records up to i when `window` <= 0, else
    the last `window` of them, and at least the two records [i-1, i].  Rows
    whose fit is singular or overflows are NaN; row 0 always is.
    """
    n = len(data)
    width = n + 1 if window <= 0 else max(window, 2)
    fits = np.empty((n, 4))
    with np.errstate(all="ignore"):
        # Growing prefixes [0, i]: running sums of the values shifted by the
        # first record, centred in closed form.
        head = data[: min(width - 1, n)] - data[0]
        m = np.arange(1, len(head) + 1)[:, None]
        u, x = head[:, :1], head[:, 1:]
        s_t = np.cumsum(u, axis=0)
        s_x = np.cumsum(x, axis=0)
        s_tt = np.cumsum(u * u, axis=0) - s_t * s_t / m
        s_tx = np.cumsum(u * x, axis=0) - s_t * s_x / m
        fits[: len(head)] = _slopes(s_tt, s_tx)
        # Full windows [i-width+1, i]: each window shifted by its first record,
        # then centred on its own means.  Chunks of about 2**16 values per
        # coordinate keep memory from growing with n * width.
        chunk = max(1, 2**16 // width)
        for lo in range(0, n - width + 1, chunk):
            view = sliding_window_view(data[lo : lo + chunk + width - 1], width, axis=0)
            c = view - view[:, :, :1]
            c -= c.mean(axis=2, keepdims=True)
            tc = c[:, :1]
            s_tt = np.einsum("ijk,ijk->ij", tc, tc)
            s_tx = np.einsum("ijk,ijk->ij", tc, c[:, 1:])
            end = lo + width - 1 + len(view)
            fits[lo + width - 1 : end] = _slopes(s_tt, s_tx)
    return fits


def _checked_fit(fit: Sequence[float]) -> Sequence[float]:
    if not all(map(math.isfinite, fit)):
        raise ValueError("velocity fit is singular or overflows")
    return fit


def estimate_velocity(data: np.ndarray, entity: str) -> Vec2:
    """Least-squares slope of the entity's position over the table's rows."""
    if len(data) < 2:
        raise ValueError("velocity estimation needs at least 2 records")
    if entity not in ("k", "l"):
        raise ValueError(f"entity must be 'k' or 'l', got {entity!r}")
    vxk, vyk, vxl, vyl = _checked_fit(_velocity_fits(data, 0)[-1].tolist())
    return Vec2(vxk, vyk) if entity == "k" else Vec2(vxl, vyl)


def _state_at(row: np.ndarray, fit: np.ndarray, cfg: SceneConfig) -> UniformMotionState:
    """The record's positions with the velocities fitted at it."""
    t, xk, yk, xl, yl = row.tolist()
    vxk, vyk, vxl, vyl = _checked_fit(fit.tolist())
    return UniformMotionState(
        disc_k=Disc(Vec2(xk, yk), cfg.r_k),
        vel_k=Vec2(vxk, vyk),
        disc_l=Disc(Vec2(xl, yl), cfg.r_l),
        vel_l=Vec2(vxl, vyl),
        epoch=t,
    )


@contextmanager
def _record_errors(line: int) -> Iterator[None]:
    """Report a record that the velocity fit or the classifier cannot handle
    (overflow, a singular fit) as a format error naming its input line."""
    try:
        yield
    except ValueError as exc:
        raise TrajectoryFormatError(f"line {line}: {exc}") from None


def _relation_stream(
    data: np.ndarray, lines: Sequence[int], fits: np.ndarray, cfg: SceneConfig
) -> np.ndarray:
    """The index into the radii's `RELATIONS` of the augmented relation at
    every record after the first, in input order, from
    `augmented_relation_indices`.  The first record it rejects goes through
    `augmented_relation`, for its message, so no code returned is -1."""
    pos, vel = data[1:, 1:], fits[1:]
    with np.errstate(all="ignore"):
        dpx, dpy = (pos[:, 2:] - pos[:, :2]).T
        dvx, dvy = (vel[:, 2:] - vel[:, :2]).T
    codes = augmented_relation_indices(dpx, dpy, dvx, dvy, cfg.r_k, cfg.r_l, cfg.tolerance)
    bad = np.flatnonzero(codes < 0) + 1
    if bad.size:
        with _record_errors(lines[bad[0]]):
            augmented_relation(_state_at(data[bad[0]], fits[bad[0]], cfg), cfg.tolerance)
    return codes


def _degenerate_warnings(state: UniformMotionState, cfg: SceneConfig) -> list[str]:
    """Conditions under which classification is formally defined but fragile."""
    warnings = []
    tol = cfg.tolerance
    if bands_overlap(cfg.r_k, cfg.r_l, tol):
        warnings.append("tolerance bands of the tangency thresholds overlap")
    _, d_min = closest_approach_state(state)
    for theta in axis(cfg.r_k, cfg.r_l, tol).thresholds:
        gap = abs(d_min - theta)
        if tol.eps < gap <= 10.0 * tol.eps:
            warnings.append(f"closest approach within {gap:.3g} m of a tangency threshold")
    return warnings


def _to_devnull(stream: TextIO) -> None:
    """Point a stream whose reader has gone at devnull; the flush at exit then succeeds."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _to_stderr(text: str) -> None:
    """Print to stderr; a closed stderr loses the text, not the exit code."""
    try:
        print(text, file=sys.stderr)
    except BrokenPipeError:
        _to_devnull(sys.stderr)


def _emit_warnings(warnings: list[str], cfg: SceneConfig) -> int:
    for w in warnings:
        _to_stderr(f"warning: {w}")
    if warnings and cfg.strict:
        return EXIT_DEGENERATE
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit with code 2
        _to_stderr(self.format_usage().rstrip("\n"))
        raise SystemExit2(message)


class SystemExit2(Exception):
    """Usage error carrying the argparse message."""


@functools.cache  # built on the first `main` call, then reused
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="motionstories", description=__doc__)
    parser.add_argument("--config", help="scene config JSON file")
    parser.add_argument("--rk", type=float, help="radius of disc k (m)")
    parser.add_argument("--rl", type=float, help="radius of disc l (m)")
    parser.add_argument("--eps", type=float, help="tangency tolerance (m)")
    parser.add_argument(
        "--strict", action="store_true", help="escalate degenerate-input warnings"
    )
    parser.add_argument(
        "--window",
        type=int,
        default=0,
        help="trailing records used for velocity estimation (0 = all)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="augmented relation per trajectory window")
    p.add_argument("trajectory")

    p = sub.add_parser("story", help="story JSON for the estimated motion")
    p.add_argument("trajectory")
    p.add_argument(
        "--verify", action="store_true", help="cross-check against the sampling oracle"
    )
    p.add_argument("--text", action="store_true", help="human-readable instead of JSON")

    sub.add_parser("stories-set", help="realizable stories for the configured radii")

    p = sub.add_parser("cng", help="neighborhood graph export")
    graph = p.add_mutually_exclusive_group()
    graph.add_argument("--rcc", action="store_true", help="disc-relation graph (default)")
    graph.add_argument("--motion", action="store_true", help="motion-relation graph")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true", help="Graphviz output (default)")
    fmt.add_argument("--json", action="store_true", help="JSON adjacency output")

    p = sub.add_parser("recognize", help="pattern matches over the relation stream")
    p.add_argument("trajectory")
    p.add_argument("--pattern", help="pattern JSON file (default: avoidance)")
    p.add_argument("--relaxed", action="store_true", help="relaxed avoidance matching")

    p = sub.add_parser("control", help="shortest maneuver between motion relations")
    p.add_argument("--from", dest="frm", required=True, metavar="AUG")
    p.add_argument("--to", dest="to", required=True, metavar="AUG")
    return parser


def _load_json(path: str, what: str):
    """A file's JSON document; failing to read or parse it is a format error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise TrajectoryFormatError(f"{what}: {exc}") from None


def _load_config(args: argparse.Namespace) -> SceneConfig:
    values = {}
    if args.config:
        raw = _load_json(args.config, "config")
        if not isinstance(raw, dict):
            raise TrajectoryFormatError("config: expected a JSON object")
        for key in ("r_k", "r_l", "eps"):
            if key in raw:
                try:
                    values[key] = float(raw[key])
                except (TypeError, ValueError) as exc:
                    raise TrajectoryFormatError(f"config: {key}: {exc}") from None
    if args.rk is not None:
        values["r_k"] = args.rk
    if args.rl is not None:
        values["r_l"] = args.rl
    if args.eps is not None:
        values["eps"] = args.eps
    values["strict"] = args.strict
    try:
        return SceneConfig(**values)
    except ValueError as exc:
        raise TrajectoryFormatError(f"config: {exc}") from None


def _read_table(path: str) -> tuple[np.ndarray, list[int]]:
    """The `parse_trajectory` of a UTF-8 trajectory file of at least 2 records."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        # A leading byte-order mark is no text.  (The "utf-8-sig" codec would
        # import its module inside the call and decode in Python.)
        text = data.decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise TrajectoryFormatError(str(exc)) from None
    except UnicodeDecodeError as exc:
        # Count lines as the parser does; the bad byte's line is the last.
        line = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        raise TrajectoryFormatError(f"line {line}: not valid UTF-8") from None
    table, lines = parse_trajectory(text)
    if len(table) < 2:
        raise TrajectoryFormatError("need at least 2 records to estimate motion")
    return table, lines


def _cmd_classify(args: argparse.Namespace, cfg: SceneConfig) -> int:
    data, lines = _read_table(args.trajectory)
    fits = _velocity_fits(data, args.window)
    codes = _relation_stream(data, lines, fits, cfg)
    text = [f"{aug}\n" for aug in RELATIONS[axis(cfg.r_k, cfg.r_l, cfg.tolerance).config]]
    sys.stdout.write("".join(map(text.__getitem__, codes.tolist())))
    # The stream has accepted the last record, so its state builds.
    warnings = _degenerate_warnings(_state_at(data[-1], fits[-1], cfg), cfg)
    return _emit_warnings(warnings, cfg)


def _cmd_story(args: argparse.Namespace, cfg: SceneConfig) -> int:
    data, lines = _read_table(args.trajectory)
    tol = cfg.tolerance
    with _record_errors(lines[-1]):
        state = _state_at(data[-1], _velocity_fits(data, args.window)[-1], cfg)
        story = story_of(state, tol)
        if not all(map(math.isfinite, story.boundaries)):
            raise ValueError("a transition instant is not finite")
        warnings = _degenerate_warnings(state, cfg)
        sampled = sample_story(state, default_plan(state), tol) if args.verify else None
    if sampled is not None and sampled.labels != story.labels:
        # The last record's fitted state is the one checked.
        raise TrajectoryFormatError(
            f"line {lines[-1]}: verification failed: sampled labels "
            f"{[str(r) for r in sampled.labels]} != analytic {[str(r) for r in story.labels]}"
        )
    if args.text:
        print(format_story(story))
    else:
        print(json.dumps(story_to_json_dict(story)))
    return _emit_warnings(warnings, cfg)


def _cmd_stories_set(args: argparse.Namespace, cfg: SceneConfig) -> int:
    tol = cfg.tolerance
    doc = {
        "stories": [story_to_json_dict(s) for s in stories_set(cfg.r_k, cfg.r_l, tol)],
        "augmented": sorted(str(a) for a in augmented_set(cfg.r_k, cfg.r_l, tol)),
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_cng(args: argparse.Namespace, cfg: SceneConfig) -> int:
    if args.motion:
        g = motion_cng(augmented_set(cfg.r_k, cfg.r_l, cfg.tolerance))
    else:
        g = rcc_cng()
    if args.json:
        print(json.dumps(to_json_adjacency(g), indent=2))
    else:
        print(to_dot(g), end="")
    return EXIT_OK


def _cmd_recognize(args: argparse.Namespace, cfg: SceneConfig) -> int:
    pattern = None
    if args.pattern:
        items = _load_json(args.pattern, "pattern")
        try:
            pattern = Pattern.from_json_list(items)
        except ValueError as exc:
            raise TrajectoryFormatError(f"pattern: {exc}") from None
    data, lines = _read_table(args.trajectory)
    codes = _relation_stream(data, lines, _velocity_fits(data, args.window), cfg)
    # Merge equal neighbours as `dedup` would, and build objects only for the rest.
    codes = codes[np.r_[True, codes[1:] != codes[:-1]]]
    relations = RELATIONS[axis(cfg.r_k, cfg.r_l, cfg.tolerance).config]
    stream = list(map(relations.__getitem__, codes.tolist()))
    if pattern is not None:
        matches = match_pattern(stream, pattern)
    else:
        matches = detect_avoidance(stream, relaxed=args.relaxed)
    doc = [{"start": m.start_index, "end": m.end_index} for m in matches]
    print(json.dumps(doc))
    return EXIT_OK


def _cmd_control(args: argparse.Namespace, cfg: SceneConfig) -> int:
    try:
        frm = AugmentedRelation.parse(args.frm)
        to = AugmentedRelation.parse(args.to)
    except ValueError as exc:
        raise TrajectoryFormatError(str(exc)) from None
    g = motion_cng(augmented_set(cfg.r_k, cfg.r_l, cfg.tolerance))
    try:
        steps = control_suggestion(frm, to, g)
    except KeyError as exc:
        raise TrajectoryFormatError(
            f"relation not in the configured graph: {exc.args[0]}"
        ) from None
    if steps is None:
        print("no path")
        return EXIT_OK
    for step in steps:
        print(step)
    return EXIT_OK


_COMMANDS = {
    "classify": _cmd_classify,
    "story": _cmd_story,
    "stories-set": _cmd_stories_set,
    "cng": _cmd_cng,
    "recognize": _cmd_recognize,
    "control": _cmd_control,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit2 as exc:
        _to_stderr(f"error: {exc}")
        return EXIT_USAGE
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](args, cfg)
    except TrajectoryFormatError as exc:
        _to_stderr(f"error: {exc}")
        return EXIT_FORMAT
    except BrokenPipeError:
        # Every stderr write goes through `_to_stderr`, so it is stdout's
        # reader that has all it wants.
        _to_devnull(sys.stdout)
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
