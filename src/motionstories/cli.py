"""Batch command-line front end.

Ingests CSV trajectories, estimates velocities by least squares, classifies
motion states, reports stories as JSON, exports neighborhood graphs, and runs
pattern detection.  Exit codes: 0 success, 1 usage error, 2 input-format
error, 3 degenerate-input warning escalated by --strict.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .kinematics import Disc, UniformMotionState, Vec2, closest_approach_state
from .neighborhood import motion_cng, rcc_cng, shortest_path, to_dot, to_json_adjacency
from .oracle import default_plan, sample_story
from .patterns import Pattern, detect_avoidance, match_pattern
from .rcc import Tolerance, bands_overlap
from .stories import (
    AugmentedRelation,
    augmented_relation,
    augmented_set,
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
class TrajectoryRecord:
    t: float
    xk: float
    yk: float
    xl: float
    yl: float
    line: int = field(default=0, compare=False)  # input line, for error messages


@dataclass(frozen=True)
class SceneConfig:
    r_k: float = 1.0
    r_l: float = 2.0
    eps: float = 1e-9
    strict: bool = False
    relaxed: bool = False

    def __post_init__(self) -> None:
        if not (self.r_k > 0 and self.r_l > 0):
            raise ValueError("radii must be positive")
        if not self.eps > 0:
            raise ValueError("eps must be positive")

    @property
    def tolerance(self) -> Tolerance:
        return Tolerance(self.eps)


def parse_trajectory(text: str) -> list[TrajectoryRecord]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != _HEADER:
        raise TrajectoryFormatError(f"line 1: expected header '{_HEADER}'")
    records: list[TrajectoryRecord] = []
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
        record = TrajectoryRecord(*values, lineno)
        if records and record.t <= records[-1].t:
            raise TrajectoryFormatError(
                f"line {lineno}: timestamp {record.t!r} not after {records[-1].t!r}"
            )
        records.append(record)
    if not records:
        raise TrajectoryFormatError("no records")
    return records


def _slopes(s_tt: np.ndarray, s_tx: np.ndarray) -> np.ndarray:
    """Least-squares slopes from centred sums (call under np.errstate); NaN
    where the time spread is not positive and finite or the slope overflows."""
    slopes = s_tx / s_tt
    return np.where((s_tt > 0) & np.isfinite(s_tt) & np.isfinite(slopes), slopes, np.nan)


def _velocity_fits(records: Sequence[TrajectoryRecord], window: int) -> np.ndarray:
    """Velocities (vxk, vyk, vxl, vyl) fitted at every record, shape (n, 4).

    Row i is the least-squares slope of each coordinate over the trailing
    window ending at record i: all records up to i when `window` <= 0, else
    the last `window` of them, and at least the two records [i-1, i].  Rows
    whose fit is singular or overflows are NaN; row 0 always is.
    """
    data = np.array([(r.t, r.xk, r.yk, r.xl, r.yl) for r in records], dtype=float)
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


def estimate_velocity(records: Sequence[TrajectoryRecord], entity: str) -> Vec2:
    """Least-squares slope of the entity's position over the records."""
    if len(records) < 2:
        raise ValueError("velocity estimation needs at least 2 records")
    if entity not in ("k", "l"):
        raise ValueError(f"entity must be 'k' or 'l', got {entity!r}")
    vxk, vyk, vxl, vyl = _checked_fit(_velocity_fits(records, 0)[-1].tolist())
    return Vec2(vxk, vyk) if entity == "k" else Vec2(vxl, vyl)


def _state_at(
    record: TrajectoryRecord, fit: Sequence[float], cfg: SceneConfig
) -> UniformMotionState:
    """The record's positions with the velocities fitted at it."""
    vxk, vyk, vxl, vyl = _checked_fit(fit)
    return UniformMotionState(
        disc_k=Disc(Vec2(record.xk, record.yk), cfg.r_k),
        vel_k=Vec2(vxk, vyk),
        disc_l=Disc(Vec2(record.xl, record.yl), cfg.r_l),
        vel_l=Vec2(vxl, vyl),
        epoch=record.t,
    )


@contextmanager
def _record_errors(record: TrajectoryRecord) -> Iterator[None]:
    """Report a record that the velocity fit or the classifier cannot handle
    (overflow, a singular fit) as a format error naming its input line."""
    try:
        yield
    except ValueError as exc:
        raise TrajectoryFormatError(f"line {record.line}: {exc}") from None


def _last_state(
    records: Sequence[TrajectoryRecord], cfg: SceneConfig, window: int
) -> UniformMotionState:
    return _state_at(records[-1], _velocity_fits(records, window)[-1].tolist(), cfg)


def _relation_stream(
    records: Sequence[TrajectoryRecord], cfg: SceneConfig, window: int
) -> list[AugmentedRelation]:
    """Augmented relation at every record after the first, in input order."""
    if len(records) < 2:
        raise TrajectoryFormatError("need at least 2 records to estimate motion")
    tol = cfg.tolerance
    fits = _velocity_fits(records, window).tolist()
    stream = []
    for i in range(1, len(records)):
        with _record_errors(records[i]):
            stream.append(augmented_relation(_state_at(records[i], fits[i], cfg), tol))
    return stream


def _degenerate_warnings(state: UniformMotionState, cfg: SceneConfig) -> list[str]:
    """Conditions under which classification is formally defined but fragile."""
    warnings = []
    tol = cfg.tolerance
    if bands_overlap(cfg.r_k, cfg.r_l, tol):
        warnings.append("tolerance bands of the tangency thresholds overlap")
    _, d_min = closest_approach_state(state)
    for theta in (cfg.r_k + cfg.r_l, abs(cfg.r_k - cfg.r_l)):
        gap = abs(d_min - theta)
        if tol.eps < gap <= 10.0 * tol.eps:
            warnings.append(
                f"closest approach within {gap:.3g} m of a tangency threshold"
            )
    return warnings


def _emit_warnings(warnings: list[str], cfg: SceneConfig) -> int:
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if warnings and cfg.strict:
        return EXIT_DEGENERATE
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit with code 2
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    """Usage error carrying the argparse message."""


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


def _load_config(args: argparse.Namespace) -> SceneConfig:
    values = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise TrajectoryFormatError(f"config: {exc}") from None
        if not isinstance(raw, dict):
            raise TrajectoryFormatError("config: expected a JSON object")
        for key in ("r_k", "r_l", "eps"):
            if key in raw:
                values[key] = float(raw[key])
    if args.rk is not None:
        values["r_k"] = args.rk
    if args.rl is not None:
        values["r_l"] = args.rl
    if args.eps is not None:
        values["eps"] = args.eps
    values["strict"] = args.strict
    values["relaxed"] = getattr(args, "relaxed", False)
    try:
        return SceneConfig(**values)
    except ValueError as exc:
        raise TrajectoryFormatError(f"config: {exc}") from None


def _read_records(path: str) -> list[TrajectoryRecord]:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_trajectory(fh.read())
    except OSError as exc:
        raise TrajectoryFormatError(str(exc)) from None


def _cmd_classify(args: argparse.Namespace, cfg: SceneConfig) -> int:
    records = _read_records(args.trajectory)
    stream = _relation_stream(records, cfg, args.window)
    for aug in stream:
        print(aug)
    with _record_errors(records[-1]):
        warnings = _degenerate_warnings(_last_state(records, cfg, args.window), cfg)
    return _emit_warnings(warnings, cfg)


def _cmd_story(args: argparse.Namespace, cfg: SceneConfig) -> int:
    records = _read_records(args.trajectory)
    if len(records) < 2:
        raise TrajectoryFormatError("need at least 2 records to estimate motion")
    tol = cfg.tolerance
    with _record_errors(records[-1]):
        state = _last_state(records, cfg, args.window)
        story = story_of(state, tol)
        warnings = _degenerate_warnings(state, cfg)
        sampled = sample_story(state, default_plan(state), tol) if args.verify else None
    if sampled is not None and sampled.labels != story.labels:
        print(
            "verification failed: sampled labels "
            f"{[str(r) for r in sampled.labels]} != analytic "
            f"{[str(r) for r in story.labels]}",
            file=sys.stderr,
        )
        return EXIT_FORMAT
    if args.text:
        from .stories import format_story

        print(format_story(story))
    else:
        print(json.dumps(story_to_json_dict(story)))
    return _emit_warnings(warnings, cfg)


def _cmd_stories_set(args: argparse.Namespace, cfg: SceneConfig) -> int:
    tol = cfg.tolerance
    sset = stories_set(cfg.r_k, cfg.r_l, tol)
    doc = {
        "stories": [story_to_json_dict(s) for s in sset.all],
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
    records = _read_records(args.trajectory)
    stream = _relation_stream(records, cfg, args.window)
    if args.pattern:
        try:
            with open(args.pattern, encoding="utf-8") as fh:
                items = json.load(fh)
            pattern = Pattern.from_json_list(items)
        except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
            raise TrajectoryFormatError(f"pattern: {exc}") from None
        matches = match_pattern(stream, pattern)
    else:
        matches = detect_avoidance(stream, relaxed=cfg.relaxed)
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
        path = shortest_path(g, frm, to)
    except KeyError as exc:
        raise TrajectoryFormatError(
            f"relation not in the configured graph: {exc.args[0]}"
        ) from None
    if path is None:
        print("no path")
        return EXIT_OK
    for step in path[1:]:
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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](args, cfg)
    except TrajectoryFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
