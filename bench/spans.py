"""Timing shims around the program's public functions, for the traced run.

A shim replaces a module-level name in every `motionstories` module that
binds the original function, so it sees each call as its caller makes it
(`motionstories.cli.estimate_velocity`, `motionstories.oracle.center_distance_at`,
...).  Spans are aggregated in memory by (caller span, span): a per-call span
list would grow to millions of entries on the oracle workload.  Self time is
a span's duration minus the time covered by the spans it caused.
"""

from __future__ import annotations

import sys
from time import perf_counter

# Spans, named `<module>.<function>` after the module that defines the
# function today.  A function moved elsewhere is still found through the
# package's public exports.
SPANS = (
    "cli.parse_trajectory",
    "cli.estimate_velocity",
    "stories.story_of",
    "stories.augmented_relation",
    "kinematics.closest_approach_state",
    "kinematics.center_distance_at",
    "rcc.classify_discs",
    "oracle.sample_story",
    "oracle.default_plan",
    "neighborhood.motion_cng",
    "neighborhood.validate_motion_cng",
    "patterns.detect_avoidance",
)


def _dedup_len(stream) -> int:
    """Length of the stream with consecutive equal items merged."""
    return sum(1 for i, item in enumerate(stream) if i == 0 or item != stream[i - 1])


# Work counted at a span boundary, from the call's arguments (evaluated
# before the span's clock starts).
COUNTERS = {
    # Sum of the window lengths passed to the velocity fit.
    "cli.estimate_velocity": ("points_fitted", lambda args, kwargs: len(args[0])),
    # Records of the deduplicated stream the matcher walks.
    "patterns.detect_avoidance": (
        "records",
        lambda args, kwargs: _dedup_len(args[0] if args else kwargs["stream"]),
    ),
}


class Tracer:
    """Aggregated span recorder; install() patches, restore() undoes it."""

    def __init__(self) -> None:
        self.stack: list[list] = []          # [span name, child seconds]
        self.stats: dict[str, list] = {}      # span -> [calls, total s, self s]
        self.edges: dict[tuple[str, str], int] = {}  # (caller, span) -> calls
        self.counts: dict[str, int] = {}      # "<span>.<counter>" -> total
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def _shim(self, span: str, fn):
        stack, edges = self.stack, self.edges
        stat = self.stats.setdefault(span, [0, 0.0, 0.0])
        counter = COUNTERS.get(span)
        counts = self.counts
        key = f"{span}.{counter[0]}" if counter else None

        def shim(*args, **kwargs):
            if counter is not None:
                counts[key] = counts.get(key, 0) + counter[1](args, kwargs)
            caller = stack[-1][0] if stack else ""
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                edge = (caller, span)
                edges[edge] = edges.get(edge, 0) + 1

        shim.__wrapped__ = fn
        return shim

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "motionstories" or name.startswith("motionstories."))
        ]
        package = sys.modules["motionstories"]
        for span in SPANS:
            home, fn_name = span.split(".")
            original = getattr(sys.modules.get(f"motionstories.{home}"), fn_name, None)
            if original is None:
                original = getattr(package, fn_name, None)
            if original is None:
                self.missing.append(span)
                continue
            shim = self._shim(span, original)
            for module in modules:
                if module.__dict__.get(fn_name) is original:
                    self._patched.append((module, fn_name, original))
                    setattr(module, fn_name, shim)

    def restore(self) -> None:
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        return {
            "spans": {
                span: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                for span, s in self.stats.items()
            },
            "edges": [
                {"caller": c, "span": s, "calls": n}
                for (c, s), n in sorted(self.edges.items())
            ],
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }
