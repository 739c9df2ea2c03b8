"""Run one timed benchmark job in a fresh interpreter.

Usage: python3 bench/child.py SPEC.json RESULT.json

The spec names the workload, the checkout root, the inputs and whether to
trace.  The child imports the program first, so the timed units hold only the
program's work, and interleaves host-speed probes with the units; it writes
unit times, probe times, outputs, peak RSS and (when traced) the span
aggregates to RESULT.json and prints nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def _api(ms, name: str):
    """A public name of the program, looked up at call time so shims apply."""
    value = getattr(ms, name, None)
    if value is None:
        for module in ("stories", "oracle", "neighborhood", "kinematics"):
            value = getattr(getattr(ms, module, None), name, None)
            if value is not None:
                break
    if value is None:
        raise AttributeError(f"motionstories has no public {name!r}")
    return value


def run_cli(spec: dict, ms, probe) -> dict:
    """One CLI call per input file, each timed from reading the input to the
    last output byte."""
    main = ms.cli.main
    unit_s, exits, errors = [], [], []
    for unit in spec["units"]:
        out, err = io.StringIO(), io.StringIO()
        t_unit = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(unit["argv"])
            except Exception:  # a traceback is a failed call, not a crashed benchmark
                code = None
                err.write(traceback.format_exc())
        unit_s.append(perf_counter() - t_unit)
        probe.after_unit(unit_s[-1])
        Path(unit["output"]).write_text(out.getvalue(), encoding="utf-8")
        exits.append(code)
        errors.append(err.getvalue()[-2000:] if code != 0 else "")
    return {"unit_s": unit_s, "exits": exits, "stderr": errors}


def run_oracle(spec: dict, ms, probe) -> dict:
    items = json.loads(Path(spec["input"]).read_text(encoding="utf-8"))
    Disc, Vec2, State = ms.Disc, ms.Vec2, ms.UniformMotionState
    states = []
    for item in items:
        r_k, r_l, xk, yk, vxk, vyk, xl, yl, vxl, vyl, epoch = item["state"]
        states.append(
            (item["config"], State(Disc(Vec2(xk, yk), r_k), Vec2(vxk, vyk),
                                   Disc(Vec2(xl, yl), r_l), Vec2(vxl, vyl), epoch))
        )
    story_of = _api(ms, "story_of")
    sample_story = _api(ms, "sample_story")
    default_plan = _api(ms, "default_plan")

    ids: list[str] = []
    mismatches: list[int] = []
    config_s: dict[str, float] = {}
    unit_s: list[float] = []
    for i, (config, state) in enumerate(states):
        t_state = perf_counter()
        story = story_of(state)
        sampled = sample_story(state, default_plan(state))
        dt = perf_counter() - t_state
        unit_s.append(dt)
        probe.after_unit(dt)
        config_s[config] = config_s.get(config, 0.0) + dt
        ids.append(story.id.value)
        if story.labels != sampled.labels:
            mismatches.append(i)
    return {"unit_s": unit_s, "ids": ids, "mismatches": mismatches, "config_s": config_s}


def run_validate(spec: dict, ms, probe) -> dict:
    jobs = json.loads(Path(spec["input"]).read_text(encoding="utf-8"))
    augmented_set = _api(ms, "augmented_set")
    motion_cng = _api(ms, "motion_cng")
    validate = _api(ms, "validate_motion_cng")

    legs = []
    for job in jobs:
        t_leg = perf_counter()
        g = motion_cng(augmented_set(job["r_k"], job["r_l"]))
        report = validate(
            g, job["r_k"], job["r_l"],
            n_pairs=job["n_pairs"], n_trials=job["n_trials"], seed=job["seed"],
        )
        leg_s = perf_counter() - t_leg
        probe.after_unit(leg_s)
        legs.append((job, g, report, leg_s))

    out = []
    for job, g, report, leg_s in legs:
        n = len(g.nodes)
        non_edges = n * (n - 1) // 2 - len(g.edges)
        out.append({
            "config": job["config"],
            "wall_s": leg_s,
            "edges": len(g.edges),
            "trials": min(job["n_pairs"], non_edges) * job["n_trials"],
            "ok": bool(report.ok),
            "unwitnessed": [[str(a), str(b)] for a, b in report.unwitnessed_edges],
            "spurious": [[str(a), str(b)] for a, b in report.spurious_transitions],
        })
    return {"unit_s": [leg["wall_s"] for leg in out], "legs": out}


RUNNERS = {
    "cli-classify": run_cli,
    "cli-recognize-history": run_cli,
    "oracle-crosscheck": run_oracle,
    "validate-cng": run_validate,
}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import motionstories
    import motionstories.cli  # noqa: F401  (imports every layer)

    from calibrate import Probe

    tracer = None
    probe = Probe(share=0.3)
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    result = RUNNERS[spec["workload"]](spec, motionstories, probe)
    result["wall_s"] = sum(result["unit_s"])
    result["probe_batches"] = probe.batches
    if tracer is not None:
        tracer.restore()
        result["trace"] = tracer.snapshot()
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
