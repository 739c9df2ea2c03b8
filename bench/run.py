"""The motionstories benchmark: one workload per run, checked and timed.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates its inputs from the seed, measures the import time of the
CLI in fresh interpreters, then runs the workload's job again and again for
S seconds, one job at a time, each in a fresh child process that imports the
program before its clock starts.  Every job's output is checked outside the
timed region.  With --trace 1 the jobs alternate between untraced and traced
(timing shims around the program's public functions) and the run reports the
per-layer metrics instead of the end-to-end ones.

Human-readable report lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  See
bench/README.md for the workloads, their sizes and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

sys.path.insert(0, str(BENCH))
import inputs  # noqa: E402
from calibrate import IMPORT_PROBE_CODE, IMPORT_REFERENCE_S, reference_seconds  # noqa: E402
from spans import SPANS  # noqa: E402

CLI_RADII = ["--rk", "1", "--rl", "2"]
WORKLOADS = {
    # Per-record stream path; a trailing window keeps the fit cost per record
    # constant, so splitting the records into short files (short timed CLI
    # calls) does not change the cost per record.
    "cli-classify": {"item": "records", "files": 40, "records": 500, "window": 10,
                     "command": "classify",
                     "argv": CLI_RADII + ["--window", "10", "classify"]},
    # Default user path: --window 0 fits over the whole history, O(n^2) in the
    # history length, so one 1.5e3-record history already takes about 2 s.
    "cli-recognize-history": {"item": "records", "files": 1, "records": 1_500, "window": 0,
                              "command": "recognize",
                              "argv": CLI_RADII + ["recognize", "--relaxed"]},
    # Library path: analytic stories against the sampling oracle.
    "oracle-crosscheck": {"item": "states", "states_per_config": 80},
    # Perturbation validator at acceptance criterion 8's arguments.
    "validate-cng": {"item": "checks", "n_pairs": 60, "n_trials": 80},
}
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 170.0   # stop starting jobs that could overrun the run's limit

SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import motionstories.cli\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    return env


# --------------------------------------------------------------------------
# Environment
# --------------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "motionstories").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _interpreter_seconds(code: str, env: dict) -> float:
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed:\n{proc.stderr}")
    return float(proc.stdout)


def measure_setup(env: dict) -> tuple[list[float], list[float]]:
    """Import time of motionstories.cli in fresh interpreters, raw and at the
    reference host speed.

    Imports alternate with the import probe (numpy and standard-library
    modules); each import is scaled by the probes before and after it.  The
    first run of each writes the bytecode caches and is dropped.
    """
    _interpreter_seconds(SETUP_CODE, env)
    _interpreter_seconds(IMPORT_PROBE_CODE, env)
    probes = [_interpreter_seconds(IMPORT_PROBE_CODE, env)]
    raw = []
    for _ in range(SETUP_REPEATS):
        raw.append(_interpreter_seconds(SETUP_CODE, env))
        probes.append(_interpreter_seconds(IMPORT_PROBE_CODE, env))
    calibrated = [t * 2 * IMPORT_REFERENCE_S / (a + b)
                  for t, a, b in zip(raw, probes, probes[1:])]
    return raw, calibrated


# --------------------------------------------------------------------------
# Inputs and expected outputs
# --------------------------------------------------------------------------


def _program():
    """The program package, imported from the checkout's source."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import motionstories
    import motionstories.cli  # noqa: F401

    return motionstories


def cli_stream(csv_text: str, window: int) -> list:
    """The CLI's relation stream, through the scalar public path: np.polyfit
    slopes over the same window -> augmented_relation."""
    import numpy as np

    ms = _program()
    rows = [[float(f) for f in line.split(",")] for line in csv_text.splitlines()[1:]]
    t, xk, yk, xl, yl = (np.array(col) for col in zip(*rows))
    tol = ms.Tolerance(1e-9)
    stream = []
    for i in range(1, len(rows)):
        lo = 0 if window <= 0 else max(0, i + 1 - window)
        if i + 1 - lo < 2:
            lo = i - 1
        ts = t[lo : i + 1]
        v = [float(np.polyfit(ts, c[lo : i + 1], 1)[0]) for c in (xk, yk, xl, yl)]
        state = ms.UniformMotionState(
            disc_k=ms.Disc(ms.Vec2(float(xk[i]), float(yk[i])), 1.0),
            vel_k=ms.Vec2(v[0], v[1]),
            disc_l=ms.Disc(ms.Vec2(float(xl[i]), float(yl[i])), 2.0),
            vel_l=ms.Vec2(v[2], v[3]),
            epoch=float(t[i]),
        )
        stream.append(ms.augmented_relation(state, tol))
    return stream


def expected_lines(stream: list, command: str) -> list[str]:
    """The CLI's expected output lines for `classify` or `recognize --relaxed`."""
    if command == "classify":
        return [str(a) for a in stream]
    matches = _program().detect_avoidance(stream, relaxed=True)
    return [json.dumps([{"start": m.start_index, "end": m.end_index} for m in matches])]


def compare_lines(got: str, expected: list[str]) -> int:
    """Number of expected lines the output gets wrong (missing, extra or
    different lines each count once)."""
    lines = got.splitlines()
    wrong = sum(1 for a, b in zip(lines, expected) if a != b)
    return wrong + abs(len(lines) - len(expected))


class Workload:
    """Inputs, the job spec and the correctness check for one workload."""

    def __init__(self, name: str, seed: int, tmp: Path) -> None:
        self.name = name
        self.tmp = tmp
        self.params = WORKLOADS[name]
        self.input = tmp / "input.json"
        if name.startswith("cli-"):
            self.files, self.expected, stories, digest = [], [], [], hashlib.sha256()
            for part in range(self.params["files"]):
                text = inputs.trajectory_csv(seed, self.params["records"], part)
                path = tmp / f"input-{part}.csv"
                path.write_text(text, encoding="utf-8")
                stream = cli_stream(text, self.params["window"])
                self.files.append(path)
                self.expected.append(expected_lines(stream, self.params["command"]))
                stories += [a.story.value for a in stream]
                digest.update(text.encode())
            self.items = self.params["files"] * self.params["records"]
            self.histogram = inputs.histogram(stories)
            self.input_digest = digest.hexdigest()
        elif name == "oracle-crosscheck":
            states = inputs.oracle_states(seed, self.params["states_per_config"])
            text = inputs.states_json(states)
            self.input.write_text(text, encoding="utf-8")
            self.items = len(states)
            self.expected = [s["story"] for s in states]
            self.configs = [s["config"] for s in states]
            self.histogram = inputs.histogram([f'{s["config"]}:{s["story"]}' for s in states])
            self.input_digest = hashlib.sha256(text.encode()).hexdigest()
        else:
            jobs = inputs.validator_jobs(seed, self.params["n_pairs"], self.params["n_trials"])
            text = json.dumps(jobs)
            self.input.write_text(text, encoding="utf-8")
            self.items = None  # known once the graphs are built
            self.histogram = {j["config"]: 1 / len(jobs) for j in jobs}
            self.input_digest = hashlib.sha256(text.encode()).hexdigest()

    def spec(self, job: int, trace: bool) -> dict:
        spec = {"workload": self.name, "root": str(ROOT), "input": str(self.input),
                "trace": trace}
        if self.name.startswith("cli-"):
            spec["units"] = [
                {"argv": self.params["argv"] + [str(path)],
                 "output": str(self.tmp / f"output-{job}-{part}.txt")}
                for part, path in enumerate(self.files)
            ]
        return spec

    def check(self, spec: dict, result: dict) -> tuple[int, int, int, list[str]]:
        """(items, attempted, failed, notes) for one finished job."""
        if self.name.startswith("cli-"):
            attempted = failed = 0
            notes = []
            for unit, code, err, expected in zip(spec["units"], result["exits"],
                                                 result["stderr"], self.expected):
                output = Path(unit["output"]).read_text(encoding="utf-8")
                Path(unit["output"]).unlink()
                attempted += len(expected)
                if code != 0:
                    failed += len(expected)
                    notes.append(f"exit {code}: {err[-300:]}")
                    continue
                wrong = compare_lines(output, expected)
                failed += wrong
                if wrong:
                    notes.append(f"{wrong} output lines differ in {Path(unit['argv'][-1]).name}")
            return self.items, attempted, failed, notes
        if self.name == "oracle-crosscheck":
            bad = set(result["mismatches"])
            bad |= {i for i, (a, b) in enumerate(zip(result["ids"], self.expected)) if a != b}
            notes = [f"{len(result['mismatches'])} oracle label mismatches, "
                     f"{len(bad) - len(result['mismatches'])} other story-id errors"] if bad else []
            return self.items, self.items, len(bad), notes
        checks = sum(leg["edges"] + leg["trials"] for leg in result["legs"])
        failed = sum(len(leg["unwitnessed"]) + len(leg["spurious"]) for leg in result["legs"])
        notes = [f"{leg['config']}: unwitnessed {leg['unwitnessed']} spurious {leg['spurious']}"
                 for leg in result["legs"] if not leg["ok"]]
        return checks, checks, failed, notes


# --------------------------------------------------------------------------
# Jobs
# --------------------------------------------------------------------------


def run_job(workload: Workload, job: int, trace: bool, env: dict) -> dict:
    spec = workload.spec(job, trace)
    spec_path = workload.tmp / f"spec-{job}.json"
    result_path = workload.tmp / f"result-{job}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(spec_path), str(result_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"benchmark child failed (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["elapsed_s"] = perf_counter() - t0
    items, attempted, failed, notes = workload.check(spec, result)
    result.update(items=items, attempted=attempted, failed=failed, notes=notes, traced=trace)
    return result


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics: medians over the traced jobs, per job."""
    out: dict[str, float] = {}
    walls = [r["wall_s"] for r in traced]
    items = median([r["items"] for r in traced])
    for span in SPANS:
        stats = [r["trace"]["spans"].get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                 for r in traced]
        calls = median([s["calls"] for s in stats])
        self_s = median([s["self_s"] for s in stats])
        out[f"{span}.calls"] = calls
        out[f"{span}.self_s"] = self_s
        out[f"{span}.total_s"] = median([s["total_s"] for s in stats])
        out[f"{span}.us_per_call"] = self_s / calls * 1e6 if calls else 0.0
        out[f"{span}.share"] = median([s["self_s"] / w for s, w in zip(stats, walls)])
        out[f"{span}.calls_per_item"] = calls / items if items else 0.0

    def count(key: str) -> float:
        return median([r["trace"]["counts"].get(key, 0) for r in traced])

    def edge_calls(caller: str, span: str) -> float:
        return median([
            sum(e["calls"] for e in r["trace"]["edges"]
                if e["caller"] == caller and e["span"] == span)
            for r in traced
        ])

    out["cli.estimate_velocity.points_fitted"] = count("cli.estimate_velocity.points_fitted")
    dedup_records = count("patterns.detect_avoidance.records")
    out["patterns.detect_avoidance.us_per_record"] = (
        out["patterns.detect_avoidance.self_s"] / dedup_records * 1e6 if dedup_records else 0.0
    )
    validator_calls = edge_calls("neighborhood.validate_motion_cng", "stories.augmented_relation")
    out["neighborhood.augmented_relation.calls_per_check"] = (
        validator_calls / items if validator_calls and items else 0.0
    )
    unattributed = [
        w - sum(s["self_s"] for s in r["trace"]["spans"].values())
        for r, w in zip(traced, walls)
    ]
    out["unattributed.self_s"] = median(unattributed)
    out["unattributed.share"] = median([u / w for u, w in zip(unattributed, walls)])
    # Job times at the reference host speed, so host drift between the
    # alternating jobs does not pass for tracing overhead.
    traced_wall = median([reference_seconds(r["unit_s"], r["probe_batches"]) for r in traced])
    untraced_wall = median([reference_seconds(r["unit_s"], r["probe_batches"]) for r in untraced])
    out["trace.traced_wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
    out["job.items"] = items
    return out


def calibrated_rate(result: dict) -> float:
    """Items per second at the reference host speed.

    The host's speed drifts by tens of percent over seconds to minutes, for
    the program and the probe alike; scaling each job by its own probes
    removes that drift from the comparison between runs.
    """
    return result["items"] / reference_seconds(result["unit_s"], result["probe_batches"])


def projections(name: str, workload: Workload, results: list[dict]) -> list[str]:
    """Report-only projections of acceptance-criterion headroom, from raw
    wall-clock medians."""
    if name == "oracle-crosscheck":
        n_lt = workload.configs.count("lt")
        lt_s = median([r["config_s"]["lt"] for r in results])
        return [f"projection (not gating): criterion 5 = 1000 / lt states_per_s "
                f"= {1000 * lt_s / n_lt:.2f} s of its 30 s budget"]
    if name == "validate-cng":
        lt_s = median([leg["wall_s"] for r in results for leg in r["legs"]
                       if leg["config"] == "lt"])
        return [f"projection (not gating): criterion 8 validator lt leg "
                f"(n_pairs=60, n_trials=80) = {lt_s:.2f} s of its 5 s budget"]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "motionstories" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'motionstories'}", file=sys.stderr)
        return 2
    t_run = perf_counter()
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return _run(args, tmp, t_run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args: argparse.Namespace, tmp: Path, t_run: float) -> int:
    env = child_env()
    trace = bool(args.trace)
    info = environment(args.seed)
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("# env " + json.dumps(info, sort_keys=True))

    setup_raw, setup = ([], []) if trace else measure_setup(env)
    workload = Workload(args.workload, args.seed, tmp)
    print(f"# input sha256 {workload.input_digest}")
    print("# story histogram " + json.dumps({k: round(v, 4) for k, v in workload.histogram.items()}))

    results: list[dict] = []
    t0 = perf_counter()
    job = 0
    while True:
        results.append(run_job(workload, job, trace and job % 2 == 1, env))
        job += 1
        elapsed = perf_counter() - t0
        longest = max(r["elapsed_s"] for r in results)
        if trace and not any(r["traced"] for r in results):
            continue
        if elapsed >= args.seconds or perf_counter() - t_run + longest > RUN_BUDGET_S:
            break

    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    item = WORKLOADS[args.workload]["item"]
    for i, r in enumerate(results):
        note = ("; " + "; ".join(r["notes"])) if r["notes"] else ""
        print(f"# job {i} {'traced' if r['traced'] else 'untraced'}: {r['items']} {item} "
              f"in {r['wall_s']:.4f} s = {r['items'] / r['wall_s']:.1f} {item}/s, "
              f"peak rss {r['rss_kb'] / 1024:.1f} MB, failed {r['failed']}/{r['attempted']}{note}")
    print(f"# failed_share {failed / attempted:.6g} ({failed} of {attempted})")

    if trace:
        metrics = per_layer(traced, untraced)
        units = _declared("per_layer")
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"env": info, "workload": args.workload,
             "jobs": [{"wall_s": r["wall_s"], "items": r["items"], **r["trace"]} for r in traced]},
            indent=1), encoding="utf-8")
        print(f"# spans written to {trace_file.relative_to(ROOT)}")
        ranked = sorted(SPANS, key=lambda s: -metrics[f"{s}.share"])
        wall = median([r["wall_s"] for r in traced])
        for span in ranked:
            if metrics[f"{span}.calls"]:
                print(f"# span {span}: {metrics[f'{span}.calls']:.0f} calls, "
                      f"self {metrics[f'{span}.self_s']:.4f} s "
                      f"({100 * metrics[f'{span}.share']:.1f}% of traced wall), "
                      f"inclusive {metrics[f'{span}.total_s']:.4f} s "
                      f"({100 * metrics[f'{span}.total_s'] / wall:.1f}%), "
                      f"{metrics[f'{span}.us_per_call']:.2f} us/call")
        print(f"# tracing overhead {metrics['trace.overhead_s']:.4f} s per job "
              f"({100 * metrics['trace.overhead_share']:.1f}%)")
    else:
        rates = [r["items"] / r["wall_s"] for r in untraced]
        calibrated = [calibrated_rate(r) for r in untraced]
        metrics = {
            "setup_s": median(setup),
            "items_per_s": median(calibrated),
            "peak_rss_mb": median([r["rss_kb"] / 1024 for r in untraced]),
        }
        units = _declared("end_to_end")
        print(f"# setup_s (import seconds at the reference host speed) median of "
              f"{len(setup)} fresh imports: {metrics['setup_s']:.4f} s "
              f"[min {min(setup):.4f}, max {max(setup):.4f}]")
        print(f"# import wall clock, median of {len(setup_raw)}: {median(setup_raw):.4f} s "
              f"[min {min(setup_raw):.4f}, max {max(setup_raw):.4f}]")
        print(f"# items_per_s ({item}_per_s at the reference host speed) median of "
              f"{len(calibrated)} jobs: {metrics['items_per_s']:.2f} "
              f"[min {min(calibrated):.2f}, max {max(calibrated):.2f}]")
        print(f"# {item}_per_s wall clock, median of {len(rates)} jobs: {median(rates):.2f} "
              f"[min {min(rates):.2f}, max {max(rates):.2f}]")
        for line in projections(args.workload, workload, untraced):
            print("# " + line)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not "
                           "both measured and declared in BENCHMARK.json")
    result_doc = {"env": info, "workload": args.workload, "trace": args.trace,
                  "setup_raw_s": setup_raw, "setup_s": setup,
                  "histogram": workload.histogram, "metrics": metrics,
                  "attempted": attempted, "failed": failed,
                  "jobs": [{k: r[k] for k in ("wall_s", "elapsed_s", "unit_s", "probe_batches",
                                              "items", "rss_kb", "failed", "traced")}
                           for r in results]}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result_doc, indent=1), encoding="utf-8")
    print(f"# run wall {perf_counter() - t_run:.1f} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
