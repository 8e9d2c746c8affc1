"""Benchmark for bnsr: time to verdict per job on four seeded workloads.

    python3 bench/run.py --workload probe|fill|sphere|integral --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Every measured run is a fresh interpreter
(``worker.py``) running one client in a closed loop.  With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` a traced run gives the
per-layer metrics and an untraced run of the same jobs gives the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTDIR = ROOT / ".bench_out"
WORKLOADS = ("probe", "fill", "sphere", "integral")
# fresh interpreters that only set up, next to the measured run's own set-up
SETUP_SAMPLES = 7
# calibration passes before each worker starts, for its set-up time
SETUP_CALIB_PASSES = 5
# every worker must end before this many seconds after the start of run.py
DEADLINE_S = 170.0
_START = perf_counter()


class WorkerError(RuntimeError):
    pass


def start_worker(workload: str, seed: int, mode: str, extra=()) -> tuple[dict | None, float, float]:
    """Run worker.py; return its result (None in setup mode), the time from
    process start to its ``ready`` line, and that time at the reference
    host speed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--outdir", str(OUTDIR), *extra]
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 4294967296))
    speed = calibrate.scale(calibrate.sample(SETUP_CALIB_PASSES))
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env)
    try:
        first = proc.stdout.readline()
        setup = perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (perf_counter() - _START)))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker {mode} {workload} exited with {proc.returncode}")
    if mode == "setup":
        return None, setup, setup * speed
    lines = [ln for ln in rest.splitlines() if ln.strip()]
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1]), setup, setup * speed


def tail(walls):
    """Wall time at the highest percentile with at least ten jobs beyond it,
    with that percentile (nearest rank)."""
    s = sorted(walls)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    rank = n - 10  # 1-based rank; ten jobs lie above it
    return s[rank - 1], 100.0 * rank / n


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def summary_lines(workload: str, seed: int, res: dict) -> list[str]:
    jobs = res["jobs"]
    out = [f"# workload {workload} seed {seed}: {len(jobs)} jobs, "
           f"python {platform.python_version()}, nproc {os.cpu_count()}, git {git_sha()}"]
    kinds: dict = {}
    for j in jobs:
        kinds.setdefault(j["kind"], []).append(j)
    for name, js in kinds.items():
        walls = [j["wall"] for j in js]
        bad = sum(not j["ok"] for j in js)
        out.append(f"#   {name:15s} n={len(js):4d} median={statistics.median(walls):.4f}s "
                   f"max={max(walls):.4f}s failed={bad} size={json.dumps(res['sizes'].get(name))}")
    for j in jobs:
        if not j["ok"]:
            out.append(f"#   FAILED {j['kind']}: {j['why']}")
    out.append(f"# verdict digest {res['digest']} (first {res['digest_jobs']} jobs)")
    return out


def measure(workload: str, seed: int, seconds: int):
    samples = [start_worker(workload, seed, "setup")[1:] for _ in range(SETUP_SAMPLES - 1)]
    res, *last = start_worker(workload, seed, "run", ["--seconds", str(seconds)])
    raw_setups, setups = zip(*samples, last)
    jobs = res["jobs"]
    walls = [j["scaled"] for j in jobs]
    raw_walls = [j["wall"] for j in jobs]
    failed = sum(not j["ok"] for j in jobs)
    tail_s, pct = tail(walls)
    lines = summary_lines(workload, seed, res)
    lines.append(f"# job_tail_s is the p{pct:.2f} wall time over {len(jobs)} jobs; "
                 f"fail_ratio {failed / len(jobs):.4f}")
    lines.append(f"# unscaled: set-up {statistics.median(raw_setups):.4f} s, "
                 f"job p50 {statistics.median(raw_walls):.4f} s, tail {tail(raw_walls)[0]:.4f} s, "
                 f"{len(jobs) / res['timed_wall']:.4f} jobs/s; calibration pass "
                 f"{res['calib_median_s'] * 1000:.2f} ms (reference {calibrate.REF_PASS_S * 1000:.2f} ms)")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_tail_s": (tail_s, "s"),
        "jobs_per_s": (len(jobs) / sum(walls), "1/s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
        "pass_ratio": ((len(jobs) - failed) / len(jobs), "ratio"),
    }
    return lines, len(jobs), failed, metrics


def measure_traced(workload: str, seed: int, seconds: int):
    half = max(seconds / 2.0, 1.0)
    traced = start_worker(workload, seed, "run", ["--seconds", str(half), "--trace"])[0]
    n = len(traced["jobs"])
    plain = start_worker(workload, seed, "run", ["--jobs", str(n)])[0]
    t_wall = sum(j["scaled"] for j in traced["jobs"])
    p_wall = sum(j["scaled"] for j in plain["jobs"])
    failed = sum(not j["ok"] for j in traced["jobs"]) + sum(not j["ok"] for j in plain["jobs"])
    lines = summary_lines(workload, seed, traced)
    tr = traced["trace"]
    lines.append(f"# traced {n} jobs; per-layer figures are per job; "
                 f"{tr['spans']} spans kept, {tr['spans_dropped']} dropped")
    if plain["digest"] != traced["digest"]:
        lines.append(f"# traced and untraced digests differ: {traced['digest']} vs {plain['digest']}")
        failed += 1
    if tr["absent"]:
        lines.append(f"# absent (not wrapped, counted as 0): {', '.join(tr['absent'])}")
    metrics = {name: tuple(v) for name, v in tr["per_layer"].items()}
    metrics["trace.overhead_ratio"] = (t_wall / p_wall if p_wall else 0.0, "ratio")
    return lines, 2 * n, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bnsr" / "__init__.py").is_file():
        print(f"error: no bnsr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUTDIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            lines, attempted, failed, metrics = measure_traced(args.workload, args.seed, args.seconds)
        else:
            lines, attempted, failed, metrics = measure(args.workload, args.seed, args.seconds)
    except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
