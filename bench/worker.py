"""One fresh interpreter running one workload: set-up, the closed loop of
jobs, then the checks.  Started by ``run.py``; see README.md.

Protocol on standard output: a line ``ready`` once set-up is done (just
before the first job), then, in ``run`` mode, one JSON line with the job
records, the timed-phase wall time, peak memory and, when traced, the
per-layer figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402  (imports bnsr: set-up starts here)

# jobs of the first DIGEST_ROUNDS rounds make the verdict digest; every run
# completes them
DIGEST_ROUNDS = 2
# cost of one round at the reference host speed (see calibrate.py), measured
# when the benchmark was defined; it only sizes a run: ``--seconds S`` runs
# round(S / ROUND_REF_S) whole rounds, so every run of a workload holds the
# same jobs whatever the host's speed at the time
ROUND_REF_S = {"probe": 2.9, "fill": 1.85, "sphere": 0.74, "integral": 1.28}
# on a host far slower than the reference, a run also ends at the first round
# boundary after WALL_CAP times ``--seconds`` of wall time
WALL_CAP = 1.4
# a job's host speed is the median of the calibration passes from just
# before the job CALIB_REACH places earlier to just after the one
# CALIB_REACH places later
CALIB_REACH = 2


def parse_args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--jobs", type=int, default=0, help="run exactly this many jobs instead of timing")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--outdir", required=True)
    return ap.parse_args(argv)


def job_count(workload: str, kinds: int, args) -> int:
    """Jobs in a run: ``--jobs``, or the whole rounds that ``--seconds``
    holds at the reference speed (at least DIGEST_ROUNDS)."""
    if args.jobs:
        return args.jobs
    return kinds * max(DIGEST_ROUNDS, round(args.seconds / ROUND_REF_S[workload]))


def run_loop(ctx, job_of, n_jobs: int, kinds: int, wall_cap: float, tr):
    """Closed loop, one client: each job starts when the previous returns.

    Runs ``n_jobs`` jobs, or fewer whole rounds (at least DIGEST_ROUNDS)
    once ``wall_cap`` seconds have passed.  One calibration pass runs,
    untimed, after every job; ``calib[i]`` is the pass just before job ``i``.
    """
    records = []
    calib = [statistics.median(calibrate.sample(3))]
    start = perf_counter()
    for i in range(n_jobs):
        job = job_of(i)
        if tr is not None:
            tr.job_id = i
        t0 = perf_counter()
        try:
            verdict, evidence = job.kind.run(ctx, job.params)
            error = None
        except Exception as exc:  # a failing job is recorded and the run goes on
            verdict, evidence, error = None, None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        records.append((job, t1 - t0, verdict, evidence, error))
        calib.extend(calibrate.sample())
        done = i + 1
        if done % kinds == 0 and done >= DIGEST_ROUNDS * kinds and t1 - start >= wall_cap:
            break
    return records, calib, perf_counter() - start


def scaled_walls(records, calib) -> list[float]:
    """Each job's wall time at the reference host speed (see calibrate.py),
    from the calibration passes on both sides of it."""
    out = []
    for i, (_, wall, *_rest) in enumerate(records):
        near = calib[max(0, i - CALIB_REACH): i + CALIB_REACH + 2]
        out.append(wall * calibrate.scale(near))
    return out


def check(ctx, records):
    out = []
    for job, wall, verdict, evidence, error in records:
        reason = error
        if reason is None:
            try:
                reason = job.kind.check(ctx, job.params, verdict, evidence)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        out.append(reason)
    return out


def size_of(ctx, job) -> dict:
    try:
        return job.kind.size(ctx, job.params)
    except Exception as exc:  # the manifest must not end the run
        return {"error": f"{type(exc).__name__}: {exc}"}


def digest(records, kinds: int) -> str:
    h = hashlib.sha256()
    for job, _, verdict, _, error in records[: DIGEST_ROUNDS * kinds]:
        h.update(json.dumps([job.index, job.kind.name, verdict, error is not None], sort_keys=True).encode())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    args = parse_args(argv)
    os.makedirs(args.outdir, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="jobs-", dir=args.outdir)
    try:
        ctx = workloads.Context(args.workload, tmpdir)
        job_of = workloads.job_source(args.workload, args.seed, ctx)
        kinds = len(workloads.WORKLOADS[args.workload])
        print("ready", flush=True)
        if args.mode == "setup":
            return 0

        tr = None
        if args.trace:
            tr = tracing.Tracer()
            tr.install()
        try:
            wall_cap = float("inf") if args.jobs else WALL_CAP * args.seconds
            n_jobs = job_count(args.workload, kinds, args)
            records, calib, timed_wall = run_loop(ctx, job_of, n_jobs, kinds, wall_cap, tr)
        finally:
            if tr is not None:
                tr.uninstall()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reasons = check(ctx, records)
        jobs = [
            {"kind": job.kind.name, "wall": wall, "scaled": scaled, "ok": reason is None, "why": reason}
            for (job, wall, *_), scaled, reason in zip(records, scaled_walls(records, calib), reasons)
        ]
        manifest = {
            "workload": args.workload,
            "seed": args.seed,
            "jobs": [
                {"index": job.index, "kind": job.kind.name, "wall": wall, "params": job.params,
                 "size": size_of(ctx, job)}
                for job, wall, *_ in records
            ],
        }
        tag = f"{args.workload}-{args.seed}{'-trace' if args.trace else ''}"
        with open(os.path.join(args.outdir, f"manifest-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, default=str)
        result = {
            "jobs": jobs,
            "timed_wall": timed_wall,
            "calib_median_s": statistics.median(calib),
            "peak_rss_kb": peak_kb,
            "digest": digest(records, kinds),
            "digest_jobs": min(len(records), DIGEST_ROUNDS * kinds),
            "sizes": {j["kind"]: j["size"] for j in reversed(manifest["jobs"])},
        }
        if tr is not None:
            tr.write_spans(os.path.join(args.outdir, f"spans-{tag}.jsonl"))
            result["trace"] = {
                "per_layer": tr.per_layer(len(records)),
                "absent": tr.absent,
                "spans": len(tr.spans),
                "spans_dropped": tr.dropped,
            }
        print(json.dumps(result, default=str), flush=True)
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
