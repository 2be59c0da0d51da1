"""mcjacobi benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload orth-r3 --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

``--trace 0`` starts a worker process that runs the workload's jobs in a
closed loop with one client for ``--seconds``, and reports the end-to-end
metrics; set-up is sampled before the first job and eight times during
the run, and every time is scaled to a nominal machine speed (see ``worker.py``).
``--trace 1`` runs the jobs untraced for half the time and traced, in a fresh
worker, for the other half, and reports the per-layer metrics.  Every job's
output is checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
prefixed with ``record:``, holds the generated inputs, digests and
environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("orth-r3", "exact-build", "selftest")
RUN_LIMIT_S = 170.0  # every worker is killed after this; a run must end within 180 s


class WorkerError(RuntimeError):
    pass


def spawn_worker(workload: str, seed: int, seconds: float, mode: str, kill_at: float) -> dict:
    """Start one worker and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), mode]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True)
    # the worker and the processes it starts share one process group
    timer = threading.Timer(
        max(0.0, kill_at - time.perf_counter()), os.killpg, (proc.pid, signal.SIGKILL)
    )
    timer.start()
    try:
        first = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if first.strip() != "ready" or code != 0:
        raise WorkerError(f"worker {mode} {workload} exited with code {code}")
    return json.loads(rest.strip().splitlines()[-1])


def percentile(values: list, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten jobs beyond it, never below p75."""
    return max(75.0, 100.0 * (1.0 - 10.0 / n))


def run_digest(jobs: list) -> str:
    return hashlib.sha256("".join(j.get("sha256", "-") for j in jobs).encode()).hexdigest()


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> tuple:
    """Returns (summary JSON object, record) for one workload."""
    start = time.perf_counter()
    kill_at = start + RUN_LIMIT_S
    record = {
        "workload": workload,
        "seed": seed if workload != "selftest" else "does not apply (pinned by acceptance.SEED)",
        "seconds": seconds,
        "trace": trace,
        "client": "closed loop, one client",
        "environment": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "git_commit": git_commit(),
            "loadavg_start": os.getloadavg(),
        },
    }
    if trace == 0:
        phases = {"plain": spawn_worker(workload, seed, seconds, "plain", kill_at)}
    else:
        phases = {
            "plain": spawn_worker(workload, seed, seconds / 2, "plain", kill_at),
            "traced": spawn_worker(workload, seed, seconds / 2, "traced", kill_at),
        }
    record["environment"].update(phases["plain"].pop("environment"))
    record["environment"]["loadavg_end"] = os.getloadavg()

    all_jobs = [j for res in phases.values() for j in res["jobs"]]
    attempted = len(all_jobs)
    failed = sum(not j["ok"] for j in all_jobs)
    correct = failed == 0
    for name, res in phases.items():
        record[name] = {
            "jobs": res["jobs"],
            "digest": run_digest(res["jobs"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "restored": res["restored"],
        }
    times = {name: [j["scaled_s"] for j in res["jobs"]] for name, res in phases.items()}
    plain_times = times["plain"]
    if trace == 0:
        setups = phases["plain"]["setup_s_samples"]
        q = tail_percentile(len(plain_times))
        tail = percentile(plain_times, q)
        values = {
            "job_s_p50": percentile(plain_times, 50),
            "job_s_tail": tail,
            "setup_s": statistics.median(s["scaled_s"] for s in setups),
            "peak_rss_mb": phases["plain"]["peak_rss_mb"],
        }
        record["tail"] = {
            "percentile": q,
            "jobs": len(plain_times),
            "jobs_beyond": sum(t > tail for t in plain_times),
        }
        record["setup_s_samples"] = setups
        record["wall_job_s_p50"] = percentile([j["s"] for j in phases["plain"]["jobs"]], 50)
        record["fail_share"] = failed / max(1, attempted)
        metric_specs = spec["end_to_end"]
    else:
        # a traced job must serialize to the same bytes as the untraced job
        # given the same input, and every patched name must be restored
        pairs = zip(phases["plain"]["jobs"], phases["traced"]["jobs"])
        same = all(a.get("sha256") == b.get("sha256") for a, b in pairs)
        restored = phases["traced"]["restored"]
        record["traced_digests_match"] = same
        correct = correct and same and restored
        values = dict(phases["traced"]["layers"])
        values["trace.overhead_share"] = (
            percentile(times["traced"], 50) / percentile(plain_times, 50) - 1.0
        )
        values["run.cpu_s_per_job"] = sum(j["cpu_s"] for j in phases["plain"]["jobs"]) / len(
            plain_times
        )
        record["layers"] = values
        metric_specs = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    record["wall_s"] = time.perf_counter() - start
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return summary, record


def print_summary(workload: str, summary: dict, record: dict) -> None:
    print(
        f"== {workload}: {summary['attempted']} jobs, {summary['failed']} failed, "
        f"fail_share {summary['failed'] / summary['attempted']:g} ratio, "
        f"correct {summary['correct']}"
    )
    if "tail" in record:
        t = record["tail"]
        print(f"   job_s_tail is p{t['percentile']:g}: {t['jobs_beyond']} of {t['jobs']} jobs beyond it")
        print(f"   unscaled wall job_s_p50 {record['wall_job_s_p50']:.6g} s")
    for name, m in summary["metrics"].items():
        print(f"   {name:44s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    # turn SIGTERM into SystemExit so that spawn_worker's cleanup kills the workers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "mcjacobi" / "__init__.py").is_file():
        print(f"no mcjacobi package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            summary, record = run_workload(workload, args.seed, args.seconds, args.trace, spec)
            print_summary(workload, summary, record)
            results.append((workload, summary, record))
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        _, final, record = results[0]
    else:
        record = {w: rec for w, _, rec in results}
        final = {
            "correct": all(s["correct"] for _, s, _ in results),
            "attempted": sum(s["attempted"] for _, s, _ in results),
            "failed": sum(s["failed"] for _, s, _ in results),
            "metrics": {f"{w}.{k}": v for w, s, _ in results for k, v in s["metrics"].items()},
        }
    print("record: " + json.dumps(record))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
