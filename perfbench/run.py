"""vecfdp benchmark: one seeded workload, one closed-loop client.

    python3 perfbench/run.py --workload fitted --seed 0 --seconds 45 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run reports the end-to-end metrics: one worker process
runs the closed loop for ``--seconds`` in ``SETUP_SAMPLES - 1`` equal
segments, and after each segment, while it waits, a second worker is
started and stopped again.  The set-up time is the median over the
measuring worker and these starts, so the samples are spread over the whole
run.  With ``--trace 1`` one worker runs each request traced and then
untraced for ``--seconds`` and the run reports the per-layer metrics and
the tracing overhead.

The last line of standard output is the result JSON; the line before it is
the environment record.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import per_layer as layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: worker starts timed per untraced run, one before each loop segment and
#: one after the last
SETUP_SAMPLES = 5
#: a worker gets this long beyond its measuring time before it is killed
WORKER_GRACE_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def read_line(proc, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    return proc.stdout.readline().strip() if ready else ""


def send(proc, command: str) -> None:
    proc.stdin.write(command + "\n")
    proc.stdin.flush()


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def start_worker(args, workdir: Path, *, trace: bool = False):
    """Start one worker and wait until it is ready; returns (process,
    set-up seconds).

    Set-up is timed from just before the process starts until it reports
    ready, so it covers interpreter start, imports, input generation and
    the warm-up request.
    """
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir)]
    if trace:
        # the counters cover one whole cycle of the workload's commands
        cmd += ["--trace", "--count-requests", str(WORKLOADS[args.workload].cycle),
                "--spans-out",
                str(HERE / "_traces" / f"spans_{args.workload}_seed{args.seed}.csv")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    line = read_line(proc, WORKER_GRACE_S)
    setup_s = time.perf_counter() - t0
    if line != "READY":
        stop(proc)
        raise WorkerError(f"worker did not finish set-up (exit {proc.returncode})")
    return proc, setup_s


def run_segment(proc, seconds: float) -> None:
    send(proc, f"go {seconds!r}")
    if read_line(proc, seconds + WORKER_GRACE_S) != "PAUSED":
        raise WorkerError(f"worker stopped in the loop (exit {proc.poll()})")


def finish(proc) -> dict:
    send(proc, "end")
    out, _ = proc.communicate(timeout=WORKER_GRACE_S)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure(args) -> tuple[dict, list[float]]:
    """The untraced run: raw loop results and the set-up samples."""
    worker, setup_s = start_worker(args, args.workdir / "measured")
    setups = [setup_s]
    try:
        segment = args.seconds / (SETUP_SAMPLES - 1)
        for i in range(1, SETUP_SAMPLES):
            run_segment(worker, segment)
            # the measuring worker waits while another one sets up, so the
            # set-up samples spread over the run and see its host speed
            other, setup_s = start_worker(args, args.workdir / f"setup{i}")
            try:
                send(other, "stop")
                other.communicate(timeout=WORKER_GRACE_S)
            finally:
                stop(other)
            setups.append(setup_s)
        return finish(worker), setups
    finally:
        stop(worker)


def measure_traced(args) -> dict:
    worker, _ = start_worker(args, args.workdir / "traced", trace=True)
    try:
        run_segment(worker, args.seconds)
        return finish(worker)
    finally:
        stop(worker)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 requests beyond it (50
    when the run has fewer than 20 requests)."""
    if n < 20:
        return 50
    return math.floor(100 * (n - 10) / n)


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(raw: dict, setups: list[float]) -> tuple[dict, dict]:
    lat = sorted(raw["latencies"])
    pct = tail_percentile(len(lat))
    metrics = {
        "ops_per_s": (len(lat) / raw["elapsed_s"], "req/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (nearest_rank(lat, pct), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    info = {"requests": len(lat), "tail_percentile": pct, "setup_samples_s": setups}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info


def per_layer(raw: dict, count_requests: int) -> tuple[dict, dict]:
    traced, plain = raw["latencies"], raw["plain_latencies"]
    overhead = 1.0 - sum(plain) / sum(traced)
    metrics = layer_metrics(raw["counts"], raw["self_ns"], len(traced))
    metrics["trace.overhead"] = {"value": overhead, "unit": "fraction"}
    info = {"requests": len(traced), "count_requests": count_requests,
            "tracing_overhead": overhead,
            "layer_time_share": layer_shares(raw["streams"], traced, raw["self_ns"])}
    return metrics, info


def layer_shares(streams: list[str], traced: list[float], self_ns: dict) -> dict:
    """Self time of each span name as a share of its stream's traced request
    time: how much of the stream a faster layer can save."""
    totals = {name: 1e9 * sum(t for s, t in zip(streams, traced) if s == name)
              for name in set(streams)}
    shares = {name: {} for name in sorted(totals)}
    for key, ns in sorted(self_ns.items()):
        stream, span = key.split(":", 1)
        shares[stream][span] = ns / totals[stream]
    return shares


def stream_shares(streams: list[str], latencies: list[float]) -> dict:
    """Requests and share of summed request time of each request stream."""
    total = sum(latencies)
    shares = {}
    for name in sorted(set(streams)):
        own = [t for s, t in zip(streams, latencies) if s == name]
        shares[name] = {"requests": len(own), "time_share": sum(own) / total}
    return shares


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def environment(versions: dict) -> dict:
    return {"git_sha": git_sha(), "src_sha256": source_digest(),
            "python": platform.python_version(), **versions,
            "nproc": len(os.sched_getaffinity(0)), "threads": {v: "1" for v in THREAD_VARS}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "vecfdp" / "cli.py").is_file():
        print("run.py: src/vecfdp not found; run from a vecfdp checkout",
              file=sys.stderr)
        return 2
    args.workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            raw = measure_traced(args)
            metrics, info = per_layer(raw, WORKLOADS[args.workload].cycle)
        else:
            raw, setups = measure(args)
            metrics, info = end_to_end(raw, setups)
    except (WorkerError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    failures, warm_problems = raw["failures"], raw["warmup_problems"]
    for failure in failures[:5]:
        print(f"failed request: {json.dumps(failure)}", file=sys.stderr)
    for problem in warm_problems[:5]:
        print(f"warm-up request failed: {problem}", file=sys.stderr)
    info.update({"error_rate": len(failures) / raw["attempted"],
                 "streams": stream_shares(raw["streams"], raw["latencies"]),
                 "max_norm_deviation": raw["max_norm_deviation"],
                 "workload": args.workload, "seed": args.seed,
                 "trace": args.trace, "seconds": args.seconds,
                 "environment": environment(raw["versions"])})
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not failures and not warm_problems,
                      "attempted": raw["attempted"], "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
