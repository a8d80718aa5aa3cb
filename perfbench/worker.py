"""One benchmark process: set up a workload, then on request run the closed
loop and print its raw results as one JSON line.

Started by ``run.py`` with the thread variables pinned.  Protocol: after
set-up (imports, input generation, one untimed warm-up request) the worker
prints ``READY`` and reads commands, one a line.  ``go SECONDS`` runs the
loop for that long and then prints ``PAUSED``; ``end`` prints the results
of all segments and exits; anything else, or end of input, exits without
results.  Each request is one in-process ``vecfdp.cli.main(argv)`` call
with its output captured.  With ``--trace`` every request runs traced and
then untraced, and both runs are checked.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
import vecfdp.cli  # noqa: E402  (imports are part of the measured set-up)

from checks import check, compare_reference, norm_deviation  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

REFERENCE = HERE / "reference.json"


def call(argv: list[str]):
    """Run one CLI request in process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = vecfdp.cli.main(argv)
        except Exception as exc:  # a crash is a failed request, not a dead run
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--count-requests", type=int, default=0,
                        help="requests that the traced counters cover; the "
                             "traced loop runs at least this many")
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]()
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload.setup(args.workdir, args.seed)
    reference = load_reference(args.workload)
    warm_argv = workload.warmup()
    code, text = call(warm_argv)
    warm_problems = check(warm_argv, code, text)
    if not warm_problems:
        warm_problems = compare_reference(warm_argv, text, reference["warmup"])
    print("READY", flush=True)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    ref_requests = reference["requests"] if args.seed == DEFAULT_SEED else []
    stream = workload.requests(args.seed)
    latencies, plain_latencies, streams, failures, counts = [], [], [], [], None
    worst_norm = 0.0

    def run_checked(i: int, argv: list[str], run) -> float:
        nonlocal worst_norm
        t0 = time.perf_counter()
        code, text = run(argv)
        latency = time.perf_counter() - t0
        problems = check(argv, code, text)
        if not problems and i < len(ref_requests):
            problems = compare_reference(argv, text, ref_requests[i])
        if problems:
            failures.append({"request": i, "argv": argv, "problems": problems[:3]})
        else:
            worst_norm = max(worst_norm, norm_deviation(argv, text))
        return latency

    elapsed = 0.0
    for line in sys.stdin:
        command = line.split()
        if command == ["end"]:
            break
        if len(command) != 2 or command[0] != "go":
            return 0
        start = time.perf_counter()
        deadline = start + float(command[1])
        while time.perf_counter() < deadline or len(latencies) < args.count_requests:
            i = len(latencies)
            name, argv = next(stream)
            streams.append(name)
            if tracer:
                # traced, then untraced right after: the pair sees the same
                # machine state, which gives the tracing overhead
                tracer.request_id, tracer.stream = i, name
                latencies.append(run_checked(i, argv, lambda a: tracer.span("request", call, a)))
                tracer.disable()
                plain_latencies.append(run_checked(i, argv, call))
                tracer.enable()
                if i + 1 == args.count_requests:
                    counts = dict(tracer.counts)
            else:
                latencies.append(run_checked(i, argv, call))
        elapsed += time.perf_counter() - start
        print("PAUSED", flush=True)
    else:
        return 0

    result = {
        "latencies": latencies,
        "streams": streams,
        "elapsed_s": elapsed,
        "attempted": len(latencies) + len(plain_latencies),
        "failures": failures,
        "warmup_problems": warm_problems,
        "max_norm_deviation": worst_norm,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer:
        tracer.disable()
        result["plain_latencies"] = plain_latencies
        result["counts"] = counts
        result["self_ns"] = dict(tracer.self_ns)
        if args.spans_out:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(args.spans_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
