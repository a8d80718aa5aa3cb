"""Record ``reference.json``: key outputs of each workload's warm-up request
and of the first requests of its default-seed stream.

    python3 perfbench/record_reference.py

Run only on a build whose outputs are trusted; the benchmark then fails any
request of the default seed whose outputs drift beyond the test suite's
tolerances (see checks.py).
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import islice
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from checks import check, key_outputs, portable_argv  # noqa: E402
from worker import REFERENCE, call  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

REFERENCE_REQUESTS = 12


def record(workload, workdir: Path) -> dict:
    workload.setup(workdir, DEFAULT_SEED)

    def entry(argv):
        code, text = call(argv)
        problems = check(argv, code, text)
        if problems:
            raise SystemExit(f"{workload.name}: {argv}: {problems}")
        return {"argv": portable_argv(argv), "outputs": key_outputs(argv, text)}

    stream = workload.requests(DEFAULT_SEED)
    return {"warmup": entry(workload.warmup()),
            "requests": [entry(argv) for _, argv in islice(stream, REFERENCE_REQUESTS)]}


def main() -> None:
    reference = {}
    for name, cls in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=REFERENCE.parent) as tmp:
            reference[name] = record(cls(), Path(tmp))
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


if __name__ == "__main__":
    main()
