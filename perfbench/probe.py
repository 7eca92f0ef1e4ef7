"""One set-up sample in a fresh process: import blowlab.cli, then run one
warm-up pass of a workload at the reference seed.

    python3 perfbench/probe.py WORKLOAD OUT_DIR

Prints one JSON line: {"setup_s": seconds, "runs": [run records]}.
perfbench/run.py starts it to measure what every CLI call pays up front.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import harness


def main(argv) -> int:
    workload, out_root = harness.WORKLOADS[argv[0]], Path(argv[1])
    harness.cap_threads()
    t0 = time.perf_counter()
    cli = harness.import_blowlab()
    rec = harness.run_pass(cli, workload, out_root, harness.REFERENCE_SEED)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "runs": [r.to_dict() for r in rec.runs]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
