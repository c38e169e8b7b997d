"""The repository's benchmark: two workloads, six end-to-end metrics and
a traced per-layer waterfall.

    python3 perfbench/run.py --workload replay-ha --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Every decision the program makes in a run is compared
with batch ``simulate()`` on the same items; a mismatch is a failed
operation and makes the run exit 1.  See ``perfbench/README.md`` for the
design, the prediction table and the steadiness runs.
"""

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("replay-ha", "serve-ff-open")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import e2e  # imports the package under test; counted in setup_s

    import_s = time.perf_counter() - t0
    tmp = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        result = e2e.WORKLOADS[args.workload](args, tmp, import_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
