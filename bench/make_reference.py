"""Regenerate ``bench/reference.json``: the digest of every op's report.

    python3 bench/make_reference.py

Run it once on the commit whose reports are the reference, from the root
of a checkout.  Every workload is run for one pass with several seeds,
and the script refuses to write unless the normalised digests agree
across seeds, which is what lets one reference serve every seed.  The
engine cache goes to a temporary directory that is removed afterwards.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = (0, 1, 2)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
    os.environ["VERTEXBOUND_CACHE"] = str(workdir / "cache")
    import workloads

    try:
        digests = {}
        for workload in workloads.WORKLOADS:
            seen = []
            for seed in SEEDS if workload in ("order", "reduce") else SEEDS[:1]:
                inputs = workloads.prepare(workload, seed, workdir)
                run = workloads.Pass(reference={})
                workloads.RUNNERS[workload](inputs, run)
                raised = [r for r in run.results if r[2] is None]
                if raised:
                    print(f"{workload} seed {seed}: {raised}", file=sys.stderr)
                    return 1
                seen.append(run.observed)
            if any(observed != seen[0] for observed in seen):
                print(f"{workload}: normalised digests depend on the seed", file=sys.stderr)
                return 1
            digests[workload] = dict(sorted(seen[0].items()))
            print(f"{workload}: {len(seen[0])} op digests")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = {"about": "SHA-256 of each op's report on the seed commit; see make_reference.py",
           "digests": digests}
    (BENCH / "reference.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
