"""Regenerate `reference.json`, the digests of every exact pmf at the default seed.

    python3 benchmarks/make_reference.py

Runs the `exact` and `oracle` workloads at seed 0 for one round, refuses
to write anything if a correctness gate fails, and stores one digest per
op plus one digest per workload over all of them.  `run.py` fails a run
whose pmf differs from its committed digest, and a default-seed run whose
set of digests differs from the committed one.  Regenerate only when an
exact law is meant to change, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import common

SEED = 0
WORKLOADS = ("exact", "oracle")


def main() -> int:
    common.use_checkout_source()
    import run
    digests, combined = {}, {}
    for workload in WORKLOADS:
        res = run.run_workload(workload, SEED, common.ROUND_SECONDS, reference={"digests": {}})
        if not res["correct"]:
            for r in res["records"]:
                if r["status"] != "ok":
                    print(f"{r['id']}: {r['detail']}", file=sys.stderr)
            print(f"{workload}: gates failed, reference not written", file=sys.stderr)
            return 1
        digests.update(res["digests"])
        combined[workload] = common.ops_digest(res["digests"])
    with open(common.REFERENCE_FILE, "w") as fh:
        json.dump({"seed": SEED, "seconds": common.ROUND_SECONDS,
                   "command": "python3 benchmarks/make_reference.py",
                   "combined": combined, "digests": dict(sorted(digests.items()))},
                  fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {common.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
