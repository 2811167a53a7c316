"""Store the output digest of one untraced pass per seed in digests.json.

    python3 perfbench/record_digests.py --workload charp --seeds 0-63

Run it only when a change is meant to alter outputs; run.py fails a run
whose digest differs from the one stored for its seed.  Items that fail are
recorded as failed, not skipped, and listed on standard error.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import sys

import source
from run import DIGESTS, WORKLOAD_NAMES


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def store(workload: str, seed: int, digest: str):
    """Read, update and rewrite digests.json under an exclusive lock, so
    that recorders of different workloads may run at once."""
    with open(DIGESTS, "r+") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        stored = json.load(fh)
        stored.setdefault(workload, {})[str(seed)] = digest
        fh.seek(0)
        fh.truncate()
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seeds", type=seed_range, required=True,
                    help="inclusive range such as 0-63")
    args = ap.parse_args(argv)
    source.require_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workload.setup()
    for seed in args.seeds:
        result = workloads.run_pass(workload.items(seed, False))
        if result.failed:
            print(f"seed {seed}: failed items {result.failed}",
                  file=sys.stderr)
        print(f"{workload.name} seed {seed} {result.digest} "
              f"{result.seconds:.2f}s", flush=True)
        store(workload.name, seed, result.digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
