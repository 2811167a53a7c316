"""localfields benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload suites --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's items run back to back in
this process, on one thread, until the next pass would overrun --seconds
(at least one pass).  Outputs are checked by each item and by a digest
compared across passes and with the digest stored for the seed.

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced and
one traced pass and reports the per-layer metrics, writing the span tree to
perfbench/out/.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it repeat
every metric by name and unit and give the run's metadata.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import source

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
WORKLOAD_NAMES = ("suites", "charp", "mahler-deep")
SETUP_FIRST = 5
SETUP_AFTER_PASS = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few small items, for the self-test; no stored "
                         "digest applies")
    return ap.parse_args(argv)


def setup_seconds(workload: str, runs: int, reference: list) -> list:
    """Wall times of fresh processes that import the package, build the
    workload's lazy tables and stop where the first item would start; each
    probe is followed by reference samples, appended to `reference`."""
    out = []
    for _ in range(runs):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and adds up to 50 ms
        subprocess.run([sys.executable, str(HERE / "probe.py"), workload],
                       cwd=source.ROOT, check=True, stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - t0)
        reference += calibrate.sample_after(out[-1])
    return out


def stored_digest(workload: str, seed: int):
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(args, workload, items, run_pass):
    """Untraced passes until the next one would overrun the budget, with
    set-up probes before the first pass and after each pass, so that the
    probes sample the whole run rather than one moment of it.  Returns the
    passes, the probe times and the run's reference loop times."""
    first, after = (1, 1) if args.tiny else (SETUP_FIRST, SETUP_AFTER_PASS)
    reference = calibrate.sample()
    setups = setup_seconds(workload, first, reference)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(items, reference=calibrate.sample_after))
        reference += passes[-1].reference
        setups += setup_seconds(workload, after, reference)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.seconds for p in passes) \
                > args.seconds:
            return passes, setups, reference


def pass_seconds(passes) -> float:
    """Each item's median time over the passes, summed over the items: one
    pass at typical item speed."""
    return sum(statistics.median(p.item_seconds[name] for p in passes)
               for name in passes[0].item_seconds)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        source.require_package()
    except source.MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import metrics
    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workload.setup()
    items = workload.items(args.seed, args.tiny)
    meta = {"workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
            "python": sys.version.split()[0],
            "implementation": sys.implementation.name,
            "git_sha": source.git_sha(),
            "source_sha256": source.source_digest(),
            "nproc": os.cpu_count(), "items": len(items)}

    if args.trace:
        untraced = workloads.run_pass(items)
        tr = tracer.Tracer()
        tracer.install(tr)
        traced = workloads.run_pass(items, tr)
        passes = [untraced, traced]
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        tr.write(trace_file)
        meta["trace_file"] = str(trace_file.relative_to(source.ROOT))
    else:
        passes, setups, reference = measure(args, workload.name, items,
                                            workloads.run_pass)
        scale = calibrate.factor(reference)
        meta.update(setup_seconds=setups, scale=scale,
                    reference_samples=len(reference))

    attempted = len(items) * len(passes)
    failed = sum(len(p.failed) for p in passes)
    digests = {p.digest for p in passes}
    digest = passes[0].digest
    stored = None if args.tiny else stored_digest(workload.name, args.seed)
    # Items that fail their own check are counted in `failed`; `correct`
    # asks that the outputs repeat in every pass and equal the outputs
    # stored for the seed, failed items included, where a digest is stored.
    correct = len(digests) == 1 and stored in (None, digest)
    if not correct:
        print(f"perfbench: output digests {sorted(digests)} differ from "
              f"each other or from the stored {stored}", file=sys.stderr)
    meta.update(passes=len(passes),
                pass_seconds=[p.seconds for p in passes],
                digest=digest, stored_digest=stored,
                failed_items=sorted({n for p in passes for n in p.failed}))

    failed_share = failed / attempted
    if args.trace:
        values = metrics.layer_metrics(
            tr, untraced_wall=untraced.seconds, traced_wall=traced.seconds,
            suite_seconds=(untraced.item_seconds
                           if workload.name == "suites" else {}),
            failed_share=failed_share, source_lines=source.source_lines())
        spec = [(n, u) for n, u, _ in metrics.PER_LAYER]
    else:
        values = {"wall_s": scale * pass_seconds(passes),
                  "setup_s": scale * statistics.median(setups),
                  "peak_rss_mb": peak_rss_mb()}
        spec = [(n, u) for n, u, _, _ in metrics.END_TO_END]

    print("# meta " + json.dumps(meta, sort_keys=True))
    result = {n: {"value": values[n], "unit": u} for n, u in spec}
    for name, m in result.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    if not args.trace:
        print(f"# failed_share = {failed_share} ratio "
              f"({failed} of {attempted} items)")
        print(f"# unscaled wall_s = {pass_seconds(passes)} s, "
              f"unscaled setup_s = {statistics.median(setups)} s, "
              f"scale = {scale}")
    print(json.dumps({"correct": correct,
                      "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
