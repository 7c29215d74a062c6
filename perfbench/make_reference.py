"""Record the reference outcomes that check.py compares every run with.

    python3 perfbench/make_reference.py [SEEDS]

Runs each invocation of every workload through the CLI at seeds
0..SEEDS-1 (default 8), requires the seed-independent outcome (exit code,
classification flags, row statuses or quantity names) to be the same at every
seed, and writes reference/<workload>.json.  For evaluate it also records the
largest deviation from the sphere closed form seen at those seeds.  Run it
only on a commit whose outputs are trusted.
"""

import json
import shutil
import sys

import check
from run import WORK_ROOT, run_child
from workloads import WORKLOADS

EVALUATE_TOLERANCE = 1e-9


def reference_for(inv, seeds, work):
    seen, worst = None, {}
    for seed in seeds:
        report = work / "ref.report.json"
        child = run_child(["-m", "spraylab.cli", *inv.argv(seed, str(report))],
                          work, "ref")
        doc = json.loads(report.read_text())
        got = {"exit_code": child.rc, **check.outcome(doc)}
        if seen is not None and got != seen:
            raise SystemExit(f"{inv.spray}: outcome at seed {seed} "
                             "differs from seed 0")
        seen = got
        if inv.command == "evaluate":
            for k, d in check.oracle_deviations(doc, inv).items():
                worst[k] = max(worst.get(k, 0.0), d)
    ref = {"spray": inv.spray, "seeds_checked": len(seeds), **seen}
    if inv.command == "evaluate":
        ref["tolerance"] = EVALUATE_TOLERANCE
        ref["seed_commit_max_deviation"] = worst
        if max(worst.values()) > EVALUATE_TOLERANCE:
            raise SystemExit(f"closed-form deviation {worst} exceeds the "
                             "tolerance")
    return ref


def main(argv) -> int:
    seeds = range(int(argv[0]) if argv else 8)
    work = WORK_ROOT / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for wl in WORKLOADS.values():
            doc = {"workload": wl.name,
                   "runs": [reference_for(inv, seeds, work)
                            for inv in wl.invocations]}
            path = check.REFERENCE_DIR / f"{wl.name}.json"
            path.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"wrote {path.name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
