"""Time `import spraylab` plus the set-up calls the CLI makes before its
first frame, in this fresh process, for every invocation of one workload.

    python3 perfbench/setup_child.py WORKLOAD SEED

Prints {"setup_s": seconds} as JSON.  The calls are the CLI's own: argument
parsing, `cli._resolve_spray` (`make_family` with its homogeneity check, and
`RandersData(...).metric()` for a randers spec), `cli._volumes`
(`VolumeForm` with `check_positive` per sigma) and `sample_points`, with the
sigma defaults of `cmd_verify` and `cmd_evaluate`.
"""

import json
import os
import sys
from time import perf_counter

from workloads import WORKLOADS


def main(argv) -> int:
    wl, seed = WORKLOADS[argv[0]], int(argv[1])
    t0 = perf_counter()
    from spraylab import cli, spray_core
    for inv in wl.invocations:
        args = cli.build_parser().parse_args(inv.argv(seed, os.devnull))
        spray, file_sigma, _metric = cli._resolve_spray(args)
        default = cli.DEFAULT_SIGMAS if args.command == "verify" else ["1"]
        cli._volumes(args.sigma or file_sigma or default, spray)
        spray_core.sample_points(spray, args.points, args.seed)
    print(json.dumps({"setup_s": perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
