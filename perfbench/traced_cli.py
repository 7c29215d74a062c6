"""Run the spraylab CLI once with layer tracing on, then write the trace.

    python3 perfbench/traced_cli.py TRACE_OUT RUN_ID CLI_ARG...

The exit code is the CLI's.  Spans and counters are kept in memory and
written to TRACE_OUT once, after the wrappers have been removed.
"""

import sys

from tracer import Tracer, install


def main(argv) -> int:
    out, run_id, cli_args = argv[0], argv[1], argv[2:]
    from spraylab import cli
    tr = Tracer(run_id)
    install(tr)
    try:
        return cli.main(cli_args)
    finally:
        tr.restore()
        tr.write(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
