"""Start ``repro serve`` in this process, optionally with spans installed.

Usage::

    python3 serve_launch.py OUT.json TRACE_DIR|- -- serve [serve args...]

Calls ``repro.cli.main`` with the arguments after ``--``. When it
returns (the server drained after SIGTERM), writes the exit code, this
process's peak RSS and, with a trace directory, its span tables.
"""

import json
import os
import sys

import common
import layers


def main(argv) -> int:
    out_path, trace_dir = argv[1], argv[2]
    cli_args = argv[argv.index("--") + 1:]
    common.require_program()
    tracer = layers.install(trace_dir) if trace_dir != "-" else None
    from repro.cli import main as cli_main

    code = cli_main(cli_args)
    if tracer is not None:
        tracer.dump()
    with open(out_path, "w") as handle:
        json.dump(
            {
                "pid": os.getpid(),
                "code": code,
                "peak_rss_mib": common.peak_rss_mib(),
                "children_peak_rss_mib": common.children_peak_rss_mib(),
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
