"""Run one benchmark step in a fresh interpreter.

Usage: ``python3 child.py MODULE:FUNCTION ARGS.json``. ``FUNCTION``
takes the decoded arguments and returns a JSON-able dict, written to
the ``out`` path the arguments name. The steps live in the workload
modules next to this file.
"""

import importlib
import json
import sys


def main(argv) -> int:
    target, args_path = argv[1], argv[2]
    with open(args_path) as handle:
        args = json.load(handle)
    module_name, function = target.split(":")
    result = getattr(importlib.import_module(module_name), function)(args)
    with open(args["out"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
