"""Record the golden exit code and stdout digest of every benchmark operation.

Run from the repository root:

    python3 bench/golden.py

It runs each operation any workload can draw once, through the CLI, and
rewrites bench/golden.json.  Re-record only when a change to the program
is meant to change its output; a speed-up must leave every digest as it is.
"""
from __future__ import annotations

import json
import sys

from workloads import GOLDEN_PATH, all_ops, op_key, run_cli


def main() -> int:
    golden = {}
    for argv in all_ops():
        res = run_cli(argv, timeout=600)
        why = res.failure(None)
        if why is not None:
            print(f"operation {why}, not recorded: {op_key(argv)}\n"
                  f"{res.stderr.decode(errors='replace')}", file=sys.stderr)
            return 1
        golden[op_key(argv)] = {"exit": res.code, "sha256": res.digest}
        print(f"{res.wall_s:7.2f}s exit {res.code}  {op_key(argv)}",
              file=sys.stderr, flush=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
