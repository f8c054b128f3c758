"""Replay the benchmark's workload argvs and fingerprint what they print.

For each workload in ``bench/workloads.py`` (read, never changed) and each
seed 1-3, this makes the warm-up op and 4 cycles, 1,332 argvs in all, and
runs each through ``floerdisk.cli.main`` in this one process.  It prints one
sha256 over every (argv, exit code, stdout) in order; with ``--list`` it
first prints one line per argv: its exit code, the sha256 of its stdout and
the argv as JSON.

Two source trees print the same output exactly when every argv ends in the
same exit code with the same stdout.  Compare two trees with the same
``--workdir``, because argvs name the input files written there::

    python3 tools/replay_argvs.py --list > head.txt
    python3 tools/replay_argvs.py --src ../base/src --list > base.txt
    diff base.txt head.txt
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
CYCLES = 4


def argvs_and_runs(cli, workdir: str):
    """(argv, exit code, stdout) of every op, in order.  Each workload's
    ops run before the next workload writes its input files."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS
    for name in sorted(WORKLOADS):
        for seed in SEEDS:
            workload = WORKLOADS[name](seed, workdir)
            ops = [workload.warmup()]
            for _ in range(CYCLES):
                ops += workload.cycle()
            for op in ops:
                out = io.StringIO()
                code = cli.main(list(op.argv), out=out)
                yield op.argv, code, out.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the source tree to import floerdisk from")
    parser.add_argument("--workdir",
                        default=os.path.join(tempfile.gettempdir(),
                                             "floerdisk-replay"),
                        help="where the workloads write their input files")
    parser.add_argument("--list", action="store_true",
                        help="also print one line per argv")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import floerdisk.cli
    if Path(floerdisk.__file__).resolve().parent != src / "floerdisk":
        sys.exit(f"imported floerdisk from {floerdisk.__file__}, not {src}")
    os.makedirs(args.workdir, exist_ok=True)
    total, count = hashlib.sha256(), 0
    for op_argv, code, stdout in argvs_and_runs(floerdisk.cli, args.workdir):
        record = json.dumps([op_argv, code, stdout])
        total.update(record.encode() + b"\n")
        count += 1
        if args.list:
            print(code, hashlib.sha256(stdout.encode()).hexdigest(),
                  json.dumps(op_argv))
    print(f"{total.hexdigest()}  {count} argvs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
