"""Record the reference output digests that the benchmark checks against.

Runs every task of every workload's reference universe once, in this
process, and writes ``perfbench/reference.json``.  Run it only on a commit
whose outputs are known to be right; the benchmark then flags any later
commit whose output for one of these tasks differs.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys

import checks
import workloads
import worker


def main() -> int:
    worker.import_jring()
    from jring import cli, symfun

    reference: dict[str, dict[str, str]] = {}
    for name in workloads.WORKLOADS:
        digests = {}
        for task in workloads.reference_universe(name):
            _, output, error = worker.execute(task, symfun, cli)
            if error:
                print(f"{workloads.key(task)}: {error}", file=sys.stderr)
                return 1
            problems = checks.independent(task, output)
            if problems:
                print(f"{workloads.key(task)}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            digests[workloads.key(task)] = checks.output_digest(task, output)
        reference[name] = digests
        print(f"{name}: {len(digests)} digests")
    path = worker.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
