"""Record the per-row reference digests in ``reference.json``.

Usage, from the root of a checkout: python3 ffbench/make_reference.py

Runs, once and untimed, every input that any seed can select, each in a
fresh interpreter, and stores the digest of each output row in canonical
row order.  Every row must pass its oracle first.  Run it again only when a
change is meant to alter the program's output, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    reference = {}
    with tempfile.TemporaryDirectory(prefix=".ffbench-", dir=run.ROOT) as tmp:
        for inv in workloads.reference_invocations(Path(tmp)):
            for path, text in inv.files.items():
                Path(path).write_text(text)
            proc = run.spawn(inv, trace=False)
            rows = inv.rows(proc.stdout)
            bad = inv.oracle(rows) if proc.rc == 0 else set(rows)
            if proc.rc != 0 or bad or len(rows) != inv.span[1] - inv.span[0]:
                print(f"{inv.table}: rc={proc.rc}, {len(bad)} oracle failures, "
                      f"{len(rows)} rows", file=sys.stderr)
                return 1
            reference[inv.table] = "".join(workloads.digest(row) for row in rows)
            print(f"{inv.table}: {len(rows)} rows", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
