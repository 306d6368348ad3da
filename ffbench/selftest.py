"""Self-test of the benchmark at tiny sizes.

Usage, from the root of a checkout: python3 ffbench/selftest.py

Checks that every workload reports every metric of BENCHMARK.json with its
unit in both modes and passes its row checks, that per-layer counts repeat
exactly across two traced runs, that a corrupted row makes the failure
ratio positive, and that a deliberately slowed boundary shows up in its own
layer's self time.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

SLOW_SPAN = "poly.bareiss"
SLOW_METRIC = "prime.poly.bareiss"
OTHER_METRIC = "prime.poly.resultant"
SLOW_S = 0.004


def tiny(name: str, tmp: Path, trace: bool, **kw) -> dict:
    return run.measure(name, seed=1, seconds=0, trace=trace, tmp=tmp, tiny=True,
                       min_reps=1, **kw)["result"]


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    with tempfile.TemporaryDirectory(prefix=".ffbench-", dir=run.ROOT) as tmp:
        tmp = Path(tmp)
        traced = {}
        for name in run.WORKLOADS:
            for trace in (False, True):
                res = tiny(name, tmp, trace)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                check(got == want[trace], f"{name} trace={int(trace)}: every metric with its unit")
                check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                      f"{name} trace={int(trace)}: {res['attempted']} rows, none failed")
                if trace:
                    traced[name] = res["metrics"]
            again = tiny(name, tmp, True)["metrics"]
            counts = [k for k, v in again.items() if v["unit"] == "count"]
            check(all(again[k] == traced[name][k] for k in counts),
                  f"{name}: {len(counts)} per-layer counts repeat exactly")

        def corrupt(text: str) -> str:
            lines = text.splitlines()
            lines[-1] += "0"
            return "\n".join(lines) + "\n"

        for name in run.WORKLOADS:
            res = tiny(name, tmp, False, corrupt=corrupt)
            check(res["failed"] > 0 and not res["correct"],
                  f"{name}: corrupted rows fail ({res['failed']} of {res['attempted']})")

        base = traced["lfactors-rank1"]
        slowed = tiny("lfactors-rank1", tmp, True, slow={SLOW_SPAN: SLOW_S})["metrics"]
        injected = base[f"{SLOW_METRIC}.calls"]["value"] * SLOW_S
        grew = slowed[f"{SLOW_METRIC}.self_s"]["value"] - base[f"{SLOW_METRIC}.self_s"]["value"]
        other = slowed[f"{OTHER_METRIC}.self_s"]["value"] - base[f"{OTHER_METRIC}.self_s"]["value"]
        check(grew >= 0.8 * injected and other < 0.2 * injected,
              f"slowed {SLOW_SPAN}: its self time grew {grew:.3f} s of {injected:.3f} s "
              f"injected, {OTHER_METRIC} grew {other:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
