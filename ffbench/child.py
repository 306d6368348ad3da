"""One timed invocation of ffzeta, run in a fresh interpreter.

Usage: python3 ffbench/child.py '<json spec>'

The spec names the checkout's ``src`` directory, the field F_r = F_{p^m},
and what to run: ``{"kind": "cli", "argv": [...]}`` calls ``ffzeta.cli.main``
exactly as the ``ffzeta`` console script would; ``{"kind": "reduce",
"dmax": d, "order": [...]}`` runs the library-level point-module check
(reduce the Carlitz module at each prime f of degree <= d, in the given
order, and print ``f,annihilator``).  Optional ``"trace": true`` installs
the span tracer after set-up; ``"slow": {span: seconds}`` delays a traced
boundary (used by the self-test).

Rows go to stdout.  The last stderr line is ``FFBENCH-REPORT <json>`` with
monotonic timestamps, which the parent compares with its own spawn time:
CLOCK_MONOTONIC is shared by all processes of the machine.
"""

from __future__ import annotations

import json
import resource
import sys
import time

REPORT_TAG = "FFBENCH-REPORT "

# module-level caches that must be empty in a fresh interpreter
COLD_CACHES = {
    "ffield": ("_FIELD_CACHE",),
    "ore": ("_RESIDUE_CACHE", "_EXT_CACHE"),
    "poly": ("_IRRED_CACHE",),
    "lseries": ("_TABLE_CACHE", "_GENERIC_MEMO"),
}


def warm_caches() -> list[str]:
    """Names of ffzeta module caches that are not empty."""
    out = []
    for mod, names in COLD_CACHES.items():
        module = sys.modules.get(f"ffzeta.{mod}")
        for name in names:
            cache = getattr(module, name, None)
            if cache:
                out.append(f"{mod}.{name}")
    return out


def peak_rss_kb() -> int:
    """High-water RSS of this process image.  ru_maxrss is not used: Linux
    carries the parent's high-water mark across fork and exec into it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_reduce(spec) -> int:
    from ffzeta import ffield, ore, poly

    field = ffield.field_make(spec["p"], spec["m"])
    phi = ore.carlitz(field)
    primes = poly.monic_irreducibles(field, spec["dmax"], enum_bound=1 << 12)
    out = []
    for idx in spec["order"]:
        f = primes[idx]
        ann = ore.point_module_annihilator(ore.reduce_mod_prime(phi, f), bound=1 << 12)
        out.append(f"{f.to_string()},{ann.to_string()}\n")
    sys.stdout.write("".join(out))
    return 0


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import ffzeta.cli  # noqa: F401  (the console script imports the same)
    from ffzeta.ffield import field_make

    warm = warm_caches()
    if warm:
        print(f"caches not empty after import: {', '.join(warm)}", file=sys.stderr)
        return 3
    field_make(spec["p"], spec["m"])
    t_setup = time.monotonic()
    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer(spec.get("slow"))
        tracer.install()
    if spec["kind"] == "cli":
        rc = ffzeta.cli.main(spec["argv"])
    else:
        rc = run_reduce(spec)
    sys.stdout.flush()
    t_end = time.monotonic()
    report = {
        "t_setup": t_setup,
        "t_end": t_end,
        "maxrss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
    sys.stderr.write(REPORT_TAG + json.dumps(report) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
