"""ffzeta benchmark: cold-process workloads with row checks and a traced run.

Usage, from the root of a checkout:

    python3 ffbench/run.py --workload special --seed 1 --seconds 20 --trace 0

Workloads: special, lfactors-rank1, lfactors-rank2, reduce (see
``workloads.py`` and ``BENCHMARK.json`` for why each exists).  One
repetition runs every invocation of the workload, each in a new interpreter
against the checkout's ``src``; repetitions continue until ``--seconds`` is
used up (at least three), alternating which slice runs first.

On a shared host, other tenants' load can slow everything down by 20-40 %
for seconds to minutes, so medians of raw times differ that much between
runs of the same code.  So right before each timed invocation the fixed probe
``calibrate.py`` runs in its own interpreter (it executes none of ffzeta's
code) and reports how long its start-up and its kernel took.  The
invocation's set-up time is multiplied by ``REF_STARTUP_S`` / (probe start-up)
and the rest of its time by ``REF_KERNEL_S`` / (probe kernel): seconds on a
host where the probe takes the reference times.  Slow spells last seconds to
minutes, so the probe next to an invocation sees the same host speed.  Each
end-to-end metric is the median of these scaled values over the run's
repetitions (``rows_per_s`` divides by scaled time; ``peak_rss_mb`` is not a
time).  The lines before the last give median, quartiles and sample count,
the raw (unscaled) median, and the probe's times.  ``--trace 1`` adds one traced
repetition and prints the per-layer metrics of each slice instead.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Attempted and failed count output rows over all repetitions; a row fails if
it is missing, differs from its reference digest, fails its oracle, or comes
from an invocation that exited non-zero.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from child import REPORT_TAG

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
PROBE = HERE / "calibrate.py"
# typical probe times on a 2-vCPU Xeon VM: start-up (spawn to kernel start,
# plus exit) and kernel
REF_STARTUP_S = 0.14
REF_KERNEL_S = 0.14

WORKLOADS = ("special", "lfactors-rank1", "lfactors-rank2", "reduce")
SLICES = ("prime", "prime_power")
MIN_REPS = 3
HARD_LIMIT_S = 120.0  # start no repetition after this, whatever --seconds says
DEADLINE_S = 160.0  # a child still running then is killed and its rows fail

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("compute_prime_s", "s"),
    ("compute_prime_power_s", "s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
]


class Process:
    """Outcome of one invocation in its own interpreter."""

    def __init__(self, inv, stdout: str, rc: int, wall: float, setup: float,
                 compute: float, rss_mb: float, trace):
        self.inv = inv
        self.stdout = stdout
        self.rc = rc
        self.wall = wall
        self.setup = setup
        self.compute = compute
        self.rss_mb = rss_mb
        self.trace = trace
        self.probe = None  # (start-up, kernel) of the probe run just before, if any


def spawn(inv, trace: bool, slow: dict | None = None, timeout: float = DEADLINE_S) -> Process:
    spec = dict(inv.spec, src=str(SRC), trace=trace)
    if slow:
        spec["slow"] = slow
    # a fixed hash seed makes set iteration order, and with it timing, repeat
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        wall = time.monotonic() - t0
        return Process(inv, "", -9, wall, 0.0, wall, 0.0, None)
    wall = time.monotonic() - t0
    report = None
    for line in reversed(proc.stderr.splitlines()):
        if line.startswith(REPORT_TAG):
            report = json.loads(line[len(REPORT_TAG):])
            break
    if report is None:
        sys.stderr.write(proc.stderr[-2000:])
        return Process(inv, proc.stdout, proc.returncode or 1, wall, 0.0, wall, 0.0, None)
    return Process(
        inv, proc.stdout, proc.returncode, wall,
        report["t_setup"] - t0, report["t_end"] - report["t_setup"],
        report["maxrss_kb"] / 1024.0, report.get("trace"),
    )


def repetition_metrics(procs: list[Process], rows: int, scaled: bool) -> dict:
    """End-to-end metrics of one repetition; ``scaled`` applies to each
    process the host speed its probe measured (see the module docstring)."""
    ks = [REF_STARTUP_S / p.probe[0] if scaled else 1.0 for p in procs]
    kc = [REF_KERNEL_S / p.probe[1] if scaled else 1.0 for p in procs]
    setup = sum(p.setup * s for p, s in zip(procs, ks))
    wall = setup + sum((p.wall - p.setup) * c for p, c in zip(procs, kc))
    compute = {sl: sum(p.compute * c for p, c in zip(procs, kc) if p.inv.slice == sl)
               for sl in SLICES}
    return {
        "wall_s": wall,
        "setup_s": setup,
        "compute_prime_s": compute["prime"],
        "compute_prime_power_s": compute["prime_power"],
        "rows_per_s": rows / (wall - setup) if wall > setup else 0.0,
        "peak_rss_mb": max(p.rss_mb for p in procs),
    }


class Repetition:
    def __init__(self, procs: list[Process], rows: int):
        self.procs = procs
        self.wall = sum(p.wall for p in procs)
        self.compute = {s: sum(p.compute for p in procs if p.inv.slice == s)
                        for s in SLICES}
        self.raw = repetition_metrics(procs, rows, False)
        self.metrics = repetition_metrics(procs, rows, True)


def probe(timeout: float) -> tuple[float, float]:
    """(start-up, kernel) seconds of one run of the host-speed probe."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(PROBE)], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"host-speed probe exited {proc.returncode}")
    kernel = float(proc.stdout)
    return wall - kernel, kernel


def run_repetition(invs, prime_first: bool, trace: bool, deadline: float,
                   slow=None) -> list[Process]:
    """Runs every invocation once; an untraced one is preceded by the probe."""
    ordered = sorted(invs, key=lambda inv: (inv.slice == "prime") != prime_first)
    procs = []
    for inv in ordered:
        probed = None if trace else probe(max(1.0, deadline - time.monotonic()))
        proc = spawn(inv, trace, slow, max(1.0, deadline - time.monotonic()))
        proc.probe = probed
        procs.append(proc)
    return procs


class Checker:
    """Counts failed rows against the reference digests and the oracles.

    Oracle verdicts are cached by output text, so identical outputs of
    later repetitions cost one hash each."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.verdicts: dict = {}
        self.attempted = 0
        self.failed = 0

    def check(self, procs: list[Process]) -> int:
        """Adds the repetition's rows to the totals; returns its output rows."""
        from workloads import digest

        out_rows = 0
        for p in procs:
            expected = p.inv.expected(self.reference)
            attempted = sum(expected.values())
            rows = p.inv.rows(p.stdout)
            out_rows += len(rows)
            if p.rc != 0:
                failed = attempted
            else:
                key = (p.inv.table, p.inv.span, p.stdout)
                if key not in self.verdicts:
                    self.verdicts[key] = p.inv.oracle(rows)
                bad = self.verdicts[key]
                got = Counter(digest(row) for row in rows if row not in bad)
                failed = sum((expected - got).values())
            self.attempted += attempted
            self.failed += failed
        return out_rows


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def environment(seed: int) -> dict:
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha or "unknown",
        "nproc": os.cpu_count(),
        "cpu": cpu or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, tmp: Path,
            tiny: bool = False, min_reps: int = MIN_REPS, corrupt=None, slow=None) -> dict:
    """Run one workload; returns the result object and the report.

    ``tiny``, ``min_reps``, ``corrupt`` (a function on stdout text) and
    ``slow`` exist for the self-test: small inputs, fewer repetitions,
    outputs damaged before checking, and delayed traced boundaries."""
    import tracing
    import workloads

    invs = workloads.build(name, seed, tmp, tiny)
    for inv in invs:
        for path, text in inv.files.items():
            Path(path).write_text(text)
    checker = Checker(workloads.load_reference())
    reps: list[Repetition] = []
    traced = None
    start = time.monotonic()
    deadline = start + DEADLINE_S
    while True:
        if trace and traced is None and len(reps) == 1:
            procs = run_repetition(invs, False, True, deadline, slow)
            traced = procs
        else:
            procs = run_repetition(invs, len(reps) % 2 == 0, False, deadline)
        if corrupt is not None:
            for p in procs:
                p.stdout = corrupt(p.stdout)
        rows = checker.check(procs)
        if procs is not traced:
            reps.append(Repetition(procs, rows))
        elapsed = time.monotonic() - start
        typical = statistics.median(r.wall + sum(sum(p.probe) for p in r.procs) for r in reps)
        done = len(reps) >= min_reps and (not trace or traced is not None)
        if elapsed + typical > HARD_LIMIT_S or (done and elapsed + typical > seconds):
            break

    summary = {}
    for metric, unit in END_TO_END:
        q1, med, q3 = quartiles([r.metrics[metric] for r in reps])
        raw = statistics.median(r.raw[metric] for r in reps)
        summary[metric] = {"median": med, "q1": q1, "q3": q3, "n": len(reps), "unit": unit,
                           "raw_median": raw}
    probes = {}
    for i, (part, ref) in enumerate((("startup", REF_STARTUP_S), ("kernel", REF_KERNEL_S))):
        values = [p.probe[i] for r in reps for p in r.procs]
        q1, med, q3 = quartiles(values)
        probes[part] = {"median": med, "q1": q1, "q3": q3, "n": len(values), "ref": ref}
    ok = checker.failed == 0 and all(p.rc == 0 for r in reps for p in r.procs)
    report = dict(environment(seed), workload=name, samples=len(reps),
                  traced_samples=int(traced is not None),
                  inputs=[inv.describe() for inv in invs],
                  fail_ratio=checker.failed / checker.attempted if checker.attempted else 0.0,
                  end_to_end=summary, probe=probes,
                  known_limits=workloads.KNOWN_LIMITS)
    if trace:
        metrics, tails, leaders = {}, {}, {}
        for slice_ in SLICES:
            merged = tracing.merge(p.trace for p in traced if p.inv.slice == slice_ and p.trace)
            values, tail = tracing.layer_metrics(merged)
            untraced = statistics.median(r.compute[slice_] for r in reps)
            traced_compute = sum(p.compute for p in traced if p.inv.slice == slice_)
            values["tracing.overhead_ratio"] = tracing.ratio(traced_compute, untraced) - 1.0
            for metric, unit in tracing.LAYER_METRICS:
                metrics[f"{slice_}.{metric}"] = {"value": values[metric], "unit": unit}
            tails[slice_] = tail
            ranked = sorted(merged["spans"].items(), key=lambda kv: -kv[1][1])
            leaders[slice_] = [[span, round(v[1], 4)] for span, v in ranked[:3] if v[0]]
        ok = ok and all(p.rc == 0 for p in traced)
        report["ptail"] = tails
        report["largest_self_s"] = leaders
    else:
        metrics = {m: {"value": summary[m]["median"], "unit": u} for m, u in END_TO_END}
    result = {"correct": ok, "attempted": checker.attempted, "failed": checker.failed,
              "metrics": metrics}
    return {"result": result, "report": report}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ffzeta" / "__init__.py").is_file():
        print(f"error: no ffzeta sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # byte-compile once, untimed, as an installed package would be
    compileall.compile_dir(str(SRC / "ffzeta"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    with tempfile.TemporaryDirectory(prefix=".ffbench-", dir=ROOT) as tmp:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
    report = out["report"]
    print(f"ffbench {args.workload} seed={args.seed} samples={report['samples']} "
          f"traced={report['traced_samples']} fail_ratio={report['fail_ratio']:.6g}")
    for metric, s in report["end_to_end"].items():
        print(f"  {metric:24s} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}  raw median {s['raw_median']:.6g}")
    for part, s in report["probe"].items():
        print(f"  probe {part:18s} median {s['median']:.6g} s  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  n={s['n']}  reference {s['ref']:g} s")
    if args.trace:
        for metric, value in out["result"]["metrics"].items():
            print(f"  {metric:56s} {value['value']:.6g} {value['unit']}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
