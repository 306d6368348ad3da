"""Span tracing around ffzeta's layer boundaries, installed from outside.

The tracer wraps functions of the loaded ``ffzeta`` modules by patching
every namespace that binds them (``ffzeta.ore`` re-binds
``pk_lex_irreducible``, ``ffzeta.sheaf`` re-binds ``resultant``, the package
re-exports most names).  Methods are patched on their class.  Spans live in
memory with their parent ids; self time is each span's duration minus the
durations of its direct children.  Nothing is written until ``summary``.

A boundary that no longer exists is skipped, so its metrics read 0.
"""

from __future__ import annotations

import statistics
import sys
import time

# (span name, module, qualified name, extra recorded per call)
#   extra: None, or a function (args, result) -> number summed per span name
BOUNDARIES = [
    ("ffield.table_build", "ffield", "FiniteField._build_tables", lambda a, out: a[0].q),
    ("ffield.ext_search", "ffield", "pk_lex_irreducible", None),
    ("ffield.rabin", "ffield", "pk_irreducible_rabin", None),
    ("ore.torsion", "ore", "torsion_points", lambda a, out: out.ext_degree),
    ("ore.nullspace", "ore", "nullspace_mod_p", None),
    ("ore.charpoly", "ore", "frobenius_charpoly", None),
    ("ore.frob_torsion", "ore", "frobenius_on_torsion", None),
    ("ore.ore_mul", "ore", "OrePoly.__mul__", None),
    ("ore.action", "ore", "DrinfeldModule.action", None),
    ("ore.reduce", "ore", "reduce_mod_prime", None),
    ("ore.residue_field", "ore", "residue_field", None),
    ("ore.point_module", "ore", "point_module_annihilator", None),
    ("poly.resultant", "poly", "resultant", None),
    ("poly.bareiss", "poly", "bareiss_det", lambda a, out: len(a[1])),
    ("poly.prime_enum", "cli", "primes_upto", lambda a, out: len(out)),
    ("sheaf.eigenvalue", "sheaf", "frobenius_eigenvalue", None),
    ("lseries.special", "lseries", "special_polynomial", None),
    ("lseries.power_table", "lseries", "PowerSumTable.__init__", None),
    ("lseries.newton", "lseries", "newton_polygon", None),
    ("lseries.local_factor", "lseries", "local_factor", None),
    ("cli.csv_block", "cli", "csv_block", lambda a, out: len(out)),
    ("cli.json_block", "cli", "json_block", lambda a, out: len(out)),
    ("cli.special_to_string", "lseries", "SpecialPolynomial.to_string", None),
    ("cli.denominator_string", "lseries", "LocalFactor.denominator_string", None),
    ("cli.poly_to_string", "poly", "Poly.to_string", None),
]

# spans whose per-call durations feed p50 / tail percentiles
PER_ROW = ("lseries.special", "lseries.local_factor")

SERIALIZE = ("cli.csv_block", "cli.json_block", "cli.special_to_string",
             "cli.denominator_string", "cli.poly_to_string")


class Tracer:
    def __init__(self, slow: dict | None = None):
        self.names = [b[0] for b in BOUNDARIES]
        self.extras = [b[3] for b in BOUNDARIES]
        self.slow = dict(slow or {})  # span name -> seconds slept per call
        self.spans: list = []  # (id, parent id, name index, start, end, extra)
        self._stack: list = []
        self._next_id = 0

    def _wrap(self, idx: int, fn):
        extra = self.extras[idx]
        delay = self.slow.get(self.names[idx], 0.0)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            out = done = None
            t0 = clock()
            try:
                if delay:
                    time.sleep(delay)
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                value = extra(args, out) if extra is not None and done else 0
                spans.append((sid, parent, idx, t0, t1, value))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every boundary that exists in the loaded ffzeta modules."""
        modules = [m for n, m in sys.modules.items() if n == "ffzeta" or n.startswith("ffzeta.")]
        for idx, (_, modname, qualname, _) in enumerate(BOUNDARIES):
            mod = sys.modules.get(f"ffzeta.{modname}")
            if mod is None:
                continue
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                if owner is None or attr not in vars(owner):
                    continue
                setattr(owner, attr, self._wrap(idx, vars(owner)[attr]))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            traced = self._wrap(idx, orig)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, traced)

    def summary(self) -> dict:
        """Per span name: [calls, self seconds, extra sum]; per-row durations;
        cache sizes read from the library after the run."""
        n = len(self.names)
        calls = [0] * n
        self_s = [0.0] * n
        extra = [0] * n
        child_time: dict = {}
        for sid, parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        rows = {name: [] for name in PER_ROW}
        for sid, _, idx, t0, t1, value in self.spans:
            calls[idx] += 1
            self_s[idx] += (t1 - t0) - child_time.get(sid, 0.0)
            extra[idx] += value
            if self.names[idx] in rows:
                rows[self.names[idx]].append(t1 - t0)
        return {
            "spans": {self.names[i]: [calls[i], self_s[i], extra[i]] for i in range(n)},
            "rows": rows,
            "caches": cache_snapshot(),
        }


def cache_snapshot() -> dict:
    """Sizes the per-layer metrics read from the library's own caches."""
    ore = sys.modules.get("ffzeta.ore")
    lseries = sys.modules.get("ffzeta.lseries")
    residue = getattr(ore, "_RESIDUE_CACHE", None) or {}
    tables = (getattr(lseries, "_TABLE_CACHE", None) or {}).values()
    return {
        "residue_fields": len(residue),
        "table_rows": sum(len(getattr(t, "_rows", ())) for t in tables),
        "zero_row": sum(getattr(t, "zero_row", None) or 0 for t in tables),
    }


# ---------------------------------------------------------------------------
# per-layer metrics of one slice (parent side)


def merge(summaries) -> dict:
    """Sum the summaries of the processes that make up one slice."""
    out = {"spans": {}, "rows": {name: [] for name in PER_ROW},
           "caches": {"residue_fields": 0, "table_rows": 0, "zero_row": 0}}
    for s in summaries:
        for name, (c, t, x) in s["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0, 0])
            acc[0] += c
            acc[1] += t
            acc[2] += x
        for name, durations in s["rows"].items():
            out["rows"].setdefault(name, []).extend(durations)
        for key, value in s["caches"].items():
            out["caches"][key] = out["caches"].get(key, 0) + value
    return out


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(durations) -> tuple[float, float, int]:
    """(percentile, value, sample count) of the highest percentile with at
    least ten samples beyond it; the median when there are too few samples."""
    n = len(durations)
    if n == 0:
        return 50.0, 0.0, 0
    ordered = sorted(durations)
    for pct in TAIL_PERCENTILES:
        if n * (1 - pct / 100.0) >= 10:
            k = min(n - 1, int(round(pct / 100.0 * (n - 1))))
            return pct, ordered[k], n
    return 50.0, statistics.median(ordered), n


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(merged: dict) -> tuple[dict, dict]:
    """Per-layer metric values of one slice, plus the tail-percentile notes."""
    sp = merged["spans"]

    def calls(name):
        return sp.get(name, [0, 0.0, 0])[0]

    def self_s(*names):
        return sum(sp.get(n, [0, 0.0, 0])[1] for n in names)

    def extra(name):
        return sp.get(name, [0, 0.0, 0])[2]

    caches = merged["caches"]
    searches, tests = calls("ffield.ext_search"), calls("ffield.rabin")
    torsion = calls("ore.torsion")
    ext_requests = max(extra("ore.torsion") - torsion, 0)
    residue_calls = calls("ore.residue_field")
    m = {
        "ffield.table_build.count": calls("ffield.table_build"),
        "ffield.table_build.elements": extra("ffield.table_build"),
        "ffield.table_build.self_s": self_s("ffield.table_build"),
        "ffield.ext_modulus.searches": searches,
        "ffield.ext_modulus.rabin_tests": tests,
        "ffield.ext_modulus.useful_ratio": ratio(searches, tests),
        "ffield.ext_modulus.self_s": self_s("ffield.ext_search", "ffield.rabin"),
        "ore.ext_field.hit_ratio": 1.0 - ratio(searches, ext_requests) if ext_requests else 0.0,
        "ore.torsion.calls": torsion,
        "ore.torsion.kernels": calls("ore.nullspace"),
        "ore.torsion.ext_degree_sum": extra("ore.torsion"),
        "ore.torsion.useful_ratio": ratio(torsion, calls("ore.nullspace")),
        "ore.torsion.self_s": self_s("ore.torsion", "ore.nullspace"),
        "ore.charpoly.calls": calls("ore.charpoly"),
        "ore.charpoly.aux_primes": calls("ore.frob_torsion"),
        "ore.charpoly.self_s": self_s("ore.charpoly", "ore.frob_torsion"),
        "ore.ore_mul.calls": calls("ore.ore_mul"),
        "ore.ore_mul.self_s": self_s("ore.ore_mul"),
        "ore.action.calls": calls("ore.action"),
        "ore.reduce.calls": calls("ore.reduce"),
        "ore.reduce.self_s": self_s("ore.reduce"),
        "ore.residue_field.calls": residue_calls,
        "ore.residue_field.hit_ratio":
            1.0 - ratio(caches["residue_fields"], residue_calls) if residue_calls else 0.0,
        "ore.point_module.calls": calls("ore.point_module"),
        "ore.point_module.self_s": self_s("ore.point_module"),
        "poly.resultant.calls": calls("poly.resultant"),
        "poly.resultant.self_s": self_s("poly.resultant"),
        "poly.bareiss.calls": calls("poly.bareiss"),
        "poly.bareiss.dim_sum": extra("poly.bareiss"),
        "poly.bareiss.self_s": self_s("poly.bareiss"),
        "poly.prime_enum.primes": extra("poly.prime_enum"),
        "poly.prime_enum.self_s": self_s("poly.prime_enum"),
        "sheaf.eigenvalue.calls": calls("sheaf.eigenvalue"),
        "sheaf.eigenvalue.self_s": self_s("sheaf.eigenvalue"),
        "lseries.power_table.builds": calls("lseries.power_table"),
        "lseries.power_table.rows": caches["table_rows"],
        "lseries.power_table.zero_row": caches["zero_row"],
        "lseries.newton.self_s": self_s("lseries.newton"),
        "cli.serialize.bytes": extra("cli.csv_block") + extra("cli.json_block"),
        "cli.serialize.self_s": self_s(*SERIALIZE),
    }
    tails = {}
    for span, prefix in (("lseries.special", "lseries.special"),
                         ("lseries.local_factor", "lseries.local_factor")):
        durations = merged["rows"].get(span, [])
        pct, tail, n = tail_percentile(durations)
        m[f"{prefix}.calls"] = calls(span)
        m[f"{prefix}.self_s"] = self_s(span)
        m[f"{prefix}.p50_s"] = statistics.median(durations) if durations else 0.0
        m[f"{prefix}.ptail_s"] = tail
        tails[prefix] = {"percentile": pct, "samples": n}
    return m, tails


# metric names a slice reports, in BENCHMARK.json order, with units
LAYER_METRICS = [
    ("ffield.table_build.count", "count"),
    ("ffield.table_build.elements", "count"),
    ("ffield.table_build.self_s", "s"),
    ("ffield.ext_modulus.searches", "count"),
    ("ffield.ext_modulus.rabin_tests", "count"),
    ("ffield.ext_modulus.useful_ratio", "1"),
    ("ffield.ext_modulus.self_s", "s"),
    ("ore.ext_field.hit_ratio", "1"),
    ("ore.torsion.calls", "count"),
    ("ore.torsion.kernels", "count"),
    ("ore.torsion.ext_degree_sum", "count"),
    ("ore.torsion.useful_ratio", "1"),
    ("ore.torsion.self_s", "s"),
    ("ore.charpoly.calls", "count"),
    ("ore.charpoly.aux_primes", "count"),
    ("ore.charpoly.self_s", "s"),
    ("ore.ore_mul.calls", "count"),
    ("ore.ore_mul.self_s", "s"),
    ("ore.action.calls", "count"),
    ("ore.reduce.calls", "count"),
    ("ore.reduce.self_s", "s"),
    ("ore.residue_field.calls", "count"),
    ("ore.residue_field.hit_ratio", "1"),
    ("ore.point_module.calls", "count"),
    ("ore.point_module.self_s", "s"),
    ("poly.resultant.calls", "count"),
    ("poly.resultant.self_s", "s"),
    ("poly.bareiss.calls", "count"),
    ("poly.bareiss.dim_sum", "count"),
    ("poly.bareiss.self_s", "s"),
    ("poly.prime_enum.primes", "count"),
    ("poly.prime_enum.self_s", "s"),
    ("sheaf.eigenvalue.calls", "count"),
    ("sheaf.eigenvalue.self_s", "s"),
    ("lseries.special.calls", "count"),
    ("lseries.special.self_s", "s"),
    ("lseries.special.p50_s", "s"),
    ("lseries.special.ptail_s", "s"),
    ("lseries.power_table.builds", "count"),
    ("lseries.power_table.rows", "count"),
    ("lseries.power_table.zero_row", "count"),
    ("lseries.newton.self_s", "s"),
    ("lseries.local_factor.calls", "count"),
    ("lseries.local_factor.self_s", "s"),
    ("lseries.local_factor.p50_s", "s"),
    ("lseries.local_factor.ptail_s", "s"),
    ("cli.serialize.bytes", "count"),
    ("cli.serialize.self_s", "s"),
    ("tracing.overhead_ratio", "1"),
]
