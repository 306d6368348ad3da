"""The four benchmark workloads, their seeded inputs and their row checks.

Each workload has a prime-r slice and a prime-power slice (r = 2^2), so a
change that helps one field representation (``FiniteField`` with exp/log
tables, the numpy ``PowerSumTable``) and slows the other (``ExtField``,
``_power_sum_generic``) still shows.  Every invocation runs in a fresh
interpreter (see ``child.py``).

The seed picks inputs from small families whose members cost about the same,
so that runs with different seeds can be compared; every family member has
per-row reference digests in ``reference.json``, recorded from the parent
code with ``make_reference.py``.  Besides the digest, each row is checked
against an independent desk-scale oracle.

The known limits below are reported with every result; the workloads stay
clear of them and do not hide them.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from ffzeta.errors import BadReduction
from ffzeta.ffield import field_make
from ffzeta.lseries import LocalFactor, power_sums_enumerated_batch
from ffzeta.ore import drinfeld_rank1, good_model_twist
from ffzeta.poly import (
    Poly,
    RatFunc,
    monic_irreducibles,
    monic_polys,
    poly_from_string,
    ratfunc_from_string,
)
from ffzeta.sheaf import chi_beta

KNOWN_LIMITS = [
    "rank2:T,1 --r 2 --dmax 5 exits 2 after ~40 s with BoundExceeded (extension dimension > 64)",
    "rank2:0,1 at --r 2 --dmax 7 and at --r 2^2 --dmax 2 runs for minutes",
    "PowerSumTable wraps int8 at r=13 (S_2(168) wrong); no workload uses r=13, "
    "so the benchmark is no evidence of correctness there",
    "no workload reaches ffzeta.laurent",
]

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
DIGEST_HEX = 10

# seeded input families; members of one family cost about the same
SPECIAL_OFFSETS = 4
BETA_R2 = "(T+1)/T"  # T/(T+1), the only other choice of this shape, costs 15% more
BETAS_R4 = ("(T+1)/T", "(T+2)/T", "(T+3)/T")
CLASSIFY_JS = tuple(range(-4, 5))
CLASSIFY_DMAX = 3  # eigenvalues at the primes of degree <= 3 over F_3, at every size
RANK2_G_R3 = ("T", "2*T")
RANK2_DELTAS_R4 = ("2", "3")  # both run: each alone is too short to time steadily

# full sizes, and the reduced sizes the self-test runs
SIZES = {
    False: {"special_r3": 400, "special_r4": 250, "rank1_r2": 9, "rank1_r4": 5,
            "rank2_r2": 5, "rank2_r3": 2, "rank2_r4": 1, "reduce_r2": 9,
            "reduce_r3": 5, "reduce_r4": 5},
    True: {"special_r3": 40, "special_r4": 20, "rank1_r2": 4, "rank1_r4": 2,
           "rank2_r2": 2, "rank2_r3": 1, "rank2_r4": 1, "reduce_r2": 4,
           "reduce_r3": 2, "reduce_r4": 2},
}


def digest(row: str) -> str:
    return hashlib.sha256(row.encode()).hexdigest()[:DIGEST_HEX]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


@dataclass
class Invocation:
    """One fresh-process run of the program and how to check its rows."""

    slice: str
    spec: dict
    table: str  # reference table id
    span: tuple  # (start, stop) positions of the expected rows in that table
    oracle: object  # rows -> set of rows that fail the oracle
    layout: str = "csv"  # csv: data lines after config and header; json: one row; lines
    files: dict = dc_field(default_factory=dict)  # path -> text written before timing

    def rows(self, stdout: str) -> list[str]:
        if self.layout == "json":
            return [stdout.strip()] if stdout.strip() else []
        lines = stdout.splitlines()
        if self.layout == "csv":
            lines = [ln for ln in lines if not ln.startswith("#")][1:]
        return lines

    def describe(self) -> str:
        if self.spec["kind"] == "cli":
            return "ffzeta " + " ".join(self.spec["argv"])
        return f"reduce r={self.spec['p']}^{self.spec['m']} dmax={self.spec['dmax']}"

    def expected(self, reference: dict) -> Counter:
        table = reference[self.table]
        start, stop = self.span
        return Counter(table[i * DIGEST_HEX:(i + 1) * DIGEST_HEX] for i in range(start, stop))


def _field(r: str):
    p, _, m = r.partition("^")
    return field_make(int(p), int(m or 1))


def _cli(slice_, r, argv, table, span, oracle, layout="csv", files=None):
    F = _field(r)
    spec = {"kind": "cli", "argv": argv + ["--r", r], "p": F.p, "m": F.m}
    return Invocation(slice_, spec, table, span, oracle, layout, files or {})


def _prime_count(r: str, dmax: int) -> int:
    return len(monic_irreducibles(_field(r), dmax, enum_bound=1 << 12))


# ---------------------------------------------------------------------------
# workloads


def special(seed: int, tmp: Path, tiny: bool = False) -> list[Invocation]:
    size = SIZES[tiny]
    lo3, lo4 = seed % SPECIAL_OFFSETS, (seed // SPECIAL_OFFSETS) % SPECIAL_OFFSETS
    out = []
    for slice_, r, lo, n in (("prime", "3", lo3, size["special_r3"]),
                             ("prime_power", "2^2", lo4, size["special_r4"])):
        argv = ["special", "--kind", "zeta", "--format", "csv", "--i", f"{lo}..{lo + n}"]
        out.append(_cli(slice_, r, argv, f"special/r{r}", (lo, lo + n + 1),
                        SpecialOracle(_field(r))))
    return out


def lfactors_rank1(seed: int, tmp: Path, tiny: bool = False) -> list[Invocation]:
    size = SIZES[tiny]
    beta4 = BETAS_R4[seed % len(BETAS_R4)]
    j = CLASSIFY_JS[(seed // len(BETAS_R4)) % len(CLASSIFY_JS)]
    out = []
    for slice_, r, beta, d in (("prime", "2", BETA_R2, size["rank1_r2"]),
                               ("prime_power", "2^2", beta4, size["rank1_r4"])):
        argv = ["lfactors", f"cbeta:{beta}", "--format", "csv", "--dmax", str(d)]
        out.append(_cli(slice_, r, argv, f"rank1/r{r}/{beta}", (0, _prime_count(r, d)),
                        Rank1Oracle(_field(r), beta)))
    eigen = tmp / f"eigen_j{j}.csv"
    F3 = _field("3")
    lines = []
    for P in monic_irreducibles(F3, CLASSIFY_DMAX):
        value = (P ** abs(j)).to_string()
        lines.append(f"{P.to_string()},{value if j >= 0 else f'1/({value})'}")
    out.append(_cli("prime", "3", ["classify", str(eigen)], f"classify/r3/j{j}", (0, 1),
                    ClassifyOracle(j), layout="json", files={eigen: "\n".join(lines) + "\n"}))
    return out


def lfactors_rank2(seed: int, tmp: Path, tiny: bool = False) -> list[Invocation]:
    size = SIZES[tiny]
    g3 = RANK2_G_R3[seed % len(RANK2_G_R3)]
    runs = [("prime", "2", "rank2:0,1", size["rank2_r2"]),
            ("prime", "3", f"rank2:{g3},1", size["rank2_r3"])]
    runs += [("prime_power", "2^2", f"rank2:0,{delta}", size["rank2_r4"])
             for delta in RANK2_DELTAS_R4]
    out = []
    for slice_, r, obj, d in runs:
        argv = ["lfactors", obj, "--format", "csv", "--dmax", str(d)]
        out.append(_cli(slice_, r, argv, f"rank2/r{r}/{obj}", (0, _prime_count(r, d)),
                        Rank2Oracle(_field(r), obj)))
    return out


def reduce(seed: int, tmp: Path, tiny: bool = False) -> list[Invocation]:
    size = SIZES[tiny]
    rng = random.Random(seed)
    out = []
    for slice_, r, d in (("prime", "2", size["reduce_r2"]), ("prime", "3", size["reduce_r3"]),
                         ("prime_power", "2^2", size["reduce_r4"])):
        F = _field(r)
        n = _prime_count(r, d)
        order = list(range(n))
        rng.shuffle(order)
        spec = {"kind": "reduce", "p": F.p, "m": F.m, "dmax": d, "order": order}
        out.append(Invocation(slice_, spec, f"reduce/r{r}", (0, n), ReduceOracle(F),
                              layout="lines"))
    return out


BUILDERS = {
    "special": special,
    "lfactors-rank1": lfactors_rank1,
    "lfactors-rank2": lfactors_rank2,
    "reduce": reduce,
}


def build(name: str, seed: int, tmp: Path, tiny: bool = False) -> list[Invocation]:
    return BUILDERS[name](seed, tmp, tiny)


def reference_invocations(tmp: Path) -> list[Invocation]:
    """Every input any seed can select, at full size, one invocation per
    reference table (the special tables cover the union of the offsets)."""
    out = []
    for r, n in (("3", SIZES[False]["special_r3"]), ("2^2", SIZES[False]["special_r4"])):
        hi = n + SPECIAL_OFFSETS - 1
        argv = ["special", "--kind", "zeta", "--format", "csv", "--i", f"0..{hi}"]
        out.append(_cli("prime", r, argv, f"special/r{r}", (0, hi + 1), SpecialOracle(_field(r))))
    seeds = range(len(BETAS_R4) * len(CLASSIFY_JS) * len(RANK2_G_R3))  # every combination
    seen = set()
    for name in ("lfactors-rank1", "lfactors-rank2", "reduce"):
        for seed in seeds:
            for inv in build(name, seed, tmp):
                if inv.table not in seen:
                    seen.add(inv.table)
                    if inv.spec["kind"] == "reduce":
                        inv.spec["order"] = sorted(inv.spec["order"])
                    out.append(inv)
    return out


# ---------------------------------------------------------------------------
# oracles


def split_top(text: str, sep: str = "+") -> list[str]:
    """Split at separators outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _coeff(F, text: str) -> Poly:
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return poly_from_string(F, text)


def parse_series(F, text: str, var: str) -> dict:
    """Parse 'c0+(c1)*v+c2*v^2...' (v = 'u', or 'x^-' with exponents) into
    {exponent: Poly}.  The constant term is written without parentheses."""
    out = {}
    const = []
    for term in split_top(text):
        if var not in term:
            const.append(term)
            continue
        head, _, exp = term.rpartition(var)
        e = int(exp.lstrip("^") or 1)
        out[e] = Poly.one(F) if not head else _coeff(F, head.rstrip("*"))
    if const:
        out[0] = poly_from_string(F, "+".join(const))
    return out


class Oracle:
    """Returns the set of rows that fail an independent check; a row that
    does not even parse fails too."""

    def prepare(self, rows) -> None:
        """Work shared by all rows of one output, done before row checks."""

    def row_ok(self, row: str) -> bool:
        raise NotImplementedError

    def __call__(self, rows) -> set:
        bad = set()
        try:
            self.prepare(rows)
        except Exception:  # an unparsable output fails every row
            return set(rows)
        for row in rows:
            try:
                ok = self.row_ok(row)
            except Exception:  # a malformed row is a failed row
                ok = False
            if not ok:
                bad.add(row)
        return bad


class SpecialOracle(Oracle):
    """Degree bound deg_x <= k // (r-1) on every row, and the coefficients
    of x^-e for e with r^e <= 27 against enumeration of the r^e monics."""

    ENUM_MONICS = 27

    def __init__(self, F):
        self.F = F
        self.e_max = 0
        while F.q ** (self.e_max + 1) <= self.ENUM_MONICS:
            self.e_max += 1
        self.sums: list = []  # sums[e][k] = S_e(k) by enumeration

    def _enumerated(self, e: int, k_max: int) -> list:
        if self.F.m == 1:
            return power_sums_enumerated_batch(self.F, e, k_max, self.ENUM_MONICS)
        monics = list(monic_polys(self.F, e))
        powers = [Poly.one(self.F)] * len(monics)
        sums = []
        for _ in range(k_max + 1):
            total = Poly.zero(self.F)
            for pw in powers:
                total = total + pw
            sums.append(total)
            powers = [pw * n for pw, n in zip(powers, monics)]
        return sums

    def prepare(self, rows) -> None:
        k_max = max((int(row.split(",", 1)[0]) for row in rows), default=0)
        if not self.sums or len(self.sums[0]) <= k_max:
            self.sums = [self._enumerated(e, k_max) for e in range(self.e_max + 1)]

    def row_ok(self, row: str) -> bool:
        F = self.F
        i, kind, poly, degree, _ = row.split(",")
        i, degree = int(i), int(degree)
        coeffs = parse_series(F, poly, "x^-")
        top = max((e for e, c in coeffs.items() if not c.is_zero()), default=0)
        return (kind == "zeta" and top == degree <= i // (F.q - 1)
                and all(coeffs.get(e, Poly.zero(F)) == self.sums[e][i]
                        for e in range(self.e_max + 1)))


class Rank1Oracle(Oracle):
    """c02's identity: at a good twist the eigenvalue is chi_beta(f) * f,
    computed from resultants of T-free data; bad primes give '1'."""

    def __init__(self, F, beta_text: str):
        self.F = F
        self.beta = ratfunc_from_string(F, beta_text)
        self.phi = drinfeld_rank1(F, self.beta)

    def expected(self, f: Poly) -> str:
        one = Poly.one(self.F)
        try:
            j = good_model_twist(self.phi, f)
        except BadReduction:
            return "1,bad-prime-rule"
        beta_good = self.beta * RatFunc.from_poly(f) ** (j * (self.F.q - 1))
        lam = f.scale(chi_beta(beta_good, f).value)
        return LocalFactor(f, (one, -lam), "").denominator_string() + ",rank1-formula"

    def row_ok(self, row: str) -> bool:
        prime, _, rest = row.partition(",")
        return rest == self.expected(poly_from_string(self.F, prime))


class Rank2Oracle(Oracle):
    """Rows read 1 - a*u + mu*f*u^2 with deg a <= deg f / 2 and mu in F_r^*;
    for rank2:0,1 over F_2, the values fixed by hand in c09."""

    C09 = {"T": "0", "T+1": "0", "T^2+T+1": "1"}

    def __init__(self, F, obj: str):
        self.F = F
        self.c09 = self.C09 if (F.q, obj) == (2, "rank2:0,1") else {}

    def row_ok(self, row: str) -> bool:
        F = self.F
        prime, den, prov = row.split(",")
        f = poly_from_string(F, prime)
        coeffs = parse_series(F, den, "u")
        a = -coeffs.get(1, Poly.zero(F))
        c2 = coeffs.get(2, Poly.zero(F))
        mu = c2.lc() if not c2.is_zero() else F.zero
        ok = (
            prov == "rank2-charpoly"
            and set(coeffs) <= {0, 1, 2}
            and coeffs.get(0) == Poly.one(F)
            and a.deg <= f.deg // 2
            and mu != F.zero
            and c2 == f.scale(mu)
        )
        if prime in self.c09:
            ok = ok and a == poly_from_string(F, self.c09[prime]) and mu == F.one
        return ok


class ClassifyOracle(Oracle):
    """The eigen file holds alpha_P = P^j, so the verdict is
    ClassIITranslate(j) with every c_P = 1."""

    def __init__(self, j: int):
        self.j = j

    def row_ok(self, row: str) -> bool:
        out = json.loads(row)
        return (out["verdict"] == "ClassIITranslate" and out["j"] == self.j
                and set(out["table"].values()) == {1})


class ReduceOracle(Oracle):
    """c01: the annihilator of C(F_f) is f - 1."""

    def __init__(self, F):
        self.F = F

    def row_ok(self, row: str) -> bool:
        prime, _, ann = row.partition(",")
        f = poly_from_string(self.F, prime)
        return poly_from_string(self.F, ann) == f - Poly.one(self.F)
