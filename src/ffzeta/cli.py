"""Command-line surface: special polynomials, local factor tables, and the
eigen-system classifier.

Outputs are deterministic byte-for-byte for a fixed configuration: rows are
sorted, JSON keys are sorted, and the configuration is echoed verbatim into
every artifact.  Exit codes: 0 definite result (including NoMatch), 1
internal error, 2 precondition failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass

from .errors import (
    BoundExceeded,
    CacheCorrupt,
    FFZetaError,
    InsufficientData,
    NotPrime,
    ParseError,
    Unsupported,
)
from .ffield import field_make, is_prime, prime_factors
from .lseries import (
    CarlitzObject,
    EigenSystem,
    ZetaA,
    _table_for,
    classify_eigen_system,
    local_factor,
    newton_polygon,
    special_polynomial,
)
from .ore import drinfeld_rank1, drinfeld_rank2
from .poly import (
    _irreducibles_of_degree,
    is_irreducible,
    poly_from_string,
    ratfunc_from_string,
)
from .sheaf import carlitz_tensor_power


@dataclass
class RunConfig:
    r_text: str
    p: int
    m: int
    dmax: int
    prec: int
    fmt: str
    cache: str | None
    max_enum: int

    def echo(self) -> dict:
        return {
            "r": self.r_text,
            "dmax": self.dmax,
            "prec": self.prec,
            "format": self.fmt,
            "cache": self.cache,
            "max_enum": self.max_enum,
        }


def parse_r(text: str) -> tuple[int, int]:
    parts = text.split("^")
    try:
        if len(parts) == 1:
            p, m = int(parts[0]), 1
        elif len(parts) == 2:
            p, m = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise ParseError(text, 0, "expected r as 'p' or 'p^m'") from None
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise ParseError(text, 0, "extension degree must be >= 1")
    return p, m


# ---------------------------------------------------------------------------
# prime table cache


def _prime_count(q: int, d: int) -> int:
    """Gauss's count of monic irreducibles of degree d over F_q:
    (1/d) sum_(k | d) mu(k) q^(d/k)."""
    total = 0
    for k in range(1, d + 1):
        if d % k == 0:
            factors = prime_factors(k)
            if math.prod(factors) == k:  # k squarefree: mu(k) = (-1)^#factors
                total += (-1) ** len(factors) * q ** (d // k)
    return total // d


class PrimeCache:
    """One file per (r, d): canonical encodings with a checksummed header."""

    def __init__(self, directory):
        import pathlib

        self.dir = pathlib.Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)

    def _path(self, q: int, d: int):
        return self.dir / f"primes_r{q}_d{d}.txt"

    @staticmethod
    def _checksum(entries) -> str:
        return hashlib.sha256("\n".join(entries).encode()).hexdigest()

    def load(self, field, d: int):
        path = self._path(field.q, d)
        if not path.exists():
            return None
        lines = path.read_text().splitlines()
        if not lines or not lines[0].startswith("# ffzeta-primes "):
            raise CacheCorrupt(f"{path}: missing header")
        tokens = lines[0].split()[2:]
        if not all("=" in tok for tok in tokens):
            raise CacheCorrupt(f"{path}: unreadable header")
        head = dict(tok.split("=", 1) for tok in tokens)
        if head.get("r") != str(field.q) or head.get("d") != str(d):
            raise CacheCorrupt(f"{path}: header is for another r or d")
        entries = lines[1:]
        if head.get("count") != str(len(entries)):
            raise CacheCorrupt(f"{path}: entry count mismatch")
        if head.get("sha256") != self._checksum(entries):
            raise CacheCorrupt(f"{path}: checksum mismatch")
        try:
            primes = [poly_from_string(field, e) for e in entries]
        except ParseError as exc:
            raise CacheCorrupt(f"{path}: {exc}") from None
        if not all(f.deg == d and f.is_monic() for f in primes):
            raise CacheCorrupt(f"{path}: an entry is not a monic polynomial of degree {d}")
        # cheap checks in place of an irreducibility test per entry: a
        # repeated, unsorted or extra entry is caught, a reducible entry in
        # place of a prime at the right position is not
        if not all(a.sort_key() < b.sort_key() for a, b in zip(primes, primes[1:])):
            raise CacheCorrupt(f"{path}: entries are not strictly ascending")
        expected = _prime_count(field.q, d)
        if len(primes) != expected:
            raise CacheCorrupt(f"{path}: {len(primes)} entries, but F_{field.q}[T] has "
                               f"{expected} monic primes of degree {d}")
        return primes

    def store(self, field, d: int, primes) -> None:
        entries = [p.to_string() for p in primes]
        header = (
            f"# ffzeta-primes r={field.q} d={d} count={len(entries)} "
            f"sha256={self._checksum(entries)}"
        )
        self._path(field.q, d).write_text("\n".join([header] + entries) + "\n")

    def irreducibles_upto(self, field, d_max: int):
        out = []
        for d in range(1, d_max + 1):
            try:
                primes = self.load(field, d)
            except CacheCorrupt as exc:
                print(f"warning: {exc}; recomputing", file=sys.stderr)
                primes = None
            if primes is None:
                primes = _irreducibles_of_degree(field, d)
                self.store(field, d, primes)
            out.extend(primes)
        return out


def primes_upto(field, d_max: int, cache_dir, max_enum: int):
    if field.q**d_max > max_enum:
        raise BoundExceeded(
            f"prime enumeration at degree {d_max} needs {field.q**d_max} "
            f"candidates, above max_enum={max_enum}"
        )
    if cache_dir:
        return PrimeCache(cache_dir).irreducibles_upto(field, d_max)
    out = []
    for d in range(1, d_max + 1):
        out.extend(_irreducibles_of_degree(field, d))
    return out


# ---------------------------------------------------------------------------
# object-spec parsing for lfactors


def parse_object_spec(field, text: str):
    if text == "carlitz":
        return CarlitzObject(field)
    if text == "zeta":
        return ZetaA(field)
    if text.startswith("cbeta:"):
        beta = ratfunc_from_string(field, text[len("cbeta:") :])
        if beta.is_zero():
            raise ParseError(text, len("cbeta:"), "beta must be nonzero")
        return drinfeld_rank1(field, beta)
    if text.startswith("tensorpower:"):
        arg = text[len("tensorpower:") :]
        try:
            n = int(arg)
        except ValueError:
            raise ParseError(text, len("tensorpower:"), "expected an integer") from None
        if n < 1:
            raise ParseError(text, len("tensorpower:"), "power must be >= 1")
        return carlitz_tensor_power(field, n)[0]
    if text.startswith("rank2:"):
        body = text[len("rank2:") :]
        parts = body.split(",")
        if len(parts) != 2:
            raise ParseError(text, len("rank2:"), "expected 'rank2:<g>,<delta>'")
        g = ratfunc_from_string(field, parts[0])
        delta = ratfunc_from_string(field, parts[1])
        if delta.is_zero():
            raise ParseError(text, text.index(",") + 1, "delta must be nonzero")
        return drinfeld_rank2(field, g, delta)
    raise ParseError(text, 0, "unknown object (carlitz | zeta | cbeta:<rational> | tensorpower:<n> | rank2:<g>,<delta>)")


# ---------------------------------------------------------------------------
# output helpers


def emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def json_block(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def csv_block(config: RunConfig, header: str, rows) -> str:
    lines = [f"# config: {json.dumps(config.echo(), sort_keys=True)}", header]
    lines.extend(rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def parse_i_range(text: str):
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise ParseError(text, 0, "expected '<lo>..<hi>'") from None
        if hi_i < lo_i:
            raise ParseError(text, len(lo) + 2, "range end is below its start")
        return range(lo_i, hi_i + 1)
    try:
        i = int(text)
    except ValueError:
        raise ParseError(text, 0, "expected an integer or '<lo>..<hi>'") from None
    return range(i, i + 1)


def cmd_special(config: RunConfig, kind: str, i_range, out_path) -> int:
    field = field_make(config.p, config.m)
    if i_range[0] < 0:
        raise BoundExceeded(f"negative index {i_range[0]} in range")
    _table_for(field, i_range[-1] + 1)  # one power-sum table for the whole range
    rows = []
    for i in i_range:
        sp = special_polynomial(field, i, kind)
        segs = newton_polygon(sp) if sp.deg >= 0 else []
        rows.append(
            {
                "i": i,
                "kind": kind,
                "polynomial": sp.to_string(),
                "degree": max(sp.deg, 0),
                "newton": [[str(s), int(l)] for s, l in segs],
            }
        )
    if config.fmt == "json":
        emit(json_block({"command": "special", "config": config.echo(), "rows": rows}), out_path)
    else:
        body = [
            ",".join(
                [
                    str(r["i"]),
                    r["kind"],
                    r["polynomial"],
                    str(r["degree"]),
                    ";".join(f"{s}:{l}" for s, l in r["newton"]),
                ]
            )
            for r in rows
        ]
        emit(csv_block(config, "i,kind,polynomial,degree,newton", body), out_path)
    return 0


def cmd_lfactors(config: RunConfig, object_text: str, out_path) -> int:
    field = field_make(config.p, config.m)
    obj = parse_object_spec(field, object_text)
    primes = primes_upto(field, config.dmax, config.cache, config.max_enum)
    rows = []
    for f in primes:
        try:
            lf = local_factor(obj, f)
            rows.append((f.to_string(), lf.denominator_string(), lf.provenance))
        except Unsupported:
            rows.append((f.to_string(), "UNSUPPORTED", "unsupported-bad-prime"))
    if config.fmt == "json":
        payload = {
            "command": "lfactors",
            "config": config.echo(),
            "object": object_text,
            "rows": [
                {"prime": a, "denominator": b, "provenance": c} for a, b, c in rows
            ],
        }
        emit(json_block(payload), out_path)
    else:
        body = [",".join(r) for r in rows]
        emit(csv_block(config, "prime,denominator,provenance", body), out_path)
    return 0


def cmd_classify(config: RunConfig, eigen_path: str, out_path) -> int:
    field = field_make(config.p, config.m)
    values = {}
    with open(eigen_path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "," not in line:
                raise ParseError(line, 0, f"line {lineno}: expected 'prime,value'")
            ptext, vtext = line.split(",", 1)
            prime = poly_from_string(field, ptext.strip())
            if not prime.is_monic() or not is_irreducible(prime):
                raise ParseError(line, 0, f"line {lineno}: key must be a monic prime of degree >= 1")
            value = ratfunc_from_string(field, vtext.strip())
            if value.is_zero():
                raise ParseError(line, len(ptext) + 1, f"line {lineno}: eigenvalue must be nonzero")
            values[prime] = value
    res = classify_eigen_system(EigenSystem(values), field)
    payload = {
        "command": "classify",
        "config": config.echo(),
        "verdict": res.verdict,
        "j": res.j,
        "j_mod_r_minus_1": res.j_mod_r_minus_1,
        "table": res.table,
        "note": res.note,
    }
    emit(json_block(payload), out_path)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ffzeta", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--r", default="2", help="field size as 'p' or 'p^m'")
        p.add_argument("--dmax", type=int, default=2, help="prime degree cutoff")
        p.add_argument("--prec", type=int, default=20, help="Laurent working precision")
        p.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
        p.add_argument("--cache", default=None, help="prime table cache directory")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument(
            "--max-enum",
            type=int,
            default=4096,
            help="enumeration bound for prime tables",
        )

    sp = sub.add_parser("special", help="special polynomials with Newton data")
    common(sp)
    sp.add_argument("--kind", choices=["zeta", "carlitz"], default="zeta")
    sp.add_argument("--i", dest="i_range", default="0..4", help="index range 'lo..hi'")

    lf = sub.add_parser("lfactors", help="local factor table for an object")
    common(lf)
    lf.add_argument("object", help="carlitz | zeta | cbeta:<rational> | tensorpower:<n> | rank2:<g>,<delta>")

    cl = sub.add_parser("classify", help="classify an eigen-system file")
    common(cl)
    cl.add_argument("eigenfile", help="CSV of 'prime,value' rows")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        p, m = parse_r(args.r)
        if args.dmax < 0:
            raise ParseError(str(args.dmax), 0, "--dmax must be nonnegative")
        config = RunConfig(
            r_text=args.r,
            p=p,
            m=m,
            dmax=args.dmax,
            prec=args.prec,
            fmt=args.fmt,
            cache=args.cache,
            max_enum=args.max_enum,
        )
        if args.command == "special":
            return cmd_special(config, args.kind, parse_i_range(args.i_range), args.out)
        if args.command == "lfactors":
            return cmd_lfactors(config, args.object, args.out)
        if args.command == "classify":
            return cmd_classify(config, args.eigenfile, args.out)
        raise AssertionError("unreachable")
    except (ParseError, BoundExceeded, InsufficientData, NotPrime, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FFZetaError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
