"""Command-line surface: special polynomials, local factor tables, and the
eigen-system classifier.

Outputs are deterministic byte-for-byte for a fixed configuration: rows are
sorted, JSON keys are sorted, and the configuration is echoed verbatim into
every artifact.  ``special`` streams: it writes each row as it is made,
with the same bytes as one block; every check comes first, so an error
before the first row leaves stdout empty and creates no ``--out`` file.
Exit codes: 0 definite result (including NoMatch), 1 internal error, 2
precondition failure (a bad argument or input file, or an OS error on a
file the command reads or writes).

Argument parsing: ``_parse_argv`` reads the canonical ``--flag value`` form
from the option table ``_COMMANDS``; argparse, built from the same table, is
loaded only for ``--help``, errors and the other spellings it accepts.

Output: ``special`` and ``lfactors`` write both formats through one writer,
``_write_table``.  ``lfactors`` computes all its rows before the output
opens, so a failure on any prime leaves stdout empty and no ``--out`` file.
``special`` sizes the one power-sum table its range needs before the output
opens: it holds the indices digit-dominated by the range's k, and its work,
estimated from their digits, is refused past ``lseries.WORK_LIMIT`` (exit 2).
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import sys
from types import SimpleNamespace

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
    EigenSystem,
    ZetaA,
    _table_for,
    classify_eigen_system,
    local_factor,
    newton_polygon,
    special_polynomial,
)
from .ore import carlitz, drinfeld_rank1, drinfeld_rank2
from .poly import (
    _irreducibles_of_degree,
    is_irreducible,
    poly_from_string,
    ratfunc_from_string,
)
from .sheaf import carlitz_tensor_power


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
        import hashlib

        return hashlib.sha256("\n".join(entries).encode()).hexdigest()

    def load(self, field, d: int):
        path = self._path(field.q, d)
        if not path.exists():
            return None
        try:
            lines = path.read_text().splitlines()
        except UnicodeDecodeError as exc:
            raise CacheCorrupt(f"{path}: not {exc.encoding} text") from None
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


def primes_upto(field, d_max: int, cache_dir, max_enum: int):
    if field.q**d_max > max_enum:
        raise BoundExceeded(
            f"prime enumeration at degree {d_max} needs {field.q**d_max} "
            f"candidates, above max_enum={max_enum}"
        )
    cache = PrimeCache(cache_dir) if cache_dir else None
    out = []
    for d in range(1, d_max + 1):
        primes = None
        if cache:
            try:
                primes = cache.load(field, d)
            except CacheCorrupt as exc:
                print(f"warning: {exc}; recomputing", file=sys.stderr)
        if primes is None:
            primes = _irreducibles_of_degree(field, d)
            if cache:
                cache.store(field, d, primes)
        out.extend(primes)
    return out


# ---------------------------------------------------------------------------
# object-spec parsing for lfactors


def parse_object_spec(field, text: str):
    if text == "carlitz":
        return carlitz(field)
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


def _output(out_path):
    """The ``--out`` file opened for writing, or stdout, left open on exit."""
    return open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout)


def json_block(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _echo(args) -> dict:
    """The run's configuration as every artifact echoes it: each common option but ``--out``, keyed by its
    flag without ``--`` and with ``_`` for ``-``."""
    return {flag[2:].replace("-", "_"): getattr(args, opt[0]) for flag, opt in _COMMON.items() if flag != "--out"}


def csv_block(args, header: str) -> str:
    return f"# config: {json.dumps(_echo(args), sort_keys=True)}\n{header}\n"


def _write_table(args, head: dict, columns: str, rows) -> None:
    """Write a table to ``--out`` or stdout: the head, each row text as ``rows`` yields it (laid out
    as ``json_block`` lays out a row, or as one CSV line), then the close.  The bytes are those of
    ``json_block`` of ``head`` with the config and all the rows, or of the CSV block of ``columns``."""
    if args.fmt == "json":
        # "rows" sorts after every other head key, so its empty list ends the text and the rows go there
        text = json_block({**head, "config": _echo(args), "rows": []}).removesuffix("[]\n}\n")
        start, sep, close, empty = "[\n", ",\n", "\n  ]\n}\n", "[]\n}\n"
    else:
        text = csv_block(args, columns)
        start, sep, close, empty = "", "\n", "\n", ""
    with _output(args.out) as fh:
        write = fh.write
        write(text)
        for row in rows:
            write(start)  # two writes: the separator joined to a long row would copy the row once more
            write(row)
            start = sep
        write(close if start is sep else empty)


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


# a special row, a Newton segment (slope, length) and an lfactors row as
# ``json_block`` lays them out inside its "rows" list; a slope prints as text
_JSON_ROW = ('    {\n      "degree": %d,\n      "i": %d,\n      "kind": %s,\n      "newton": %s,\n'
             '      "polynomial": %s\n    }')
_JSON_SEGMENT = '\n        [\n          "%s",\n          %d\n        ]'
_JSON_LFACTOR = '    {\n      "denominator": %s,\n      "prime": %s,\n      "provenance": %s\n    }'


def cmd_special(args, field) -> int:
    kind, i_range = args.kind, args.i_range
    if i_range[0] < 0:
        raise BoundExceeded(f"negative index {i_range[0]} in range")
    shift = kind == "carlitz"  # the row at i holds S_e(i + 1)
    _table_for(field, range(i_range[0] + shift, i_range[-1] + shift + 1))  # bounded, before --out opens
    kind_json = json.dumps(kind)

    def row(i: int) -> str:
        sp = special_polynomial(field, i, kind)
        text, deg, segs = sp.to_string(), max(sp.deg, 0), newton_polygon(sp) if sp.deg >= 0 else []
        if args.fmt == "csv":
            return f"{i},{kind},{text},{deg},{';'.join(map('%s:%d'.__mod__, segs))}"
        newton = f"[{','.join(map(_JSON_SEGMENT.__mod__, segs))}\n      ]" if segs else "[]"
        return _JSON_ROW % (deg, i, kind_json, newton, json.dumps(text))

    _write_table(args, {"command": "special"}, "i,kind,polynomial,degree,newton", map(row, i_range))
    return 0


def cmd_lfactors(args, field) -> int:
    obj = parse_object_spec(field, args.object)
    rows = []  # (prime, denominator, provenance), all made before the output opens
    for f in primes_upto(field, args.dmax, args.cache, args.max_enum):
        try:
            lf = local_factor(obj, f)
            rows.append((f.to_string(), lf.denominator_string(), lf.provenance))
        except Unsupported:
            rows.append((f.to_string(), "UNSUPPORTED", "unsupported-bad-prime"))
    dumps = json.dumps
    texts = map(",".join, rows) if args.fmt == "csv" else (
        _JSON_LFACTOR % (dumps(den), dumps(prime), dumps(prov)) for prime, den, prov in rows)
    _write_table(args, {"command": "lfactors", "object": args.object}, "prime,denominator,provenance", texts)
    return 0


def cmd_classify(args, field) -> int:
    eigen_path = args.eigenfile
    values = {}
    with open(eigen_path) as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ParseError(eigen_path, 0, f"eigen file is not {exc.encoding} text") from None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "," not in line:
            raise ParseError(line, 0, f"line {lineno}: expected 'prime,value'")
        ptext, vtext = line.split(",", 1)
        prime = poly_from_string(field, ptext.strip())
        if not prime.is_monic() or not is_irreducible(prime):
            raise ParseError(line, 0, f"line {lineno}: key must be a monic prime of degree >= 1")
        if prime in values:
            raise ParseError(line, 0, f"line {lineno}: prime {prime.to_string()} is listed twice")
        value = ratfunc_from_string(field, vtext.strip())
        if value.is_zero():
            raise ParseError(line, len(ptext) + 1, f"line {lineno}: eigenvalue must be nonzero")
        values[prime] = value
    res = classify_eigen_system(EigenSystem(values), field)
    payload = {
        "command": "classify",
        "config": _echo(args),
        "verdict": res.verdict,
        "j": res.j,
        "j_mod_r_minus_1": res.j_mod_r_minus_1,
        "table": res.table,
        "note": res.note,
    }
    with _output(args.out) as fh:
        fh.write(json_block(payload))
    return 0


# ---------------------------------------------------------------------------
# entry point


# the options of every subcommand: flag -> (dest, type, choices, default, help)
_COMMON = {
    "--r": ("r", str, None, "2", "field size as 'p' or 'p^m'"),
    "--dmax": ("dmax", int, None, 2, "prime degree cutoff"),
    "--prec": ("prec", int, None, 20, "Laurent working precision"),
    "--format": ("fmt", str, ("json", "csv"), "json", None),
    "--cache": ("cache", str, None, None, "prime table cache directory"),
    "--out": ("out", str, None, None, "output file (default stdout)"),
    "--max-enum": ("max_enum", int, None, 4096, "enumeration bound for prime tables"),
}
# subcommand -> (handler, help, options, positionals as (dest, help) pairs)
_COMMANDS = {
    "special": (cmd_special, "special polynomials with Newton data", {
        **_COMMON,
        "--kind": ("kind", str, ("zeta", "carlitz"), "zeta", None),
        "--i": ("i_range", str, None, "0..4", "index range 'lo..hi'"),
    }, ()),
    "lfactors": (cmd_lfactors, "local factor table for an object", _COMMON,
                 (("object", "carlitz | zeta | cbeta:<rational> | tensorpower:<n> | rank2:<g>,<delta>"),)),
    "classify": (cmd_classify, "classify an eigen-system file", _COMMON,
                 (("eigenfile", "CSV of 'prime,value' rows"),)),
}


def build_parser():
    """The argparse parser of the grammar in ``_COMMANDS``: the one source of help and error text."""
    import argparse

    # the help text is the docstring up to its note on parsing (none under python -OO)
    ap = argparse.ArgumentParser(prog="ffzeta", description=__doc__ and __doc__.partition("\n\nArgument parsing")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options, positionals) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, (dest, typ, choices, default, help_opt) in options.items():
            sp.add_argument(flag, dest=dest, type=typ, choices=choices, default=default, help=help_opt)
        for dest, help_pos in positionals:
            sp.add_argument(dest, help=help_pos)
    return ap


def _parse_argv(argv):
    """``build_parser().parse_args(argv)`` for argv in canonical form: a subcommand, its exact long flags
    each with a value not starting with '-', and its positionals; None for any other argv."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, _, options, positionals = _COMMANDS[argv[0]]
    args = {"command": argv[0], **{dest: default for dest, _, _, default, _ in options.values()}}
    rest = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            rest.append(token)
            continue
        value = next(tokens, "-")  # a missing value is refused like a flag
        if token not in options or value.startswith("-"):
            return None
        dest, typ, choices, _, _ = options[token]
        try:
            args[dest] = typ(value)
        except ValueError:
            return None
        if choices and args[dest] not in choices:
            return None
    if len(rest) != len(positionals):
        return None
    args.update(zip((dest for dest, _ in positionals), rest))
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    # what the imports built lives for the whole run: frozen once, it is
    # not traversed again by every garbage collection the command triggers
    if not gc.get_freeze_count():
        gc.freeze()
    argv = sys.argv[1:] if argv is None else argv
    # argparse parses only what the canonical form leaves: help, errors, other spellings
    args = _parse_argv(argv) or build_parser().parse_args(argv)
    try:
        p, m = parse_r(args.r)
        if args.dmax < 0:
            raise ParseError(str(args.dmax), 0, "--dmax must be nonnegative")
        if args.command == "special":  # parsed before the field is made, so a bad --i is reported first
            args.i_range = parse_i_range(args.i_range)
        return _COMMANDS[args.command][0](args, field_make(p, m))
    except (ParseError, BoundExceeded, InsufficientData, NotPrime, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FFZetaError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
