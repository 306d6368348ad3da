import json
import pathlib
import shutil
import time

import pytest

from ffzeta.cli import PrimeCache, main, parse_object_spec, parse_r
from ffzeta.errors import CacheCorrupt, NotPrime, ParseError
from ffzeta.ffield import field_make

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_r():
    assert parse_r("2") == (2, 1)
    assert parse_r("3") == (3, 1)
    assert parse_r("2^2") == (2, 2)
    with pytest.raises(NotPrime):
        parse_r("4")
    with pytest.raises(ParseError):
        parse_r("2^x")


def test_parse_object_spec_errors():
    F2 = field_make(2, 1)
    with pytest.raises(ParseError):
        parse_object_spec(F2, "nonsense")
    with pytest.raises(ParseError):
        parse_object_spec(F2, "tensorpower:0")
    with pytest.raises(ParseError):
        parse_object_spec(F2, "rank2:T")
    with pytest.raises(ParseError):
        parse_object_spec(F2, "cbeta:0")


@pytest.mark.parametrize(
    "golden,argv",
    [
        ("special_r2_carlitz_0_4.json", ["special", "--r", "2", "--kind", "carlitz", "--i", "0..4"]),
        ("special_r3_zeta_0.csv", ["special", "--r", "3", "--kind", "zeta", "--i", "0", "--format", "csv"]),
        ("lfactors_carlitz_r2_d2.csv", ["lfactors", "carlitz", "--dmax", "2", "--r", "2", "--format", "csv"]),
        ("lfactors_cbeta_r3_d1.csv", ["lfactors", "cbeta:(T+1)/T", "--dmax", "1", "--r", "3", "--format", "csv"]),
        ("lfactors_tp2_r2_d1.csv", ["lfactors", "tensorpower:2", "--dmax", "1", "--r", "2", "--format", "csv"]),
    ],
)
def test_golden_outputs(capsys, golden, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_classify_golden(capsys):
    code, out, _ = run(capsys, "classify", str(GOLDEN / "eigen_delta_r2.csv"), "--r", "2")
    assert code == 0
    assert out == (GOLDEN / "classify_delta_r2.json").read_text()


def test_determinism_across_runs(capsys, tmp_path):
    argv = ["lfactors", "carlitz", "--dmax", "2", "--r", "3", "--format", "csv"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_empty_range_succeeds(capsys):
    code, out, _ = run(capsys, "special", "--r", "2", "--i", "4..2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "i,kind,polynomial,degree,newton"  # header only


def test_classify_single_degree_exits_2(capsys, tmp_path):
    eigen = tmp_path / "eigen.csv"
    eigen.write_text("T,T\nT+1,T+1\n")
    code, _, err = run(capsys, "classify", str(eigen), "--r", "2")
    assert code == 2
    assert "two distinct" in err


def test_classify_zero_value_exits_2(capsys, tmp_path):
    eigen = tmp_path / "eigen.csv"
    eigen.write_text("T+1,T+1\nT,0\n")
    code, out, err = run(capsys, "classify", str(eigen), "--r", "2")
    assert code == 2
    assert out == ""
    assert "error:" in err and "line 2" in err


@pytest.mark.parametrize(
    "rows,bad_line",
    [
        ("1,1\nT,T\n", 1),  # constant key: degree 0
        ("T,T\nT^2,T^2\n", 2),  # reducible key
        ("2*T,T\nT^2+1,T^2+1\n", 1),  # irreducible but not monic
    ],
    ids=["constant", "reducible", "not-monic"],
)
def test_classify_non_prime_key_exits_2(capsys, tmp_path, rows, bad_line):
    eigen = tmp_path / "eigen.csv"
    eigen.write_text(rows)
    code, out, err = run(capsys, "classify", str(eigen), "--r", "3")
    assert code == 2
    assert out == ""
    assert "error:" in err and f"line {bad_line}" in err


def test_classify_chi_witness_file(capsys, tmp_path):
    # generated from chi_beta(-theta, .): values c_P^{-1} * P
    from ffzeta.poly import monic_irreducibles, poly_from_string
    from ffzeta.sheaf import chi_beta
    from ffzeta.poly import RatFunc, ratfunc_from_string

    F3 = field_make(3, 1)
    beta = ratfunc_from_string(F3, "2*T")
    lines = []
    for P in monic_irreducibles(F3, 2):
        if (P % poly_from_string(F3, "T")).is_zero():
            continue
        c = chi_beta(beta, P).value
        val = RatFunc.const(F3, F3.inv(c)) * RatFunc.from_poly(P)
        lines.append(f"{P.to_string()},{val.to_string()}")
    eigen = tmp_path / "eigen.csv"
    eigen.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "classify", str(eigen), "--r", "3")
    assert code == 0
    assert '"verdict": "ClassIWitness"' in out
    assert "values depend only on f mod T" in out


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "lfactors", "bogus:thing", "--r", "2")
    assert code == 2
    assert "error:" in err


def test_negative_dmax_exit_2(capsys):
    code, out, err = run(capsys, "lfactors", "carlitz", "--dmax", "-1")
    assert code == 2
    assert out == ""
    assert "error:" in err and "--dmax" in err


def test_bound_exceeded_names_bound(capsys):
    code, _, err = run(capsys, "lfactors", "carlitz", "--r", "2", "--dmax", "13")
    assert code == 2
    assert "max_enum" in err


def test_lfactors_rank2_degree_5_over_f2(capsys):
    code, out, err = run(capsys, "lfactors", "rank2:T,1", "--r", "2", "--dmax", "5", "--format", "csv")
    assert code == 0, err
    rows = out.strip().splitlines()[2:]
    assert len(rows) == 14  # monic primes of degree <= 5 over F_2
    assert all(row.endswith(",rank2-charpoly") for row in rows)


def test_lfactors_rank2_over_f5_finishes(capsys):
    from ffzeta.poly import poly_from_string

    F5 = field_make(5, 1)
    t0 = time.time()
    code, out, err = run(capsys, "lfactors", "rank2:T,1", "--r", "5", "--dmax", "3", "--format", "json")
    elapsed = time.time() - t0
    assert code == 0, err
    assert elapsed < 30, f"r = 5, dmax = 3 took {elapsed:.1f}s"
    rows = json.loads(out)["rows"]
    assert len(rows) == 5 + 10 + 40
    for row in rows:
        # denominator 1 - a*u + mu*f*u^2: read a and mu*f from the string
        f = poly_from_string(F5, row["prime"])
        terms = _denominator_terms(F5, row["denominator"])
        a = -terms.get(1, poly_from_string(F5, "0"))
        muf = terms[2]
        assert a.deg <= f.deg // 2, row
        assert muf.deg == f.deg and muf == f.scale(muf.lc()), row


def _denominator_terms(field, text):
    """u-power -> coefficient of a denominator string such as 1+u+(T+1)*u^2."""
    from ffzeta.poly import poly_from_string

    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text + "+"):
        depth += (ch == "(") - (ch == ")")
        if ch == "+" and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    out = {}
    for part in parts:
        if "u" not in part:
            out[0] = poly_from_string(field, part)
            continue
        coeff, _, upart = part.rpartition("*")
        j = int(upart[2:]) if upart.startswith("u^") else 1
        out[j] = poly_from_string(field, coeff.strip("()") or "1")
    return out


def test_cache_round_trip_and_corruption(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    argv = [
        "lfactors", "carlitz", "--r", "2", "--dmax", "2",
        "--format", "csv", "--cache", str(cache_dir),
    ]
    _, out1, _ = run(capsys, *argv)
    files = sorted(p.name for p in cache_dir.iterdir())
    assert files == ["primes_r2_d1.txt", "primes_r2_d2.txt"]
    # deleting the cache reproduces identical tables and output
    shutil.rmtree(cache_dir)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    # corruption is detected and recovered from
    target = cache_dir / "primes_r2_d2.txt"
    target.write_text(target.read_text().replace("T^2+T+1", "T^2+1"))
    _, out3, err3 = run(capsys, *argv)
    assert out3 == out1
    assert "recomputing" in err3


def test_cache_checksum_verifies(tmp_path):
    F2 = field_make(2, 1)
    cache = PrimeCache(tmp_path)
    from ffzeta.poly import _irreducibles_of_degree

    cache.store(F2, 2, _irreducibles_of_degree(F2, 2))
    assert [p.to_string() for p in cache.load(F2, 2)] == ["T^2+T+1"]
    path = tmp_path / "primes_r2_d2.txt"
    body = path.read_text().splitlines()
    body[0] = body[0].replace("count=1", "count=7")
    path.write_text("\n".join(body) + "\n")
    with pytest.raises(CacheCorrupt):
        cache.load(F2, 2)


def test_out_file(tmp_path, capsys):
    out_file = tmp_path / "x.json"
    code = main(["special", "--r", "2", "--i", "0", "--out", str(out_file)])
    assert code == 0
    assert out_file.read_text().startswith("{")


def _foreign_d1_file(cache_dir, capsys):
    # the degree-2 table copied over the degree-1 one: a valid file for another d
    run(capsys, "lfactors", "carlitz", "--r", "2", "--dmax", "2", "--cache", str(cache_dir))
    shutil.copy(cache_dir / "primes_r2_d2.txt", cache_dir / "primes_r2_d1.txt")


def _foreign_r_file(cache_dir, capsys):
    # the r = 3 table copied over the r = 2 one
    run(capsys, "lfactors", "carlitz", "--r", "3", "--dmax", "1", "--cache", str(cache_dir))
    cache_dir.joinpath("primes_r2_d1.txt").write_text(cache_dir.joinpath("primes_r3_d1.txt").read_text())


def _header_token_without_equals(cache_dir, capsys):
    run(capsys, "lfactors", "carlitz", "--r", "2", "--dmax", "2", "--cache", str(cache_dir))
    path = cache_dir / "primes_r2_d2.txt"
    path.write_text(path.read_text().replace(" count=", " junk count=", 1))


def _count_not_a_number(cache_dir, capsys):
    import re

    run(capsys, "lfactors", "carlitz", "--r", "2", "--dmax", "2", "--cache", str(cache_dir))
    path = cache_dir / "primes_r2_d2.txt"
    path.write_text(re.sub(r"count=\d+", "count=x", path.read_text(), count=1))


def _entry_of_wrong_degree(cache_dir, capsys):
    # checksum and count are consistent, but T is no prime of degree 2
    from ffzeta.poly import poly_from_string

    F2 = field_make(2, 1)
    PrimeCache(cache_dir).store(F2, 2, [poly_from_string(F2, "T^2+T+1"), poly_from_string(F2, "T")])


@pytest.mark.parametrize(
    "spoil",
    [_foreign_d1_file, _foreign_r_file, _header_token_without_equals, _count_not_a_number, _entry_of_wrong_degree],
    ids=["foreign-d", "foreign-r", "token-without-equals", "count-not-a-number", "entry-of-wrong-degree"],
)
def test_cache_rejects_foreign_or_malformed_file(tmp_path, capsys, spoil):
    cache_dir = tmp_path / "cache"
    argv = ["lfactors", "carlitz", "--r", "2", "--dmax", "2", "--format", "csv", "--cache", str(cache_dir)]
    _, uncached, _ = run(capsys, *argv)  # into an empty cache, so nothing is loaded
    shutil.rmtree(cache_dir)
    cache_dir.mkdir()
    spoil(cache_dir, capsys)
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == uncached
    assert "recomputing" in err
