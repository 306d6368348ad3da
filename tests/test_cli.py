import hashlib
import json
import pathlib
import shutil
import time

import pytest

from ffzeta.cli import PrimeCache, main, parse_i_range, parse_object_spec, parse_r
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


def test_reversed_range_exits_2(capsys):
    # a reversed range is a precondition failure, not an empty answer
    with pytest.raises(ParseError):
        parse_i_range("5..2")
    assert list(parse_i_range("2..2")) == [2]
    code, out, err = run(capsys, "special", "--r", "3", "--i", "5..2")
    assert code == 2
    assert out == ""
    assert "error:" in err and "5..2" in err


# sha256 of stdout, recorded from the implementation that built every power
# sum pair by pair and formatted Polys term by term; they pin the output of
# the faster routes, so never regenerate them from the code under test
SPECIAL_DIGESTS = [
    (["--r", "3", "--format", "csv", "--i", "0..400"],
     "e19a72a29e1a214c942e9a9139ef108f4d031e881d1ce5bc86c36a3e83bd1c47"),
    (["--r", "2^2", "--i", "0..250"],
     "44919b9f16ab0c12bd5425bd0510cc4e7475bfb63018cbf3cf29aa6e51112bbd"),
    (["--r", "5", "--kind", "carlitz", "--format", "json", "--i", "0..200"],
     "bb29ece136eee60303988f5783460befe86e621684fbab0e87d852cefea2f18d"),
    (["--r", "3^2", "--i", "0..200"],
     "cb23baa68f57bf4e9f3f9294e3d9df25a0dad3a628cde48ee8110544ab5a72b1"),
    # S_2(168) at r = 13 once wrapped an int8 row
    (["--r", "13", "--i", "0..340"],
     "f2f3efba4a3b4980f72fd6e2289c2e188d4f6085b31ad9064c80d8e7b35a6e85"),
    (["--r", "2", "--kind", "carlitz", "--i", "0..300"],
     "541b687b95e274d3fd007182ae8778a56ba02d6696372c3e4a04dff1a65d6b50"),
]


@pytest.mark.parametrize("argv,digest", SPECIAL_DIGESTS, ids=[" ".join(a) for a, _ in SPECIAL_DIGESTS])
def test_special_output_digests(capsys, argv, digest):
    code, out, err = run(capsys, "special", *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def _reducible_entry(cache_dir, capsys):
    # checksum and count are consistent, but T^2 is reducible
    from ffzeta.poly import poly_from_string

    F2 = field_make(2, 1)
    PrimeCache(cache_dir).store(F2, 2, [poly_from_string(F2, "T^2+T+1"), poly_from_string(F2, "T^2")])


def _repeated_entry(cache_dir, capsys):
    from ffzeta.poly import poly_from_string

    F2 = field_make(2, 1)
    PrimeCache(cache_dir).store(F2, 2, [poly_from_string(F2, "T^2+T+1")] * 2)


def _swapped_entries(cache_dir, capsys):
    # both primes of degree 3, out of order
    from ffzeta.poly import poly_from_string

    F2 = field_make(2, 1)
    PrimeCache(cache_dir).store(F2, 3, [poly_from_string(F2, "T^3+T^2+1"), poly_from_string(F2, "T^3+T+1")])


@pytest.mark.parametrize(
    "spoil",
    [_reducible_entry, _repeated_entry, _swapped_entries],
    ids=["reducible-entry", "repeated-entry", "swapped-entries"],
)
def test_cache_rejects_a_wrong_prime_list(tmp_path, capsys, spoil):
    cache_dir = tmp_path / "cache"
    argv = ["lfactors", "carlitz", "--r", "2", "--dmax", "3", "--format", "csv", "--cache", str(cache_dir)]
    _, uncached, _ = run(capsys, *argv)  # into an empty cache, so nothing is loaded
    shutil.rmtree(cache_dir)
    cache_dir.mkdir()
    spoil(cache_dir, capsys)
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == uncached
    assert "recomputing" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["lfactors", "cbeta:(T+1)/T", "--r", "2", "--dmax", "6"],
        ["lfactors", "tensorpower:2", "--r", "3", "--dmax", "3"],
    ],
    ids=["cbeta", "tensorpower"],
)
def test_rank1_rows_take_no_bareiss_route(capsys, monkeypatch, argv):
    # the Bareiss determinant is the resultant's test oracle only
    import ffzeta.poly

    _, expected, _ = run(capsys, *argv)

    def refuse(*args):
        raise AssertionError("bareiss_det reached from production code")

    monkeypatch.setattr(ffzeta.poly, "bareiss_det", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == expected
