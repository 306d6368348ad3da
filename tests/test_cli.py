import contextlib
import gc
import hashlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ffzeta
import ffzeta.cli as cli
from ffzeta import lseries
from ffzeta.cli import PrimeCache, main, parse_i_range, parse_object_spec, parse_r
from ffzeta.errors import CacheCorrupt, FFZetaError, NotPrime, ParseError
from ffzeta.ffield import field_make
from ffzeta.poly import Poly

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
        # an empty table: no prime of degree <= 0
        ("lfactors_carlitz_r2_d0.json", ["lfactors", "carlitz", "--r", "2", "--dmax", "0"]),
        ("lfactors_carlitz_r2_d0.csv", ["lfactors", "carlitz", "--r", "2", "--dmax", "0", "--format", "csv"]),
    ],
)
def test_golden_outputs(capsys, golden, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def exits(capsys, *argv):
    with pytest.raises(SystemExit) as caught:
        main(list(argv))
    out = capsys.readouterr()
    return caught.value.code, out.out, out.err


@pytest.mark.parametrize("command", ["ffzeta", "special", "lfactors", "classify"])
def test_help_text(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [] if command == "ffzeta" else [command]
    assert exits(capsys, *argv, "--help") == (0, (GOLDEN / f"help_{command}.txt").read_text(), "")


def test_help_without_docstrings():
    # python -OO strips the module docstring that the top-level help prints
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ffzeta.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-OO", "-m", "ffzeta.cli", "--help"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ffzeta [-h]")


_USAGE = "usage: ffzeta [-h] {special,lfactors,classify} ...\n"
_LFACTORS_USAGE = """\
usage: ffzeta lfactors [-h] [--r R] [--dmax DMAX] [--prec PREC]
                       [--format {json,csv}] [--cache CACHE] [--out OUT]
                       [--max-enum MAX_ENUM]
                       object
"""


@pytest.mark.parametrize(
    "argv,err",
    [
        (["frobnicate"], _USAGE + "ffzeta: error: argument command: invalid choice: 'frobnicate' "
                                  "(choose from 'special', 'lfactors', 'classify')\n"),
        (["lfactors"], _LFACTORS_USAGE + "ffzeta lfactors: error: the following arguments are required: object\n"),
        (["lfactors", "carlitz", "extra"], _USAGE + "ffzeta: error: unrecognized arguments: extra\n"),
        (["lfactors", "carlitz", "--format", "xml"],
         _LFACTORS_USAGE + "ffzeta lfactors: error: argument --format: invalid choice: 'xml' (choose from 'json', 'csv')\n"),
        (["lfactors", "carlitz", "--dmax", "x"],
         _LFACTORS_USAGE + "ffzeta lfactors: error: argument --dmax: invalid int value: 'x'\n"),
    ],
    ids=["unknown-command", "missing-object", "extra-positional", "bad-choice", "bad-int"],
)
def test_argument_errors_exit_2(capsys, monkeypatch, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert exits(capsys, *argv) == (2, "", err)


def test_abbreviated_flag_means_the_full_flag(capsys):
    full = run(capsys, "special", "--r", "3", "--i", "0..2", "--dmax", "5")
    assert run(capsys, "special", "--r", "3", "--i", "0..2", "--dm", "5") == full
    assert full[0] == 0 and full[1]


# argv pieces: a value for every flag, positionals, and tokens off the
# canonical form (abbreviations, --flag=value, help, --, a flag without its
# value, negative ints, stray words)
_PAIRS = [("--r", "3"), ("--r", "2^2"), ("--dmax", "2"), ("--prec", "0"), ("--format", "csv"), ("--format", "json"),
          ("--cache", ""), ("--out", "o"), ("--max-enum", "99"), ("--kind", "carlitz"), ("--i", "0..4")]
_WORDS = ["carlitz", "cbeta:(T+1)/T", "rank2:T,1", "", "0..4"]
_ODD = ["special", "frobnicate", "--dm", "--form", "--dmax=3", "--format=csv", "-h", "--help", "--", "-1", "12",
        "x", "xml", "zeta", "--kind", "--r", "--i", "--max-enum"]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["special", "lfactors", "classify"]),
    st.lists(st.sampled_from(_PAIRS), max_size=3),
    st.lists(st.sampled_from(_WORDS), max_size=2),
    st.lists(st.sampled_from(_ODD), max_size=1),
    st.integers(0, 3),
    st.integers(0, 8),
)
def test_fast_parser_agrees_with_argparse(command, pairs, positionals, odd, k, j):
    argv = [token for pair in pairs for token in pair]
    argv[2 * k:2 * k] = positionals  # between two flag-value pairs
    argv[j:j] = odd  # anywhere, even between a flag and its value
    argv.insert(0, command)
    fast = cli._parse_argv(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            full = vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        full = None  # argparse refused the argv or printed help: the fast path must refuse it too
    assert fast is None or vars(fast) == full, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["special", "--kind", "zeta", "--format", "csv", "--i", "3..9", "--r", "3"],
        ["lfactors", "cbeta:(T+1)/T", "--format", "csv", "--dmax", "2", "--r", "2^2"],
        ["lfactors", "rank2:T,1", "--format", "csv", "--dmax", "2", "--r", "3"],
        ["lfactors", "carlitz", "--dmax", "2", "--r", "2", "--format", "csv"],
        ["classify", str(GOLDEN / "eigen_delta_r2.csv"), "--r", "2"],
    ],
    ids=["special", "cbeta", "rank2", "carlitz", "classify"],
)
def test_canonical_argv_runs_without_argparse(capsys, monkeypatch, argv):
    # the benchmark's and the goldens' argv shapes never build the argparse parser
    def refuse():
        raise AssertionError("argparse parser built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out


def test_import_loads_no_numpy():
    # every command starts by importing the CLI: numpy is only a test oracle,
    # dataclasses (with inspect), hashlib, fractions (with decimal) and
    # argparse (with gettext and locale) cost each run start-up time
    src = pathlib.Path(ffzeta.__file__).resolve().parents[1]
    heavy = ("numpy", "dataclasses", "inspect", "hashlib", "_hashlib", "fractions", "decimal",
             "argparse", "gettext", "locale")
    code = f"import sys, ffzeta, ffzeta.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_main_freezes_the_imported_objects_once(capsys):
    # a second command in the same process freezes nothing more, so the
    # garbage of one command never becomes immortal in the next
    run(capsys, "special", "--r", "3", "--i", "0..2")
    frozen = gc.get_freeze_count()
    assert frozen > 0
    run(capsys, "special", "--r", "3", "--i", "0..2")
    assert gc.get_freeze_count() == frozen


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
    # recorded from the packed table printed through one Poly per
    # coefficient: 8-bit slots at p = 7, 16-bit slots at p = 11, and r = 8
    (["--r", "7", "--format", "csv", "--i", "0..300"],
     "45c3af05c1634cda8a7f93ce81bdaa9589fdf39fc0c4c65667334ee2dad6e40d"),
    (["--r", "11", "--i", "0..200"],
     "31b0274d417aaf8b2b4c511b05b9fd3c44b6f37c8031183c58d0dfa36cb8ba20"),
    (["--r", "2^3", "--kind", "carlitz", "--format", "csv", "--i", "0..200"],
     "9f73011dcbdf1d5ddf83a99555d81e6ca792c36b63ab24e2cc165032e8417835"),
    # recorded from the dense table: r = 16 has step r - 1 = 15, the widest
    # stride of the table's live residue class that the CLI reaches
    (["--r", "2^4", "--i", "0..300"],
     "bb7b510ce8dfe88189dc7e336034a0e1a763926c2dc9391005a7d9c7e85252dd"),
    (["--r", "2^4", "--kind", "carlitz", "--format", "json", "--i", "0..300"],
     "90045e3a619d7b270634307e79f6ff2fb56888a075c8b604ab1e788e555febd4"),
]


@pytest.mark.parametrize("argv,digest", SPECIAL_DIGESTS, ids=[" ".join(a) for a, _ in SPECIAL_DIGESTS])
def test_special_output_digests(capsys, argv, digest):
    code, out, err = run(capsys, "special", *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout, recorded from the implementation that took each rank-1
# eigenvalue from the tau-sheaf of the good twist by two resultants; they
# pin the norm route, so never regenerate them from the code under test.
# The twisted betas meet twists (j != 0) and bad primes.
CBETA_DIGESTS = [
    (["cbeta:(T+1)/T", "--r", "2", "--dmax", "9"],
     "bc3b4717ab796c4cad5019f2fed12a448adeab114ea3ab5752c9ce14d2ff4812"),
    (["cbeta:(T+2)/T", "--r", "2^2", "--dmax", "5"],
     "17caacf2b45f2c4e18dd44e8e62ad916df01bf6a8ee7d64fc0ac797e419840da"),
    (["cbeta:T^2/(T+1)", "--r", "3", "--dmax", "6", "--format", "csv"],
     "787422dc3920dda16bcadcb27bbaecea8bb591a73e62ca6e6370845da306682d"),
    (["cbeta:T^3/(T+1)", "--r", "2^2", "--dmax", "3"],
     "47bf408c1dfb61f1dc9c1e48c1b81e7f7dccd4d3b81981bd5d11c13fa8a0df4d"),
    (["cbeta:T^4/(T^2+2)", "--r", "5", "--dmax", "3", "--format", "csv"],
     "4293416b9d570d161036e86bc4db4ee372daf198b19ad27990b6683ce1e781c1"),
    (["cbeta:(T+3)/T^6", "--r", "7", "--dmax", "2"],
     "daec8ca375cc7399a6d9c06b5a555a30be9f4d555da8aa9a26918362036e4cfc"),
]


@pytest.mark.parametrize("argv,digest", CBETA_DIGESTS, ids=[" ".join(a) for a, _ in CBETA_DIGESTS])
def test_cbeta_output_digests(capsys, argv, digest):
    code, out, err = run(capsys, "lfactors", *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout at r = 2, recorded from the implementation that indexed
# F_2's operation tables one coefficient at a time in the norm and the
# rank-2 Hasse recursion; they pin the bit-packed F_2[T] kernels, so never
# regenerate them from the code under test
R2_DIGESTS = [
    (["rank2:0,1", "--r", "2", "--dmax", "10", "--format", "csv"],
     "216d55405dca4bcea178bc829b062519f696cc5dcdd4b1881b96ef06553f89fa"),
    (["carlitz", "--r", "2", "--dmax", "9"],
     "b860ad483c8f8b9ee9a48fed95cc2fab260341d9581f68955786266e7347b3cc"),
    (["cbeta:T/(T+1)", "--r", "2", "--dmax", "8", "--format", "csv"],
     "7fe2b8ee6b097cff94961788e862e027eea180be61a462f41e0c62d4cce29f94"),
]


@pytest.mark.parametrize("argv,digest", R2_DIGESTS, ids=[" ".join(a) for a, _ in R2_DIGESTS])
def test_r2_output_digests(capsys, argv, digest):
    code, out, err = run(capsys, "lfactors", *argv)
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


def test_classify_non_utf8_file_exits_2(capsys, tmp_path):
    eigen = tmp_path / "eigen.csv"
    eigen.write_bytes(b"\xff\xfeT,T\n")
    code, out, err = run(capsys, "classify", str(eigen), "--r", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(eigen) in err


def test_classify_repeated_prime_exits_2(capsys, tmp_path):
    # without its third line the file is ClassIITranslate; a repeat of T,
    # even written another way, must not silently overwrite the first value
    eigen = tmp_path / "eigen.csv"
    for repeat in ("T,1", "1*T,1"):
        eigen.write_text(f"T,T\nT+1,T+1\n{repeat}\nT^2+T+1,T^2+T+1\n")
        code, out, err = run(capsys, "classify", str(eigen), "--r", "2")
        assert code == 2, repeat
        assert out == ""
        assert "error:" in err and "line 3" in err and "twice" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "{dir}", "--r", "2"],
        ["lfactors", "carlitz", "--r", "2", "--out", "{dir}"],
    ],
    ids=["eigen-file", "out"],
)
def test_directory_as_cli_file_exits_2(capsys, tmp_path, argv):
    code, out, err = run(capsys, *[a.format(dir=tmp_path) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(tmp_path) in err


def test_lfactors_flags_unsupported_rows(capsys):
    # a rank-2 bad prime is a row of its own: flagged, nothing dropped
    code, out, err = run(capsys, "lfactors", "rank2:0,1/T", "--r", "2", "--dmax", "1", "--format", "csv")
    assert code == 0, err
    assert out.splitlines()[1:] == [
        "prime,denominator,provenance",
        "T,UNSUPPORTED,unsupported-bad-prime",
        "T+1,1+(T+1)*u^2,rank2-charpoly",
    ]


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_lfactors_failure_leaves_no_artifact(capsys, monkeypatch, tmp_path, to_file):
    # every row is computed before the output opens, so a failure on the
    # third prime leaves stdout empty and creates no --out file
    real, calls = cli.local_factor, []

    def failing(obj, f):
        calls.append(f)
        if len(calls) == 3:
            raise FFZetaError(f"injected failure at {f.to_string()}")
        return real(obj, f)

    monkeypatch.setattr(cli, "local_factor", failing)
    out_file = tmp_path / "rows.json"
    code, out, err = run(capsys, "lfactors", "carlitz", "--r", "2", "--dmax", "3",
                         *(["--out", str(out_file)] if to_file else []))
    assert code == 1
    assert out == ""
    assert err.startswith("internal error: injected failure")
    assert len(calls) == 3
    assert list(tmp_path.iterdir()) == []


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


_R_BOUND = "error: r = 17^1 exceeds the configured bound 16\n"


@pytest.mark.parametrize(
    "argv,err",
    [
        (["special", "--r", "17", "--dmax", "-1"], "error: parse error at position 0: --dmax must be nonnegative "
                                                   "(input: '-1')\n"),
        (["special", "--r", "17", "--i", "x"], "error: parse error at position 0: expected an integer or "
                                               "'<lo>..<hi>' (input: 'x')\n"),
        (["lfactors", "bogus", "--r", "17"], _R_BOUND),
        (["classify", "/nonexistent", "--r", "17"], _R_BOUND),
    ],
    ids=["dmax-before-field", "i-before-field", "field-before-object", "field-before-file"],
)
def test_error_precedence(capsys, argv, err):
    # the field is made after the --dmax check and the --i parse, before the object or the file is read
    assert run(capsys, *argv) == (2, "", err)


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


def test_cache_file_format_is_stable(tmp_path):
    # a file written by earlier versions loads, and storing the same primes
    # writes the same bytes
    F2 = field_make(2, 1)
    text = (
        "# ffzeta-primes r=2 d=3 count=2 "
        "sha256=dcf9db54a84dd9f3fafa502bd18207e13eba93b33567507f976dc22b03aa9a2d\n"
        "T^3+T+1\n"
        "T^3+T^2+1\n"
    )
    path = tmp_path / "primes_r2_d3.txt"
    path.write_text(text)
    cache = PrimeCache(tmp_path)
    primes = cache.load(F2, 3)
    assert [p.to_string() for p in primes] == ["T^3+T+1", "T^3+T^2+1"]
    path.unlink()
    cache.store(F2, 3, primes)
    assert path.read_bytes() == text.encode()


def test_out_file(tmp_path, capsys):
    out_file = tmp_path / "x.json"
    code = main(["special", "--r", "2", "--i", "0", "--out", str(out_file)])
    assert code == 0
    assert out_file.read_text().startswith("{")


class _CountingStdout:
    """A stdout stand-in that records, per write, how many special
    polynomials had been computed when it was made."""

    def __init__(self):
        self.calls = 0
        self.writes = []

    def write(self, text):
        self.writes.append((self.calls, text))
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_special_streams_its_rows(monkeypatch, capsys, fmt):
    argv = ["special", "--r", "3", "--i", "5..40", "--format", fmt]
    _, expected, _ = run(capsys, *argv)

    fake = _CountingStdout()
    real = cli.special_polynomial

    def counting(*args):
        fake.calls += 1
        return real(*args)

    monkeypatch.setattr(cli, "special_polynomial", counting)
    monkeypatch.setattr(sys, "stdout", fake)
    assert main(argv) == 0
    monkeypatch.undo()
    assert "".join(text for _, text in fake.writes) == expected
    # the head goes out before any row is made, and the first row (i = 5)
    # before the last one (i = 40) is computed
    assert fake.writes[0][0] == 0
    first_row = next(calls for calls, text in fake.writes if calls)
    assert first_row == 1 < fake.calls == 36


@pytest.mark.parametrize("r", ["3", "2^2", "7"])
def test_special_rows_build_no_poly(capsys, monkeypatch, r):
    # rows print from the table's packed slots: a longer range builds no
    # more Polys, where one Poly per coefficient would grow with it
    real, counts = Poly.__init__, []
    for n in (10, 120):
        built = [0]

        def counting(self, *args, _built=built):
            _built[0] += 1
            real(self, *args)

        monkeypatch.setattr(Poly, "__init__", counting)
        code, _, err = run(capsys, "special", "--r", r, "--i", f"0..{n}")
        monkeypatch.undo()
        assert code == 0, err
        counts.append(built[0])
    assert counts[0] == counts[1], counts


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_special_out_file_matches_stdout(capsys, tmp_path, fmt):
    argv = ["special", "--r", "2^2", "--kind", "carlitz", "--i", "0..60", "--format", fmt]
    _, expected, _ = run(capsys, *argv)
    out_file = tmp_path / f"rows.{fmt}"
    code, out, err = run(capsys, *argv, "--out", str(out_file))
    assert code == 0, err
    assert out == ""
    assert out_file.read_bytes() == expected.encode()


@pytest.mark.parametrize(
    "argv,target",
    [
        (["--i", "0..5"], "missing/rows.json"),
        (["--i=-3..5"], "rows.json"),
        (["--i", "1000000000..1000000000"], "rows.json"),
        (["--i", "0..20000", "--format", "csv"], "rows.csv"),
    ],
    ids=["out-in-missing-directory", "negative-index", "work-bound-one-row", "work-bound-range"],
)
def test_special_error_before_first_row_writes_nothing(capsys, tmp_path, argv, target):
    out_file = tmp_path / target
    code, out, err = run(capsys, "special", "--r", "3", *argv, "--out", str(out_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("i_range", ["1000000000..1000000000", "0..20000", "999990..1000000"])
def test_special_refuses_work_past_the_bound_at_once(capsys, i_range):
    # the power-sum work is estimated from the digits before any row is
    # built, so even a k of 10^9 is refused within a second, naming the
    # estimate and the bound
    t0 = time.perf_counter()
    code, out, err = run(capsys, "special", "--r", "3", "--i", i_range)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert "work estimate" in err and f"WORK_LIMIT = {lseries.WORK_LIMIT}" in err, err


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


def _non_utf8_bytes(cache_dir, capsys):
    run(capsys, "lfactors", "carlitz", "--r", "2", "--dmax", "2", "--cache", str(cache_dir))
    path = cache_dir / "primes_r2_d2.txt"
    path.write_bytes(b"\xff\xfe" + path.read_bytes())


def _entry_of_wrong_degree(cache_dir, capsys):
    # checksum and count are consistent, but T is no prime of degree 2
    from ffzeta.poly import poly_from_string

    F2 = field_make(2, 1)
    PrimeCache(cache_dir).store(F2, 2, [poly_from_string(F2, "T^2+T+1"), poly_from_string(F2, "T")])


@pytest.mark.parametrize(
    "spoil",
    [_foreign_d1_file, _foreign_r_file, _header_token_without_equals, _count_not_a_number, _non_utf8_bytes,
     _entry_of_wrong_degree],
    ids=["foreign-d", "foreign-r", "token-without-equals", "count-not-a-number", "non-utf8-bytes",
         "entry-of-wrong-degree"],
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


# the kernels of the resultant and of good-model residues; cbeta rows take
# frobenius_charpoly's rank-1 route, one F_r norm per prime, and reach none
# of them, carlitz rows (beta = 1, a constant, with N(c) = c^deg f) take the
# same route without the norm, and tensorpower rows are tau-sheaf
# eigenvalues and keep the resultant
RESULTANT_ROUTE = ("frobenius_eigenvalue", "resultant", "_det_and_solve", "_charpoly", "poly_xgcd")


@pytest.mark.parametrize(
    "argv,refused,reached",
    [
        (["lfactors", "cbeta:(T+1)/T", "--r", "2", "--dmax", "6"], RESULTANT_ROUTE, ("frobenius_charpoly", "norm")),
        (["lfactors", "cbeta:T^2/(T+1)", "--r", "3", "--dmax", "4"], RESULTANT_ROUTE, ("frobenius_charpoly", "norm")),
        (["lfactors", "tensorpower:2", "--r", "3", "--dmax", "3"], (), RESULTANT_ROUTE[:4]),
        (["lfactors", "carlitz", "--r", "3", "--dmax", "4"], RESULTANT_ROUTE + ("norm",), ("frobenius_charpoly",)),
    ],
    ids=["cbeta", "cbeta-twisted", "tensorpower", "carlitz"],
)
def test_rank1_rows_take_no_bareiss_route(capsys, monkeypatch, argv, refused, reached):
    # the Bareiss determinant is the resultant's test oracle only; each
    # function is patched in every ffzeta namespace that binds it
    from ffzeta import ore, poly, sheaf

    _, expected, _ = run(capsys, *argv)
    modules = [m for n, m in sys.modules.items() if n == "ffzeta" or n.startswith("ffzeta.")]
    calls = set()
    for name in ("bareiss_det", "norm", "frobenius_charpoly") + RESULTANT_ROUTE:
        original = getattr(poly, name, None) or getattr(ore, name, None) or getattr(sheaf, name)

        def watched(*args, _name=name, _original=original, **kwargs):
            if _name == "bareiss_det" or _name in refused:
                raise AssertionError(f"{_name} reached from {argv[1]} rows")
            calls.add(_name)
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, watched)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == expected
    assert calls >= set(reached)


@pytest.mark.parametrize(
    "r,dmax",
    # r = 3 stops at the largest degree the default --max-enum admits
    [("2", "9"), ("3", "7")],
    ids=["r2", "r3"],
)
def test_rank2_rows_build_no_residue_field(capsys, monkeypatch, r, dmax):
    # the Hasse-invariant route works in F_r[T] mod f: no residue field is
    # built or cached, no table but F_r's own, no Ore product and no null space
    from collections import Counter, OrderedDict

    from ffzeta import ore
    from ffzeta.ffield import FiniteField, field_make

    counts = Counter()
    field_r = field_make(int(r), 1)

    def counting(owner, name, counts_call=lambda *args: True):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            if counts_call(*args):
                counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(FiniteField, "_build_tables", lambda field: field is not field_r)
    counting(ore.OrePoly, "__mul__")
    counting(ore, "nullspace_mod_p")
    # a fresh cache, and a cache size that is restored with the cache
    monkeypatch.setattr(ore, "_RESIDUE_CACHE", OrderedDict())
    monkeypatch.setattr(ore, "_residue_cache_elements", 0)
    code, out, err = run(capsys, "lfactors", "rank2:0,1", "--r", r, "--dmax", dmax, "--format", "csv")
    assert code == 0, err
    assert out.count(",rank2-charpoly") > 100
    assert counts == {}
    assert not ore._RESIDUE_CACHE
