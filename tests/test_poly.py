import os
import pathlib
import random
import subprocess
import sys

import pytest

from ffzeta import poly as poly_module
from ffzeta.errors import BoundExceeded, ParseError
from ffzeta.ffield import field_make
from ffzeta.poly import (
    BivPoly,
    Poly,
    RatFunc,
    bareiss_det,
    is_irreducible,
    monic_irreducibles,
    monic_polys,
    poly_from_string,
    poly_gcd,
    poly_xgcd,
    ratfunc_from_string,
    resultant,
    split_valuation,
)

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)


def P(field, text):
    return poly_from_string(field, text)


def test_encoding_round_trip():
    cases = ["0", "1", "T", "T+1", "T^2+T+1", "2*T^3+T+2", "T^5"]
    for text in cases:
        field = F3 if "2" in text else F2
        p = poly_from_string(field, text)
        assert p.to_string() == text
        assert poly_from_string(field, p.to_string()) == p


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        poly_from_string(F2, "T^2+?")
    with pytest.raises(ParseError):
        poly_from_string(F2, "")
    with pytest.raises(ParseError):
        poly_from_string(F2, "5*T")  # coefficient out of range


def test_parse_refuses_an_exponent_past_the_limit():
    # refused before the dense coefficient list is built: 10^11 entries
    # cannot be allocated, and a 5000-digit number cannot even be converted
    limit = poly_module.PARSE_DEGREE_LIMIT
    for text in ("T^99999999999", f"T^{limit + 1}", f"T+T^{limit + 1}+1", "T^" + "9" * 5000):
        with pytest.raises(ParseError, match="exponent"):
            poly_from_string(F3, text)
    with pytest.raises(ParseError, match="T\\^99999999999"):
        poly_from_string(F3, "T+T^99999999999")
    with pytest.raises(ParseError, match="out of range"):
        poly_from_string(F3, "9" * 5000 + "*T")
    assert poly_from_string(F3, f"T^{limit}").deg == limit
    # leading zeros count neither toward the bound nor toward int()'s limit
    zeros = "0" * 5000
    for text in (f"T^{zeros}{limit + 1}", "T^" + zeros + "9" * 20):
        with pytest.raises(ParseError, match="exponent"):
            poly_from_string(F3, text)
    with pytest.raises(ParseError, match="out of range"):
        poly_from_string(F3, zeros + "3*T")
    assert poly_from_string(F3, f"T^{zeros}1") == poly_from_string(F3, "T")
    assert poly_from_string(F3, f"{zeros}2*T^{zeros}") == poly_from_string(F3, "2")


def test_zero_poly_degree_sentinel():
    z = Poly.zero(F2)
    assert z.deg == -1
    assert z.is_zero()
    assert (z + z).is_zero()


def test_arithmetic_f3():
    a = P(F3, "T^2+2*T")
    b = P(F3, "T+1")
    assert (a + b).to_string() == "T^2+1"
    assert (a * b).to_string() == "T^3+2*T"
    q, r = divmod(a, b)
    assert a == q * b + r
    assert r.deg < b.deg


def test_divmod_random_round_trip():
    rng = random.Random(7)
    for field in (F2, F3, F4):
        for _ in range(40):
            a = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 8))])
            b = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 5))])
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert a == q * b + r


def test_gcd_xgcd():
    a = P(F3, "T^2+2*T+1")  # (T+1)^2
    b = P(F3, "T^2+2")  # (T+1)(T+2)
    g = poly_gcd(a, b)
    assert g.to_string() == "T+1"
    g2, s, t = poly_xgcd(a, b)
    assert g2 == g
    assert s * a + t * b == g


def test_valuation():
    f = P(F2, "T+1")
    a = P(F2, "T^3+T^2+T+1")  # (T+1)^3 over F_2? (T+1)^2=T^2+1, *(T+1)=T^3+T^2+T+1
    assert split_valuation(a, f) == (3, P(F2, "1"))


def test_split_valuation_refuses_a_prime_of_degree_below_one():
    # every division by a unit leaves remainder 0, so a constant prime would
    # divide for ever: the calls run in a child under a time limit
    src = pathlib.Path(poly_module.__file__).resolve().parents[1]
    code = (
        "from ffzeta.ffield import field_make\n"
        "from ffzeta.poly import Poly, split_valuation\n"
        "F = field_make(3, 1)\n"
        "for prime in (Poly.const(F, 2), Poly.one(F), Poly.zero(F)):\n"
        "    try:\n"
        "        split_valuation(Poly.gen(F), prime)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'no ValueError for {prime}')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20)
    assert done.returncode == 0, done.stdout + done.stderr


def test_split_valuation_does_not_divide_below_the_prime_degree(monkeypatch):
    # deg a < deg prime: the prime cannot divide a, so no division is taken
    def refuse(self, other):
        raise AssertionError(f"divided {self} by {other}")

    f = P(F3, "T^2+1")
    monkeypatch.setattr(Poly, "__divmod__", refuse)
    for a in (P(F3, "2*T+1"), P(F3, "T"), P(F3, "2")):
        assert split_valuation(a, f) == (0, a)


def test_monic_irreducibles_f2():
    irr1 = monic_irreducibles(F2, 1)
    assert [p.to_string() for p in irr1] == ["T", "T+1"]
    irr2 = monic_irreducibles(F2, 2)
    assert [p.to_string() for p in irr2] == ["T", "T+1", "T^2+T+1"]


def test_monic_irreducibles_f3_counts():
    irr = monic_irreducibles(F3, 2)
    by_deg = {}
    for p in irr:
        by_deg.setdefault(p.deg, []).append(p)
    assert len(by_deg[1]) == 3
    assert len(by_deg[2]) == 3  # necklace count (9 - 3) / 2


def test_monic_irreducibles_sorted_and_bounded():
    irr = monic_irreducibles(F3, 2)
    keys = [p.sort_key() for p in irr]
    assert keys == sorted(keys)
    with pytest.raises(BoundExceeded):
        monic_irreducibles(F2, 13)


def test_is_irreducible_matches_enumeration():
    # Ben-Or against the sieve, wherever q^d <= 729
    for pm in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)):
        field = field_make(*pm)
        for d in range(1, 10):
            if field.q**d > 729:
                break
            listed = set(p.coeffs for p in monic_irreducibles(field, d) if p.deg == d)
            for cand in monic_polys(field, d):
                assert (cand.coeffs in listed) == is_irreducible(cand)


def _mobius(n: int) -> int:
    out, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return out


# (p, m) for every r = p^m <= 16 the CLI accepts
CLI_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


@pytest.mark.parametrize("pm", CLI_FIELDS, ids=lambda pm: f"r{pm[0] ** pm[1]}")
def test_sieve_counts_order_and_cold_top_degree(monkeypatch, pm):
    # every degree with q^d <= 4096: Gauss's count (1/d) sum_(e | d) mu(e) q^(d/e),
    # strictly ascending sort keys, and the same lists when the top degree
    # is asked for first on a cold cache
    field = field_make(*pm)
    q = field.q
    d_top = max(d for d in range(1, 13) if q**d <= 4096)
    warm = [poly_module._irreducibles_of_degree(field, d) for d in range(1, d_top + 1)]
    for d, primes in enumerate(warm, 1):
        assert len(primes) == sum(_mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0) // d
        assert all(p.deg == d and p.is_monic() for p in primes)
        keys = [p.sort_key() for p in primes]
        assert all(a < b for a, b in zip(keys, keys[1:]))
    monkeypatch.setattr(poly_module, "_IRRED_CACHE", {})
    cold = {d: poly_module._irreducibles_of_degree(field, d) for d in range(d_top, 0, -1)}
    assert [cold[d] for d in range(1, d_top + 1)] == warm


def test_frob_power():
    a = P(F3, "T^2+2*T+1")
    b = a.frob_power(3)
    assert b == P(F3, "T^6+2*T^3+1")
    assert b == a * a * a
    # r = q^2 spreads by 9; r = p < q is no Frobenius of F_4 and is refused
    assert a.frob_power(9) == b.frob_power(3) == a**9
    c = Poly(F4, [2, 0, 1, 3])
    assert c.frob_power(16) == c.frob_power(4).frob_power(4) == c**16
    with pytest.raises(ValueError):
        c.frob_power(2)


# -- resultants ---------------------------------------------------------------


def test_resultant_linear_roots():
    # f = theta - a, g = theta - b -> a - b
    for a in range(3):
        for b in range(3):
            f = Poly(F3, [F3.neg(a), 1])
            g = BivPoly.from_theta_poly(Poly(F3, [F3.neg(b), 1]))
            res = resultant(f, g)
            assert res.is_constant()
            assert res.constant_value() == F3.sub(a, b)


def test_resultant_f9_roots_example():
    # over F_3: f = theta^2+1, g = theta+1 -> (i+1)(-i+1) = 2
    f = P(F3, "T^2+1")
    g = BivPoly.from_theta_poly(P(F3, "T+1"))
    res = resultant(f, g)
    assert res.is_constant() and res.constant_value() == 2


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_resultant_t_minus_theta_gives_f(field):
    # Res_theta(f, T - theta) = f(T) for every monic f of degree <= 4
    t_minus_theta = BivPoly(field, (Poly(field, [field.zero, field.neg(field.one)]), Poly.one(field)))
    for d in (1, 2, 3, 4):
        for x in range(field.q**d, 2 * field.q**d):
            f = Poly.from_code(field, x)
            assert resultant(f, t_minus_theta) == f


def test_resultant_multiplicative():
    rng = random.Random(11)
    for _ in range(20):
        f = Poly.from_code(F3, 27 + rng.randrange(27))
        g = BivPoly.from_theta_poly(Poly(F3, [rng.randrange(3) for _ in range(3)] + [1]))
        h = BivPoly.from_theta_poly(Poly(F3, [rng.randrange(3) for _ in range(2)] + [1]))
        lhs = resultant(f, g * h)
        rhs = resultant(f, g) * resultant(f, h)
        assert lhs == rhs


def test_resultant_against_root_products():
    # independent oracle: evaluate at explicit roots in the splitting field
    from ffzeta.ffield import FiniteField, pk_lex_irreducible

    for d in (2, 3):
        E = FiniteField(F3, pk_lex_irreducible(F3, d))
        for f in monic_irreducibles(F3, d):
            if f.deg != d:
                continue
            roots = [x for x in E.elements() if _eval_in(E, f, x) == E.zero]
            assert len(roots) == d
            g = P(F3, "T^2+2*T+1")  # arbitrary theta-polynomial
            prod = E.one
            for rt in roots:
                prod = E.mul(prod, _eval_in(E, g, rt))
            res = resultant(f, BivPoly.from_theta_poly(g))
            assert res.is_constant()
            assert res.constant_value() == prod


def _poly_matrix(field, rows):
    return [[P(field, x) for x in row] for row in rows]


@pytest.mark.parametrize(
    "rows,det",
    [
        ([["T", "1", "0"], ["1", "T", "1"], ["0", "1", "T"]], "T^3+T"),
        # zero pivots: two row swaps, then one
        ([["0", "1", "0"], ["0", "0", "1"], ["T", "0", "0"]], "T"),
        ([["0", "T", "1"], ["1", "1", "0"], ["T", "0", "1"]], "T"),
        # singular: a row is twice another, and a column is zero
        ([["T", "T+1", "1"], ["2*T", "2*T+2", "2"], ["1", "T", "T^2"]], "0"),
        ([["0", "1", "T"], ["0", "T", "1"], ["0", "2", "T^2"]], "0"),
    ],
    ids=["3x3", "cyclic-swaps", "swap", "dependent-rows", "zero-column"],
)
def test_bareiss_det(rows, det):
    # determinants over F_3[T] by cofactor expansion by hand
    assert bareiss_det(F3, _poly_matrix(F3, rows)) == P(F3, det)


def _eval_in(E, p, x):
    acc = E.zero
    for c in reversed(p.coeffs):
        acc = E.add(E.mul(acc, x), c)
    return acc


# -- rational functions --------------------------------------------------------


def test_ratfunc_normalization():
    r = RatFunc(P(F3, "T^2+2*T"), P(F3, "2*T"))
    # (T^2+2T)/(2T) = (T+2)/2 = 2T+1 after monic-denominator normalization
    assert r.den.is_one()
    assert r.num == P(F3, "2*T+1")


def test_ratfunc_ops_and_valuations():
    beta = ratfunc_from_string(F3, "(T+1)/T")
    assert beta.v_infinity() == 0
    assert split_valuation(beta.den, P(F3, "T")) == (1, P(F3, "1"))
    assert split_valuation(beta.num, P(F3, "T+1")) == (1, P(F3, "1"))
    assert (beta * beta.inv()).is_one()
    g = beta ** 2
    assert g.num == P(F3, "T^2+2*T+1")
    assert g.den == P(F3, "T^2")
    assert beta.frob_power(3) == RatFunc(P(F3, "T^3+1"), P(F3, "T^3"))


def test_ratfunc_parse_round_trip():
    for text in ["(T+1)/T", "T^2", "2/T", "(T^2+T+1)/(T^3+2)"]:
        r = ratfunc_from_string(F3, text)
        r2 = ratfunc_from_string(F3, r.to_string())
        assert r == r2


def test_bivpoly_roundtrip_and_mul():
    # g = (T - theta): tcoeffs = [-theta, 1]
    g = BivPoly(F3, (Poly(F3, [0, 2]), Poly.one(F3)))
    g2 = g * g
    assert g2.t_deg == 2
    assert g2.tcoeffs[0] == P(F3, "T^2")
    assert g2.tcoeffs[1] == P(F3, "T") and g2.tcoeffs[1] == Poly(F3, [0, 1])
    # (T - theta)^2 has middle coefficient -2*theta = theta over F_3
    assert g2.tcoeffs[1] == Poly(F3, [0, 1])


# -- powers ----------------------------------------------------------------------


def test_negative_powers_raise_or_invert():
    # rings without inverses refuse n < 0; fields of fractions and series invert
    from ffzeta.laurent import Laurent
    from ffzeta.ore import OrePoly, RatFuncCoeffs
    from ffzeta.sheaf import t_minus_theta

    dom = RatFuncCoeffs(F3)
    ring_elements = [
        P(F3, "T+1"),
        t_minus_theta(F3),
        OrePoly(dom, [ratfunc_from_string(F3, "T"), dom.one]),
    ]
    for x in ring_elements:
        with pytest.raises(ValueError):
            x ** -1
        with pytest.raises(ValueError):
            x ** -3
    beta = ratfunc_from_string(F3, "(T+1)/T")
    assert beta ** -2 == ratfunc_from_string(F3, "T^2/(T^2+2*T+1)")
    assert (beta ** -3 * beta ** 3).is_one()
    x = Laurent.from_poly(P(F3, "T^2+2*T+2"))
    inv = x ** -2
    assert inv.val == 4
    assert (inv * x * x).eq_mod(Laurent.one(F3))
