import pytest

from ffzeta.errors import NotAPower, NotOneUnit, ZeroInput
from ffzeta.ffield import field_make
from ffzeta.laurent import (
    INF,
    Laurent,
    binom_mod_p,
    one_unit_pow,
    root_pow_r_minus_1,
)
from ffzeta.poly import RatFunc, poly_from_string, ratfunc_from_string
from oracles import one_unit_pow_binary

F2 = field_make(2, 1)
F3 = field_make(3, 1)


def L3(val, coeffs, prec=INF):
    return Laurent(F3, val, coeffs, prec)


def test_embedding_and_normalization():
    p = poly_from_string(F3, "T^2+2*T")
    x = Laurent.from_poly(p)
    assert x.val == -2 and x.coeffs == (1, 2) and x.prec == INF
    # leading zeros shift the valuation; trailing zeros are dropped
    y = L3(-1, [0, 1, 0])
    assert y.val == 0 and y.coeffs == (1,)


def test_add_mul_precision_contagion():
    a = L3(0, [1, 1], prec=5)
    b = L3(0, [1, 2], prec=3)
    assert (a + b).prec == 3
    c = L3(2, [1], prec=7)  # t^2 known mod t^7
    d = L3(-1, [1], prec=10)  # t^-1 known mod t^10
    # error of c times value of d sits at t^(7-1); error of d at t^(10+2)
    assert (c * d).prec == 6
    assert (c * d).val == 1


def test_mul_matches_poly_mul():
    pa = poly_from_string(F3, "T^2+2*T+1")
    pb = poly_from_string(F3, "2*T^3+T")
    la, lb = Laurent.from_poly(pa), Laurent.from_poly(pb)
    assert (la * lb) == Laurent.from_poly(pa * pb)


def test_inverse():
    x = Laurent.from_poly(poly_from_string(F3, "T+1"))
    ix = x.inverse(5)
    one = x * ix
    assert one.eq_mod(Laurent.one(F3), 5)
    # 1/(1+t) = 1 - t + t^2 - ... = 1 + 2t + t^2 + 2t^3 + ... over F_3
    u = L3(0, [1, 1])
    iu = u.inverse(4)
    assert iu.val == 0 and iu.coeffs == (1, 2, 1, 2)


def test_frob_power_is_exact_and_amplifies_precision():
    u = L3(-1, [1, 2, 1], prec=4)
    cube = u.frob_power(3)
    assert cube.val == -3
    assert cube.prec == 12
    # (a+b+c)^3 = a^3+b^3+c^3 in char 3
    expect = u * u * u
    assert cube.eq_mod(expect, expect.prec)


def test_one_unit_pow_trivial_exponents():
    u = L3(0, [1, 1, 2], prec=9)
    assert one_unit_pow(u, 0).eq_mod(Laurent.one(F3), 9)
    assert one_unit_pow(u, 1).eq_mod(u, 9)


def test_one_unit_pow_inverse_example():
    # r=3, u = 1 + 1/theta, y = -1 -> 1 + 2/theta + 1/theta^2 + 2/theta^3 + ...
    u = L3(0, [1, 1], prec=8)
    v = one_unit_pow(u, -1)
    assert v.coeffs[:4] == (1, 2, 1, 2)
    # oracle: multiplying back by u gives 1 to precision
    assert (v * u).eq_mod(Laurent.one(F3), 8)


def test_one_unit_pow_group_law():
    u = L3(0, [1, 2, 1, 1], prec=10)
    for y1, y2 in [(2, 3), (-1, 4), (5, -7), (0, -2)]:
        lhs = one_unit_pow(u, y1 + y2)
        rhs = one_unit_pow(u, y1) * one_unit_pow(u, y2)
        assert lhs.eq_mod(rhs, 10)


def test_one_unit_pow_binomial_matches_binary():
    for field, coeffs in [(F3, [1, 1, 2, 0, 1]), (F2, [1, 1, 0, 1])]:
        u = Laurent(field, 0, coeffs, prec=12)
        for y in (3, 7, -2, 19):
            assert one_unit_pow(u, y).eq_mod(one_unit_pow_binary(u, y), 12)


def test_one_unit_pow_padic_truncation():
    # exponent known mod p^M determines the result mod t^(p^M) only
    u = L3(0, [1, 1], prec=30)
    v = one_unit_pow(u, (2, 9))
    assert v.prec == 9
    # any lift of the exponent agrees to that precision
    for lift in (2, 11, 29):
        assert one_unit_pow(u, lift).eq_mod(v, 9)


def test_one_unit_pow_rejects_non_units():
    with pytest.raises(NotOneUnit):
        one_unit_pow(L3(-1, [1]), 2)
    with pytest.raises(NotOneUnit):
        one_unit_pow(L3(0, [2, 1]), 2)


def test_binom_mod_p():
    assert binom_mod_p(4, 2, 3) == 0  # 6 mod 3
    assert binom_mod_p(5, 2, 3) == 1  # 10 mod 3
    assert binom_mod_p(-1, 3, 3) == 2  # (-1)^3 = -1
    assert binom_mod_p(-2, 2, 2) == 1  # C(-2,2) = 3


def test_root_trivial_and_examples():
    one = RatFunc.one(F3)
    a = root_pow_r_minus_1(one, 6)
    assert a.eq_mod(Laurent.one(F3), 6)

    # r=3, beta = 1 + 1/theta: alpha = 1 + 2/theta + 1/theta^2 + ...
    beta = ratfunc_from_string(F3, "(T+1)/T")
    alpha = root_pow_r_minus_1(beta, 6)
    assert alpha.coeffs[:3] == (1, 2, 1)
    square = alpha * alpha
    assert square.eq_mod(Laurent.from_ratfunc(beta, 6), 6)


def test_root_valuation_obstruction():
    beta = RatFunc(poly_from_string(F3, "2*T"))  # -theta
    with pytest.raises(NotAPower) as exc:
        root_pow_r_minus_1(beta, 5)
    assert "valuation" in str(exc.value)


def test_root_leading_coefficient_obstruction():
    beta = RatFunc.const(F3, 2)  # 2 is not a square in F_3^*
    with pytest.raises(NotAPower) as exc:
        root_pow_r_minus_1(beta, 5)
    assert "leading" in str(exc.value)


def test_root_r2_trivial():
    beta = ratfunc_from_string(F2, "(T+1)/T")
    alpha = root_pow_r_minus_1(beta, 8)
    assert alpha == Laurent.from_ratfunc(beta, 8)  # the series and its precision


def test_root_round_trip_on_mixed_inputs():
    # alpha^(r-1) = beta holds whenever a root is returned
    t2 = poly_from_string(F3, "T+2")
    cases = [
        ratfunc_from_string(F3, "T^2/(T^2+1)"),
        ratfunc_from_string(F3, "(T^2+T+1)/T^2"),
        RatFunc.const(F3, 1),
        RatFunc(t2 * t2),
    ]
    hits = 0
    for beta in cases:
        try:
            alpha = root_pow_r_minus_1(beta, 8)
        except NotAPower:
            continue
        hits += 1
        sq = alpha * alpha
        assert sq.eq_mod(Laurent.from_ratfunc(beta, 8), 8)
    assert hits >= 3


def test_zero_input():
    with pytest.raises(ZeroInput):
        root_pow_r_minus_1(RatFunc.zero(F3), 4)
