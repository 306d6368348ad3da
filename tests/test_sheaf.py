import pytest

from ffzeta.errors import BadPrime, ZeroInput
from ffzeta.ffield import FiniteField, field_make, pk_lex_irreducible
from ffzeta.laurent import Laurent
from ffzeta.ore import TModuleCarlitzPower, reduce_mod_prime, drinfeld_rank1, frobenius_on_torsion
from ffzeta.poly import (
    BivPoly,
    Poly,
    RatFunc,
    monic_irreducibles,
    poly_from_string,
    ratfunc_from_string,
)
from ffzeta.sheaf import (
    TauSheafRank1,
    carlitz_sheaf,
    carlitz_tensor_power,
    chi_beta,
    class_I_test,
    frobenius_eigenvalue,
    sheaf_of_drinfeld_rank1,
    tensor,
    unit_sheaf,
)

F2 = field_make(2, 1)
F3 = field_make(3, 1)


def pf(field, text):
    return poly_from_string(field, text)


def rf(field, text):
    return ratfunc_from_string(field, text)


def test_sheaf_recipes():
    # beta = 1 gives the Carlitz sheaf T - theta
    s1 = sheaf_of_drinfeld_rank1(RatFunc.one(F3))
    assert s1 == carlitz_sheaf(F3)
    # beta = -theta gives -theta^{-1}(T - theta) = 1 - T/theta
    s2 = sheaf_of_drinfeld_rank1(rf(F3, "2*T"))
    assert s2.den == pf(F3, "T")  # denominator theta (monic)
    # num = (T - theta) * inverse-normalized: 2*(T-theta)... check via eigenvalues below
    # beta constant c: g = c^{-1}(T - theta)
    s3 = sheaf_of_drinfeld_rank1(RatFunc.const(F3, 2))
    assert s3.den.is_one()
    assert s3.num.tcoeffs[1] == pf(F3, "2")  # 1/2 = 2 in F_3


def test_tensor_examples():
    c = carlitz_sheaf(F3)
    c2 = tensor(c, c)
    sheaf_sq = carlitz_tensor_power(F3, 2)
    assert c2 == sheaf_sq
    u = unit_sheaf(F3)
    assert tensor(c, u) == c
    # C^(beta) tensor C^(n-1) = (1/beta)(T-theta)^n
    beta = rf(F3, "(T+1)/T")
    s = tensor(sheaf_of_drinfeld_rank1(beta), carlitz_tensor_power(F3, 2))
    expect_num = _t_minus_theta_pow(F3, 3).scale(beta.den)
    expect = TauSheafRank1(F3, expect_num, beta.num)
    assert s == expect


def _t_minus_theta_pow(field, n):
    from ffzeta.sheaf import t_minus_theta

    return t_minus_theta(field) ** n


def test_carlitz_tensor_power_n1_is_carlitz():
    assert carlitz_tensor_power(F2, 1) == carlitz_sheaf(F2)
    assert TModuleCarlitzPower(F2, 1).n == 1


def test_eigenvalue_carlitz_at_T():
    # g = T - theta, f = T: single root theta bar = 0, eigenvalue T
    val = frobenius_eigenvalue(carlitz_sheaf(F3), pf(F3, "T"))
    assert val.value == pf(F3, "T")


@pytest.mark.parametrize("field", [F2, F3])
def test_eigenvalue_carlitz_is_f(field):
    c = carlitz_sheaf(field)
    for f in monic_irreducibles(field, 3):
        assert frobenius_eigenvalue(c, f).value == f


def test_eigenvalue_tensor_powers_and_root_product_oracle():
    # (T-theta)^n gives f^n; cross-check against explicit root products
    for field in (F2, F3):
        for n in (2, 3):
            s = carlitz_tensor_power(field, n)
            for f in monic_irreducibles(field, 3):
                val = frobenius_eigenvalue(s, f).value
                assert val == f**n
                if f.deg <= 3:
                    assert _root_product_oracle(field, s, f) == val


def _root_product_oracle(field, sheaf, f):
    """Multiply g(T, root) over the explicit roots of f in F_{r^d}."""
    d = f.deg
    if d == 1:
        E = None
        root = field.neg(f.coeffs[0])
        # evaluate each T-coefficient of num at the root
        coeffs = [c.evaluate(root) for c in sheaf.num.tcoeffs]
        return Poly(field, coeffs)
    E = FiniteField(field, pk_lex_irreducible(field, d), check=False)
    roots = [x for x in E.elements() if _eval_poly(E, f, x) == E.zero]
    assert len(roots) == d
    acc = [E.one]  # polynomial "1" in T over E
    for rt in roots:
        fac = _eval_theta_in(E, sheaf.num, rt)
        acc = _polymul_over(E, acc, fac)
    # the product has coefficients in the prime field; project back
    out = []
    for c in acc:
        match = [a for a in field.elements() if a == c]
        assert match, "root product left the base field"
        out.append(match[0])
    return Poly(field, out)


def _eval_poly(E, p, x):
    acc = E.zero
    for c in reversed(p.coeffs):
        acc = E.add(E.mul(acc, x), c)
    return acc


def _eval_theta_in(E, g, root):
    """Coefficient list (low T-degree first) over E of the BivPoly g with
    theta = root."""
    out = [_eval_poly(E, c, root) for c in g.tcoeffs]
    while out and out[-1] == E.zero:
        out.pop()
    return out


def _polymul_over(E, a, b):
    out = [E.zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = E.add(out[i + j], E.mul(ca, cb))
    return out


def test_eigenvalue_multiplicative_under_tensor():
    b1 = rf(F3, "(T+1)/T")
    b2 = rf(F3, "2*T")
    s1, s2 = sheaf_of_drinfeld_rank1(b1), sheaf_of_drinfeld_rank1(b2)
    s12 = tensor(s1, s2)
    for f in monic_irreducibles(F3, 2):
        try:
            v1 = frobenius_eigenvalue(s1, f).value
            v2 = frobenius_eigenvalue(s2, f).value
        except BadPrime:
            # zeros of one factor may cancel poles of the other in the
            # tensor, so nothing is asserted at the bad primes
            continue
        assert frobenius_eigenvalue(s12, f).value == v1 * v2


def test_eigenvalue_bad_prime():
    s = sheaf_of_drinfeld_rank1(rf(F3, "2*T"))  # denominator theta
    with pytest.raises(BadPrime):
        frobenius_eigenvalue(s, pf(F3, "T"))


def test_chi_beta_constants():
    # beta = c: chi = c^(-deg f)
    for c in (1, 2):
        beta = RatFunc.const(F3, c)
        for f in monic_irreducibles(F3, 2):
            val = chi_beta(beta, f).value
            assert val == F3.pow_(F3.inv(c), f.deg)


def test_chi_beta_minus_theta_is_inverse_constant_term():
    # chi_{-theta}(f) = f(0)^{-1}
    beta = rf(F3, "2*T")
    for f in monic_irreducibles(F3, 4):
        if (f % pf(F3, "T")).is_zero():
            continue
        expect = F3.inv(f.coeffs[0])
        assert chi_beta(beta, f).value == expect
    beta2 = rf(F2, "T")  # -theta = theta over F_2
    for f in monic_irreducibles(F2, 4):
        if f.coeffs[0] == 0:
            continue
        assert chi_beta(beta2, f).value == 1


def test_chi_beta_direct_example_theta_squared():
    # r=3, beta = theta^2, f = T+1: beta(2) = 4 = 1, value 1
    val = chi_beta(rf(F3, "T^2"), pf(F3, "T+1"))
    assert val.value == 1


def test_chi_beta_multiplicative():
    b1, b2 = rf(F3, "T+1"), rf(F3, "T^2+1")
    for f in monic_irreducibles(F3, 2):
        try:
            v1 = chi_beta(b1, f).value
            v2 = chi_beta(b2, f).value
            v12 = chi_beta(b1 * b2, f).value
        except BadPrime:
            continue
        assert v12 == F3.mul(v1, v2)


def test_chi_beta_bad_prime():
    with pytest.raises(BadPrime):
        chi_beta(rf(F3, "2*T"), pf(F3, "T"))
    with pytest.raises(BadPrime):
        chi_beta(rf(F3, "1/(T+1)"), pf(F3, "T+1"))


def test_galois_oracle_agreement_small():
    # resultant eigenvalue == explicit torsion Frobenius for C^(beta)
    beta = rf(F3, "2*T")
    sheaf = sheaf_of_drinfeld_rank1(beta)
    phi = drinfeld_rank1(F3, beta)
    f = pf(F3, "T+2")
    v = pf(F3, "T")
    red = reduce_mod_prime(phi, f)
    lam = frobenius_on_torsion(red, v)
    eig = frobenius_eigenvalue(sheaf, f, v=v)
    assert lam == eig.value


def test_class_I_examples():
    # beta = (theta+1)/theta is class I with alpha from the binomial series
    res = class_I_test(rf(F3, "(T+1)/T"))
    assert res.is_class_one()
    sq = res.alpha * res.alpha
    assert sq.eq_mod(Laurent.from_ratfunc(rf(F3, "(T+1)/T"), 20), 20)
    # beta = 1: alpha = 1
    res1 = class_I_test(RatFunc.one(F3))
    assert res1.is_class_one()
    assert res1.alpha.eq_mod(Laurent.one(F3), 20)
    # r = 3, beta = -theta: valuation obstruction
    res2 = class_I_test(rf(F3, "2*T"))
    assert not res2.is_class_one()
    assert "valuation" in res2.obstruction


def test_class_I_invariant_under_power_multiples():
    # multiplying by an (r-1)-st power never changes the verdict
    for btext in ["(T+1)/T", "2*T", "T^2", "2"]:
        beta = rf(F3, btext)
        for utext in ["T^2", "1", "(T^2+1)/T^2"]:
            u = rf(F3, utext)
            v1 = class_I_test(beta).verdict
            v2 = class_I_test(beta * u**2).verdict
            assert v1 == v2


def test_sheaf_zero_rejected():
    with pytest.raises(ZeroInput):
        sheaf_of_drinfeld_rank1(RatFunc.zero(F3))
    with pytest.raises(ZeroInput):
        TauSheafRank1(F3, BivPoly.zero(F3))


def test_sheaf_serialization():
    s = sheaf_of_drinfeld_rank1(rf(F3, "2*T"))
    d = s.to_dict()
    assert d["den"] == "T"
    assert len(d["num"]) == 2
