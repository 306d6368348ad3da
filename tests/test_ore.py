import time
from collections import OrderedDict

import pytest

from ffzeta import ore
from ffzeta.errors import BadReduction, NotCyclic, ZeroInput
from ffzeta.ffield import field_make
from ffzeta.ore import (
    DrinfeldModule,
    Mat,
    OrePoly,
    RatFuncCoeffs,
    TModuleCarlitzPower,
    carlitz,
    drinfeld_rank1,
    drinfeld_rank2,
    exp_coefficients,
    exp_functional_equation_residuals,
    frobenius_charpoly,
    frobenius_on_torsion,
    point_module_annihilator,
    reduce_mod_prime,
    torsion_points,
)
from ffzeta.poly import Poly, RatFunc, monic_irreducibles, poly_from_string, ratfunc_from_string
from oracles import frobenius_charpoly_nullspace

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)
F8 = field_make(2, 3)
F9 = field_make(3, 2)


def rf(field, text):
    return ratfunc_from_string(field, text)


def pf(field, text):
    return poly_from_string(field, text)


# -- Ore ring ------------------------------------------------------------------


def test_defining_relation_tau_c():
    dom = RatFuncCoeffs(F3)
    tau = OrePoly.tau(dom)
    c = OrePoly.const(dom, rf(F3, "T^2+1"))
    lhs = tau * c
    # tau * c = c^r * tau
    assert lhs.coeffs == (dom.zero, rf(F3, "T^6+1"))


def test_carlitz_square():
    # (theta + tau)^2 = theta^2 + (theta + theta^r) tau + tau^2
    C = carlitz(F3)
    sq = C.phi_T() * C.phi_T()
    assert sq.coeff(0) == rf(F3, "T^2")
    assert sq.coeff(1) == rf(F3, "T^3+T")
    assert sq.coeff(2) == RatFunc.one(F3)


def test_ore_identity_and_associativity():
    dom = RatFuncCoeffs(F2)
    one = OrePoly.const(dom, dom.one)
    b = OrePoly(dom, [rf(F2, "T"), rf(F2, "T+1"), dom.one])
    assert one * b == b and b * one == b
    a = OrePoly(dom, [dom.one, rf(F2, "T")])
    c = OrePoly(dom, [rf(F2, "1/T"), dom.one])
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_ore_mul_is_composition():
    # evaluating the product equals composing the linear polynomials
    dom = RatFuncCoeffs(F3)
    a = OrePoly(dom, [rf(F3, "T"), dom.one])
    b = OrePoly(dom, [rf(F3, "2"), rf(F3, "T+1")])
    for xtext in ["T", "T^2+2", "1/T", "(T+1)/(T+2)"]:
        x = rf(F3, xtext)
        assert (a * b).evaluate(x) == a.evaluate(b.evaluate(x))


# -- Drinfeld modules ------------------------------------------------------------


def test_drinfeld_action_carlitz_t_squared():
    C = carlitz(F3)
    phi = C.action(pf(F3, "T^2"))
    expected = C.phi_T() * C.phi_T()
    assert phi == expected


def test_drinfeld_action_constants_and_degree_law():
    C = carlitz(F3)
    two = C.action(pf(F3, "2"))
    assert two.deg == 0 and two.coeff(0) == rf(F3, "2")
    psi = drinfeld_rank2(F2, RatFunc.zero(F2), RatFunc.one(F2))
    a = pf(F2, "T^3+T+1")
    assert psi.action(a).deg == psi.rank * a.deg  # t * deg a


def test_drinfeld_action_is_ring_homomorphism():
    # phi_{ab} = phi_a * phi_b and phi_{a+b} = phi_a + phi_b, deg <= 3
    from ffzeta.ore import all_polys_below

    for field in (F2, F3):
        C = carlitz(field)
        polys = [p for p in all_polys_below(field, 4) if not p.is_zero()]
        if field.q == 3:
            polys = polys[::5] + [pf(F3, "T^3+2*T"), pf(F3, "2*T^3+T^2+1")]
        for a in polys:
            for b in polys:
                ab = a * b
                s = a + b
                assert C.action(ab) == C.action(a) * C.action(b)
                if not s.is_zero():
                    assert C.action(s) == C.action(a) + C.action(b)


def test_drinfeld_rejects_rank_zero_and_zero_action():
    dom = RatFuncCoeffs(F2)
    with pytest.raises(ValueError):
        DrinfeldModule(F2, dom, [RatFunc.gen(F2)])
    with pytest.raises(ZeroInput):
        carlitz(F2).action(Poly.zero(F2))


# -- reduction -------------------------------------------------------------------


def test_reduce_carlitz_mod_T():
    C = carlitz(F3)
    red = reduce_mod_prime(C, pf(F3, "T"))
    F_f = red.dom.field
    assert F_f.q == 3
    assert red.coeffs[0] == F_f.zero  # theta bar = 0 at f = T
    assert red.coeffs[1] == F_f.one
    assert red.twist == 0


@pytest.mark.parametrize("text", ["2*T+1", "1", "2"])
def test_reduce_refuses_a_non_monic_or_constant_prime(text):
    with pytest.raises(ValueError, match="monic of degree >= 1"):
        reduce_mod_prime(carlitz(F3), pf(F3, text))


def test_reduce_refuses_a_reduced_module():
    red = reduce_mod_prime(carlitz(F3), pf(F3, "T"))
    with pytest.raises(ValueError, match="unreduced"):
        reduce_mod_prime(red, pf(F3, "T+1"))


def test_reduce_bad_r3():
    beta = rf(F3, "(T+1)/T")  # v_T = -1, not divisible by r-1 = 2
    with pytest.raises(BadReduction):
        reduce_mod_prime(drinfeld_rank1(F3, beta), pf(F3, "T"))


def test_good_model_takes_no_ratfunc_arithmetic(monkeypatch):
    # the good model splits f out of each coefficient in F_r[T]: no RatFunc
    # product, power or quotient is formed at any prime, good or bad
    modules = [
        drinfeld_rank1(F3, rf(F3, "T^2")),
        drinfeld_rank2(F2, rf(F2, "(T+1)/T"), rf(F2, "T^3")),
        drinfeld_rank2(F3, rf(F3, "1/(T+1)"), rf(F3, "T^2/(T^2+1)")),
    ]

    def refuse(*args):
        raise AssertionError("RatFunc arithmetic in the good model")

    for name in ("__mul__", "__pow__", "__truediv__", "inv"):
        monkeypatch.setattr(RatFunc, name, refuse)
    for phi in modules:
        for f in monic_irreducibles(phi.field_r, 3):
            for route in (frobenius_charpoly, reduce_mod_prime):
                try:
                    route(phi, f)
                except BadReduction:
                    pass


def test_reduction_builds_no_residue_table():
    # reduction and the point module stay in F_r[T]: F_f (256 elements, so
    # it would build operation tables on its first product) gets none
    f = [g for g in monic_irreducibles(F2, 8) if g.deg == 8][-1]
    red = reduce_mod_prime(carlitz(F2), f)
    assert red.dom.field.table_size > 0
    assert red.dom.field._ops is None
    assert point_module_annihilator(red, bound=256) == f - Poly.one(F2)
    assert red.dom.field._ops is None


@pytest.mark.parametrize("field", [F3, F4])
def test_ratfunc_residue_non_integral_raises_bad_reduction(field):
    # g = 1/T has a pole at f = T and Delta = 1 allows no twist: no residue
    # exists, and the error names f
    with pytest.raises(BadReduction, match="f = T"):
        reduce_mod_prime(drinfeld_rank2(field, rf(field, "1/T"), rf(field, "1")), pf(field, "T"))


def test_reduce_good_after_twist_r2():
    beta = rf(F2, "(T+1)/T")
    red = reduce_mod_prime(drinfeld_rank1(F2, beta), pf(F2, "T"))
    assert red.twist == 1  # u = f: beta * f^(r-1) = theta + 1 is a T-unit
    F_f = red.dom.field
    assert red.coeffs[1] == F_f.one  # (theta+1) mod T = 1


def test_reduce_good_with_negative_twist():
    # beta = theta^(r-1): v_T = r-1, twisting down by u = f^-1 reaches Carlitz
    beta = rf(F3, "T^2")
    red = reduce_mod_prime(drinfeld_rank1(F3, beta), pf(F3, "T"))
    assert red.twist == -1
    assert red.coeffs[1] == red.dom.field.one


def test_reduce_respects_primes_away_from_support():
    beta = rf(F3, "(T+1)/T")
    f = pf(F3, "T+2")
    red = reduce_mod_prime(drinfeld_rank1(F3, beta), f)
    # beta(theta bar) = (2+1... theta bar = -2 = 1: (1+1)/1 = 2
    assert red.coeffs[1] == 2


# -- point modules -----------------------------------------------------------------


def test_point_module_carlitz_examples():
    # r=2, f=T: x -> x^2 = x on F_2, T acts as 1, annihilator T+1 = f-1
    C2 = carlitz(F2)
    red = reduce_mod_prime(C2, pf(F2, "T"))
    assert point_module_annihilator(red) == pf(F2, "T+1")
    red2 = reduce_mod_prime(C2, pf(F2, "T^2+T+1"))
    assert point_module_annihilator(red2) == pf(F2, "T^2+T")
    C3 = carlitz(F3)
    red3 = reduce_mod_prime(C3, pf(F3, "T"))
    assert point_module_annihilator(red3) == pf(F3, "T+2")  # T - 1


def test_point_module_annihilator_exhaustive_oracle():
    # brute-force check at r in {2, 3, 4, 5}, q^d <= 125, on Carlitz and on
    # rank2:0,1 where it is cyclic: phi_g kills every element of F_f, and
    # phi_(g/pi) does not for any prime pi | g
    checked = 0
    for field, dmax in ((F2, 6), (F3, 4), (F4, 3), (field_make(5, 1), 3)):
        rank2 = drinfeld_rank2(field, RatFunc.zero(field), RatFunc.one(field))
        for phi in (carlitz(field), rank2):
            for f in monic_irreducibles(field, dmax):
                red = reduce_mod_prime(phi, f)
                try:
                    g = point_module_annihilator(red)
                except NotCyclic:
                    assert phi is rank2
                    continue
                F_f = red.dom.field

                def kills(a):
                    phi_a = red.action(a)
                    return all(phi_a.evaluate(x) == F_f.zero for x in F_f.elements())

                assert kills(g)
                for pi in monic_irreducibles(field, g.deg):
                    if (g % pi).is_zero():
                        assert not kills(g.exact_div(pi))
                checked += phi is rank2
    assert checked == 127  # rank2:0,1 is not cyclic at the other 13 primes


def test_point_module_noncyclic_flagged():
    # theta*x + x^(r^2) at f = T over F_2: x -> x^4 = x, so T acts as 1 on
    # F_2 and the cyclic module has annihilator T+1
    psi = drinfeld_rank2(F2, RatFunc.zero(F2), RatFunc.one(F2))
    red = reduce_mod_prime(psi, pf(F2, "T"))
    assert point_module_annihilator(red) == pf(F2, "T+1")
    # theta*x + theta*x^(r^2) at f = T^2+T+1: on F_4, x^4 = x, so T acts as
    # theta + theta = 0 and kills all of F_4, which is not cyclic over A
    psi0 = drinfeld_rank2(F2, RatFunc.zero(F2), RatFunc.gen(F2))
    red0 = reduce_mod_prime(psi0, pf(F2, "T^2+T+1"))
    with pytest.raises(NotCyclic, match="annihilator T of degree 1 < 2"):
        point_module_annihilator(red0)


# -- torsion ------------------------------------------------------------------------


def test_torsion_points_requires_reduced_module():
    with pytest.raises(ValueError, match="reduced"):
        torsion_points(carlitz(F2), pf(F2, "T"))


def test_torsion_sizes_reduced():
    C = carlitz(F3)
    red = reduce_mod_prime(C, pf(F3, "T+1"))
    for vtext in ["T", "T+2", "T^2+1"]:
        v = pf(F3, vtext)
        tor = torsion_points(red, v)
        assert tor.size() == 3**v.deg
        # phi_v kills every point
        E = tor.ambient
        coeffs = red.action(v).coeffs
        from ffzeta.ore import apply_linear

        for ptx in tor.points:
            assert apply_linear(E, coeffs, ptx, 3) == E.zero


def test_torsion_rank2_size():
    psi = drinfeld_rank2(F2, RatFunc.zero(F2), RatFunc.one(F2))
    red = reduce_mod_prime(psi, pf(F2, "T"))
    tor = torsion_points(red, pf(F2, "T+1"))
    assert tor.size() == 2 ** (2 * 1)
    assert len(tor.basis) == 2


def test_frobenius_on_torsion_carlitz_is_f_mod_v():
    # the Galois-side oracle: arithmetic Frobenius acts as multiplication by f
    for field in (F2, F3):
        C = carlitz(field)
        for f in monic_irreducibles(field, 2):
            red = reduce_mod_prime(C, f)
            for v in monic_irreducibles(field, 2):
                if v == f:
                    continue
                lam = frobenius_on_torsion(red, v)
                assert lam == f % v, (field.q, str(f), str(v))


def test_frobenius_on_torsion_hand_checked_values():
    # worked example: r=3, C^(-theta), f = T+2, v = T gives lambda = 1
    phi = drinfeld_rank1(F3, rf(F3, "2*T"))
    red = reduce_mod_prime(phi, pf(F3, "T+2"))
    lam = frobenius_on_torsion(red, pf(F3, "T"))
    assert lam == pf(F3, "1")
    # Carlitz r=3, f = T+1, v = T+2: roots of x^3+x generate F_9, lambda = 2
    C = carlitz(F3)
    redc = reduce_mod_prime(C, pf(F3, "T+1"))
    lam2 = frobenius_on_torsion(redc, pf(F3, "T+2"))
    assert lam2 == pf(F3, "2")
    assert lam2 == pf(F3, "T+1") % pf(F3, "T+2")


def test_frobenius_charpoly_rank1_recovers_carlitz_factor():
    C = carlitz(F2)
    for ftext in ["T", "T+1", "T^2+T+1"]:
        f = pf(F2, ftext)
        a, mu = frobenius_charpoly(C, f)
        assert a == f
        assert mu is None
        assert frobenius_charpoly_nullspace(C, f) == (a, mu)


def test_frobenius_charpoly_rank2_supersingular_at_T():
    # oracle fixed by hand: phi_T = theta x + x^4 reduced at T is x -> x^4;
    # on phi[T+1] = F_4 Frobenius swaps the two generators: trace 0, det 1,
    # so a_T = 0 and the factor is 1 + T u^2 (mu = 1)
    psi = drinfeld_rank2(F2, RatFunc.zero(F2), RatFunc.one(F2))
    a, mu = frobenius_charpoly(psi, pf(F2, "T"))
    assert a.is_zero()
    assert mu == F2.one
    assert frobenius_charpoly_nullspace(psi, pf(F2, "T")) == (a, mu)


def test_frobenius_charpoly_rank2_consistency_all_small_primes():
    psi = drinfeld_rank2(F2, RatFunc.zero(F2), RatFunc.one(F2))
    for f in monic_irreducibles(F2, 2):
        a, mu = frobenius_charpoly(psi, f)
        assert a.deg <= f.deg // 2
        assert mu == F2.one  # r = 2: the unit group is trivial
        assert frobenius_charpoly_nullspace(psi, f) == (a, mu)


def test_frobenius_charpoly_rejects_a_module_reduced_elsewhere():
    red = reduce_mod_prime(carlitz(F2), pf(F2, "T"))
    with pytest.raises(ValueError):
        frobenius_charpoly(red, pf(F2, "T+1"))


def test_residue_cache_stays_within_its_bound(monkeypatch):
    # more residue fields than the bound holds: the least recently used go,
    # and every result is the one computed with all of them cached.  The
    # bound is counted in operation-table entries, 2*128*129 for each of the
    # 128-element fields, so it holds two of those at most.
    C = carlitz(F2)
    primes = monic_irreducibles(F2, 7)

    def annihilator(f):
        return point_module_annihilator(reduce_mod_prime(C, f))

    expected = [annihilator(f) for f in primes]
    monkeypatch.setattr(ore, "RESIDUE_CACHE_ELEMENTS", 70_000)
    monkeypatch.setattr(ore, "_RESIDUE_CACHE", OrderedDict())
    monkeypatch.setattr(ore, "_residue_cache_elements", 0)
    monkeypatch.setattr(ore, "_EXT_CACHE", {})
    got = []
    for f in primes + primes[::-1]:
        got.append(annihilator(f))
        ore._extension_of(ore.residue_field(F2, f), 2)  # as the torsion scan does
        held = sum(max(1, F_f.table_size) for F_f in ore._RESIDUE_CACHE.values())
        assert held == ore._residue_cache_elements <= 70_000
        # an evicted field's extensions go with it
        assert {base for base, _ in ore._EXT_CACHE} == set(ore._RESIDUE_CACHE.values())
    assert got == expected + expected[::-1]
    assert len(ore._RESIDUE_CACHE) < len(primes)
    assert any(F_f._ops is not None for F_f in ore._RESIDUE_CACHE.values())


ROUTE_CASES = [
    (F2, ("T", "1"), 3),
    (F3, ("T", "1"), 2),
    (F3, ("2*T", "2"), 2),
    (F4, ("0", "1"), 1),
    (F4, ("0", "T"), 1),
    (F2, ("T+1",), 3),
    (F3, ("2*T",), 2),
    (F4, ("T",), 2),
    (F8, ("T",), 1),
    (F9, ("T",), 1),
]


@pytest.mark.parametrize(
    "field,coeffs,dmax",
    ROUTE_CASES,
    ids=[f"r{F.q}-rank{len(c)}:{','.join(c)}" for F, c, _ in ROUTE_CASES],
)
def test_frobenius_charpoly_agrees_with_torsion(field, coeffs, dmax):
    """The Hasse-invariant route against Frobenius on phi[v] (independent
    oracle): trace = a and det = mu*f mod every degree-1 prime v != f; also
    against the Ore-relation null space, on the module and on its reduction,
    and in rank 1 against the resultant eigenvalue behind local_factor."""
    from ffzeta.lseries import local_factor

    betas = [rf(field, c) for c in coeffs]
    phi = drinfeld_rank2(field, *betas) if len(betas) == 2 else drinfeld_rank1(field, *betas)
    checked = 0
    for f in monic_irreducibles(field, dmax):
        try:
            red = reduce_mod_prime(phi, f)
        except BadReduction:
            continue
        a, mu = frobenius_charpoly(phi, f)
        assert frobenius_charpoly(red, f) == (a, mu)
        assert frobenius_charpoly_nullspace(phi, f) == (a, mu)
        assert a.deg <= (f.deg if phi.rank == 1 else f.deg // 2)
        if phi.rank == 1:
            assert mu is None
            assert local_factor(phi, f).denominator == (Poly.one(field), -a)
        else:
            assert mu != field.zero
        for v in monic_irreducibles(field, 1):
            if v == f:
                continue
            M = frobenius_on_torsion(red, v)
            if phi.rank == 1:
                tr = det = M
            else:
                tr = (M[0][0] + M[1][1]) % v
                det = (M[0][0] * M[1][1] - M[0][1] * M[1][0]) % v
            assert tr == a % v, (str(f), str(v))
            assert det == (f.scale(mu) if phi.rank == 2 else a) % v, (str(f), str(v))
            checked += 1
    assert checked >= 4


def test_torsion_oracle_in_a_tower_over_a_tower():
    # F_f = A/(T^2+T+w) is a tower over F_4, and phi[T] lies in an extension
    # of F_f: every product there goes through F_f's and F_4's tables
    phi = drinfeld_rank2(F4, RatFunc.zero(F4), RatFunc.one(F4))
    f, v = pf(F4, "T^2+T+2"), pf(F4, "T")
    a, mu = frobenius_charpoly(phi, f)
    start = time.perf_counter()
    M = frobenius_on_torsion(reduce_mod_prime(phi, f), v)
    elapsed = time.perf_counter() - start
    assert (M[0][0] + M[1][1]) % v == a % v
    assert (M[0][0] * M[1][1] - M[0][1] * M[1][0]) % v == f.scale(mu) % v
    assert elapsed < 10, f"{elapsed:.1f} s"


def test_rank2_cayley_hamilton_on_torsion():
    psi = drinfeld_rank2(F2, RatFunc.zero(F2), RatFunc.one(F2))
    red = reduce_mod_prime(psi, pf(F2, "T"))
    v = pf(F2, "T+1")
    M = frobenius_on_torsion(red, v)
    a, mu = frobenius_charpoly(psi, pf(F2, "T"))
    # M^2 - a M + mu*f = 0 mod v
    f = pf(F2, "T")

    def mm(X, Y):
        return [
            [(X[i][0] * Y[0][j] + X[i][1] * Y[1][j]) % v for j in range(2)]
            for i in range(2)
        ]

    M2 = mm(M, M)
    for i in range(2):
        for j in range(2):
            val = (M2[i][j] - a * M[i][j]) % v
            if i == j:
                val = (val + f.scale(mu)) % v
            assert val.is_zero()


# -- exponential ---------------------------------------------------------------------


def test_exp_carlitz_q1():
    C = carlitz(F3)
    Q = exp_coefficients(C, 3)
    theta = RatFunc.gen(F3)
    assert Q[1] == RatFunc.one(F3) / (theta**3 - theta)


def test_exp_functional_equation_exact():
    for field in (F2, F3):
        C = carlitz(field)
        Q = exp_coefficients(C, 6)
        res = exp_functional_equation_residuals(C, Q)
        assert all(x.is_zero() for x in res)


def test_exp_rank2_functional_equation():
    psi = drinfeld_rank2(F2, rf(F2, "T"), RatFunc.one(F2))
    Q = exp_coefficients(psi, 5)
    res = exp_functional_equation_residuals(psi, Q)
    assert all(x.is_zero() for x in res)


def test_exp_tensor_square_matrix_case():
    for n, n_terms in ((2, 5), (4, 4), (5, 4)):
        mod = TModuleCarlitzPower(F2, n)
        Q = exp_coefficients(mod, n_terms)
        assert Q[0] == Mat.identity(F2, n)
        res = exp_functional_equation_residuals(mod, Q)
        assert all(m.is_zero() for m in res), n


def test_exp_tensor_power_n1_matches_carlitz():
    mod = TModuleCarlitzPower(F3, 1)
    Qm = exp_coefficients(mod, 4)
    Qc = exp_coefficients(carlitz(F3), 4)
    for qm, qc in zip(Qm, Qc):
        assert qm.rows[0][0] == qc


def test_tensor_power_matrix_shapes():
    mod = TModuleCarlitzPower(F2, 3)
    theta = RatFunc.gen(F2)
    one, zero = RatFunc.one(F2), RatFunc.zero(F2)
    assert mod.theta_mat.rows == (
        (theta, one, zero),
        (zero, theta, one),
        (zero, zero, theta),
    )
    assert mod.v_mat.rows == ((zero, zero, zero), (zero, zero, zero), (one, zero, zero))


# -- serialization ---------------------------------------------------------------------


def test_module_serialization():
    C = carlitz(F2)
    d = C.to_dict()
    assert d == {"r": 2, "base": {"type": "rational"}, "phi_T": ["T", "1"]}
    red = reduce_mod_prime(C, pf(F2, "T^2+T+1"))
    d2 = red.to_dict()
    assert d2["prime"] == "T^2+T+1"
    assert d2["twist"] == 0
    assert d2["phi_T"] == ["T", "1"]
