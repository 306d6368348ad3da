"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a PASS line with its headline numbers (visible with
pytest -s).  Runtime targets are asserted where stated.
"""

import math
import time

from ffzeta.errors import BadPrime, BadReduction
from ffzeta.ffield import FiniteField, field_make, pk_lex_irreducible
from ffzeta.laurent import Laurent
from ffzeta.lseries import (
    EigenSystem,
    PowerSumTable,
    classify_eigen_system,
    newton_polygon,
    power_sums_enumerated_batch,
    special_polynomial,
    translate_identity_check,
)
from ffzeta.ore import (
    apply_linear,
    carlitz,
    drinfeld_rank1,
    drinfeld_rank2,
    exp_coefficients,
    exp_functional_equation_residuals,
    frobenius_charpoly,
    frobenius_on_torsion,
    point_module_annihilator,
    reduce_mod_prime,
)
from ffzeta.poly import (
    Poly,
    RatFunc,
    monic_irreducibles,
    poly_from_string,
    ratfunc_from_string,
)
from ffzeta.sheaf import (
    carlitz_sheaf,
    chi_beta,
    class_I_test,
    sheaf_of_drinfeld_rank1,
    unit_sheaf,
)

from oracles import frobenius_charpoly_nullspace

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)


def pf(field, text):
    return poly_from_string(field, text)


def rf(field, text):
    return ratfunc_from_string(field, text)


def test_c01_carlitz_point_module_law():
    """Annihilator of C(F_f) is exactly f - 1 for every prime with r^deg <= 4096."""
    t0 = time.time()
    checked = 0
    for field in (F2, F3, F4):
        d_max = int(math.log(4096, field.q))
        C = carlitz(field)
        one = Poly.one(field)
        for f in monic_irreducibles(field, d_max, enum_bound=4096):
            red = reduce_mod_prime(C, f)
            ann = point_module_annihilator(red, bound=4096)
            assert ann == f - one, f"annihilator at {f} over F_{field.q} is {ann}"
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 1 runtime {elapsed:.1f}s exceeds 60s"
    print(f"PASS criterion 1: annihilator f-1 at {checked} primes in {elapsed:.1f}s")


def test_c02_galois_oracle_vs_resultant():
    """Explicit torsion Frobenius equals the resultant eigenvalue."""
    t0 = time.time()
    pairs = 0
    for field in (F2, F3):
        betas = [None, rf(field, "2*T" if field.q == 3 else "T")]  # Carlitz, -theta
        betas.append(rf(field, "(T+1)/T"))
        if field.q == 3:
            betas.append(rf(field, "T^2"))
        fs = monic_irreducibles(field, 3)
        vs = monic_irreducibles(field, 2)
        for beta in betas:
            phi = carlitz(field) if beta is None else drinfeld_rank1(field, beta)
            for f in fs:
                try:
                    red = reduce_mod_prime(phi, f)
                except BadReduction:
                    continue  # genuinely bad prime: no torsion model over F_f
                if beta is None:
                    expect_unit = field.one
                else:
                    beta_good = beta * RatFunc.from_poly(f) ** (red.twist * (field.q - 1))
                    expect_unit = chi_beta(beta_good, f).value
                for v in vs:
                    if v == f:
                        continue
                    lam = frobenius_on_torsion(red, v)
                    expect = (f.scale(expect_unit)) % v
                    assert lam == expect, (field.q, str(f), str(v))
                    pairs += 1
    elapsed = time.time() - t0
    assert elapsed < 120, f"criterion 2 runtime {elapsed:.1f}s exceeds 120s"
    print(f"PASS criterion 2: {pairs} (module, f, v) triples agree in {elapsed:.1f}s")


def test_c03_special_polynomials():
    """Recursion == enumeration; degree bound; carlitz(i) == zeta(i+1); i <= 200."""
    t0 = time.time()
    enum_checked = 0
    for field, e_enum in ((F2, 8), (F3, 5)):
        r = field.q
        # recursion equals brute force wherever r^e <= 256
        for e in range(e_enum + 1):
            batch = power_sums_enumerated_batch(field, e, 201, enum_bound=256)
            tab = PowerSumTable(field, range(202))
            for k in range(202):
                assert tab.value(e, k) == batch[k], (r, e, k)
                enum_checked += 1
        for i in range(201):
            carl = special_polynomial(field, i, "carlitz")
            zeta = special_polynomial(field, i + 1, "zeta")
            assert carl.coeffs == zeta.coeffs
            k = i + 1
            assert carl.deg <= k // (r - 1)
            assert special_polynomial(field, i, "zeta").deg <= i // (r - 1)
    elapsed = time.time() - t0
    assert elapsed < 120, f"criterion 3 runtime {elapsed:.1f}s exceeds 120s"
    print(
        f"PASS criterion 3: {enum_checked} power sums match enumeration, "
        f"translation and degree bounds hold for i <= 200 in {elapsed:.1f}s"
    )


def test_c04_logarithmic_growth_report():
    """deg_x special polynomials r=3, i <= 2000, fitted c < 3 (monitored)."""
    t0 = time.time()
    tab = PowerSumTable(F3, range(2001))
    worst = 0.0
    worst_i = None
    for i in range(1, 2001):
        deg = tab.degree_in_e(i)
        c = deg / math.log(i + 2, 3)
        if c > worst:
            worst, worst_i = c, i
    elapsed = time.time() - t0
    assert worst < 3.0, f"fitted c = {worst:.3f} at i = {worst_i} is not < 3"
    assert elapsed < 600, f"criterion 4 runtime {elapsed:.1f}s exceeds 600s"
    print(
        f"PASS criterion 4: deg_x <= c*log_3(i+2) with fitted c = {worst:.3f} "
        f"(at i = {worst_i}) over i <= 2000 in {elapsed:.1f}s"
    )


def test_c05_translation_identity():
    """eigenvalue(F (x) C^{(x)i}, f) = eigenvalue(F, f) * f^i, deg f <= 3, i <= 5."""
    rows_checked = 0
    for field in (F2, F3):
        minus_theta = rf(field, "T" if field.q == 2 else "2*T")
        sheaves = [unit_sheaf(field), carlitz_sheaf(field), sheaf_of_drinfeld_rank1(minus_theta)]
        primes = monic_irreducibles(field, 3)
        for F in sheaves:
            for i in range(6):
                rep = translate_identity_check(F, i, primes)
                assert rep.all_ok, (field.q, i)
                rows_checked += sum(1 for row in rep.rows if row[3] == "ok")
    print(f"PASS criterion 5: translation identity at {rows_checked} (F, i, f) rows")


def test_c06_modularity_classifications():
    """Delta eigen-systems classify as translates; class-I examples behave."""
    for field in (F2, F3):
        r = field.q
        primes = monic_irreducibles(field, 3)
        es1 = EigenSystem({P: RatFunc.from_poly(P) ** (r - 1) for P in primes})
        res1 = classify_eigen_system(es1, field)
        assert res1.verdict == "ClassIITranslate" and res1.j == r - 1
        es2 = EigenSystem({P: RatFunc.from_poly(P) ** (r - r * r) for P in primes})
        res2 = classify_eigen_system(es2, field)
        assert res2.verdict == "ClassIITranslate" and res2.j == r - r * r
        # beta = (theta+1)/theta is class I; verify alpha^(r-1) to precision 20
        beta = rf(field, "(T+1)/T")
        cres = class_I_test(beta, precision=20)
        assert cres.is_class_one()
        power = cres.alpha
        for _ in range(r - 2):
            power = power * cres.alpha
        assert power.eq_mod(Laurent.from_ratfunc(beta, 20), 20)
    res_bad = class_I_test(rf(F3, "2*T"))
    assert not res_bad.is_class_one()
    assert "valuation" in res_bad.obstruction
    print(
        "PASS criterion 6: Delta translates classify as ClassIITranslate(r-1) and "
        "ClassIITranslate(r-r^2); (theta+1)/theta is class I to precision 20; "
        "-theta fails on the valuation"
    )


def test_c07_conductor_evidence():
    """chi_{-theta}(Frob_f) depends only on f mod T, deg f <= 5, r in {2,3}."""
    for field in (F2, F3):
        minus_theta = rf(field, "T" if field.q == 2 else "2*T")
        groups = {}
        count = 0
        for f in monic_irreducibles(field, 5, enum_bound=1 << 13):
            try:
                val = chi_beta(minus_theta, f).value
            except BadPrime:
                assert f == pf(field, "T")  # the ramified prime itself
                continue
            key = (f % Poly.gen(field)).to_string()
            groups.setdefault(key, set()).add(val)
            count += 1
        assert all(len(v) == 1 for v in groups.values()), groups
        assert len(groups) == field.q - 1
    print("PASS criterion 7: chi_{-theta} constant on residue classes mod T (deg f <= 5)")


def test_c08_exponential_recursion():
    """exp functional equation holds identically through tau-degree 5; Q_1 = 1/(theta^r - theta)."""
    for field in (F2, F3):
        r = field.q
        C = carlitz(field)
        Q = exp_coefficients(C, 6)
        theta = RatFunc.gen(field)
        assert Q[1] == RatFunc.one(field) / (theta**r - theta)
        residuals = exp_functional_equation_residuals(C, Q)
        assert all(x.is_zero() for x in residuals)
        assert len(residuals) == 6
    print("PASS criterion 8: exp(theta x) = C_T(exp x) exactly through tau-degree 5, Q_1 = 1/(theta^r-theta)")


def _frobenius_matrix_by_scanning(red, v):
    """Independent oracle: find phi[v] by exhaustively scanning field
    extensions and rebuild the Frobenius matrix from scratch."""
    field_r = red.field_r
    F_f = red.dom.field
    r = red.r
    target = r ** (red.rank * v.deg)
    phi_v = red.action(v)
    for e in range(1, 16):
        E = F_f if e == 1 else FiniteField(F_f, pk_lex_irreducible(F_f, e), check=False)
        if E.q > (1 << 16):
            raise AssertionError("scan oracle exceeded its bound")
        roots = [x for x in E.elements() if apply_linear(E, phi_v.coeffs, x, r) == E.zero]
        if len(roots) != target:
            continue
        # coordinates: phi_lambda combinations of a greedy basis
        from ffzeta.ore import all_polys_below

        residues = all_polys_below(field_r, v.deg)

        def act(x, a):
            if a.is_zero():
                return E.zero
            return apply_linear(E, red.action(a).coeffs, x, r)

        basis = []
        span = {E.zero}
        for cand in sorted(roots):
            if cand in span or len(basis) == red.rank:
                continue
            basis.append(cand)
            span = {E.add(act(b, lam), s) for b in basis for lam in residues for s in span}
        coords = {}
        combos = [()]
        for _ in range(red.rank):
            combos = [c + (lam,) for c in combos for lam in residues]
        for combo in combos:
            acc = E.zero
            for b, lam in zip(basis, combo):
                acc = E.add(acc, act(b, lam))
            coords[acc] = combo
        qf = F_f.q
        cols = [coords[E.pow_(b, qf)] for b in basis]
        return [[cols[j][i] for j in range(red.rank)] for i in range(red.rank)]
    raise AssertionError("scan oracle did not find the torsion module")


def test_c09_rank2_local_factors():
    """r=2, phi_T = theta x + x^4: charpoly data consistent and hand-checked."""
    psi = drinfeld_rank2(F2, RatFunc.zero(F2), RatFunc.one(F2))
    # oracle values fixed by hand/brute torsion computation before the build:
    # all three small primes are supersingular-style with mu = 1
    expected_a = {
        "T": pf(F2, "0"),
        "T+1": pf(F2, "0"),
        "T^2+T+1": pf(F2, "1"),
    }
    for f in monic_irreducibles(F2, 2):
        a, mu = frobenius_charpoly(psi, f)
        assert a == expected_a[f.to_string()], f"a at {f} is {a}"
        assert mu == F2.one
        assert a.deg <= f.deg // 2
        # the Ore relation pi^2 - a*pi + mu*f = 0, solved by null space
        assert frobenius_charpoly_nullspace(psi, f) == (a, mu)
    # the values from the Hasse invariant are re-derived by the scanning
    # oracle at f = T, v = T+1 (fully independent route): trace and
    # determinant of Frobenius on phi[v]
    red = reduce_mod_prime(psi, pf(F2, "T"))
    M = _frobenius_matrix_by_scanning(red, pf(F2, "T+1"))
    v = pf(F2, "T+1")
    tr = (M[0][0] + M[1][1]) % v
    det = (M[0][0] * M[1][1] - M[0][1] * M[1][0]) % v
    assert tr == expected_a["T"] % v
    assert det == pf(F2, "T") % v  # mu * f with mu = 1
    # degenerate rank-1 run reproduces 1 - f u for the Carlitz module
    C = carlitz(F2)
    for f in monic_irreducibles(F2, 2):
        a, mu = frobenius_charpoly(C, f)
        assert a == f and mu is None
        assert frobenius_charpoly_nullspace(C, f) == (a, mu)
    print("PASS criterion 9: rank-2 charpoly data from the Hasse invariant match the hand values, scan oracle agrees; rank-1 degenerate gives 1-fu")


def test_c10_zero_regularity():
    """Newton polygons of zeta special polynomials: strictly increasing simple slopes."""
    checked = 0
    for field in (F2, F3):
        for i in range(101):
            sp = special_polynomial(field, i, "zeta")
            segs = newton_polygon(sp)
            slopes = [s for s, _ in segs]
            assert all(a < b for a, b in zip(slopes, slopes[1:])), (field.q, i)
            assert all(length == 1 for _, length in segs), (field.q, i)
            checked += 1
    print(f"PASS criterion 10: {checked} Newton polygons have strictly increasing length-1 slopes")
