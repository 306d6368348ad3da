"""Property tests: library results against brute-force oracles."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ffzeta import ore as ore_module
from ffzeta import poly as poly_module
from ffzeta.cli import main
from ffzeta.errors import BadReduction, NotCyclic
from ffzeta.ffield import (
    TABLE_LIMIT,
    FiniteField,
    f2_mod,
    f2_mul,
    f2_square,
    field_make,
    pk_add,
    pk_divmod,
    pk_gcd,
    pk_lex_irreducible,
    pk_mod,
    pk_mul,
    pk_powmod,
    pk_trim,
)
from ffzeta.lseries import EigenSystem, LocalFactor, PowerSumTable, classify_eigen_system, local_factor, power_sum
from ffzeta.ore import (
    FieldCoeffs,
    OrePoly,
    carlitz,
    drinfeld_rank1,
    drinfeld_rank2,
    frobenius_charpoly,
    good_model_twist,
    point_module_annihilator,
    reduce_mod_prime,
    residue_field,
)
from ffzeta.poly import (
    BivPoly,
    Poly,
    RatFunc,
    bareiss_det,
    monic_irreducibles,
    monic_polys,
    norm,
    poly_from_string,
    poly_gcd,
    ratfunc_from_string,
    resultant,
    split_valuation,
    terms_string,
)
from ffzeta.sheaf import frobenius_eigenvalue, sheaf_of_drinfeld_rank1
from oracles import (
    classify_by_ratfunc_division,
    csv_table_from_json,
    frobenius_charpoly_nullspace,
    good_model_by_ratfunc,
    poly_to_string_termwise,
    power_sum_enumerated,
    residue_mod,
)

# (p, m) for r in {2, 3, 4, 5, 7, 8, 9, 11, 13, 16}
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 2), st.integers(0, 40))
def test_power_sum_matches_enumeration(pm, e, k):
    field = field_make(*pm)
    assert power_sum(field, e, k) == power_sum_enumerated(field, e, k)


@pytest.mark.parametrize("pm", FIELDS, ids=[f"r={p}^{m}" for p, m in FIELDS])
@settings(max_examples=5, deadline=None)
@given(st.integers(0, 60))
def test_power_sums_live_on_one_residue_class(pm, k):
    # T -> cT with c in F_r^* permutes the monics of degree e up to c^e, so
    # S_e(k)(cT) = c^(ek) S_e(k)(T): T^i occurs only for i = e*k mod (r-1).
    # Checked on the enumerated sum, then the table that stores only that
    # class must give the same polynomial back
    field = field_make(*pm)
    s, tab = field.q - 1, PowerSumTable(field, range(k, k + 1))
    for e in range(3):
        enumerated = power_sum_enumerated(field, e, k)
        assert [i for i, c in enumerate(enumerated.coeffs) if c and (i - e * k) % s] == [], (e, k)
        assert tab.value(e, k) == enumerated, (e, k)


def _check_to_string(f: Poly) -> None:
    text = f.to_string()
    assert text == poly_to_string_termwise(f)
    assert poly_from_string(f.field, text) == f


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELDS), st.lists(st.integers(0, 10**6), max_size=40))
def test_to_string_matches_term_by_term_oracle(pm, idx):
    field = field_make(*pm)
    _check_to_string(Poly(field, [k % field.q for k in idx]))


@pytest.mark.parametrize("pm", FIELDS, ids=lambda pm: f"r{pm[0] ** pm[1]}")
def test_to_string_edge_cases(pm):
    # zero, constants, coefficient 1, and every coefficient 0..r-1, which
    # for r = 4, 8, 9, 16 includes codes >= p
    field = field_make(*pm)
    top = field.q - 1
    for coeffs in ([], [1], [top], [0, 1], [0, top], [1, 1, 0, 1], [top, 0, 0, 1],
                   list(range(field.q)), list(range(field.q))[::-1]):
        _check_to_string(Poly(field, coeffs))


# r = 257 adds three-digit codes
TEXT_FIELDS = FIELDS + [(257, 1)]


@st.composite
def sparse_polys(draw):
    """Zero, constants, coefficient 1 and long sparse tails: up to 8 nonzero
    codes (often 1 or r - 1) at positions below a length of up to 600."""
    p, m = draw(st.sampled_from(TEXT_FIELDS))
    field = field_make(p, m, bound=p**m)
    length = draw(st.integers(1, 600))
    coeffs = [0] * length
    codes = st.sampled_from([1, field.q - 1]) | st.integers(1, field.q - 1)
    for e in draw(st.lists(st.integers(0, length - 1), max_size=8)):
        coeffs[e] = draw(codes)
    return Poly(field, coeffs)


@settings(max_examples=200, deadline=None)
@given(sparse_polys())
def test_to_string_of_sparse_polys_matches_term_by_term_oracle(f):
    _check_to_string(f)


def test_to_string_prefix_cache_is_bounded():
    # the 262 nonzero codes of F_263 in one Poly, printed twice: the texts
    # stay right while the cache keeps no more than 256 prefixes
    field = field_make(263, 1, bound=263)
    f = Poly(field, range(263))
    assert f.to_string() == poly_to_string_termwise(f) == f.to_string()
    assert len(poly_module._PREFIXES) <= 256


def test_to_string_text_caches_stay_within_their_bound(monkeypatch):
    # with the bound lowered to 40 texts, dense Polys and one residue class
    # of packed rows, printed below and past it in turn, print the same
    # text as the term-by-term oracle while the "T^e" caches keep no more
    # than 40 texts: a row past the bound builds the texts of its own terms
    bound = 40
    monkeypatch.setattr(poly_module, "_T_TEXT_LIMIT", bound)
    monkeypatch.setattr(poly_module, "_T_POWERS", [])
    monkeypatch.setattr(poly_module, "_T_CLASSES", {})
    field = field_make(3, 1)
    for n in (200, 10, 39, 40, 41, 30, 1000, 25):
        coeffs = [(e * e + e // 3) % 3 for e in range(n)] + [2]  # degree n, every code
        f = Poly(field, coeffs)
        assert f.to_string() == poly_to_string_termwise(f)
        # the same codes on the exponents 1 + 2j, as a packed power sum prints them
        spread = [0] * (2 * len(coeffs))
        spread[1::2] = coeffs
        assert terms_string(bytes(coeffs), 1, 2) == poly_to_string_termwise(Poly(field, spread))
        assert len(poly_module._T_POWERS) <= bound
        assert sum(map(len, poly_module._T_CLASSES.values())) <= bound
    assert poly_module._T_POWERS and poly_module._T_CLASSES  # the short rows were cached


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELDS), st.lists(st.integers(0, 10**6), max_size=12), st.integers(0, 3))
def test_poly_constructor_trims_every_input_kind(pm, idx, pad):
    # list, tuple, bytes and generator inputs, with and without trailing
    # zeros, give the trimmed Poly with a tuple of codes
    field = field_make(*pm)
    codes = [k % field.q for k in idx] + [0] * pad
    trimmed = list(codes)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    for given_coeffs in (codes, tuple(codes), bytes(codes), (c for c in codes)):
        f = Poly(field, given_coeffs)
        assert type(f.coeffs) is tuple
        assert f.coeffs == tuple(trimmed)
        assert f == Poly(field, trimmed)


# r in {2, 3, 4, 5, 7, 8, 9}: residue fields over F_p (prime r, with tables)
# and towers over F_r (prime-power r, multiplying through F_r)
ORE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(ORE_FIELDS),
    st.integers(0, 10**6),
    st.lists(st.lists(st.integers(0, 10**6), max_size=4), min_size=3, max_size=3),
)
def test_ore_product_is_associative(pm, prime_idx, coeff_lists):
    field_r = field_make(*pm)
    primes = monic_irreducibles(field_r, 2)
    f = primes[prime_idx % len(primes)]
    F_f = residue_field(field_r, f)
    dom = FieldCoeffs(F_f, field_r.q)
    a, b, c = (
        OrePoly(dom, [k % F_f.q for k in ks]) for ks in coeff_lists
    )
    assert (a * b) * c == a * (b * c)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(ORE_FIELDS),
    st.integers(0, 10**6),
    st.lists(st.integers(0, 10**6), max_size=5),
    st.lists(st.integers(0, 10**6), max_size=3),
)
def test_ratfunc_residue_matches_field_division(pm, prime_idx, num_idx, den_idx):
    # the residue computed in F_r[T] equals num * den^-1 taken in F_f itself
    field_r = field_make(*pm)
    primes = monic_irreducibles(field_r, 2)
    f = primes[prime_idx % len(primes)]
    F_f = residue_field(field_r, f)
    num = Poly(field_r, [k % field_r.q for k in num_idx])
    den_tail = [k % field_r.q for k in den_idx]
    den = Poly(field_r, den_tail + [field_r.one])
    assume(poly_gcd(den, f).deg == 0)
    a = RatFunc(num, den)
    num_el, den_el = (a.num % f).code(), (a.den % f).code()
    assert residue_mod(a, f).code() == F_f.mul(num_el, F_f.inv(den_el))


# fields for the axiom check: F_r for r in {2, ..., 13}, residue fields A/(f)
# with deg f <= 3, degree-2 extensions of residue fields, and one tower with
# more than TABLE_LIMIT elements (a cubic residue field F_8 over F_2, then its
# degree-6 extension: 2^18 elements)
AXIOM_FIELDS = (
    [("make", pm) for pm in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1)]]
    + [("residue", pm, d) for pm in ORE_FIELDS for d in (1, 2, 3)]
    + [("ext", (3, 1), 2, 2), ("ext", (2, 2), 2, 2), ("ext", (2, 1), 3, 6)]
)


def _axiom_field(spec, prime_idx):
    field_r = field_make(*spec[1])
    if spec[0] == "make":
        return field_r
    primes = [f for f in monic_irreducibles(field_r, spec[2]) if f.deg == spec[2]]
    F_f = residue_field(field_r, primes[prime_idx % len(primes)])
    if spec[0] == "residue":
        return F_f
    return FiniteField(F_f, pk_lex_irreducible(F_f, spec[3]), check=False)


def _mul_through_base(F, a, b):
    """a*b from the coordinate lists over the base, reduced mod the modulus."""
    if F.base is None:
        return a * b % F.p
    B = F.base
    return F.from_coords(pk_mod(B, pk_mul(B, F.coords(a), F.coords(b)), F.modulus))


def test_axiom_fields_include_a_tower_past_the_table_limit():
    assert _axiom_field(AXIOM_FIELDS[-1], 0).q > TABLE_LIMIT


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(AXIOM_FIELDS),
    st.integers(0, 10**6),
    st.lists(st.integers(0, 10**18), min_size=3, max_size=3),
)
def test_field_axioms(spec, prime_idx, idx):
    F = _axiom_field(spec, prime_idx)
    a, b, c = (k % F.q for k in idx)
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == F.zero
    if a != F.zero:
        assert F.mul(a, F.inv(a)) == F.one
    assert F.pow_(a, F.q) == a
    assert F.from_pvector(F.to_pvector(a)) == a
    assert F.mul(a, b) == _mul_through_base(F, a, b)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(AXIOM_FIELDS),
    st.integers(0, 10**6),
    st.lists(st.integers(0, 10**18), max_size=7),
    st.lists(st.integers(0, 10**18), min_size=1, max_size=4),
    st.booleans(),
)
def test_divmod_is_euclidean(spec, prime_idx, a_idx, b_idx, monic):
    # a = q*b + r with deg r < deg b, for monic and non-monic divisors and a
    # dividend that may carry trailing zeros; q and r come back trimmed
    F = _axiom_field(spec, prime_idx)
    a = [k % F.q for k in a_idx]
    b = [k % F.q for k in b_idx[:-1]] + [F.one] if monic else pk_trim(F, [k % F.q for k in b_idx])
    assume(b)
    q, r = pk_divmod(F, a, b)
    assert pk_add(F, pk_mul(F, q, b), r) == pk_trim(F, a)
    assert len(r) < len(b)
    assert q == pk_trim(F, q) and r == pk_trim(F, r)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(ORE_FIELDS),  # r in {2, 3, 4, 5, 7, 8, 9}
    st.integers(0, 10**6),
    st.lists(st.lists(st.integers(0, 10**6), max_size=6), min_size=1, max_size=4),
)
def test_resultant_is_root_product(pm, prime_idx, coeff_lists):
    from types import SimpleNamespace

    from test_sheaf import _root_product_oracle

    from ffzeta.poly import BivPoly, resultant

    field_r = field_make(*pm)
    primes = monic_irreducibles(field_r, 3)
    f = primes[prime_idx % len(primes)]
    g = BivPoly(field_r, [Poly(field_r, [k % field_r.q for k in ks]) for ks in coeff_lists])
    assume(not g.is_zero())
    assert resultant(f, g) == _root_product_oracle(field_r, SimpleNamespace(num=g), f)


def _resultant_matrix(f, g):
    """sum_j M_j T^j, M_j the F_r-matrix of multiplication by g_j on F_r[theta]/(f)."""
    F, d = f.field, f.deg

    def column(i, gj):  # theta^i g_j mod f, padded to d coordinates
        res = pk_mod(F, pk_mul(F, [F.zero] * i + [F.one], list(gj.coeffs)), list(f.coeffs))
        return res + [F.zero] * (d - len(res))

    cols = [[column(i, gj) for gj in g.tcoeffs] for i in range(d)]
    return [[Poly(F, [c[k] for c in cols[i]]) for i in range(d)] for k in range(d)]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(ORE_FIELDS),  # r in {2, 3, 4, 5, 7, 8, 9}
    st.lists(st.integers(0, 10**6), min_size=1, max_size=4),  # tail of a monic f, deg 1..4
    st.lists(st.lists(st.integers(0, 10**6), max_size=5), min_size=1, max_size=4),  # g_0..g_t
    st.sampled_from(["as drawn", "times f", "times a factor of f"]),
)
def test_resultant_matches_bareiss(pm, f_tail, coeff_lists, top):
    # f may be reducible or have repeated factors; a top T-coefficient that
    # shares a factor with f takes the gcd split
    field_r = field_make(*pm)

    def el(k):
        return k % field_r.q

    f = Poly(field_r, [el(k) for k in f_tail] + [field_r.one])
    gs = [Poly(field_r, [el(k) for k in ks]) for ks in coeff_lists]
    if top == "times f":
        gs[-1] = gs[-1] * f
    elif top == "times a factor of f":
        factor = next((h for e in (1, 2) for h in monic_polys(field_r, e) if (f % h).is_zero()), f)
        gs[-1] = gs[-1] * factor
    g = BivPoly(field_r, gs)
    assume(not g.is_zero())
    assert resultant(f, g) == bareiss_det(field_r, _resultant_matrix(f, g))


@pytest.mark.parametrize(
    "pm,f,gs,h",
    [
        # f = (T+1)(T^2+1): the split at h = T+1 leaves g_0 on h, and T^2+1 takes the charpoly route
        ((3, 1), "T^3+T^2+T+1", ("T^2+1", "T+1"), "T+1"),
        # a prime f that divides g_1: the split leaves g_0 on f itself
        ((5, 1), "T^2+2", ("T+3", "T^3+T^2+2*T+2"), "T^2+2"),
    ],
)
def test_resultant_gcd_split_ends_in_the_norm(monkeypatch, pm, f, gs, h):
    field_r = field_make(*pm)
    f, h = poly_from_string(field_r, f), poly_from_string(field_r, h)
    g = BivPoly(field_r, [poly_from_string(field_r, x) for x in gs])
    calls = []

    def spy(f_, x):
        calls.append((f_, x))
        return norm(f_, x)

    monkeypatch.setattr(poly_module, "norm", spy)
    assert resultant(f, g) == bareiss_det(field_r, _resultant_matrix(f, g))
    assert calls == [(h, g.tcoeffs[0])]


def _ratfunc(field_r, idx_num, idx_den):
    """num/den from index lists: den is monic, of degree len(idx_den)."""
    def el(k):
        return k % field_r.q

    return RatFunc(Poly(field_r, [el(k) for k in idx_num]),
                   Poly(field_r, [el(k) for k in idx_den] + [field_r.one]))


@st.composite
def twisted_modules(draw, ranks, max_deg):
    """(phi, f): a Drinfeld module over any r the CLI accepts and a monic
    prime f of degree <= max_deg (<= max_deg - 1 above r = 9).  Coefficient
    i is drawn, then twisted by f^(e (r^i - 1)) with e in {-1, 0, 1}, so the
    good model needs the twist j = -e; a drawn flag multiplies the leading
    coefficient by f once more: a bad prime, except in rank 1 at r = 2."""
    field_r = field_make(*draw(st.sampled_from(FIELDS)))
    rank = draw(st.sampled_from(ranks))
    r = field_r.q
    primes = monic_irreducibles(field_r, max_deg if r <= 9 else max_deg - 1)
    f = primes[draw(st.integers(0, 10**6)) % len(primes)]
    u = RatFunc.from_poly(f)
    parts = draw(st.lists(st.tuples(st.lists(st.integers(0, 10**6), max_size=3),
                                    st.lists(st.integers(0, 10**6), max_size=2)),
                          min_size=rank, max_size=rank))
    coeffs = [_ratfunc(field_r, *part) for part in parts]
    assume(not coeffs[-1].is_zero())
    e = draw(st.integers(-1, 1))
    if e:
        coeffs = [a * u ** (e * (r**i - 1)) for i, a in enumerate(coeffs, 1)]
    if draw(st.booleans()):
        coeffs[-1] = coeffs[-1] * u
    return (drinfeld_rank1 if rank == 1 else drinfeld_rank2)(field_r, *coeffs), f


@settings(max_examples=200, deadline=None)
@given(twisted_modules(ranks=(1, 2), max_deg=2))
def test_frobenius_charpoly_matches_nullspace_oracle(module):
    # the Hasse-invariant route against the Ore-relation null space, on
    # twisted models and at bad primes (both raise BadReduction there);
    # deg f <= 2, and 1 above r = 9, keeps the oracle's Ore products small
    phi, f = module

    def route(charpoly):
        try:
            return charpoly(phi, f)
        except BadReduction:
            return "bad"

    assert route(frobenius_charpoly) == route(frobenius_charpoly_nullspace)


F3 = field_make(3, 1)


@settings(max_examples=200, deadline=None)
@given(twisted_modules(ranks=(1, 2), max_deg=3))
@example((drinfeld_rank2(F3, RatFunc.zero(F3), ratfunc_from_string(F3, "1/T^8")), poly_from_string(F3, "T")))
def test_good_model_matches_ratfunc_oracle(module):
    # the good model against twists and residues taken in F_r(T), bad primes
    # included (the example twists by j = 1 past a zero g); the null-space
    # oracle reduces through reduce_mod_prime, so it cannot see a defect in
    # the good model it shares with frobenius_charpoly
    phi, f = module
    try:
        j, residues = good_model_by_ratfunc(phi, f)
    except BadReduction:
        for route in (good_model_twist, reduce_mod_prime):
            with pytest.raises(BadReduction):
                route(phi, f)
        return
    red = reduce_mod_prime(phi, f)
    assert good_model_twist(phi, f) == red.twist == j
    assert red.coeffs == tuple(x.code() for x in residues)


@settings(max_examples=200, deadline=None)
@given(twisted_modules(ranks=(1,), max_deg=3))
def test_rank1_local_factor_matches_sheaf_resultant(module):
    # the norm route of local_factor against the tau-sheaf eigenvalue of the
    # good twist, two resultants over F_r; bad primes are read off v_f(beta)
    phi, f = module
    field_r, beta = phi.field_r, phi.coeffs[1]
    one = Poly.one(field_r)
    v = split_valuation(beta.num, f)[0] - split_valuation(beta.den, f)[0]
    if v % (field_r.q - 1):
        expected = LocalFactor(f, (one,), "bad-prime-rule")
    else:
        beta_good = beta * RatFunc.from_poly(f) ** -v
        lam = frobenius_eigenvalue(sheaf_of_drinfeld_rank1(beta_good), f).value
        expected = LocalFactor(f, (one, -lam), "rank1-formula")
    assert local_factor(phi, f) == expected


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(FIELDS),  # every r the CLI accepts
    st.lists(st.integers(0, 10**6), min_size=1, max_size=4),  # tail of a monic f, deg 1..4
    st.lists(st.integers(0, 10**6), max_size=9),  # x, of degree below or above deg f
    st.sampled_from(["as drawn", "times f", "constant"]),
)
def test_norm_matches_resultant(pm, f_tail, x_idx, shape):
    # the Euclidean norm against det(M_0), the Gauss-Jordan pass of the
    # resultant; f may be reducible or have repeated factors
    field_r = field_make(*pm)

    def el(k):
        return k % field_r.q

    f = Poly(field_r, [el(k) for k in f_tail] + [field_r.one])
    x = Poly(field_r, [el(k) for k in x_idx])
    assume(not x.is_zero())
    if shape == "times f":
        x = x * f
    elif shape == "constant":
        x = Poly.const(field_r, x.lc())
    n = norm(f, x)
    assert Poly.const(field_r, n) == resultant(f, BivPoly.from_theta_poly(x))
    if shape == "times f":
        assert n == field_r.zero
    elif shape == "constant":
        assert n == field_r.pow_(x.lc(), f.deg)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(FIELDS),  # every r the CLI accepts
    st.lists(st.integers(0, 10**6), min_size=1, max_size=4),  # tail of a monic f, deg 1..4
    st.integers(0, 10**6),  # a, of the linear T + a
    st.integers(0, 10**6),  # c, a scalar other than 0 and 1 where r > 2
    st.lists(st.integers(0, 10**6), max_size=5),  # g
    st.sampled_from(["T + a", "(T + a) g", "not monic"]),
)
@example((3, 1), [2], 2, 0, [1], "(T + a) g")  # f = x = T + 2: the Horner pass reads 0
@example((5, 1), [1, 0, 2], 3, 1, [4, 1], "not monic")  # x mod f = 3 (T + 3)
def test_norm_through_linear_divisors_matches_bareiss(pm, f_tail, a, c, g_idx, shape):
    # x = T + a leaves the divisor T + a after one step, or is a linear f's
    # only step; x = (T + a) g covers products with a linear factor, and
    # x = c (T + a) + f g a remainder c (T + a) that is not monic, whose
    # norm takes the factor c^deg f.  Checked against the Bareiss
    # determinant of M_0 over A, the resultant's oracle.
    field_r = field_make(*pm)
    q = field_r.q
    f = Poly(field_r, [k % q for k in f_tail] + [field_r.one])
    linear = Poly(field_r, [a % q, field_r.one])
    g = Poly(field_r, [k % q for k in g_idx])
    if shape == "T + a":
        x = linear
    elif shape == "(T + a) g":
        x = linear * g
    else:
        x = linear.scale(2 + c % (q - 2) if q > 2 else 1) + f * g
    assume(not x.is_zero())
    expected = bareiss_det(field_r, _resultant_matrix(f, BivPoly.from_theta_poly(x)))
    assert Poly.const(field_r, norm(f, x)) == expected


# -- packed F_2[T] -------------------------------------------------------------------

F2 = field_make(2, 1)
# F_2[T] coefficient lists, low first; trailing zeros test the trimming, and
# lengths past 64 bits leave one machine word
f2_lists = st.lists(st.integers(0, 1), max_size=90)


@settings(max_examples=200, deadline=None)
@given(f2_lists, f2_lists)
def test_f2_kernels_match_pk_kernels(a, b):
    # F_2[T] packed and unpacked by the code pair of Poly
    A, B = Poly(F2, a).code(), Poly(F2, b).code()

    def unpack(x):
        return list(Poly.from_code(F2, x).coeffs)

    assert unpack(A) == pk_trim(F2, a)
    assert unpack(A ^ B) == pk_add(F2, a, b)
    assert unpack(f2_mul(A, B)) == pk_mul(F2, a, b)
    assert unpack(f2_square(A)) == pk_mul(F2, a, a)
    if B:
        assert unpack(f2_mod(A, B)) == pk_mod(F2, a, pk_trim(F2, b))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=30), f2_lists)
def test_f2_norm_is_coprimality(f_tail, x):
    # over F_2, N_f(x) = Res(f, x) is 1 or 0 as x is prime to f or not
    f = Poly(F2, f_tail + [1])
    expected = 1 if pk_gcd(F2, f.coeffs, pk_trim(F2, x)) == [1] else 0
    assert norm(f, Poly(F2, x)) == expected


def _packed_off(monkeypatch):
    monkeypatch.setattr(F2, "f2_packed", False)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotCyclic:
        return "not cyclic"


# every r = 2^m with the largest prime degree that keeps the check near 1 s
# in all; the table route is ``_annihilator_tables`` called directly
CHAR2_DEGREES = {2: 10, 4: 5, 8: 3, 16: 2}


def _char2_modules(field_r):
    return [carlitz(field_r), drinfeld_rank1(field_r, ratfunc_from_string(field_r, "(T+1)/T")),
            drinfeld_rank2(field_r, RatFunc.zero(field_r), RatFunc.one(field_r)),
            drinfeld_rank2(field_r, RatFunc.gen(field_r), RatFunc.one(field_r))]


def _good_reductions(phi, primes):
    out = []
    for f in primes:
        with contextlib.suppress(BadReduction):
            out.append(reduce_mod_prime(phi, f))
    return out


def _table_route(red):
    field_r, f = red.field_r, red.prime
    mu = Poly(field_r, ore_module._annihilator_tables(field_r, f.coeffs, red.r,
                                                      [red.dom.field.coords(a) for a in red.coeffs[1:]]))
    return mu if mu.deg == f.deg else "not cyclic"


def test_f2_point_module_matches_table_route():
    # Carlitz, cbeta:(T+1)/T, rank2:0,1 and rank2:T,1 at every prime of
    # degree <= CHAR2_DEGREES[r]: the packed route of every r = 2^m against
    # F_r's operation tables, with non-cyclic point modules at r = 2 and 4
    for r, dmax in CHAR2_DEGREES.items():
        field_r = field_make(2, r.bit_length() - 1)
        primes = monic_irreducibles(field_r, dmax)
        reds = [red for phi in _char2_modules(field_r) for red in _good_reductions(phi, primes)]
        packed = [_outcome(point_module_annihilator, red) for red in reds]
        assert packed == [_table_route(red) for red in reds], r
        assert r > 4 or "not cyclic" in packed, r


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1)])
def test_point_module_routes_on_residue_codes_at_every_2_power(monkeypatch, p, m):
    # at r = 2^m the point module never enters the table route and builds
    # no operation table but F_r's; at r = 3 it takes the table route
    from collections import OrderedDict

    field_r = field_make(p, m)
    primes = monic_irreducibles(field_r, CHAR2_DEGREES.get(field_r.q, 2))
    built = []
    build = FiniteField._build_tables

    def counted(field):
        if field is not field_r:
            built.append(field)
        build(field)

    def refuse(*args):
        raise AssertionError("table route taken")

    monkeypatch.setattr(FiniteField, "_build_tables", counted)
    monkeypatch.setattr(ore_module, "_annihilator_tables", refuse)
    # fresh residue fields, and a cache size that is restored with the cache
    monkeypatch.setattr(ore_module, "_RESIDUE_CACHE", OrderedDict())
    monkeypatch.setattr(ore_module, "_residue_cache_elements", 0)
    reds = [red for phi in _char2_modules(field_r) for red in _good_reductions(phi, primes)]
    if p == 2:
        for red in reds:
            _outcome(point_module_annihilator, red)
        assert built == []
    else:
        with pytest.raises(AssertionError, match="table route taken"):
            point_module_annihilator(reds[0])


def test_f2_frobenius_charpoly_matches_table_route(monkeypatch):
    # rank2:0,1 and rank2:T,1 at every prime of degree <= 10, with the p = 2
    # dispatch on and off
    modules = [drinfeld_rank2(F2, ratfunc_from_string(F2, g), RatFunc.one(F2)) for g in ("0", "T")]
    cases = [(phi, f) for phi in modules for f in monic_irreducibles(F2, 10)]
    packed = [frobenius_charpoly(phi, f) for phi, f in cases]
    _packed_off(monkeypatch)
    assert [frobenius_charpoly(phi, f) for phi, f in cases] == packed


def test_f2_per_prime_kernels_build_no_tables(monkeypatch):
    # at r = 2 the point module, the rank-2 Frobenius and the norm run on
    # packed ints and never ask F_2 for its operation tables
    primes = monic_irreducibles(F2, 8)
    rank2 = drinfeld_rank2(F2, RatFunc.gen(F2), RatFunc.one(F2))
    reds = [reduce_mod_prime(phi, f) for phi in (carlitz(F2), rank2) for f in primes]

    def refuse(self):
        raise AssertionError(f"ops() of {self} called")

    monkeypatch.setattr(FiniteField, "ops", refuse)
    for red in reds:
        _outcome(point_module_annihilator, red)
    for f in primes:
        frobenius_charpoly(rank2, f)
        norm(f, f + Poly.gen(F2))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)]),
    st.integers(-4, 4),
    st.sampled_from(["ones", "constant", "random"]),
    st.lists(st.integers(0, 10**6), min_size=55, max_size=55),
    st.integers(0, 10**6),
)
def test_classify_matches_ratfunc_division(pm, j, kind, idx, bumped):
    # alpha_P = c_P * P^j at the primes of degree <= 3, c_P in F_r^*; the
    # classifier against c_P = alpha_P / P^j taken in F_r(T)
    field_r = field_make(*pm)
    r = field_r.q
    primes = monic_irreducibles(field_r, 3)
    cs = [1 + k % (r - 1) for k in idx[: len(primes)]]
    if kind != "random":
        cs = [1 if kind == "ones" else cs[0]] * len(primes)
    one = Poly.one(field_r)

    def alpha(P, c):
        Q = P ** abs(j)
        return RatFunc(Q.scale(c)) if j >= 0 else RatFunc(Poly.const(field_r, c), Q)

    es = EigenSystem({P: alpha(P, c) for P, c in zip(primes, cs)})
    res = classify_eigen_system(es, field_r)
    assert res == classify_by_ratfunc_division(es, field_r)
    assert res.j == j and res.table == {P.to_string(): c for P, c in zip(primes, cs)}
    if set(cs) == {1}:
        assert res.verdict == "ClassIITranslate"
    elif len(set(cs)) > 1:
        assert res.verdict == "ClassIWitness"
    else:
        assert res.verdict == "NoMatch"
        assert res.note == "constant non-trivial table matches neither class"
    # one alpha times T+1 (a degree mismatch), or times (T+1)/T (alpha/P^j
    # not constant there)
    t_plus_1 = poly_from_string(field_r, "T+1")
    k = bumped % len(primes)
    for den in (one, Poly.gen(field_r)):
        values = dict(es.values)
        values[primes[k]] = values[primes[k]] * RatFunc(t_plus_1, den)
        bad = EigenSystem(values)
        res = classify_eigen_system(bad, field_r)
        assert res.verdict == "NoMatch"
        assert res == classify_by_ratfunc_division(bad, field_r)
    assert res.note == f"alpha/P^j not constant at {primes[k]}"


def _r_flag(pm):
    return ["--r", f"{pm[0]}^{pm[1]}" if pm[1] > 1 else str(pm[0])]


@st.composite
def table_argvs(draw):
    """The argv of a ``special`` run over any field with a random --i
    range, or of an ``lfactors`` run of a random cbeta: or rank2: object at
    --dmax 0-2, in the default format (JSON)."""
    pm = draw(st.sampled_from(FIELDS))
    r_flag = _r_flag(pm)
    if draw(st.booleans()):
        lo = draw(st.integers(0, 40))
        i_range = f"{lo}..{lo + draw(st.integers(0, 6))}"
        return ["special", *r_flag, "--kind", draw(st.sampled_from(["zeta", "carlitz"])), "--i", i_range]
    field_r = field_make(*pm)
    idx = st.lists(st.integers(0, 10**6), max_size=3)
    parts = [_ratfunc(field_r, draw(idx), draw(idx)) for _ in range(draw(st.integers(1, 2)))]
    assume(not parts[-1].is_zero())
    obj = ("cbeta:" if len(parts) == 1 else "rank2:") + ",".join(a.to_string() for a in parts)
    return ["lfactors", obj, *r_flag, "--dmax", str(draw(st.integers(0, 2)))]


def _stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@settings(max_examples=100, deadline=None)
@given(table_argvs())
@example(["lfactors", "cbeta:T", "--r", "2", "--dmax", "0"])
def test_streamed_tables_match_one_block_oracles(argv):
    # the streamed JSON is the indented dump of its own payload, and the
    # streamed CSV is the one-block CSV of the same rows
    out = _stdout_of(argv)
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert _stdout_of([*argv, "--format", "csv"]) == csv_table_from_json(payload)


def _eigenvalues(field_r, argv, provenance):
    """prime -> a for the rows of an ``lfactors`` CSV with the given
    provenance, a read off the denominator 1 - a*u."""
    eigen = {}
    for line in _stdout_of([*argv, "--format", "csv"]).splitlines()[2:]:
        prime, den, prov = line.split(",")
        if prov == provenance:
            assert den.startswith("1+") and den.endswith("*u"), den
            minus_a = poly_from_string(field_r, den[2:-2].strip("()"))
            eigen[poly_from_string(field_r, prime)] = -minus_a
    return eigen


def _classified(r_flag, eigen):
    """``classify``'s JSON on the eigen file of the lines "f,a"."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "eigen.csv")
        with open(path, "w") as fh:
            fh.writelines(f"{f},{a}\n" for f, a in eigen.items())
        return json.loads(_stdout_of(["classify", path, *r_flag]))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.lists(st.integers(0, 10**6), max_size=3),
    st.lists(st.integers(0, 10**6), max_size=2),
    st.booleans(),
)
def test_cbeta_rows_classify_by_the_norm_of_beta(pm, num_idx, den_idx, power):
    # the CLI round trip: lfactors cbeta:beta at the good primes of degree
    # <= 2 as an eigen file.  alpha_f = c_f * f with c_f = N_f(beta')^-1,
    # beta' = beta with f split out of num and den and N_f(x) =
    # x^((r^deg f - 1)/(r - 1)) mod f, so classify reads j = 1 and the
    # table c_f: ClassIITranslate when every c_f is 1 (as when beta is an
    # (r-1)-th power), ClassIWitness when they differ, else NoMatch
    field_r = field_make(*pm)
    r = field_r.q
    beta = _ratfunc(field_r, num_idx, den_idx)
    assume(not beta.is_zero())
    if power:
        beta = beta ** (r - 1)
    r_flag = _r_flag(pm)
    eigen = _eigenvalues(field_r, ["lfactors", f"cbeta:{beta}", *r_flag, "--dmax", "2"], "rank1-formula")
    assume(len({f.deg for f in eigen}) == 2)
    table = {}
    for f in eigen:
        n_num, n_den = (pk_powmod(field_r, split_valuation(x, f)[1].coeffs, (r**f.deg - 1) // (r - 1), f.coeffs)
                        for x in (beta.num, beta.den))
        table[f.to_string()] = field_r.mul(n_den[0], field_r.inv(n_num[0]))
    res = _classified(r_flag, eigen)
    assert res["j"] == 1 and res["table"] == table
    cs = set(table.values())
    assert res["verdict"] == ("ClassIITranslate" if cs == {1} else "ClassIWitness" if len(cs) > 1 else "NoMatch")
    if power:
        assert cs == {1}


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 4))
def test_tensorpower_rows_classify_as_the_translate_by_n(pm, n):
    # the CLI round trip: lfactors tensorpower:n at every prime of degree
    # <= 2 as an eigen file classifies as ClassIITranslate with j = n
    field_r = field_make(*pm)
    r_flag = _r_flag(pm)
    eigen = _eigenvalues(field_r, ["lfactors", f"tensorpower:{n}", *r_flag, "--dmax", "2"], "tau-sheaf-eigenvalue")
    assert list(eigen) == monic_irreducibles(field_r, 2)
    res = _classified(r_flag, eigen)
    assert (res["verdict"], res["j"]) == ("ClassIITranslate", n)
    assert res["table"] == {f.to_string(): 1 for f in eigen}


# -- the code of a Poly ------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS), st.lists(st.integers(0, 10**6), max_size=12), st.integers(0, 10**6),
       st.integers(0, 2))
def test_code_is_the_residue_element_and_the_order_of_monics(pm, idx, prime_idx, d):
    # from_code inverts code; below deg f the code is the element of A/(f)
    # with those coordinates; monic_polys(F, d) yields the codes q^d ... 2q^d - 1
    field = field_make(*pm)
    q = field.q
    p = Poly(field, [k % q for k in idx])
    assert Poly.from_code(field, p.code()) == p
    primes = monic_irreducibles(field, 2)
    f = primes[prime_idx % len(primes)]
    low = Poly(field, p.coeffs[: f.deg])
    assert low.code() == residue_field(field, f).from_coords(low.coeffs)
    assert [n.code() for n in monic_polys(field, d)] == list(range(q**d, 2 * q**d))
