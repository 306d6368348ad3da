"""Property tests: library results against brute-force oracles."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ffzeta.ffield import (
    TABLE_LIMIT,
    FiniteField,
    field_make,
    pk_add,
    pk_divmod,
    pk_lex_irreducible,
    pk_mod,
    pk_mul,
    pk_trim,
)
from ffzeta.lseries import power_sum, power_sum_enumerated
from ffzeta.ore import FieldCoeffs, OrePoly, ratfunc_residue, residue_field, residue_to_element
from ffzeta.poly import (
    BivPoly,
    Poly,
    RatFunc,
    bareiss_det,
    monic_irreducibles,
    monic_polys,
    poly_from_string,
    poly_gcd,
    resultant,
)

# (p, m) for r in {2, 3, 4, 5, 7, 8, 9, 11, 13, 16}
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 2), st.integers(0, 40))
def test_power_sum_matches_enumeration(pm, e, k):
    field = field_make(*pm)
    assert power_sum(field, e, k) == power_sum_enumerated(field, e, k)


def _to_string_oracle(f: Poly) -> str:
    """The canonical encoding written term by term through ``index_of``."""
    F = f.field
    if f.is_zero():
        return "0"
    terms = []
    for e in range(f.deg, -1, -1):
        c = f.coeffs[e]
        if c == F.zero:
            continue
        ci = F.index_of(c)
        if e == 0:
            terms.append(str(ci))
        else:
            xpart = "T" if e == 1 else f"T^{e}"
            terms.append(xpart if ci == 1 else f"{ci}*{xpart}")
    return "+".join(terms)


def _check_to_string(f: Poly) -> None:
    text = f.to_string()
    assert text == _to_string_oracle(f)
    assert poly_from_string(f.field, text) == f


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELDS), st.lists(st.integers(0, 10**6), max_size=40))
def test_to_string_matches_term_by_term_oracle(pm, idx):
    field = field_make(*pm)
    _check_to_string(Poly(field, [field.element_from_index(k % field.q) for k in idx]))


@pytest.mark.parametrize("pm", FIELDS, ids=lambda pm: f"r{pm[0] ** pm[1]}")
def test_to_string_edge_cases(pm):
    # zero, constants, coefficient 1, and every coefficient 0..r-1, which
    # for r = 4, 8, 9, 16 includes codes >= p
    field = field_make(*pm)
    top = field.q - 1
    for coeffs in ([], [1], [top], [0, 1], [0, top], [1, 1, 0, 1], [top, 0, 0, 1],
                   list(range(field.q)), list(range(field.q))[::-1]):
        _check_to_string(Poly(field, coeffs))


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
        OrePoly(dom, [F_f.element_from_index(k % F_f.q) for k in ks]) for ks in coeff_lists
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
    num = Poly(field_r, [field_r.element_from_index(k % field_r.q) for k in num_idx])
    den_tail = [field_r.element_from_index(k % field_r.q) for k in den_idx]
    den = Poly(field_r, den_tail + [field_r.one])
    assume(poly_gcd(den, f).deg == 0)
    a = RatFunc(num, den)
    num_el = residue_to_element(field_r, F_f, a.num)
    den_el = residue_to_element(field_r, F_f, a.den)
    assert ratfunc_residue(field_r, F_f, a, f) == F_f.mul(num_el, F_f.inv(den_el))


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
    g = BivPoly(field_r, [Poly(field_r, [field_r.element_from_index(k % field_r.q) for k in ks]) for ks in coeff_lists])
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
        return field_r.element_from_index(k % field_r.q)

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
