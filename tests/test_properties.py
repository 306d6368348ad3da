"""Property tests: library results against brute-force oracles."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ffzeta.ffield import TABLE_LIMIT, FiniteField, field_make, pk_lex_irreducible, pk_mod, pk_mul
from ffzeta.lseries import power_sum, power_sum_enumerated
from ffzeta.ore import FieldCoeffs, OrePoly, ratfunc_residue, residue_field, residue_to_element
from ffzeta.poly import Poly, RatFunc, monic_irreducibles, poly_gcd

# (p, m) for r in {2, 3, 4, 5, 7, 8, 9, 11, 13, 16}
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 2), st.integers(0, 40))
def test_power_sum_matches_enumeration(pm, e, k):
    field = field_make(*pm)
    assert power_sum(field, e, k) == power_sum_enumerated(field, e, k)


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
