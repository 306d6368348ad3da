"""Property tests: library results against brute-force oracles."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ffzeta.ffield import field_make
from ffzeta.lseries import power_sum, power_sum_enumerated
from ffzeta.ore import FieldCoeffs, OrePoly, residue_field
from ffzeta.poly import monic_irreducibles

# (p, m) for r in {2, 3, 4, 5, 7, 8, 9, 11, 13, 16}
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 2), st.integers(0, 40))
def test_power_sum_matches_enumeration(pm, e, k):
    field = field_make(*pm)
    assert power_sum(field, e, k) == power_sum_enumerated(field, e, k)


# r in {2, 3, 4, 5, 7, 8, 9}: residue fields are FiniteField (prime r) or ExtField
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
