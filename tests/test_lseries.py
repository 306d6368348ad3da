import functools
import itertools
import math
import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffzeta import lseries
from ffzeta.errors import (
    BoundExceeded,
    InsufficientData,
    NonConvergent,
    Unsupported,
    ZeroInput,
)
from ffzeta.ffield import FiniteField, field_make
from ffzeta.laurent import INF, Laurent
from ffzeta.lseries import (
    Classification,
    EigenSystem,
    LocalFactor,
    PowerSumTable,
    SInfinityPoint,
    SpecialPolynomial,
    ZetaA,
    a_pow_s,
    classify_eigen_system,
    euler_product,
    euler_product_symbolic,
    local_factor,
    newton_polygon,
    power_sum,
    power_sums_enumerated_batch,
    special_polynomial,
    translate_identity_check,
    vadic_congruence_check,
)
from ffzeta.ore import carlitz, drinfeld_rank1, drinfeld_rank2
from ffzeta.poly import (
    Poly,
    RatFunc,
    monic_irreducibles,
    poly_from_string,
    ratfunc_from_string,
)
from ffzeta.sheaf import GaloisCharacterValue, carlitz_sheaf, carlitz_tensor_power, chi_beta, unit_sheaf
from oracles import DensePowerSumTable, power_sum_enumerated

F2 = field_make(2, 1)
F3 = field_make(3, 1)


def pf(field, text):
    return poly_from_string(field, text)


def rf(field, text):
    return ratfunc_from_string(field, text)


# -- a^s ------------------------------------------------------------------------


def test_a_pow_s_trivials():
    s = SInfinityPoint(Laurent.t_power(F3, -2), 5)
    one = pf(F3, "1")
    assert a_pow_s(one, s) == Laurent.one(F3)
    # a = T: <T> = 1 so T^s = x
    assert a_pow_s(pf(F3, "T"), s) == s.x


def test_a_pow_s_integer_round_trip():
    # a^(s_i) = a^i exactly
    for field in (F2, F3):
        for i in (0, 1, 2, 5):
            s = SInfinityPoint.integer(field, i)
            for atext in ["T", "T+1", "T^2+T+1"]:
                a = pf(field, atext)
                got = a_pow_s(a, s)
                assert got == Laurent.from_poly(a**i)


def test_a_pow_s_group_law():
    s1 = SInfinityPoint(Laurent.t_power(F3, -1), 2)
    s2 = SInfinityPoint(Laurent.t_power(F3, -2), 3)
    a = pf(F3, "T+1")
    lhs = a_pow_s(a, s1.add(s2))
    rhs = a_pow_s(a, s1) * a_pow_s(a, s2)
    assert lhs.eq_mod(rhs, 20)


def test_a_pow_s_rejects():
    s = SInfinityPoint.integer(F3, 1)
    with pytest.raises(ZeroInput):
        a_pow_s(Poly.zero(F3), s)
    with pytest.raises(ValueError):
        a_pow_s(pf(F3, "2*T"), s)


# -- result records -----------------------------------------------------------------


_T2, _ONE2 = pf(F2, "T"), Poly.one(F2)
# a maker of one record per type, each call building it anew, and a field of it
RECORDS = {
    "LocalFactor": (lambda: LocalFactor(_T2, (_ONE2, _T2), "sheaf"), "provenance"),
    "SpecialPolynomial": (lambda: SpecialPolynomial(i=1, kind="zeta", coeffs=(_ONE2, _T2)), "coeffs"),
    "Classification": (lambda: Classification("NoMatch", None, None, None), "note"),
    "GaloisCharacterValue": (lambda: GaloisCharacterValue(_T2, pf(F2, "T+1")), "modulus"),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_records_are_frozen_values(name):
    make, field = RECORDS[name]
    a, b = make(), make()
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    assert a is not b and a == b and hash(a) == hash(b)
    assert not a != b


def test_record_defaults_and_checks():
    lf = LocalFactor(_T2, (_ONE2, _T2), "sheaf")
    assert lf != (_T2, (_ONE2, _T2), "sheaf")
    assert lf != LocalFactor(_T2, (_ONE2, _T2), "oracle")
    assert Classification("NoMatch", None, None, None).note == ""
    assert GaloisCharacterValue(_T2, pf(F2, "T+1")).modulus is None
    with pytest.raises(ZeroInput):
        SInfinityPoint(Laurent.zero(F2), 0)


# -- power sums -------------------------------------------------------------------


def test_power_sum_trivials():
    for field in (F2, F3):
        for k in (0, 1, 5, 17):
            assert power_sum(field, 0, k).is_one()  # S_0 = 1
    # r=3: S_1(1) = 3T + (0+1+2) = 0
    assert power_sum(F3, 1, 1).is_zero()
    # S_e(0) = r^e = 0 for e >= 1
    for e in (1, 2, 3):
        assert power_sum(F2, e, 0).is_zero()
        assert power_sum(F3, e, 0).is_zero()
    # r=2: S_1(1) = T + (T+1) = 1
    assert power_sum(F2, 1, 1).is_one()


def test_power_sum_matches_enumeration_exhaustively():
    # the recursion equals brute force wherever brute force can reach
    for field, e_max, k_max in [(F2, 6, 40), (F3, 4, 40)]:
        for e in range(e_max + 1):
            batch = power_sums_enumerated_batch(field, e, k_max)
            for k in range(k_max + 1):
                assert power_sum(field, e, k) == batch[k], (field.q, e, k)


@pytest.mark.parametrize(
    "p,e,k_max",
    [
        (13, 2, 340),  # products c * S_1 reach 12 * 12 and must not wrap
        (17, 2, 300),  # products c * S_1 reach 16 * 16 = 256, past a uint8 row
        (131, 1, 400),  # residues up to 130 must fit the row storage
    ],
)
def test_power_sum_matches_enumeration_at_large_p(p, e, k_max):
    field = field_make(p, 1, bound=200)
    batch = power_sums_enumerated_batch(field, e, k_max, enum_bound=4096)
    wrong = [k for k in range(k_max + 1) if power_sum(field, e, k) != batch[k]]
    assert wrong == []


# every r the fold test runs at, with the largest e batch enumeration checks;
# p = 17 and 257 leave the 8-bit slot, and no byte holds a residue mod 257
FOLD_FIELDS = [(2, 1, 5), (3, 1, 4), (2, 2, 0), (5, 1, 2), (7, 1, 2), (2, 3, 0), (3, 2, 0),
               (13, 1, 2), (2, 4, 0), (17, 1, 2), (257, 1, 1)]


def _forced_tables(field, k_max, monkeypatch):
    """The default table, one that reduces after every term, and one whose
    slots of 16 bits or more are filled up to the top before they fold."""
    plan = lseries._slot_plan

    def full_slots(p):
        width = max(16, plan(p)[0])
        return width, ((1 << width) - p) // (p - 1) ** 2

    ks = range(k_max + 1)
    tables = [PowerSumTable(field, ks)]
    monkeypatch.setattr(lseries, "_slot_plan", lambda p: (plan(p)[0], 1))
    tables.append(PowerSumTable(field, ks))
    monkeypatch.setattr(lseries, "_slot_plan", full_slots)
    tables.append(PowerSumTable(field, ks))
    monkeypatch.undo()
    return tables


@pytest.mark.parametrize("p,m,e_batch", FOLD_FIELDS, ids=[f"r={p}^{m}" for p, m, _ in FOLD_FIELDS])
def test_power_sum_table_folds_after_every_term(monkeypatch, p, m, e_batch):
    field = field_make(p, m, bound=300)
    r = field.q
    k_max = 600 if p > 256 else 300  # S_1(k) at r = 257 has two terms from k = 512 on
    tables = _forced_tables(field, k_max, monkeypatch)
    default, every_term, full = tables
    assert max(len(chunks) for chunks in every_term._chunks.values()) > 1  # a reduction per term
    assert p > 256 or full._plan  # and at least one fold before the byte map
    for e in range(default.zero_row + 1):
        for k in range(k_max + 1):
            got = [t.value(e, k) for t in tables]
            assert got[1] == got[0] and got[2] == got[0], (r, e, k)
    for e in range(1, e_batch + 1):
        batch = power_sums_enumerated_batch(field, e, k_max, enum_bound=4096)
        assert [default.value(e, k) for k in range(k_max + 1)] == batch, (r, e)
    if m > 1:  # the r monics of degree 1
        for k in range(2 * r + 2):
            assert default.value(1, k) == power_sum_enumerated(field, 1, k), (r, k)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 131, 251, 257, 3000000019, 4294967291])
def test_reduce_maps_every_slot_value_to_its_residue(monkeypatch, p):
    # fill slots with every value they may hold before a reduction, up to
    # the largest, and reduce them at once: in the library's own slots, and
    # in full slots of 16 bits or more, which fold before the byte map
    own = lseries._slot_plan(p)
    wide = max(16, own[0])
    for width, room in (own, (wide, ((1 << wide) - p) // (p - 1) ** 2)):
        top = (p - 1) * (1 + (p - 1) * room)
        assert room >= 1 and top < 1 << width  # a full slot never carries into the next
        monkeypatch.setattr(lseries, "_slot_plan", lambda p: (width, room))
        tab = PowerSumTable(FiniteField(p, (0, 1)), range(1))
        values = [*range(0, top, max(1, top >> 16)), top, 1]  # a short top slot too
        code = "<%d%s" % (len(values), lseries._SLOT_FORMATS[width])
        acc = int.from_bytes(struct.pack(code, *values), "little")
        tab._cover_folds(acc.bit_length())
        assert tab._reduce(acc) == int.from_bytes(struct.pack(code, *[v % p for v in values]), "little")


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (11, 1), (2, 4), (17, 1)])
def test_lucas_rows_match_the_binomials(p, m):
    # every k up to k_max, then a few alone, whose supports are made without
    # those of the k below them
    step, k_max = p**m - 1, 3 * p**m + 5
    rows = {**lseries._lucas_rows(p, step, range(k_max + 1)),
            **lseries._lucas_rows(p, step, [p**(m + 2) - 2, 5 * p**(m + 1) + 3, p**(m + 2) + 1])}
    for k, groups in rows.items():
        want: dict = {}
        for j in range(step, k + 1, step):
            if math.comb(k, j) % p:
                want.setdefault(-math.comb(k, j) % p, set()).add(k - j)
        assert [w for w, _ in groups] == sorted(want), (k,)
        assert all(len(kids) == len(want[w]) and set(kids) == want[w] for w, kids in groups), (k,)


def _digit_sum(k: int, r: int) -> int:
    total = 0
    while k:
        k, digit = divmod(k, r)
        total += digit
    return total


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_power_sums_vanish_below_the_digit_sum_bound(p, m):
    # the Carlitz-Lee criterion: S_e(k) = 0 whenever the base-r digit sum of
    # k is below e(r - 1), here for every e(r - 1) <= k <= 300; at prime r
    # exactly then
    field = field_make(p, m)
    r, k_max = field.q, 300
    tab = DensePowerSumTable(field, k_max)
    for k in range(k_max + 1):
        digits = _digit_sum(k, r)
        for e in range(1, k // (r - 1) + 1):
            if digits < e * (r - 1):
                assert not tab.is_nonzero(e, k), (e, k)
            elif m == 1:
                assert tab.is_nonzero(e, k), (e, k)


# k <= 2000 past the exhaustive check above; the rows of r = 2 cost most,
# so its converse stops at k <= 500
DIGIT_SUM_K = {2: 500, 3: 2000, 5: 2000, 7: 2000, 11: 2000, 13: 2000}


@functools.lru_cache(maxsize=None)
def _prime_table(p: int) -> DensePowerSumTable:
    return DensePowerSumTable(field_make(p, 1), DIGIT_SUM_K[p])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 5, 7, 13]), st.integers(0, 2000))
def test_power_sums_vanish_below_the_digit_sum_bound_to_k_2000(r, k):
    # the vanishing side of the digit-sum criterion at drawn k <= 2000
    tab, digits = _prime_table(r), _digit_sum(k, r)
    for e in range(digits // (r - 1) + 1, k // (r - 1) + 1):
        assert not tab.is_nonzero(e, k), (e, k)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(DIGIT_SUM_K)), st.integers(0, 2000))
def test_power_sums_survive_up_to_the_digit_sum_bound_at_prime_r(r, k):
    # the converse at prime r: S_e(k) != 0 whenever the base-r digit sum of
    # k is at least e(r - 1); at r = 4 and r = 9 some of these vanish
    k %= DIGIT_SUM_K[r] + 1
    tab = _prime_table(r)
    for e in range(1, _digit_sum(k, r) // (r - 1) + 1):
        assert tab.is_nonzero(e, k), (e, k)


def _dominated(j: int, k: int, p: int) -> bool:
    while j:
        if j % p > k % p:
            return False
        j, k = j // p, k // p
    return True


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 13]), st.integers(0, 400), st.integers(0, 40))
def test_lattice_is_the_union_of_the_digit_dominated_sets(p, lo, width):
    hi = lo + width
    want = [j for j in range(hi + 1) if any(_dominated(j, k, p) for k in range(max(lo, j), hi + 1))]
    assert lseries._lattice(p, lo, hi, len(want)) == want
    assert lseries._lattice(p, lo, hi, len(want) - 1) is None


# every r the CLI accepts; the dense oracle reaches k <= 3000 where it builds
# in a fraction of a second, and shares the tables of the digit-sum tests
CLI_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1), (2, 4)]
DENSE_K = {**DIGIT_SUM_K, 4: 2000, 8: 3000, 9: 3000, 16: 3000}


@functools.lru_cache(maxsize=None)
def _dense_table(p: int, m: int) -> DensePowerSumTable:
    return _prime_table(p) if m == 1 else DensePowerSumTable(field_make(p, m), DENSE_K[p**m])


def _slot_values(terms) -> list:
    """(first, slot values) per entry, whatever the slot width."""
    return [(first, list(slots)) for first, slots in terms]


def _dense_terms(tab: DensePowerSumTable, k: int) -> list:
    """``_slot_values`` of S_e(k) for e up to the last nonzero one."""
    terms = [tab.slots(e, k) for e in range(k // (tab.r - 1) + 1)]
    while len(terms) > 1 and not terms[-1][1]:
        terms.pop()
    return _slot_values(terms)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CLI_FIELDS), st.lists(st.integers(1, 3000), min_size=1, max_size=4),
       st.sampled_from(["zeta", "carlitz"]))
def test_sparse_index_sets_match_the_dense_oracle(pm, ks, kind):
    # a table grown one drawn k at a time over the union of their lattices,
    # from an empty cache, holds the dense oracle's rows slot for slot: the
    # live entries, the zero row and the growth by unions skip nothing
    field, (p, m) = field_make(*pm), pm
    dense = _dense_table(p, m)
    ks = [k % (dense.k_max - 1) + 1 for k in ks]
    with mock.patch.dict(lseries._TABLE_CACHE, clear=True):
        for i in ks:
            sp = special_polynomial(field, i, kind)
            assert _slot_values(sp.terms) == _dense_terms(dense, sp.exponent), (field.q, i, kind)
        tab = lseries._TABLE_CACHE[field]
        exps = {i + (kind == "carlitz") for i in ks}
        assert set(tab._digit_sums) == {j for j in range(max(exps) + 1) if any(_dominated(j, k, p) for k in exps)}
        for k in exps:
            assert _slot_values(map(tab.slots, range(tab.zero_row + 1), [k] * (tab.zero_row + 1))) == \
                _slot_values(map(dense.slots, range(tab.zero_row + 1), [k] * (tab.zero_row + 1))), (field.q, k)


def test_table_cache_grows_and_stays_within_the_work_bound(monkeypatch):
    # single-k calls grow one table; a union past WORK_LIMIT starts a table
    # for the request alone, and a request past it is refused
    monkeypatch.setattr(lseries, "_TABLE_CACHE", {})
    for i in range(60):
        special_polynomial(F3, i, "zeta")
    tab = lseries._TABLE_CACHE[F3]
    assert sorted(tab._digit_sums) == list(range(60))
    # 1458 = 2000000 in base 3: D(1458) = {0, 729, 1458} to row 1 takes
    # 3 x 2 x 730 = 4380, its union with the k < 60 (to row 3) far more
    work = 10_000
    assert lseries._work(3, 2, 1458, 2) < work < lseries._work(62, 6, 1458, 2)
    monkeypatch.setattr(lseries, "WORK_LIMIT", work)
    sp = special_polynomial(F3, 1458, "zeta")
    assert lseries._TABLE_CACHE[F3] is not tab and sorted(lseries._TABLE_CACHE[F3]._digit_sums) == [0, 729, 1458]
    assert _slot_values(sp.terms) == _dense_terms(_prime_table(3), 1458)
    with pytest.raises(BoundExceeded, match=f"work estimate .* exceeds the bound WORK_LIMIT = {work}"):
        special_polynomial(F3, 1457, "zeta")


def _lattice_work(p: int, k: int) -> int:
    """``lseries._work`` of a table over D(k) alone, from the digits of k."""
    size = math.prod(int(d) + 1 for d in _digits(k, p))
    return lseries._work(size, _digit_sum(k, p), k, p - 1)


def _digits(k: int, p: int) -> list:
    return [k // p**i % p for i in range(max(1, math.ceil(math.log(k + 1, p)) + 1))]


# closed forms past the dense oracle, at the k <= 20000 whose own lattice
# builds in a few ms.  At prime r the special polynomial has degree
# floor(l_p(k) / (p - 1)), the two digit-sum properties together; its zeros
# are simple with distinct valuations (Sheats 1998), so its Newton slopes
# strictly increase, each of length 1; and its x^-1 coefficient is
# S_1(k) = sum_a (T + a)^k = -sum C(k, j) T^(k-j) over 0 < j = 0 mod (p-1),
# with C(k, j) mod p the product of the binomials of the digits (Lucas).
# The Newton checks read only the top T-degree of each coefficient; S_1
# sees every Lucas term of k
@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 5, 7, 13]).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(3001, 20000).filter(lambda k: _lattice_work(p, k) <= 3 * 10**7))))
def test_special_polynomials_follow_the_digits_past_the_dense_oracle(pk):
    p, i = pk
    field = field_make(p, 1)
    sp = special_polynomial(field, i, "zeta")
    assert sp.deg == _digit_sum(i, p) // (p - 1), (p, i)
    segs = newton_polygon(sp)
    slopes = [s for s, _ in segs]
    assert all(a < b for a, b in zip(slopes, slopes[1:])), (p, i)
    assert all(length == 1 for _, length in segs), (p, i)
    s1 = [0] * (i + 1)
    digits = _digits(i, p)
    for js in itertools.product(*[range(d + 1) for d in digits]):
        j = sum(d * p**n for n, d in enumerate(js))
        if j and j % (p - 1) == 0:
            s1[i - j] = -math.prod(math.comb(d, t) for d, t in zip(digits, js)) % p
    assert sp.coeff(1) == Poly(field, s1), (p, i)


def test_slot_plan_takes_the_64_bit_slot_while_it_holds_a_term():
    # below 2^32 a 64-bit slot holds a residue plus at least one product
    assert lseries._slot_plan(3000000019) == (64, 2)
    assert lseries._slot_plan(4294967291) == (64, 1)  # the largest prime < 2^32
    with pytest.raises(Unsupported):
        lseries._slot_plan(4294967311)  # the least prime > 2^32


def test_power_sum_enumerated_single_matches_batch():
    for e, k in [(1, 7), (2, 5), (3, 4)]:
        single = power_sum_enumerated(F3, e, k)
        batch = power_sums_enumerated_batch(F3, e, k)
        assert single == batch[k]


def test_power_sum_table_on_prime_power_fields():
    # the table of F_p-residues serves r = p^m; S_2 first survives at k = r^2 - 1
    for p, m in [(2, 2), (2, 3), (3, 2), (2, 4)]:
        field = field_make(p, m)
        r = field.q
        ks = list(range(0, 12)) + [r - 1, 2 * r - 2, 2 * r - 1, r * r - 1]
        for e in (0, 1, 2):
            for k in ks:
                assert power_sum(field, e, k) == power_sum_enumerated(field, e, k), (r, e, k)


def test_power_sum_enumeration_bound():
    with pytest.raises(BoundExceeded):
        power_sum_enumerated(F2, 13, 2)


def test_power_sum_table_zero_row_termination():
    # the rows stop past the largest digit sum: 26 = 222 in base 3 has 6,
    # so S_3(26) is the last live entry and row 4 is the zero row
    tab = PowerSumTable(F3, range(31))
    assert tab.zero_row == 4 and tab.is_nonzero(3, 26)
    # beyond the zero row everything vanishes
    assert tab.value(tab.zero_row + 3, 30).is_zero()


# -- special polynomials -------------------------------------------------------------


def test_special_polynomial_zeta_i0():
    for field in (F2, F3):
        sp = special_polynomial(field, 0, "zeta")
        assert sp.to_string() == "1"


def test_special_polynomial_carlitz_i0_r2():
    sp = special_polynomial(F2, 0, "carlitz")
    # 1 + x^-1: S_1(1) = 1, S_2(1) = 0
    assert sp.to_string() == "1+x^-1"
    assert sp.deg == 1


def test_special_polynomial_translation():
    for field in (F2, F3):
        for i in range(0, 12):
            carl = special_polynomial(field, i, "carlitz")
            zeta = special_polynomial(field, i + 1, "zeta")
            assert carl.coeffs == zeta.coeffs
            # the packed record equals the one built from its Polys, hash too
            dense = SpecialPolynomial(i=i, kind="carlitz", coeffs=carl.coeffs)
            assert dense == carl and hash(dense) == hash(carl) and dense.to_string() == carl.to_string()


def test_special_polynomial_degree_bound():
    for field in (F2, F3, field_make(2, 2), field_make(3, 2)):
        r = field.q
        for i in range(0, 30):
            for kind in ("zeta", "carlitz"):
                sp = special_polynomial(field, i, kind)
                k = sp.exponent
                assert sp.deg <= k // (r - 1)
                assert lseries._table_for(field, range(k, k + 1)).degree_in_e(k) == max(sp.deg, 0)


def test_special_polynomial_rejects():
    with pytest.raises(ValueError):
        special_polynomial(F2, -1, "zeta")
    with pytest.raises(ValueError):
        special_polynomial(F2, 1, "weird")


# -- local factors ----------------------------------------------------------------------


def test_local_factor_carlitz():
    obj = carlitz(F2)
    for f in monic_irreducibles(F2, 2):
        lf = local_factor(obj, f)
        assert lf.denominator == (Poly.one(F2), -f)
        assert lf.provenance == "rank1-formula"


def test_local_factor_bad_prime_is_one():
    # r=3, C^((theta+1)/theta) at f = T: v_T = -1 not divisible by 2
    phi = drinfeld_rank1(F3, rf(F3, "(T+1)/T"))
    lf = local_factor(phi, pf(F3, "T"))
    assert lf.denominator == (Poly.one(F3),)
    assert lf.provenance == "bad-prime-rule"


def test_local_factor_good_after_twist_matches_sheaf_of_twist():
    # v_f(beta) = 2 = r-1 at T: good after twisting down
    phi = drinfeld_rank1(F3, rf(F3, "T^2"))
    lf = local_factor(phi, pf(F3, "T"))
    # twisted model is the Carlitz module, so the factor is 1 - T u
    assert lf.denominator == (Poly.one(F3), -pf(F3, "T"))


def test_local_factor_tensor_power():
    s, _ = carlitz_tensor_power(F2, 2)
    for f in monic_irreducibles(F2, 1):
        lf = local_factor(s, f)
        assert lf.denominator == (Poly.one(F2), -(f**2))
        assert lf.provenance == "tau-sheaf-eigenvalue"


def test_local_factor_rank2_and_unsupported():
    psi = drinfeld_rank2(F2, RatFunc.zero(F2), RatFunc.one(F2))
    lf = local_factor(psi, pf(F2, "T"))
    assert lf.provenance == "rank2-charpoly"
    # denominator 1 - a u + mu f u^2 with a = 0, mu = 1
    assert lf.denominator == (Poly.one(F2), Poly.zero(F2), pf(F2, "T"))
    bad = drinfeld_rank2(F2, RatFunc.zero(F2), rf(F2, "1/T"))  # v_T(delta) = -1
    with pytest.raises(Unsupported):
        local_factor(bad, pf(F2, "T"))


def test_local_factor_inverse_series():
    lf = local_factor(carlitz(F2), pf(F2, "T"))
    series = lf.inverse_series(4)
    assert series == [Poly.one(F2), pf(F2, "T"), pf(F2, "T^2"), pf(F2, "T^3")]


# -- Euler products ------------------------------------------------------------------------


def test_euler_product_symbolic_matches_special_polynomial():
    for field in (F2, F3):
        r = field.q
        for i in (0, 1, 2, 3):
            d_max = (i + 1) // (r - 1) + 1
            euler, dirich = euler_product_symbolic(carlitz(field), field, i, d_max)
            sp = special_polynomial(field, i, "carlitz")
            for e in range(d_max + 1):
                assert euler[e] == dirich[e]
                assert euler[e] == sp.coeff(e)


def test_euler_product_symbolic_zeta_translation():
    # zeta at i+1 = carlitz at i, both via Euler products
    for i in (0, 1, 2):
        ez, _ = euler_product_symbolic(ZetaA(F2), F2, i + 1, 4)
        ec, _ = euler_product_symbolic(carlitz(F2), F2, i, 4)
        assert ez == ec


def test_euler_product_dmax_zero():
    euler, dirich = euler_product_symbolic(carlitz(F2), F2, 1, 0)
    assert euler == [Poly.one(F2)] and dirich == [Poly.one(F2)]


def test_euler_product_laurent_agreement():
    s = SInfinityPoint(Laurent.t_power(F3, -2), -2)  # x = theta^2: converges
    prod, dirich, agree = euler_product(carlitz(F3), F3, s, 2, prec=8)
    assert agree >= 3
    assert prod.eq_mod(dirich, agree)


def test_euler_product_nonconvergent():
    s = SInfinityPoint(Laurent.t_power(F3, 0), 0)  # x = 1: diverges for Carlitz
    with pytest.raises(NonConvergent):
        euler_product(carlitz(F3), F3, s, 2)


# -- translation identity ---------------------------------------------------------------------


def test_translate_identity_unit_gives_carlitz():
    primes = monic_irreducibles(F2, 2)
    rep = translate_identity_check(unit_sheaf(F2), 1, primes)
    assert rep.all_ok
    for f, lhs, rhs, status in rep.rows:
        assert status == "ok"
        assert lhs == f  # matches the Carlitz eigenvalue


def test_translate_identity_zero_is_identity():
    primes = monic_irreducibles(F3, 2)
    rep = translate_identity_check(carlitz_sheaf(F3), 0, primes)
    assert rep.all_ok


def test_translate_identity_delta_translate():
    # F = Carlitz, i = r^2 - r: eigenvalues f^(r^2 - r + 1)
    r = 2
    i = r * r - r
    primes = monic_irreducibles(F2, 2)
    rep = translate_identity_check(carlitz_sheaf(F2), i, primes)
    assert rep.all_ok
    for f, lhs, _, status in rep.rows:
        assert lhs == f ** (r * r - r + 1)


# -- classification ------------------------------------------------------------------------------


def _eigen_system_power(field, j_pow, d_max=3):
    vals = {}
    for P in monic_irreducibles(field, d_max):
        vals[P] = RatFunc.from_poly(P) ** j_pow
    return EigenSystem(vals)


def test_classify_delta_eigen_system():
    for field in (F2, F3):
        r = field.q
        es = _eigen_system_power(field, r - 1)
        res = classify_eigen_system(es, field)
        assert res.verdict == "ClassIITranslate"
        assert res.j == r - 1


def test_classify_delta_boeckle_normalization():
    for field in (F2, F3):
        r = field.q
        es = _eigen_system_power(field, r - r * r)
        res = classify_eigen_system(es, field)
        assert res.verdict == "ClassIITranslate"
        assert res.j == r - r * r
        if r > 2:
            assert res.j_mod_r_minus_1 == (r - r * r) % (r - 1)


def test_classify_chi_witness():
    # alpha_P = chi_beta(-theta, P)^{-1} * P: nonconstant F_r^* table
    beta = rf(F3, "2*T")
    vals = {}
    for P in monic_irreducibles(F3, 3):
        if (P % pf(F3, "T")).is_zero():
            continue
        c = chi_beta(beta, P).value
        vals[P] = RatFunc.const(F3, F3.inv(c)) * RatFunc.from_poly(P)
    res = classify_eigen_system(EigenSystem(vals), F3)
    assert res.verdict == "ClassIWitness"
    assert res.j == 1
    assert res.note == "values depend only on f mod T"


def test_classify_no_match():
    vals = {
        pf(F2, "T"): rf(F2, "T+1"),
        pf(F2, "T+1"): rf(F2, "T"),
        pf(F2, "T^2+T+1"): rf(F2, "T^2"),
    }
    res = classify_eigen_system(EigenSystem(vals), F2)
    assert res.verdict == "NoMatch"


def test_classify_insufficient_data():
    vals = {pf(F2, "T"): rf(F2, "T"), pf(F2, "T+1"): rf(F2, "T+1")}
    with pytest.raises(InsufficientData):
        classify_eigen_system(EigenSystem(vals), F2)


def test_classify_rescaling_invariance():
    # rescaling by c^(deg P) keeps a definite verdict and shifts the table
    es = _eigen_system_power(F3, 2)
    base = classify_eigen_system(es, F3)
    scaled_vals = {
        P: v * RatFunc.const(F3, F3.pow_(2, P.deg)) for P, v in es.values.items()
    }
    scaled = classify_eigen_system(EigenSystem(scaled_vals), F3)
    assert (base.verdict != "NoMatch") == (scaled.verdict != "NoMatch")
    assert scaled.j == base.j
    for P in es.values:
        c_base = base.table[P.to_string()]
        c_scaled = scaled.table[P.to_string()]
        assert c_scaled == F3.mul(c_base, F3.pow_(2, P.deg))


def test_eigen_system_rejects_zero():
    with pytest.raises(ValueError):
        EigenSystem({pf(F2, "T"): RatFunc.zero(F2)})


# -- Newton polygons ----------------------------------------------------------------------------


def test_newton_polygon_degree_one():
    sp = special_polynomial(F2, 0, "carlitz")  # 1 + x^-1
    segs = newton_polygon(sp)
    assert segs == [(0, 1)]


def test_newton_polygon_fractional_slope():
    # 1 + T x^-2: the chord from (0, 0) to (2, -1) has slope -1/2, which
    # stays exact; an integral slope is an int and prints the same
    from fractions import Fraction

    one, t = Poly.one(F2), pf(F2, "T")
    (slope, length), = newton_polygon(SpecialPolynomial(i=0, kind="zeta", coeffs=(one, Poly.zero(F2), t)))
    assert (slope, length) == (Fraction(-1, 2), 2)
    assert type(slope) is Fraction and str(slope) == "-1/2"
    (slope, length), = newton_polygon(SpecialPolynomial(i=0, kind="zeta", coeffs=(one, t)))
    assert type(slope) is int and (str(slope), length) == ("-1", 1)


def test_newton_polygon_constant_is_empty():
    sp = special_polynomial(F2, 0, "zeta")  # 1
    assert newton_polygon(sp) == []


def test_newton_polygon_strictly_increasing_simple_slopes():
    for field in (F2, F3):
        for i in range(0, 40):
            sp = special_polynomial(field, i, "zeta")
            segs = newton_polygon(sp)
            slopes = [s for s, _ in segs]
            assert slopes == sorted(slopes)
            assert all(s1 < s2 for s1, s2 in zip(slopes, slopes[1:]))
            assert all(length == 1 for _, length in segs)


# -- v-adic congruences -------------------------------------------------------------------------


def test_vadic_identical_exponents():
    rep = vadic_congruence_check(F3, 2, 2, 1, 2)
    assert rep.all_ok
    assert all(dis == INF for _, _, dis in rep.rows)


def test_vadic_examples():
    # r=3, i=1, j=4, M=1: sums agree mod t^3
    rep = vadic_congruence_check(F3, 1, 4, 1, 2)
    assert rep.all_ok
    # r=2, i=1, j=3, M=1: agreement mod t^2
    rep2 = vadic_congruence_check(F2, 1, 3, 1, 2)
    assert rep2.all_ok


def test_vadic_precondition():
    with pytest.raises(ValueError):
        vadic_congruence_check(F3, 1, 2, 1, 1)
