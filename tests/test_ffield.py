import pytest

from ffzeta.errors import BoundExceeded, NotPrime, Unsupported
from ffzeta.ffield import (
    FiniteField,
    field_make,
    lex_least_modulus,
    pk_irreducible_rabin,
    pk_lex_irreducible,
    pk_mod,
    pk_mul,
)


def test_field_make_prime_fields():
    f2 = field_make(2, 1)
    assert (f2.p, f2.m, f2.q) == (2, 1, 2)
    assert f2.modulus == (0, 1)  # degenerate degree-1 modulus x
    f3 = field_make(3, 1)
    assert f3.q == 3


def test_field_make_f4_modulus():
    # exhaustive search over the 4 monic quadratics leaves only x^2+x+1
    f4 = field_make(2, 2)
    assert f4.modulus == (1, 1, 1)


def test_field_make_rejects():
    with pytest.raises(NotPrime):
        field_make(4, 1)
    with pytest.raises(BoundExceeded):
        field_make(2, 5)  # 32 > 16
    field_make(2, 5, bound=32)
    with pytest.raises(Unsupported):
        field_make(257, 1, bound=300).ops()  # q^2 > TABLE_LIMIT


def test_prime_field_arithmetic():
    f5 = FiniteField(5, (0, 1))
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.inv(2) == 3
    assert f5.neg(1) == 4
    assert f5.pow_(2, 4) == 1


def test_f4_structure():
    f4 = field_make(2, 2)
    # elements 0,1,w,w+1 with w^2 = w+1 under x^2+x+1
    w = 2
    assert f4.mul(w, w) == f4.add(w, 1)
    assert f4.mul(w, f4.add(w, 1)) == 1  # w * w^2 = w^3 = 1
    # multiplicative group has order r - 1
    for a in range(1, f4.q):
        assert f4.pow_(a, f4.q - 1) == 1


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (2, 4), (7, 1)])
def test_frobenius_fixes_prime_field_and_is_additive(p, m):
    F = FiniteField(p, lex_least_modulus(p, m))
    r = F.q
    # the operation tables agree with digit-wise addition and with products
    # of coordinate lists over the base on every pair; mul and inv read them
    add, mul, neg, inv = F.ops()
    for a in F.elements():
        assert neg[a] == F.neg(a)
        assert a == 0 or mul[a][inv[a]] == 1 == mul[a][F.inv(a)]
        assert add[a] == [F.add(a, b) for b in F.elements()]
        if F.base is None:
            assert mul[a] == [a * b % p for b in F.elements()]
        else:
            through_base = [pk_mod(F.base, pk_mul(F.base, F.coords(a), F.coords(b)), F.modulus) for b in F.elements()]
            assert mul[a] == [F.from_coords(c) for c in through_base]
        assert mul[a] == [F.mul(a, b) for b in F.elements()]
    for a in F.elements():
        # x^r = x for every element of F_r
        assert F.pow_(a, r) == a
    # Frobenius x -> x^p is additive
    for a in range(min(F.q, 8)):
        for b in range(min(F.q, 8)):
            lhs = F.pow_(F.add(a, b), p)
            rhs = F.add(F.pow_(a, p), F.pow_(b, p))
            assert lhs == rhs


def test_frobenius_power_exhaustive_up_to_256():
    # x^(r^d) = x on F_{r^d} for every constructed extension up to 256
    for p, m in [(2, 1), (2, 2), (2, 3), (2, 4), (2, 8), (3, 1), (3, 2), (3, 4), (5, 2), (2, 6)]:
        F = FiniteField(p, lex_least_modulus(p, m))
        if F.q > 256:
            continue
        for a in F.elements():
            assert F.pow_(a, F.q) == a


def test_ext_field_basic():
    f3 = field_make(3, 1)
    # F_9 = F_3[y]/(y^2+1)
    E = FiniteField(f3, [1, 0, 1])
    assert E.q == 9
    i = E.from_coords([0, 1])
    assert E.mul(i, i) == E.neg(E.one)
    assert E.inv(i) == E.neg(i)
    # field axioms spot-checks
    for a in E.elements():
        assert E.add(a, E.zero) == a
        if a != E.zero:
            assert E.mul(a, E.inv(a)) == E.one
    # x^(q) = x
    for a in E.elements():
        assert E.pow_(a, E.q) == a


def test_ext_field_tower():
    f4 = field_make(2, 2)
    g = pk_lex_irreducible(f4, 3)
    E = FiniteField(f4, g)  # F_64 over F_4
    assert E.q == 64
    assert len(E.elements()) == 64
    a = 5
    assert E.pow_(a, 64) == a
    vec = E.to_pvector(a)
    assert len(vec) == E.m == 6
    assert E.from_pvector(vec) == a


def test_rabin_matches_trial_division():
    f2 = field_make(2, 1)
    # over F_2: irreducibles of degree 2: only y^2+y+1
    quads = [[c0, c1, 1] for c0 in range(2) for c1 in range(2)]
    irred = [tuple(q) for q in quads if pk_irreducible_rabin(f2, q)]
    assert irred == [(1, 1, 1)]
    f3 = field_make(3, 1)
    cubes = [[c0, c1, c2, 1] for c0 in range(3) for c1 in range(3) for c2 in range(3)]
    count = sum(1 for c in cubes if pk_irreducible_rabin(f3, c))
    assert count == 8  # (27 - 3) / 3


def test_lex_least_modulus_deterministic():
    assert lex_least_modulus(2, 2) == (1, 1, 1)
    assert lex_least_modulus(2, 3) == (1, 1, 0, 1)  # x^3+x+1 beats x^3+x^2+1
    assert lex_least_modulus(3, 2) == (1, 0, 1)  # x^2+1


def _mobius(n):
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_rabin_counts_irreducibles_by_gauss_formula(p, m):
    # monic irreducibles of degree e over F_q: (1/e) * sum_{d | e} mu(d) q^(e/d)
    F = field_make(p, m)
    q = F.q
    for e in range(1, 5):
        accepted = 0
        for enc in range(q**e):
            tail = [(enc // q**i) % q for i in range(e)]
            accepted += pk_irreducible_rabin(F, tail + [F.one])
        gauss = sum(_mobius(d) * q ** (e // d) for d in range(1, e + 1) if e % d == 0) // e
        assert accepted == gauss, (q, e)
