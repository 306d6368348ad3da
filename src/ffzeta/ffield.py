"""Exact finite-field arithmetic.

``FiniteField`` is the one field class.  A field is F_p, or base[y]/(g)
over any ``FiniteField`` base: F_r = F_p[y]/(h), a residue field
A/(f) = F_r[y]/(f), and the extensions of A/(f) that torsion searches need
are all towers of this one kind.  Elements are their own codes: plain ints
0..q-1 whose base-q_base digits are the coordinates over the base, so a
base element is its own embedding, the int c < q is the element printed as
c, and the base-p digits of an element are its coordinates over F_p
(``to_pvector``).  Addition is digit-wise mod p.

A field with q^2 <= ``TABLE_LIMIT`` (q <= 2^8) has one set of operation
tables, q x q add and mul tables with neg and inv (``ops()``), built by
``_build_tables`` from its base's tables, with no generator search.  A
field of degree m > 1 over F_p builds them on its first product (or
inverse, or power) and indexes them from then on, so only code that
multiplies in a field pays for them: F_r = F_p[y]/(h) for m > 1, whose
products every F_r[T] kernel takes, and the residue fields A/(f) and
their extensions that the torsion oracle (``ore.torsion_points``) and the
null-space Frobenius oracle of the tests multiply in.  Reducing a
Drinfeld module mod f, its point module and its Frobenius characteristic
polynomial work on codes in F_r[T] and construct no residue field.  The F_r
kernels (``theta_multiples``, ``poly.norm`` and the resultant's
elimination) call ``ops()`` themselves, which builds the tables of a prime
F_r too, and index lists instead of calling methods; the prime sieve
(``poly._irreducibles_of_degree``) builds from them, per prime g, tables
of the low base-q digits of T*lo + c*g and then works on base-q integer
encodings.  A field with m = 1 multiplies ints mod p.  A field with
q > 2^8 and m > 1 multiplies its coordinate lists through the base
(``pk_mul``, ``pk_mod``) and inverts with ``pk_xgcd``; its ``ops()``
raises Unsupported.

The generic ``pk_*`` kernels serve every field of every tower.  At F_r = F_2
the rank-2 Hasse recursion and the norm run on F_2[T] packed in ints by
``Poly.code``; the ``f2_*`` kernels here are arithmetic only.  At every
r = 2^m the point module works on residue codes as they are, because a
code's m-bit slots are its coordinates over F_r: a code is the packed
vector, a sum is xor and T acts F_2-linearly.  The prime sieve packs F_r[T]
base q at every r; every other field and kernel keeps ``ops()`` tables.
All values are immutable; every operation is pure.
"""

from __future__ import annotations

from .errors import BoundExceeded, NotPrime, Unsupported

# Fields with at most this many element pairs (q^2) get operation tables.
TABLE_LIMIT = 1 << 16

# Default desk bound for field_make: r = p^m must not exceed this.
DEFAULT_R_BOUND = 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# digit-vector helpers over F_p


def _digits(value: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        out.append(value % p)
        value //= p
    return out


def _undigits(digits, p: int) -> int:
    value = 0
    for c in reversed(digits):
        value = value * p + c
    return value


class FiniteField:
    """base[y]/(modulus) with int-encoded elements.

    ``base`` is a prime p (the field is F_p[y]/(modulus), modulus a digit
    tuple reduced mod p) or a ``FiniteField``; ``modulus`` is monic, low
    degree first, with coefficients in the base.  ``p`` is the
    characteristic, ``m`` the degree over F_p and ``q = p^m``.  A prime
    field has ``base`` None; any other field keeps its base field object.
    """

    def __init__(self, base, modulus, check: bool = True):
        if isinstance(base, int):
            p = base
            if not is_prime(p):
                raise NotPrime(f"{p} is not prime")
            modulus = tuple(c % p for c in modulus)
            base = FiniteField(p, (0, 1)) if len(modulus) > 2 else None
        else:
            p = base.p
            modulus = tuple(modulus)
        if len(modulus) < 2 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.base = base
        self.modulus = modulus
        self.p = p
        self.m = (len(modulus) - 1) * (base.m if base else 1)
        self.q = p**self.m
        self.zero = 0
        self.one = 1
        self._q_base = base.q if base else p
        # products index the tables; a field with m = 1 multiplies ints mod p
        self._tabled = self.m > 1 and self.q * self.q <= TABLE_LIMIT
        self.f2_packed = self.q == 2  # F_2: the norm and rank-2 Hasse take f2_*; the point module packs any 2^m
        self._ops = None
        # a field over the prime field is keyed by p, so F_p[y]/(g) is one
        # field whichever F_p object it was built on
        self._key = (base if base is not None and base.base is not None else p, modulus)
        if check and len(modulus) > 2 and not pk_irreducible_rabin(base, modulus):
            raise ValueError(f"modulus {modulus} is reducible over F_{base.q}")

    @property
    def table_size(self) -> int:
        """Entries of the operation tables this field builds on its first
        product (two q x q tables and two of length q), 0 for a field that
        builds none."""
        return 2 * self.q * (self.q + 1) if self._tabled else 0

    # -- coordinates over the base ---------------------------------------------

    def coords(self, a: int) -> list[int]:
        """Coordinates of a over the base, low first, without trailing zeros."""
        out = []
        while a:
            a, c = divmod(a, self._q_base)
            out.append(c)
        return out

    def from_coords(self, coords) -> int:
        return _undigits(coords, self._q_base)

    # -- table machinery ----------------------------------------------------

    def _slow_mul(self, a: int, b: int) -> int:
        B = self.base
        prod = pk_mul(B, self.coords(a), self.coords(b))
        return self.from_coords(pk_mod(B, prod, self.modulus))

    def _build_tables(self) -> None:
        q, q_b = self.q, self._q_base
        els = range(q)
        if self.base is None:
            add = [[(a + b) % q for b in els] for a in els]
            mul = [[a * b % q for b in els] for a in els]
        else:
            add_b, mul_b, _, _ = self.base.ops()
            # a = a0 + y*a' with a0 = a % q_b and a' = a // q_b < a: the low
            # digit comes from the base table, the others from row a'
            add = [list(els)]
            for a in range(1, q):
                low, high = add_b[a % q_b], add[a // q_b]
                add.append([low[b % q_b] + q_b * high[b // q_b] for b in els])
            # b = c + y*b' with c = b % q_b and b' = b // q_b < b gives
            # a*b = c*a + y*(a*b'), y*x being looked up.  A base element c
            # has c*a = c*a0 + y*(c*a'), where y*(c*a') is a digit shift
            # because c*a' has fewer digits than the modulus degree.
            times_y = [self._slow_mul(q_b, x) for x in els] if q > q_b else []
            mul = [[0] * q]
            for a in range(1, q):
                low, high = mul_b[a % q_b], mul[a // q_b]
                row = [low[c] + q_b * high[c] for c in range(q_b)]
                for b in range(q_b, q):
                    row.append(add[row[b % q_b]][times_y[row[b // q_b]]])
                mul.append(row)
        inv = [None] + [row.index(1) for row in mul[1:]]
        self._ops = (add, mul, [row.index(0) for row in add], inv)

    def ops(self):
        """Operation tables ``(add, mul, neg, inv)``, built on the first call.

        ``add[a][b]`` and ``mul[a][b]`` are lists of rows, ``neg[a]`` and
        ``inv[a]`` are lists (``inv[0]`` is None).  Raises Unsupported when
        q^2 > ``TABLE_LIMIT``.
        """
        if self._ops is None:
            if self.q * self.q > TABLE_LIMIT:
                raise Unsupported(f"F_{self.q} has more than {TABLE_LIMIT} element pairs for operation tables")
            self._build_tables()
        return self._ops

    # -- ring operations ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p = self.p
        out = 0
        mult = 1
        while a or b:
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        p = self.p
        out = 0
        mult = 1
        while a:
            out += (-a % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        if self._tabled:
            return (self._ops or self.ops())[1][a][b]
        if a == 0 or b == 0:
            return 0
        return self._slow_mul(a, b)

    def mul_row(self, c: int):
        """Row c of the product table, ``mul_row(c)[a] == mul(a, c)``, built
        as the first product builds it; None for a field that multiplies
        without tables (m = 1, or q > 2^8)."""
        if self._tabled:
            return (self._ops or self.ops())[1][c]
        return None

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        if self._tabled:
            return (self._ops or self.ops())[3][a]
        # s*a + t*modulus = 1 with deg s < deg modulus
        return self.from_coords(pk_xgcd(self.base, self.coords(a), self.modulus)[1])

    def pow_(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow_(self.inv(a), -n)
        if a == 0:
            return 1 if n == 0 else 0
        if self.m == 1:
            return pow(a, n, self.p)
        n %= self.q - 1
        out = 1
        while n:
            if n & 1:
                out = self.mul(out, a)
            n >>= 1
            if n:
                a = self.mul(a, a)
        return out

    def elements(self):
        return range(self.q)

    # -- coordinates over F_p ------------------------------------------------

    def to_pvector(self, a: int) -> list[int]:
        return _digits(a, self.p, self.m)

    def from_pvector(self, vec) -> int:
        return _undigits([c % self.p for c in vec], self.p)

    def __repr__(self):
        return f"FiniteField(p={self.p}, m={self.m})"

    def __eq__(self, other):
        return isinstance(other, FiniteField) and self._key == other._key

    def __hash__(self):
        return hash(self._key)


def lex_least_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree m over F_p.

    Candidates x^m + c are scanned by ascending integer encoding of the
    tail c, which makes the choice (and every serialized value built on
    it) reproducible across runs.
    """
    return tuple(pk_lex_irreducible(FiniteField(p, (0, 1)), m))


_FIELD_CACHE: dict[tuple[int, int], FiniteField] = {}


def field_make(p: int, m: int, bound: int = DEFAULT_R_BOUND) -> FiniteField:
    """Construct F_{p^m} with the deterministic (lex-least) modulus."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise ValueError("m must be >= 1")
    if p**m > bound:
        raise BoundExceeded(f"r = {p}^{m} exceeds the configured bound {bound}")
    key = (p, m)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FiniteField(p, lex_least_modulus(p, m), check=False)
    return _FIELD_CACHE[key]


# ---------------------------------------------------------------------------
# generic polynomial kernels over an arbitrary field object ("polykit")
#
# Coefficient lists are low degree first with no trailing zeros.  pk_neg and
# pk_scale choose F's arithmetic once per call, not per coefficient: both
# take ints mod p when m = 1, and pk_scale indexes ``F.mul_row(c)`` for a
# tabled field.  Every other field keeps the per-element methods: pk_neg
# calls F.neg, which builds no tables, at every m > 1, and pk_scale calls
# F.mul on untabled towers (q > 2^8, m > 1), the residue fields and
# extensions that the torsion and null-space oracles multiply in.


def pk_trim(F, c):
    i = len(c)
    while i > 0 and c[i - 1] == F.zero:
        i -= 1
    return list(c[:i])


def pk_add(F, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else F.zero
        y = b[i] if i < len(b) else F.zero
        out.append(F.add(x, y))
    return pk_trim(F, out)


def pk_neg(F, a):
    if F.m == 1:
        p = F.p
        return [-x % p for x in a]
    return [F.neg(x) for x in a]


def pk_sub(F, a, b):
    return pk_add(F, a, pk_neg(F, b))


def pk_mul(F, a, b):
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == F.zero:
            continue
        for j, cb in enumerate(b):
            if cb != F.zero:
                out[i + j] = F.add(out[i + j], F.mul(ca, cb))
    return pk_trim(F, out)


def pk_scale(F, a, c):
    # a nonzero c keeps the top coefficient nonzero, so nothing is trimmed;
    # an empty a takes no product, so it builds no tables
    if c == F.zero or not a:
        return []
    if F.m == 1:
        p = F.p
        return [x * c % p for x in a]
    row = F.mul_row(c)
    if row is not None:
        return [row[x] for x in a]
    return [F.mul(x, c) for x in a]


def pk_divmod(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = pk_trim(F, a)
    db = len(b) - 1
    if len(a) <= db:
        return [], a
    # a is trimmed, so the quotient's top coefficient is nonzero; a monic
    # divisor needs no inverse of its leading coefficient
    monic = b[-1] == F.one
    inv_lead = F.one if monic else F.inv(b[-1])
    quot = [F.zero] * (len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k] if monic else F.mul(a[k], inv_lead)
        if c != F.zero:
            quot[k - db] = c
            # a[k] cancels and is never read again
            c = F.neg(c)
            for j in range(db):
                a[k - db + j] = F.add(a[k - db + j], F.mul(c, b[j]))
    return quot, pk_trim(F, a[:db])


def pk_mod(F, a, b):
    return pk_divmod(F, a, b)[1]


def pk_gcd(F, a, b):
    a, b = pk_trim(F, a), pk_trim(F, b)
    while b:
        a, b = b, pk_mod(F, a, b)
    if a:
        a = pk_scale(F, a, F.inv(a[-1]))
    return a


def pk_xgcd(F, a, b):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = pk_trim(F, a), pk_trim(F, b)
    s0, s1 = [F.one], []
    t0, t1 = [], [F.one]
    while r1:
        q, r = pk_divmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, pk_sub(F, s0, pk_mul(F, q, s1))
        t0, t1 = t1, pk_sub(F, t0, pk_mul(F, q, t1))
    if r0:
        c = F.inv(r0[-1])
        r0 = pk_scale(F, r0, c)
        s0 = pk_scale(F, s0, c)
        t0 = pk_scale(F, t0, c)
    return r0, s0, t0


def pk_eval(F, a, x):
    acc = F.zero
    for c in reversed(a):
        acc = F.add(F.mul(acc, x), c)
    return acc


def pk_powmod(F, base, n: int, modulus):
    out = [F.one]
    base = pk_mod(F, base, modulus)
    while n:
        if n & 1:
            out = pk_mod(F, pk_mul(F, out, base), modulus)
        base = pk_mod(F, pk_mul(F, base, base), modulus)
        n >>= 1
    return out


def pk_irreducible_rabin(F, g) -> bool:
    """Ben-Or irreducibility test for monic g over F (exact, deterministic).

    A reducible g of degree e has an irreducible factor of degree i <= e/2,
    which divides x^(q^i) - x.  So x^(q^i) mod g is built by repeated q-th
    powering, and g is rejected at the first i with gcd(x^(q^i) - x, g) != 1.
    Most reducible candidates of a lex search have a small factor and are
    rejected after a few steps (Gao & Panario, 1997), where Rabin's test
    always computes x^(q^e).  Avoids enumerating divisor candidates, which is
    infeasible over the larger coefficient fields of torsion extensions.
    """
    e = len(g) - 1
    if e <= 0:
        return False
    x = [F.zero, F.one]
    x_qi = x
    for _ in range(e // 2):
        x_qi = pk_powmod(F, x_qi, F.q, g)
        if len(pk_gcd(F, pk_sub(F, x_qi, x), g)) > 1:
            return False
    return True


def pk_lex_irreducible(F, e: int):
    """Lex-least monic irreducible of degree e over F (deterministic)."""
    if e == 1:
        return [F.zero, F.one]
    q = F.q
    for tail in range(q**e):
        cand = _digits(tail, q, e) + [F.one]
        if pk_irreducible_rabin(F, cand):
            return cand
    raise AssertionError("no irreducible polynomial found")


# ---------------------------------------------------------------------------
# F_2[T] on ints (``Poly.code``): bit k is the coefficient of T^k; a sum is xor.


def f2_mul(a: int, b: int) -> int:
    """Carry-less product: a shifted to each set bit of b, summed by xor."""
    out = 0
    while b:
        low = b & -b
        out ^= a * low
        b ^= low
    return out


def f2_square(a: int) -> int:
    """a^2 = a(T^2): a zero bit spread between every two bits of a."""
    return int("0".join(format(a, "b")), 2)


def f2_mod(a: int, f: int) -> int:
    """a mod f (f nonzero): cancel the top bit of a by a shift of f."""
    d = f.bit_length()
    while (n := a.bit_length()) >= d:
        a ^= f << (n - d)
    return a
