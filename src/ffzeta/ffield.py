"""Exact finite-field arithmetic.

``FiniteField`` is the one field class.  A field is F_p, or base[y]/(g)
over any ``FiniteField`` base: F_r = F_p[y]/(h), a residue field
A/(f) = F_r[y]/(f), and the extensions of A/(f) that torsion searches need
are all towers of this one kind.  Elements are plain ints whose
base-q_base digits are the coordinates over the base, so a base element is
its own embedding, ``element_from_index`` and ``index_of`` are the
identity, and the base-p digits of an element are its coordinates over F_p
(``to_pvector``).  Addition is digit-wise mod p.

A field over F_p itself (its base is the prime field) with at most
``TABLE_LIMIT`` elements multiplies through discrete-log tables, built on
its first product (or inverse, or power), so inner loops stay cheap.  Only
code that multiplies in a field pays for its table: reducing a Drinfeld
module mod f works in F_r[T] and builds none for its residue field A/(f).
Any other field multiplies its coordinate lists through the base
(``pk_mul``, ``pk_mod``) and inverts with ``pk_xgcd``.  All values are
immutable; every operation is pure.
"""

from __future__ import annotations

from .errors import BoundExceeded, NotPrime

# Fields with at most this many elements get exp/log tables on first use.
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
        # a field over F_p itself gets tables; a tower over any other base
        # (a degree-1 residue field included) multiplies through that base
        over_fp = base is None or base.base is None
        self._tabled = over_fp and self.m > 1 and self.q <= TABLE_LIMIT
        self._exp = None
        self._log = None
        self._key = (p if over_fp else base, modulus)
        if check and len(modulus) > 2 and not pk_irreducible_rabin(base, modulus):
            raise ValueError(f"modulus {modulus} is reducible over F_{base.q}")

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
        q = self.q
        g = self._find_generator()
        exp = [1] * (q - 1)
        acc = 1
        for i in range(1, q - 1):
            acc = self._slow_mul(acc, g)
            exp[i] = acc
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp
        self._log = log

    def _order(self, a: int) -> int:
        n = self.q - 1
        order = n
        for ell in prime_factors(n):
            while order % ell == 0 and self._slow_pow(a, order // ell) == 1:
                order //= ell
        return order

    def _slow_pow(self, a: int, n: int) -> int:
        out = 1
        base = a
        while n:
            if n & 1:
                out = self._slow_mul(out, base)
            base = self._slow_mul(base, base)
            n >>= 1
        return out

    def _find_generator(self) -> int:
        for cand in range(2, self.q):
            if self._order(cand) == self.q - 1:
                return cand
        if self.q == 2:
            return 1
        raise AssertionError("no generator found; modulus not irreducible?")

    def _ensure_tables(self) -> bool:
        if self._exp is None and self._tabled:
            self._build_tables()
        return self._exp is not None

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
        if a == 0 or b == 0:
            return 0
        if self.m == 1:
            return (a * b) % self.p
        if self._ensure_tables():
            return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return self._slow_mul(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        if self._ensure_tables():
            return self._exp[(-self._log[a]) % (self.q - 1)]
        # s*a + t*modulus = 1 with deg s < deg modulus
        return self.from_coords(pk_xgcd(self.base, self.coords(a), self.modulus)[1])

    def pow_(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow_(self.inv(a), -n)
        if a == 0:
            return 1 if n == 0 else 0
        if self.m == 1:
            return pow(a, n, self.p)
        if self._ensure_tables():
            return self._exp[(self._log[a] * n) % (self.q - 1)]
        return self._slow_pow(a, n % (self.q - 1))

    def elements(self):
        return range(self.q)

    def element_from_index(self, i: int) -> int:
        return i

    def index_of(self, a: int) -> int:
        return a

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
# Coefficient lists are low degree first with no trailing zeros.


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
    if c == F.zero:
        return []
    return pk_trim(F, [F.mul(x, c) for x in a])


def pk_divmod(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db = len(b) - 1
    inv_lead = F.inv(b[-1])
    quot = [F.zero] * max(0, len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = F.mul(a[k], inv_lead)
        if c != F.zero:
            quot[k - db] = c
            for j in range(db + 1):
                a[k - db + j] = F.sub(a[k - db + j], F.mul(c, b[j]))
    return pk_trim(F, quot), pk_trim(F, a[:db])


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
    for enc in range(F.q**e):
        tail = []
        k = enc
        for _ in range(e):
            tail.append(F.element_from_index(k % F.q))
            k //= F.q
        cand = tail + [F.one]
        if pk_irreducible_rabin(F, cand):
            return cand
    raise AssertionError("no irreducible polynomial found")
