"""Exact finite-field arithmetic.

Two representations are used:

* ``FiniteField`` -- an absolute field F_p[x]/(h).  Elements are plain ints
  encoding the digit vector of a residue: ``c0 + c1*p + c2*p^2 + ...``.
  Multiplication goes through lazily built discrete-log tables when the
  field is small enough, so inner loops stay cheap.
* ``ExtField`` -- a relative extension B[y]/(g) of any field object.
  Elements are tuples of base elements.  This is how ambient splitting
  fields for torsion searches are built; no canonical re-embedding is
  ever needed because the base sits inside as the constants.

Both classes expose the same small protocol (``zero``, ``one``, ``add``,
``mul``, ``inv``, ``pow_``, ``elements`` ...) so polynomial kernels can be
written once.  All values are immutable; every operation is pure.
"""

from __future__ import annotations

from .errors import BoundExceeded, NotPrime, ZeroInput

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
# digit-vector helpers over F_p (used only by FiniteField internals)


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


def _dig_mulmod(a, b, modulus, p: int):
    """Schoolbook product of digit vectors reduced mod a monic modulus."""
    m = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1) if a and b else [0]
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    prod[i + j] = (prod[i + j] + ca * cb) % p
    for k in range(len(prod) - 1, m - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(m + 1):
                prod[k - m + j] = (prod[k - m + j] - c * modulus[j]) % p
    out = prod[:m]
    out += [0] * (m - len(out))
    return out


class FiniteField:
    """F_p[x]/(modulus) with int-encoded elements.

    ``modulus`` is a monic digit tuple, low degree first, length m+1.
    The instance doubles as the field *descriptor*: it carries p, m and
    the modulus, and all arithmetic on encoded elements.
    """

    def __init__(self, p: int, modulus: tuple[int, ...], check: bool = True):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) < 2 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.p = p
        self.m = len(modulus) - 1
        self.q = p ** self.m
        self.modulus = modulus
        self.zero = 0
        self.one = 1
        self._exp = None
        self._log = None
        if check and self.m > 1 and not _dig_irreducible(p, modulus):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")

    # -- table machinery ----------------------------------------------------

    def _slow_mul(self, a: int, b: int) -> int:
        da = _digits(a, self.p, self.m)
        db = _digits(b, self.p, self.m)
        return _undigits(_dig_mulmod(da, db, self.modulus, self.p), self.p)

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
        if self._exp is None and self.q <= TABLE_LIMIT:
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
        return self._slow_pow(a, self.q - 2)

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

    def pdim(self) -> int:
        return self.m

    def to_pvector(self, a: int) -> list[int]:
        return _digits(a, self.p, self.m)

    def from_pvector(self, vec) -> int:
        return _undigits([c % self.p for c in vec], self.p)

    def __repr__(self):
        return f"FiniteField(p={self.p}, m={self.m})"

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.modulus))


def _dig_irreducible(p: int, modulus) -> bool:
    """Trial division of a monic digit-vector polynomial over F_p."""
    m = len(modulus) - 1
    for d in range(1, m // 2 + 1):
        for enc in range(p**d):
            div = _digits(enc, p, d) + [1]
            if _dig_rem_is_zero(modulus, div, p):
                return False
    return True


def _dig_rem_is_zero(num, div, p: int) -> bool:
    rem = list(num)
    dn = len(div) - 1
    for k in range(len(rem) - 1, dn - 1, -1):
        c = rem[k]
        if c:
            for j in range(dn + 1):
                rem[k - dn + j] = (rem[k - dn + j] - c * div[j]) % p
    return all(c == 0 for c in rem[:dn])


def lex_least_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree m over F_p.

    Candidates x^m + c are scanned by ascending integer encoding of the
    tail c, which makes the choice (and every serialized value built on
    it) reproducible across runs.
    """
    if m == 1:
        return (0, 1)
    for enc in range(p**m):
        cand = tuple(_digits(enc, p, m)) + (1,)
        if _dig_irreducible(p, cand):
            return cand
    raise AssertionError("no irreducible polynomial found")


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
    """Deterministic Rabin irreducibility test for monic g over F.

    Avoids enumerating divisor candidates, which is infeasible over the
    larger coefficient fields used for ambient torsion extensions.
    """
    e = len(g) - 1
    if e <= 0:
        return False
    if e == 1:
        return True
    q = F.q
    x = [F.zero, F.one]
    xq = pk_powmod(F, x, q**e, g)
    if pk_sub(F, xq, x):
        return False
    for ell in prime_factors(e):
        h = pk_sub(F, pk_powmod(F, x, q ** (e // ell), g), x)
        if len(pk_gcd(F, h, g)) > 1:
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


class ExtField:
    """Relative extension base[y]/(modulus); elements are tuples."""

    def __init__(self, base, modulus, check: bool = True):
        modulus = list(modulus)
        if len(modulus) < 2 or modulus[-1] != base.one:
            raise ValueError("modulus must be monic of degree >= 1")
        if check and not pk_irreducible_rabin(base, modulus):
            raise ValueError("modulus is reducible")
        self.base = base
        self.modulus = modulus
        self.e = len(modulus) - 1
        self.p = base.p
        self.q = base.q**self.e
        self.zero = (base.zero,) * self.e
        self.one = tuple([base.one] + [base.zero] * (self.e - 1))

    def embed(self, a):
        """Embed a base-field element as a constant."""
        return tuple([a] + [self.base.zero] * (self.e - 1))

    def add(self, a, b):
        B = self.base
        return tuple(B.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        B = self.base
        return tuple(B.neg(x) for x in a)

    def sub(self, a, b):
        B = self.base
        return tuple(B.sub(x, y) for x, y in zip(a, b))

    def mul(self, a, b):
        B = self.base
        prod = pk_mul(B, list(a), list(b))
        rem = pk_mod(B, prod, self.modulus)
        rem += [B.zero] * (self.e - len(rem))
        return tuple(rem)

    def inv(self, a):
        B = self.base
        alist = pk_trim(B, list(a))
        if not alist:
            raise ZeroDivisionError("inverse of zero")
        g, s, _ = pk_xgcd(B, alist, self.modulus)
        if len(g) != 1:
            raise ZeroDivisionError("element not invertible")
        s = pk_scale(B, s, B.inv(g[0]))
        s = pk_mod(B, s, self.modulus)
        s += [B.zero] * (self.e - len(s))
        return tuple(s)

    def pow_(self, a, n: int):
        if n < 0:
            return self.pow_(self.inv(a), -n)
        out = self.one
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def elements(self):
        for i in range(self.q):
            yield self.element_from_index(i)

    def element_from_index(self, i: int):
        B = self.base
        out = []
        for _ in range(self.e):
            out.append(B.element_from_index(i % B.q))
            i //= B.q
        return tuple(out)

    def index_of(self, a) -> int:
        B = self.base
        idx = 0
        for x in reversed(a):
            idx = idx * B.q + B.index_of(x)
        return idx

    def pdim(self) -> int:
        return self.e * self.base.pdim()

    def to_pvector(self, a):
        out = []
        for x in a:
            out.extend(self.base.to_pvector(x))
        return out

    def from_pvector(self, vec):
        d = self.base.pdim()
        return tuple(
            self.base.from_pvector(vec[i * d : (i + 1) * d]) for i in range(self.e)
        )

    def __repr__(self):
        return f"ExtField(q={self.q} over q0={self.base.q})"
