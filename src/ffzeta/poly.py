"""A = F_r[T]: polynomials, rational functions, F_r[theta][T] and resultants.

``Poly`` is an element of A; it is the scalar of the whole package (primes
f, Euler-factor and special-polynomial coefficients, Frobenius
eigenvalues).  Series in u or x^-1 are coefficient lists of Polys, printed
by ``lseries``.  The canonical text encoding writes coefficients as
integers 0..r-1 in the fixed F_p-basis, e.g. ``T^2+T+1``; this is the
wire format everywhere, and ``terms_string`` is its one printer (special
rows print their packed power sums through it without a Poly).
``binary_power`` is the one square-and-multiply loop of the package,
shared by every ring whose product is ``*``.

The code of a Poly (``code``, ``from_code``), the base-q integer whose
digit k is the coefficient of T^k, is F_r[T]'s one integer format: residue
codes in A/(f), packed F_2[T] ints and the order of monics and primes.

The monic primes f come from a sieve (``monic_irreducibles``): each
product of a smaller prime g with a monic cofactor is grown one cofactor
coefficient at a time as the code of its tail, a shift by one digit plus a
per-g table of its low digits, and clears the flag of that code; the
tails left flagged are the primes.

Every norm N(x) = prod x(rho) in F_r over the roots rho of f is ``norm``,
a Euclidean remainder sequence: Drinfeld-module Frobenius, chi_beta, the
denominators of tau-sheaf eigenvalues and the resultant of a g constant
in T.  ``resultant`` serves the numerators of tau-sheaf eigenvalues, g in
F_r[theta][T]: after splitting f at gcd(f, g_t), it is det(M_t) times the
charpoly of a block companion matrix, by a Hessenberg reduction over F_r.
``bareiss_det``, the fraction-free determinant over A, is kept only as its
test oracle.  The sieve, the norm, the resultant and the point module
index F_r's operation tables (``FiniteField.ops``); ``theta_multiples``
lists theta-multiples of a residue mod f for the last two.  The sieve
reads the tables only to build its per-prime digit tables, and then adds
and indexes ints, at every r.  At r = 2 the norm runs on packed F_2[T]
ints (``ffield.f2_*``); the resultant keeps the tables.

Degree of the zero polynomial is the sentinel -1.
"""

from __future__ import annotations

import re
from itertools import compress, product
from operator import add

from .errors import BoundExceeded, DomainMismatch, ParseError, ZeroInput
from .ffield import (
    f2_mod,
    pk_add,
    pk_divmod,
    pk_eval,
    pk_gcd,
    pk_irreducible_rabin,
    pk_mod,
    pk_mul,
    pk_neg,
    pk_scale,
    pk_sub,
    pk_trim,
    pk_xgcd,
)


def binary_power(x, n: int, one):
    """x^n for n >= 0 by square-and-multiply over ``*``, starting from ``one``."""
    if n < 0:
        raise ValueError("negative power")
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


class _Prefixes(dict):
    """Coefficient code -> its text before "T^e": "" for 1, "c*" otherwise;
    keeps the first 256 codes looked up, so a large field cannot grow it."""

    def __missing__(self, c: int) -> str:
        text = f"{c}*" if c != 1 else ""
        if len(self) < 256:
            self[c] = text
        return text


_PREFIXES = _Prefixes()
_PREFIX = _PREFIXES.__getitem__  # bound once: the printer calls it per nonzero term

_T_TEXT_LIMIT = 1 << 15  # the "T^e" caches hold texts for e below this; a longer row builds its own
_T_POWERS: list[str] = []  # "T^e" at index e >= 1 ("T" at 0, never printed); empty until a Poly is printed


def _t_text(e: int) -> str:
    return f"T^{e}" if e > 1 else "T"


def _t_powers(n: int) -> list[str]:
    """At least n <= ``_T_TEXT_LIMIT`` texts "T^e".  The cache grows by a
    quarter at a time, up to the limit, into a new list, never in place, so
    a list once returned never changes."""
    global _T_POWERS
    tp = _T_POWERS
    if len(tp) < n:
        tp = tp + list(map(_t_text, range(len(tp), min(n + n // 4, _T_TEXT_LIMIT))))
        _T_POWERS = tp
    return tp


_T_CLASSES: dict = {}  # (first, step) -> "T^(first + step*j)" at index j, for step > 1


def _t_class(first: int, step: int, n: int) -> list:
    """At least n texts "T^(first + step*j)", first + step*(n - 1) below
    ``_T_TEXT_LIMIT``, grown and replaced as ``_t_powers`` is; one list per
    residue class a printer has walked."""
    tc = _T_CLASSES.get((first, step), ())
    if len(tc) < n:
        tc = _T_CLASSES[first, step] = _t_powers(min(first + step * (n + n // 4), _T_TEXT_LIMIT))[first::step]
    return tc


def terms_string(cs, first: int = 0, step: int = 1) -> str:
    """Canonical text of sum_j cs[j] T^(first + step*j), highest term first.

    ``cs`` holds int codes with a nonzero top, or is empty for "0".  A Poly
    prints its coefficients (0, 1); a packed power sum prints its live
    residue class of exponents (``lseries.PowerSumTable``), as the bytes of
    its 8-bit slots or a tuple of wider ones.
    """
    if not cs:
        return "0"
    # the nonzero terms, lowest first: the prefix of each nonzero code
    # joined to its "T^e"; a constant term takes its code instead.  The
    # zero slots are walked once, by ``compress``: the bytes of a packed
    # row drop theirs in one ``translate``
    prefixes = map(_PREFIX, cs.translate(None, b"\0") if type(cs) is bytes else filter(None, cs))
    top = first + step * len(cs)
    if top > _T_TEXT_LIMIT:  # past the caches: texts of this row's nonzero terms only
        powers = map(_t_text, compress(range(first, top, step), cs))
    elif first or step > 1:
        powers = compress(_t_class(first, step, len(cs)), cs)
    else:  # a dense Poly: its list of "T^e" is the class itself
        powers = compress(_t_powers(len(cs)), cs)
    terms = list(map(add, prefixes, powers))
    if not first and cs[0]:
        terms[0] = str(cs[0])
    terms.reverse()
    return "+".join(terms)


class Poly:
    """Immutable dense polynomial in T over a finite field F_r."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        """Int codes lowest first, copied once; trimmed only when the top one is 0."""
        self.field = field
        cs = tuple(coeffs)
        if cs and not cs[-1]:
            cs = tuple(pk_trim(field, cs))
        self.coeffs = cs

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field) -> "Poly":
        return cls(field, (field.one,))

    @classmethod
    def const(cls, field, c) -> "Poly":
        return cls(field, (c,))

    @classmethod
    def gen(cls, field) -> "Poly":
        return cls(field, (field.zero, field.one))

    @classmethod
    def from_code(cls, field, x: int) -> "Poly":
        """The polynomial whose code (``code``) is x >= 0."""
        q, coeffs = field.q, []
        while x:
            x, c = divmod(x, q)
            coeffs.append(c)
        return cls(field, coeffs)

    # -- basic queries ---------------------------------------------------------

    @property
    def deg(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == self.field.one

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def lc(self):
        if not self.coeffs:
            return self.field.zero
        return self.coeffs[-1]

    def constant_value(self):
        return self.coeffs[0] if self.coeffs else self.field.zero

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def code(self) -> int:
        """The base-q integer whose digit k is the coefficient of T^k."""
        q, x = self.field.q, 0
        for c in reversed(self.coeffs):
            x = x * q + c
        return x

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.field is not other.field and self.field != other.field:
            raise DomainMismatch(f"mixed polynomial domains: {self.field}[T] vs {other.field}[T]")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.field, pk_add(self.field, self.coeffs, other.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.field, pk_sub(self.field, self.coeffs, other.coeffs))

    def __neg__(self) -> "Poly":
        if self.field.p == 2:  # -x = x, and a Poly is immutable
            return self
        return Poly(self.field, pk_neg(self.field, self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.field, pk_mul(self.field, self.coeffs, other.coeffs))

    def scale(self, c) -> "Poly":
        if c == self.field.one:
            return self
        return Poly(self.field, pk_scale(self.field, self.coeffs, c))

    def __pow__(self, n: int) -> "Poly":
        return binary_power(self, n, Poly.one(self.field))

    def __divmod__(self, other: "Poly"):
        self._check(other)
        q, r = pk_divmod(self.field, self.coeffs, other.coeffs)
        return Poly(self.field, q), Poly(self.field, r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        self._check(other)
        if len(self.coeffs) < len(other.coeffs):  # already reduced
            return self
        return Poly(self.field, pk_mod(self.field, self.coeffs, other.coeffs))

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.lc()))

    def evaluate(self, x):
        """Evaluate at a field element of the coefficient field."""
        return pk_eval(self.field, self.coeffs, x)

    def frob_power(self, r: int) -> "Poly":
        """Exact r-th power: (sum a_i X^i)^r = sum a_i^r X^(i*r) in char p."""
        F = self.field
        if self.is_zero():
            return self
        out = [F.zero] * (self.deg * r + 1)
        for i, c in enumerate(self.coeffs):
            if c != F.zero:
                out[i * r] = F.pow_(c, r)
        return Poly(F, out)

    # -- comparisons / hashing ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.field == other.field and self.coeffs == other.coeffs
        if isinstance(other, int) and other in (0, 1):
            return self.is_zero() if other == 0 else self.is_one()
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def sort_key(self):
        return (self.deg, self.code())

    # -- text encoding -------------------------------------------------------------

    def to_string(self) -> str:
        """Canonical text, highest term first; int codes are the printed digits."""
        return terms_string(self.coeffs)

    __str__ = to_string

    def __repr__(self):
        return f"Poly({self.to_string()!r})"


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?(?:([A-Za-z]\w*)(?:\^(\d+))?)?$")

# The parser builds a dense list of (largest exponent + 1) coefficients,
# which Poly copies into a tuple: 8 bytes per entry in each, 1 MB at this
# bound.  A larger exponent is refused before anything is allocated, where
# it would otherwise end in a MemoryError (or, past 4300 digits, in int()'s
# ValueError).  The largest degree that the tests, the goldens and the
# ffbench workloads parse is 1380 (a `special` row that ffbench's oracle
# reads back), 1/47 of the bound.
PARSE_DEGREE_LIMIT = 1 << 16
_LIMIT_DIGITS = len(str(PARSE_DEGREE_LIMIT))


def poly_from_string(field, text: str) -> Poly:
    """Parse the canonical encoding; raises ParseError with position."""
    s = text.replace(" ", "")
    if not s:
        raise ParseError(text, 0, "empty polynomial")
    coeffs: dict[int, int] = {}
    pos = 0
    for chunk in s.split("+"):
        if not chunk:
            raise ParseError(text, pos, "empty term")
        m = _TERM_RE.match(chunk)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ParseError(text, pos, f"bad term {chunk!r}")
        digits, name, exponent = m.groups()
        if name is None:
            e = 0
        else:
            if name != "T":
                raise ParseError(text, pos, f"unknown variable {name!r}")
            e = 1
            if exponent is not None:
                # without its leading zeros and compared by length first, so
                # int() never sees thousands of digits
                exponent = exponent.lstrip("0") or "0"
                if len(exponent) > _LIMIT_DIGITS or int(exponent) > PARSE_DEGREE_LIMIT:
                    raise ParseError(text, pos, f"exponent in {chunk!r} exceeds the bound"
                                                f" PARSE_DEGREE_LIMIT = {PARSE_DEGREE_LIMIT}")
                e = int(exponent)
        ci = 1
        if digits is not None:
            value = digits.lstrip("0") or "0"
            if len(value) > len(str(field.q)) or int(value) >= field.q:
                raise ParseError(text, pos, f"coefficient {digits} out of range 0..{field.q - 1}")
            ci = int(value)
        coeffs[e] = field.add(coeffs.get(e, field.zero), ci)
        pos += len(chunk) + 1
    out = [field.zero] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return Poly(field, out)


# ---------------------------------------------------------------------------
# gcd helpers


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd (zero when both are zero)."""
    a._check(b)
    return Poly(a.field, pk_gcd(a.field, a.coeffs, b.coeffs))


def poly_xgcd(a: Poly, b: Poly):
    """Returns (g, s, t) with s*a + t*b = g and g monic."""
    a._check(b)
    return tuple(Poly(a.field, c) for c in pk_xgcd(a.field, a.coeffs, b.coeffs))


def split_valuation(a: Poly, prime: Poly) -> tuple[int, Poly]:
    """(v, a / prime^v) for the multiplicity v of a monic prime in a nonzero a;
    no division is taken once deg a < deg prime."""
    if a.is_zero():
        raise ZeroInput("valuation of zero")
    if prime.deg < 1:
        raise ValueError("prime must be nonconstant")
    v = 0
    while a.deg >= prime.deg:
        q, r = divmod(a, prime)
        if not r.is_zero():
            break
        a = q
        v += 1
    return v, a


# ---------------------------------------------------------------------------
# monic irreducibles over F_r[T]


def monic_polys(field, d: int):
    """All monic polynomials of degree d, by ascending code q^d ... 2q^d - 1."""
    qd = field.q**d
    for x in range(qd, 2 * qd):
        yield Poly.from_code(field, x)


_IRRED_CACHE: dict[tuple, list] = {}


def _irreducibles_of_degree(field, d: int) -> list[Poly]:
    """Monic primes of degree d, by ascending code, by a sieve.

    Every product g*h of a prime g of degree k <= d/2 and a monic h of
    degree d - k clears the flag of its tail in q^d flags; the flags left
    set are the primes.  A product is held as x, the code of its tail (every
    coefficient below the leading 1).  h grows one coefficient at a time,
    g*(T*h + c) = T*(g*h) + c*g: with lo = x mod q^k, the k low digits of x,
    the new tail is x*q + delta_c[lo], delta_c[lo] = code(T*lo + c*g) - q*lo.
    Only the k + 1 low digits change, and delta_c adds them digit by digit
    in F_r, so no carry crosses a digit at any p.  The delta_c of a prime g
    have q^k entries each and live while g's products grow.
    """
    key = (field, d)
    if key in _IRRED_CACHE:
        return _IRRED_CACHE[key]
    q = field.q
    add, mul, _, _ = field.ops()
    # shift[e][a] = (e + a) - a on the codes: what adding e does to a digit a
    shift = [[s - a for a, s in enumerate(row)] for row in add]
    prime = bytearray(b"\x01") * q**d
    for k in range(1, d // 2 + 1):
        qk = q**k
        for g in _irreducibles_of_degree(field, k):
            gs = g.coeffs
            deltas = []  # delta_c for c = 1..q-1; delta_0 is 0
            for cg in mul[1:]:
                delta = [cg[gs[0]]]
                for i in range(1, k + 1):
                    delta = [v + w for w in [q**i * s for s in shift[cg[gs[i]]]] for v in delta]
                deltas.append(delta)
            xs = [g.code() - qk]  # g's tail
            for _ in range(d - k):
                los = [x % qk for x in xs]
                shifted = [x * q for x in xs]  # c = 0
                xs = shifted + [x + delta[lo] for delta in deltas for x, lo in zip(shifted, los)]
            for x in xs:
                prime[x] = 0
    # product() runs through the tails with the top digit first, so by
    # ascending code
    one = (field.one,)
    out = [Poly(field, t[::-1] + one) for t in compress(product(range(q), repeat=d), prime)]
    _IRRED_CACHE[key] = out
    return out


def monic_irreducibles(field, d_max: int, enum_bound: int = 4096) -> list[Poly]:
    """All monic irreducibles of degree <= d_max, sorted by (degree, code).

    Each degree comes from a sieve over the monic polynomials
    (``_irreducibles_of_degree``); the enumeration refuses to run past
    ``enum_bound`` candidates per degree.
    """
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    if field.q**d_max > enum_bound:
        raise BoundExceeded(
            f"enumerating degree {d_max} over F_{field.q} needs {field.q**d_max} "
            f"candidates > bound {enum_bound}"
        )
    out = []
    for d in range(1, d_max + 1):
        out.extend(_irreducibles_of_degree(field, d))
    return out


def is_irreducible(poly: Poly) -> bool:
    """Ben-Or's test (``pk_irreducible_rabin``); constants are not irreducible."""
    return pk_irreducible_rabin(poly.field, poly.monic().coeffs)


# ---------------------------------------------------------------------------
# rational functions


class RatFunc:
    """Element of F_r(T): reduced fraction with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.one(num.field)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not num.is_zero():
            g = poly_gcd(num, den)
            if g.deg > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        else:
            den = Poly.one(num.field)
        c = den.lc()
        if c != den.field.one:
            ci = den.field.inv(c)
            num, den = num.scale(ci), den.scale(ci)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls(p)

    @classmethod
    def const(cls, field, c) -> "RatFunc":
        return cls(Poly.const(field, c))

    @classmethod
    def zero(cls, field) -> "RatFunc":
        return cls(Poly.zero(field))

    @classmethod
    def one(cls, field) -> "RatFunc":
        return cls(Poly.one(field))

    @classmethod
    def gen(cls, field) -> "RatFunc":
        return cls(Poly.gen(field))

    @property
    def field(self):
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_one()

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.num.constant_value()

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inv(self) -> "RatFunc":
        return RatFunc.one(self.field) / self

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inv() ** (-n)
        return binary_power(self, n, RatFunc.one(self.field))

    def frob_power(self, r: int) -> "RatFunc":
        return RatFunc(self.num.frob_power(r), self.den.frob_power(r))

    def v_infinity(self) -> int:
        """Valuation at the infinite place: deg den - deg num."""
        if self.is_zero():
            raise ZeroInput("v_infinity of zero")
        return self.den.deg - self.num.deg

    def leading_unit(self):
        """Ratio of leading coefficients (the 1/T-adic leading coefficient)."""
        return self.field.mul(self.num.lc(), self.field.inv(self.den.lc()))

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def to_string(self) -> str:
        if self.den.is_one():
            return self.num.to_string()
        num = self.num.to_string()
        den = self.den.to_string()
        if "+" in num:
            num = f"({num})"
        if "+" in den:
            den = f"({den})"
        return f"{num}/{den}"

    __str__ = to_string

    def __repr__(self):
        return f"RatFunc({self.to_string()!r})"


def ratfunc_from_string(field, text: str) -> RatFunc:
    s = text.replace(" ", "")
    depth = 0
    split = None
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            if split is not None:
                raise ParseError(text, i, "multiple '/'")
            split = i
    def strip_parens(t: str) -> str:
        while t.startswith("(") and t.endswith(")"):
            depth = 0
            ok = True
            for j, ch in enumerate(t):
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                    if depth == 0 and j != len(t) - 1:
                        ok = False
                        break
            if not ok:
                break
            t = t[1:-1]
        return t
    if split is None:
        return RatFunc(poly_from_string(field, strip_parens(s)))
    num = poly_from_string(field, strip_parens(s[:split]))
    den = poly_from_string(field, strip_parens(s[split + 1 :]))
    if den.is_zero():
        raise ParseError(text, split + 1, "zero denominator")
    return RatFunc(num, den)


# ---------------------------------------------------------------------------
# bivariate polynomials g(theta, T) and resultants


class BivPoly:
    """Element of F_r[theta][T]: tuple of theta-polynomials per T-power.

    The scalar variable (the image of T in the base) is printed as "T" in
    each coefficient; structurally the two variables never mix because the
    T-direction is the tuple index.
    """

    __slots__ = ("field", "tcoeffs")

    def __init__(self, field, tcoeffs):
        tcoeffs = list(tcoeffs)
        while tcoeffs and tcoeffs[-1].is_zero():
            tcoeffs.pop()
        self.field = field
        self.tcoeffs = tuple(tcoeffs)

    @classmethod
    def from_theta_poly(cls, p: Poly) -> "BivPoly":
        return cls(p.field, (p,))

    @classmethod
    def zero(cls, field) -> "BivPoly":
        return cls(field, ())

    @classmethod
    def one(cls, field) -> "BivPoly":
        return cls(field, (Poly.one(field),))

    def is_zero(self) -> bool:
        return not self.tcoeffs

    @property
    def t_deg(self) -> int:
        return len(self.tcoeffs) - 1

    def __add__(self, other: "BivPoly") -> "BivPoly":
        n = max(len(self.tcoeffs), len(other.tcoeffs))
        z = Poly.zero(self.field)
        out = []
        for i in range(n):
            a = self.tcoeffs[i] if i < len(self.tcoeffs) else z
            b = other.tcoeffs[i] if i < len(other.tcoeffs) else z
            out.append(a + b)
        return BivPoly(self.field, out)

    def __mul__(self, other: "BivPoly") -> "BivPoly":
        if self.is_zero() or other.is_zero():
            return BivPoly.zero(self.field)
        z = Poly.zero(self.field)
        out = [z] * (len(self.tcoeffs) + len(other.tcoeffs) - 1)
        for i, a in enumerate(self.tcoeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.tcoeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return BivPoly(self.field, out)

    def __pow__(self, n: int) -> "BivPoly":
        return binary_power(self, n, BivPoly.one(self.field))

    def scale(self, p: Poly) -> "BivPoly":
        return BivPoly(self.field, tuple(c * p for c in self.tcoeffs))

    def content(self) -> Poly:
        """gcd of the theta-coefficients."""
        g = Poly.zero(self.field)
        for c in self.tcoeffs:
            g = poly_gcd(g, c) if not g.is_zero() else c.monic() if not c.is_zero() else g
        return g

    def __eq__(self, other):
        if isinstance(other, BivPoly):
            return self.field == other.field and self.tcoeffs == other.tcoeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.tcoeffs))

    def to_table(self) -> list[str]:
        return [c.to_string() for c in self.tcoeffs]

    def __repr__(self):
        parts = []
        for j, c in enumerate(self.tcoeffs):
            parts.append(f"({c})*Y^{j}" if j else f"({c})")
        return "BivPoly(" + "+".join(parts or ["0"]) + ")"


def bareiss_det(field, rows) -> Poly:
    """Fraction-free determinant of a matrix of Polys over an integral domain.

    No production code calls it: it is the test oracle for ``resultant``,
    and it stays in this module because the benchmark's tracer binds
    ``poly.bareiss_det``.
    """
    n = len(rows)
    if n == 0:
        return Poly.one(field)
    M = [list(r) for r in rows]
    sign = 1
    prev = Poly.one(field)
    for k in range(n - 1):
        if M[k][k].is_zero():
            for i in range(k + 1, n):
                if not M[i][k].is_zero():
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return Poly.zero(field)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = M[k][k] * M[i][j] - M[i][k] * M[k][j]
                M[i][j] = t.exact_div(prev)
            M[i][k] = Poly.zero(field)
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return det if sign == 1 else -det


def theta_multiples(F, f, v, step: int, count: int) -> list[list[int]]:
    """v, theta^step * v, theta^(2 step) * v, ... (count vectors) mod f.

    ``f`` is a monic coefficient list of degree d over F, and ``v`` a
    residue mod f, low degree first; every output vector has d entries.
    Each factor theta shifts the vector up and cancels the top coefficient c
    with c*f, read from F's operation tables.
    """
    add, mul, neg, _ = F.ops()
    d = len(f) - 1
    cancel = [[neg[mul[c][x]] for x in f[:d]] for c in range(F.q)]  # -c*(f - theta^d)
    v = list(v) + [0] * (d - len(v))
    out = [v]
    for _ in range(count - 1):
        for _ in range(step):
            c = v[-1]
            # zip stops at d entries, dropping the old top coefficient
            v = [add[x][y] for x, y in zip([0] + v, cancel[c])] if c else [0] + v[:-1]
        out.append(v)
    return out


def norm(f: Poly, x: Poly):
    """N(x) = Res_theta(f, x) = prod x(rho) over the roots rho of a monic
    nonconstant f, in F_r, by a Euclidean remainder sequence on F's tables:
    x mod f = c*m, m monic of degree e, gives N_f(x) = c^d (-1)^(d e) N_m(f),
    d = deg f (no power and no rescaling when c = 1); it ends with c^d or 0,
    or at a linear divisor theta + a, where N(x) = x(-a).  Cost: O(d deg x)
    lookups for x mod f, O(d^2) for the divisors of degree >= 2 after it,
    and one Horner pass, two lookups per coefficient, for the linear one.
    Over F_2 it runs on packed ints, where each c^d and each sign is 1."""
    if not f.is_monic() or f.deg < 1:
        raise ValueError("f must be monic and nonconstant")
    F = f.field
    if F.f2_packed:
        f, x = f.code(), x.code()
        while (x := f2_mod(x, f)) > 1:
            f, x = x, f
        return x
    add, mul, neg, inv = F.ops()
    # coefficient lists high degree first; f monic
    f, x, out = list(reversed(f.coeffs)), list(reversed(x.coeffs)), 1
    while True:
        d = len(f) - 1
        if d == 1:  # x mod (theta + a) = x(-a)
            na, acc = mul[neg[f[1]]], 0
            for c in x:
                acc = add[na[acc]][c]
            return mul[out][acc]
        tail = f[1:]
        for i in range(len(x) - d):
            c = x[i]  # cancel c theta^k with c theta^(k-d) f
            if c:
                nc = mul[neg[c]]
                x[i + 1 : i + d + 1] = [add[y][nc[z]] for y, z in zip(x[i + 1 : i + d + 1], tail)]
        x = x[-d:]  # the remainder, with its leading zeros
        for k, c in enumerate(x):
            if c:
                break
        else:
            return 0
        if c != 1:
            out = mul[out][F.pow_(c, d)]
        e = len(x) - 1 - k
        if not e:  # a nonzero constant c: N_f(c) = c^d
            return out
        if d * e % 2:
            out = neg[out]
        f, x = x[k:] if c == 1 else [mul[inv[c]][y] for y in x[k:]], f


def _det_and_solve(F, rows, d: int):
    """Gauss-Jordan on the rows of [A | B] over F, A the leading d x d block.

    Returns (det A, the rows of A^-1 B).  A must be invertible.
    """
    add, mul, neg, inv = F.ops()
    rows = [list(r) for r in rows]
    det = 1
    for c in range(d):
        p = next((i for i in range(c, d) if rows[i][c]), None)
        if p is None:
            raise AssertionError("leading matrix of the resultant is singular")
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = neg[det]
        det = mul[det][rows[c][c]]
        scale = mul[inv[rows[c][c]]]
        pivot = rows[c] = rows[c][:c] + [scale[x] for x in rows[c][c:]]
        for i in range(d):
            u = rows[i][c]
            if i != c and u:
                # columns left of c are zero in the pivot row
                nu = mul[neg[u]]
                rows[i] = rows[i][:c] + [add[x][nu[y]] for x, y in zip(rows[i][c:], pivot[c:])]
    return det, [r[d:] for r in rows]


def _charpoly(F, H) -> list:
    """det(X*I - H) over F, low degree first (Cohen, GTM 138, Alg. 2.2.9).

    Reduces H to upper Hessenberg form by similarity transforms, then builds
    the characteristic polynomials of its leading principal blocks by the
    Hessenberg recurrence.
    """
    add, mul, neg, inv = F.ops()
    n = len(H)
    H = [list(r) for r in H]
    for m in range(1, n - 1):
        p = next((i for i in range(m, n) if H[i][m - 1]), None)
        if p is None:
            continue
        if p != m:
            H[p], H[m] = H[m], H[p]
            for row in H:
                row[p], row[m] = row[m], row[p]
        scale = mul[inv[H[m][m - 1]]]
        Hm = H[m]
        for i in range(m + 1, n):
            u = scale[H[i][m - 1]]
            if not u:
                continue
            nu, mu = mul[neg[u]], mul[u]
            H[i] = H[i][: m - 1] + [add[x][nu[y]] for x, y in zip(H[i][m - 1 :], Hm[m - 1 :])]
            for row in H:
                row[m] = add[row[m]][mu[row[i]]]
    # p_(k+1) = (X - h_kk) p_k - sum_(i<k) h_ik * h_(i+1,i)...h_(k,k-1) * p_i
    polys = [[1]]
    for k in range(n):
        p = [0] + polys[k]
        terms = [(neg[H[k][k]], polys[k])]
        t = 1
        for i in range(k - 1, -1, -1):
            t = mul[t][H[i + 1][i]]
            if not t:
                break
            terms.append((neg[mul[H[i][k]][t]], polys[i]))
        for c, q in terms:
            if c:
                cq = mul[c]
                p[: len(q)] = [add[x][cq[y]] for x, y in zip(p, q)]
        polys.append(p)
    return polys[n]


def resultant(f: Poly, g: BivPoly) -> Poly:
    """Res_theta(f, g) = prod g(T, rho) over the roots rho of a monic nonconstant f.

    ``g`` is a BivPoly sum_(j<=t) g_j(theta) T^j.  The result is
    det(sum_j M_j T^j), with M_j the F_r-matrix of multiplication by g_j on
    F_r[theta]/(f), and all of its arithmetic is over F_r:

    - t = 0: det(M_0) is the norm N_f(g_0), which ``norm`` computes.
    - h = gcd(f, g_t) != 1: Res(f, g) = Res(h, g - g_t T^t) * Res(f/h, g),
      since g_t vanishes on the roots of h and Res is multiplicative in f.
      For a prime f this drops a top T-coefficient that f divides, and it
      ends in the norm when only g_0 is left.
    - h = 1, t >= 1: M_t is invertible, and with N_j = M_t^-1 M_j (one
      Gauss-Jordan pass) Res(f, g) = det(M_t) * charpoly(C)(T), C the
      dt x dt block companion matrix of the N_j, by a Hessenberg reduction.
    """
    if g.is_zero():
        raise ZeroInput("resultant with zero polynomial")
    if not f.is_monic() or f.deg < 1:
        raise ValueError("f must be monic and nonconstant")
    return _resultant(f, g)


def _resultant(f: Poly, g: BivPoly) -> Poly:
    F, d, t = f.field, f.deg, g.t_deg
    if d == 0:
        return Poly.one(F)
    if g.is_zero():
        return Poly.zero(F)
    if t == 0:
        return Poly.const(F, norm(f, g.tcoeffs[0]))
    h = poly_gcd(f, g.tcoeffs[t])
    if h.deg > 0:
        return _resultant(h, BivPoly(F, g.tcoeffs[:t])) * _resultant(f.exact_div(h), g)
    # The M_j are transposed (row i holds theta^i g_j mod f), which leaves
    # det(sum_j M_j T^j) unchanged; the rows are [M_t | M_0 ... M_(t-1)].
    orbits = [theta_multiples(F, f.coeffs, pk_mod(F, gj.coeffs, f.coeffs), 1, d)
              for gj in g.tcoeffs[t:] + g.tcoeffs[:t]]
    rows = [[x for orbit in orbits for x in orbit[i]] for i in range(d)]
    det, N = _det_and_solve(F, rows, d)
    _, mul, neg, _ = F.ops()
    n = d * t
    C = [[0] * n for _ in range(n - d)]
    for k in range(n - d):
        C[k][k + d] = 1
    C.extend([neg[x] for x in row] for row in N)
    return Poly(F, [mul[det][x] for x in _charpoly(F, C)])
