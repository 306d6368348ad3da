"""A = F_r[T]: polynomials, rational functions, F_r[theta][T] and resultants.

``Poly`` is an element of A; it is the scalar of the whole package (primes
f, Euler-factor and special-polynomial coefficients, Frobenius
eigenvalues).  Series in u or x^-1 are coefficient lists of Polys, printed
by ``lseries``.  The canonical text encoding writes coefficients as
integers 0..r-1 in the fixed F_p-basis, e.g. ``T^2+T+1``; this is the
wire format everywhere.  ``binary_power`` is the one square-and-multiply
loop of the package, shared by every ring whose product is ``*``.

``resultant`` gives every rank-1 Frobenius eigenvalue and character value.
All of its arithmetic is over F_r: after splitting f at gcd(f, g_t), it is
det(M_t) times the characteristic polynomial of a block companion matrix,
taken by a Hessenberg reduction.  ``bareiss_det``, the fraction-free
determinant over A, is kept only as its test oracle.

Degree of the zero polynomial is the sentinel -1.
"""

from __future__ import annotations

import re
from itertools import compress

from .errors import BoundExceeded, DomainMismatch, ParseError, ZeroInput
from .ffield import (
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


_T_POWERS: list[str] = []  # "T^e" at index e >= 1; empty until a Poly is printed


def _t_powers(n: int) -> list[str]:
    """At least n texts "T^e".  The cache grows by a quarter at a time into
    a new list, never in place, so a list once returned never changes."""
    global _T_POWERS
    tp = _T_POWERS
    if len(tp) < n:
        tp = tp + [f"T^{e}" if e > 1 else "T" for e in range(len(tp), n + n // 4)]
        _T_POWERS = tp
    return tp


class Poly:
    """Immutable dense polynomial in T over a finite field F_r."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(pk_trim(field, list(coeffs)))

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
    def from_encoding(cls, field, enc: int, degree: int) -> "Poly":
        """Monic polynomial T^degree + tail, tail encoded base q ascending."""
        tail = []
        for _ in range(degree):
            tail.append(field.element_from_index(enc % field.q))
            enc //= field.q
        return cls(field, tail + [field.one])

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

    def encoding(self) -> int:
        """Integer encoding of the non-leading coefficient tail (monic only)."""
        F = self.field
        enc = 0
        for c in reversed(self.coeffs[:-1]):
            enc = enc * F.q + F.index_of(c)
        return enc

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
        return Poly(self.field, pk_neg(self.field, self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.field, pk_mul(self.field, self.coeffs, other.coeffs))

    def scale(self, c) -> "Poly":
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
        return divmod(self, other)[1]

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
        return (self.deg, self.encoding())

    # -- text encoding -------------------------------------------------------------

    def to_string(self) -> str:
        """Canonical text, highest term first; int codes are the printed digits."""
        cs = self.coeffs
        if not cs:
            return "0"
        tp = _t_powers(len(cs))
        terms = [tp[e] if c == 1 else f"{c}*{tp[e]}" for e, c in compress(enumerate(cs), cs) if e]
        terms.reverse()
        if cs[0]:
            terms.append(str(cs[0]))
        return "+".join(terms)

    __str__ = to_string

    def __repr__(self):
        return f"Poly({self.to_string()!r})"


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?(?:([A-Za-z]\w*)(?:\^(\d+))?)?$")


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
        ci = int(m.group(1)) if m.group(1) is not None else 1
        if m.group(2) is None:
            e = 0
        else:
            if m.group(2) != "T":
                raise ParseError(text, pos, f"unknown variable {m.group(2)!r}")
            e = int(m.group(3)) if m.group(3) is not None else 1
        if ci >= field.q:
            raise ParseError(text, pos, f"coefficient {ci} out of range 0..{field.q - 1}")
        c = field.element_from_index(ci)
        coeffs[e] = field.add(coeffs.get(e, field.zero), c)
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


def valuation(a: Poly, prime: Poly) -> int:
    """Multiplicity of a monic prime in a nonzero polynomial."""
    if a.is_zero():
        raise ZeroInput("valuation of zero")
    v = 0
    while True:
        q, r = divmod(a, prime)
        if not r.is_zero():
            return v
        a = q
        v += 1


# ---------------------------------------------------------------------------
# monic irreducibles over F_r[T]


def monic_polys(field, d: int):
    """All monic polynomials of degree d, ascending tail encoding."""
    for enc in range(field.q**d):
        yield Poly.from_encoding(field, enc, d)


_IRRED_CACHE: dict[tuple, list] = {}


def _irreducibles_of_degree(field, d: int) -> list[Poly]:
    key = (field, d)
    if key in _IRRED_CACHE:
        return _IRRED_CACHE[key]
    smaller = []
    for k in range(1, d // 2 + 1):
        smaller.extend(_irreducibles_of_degree(field, k))
    out = []
    for cand in monic_polys(field, d):
        if d == 1 or all((cand % p).coeffs for p in smaller):
            out.append(cand)
    _IRRED_CACHE[key] = out
    return out


def monic_irreducibles(field, d_max: int, enum_bound: int = 4096) -> list[Poly]:
    """All monic irreducibles of degree <= d_max, sorted by (degree, encoding).

    Irreducibility is decided by trial division at desk scale; the
    enumeration refuses to run past ``enum_bound`` candidates per degree.
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

    def valuation_at(self, prime: Poly) -> int:
        if self.is_zero():
            raise ZeroInput("valuation of zero")
        return valuation(self.num, prime) - valuation(self.den, prime)

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

    def eval_theta_in(self, ext, root):
        """Evaluate theta at an element of an extension field.

        Returns the coefficient list (low T-degree first) of a polynomial
        in T over ``ext``; base-field coefficients are elements of ext.
        """
        out = []
        for c in self.tcoeffs:
            acc = ext.zero
            for coeff in reversed(c.coeffs):
                acc = ext.add(ext.mul(acc, root), coeff)
            out.append(acc)
        while out and out[-1] == ext.zero:
            out.pop()
        return out

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


def _det_and_solve(F, rows, d: int):
    """Gauss-Jordan on the rows of [A | B] over F, A the leading d x d block.

    Returns (det A, the rows of A^-1 B).  A must be invertible.
    """
    rows = [list(r) for r in rows]
    det = F.one
    for c in range(d):
        p = next((i for i in range(c, d) if rows[i][c] != F.zero), None)
        if p is None:
            raise AssertionError("leading matrix of the resultant is singular")
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = F.neg(det)
        det = F.mul(det, rows[c][c])
        inv = F.inv(rows[c][c])
        pivot = rows[c] = rows[c][:c] + [F.mul(x, inv) for x in rows[c][c:]]
        for i in range(d):
            u = rows[i][c]
            if i != c and u != F.zero:
                # columns left of c are zero in the pivot row
                u = F.neg(u)
                tail = [F.add(x, F.mul(u, y)) for x, y in zip(rows[i][c:], pivot[c:])]
                rows[i] = rows[i][:c] + tail
    return det, [r[d:] for r in rows]


def _charpoly(F, H) -> list:
    """det(X*I - H) over F, low degree first (Cohen, GTM 138, Alg. 2.2.9).

    Reduces H to upper Hessenberg form by similarity transforms, then builds
    the characteristic polynomials of its leading principal blocks by the
    Hessenberg recurrence.
    """
    n = len(H)
    H = [list(r) for r in H]
    for m in range(1, n - 1):
        p = next((i for i in range(m, n) if H[i][m - 1] != F.zero), None)
        if p is None:
            continue
        if p != m:
            H[p], H[m] = H[m], H[p]
            for row in H:
                row[p], row[m] = row[m], row[p]
        inv = F.inv(H[m][m - 1])
        Hm = H[m]
        for i in range(m + 1, n):
            u = F.mul(H[i][m - 1], inv)
            if u == F.zero:
                continue
            Hi, nu = H[i], F.neg(u)
            for j in range(m - 1, n):
                Hi[j] = F.add(Hi[j], F.mul(nu, Hm[j]))
            for row in H:
                row[m] = F.add(row[m], F.mul(u, row[i]))
    # p_(k+1) = (X - h_kk) p_k - sum_(i<k) h_ik * h_(i+1,i)...h_(k,k-1) * p_i
    polys = [[F.one]]
    for k in range(n):
        p = [F.zero] + polys[k]
        c = F.neg(H[k][k])
        for e, x in enumerate(polys[k]):
            p[e] = F.add(p[e], F.mul(c, x))
        t = F.one
        for i in range(k - 1, -1, -1):
            t = F.mul(t, H[i + 1][i])
            if t == F.zero:
                break
            c = F.neg(F.mul(H[i][k], t))
            if c != F.zero:
                for e, x in enumerate(polys[i]):
                    p[e] = F.add(p[e], F.mul(c, x))
        polys.append(p)
    return polys[n]


def resultant(f: Poly, g) -> Poly:
    """Res_theta(f, g) = prod g(T, rho) over the roots rho of a monic nonconstant f.

    ``g`` is a BivPoly sum_(j<=t) g_j(theta) T^j, or a Poly in theta
    (constant in T).  The result is det(sum_j M_j T^j), with M_j the
    F_r-matrix of multiplication by g_j on F_r[theta]/(f), and all of its
    arithmetic is over F_r:

    - h = gcd(f, g_t) != 1: Res(f, g) = Res(h, g - g_t T^t) * Res(f/h, g),
      since g_t vanishes on the roots of h and Res is multiplicative in f.
      For a prime f this drops a top T-coefficient that f divides.
    - h = 1: M_t is invertible, and with N_j = M_t^-1 M_j (one Gauss-Jordan
      pass) Res(f, g) = det(M_t) * charpoly(C)(T), C the dt x dt block
      companion matrix of the N_j, by a Hessenberg reduction.  For t = 0
      this is det(M_0).
    """
    if isinstance(g, Poly):
        g = BivPoly.from_theta_poly(g)
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
    h = poly_gcd(f, g.tcoeffs[t])
    if h.deg > 0:
        return _resultant(h, BivPoly(F, g.tcoeffs[:t])) * _resultant(f.exact_div(h), g)
    # The M_j are transposed (row i holds theta^i g_j mod f), which leaves
    # det(sum_j M_j T^j) unchanged; the rows are [M_t | M_0 ... M_(t-1)].
    residues = [pk_mod(F, gj.coeffs, f.coeffs) for gj in g.tcoeffs[t:] + g.tcoeffs[:t]]
    rows = []
    for i in range(d):
        if i:
            residues = [pk_mod(F, [F.zero] + res, f.coeffs) for res in residues]
        rows.append([x for res in residues for x in res + [F.zero] * (d - len(res))])
    det, N = _det_and_solve(F, rows, d)
    if t == 0:
        return Poly.const(F, det)
    n = d * t
    C = [[F.zero] * n for _ in range(n - d)]
    for k in range(n - d):
        C[k][k + d] = F.one
    C.extend([F.neg(x) for x in row] for row in N)
    return Poly(F, pk_scale(F, _charpoly(F, C), det))
