"""Dense polynomials over a finite field, rational functions, and resultants.

``Poly`` is the universal scalar for the whole package: elements of
A = F_r[T] (tag "T"), primes f, L-factor variables ("u") and special
polynomial variables ("x") are all instances with different tags.  The
canonical text encoding writes coefficients as integers 0..r-1 in the
fixed F_p-basis, e.g. ``T^2+T+1``; this is the wire format everywhere.

Degree of the zero polynomial is the sentinel -1.
"""

from __future__ import annotations

import re

from .errors import BoundExceeded, DomainMismatch, ParseError, ZeroInput
from .ffield import (
    FiniteField,
    pk_add,
    pk_divmod,
    pk_eval,
    pk_mul,
    pk_neg,
    pk_scale,
    pk_sub,
    pk_trim,
)


class Poly:
    """Immutable dense polynomial over a finite field object."""

    __slots__ = ("field", "coeffs", "var")

    def __init__(self, field, coeffs, var: str = "T"):
        self.field = field
        self.coeffs = tuple(pk_trim(field, list(coeffs)))
        self.var = var

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field, var: str = "T") -> "Poly":
        return cls(field, (), var)

    @classmethod
    def one(cls, field, var: str = "T") -> "Poly":
        return cls(field, (field.one,), var)

    @classmethod
    def const(cls, field, c, var: str = "T") -> "Poly":
        return cls(field, (c,), var)

    @classmethod
    def gen(cls, field, var: str = "T") -> "Poly":
        return cls(field, (field.zero, field.one), var)

    @classmethod
    def from_encoding(cls, field, enc: int, degree: int, var: str = "T") -> "Poly":
        """Monic polynomial X^degree + tail, tail encoded base q ascending."""
        tail = []
        for _ in range(degree):
            tail.append(field.element_from_index(enc % field.q))
            enc //= field.q
        return cls(field, tail + [field.one], var)

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
        if self.field is not other.field or self.var != other.var:
            if self.field != other.field or self.var != other.var:
                raise DomainMismatch(
                    f"mixed polynomial domains: {self.field}[{self.var}] vs "
                    f"{other.field}[{other.var}]"
                )

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.field, pk_add(self.field, self.coeffs, other.coeffs), self.var)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.field, pk_sub(self.field, self.coeffs, other.coeffs), self.var)

    def __neg__(self) -> "Poly":
        return Poly(self.field, pk_neg(self.field, self.coeffs), self.var)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.field, pk_mul(self.field, self.coeffs, other.coeffs), self.var)

    def scale(self, c) -> "Poly":
        return Poly(self.field, pk_scale(self.field, self.coeffs, c), self.var)

    def shift(self, k: int) -> "Poly":
        """Multiply by X^k."""
        if self.is_zero() or k == 0:
            return self if k == 0 else self
        return Poly(self.field, (self.field.zero,) * k + self.coeffs, self.var)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.one(self.field, self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other: "Poly"):
        self._check(other)
        q, r = pk_divmod(self.field, self.coeffs, other.coeffs)
        return Poly(self.field, q, self.var), Poly(self.field, r, self.var)

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

    def compose(self, other: "Poly") -> "Poly":
        acc = Poly.zero(other.field, other.var)
        for c in reversed(self.coeffs):
            acc = acc * other + Poly.const(other.field, c, other.var)
        return acc

    def frob_power(self, r: int) -> "Poly":
        """Exact r-th power: (sum a_i X^i)^r = sum a_i^r X^(i*r) in char p."""
        F = self.field
        if self.is_zero():
            return self
        out = [F.zero] * (self.deg * r + 1)
        for i, c in enumerate(self.coeffs):
            if c != F.zero:
                out[i * r] = F.pow_(c, r)
        return Poly(F, out, self.var)

    def with_var(self, var: str) -> "Poly":
        return Poly(self.field, self.coeffs, var)

    # -- comparisons / hashing ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return (
                self.field == other.field
                and self.var == other.var
                and self.coeffs == other.coeffs
            )
        if isinstance(other, int) and other in (0, 1):
            return self.is_zero() if other == 0 else self.is_one()
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.var, self.coeffs))

    def sort_key(self):
        return (self.deg, self.encoding())

    # -- text encoding -------------------------------------------------------------

    def to_string(self) -> str:
        F = self.field
        if self.is_zero():
            return "0"
        terms = []
        for e in range(self.deg, -1, -1):
            c = self.coeffs[e]
            if c == F.zero:
                continue
            ci = F.index_of(c)
            if e == 0:
                terms.append(str(ci))
            else:
                xpart = self.var if e == 1 else f"{self.var}^{e}"
                terms.append(xpart if ci == 1 else f"{ci}*{xpart}")
        return "+".join(terms)

    __str__ = to_string

    def __repr__(self):
        return f"Poly({self.to_string()!r})"


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?(?:([A-Za-z]\w*)(?:\^(\d+))?)?$")


def poly_from_string(field, text: str, var: str = "T") -> Poly:
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
            if m.group(2) != var:
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
    return Poly(field, out, var)


# ---------------------------------------------------------------------------
# gcd / crt helpers


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_xgcd(a: Poly, b: Poly):
    """Returns (g, s, t) with s*a + t*b = g and g monic."""
    F, var = a.field, a.var
    r0, r1 = a, b
    s0, s1 = Poly.one(F, var), Poly.zero(F, var)
    t0, t1 = Poly.zero(F, var), Poly.one(F, var)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if not r0.is_zero():
        c = F.inv(r0.lc())
        r0, s0, t0 = r0.scale(c), s0.scale(c), t0.scale(c)
    return r0, s0, t0


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


def monic_polys(field, d: int, var: str = "T"):
    """All monic polynomials of degree d, ascending tail encoding."""
    for enc in range(field.q**d):
        yield Poly.from_encoding(field, enc, d, var)


_IRRED_CACHE: dict[tuple, list] = {}


def _irreducibles_of_degree(field, d: int, var: str = "T") -> list[Poly]:
    key = (field, d, var)
    if key in _IRRED_CACHE:
        return _IRRED_CACHE[key]
    smaller = []
    for k in range(1, d // 2 + 1):
        smaller.extend(_irreducibles_of_degree(field, k, var))
    out = []
    for cand in monic_polys(field, d, var):
        if d == 1 or all((cand % p).coeffs for p in smaller):
            out.append(cand)
    _IRRED_CACHE[key] = out
    return out


def monic_irreducibles(field, d_max: int, enum_bound: int = 4096, var: str = "T") -> list[Poly]:
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
        out.extend(_irreducibles_of_degree(field, d, var))
    return out


def is_irreducible(poly: Poly) -> bool:
    """Trial division against all lower-degree monic irreducibles."""
    if poly.deg < 1:
        return False
    if poly.deg == 1:
        return True
    for k in range(1, poly.deg // 2 + 1):
        for p in _irreducibles_of_degree(poly.field, k, poly.var):
            if (poly % p).is_zero():
                return False
    return True


# ---------------------------------------------------------------------------
# rational functions


class RatFunc:
    """Element of F_r(T): reduced fraction with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.one(num.field, num.var)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not num.is_zero():
            g = poly_gcd(num, den)
            if g.deg > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        else:
            den = Poly.one(num.field, num.var)
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
    def const(cls, field, c, var: str = "T") -> "RatFunc":
        return cls(Poly.const(field, c, var))

    @classmethod
    def zero(cls, field, var: str = "T") -> "RatFunc":
        return cls(Poly.zero(field, var))

    @classmethod
    def one(cls, field, var: str = "T") -> "RatFunc":
        return cls(Poly.one(field, var))

    @classmethod
    def gen(cls, field, var: str = "T") -> "RatFunc":
        return cls(Poly.gen(field, var))

    @property
    def field(self):
        return self.num.field

    @property
    def var(self):
        return self.num.var

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_one()

    def is_poly(self) -> bool:
        return self.den.is_one()

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
        return RatFunc.one(self.field, self.var) / self

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inv() ** (-n)
        out = RatFunc.one(self.field, self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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


def ratfunc_from_string(field, text: str, var: str = "T") -> RatFunc:
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
        return RatFunc(poly_from_string(field, strip_parens(s), var))
    num = poly_from_string(field, strip_parens(s[:split]), var)
    den = poly_from_string(field, strip_parens(s[split + 1 :]), var)
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

    def theta_deg(self) -> int:
        return max((c.deg for c in self.tcoeffs), default=-1)

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
        out = BivPoly.one(self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, p: Poly) -> "BivPoly":
        return BivPoly(self.field, tuple(c * p for c in self.tcoeffs))

    def content(self) -> Poly:
        """gcd of the theta-coefficients."""
        g = Poly.zero(self.field)
        for c in self.tcoeffs:
            g = poly_gcd(g, c) if not g.is_zero() else c.monic() if not c.is_zero() else g
        return g

    def theta_major(self) -> list[Poly]:
        """Coefficients of theta^i as polynomials in T (var "T")."""
        F = self.field
        dth = self.theta_deg()
        out = []
        for i in range(dth + 1):
            row = [c.coeff(i) for c in self.tcoeffs]
            out.append(Poly(F, row, "T"))
        return out

    def eval_theta_in(self, ext, embed, root):
        """Evaluate theta at an element of an extension field.

        Returns the coefficient list (low T-degree first) of a polynomial
        in T over ``ext``; ``embed`` maps base-field elements into ext.
        """
        out = []
        for c in self.tcoeffs:
            acc = ext.zero
            for coeff in reversed(c.coeffs):
                acc = ext.add(ext.mul(acc, root), embed(coeff))
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
    """Fraction-free determinant of a matrix of Polys over an integral domain."""
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


def resultant(f: Poly, g) -> Poly:
    """Res_theta(f, g) for monic nonconstant f; equals prod g(T, root_i).

    ``g`` may be a plain Poly in theta (coefficients constant in T) or a
    BivPoly.  Computed fraction-free as det of multiplication-by-g on
    F_r[theta]/(f) tensor F_r[T], so the result lives in F_r[T] exactly.
    """
    if isinstance(g, Poly):
        g = _theta_to_biv(g)
    if g.is_zero():
        raise ZeroInput("resultant with zero polynomial")
    if not f.is_monic() or f.deg < 1:
        raise ValueError("f must be monic and nonconstant")
    F = f.field
    d = f.deg
    # reduce g mod f in the theta direction; residue columns live in A^d
    theta_rows = _biv_mod_monic(g, f)
    # column i of the matrix is theta^i * g mod f
    cols = [theta_rows]
    for _ in range(d - 1):
        cols.append(_theta_shift_mod(cols[-1], f))
    rows = [[cols[j][i] for j in range(d)] for i in range(d)]
    return bareiss_det(F, rows)


def _theta_to_biv(g: Poly) -> "BivPoly":
    # theta-polynomial with constant T-coefficients -> BivPoly in one T-slot
    return BivPoly(g.field, (g,))


def _biv_mod_monic(g: BivPoly, f: Poly) -> list[Poly]:
    """Reduce g mod monic f(theta); returns theta-major rows, entries in A."""
    d = f.deg
    F = g.field
    theta_major = g.theta_major()  # Polys in T indexed by theta power
    # long division in theta: since f has constant coefficients this is
    # plain reduction of each theta power
    red = _theta_power_table(f, len(theta_major))
    out = [Poly.zero(F, "T") for _ in range(d)]
    for i, pT in enumerate(theta_major):
        if pT.is_zero():
            continue
        for j, c in enumerate(red[i]):
            if c != F.zero:
                out[j] = out[j] + pT.scale(c)
    return out


def _theta_power_table(f: Poly, n: int) -> list[list]:
    """theta^i mod f as F_r-coefficient rows, for i < n."""
    F = f.field
    d = f.deg
    rows = []
    cur = [F.one] + [F.zero] * (d - 1)
    for i in range(n):
        rows.append(list(cur))
        # multiply by theta
        lead = cur[-1]
        nxt = [F.zero] + cur[:-1]
        if lead != F.zero:
            for j in range(d):
                nxt[j] = F.sub(nxt[j], F.mul(lead, f.coeffs[j]))
        cur = nxt
    return rows


def _theta_shift_mod(col: list[Poly], f: Poly) -> list[Poly]:
    """Multiply a reduced column by theta and reduce mod monic f."""
    F = f.field
    d = f.deg
    lead = col[-1]
    out = [Poly.zero(F, "T")] + list(col[:-1])
    if not lead.is_zero():
        for j in range(d):
            c = f.coeffs[j]
            if c != F.zero:
                out[j] = out[j] - lead.scale(c)
    return out[:d]
