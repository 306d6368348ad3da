"""Truncated Laurent series in 1/T over a finite field.

A series is ``sum coeffs[i] * t^(val+i)  (mod t^prec)`` with t = 1/T, so
negative valuations are positive powers of T.  Precision is contagious:
every operation carries the minimum justified precision of its inputs
(adjusted for valuation shifts) and never fabricates digits.  Exact
values (polynomials in T, finite sums) carry infinite precision.

The characteristic-p special case matters in two places: an r-th power,
r a power of q, only spreads the coefficients, t -> t^r (c^r = c on F_q),
and multiplies precision by r; and 1-unit powers u^y depend on the
exponent only mod p^M up to t^(p^M).
"""

from __future__ import annotations

import math

from .errors import NotAPower, NotOneUnit, ZeroInput
from .poly import Poly, RatFunc, binary_power, is_power_of

INF = math.inf

DEFAULT_PREC = 30


def binom_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p for integer n (possibly negative), k >= 0, via Lucas."""
    if k < 0:
        return 0
    if n < 0:
        # C(n, k) = (-1)^k C(k - n - 1, k)
        v = binom_mod_p(k - n - 1, k, p)
        return (-v) % p if k % 2 else v
    out = 1
    while k and out:
        out = out * math.comb(n % p, k % p) % p
        n //= p
        k //= p
    return out


class Laurent:
    """Immutable truncated Laurent series over a finite field."""

    __slots__ = ("field", "val", "coeffs", "prec")

    def __init__(self, field, val: int, coeffs, prec=INF):
        coeffs = list(coeffs)
        # strip leading zeros, shifting the valuation
        while coeffs and coeffs[0] == field.zero:
            coeffs.pop(0)
            val += 1
        # drop anything at or beyond the precision
        if prec != INF:
            keep = max(0, int(prec) - val)
            coeffs = coeffs[:keep]
        while coeffs and coeffs[-1] == field.zero:
            coeffs.pop()
        if not coeffs:
            val = 0
        self.field = field
        self.val = val
        self.coeffs = tuple(coeffs)
        self.prec = prec

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field, prec=INF) -> "Laurent":
        return cls(field, 0, (), prec)

    @classmethod
    def one(cls, field, prec=INF) -> "Laurent":
        return cls(field, 0, (field.one,), prec)

    @classmethod
    def t_power(cls, field, k: int, prec=INF) -> "Laurent":
        """t^k = T^(-k)."""
        return cls(field, k, (field.one,), prec)

    @classmethod
    def from_poly(cls, p: Poly, prec=INF) -> "Laurent":
        """Embed a polynomial in T: T^i becomes t^(-i). Exact."""
        if p.is_zero():
            return cls.zero(p.field, prec)
        coeffs = list(reversed(p.coeffs))
        return cls(p.field, -p.deg, coeffs, prec)

    @classmethod
    def from_ratfunc(cls, r: RatFunc, prec) -> "Laurent":
        num = cls.from_poly(r.num)
        den = cls.from_poly(r.den)
        if r.den.is_one():
            return num.truncate(prec)
        return num * den.inverse(prec - num.val if prec != INF else DEFAULT_PREC)

    # -- queries ---------------------------------------------------------------

    def is_zero_approx(self) -> bool:
        return not self.coeffs

    def is_one_unit(self) -> bool:
        return self.val == 0 and bool(self.coeffs) and self.coeffs[0] == self.field.one

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "Laurent") -> "Laurent":
        F = self.field
        prec = min(self.prec, other.prec)
        if not self.coeffs:
            return Laurent(F, other.val, other.coeffs, prec)
        if not other.coeffs:
            return Laurent(F, self.val, self.coeffs, prec)
        val = min(self.val, other.val)
        end = max(self.val + len(self.coeffs), other.val + len(other.coeffs))
        out = [F.zero] * (end - val)
        for i, c in enumerate(self.coeffs):
            out[self.val - val + i] = c
        for i, c in enumerate(other.coeffs):
            j = other.val - val + i
            out[j] = F.add(out[j], c)
        return Laurent(F, val, out, prec)

    def __neg__(self) -> "Laurent":
        return Laurent(self.field, self.val, [self.field.neg(c) for c in self.coeffs], self.prec)

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        F = self.field
        # error(a)*b has valuation >= prec_a + val_b, and symmetrically
        prec = min(
            self.prec + other.val if self.prec != INF else INF,
            other.prec + self.val if other.prec != INF else INF,
        )
        if not self.coeffs or not other.coeffs:
            return Laurent.zero(F, prec)
        val = self.val + other.val
        n = len(self.coeffs) + len(other.coeffs) - 1
        if prec != INF:
            n = min(n, int(prec) - val)
        out = [F.zero] * max(n, 0)
        for i, a in enumerate(self.coeffs):
            if a == F.zero or i >= len(out):
                continue
            jmax = min(len(other.coeffs), len(out) - i)
            for j in range(jmax):
                b = other.coeffs[j]
                if b != F.zero:
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Laurent(F, val, out, prec)

    def scale(self, c) -> "Laurent":
        F = self.field
        if c == F.zero:
            return Laurent.zero(F, self.prec)
        return Laurent(F, self.val, [F.mul(a, c) for a in self.coeffs], self.prec)

    def shift(self, k: int) -> "Laurent":
        """Multiply by t^k (exact)."""
        return Laurent(
            self.field, self.val + k, self.coeffs, self.prec + k if self.prec != INF else INF
        )

    def inverse(self, prec=None) -> "Laurent":
        """Series inverse to the requested precision (never beyond justified)."""
        F = self.field
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero approximation")
        justified = self.prec - 2 * self.val if self.prec != INF else INF
        if prec is None:
            prec = justified if justified != INF else DEFAULT_PREC
        prec = min(prec, justified)
        val = -self.val
        n = int(prec) - val
        if n <= 0:
            return Laurent.zero(F, prec)
        a = self.coeffs
        inv0 = F.inv(a[0])
        out = [F.zero] * n
        out[0] = inv0
        for k in range(1, n):
            acc = F.zero
            for j in range(1, min(k, len(a) - 1) + 1):
                acc = F.add(acc, F.mul(a[j], out[k - j]))
            out[k] = F.neg(F.mul(inv0, acc))
        return Laurent(F, val, out, prec)

    def __pow__(self, n: int) -> "Laurent":
        if n < 0:
            return self.inverse() ** (-n)
        out = binary_power(self, n, Laurent.one(self.field, INF))
        if out.prec == INF and self.prec != INF:
            out = out.truncate(self.prec)
        return out

    def frob_power(self, r: int) -> "Laurent":
        """Exact r-th power for r a power of q: c^r = c on F_q, so the
        coefficients spread, t -> t^r; precision multiplies by r.  Any
        other r raises ValueError."""
        F = self.field
        if not is_power_of(r, F.q):
            raise ValueError(f"{r} is not a power of q = {F.q}")
        out = [F.zero] * ((len(self.coeffs) - 1) * r + 1)
        out[::r] = self.coeffs
        prec = self.prec * r if self.prec != INF else INF
        return Laurent(F, self.val * r, out, prec)

    def truncate(self, prec) -> "Laurent":
        return Laurent(self.field, self.val, self.coeffs, min(self.prec, prec))

    # -- comparisons ---------------------------------------------------------------

    def eq_mod(self, other: "Laurent", prec=None) -> bool:
        """Equality of all coefficients below the given (or shared) precision."""
        if prec is None:
            prec = min(self.prec, other.prec)
        if prec == INF:
            return self.val == other.val and self.coeffs == other.coeffs
        d = self - other
        return d.is_zero_approx() or d.val >= prec

    def __eq__(self, other):
        if isinstance(other, Laurent):
            return (
                self.field == other.field
                and self.prec == other.prec
                and self.val == other.val
                and self.coeffs == other.coeffs
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.coeffs, self.prec))

    def disagreement_valuation(self, other: "Laurent"):
        """Smallest t-exponent where the two series differ, INF if none known."""
        d = self - other
        if d.is_zero_approx():
            return INF
        return d.val

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            terms = []
            F = self.field
            for i, c in enumerate(self.coeffs):
                if c == F.zero:
                    continue
                e = self.val + i
                if e == 0:
                    terms.append(str(c))
                else:
                    tp = f"T^{-e}" if e < 0 else f"T^-{e}"
                    terms.append(tp if c == 1 else f"{c}*{tp}")
            body = "+".join(terms)
        tail = "" if self.prec == INF else f"+O(T^-{self.prec})"
        return body + tail


# ---------------------------------------------------------------------------
# 1-unit powers and (r-1)-st roots


def one_unit_pow(u: Laurent, y, prec=None) -> Laurent:
    """u^y for a 1-unit u via the binomial series.

    ``y`` is an exact integer or a pair ``(residue, p^M)`` standing for a
    p-adic exponent known mod p^M; in the latter case the result is only
    claimed mod t^(p^M) (1-unit continuity), and the precision says so.
    """
    F = u.field
    p = F.p
    if not u.is_one_unit():
        raise NotOneUnit(f"{u!r} is not a 1-unit")
    cap = INF
    if isinstance(y, tuple):
        y, modulus = y
        if modulus <= 0 or not is_power_of(modulus, p):
            raise ValueError(f"exponent modulus {modulus} is not a power of {p}")
        cap = modulus
        y %= modulus
    if prec is None:
        prec = u.prec
    prec = min(prec, cap, u.prec)
    if prec == INF and y < 0:
        prec = DEFAULT_PREC  # negative powers of a true 1-unit never terminate
    w = u - Laurent.one(F)
    if prec != INF:
        w = w.truncate(prec)
    out = Laurent.one(F, prec)
    wj = Laurent.one(F)
    j = 1
    while True:
        if y >= 0 and j > y:
            break  # integer binomials vanish beyond y
        wj = wj * w
        if wj.is_zero_approx():
            break  # remaining terms vanish (or sit beyond working precision)
        if prec != INF and wj.val >= prec:
            break
        c = binom_mod_p(y, j, p)
        if c:
            out = out + wj.scale(c)
        j += 1
    return out.truncate(prec)


def root_pow_r_minus_1(beta: RatFunc, precision: int) -> Laurent:
    """alpha with alpha^(r-1) = beta in F_r((1/T)), or NotAPower.

    Exists iff v_infinity(beta) is divisible by r-1 and the 1/T-adic
    leading coefficient is an (r-1)-st power in F_r^*.  That group is
    cyclic of order r-1, so its only (r-1)-st power is 1, and alpha is
    T^(-v/(r-1)) times the binomial series of the 1-unit beta T^v at the
    exponent 1/(r-1) inverted in Z_p.
    """
    if beta.is_zero():
        raise ZeroInput("beta must be nonzero")
    F = beta.field
    r = F.q
    p = F.p
    if precision < 1:
        raise ValueError("precision must be >= 1")
    v = beta.v_infinity()
    if v % (r - 1) != 0:
        raise NotAPower(
            f"valuation v_infinity = {v} is not divisible by r-1 = {r - 1}"
        )
    c = beta.leading_unit()
    if c != F.one:
        raise NotAPower(f"leading coefficient {c} is not an (r-1)-st power in F_{r}^*")
    vp = v // (r - 1)
    unit_prec = precision - vp
    if unit_prec <= 0:
        return Laurent.t_power(F, vp, precision)
    # exponent 1/(r-1) in Z_p, truncated so the series is exact mod t^unit_prec
    pM = p
    while pM < unit_prec:
        pM *= p
    y0 = pow(r - 1, -1, pM)
    u = Laurent.from_ratfunc(beta, v + unit_prec).shift(-v)
    return one_unit_pow(u.truncate(unit_prec), (y0, pM), unit_prec).shift(vp).truncate(precision)
