"""Rank-1 tau-sheaves presented by a single multiplier g(theta, T).

The twisted action encoded by g sends sum h_i(theta) T^i to
g * sum h_i^r(theta) T^i.  The sheaf of the Carlitz module is g = T - theta;
the twist C^(beta) has g = (1/beta)(T - theta).  Tensor products multiply
the multipliers, and the Frobenius eigenvalue at a monic prime f is the
product of g(T, root) over the roots of f, computed as a resultant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadPrime, NotAPower, NotAUnitModV, ZeroInput
from .laurent import Laurent, root_pow_r_minus_1
from .ore import TModuleCarlitzPower
from .poly import BivPoly, Poly, RatFunc, poly_gcd, resultant


class TauSheafRank1:
    """Nonzero g in F_r(theta)[T], stored as num/den in lowest terms with
    monic denominator in theta."""

    __slots__ = ("field_r", "num", "den")

    def __init__(self, field_r, num: BivPoly, den: Poly | None = None):
        if den is None:
            den = Poly.one(field_r)
        if num.is_zero():
            raise ZeroInput("sheaf multiplier must be nonzero")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        content = num.content()
        g = poly_gcd(content, den) if not content.is_zero() else Poly.one(field_r)
        if g.deg > 0:
            num = BivPoly(field_r, [c.exact_div(g) for c in num.tcoeffs])
            den = den.exact_div(g)
        lc = den.lc()
        if lc != field_r.one:
            inv = field_r.inv(lc)
            num = num.scale(Poly.const(field_r, inv))
            den = den.scale(inv)
        self.field_r = field_r
        self.num = num
        self.den = den

    @classmethod
    def from_theta_poly(cls, p: Poly) -> "TauSheafRank1":
        return cls(p.field, BivPoly.from_theta_poly(p))

    def __eq__(self, other):
        if isinstance(other, TauSheafRank1):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def to_dict(self) -> dict:
        return {"num": self.num.to_table(), "den": self.den.to_string()}

    def __repr__(self):
        return f"TauSheafRank1(num={self.num!r}, den={self.den.to_string()!r})"


def t_minus_theta(field_r) -> BivPoly:
    """The Carlitz multiplier T - theta as a bivariate polynomial."""
    minus_theta = Poly(field_r, [field_r.zero, field_r.neg(field_r.one)])
    return BivPoly(field_r, (minus_theta, Poly.one(field_r)))


def carlitz_sheaf(field_r) -> TauSheafRank1:
    return TauSheafRank1(field_r, t_minus_theta(field_r))


def unit_sheaf(field_r) -> TauSheafRank1:
    return TauSheafRank1(field_r, BivPoly.one(field_r))


def sheaf_of_drinfeld_rank1(beta: RatFunc) -> TauSheafRank1:
    """g = (1/beta)(T - theta) for the twist C^(beta)."""
    if beta.is_zero():
        raise ZeroInput("beta must be nonzero")
    field_r = beta.field
    num = t_minus_theta(field_r).scale(beta.den)
    return TauSheafRank1(field_r, num, beta.num)


def tensor(s1: TauSheafRank1, s2: TauSheafRank1) -> TauSheafRank1:
    """Tensor product of sheaves: multipliers multiply."""
    return TauSheafRank1(s1.field_r, s1.num * s2.num, s1.den * s2.den)


def carlitz_tensor_power(field_r, n: int):
    """The n-th tensor power: the sheaf (T-theta)^n and its matrix T-module.

    For n = 1 both presentations collapse to the Carlitz module; the sheaf
    equality is asserted as the consistency anchor.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sheaf = TauSheafRank1(field_r, t_minus_theta(field_r) ** n)
    module = TModuleCarlitzPower(field_r, n)
    if n == 1:
        assert sheaf == carlitz_sheaf(field_r)
    return sheaf, module


@dataclass(frozen=True)
class GaloisCharacterValue:
    """Frobenius value of an abelian character or rank-1 eigenvalue."""

    value: object  # Poly in T, or an F_r element for finite characters
    at_prime: object
    modulus: object = None  # a prime v, or None for values constant in T


def frobenius_eigenvalue(s: TauSheafRank1, f: Poly, v: Poly | None = None) -> GaloisCharacterValue:
    """g^f(T) = prod g(T, root^(r^i)) over the roots of f, via resultants.

    Raises BadPrime when f meets the numerator or denominator of g (the
    sheaf degenerates there); NotAUnitModV when a v-adic reading is
    requested and v divides the eigenvalue.
    """
    if not f.is_monic() or f.deg < 1:
        raise ValueError("f must be a monic prime")
    field_r = s.field_r
    den_res = resultant(f, s.den) if not s.den.is_one() else Poly.one(field_r)
    if den_res.is_zero():
        raise BadPrime(f"f = {f} meets the denominator of g")
    num_res = resultant(f, s.num)
    if num_res.is_zero():
        raise BadPrime(f"f = {f} meets the numerator of g")
    if not den_res.is_constant():
        raise AssertionError("denominator norm must be constant in T")
    value = num_res.scale(field_r.inv(den_res.constant_value()))
    if v is not None:
        red = value % v
        if red.is_zero():
            raise NotAUnitModV(f"eigenvalue {value} vanishes mod v = {v}")
        return GaloisCharacterValue(value=red, at_prime=f, modulus=v)
    return GaloisCharacterValue(value=value, at_prime=f, modulus=None)


def chi_beta(beta: RatFunc, f: Poly) -> GaloisCharacterValue:
    """The F_r^*-valued character with rho_{C^(beta)} = chi_beta * rho_C.

    Returns prod beta(root)^(-1) over the roots of f; BadPrime when beta
    has a zero or pole at f.  The value is independent of any auxiliary
    prime v by construction (no v enters the computation).
    """
    if beta.is_zero():
        raise ZeroInput("beta must be nonzero")
    field_r = beta.field
    if not f.is_monic() or f.deg < 1:
        raise ValueError("f must be a monic prime")
    num_res = resultant(f, beta.num)
    den_res = resultant(f, beta.den) if not beta.den.is_one() else Poly.one(field_r)
    if num_res.is_zero():
        raise BadPrime(f"beta vanishes at f = {f}")
    if den_res.is_zero():
        raise BadPrime(f"beta has a pole at f = {f}")
    if not (num_res.is_constant() and den_res.is_constant()):
        raise AssertionError("norms of T-free data must be constant")
    value = field_r.mul(den_res.constant_value(), field_r.inv(num_res.constant_value()))
    if value == field_r.zero:
        raise AssertionError("character value must lie in F_r^*")
    return GaloisCharacterValue(value=value, at_prime=f, modulus=None)


@dataclass(frozen=True)
class ClassIResult:
    verdict: str  # "ClassI" | "NotClassI"
    alpha: Laurent | None
    obstruction: str | None

    def is_class_one(self) -> bool:
        return self.verdict == "ClassI"


def class_I_test(beta: RatFunc, precision: int = 20) -> ClassIResult:
    """Class-I modularity: is beta an (r-1)-st power in F_r((1/theta))^*?

    Equivalently the character chi_beta has trivial component at infinity
    and C^(beta) becomes isomorphic to the Carlitz module over the
    completion.  The certificate is the truncated root alpha.
    """
    if beta.is_zero():
        raise ZeroInput("beta must be nonzero")
    try:
        alpha = root_pow_r_minus_1(beta, precision)
    except NotAPower as exc:
        return ClassIResult(verdict="NotClassI", alpha=None, obstruction=exc.reason)
    return ClassIResult(verdict="ClassI", alpha=alpha, obstruction=None)
