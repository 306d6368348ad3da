"""Characteristic-p L-series: power sums, special polynomials, Euler
products, local factors, Newton polygons and the modularity classifiers.

Power sums S_e(k) = sum of n^k over monic n of degree e satisfy an exact
recursion obtained by writing n = T*m + c and expanding binomially:

    S_e(k) = - sum_{0 < j <= k, (r-1) | j} C(k, j) T^(k-j) S_{e-1}(k-j)

with S_0(k) = 1, because sum_{c in F_r} c^j is -1 for positive multiples
of r-1 and 0 otherwise.  Its coefficients are binomials mod p and -1, so
S_e(k) lies in F_p[T] for every r = p^m, and one numpy table of residues
mod p (``PowerSumTable``) serves prime and prime-power r alike:
``FiniteField`` encodes elements as base-p digits, so the residues
0..p-1 are exactly the constants of F_p inside F_r.  The binomials
C(k, j) mod p come from Lucas's theorem: the row of k is derived once, by
one outer product on the row of k // p, and serves every e.  Rows are
stored in the smallest unsigned dtype that holds p - 1; each S_e(k) is
summed in int64 and reduced mod p once, so no p wraps.  The recursion only
ever lowers k, so once a full row of zeros appears every higher row
vanishes identically; this makes special-polynomial degrees computable
far past the reach of enumeration, while direct enumeration remains the
oracle at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BoundExceeded,
    InsufficientData,
    NonConvergent,
    Unsupported,
    ZeroInput,
)
from .errors import BadPrime, BadReduction
from .laurent import INF, Laurent, one_unit_pow
from .ore import DrinfeldModule, frobenius_charpoly, good_model_twist
from .poly import Poly, RatFunc, monic_irreducibles, monic_polys
from .sheaf import TauSheafRank1, frobenius_eigenvalue, sheaf_of_drinfeld_rank1


# ---------------------------------------------------------------------------
# the space S_infinity and exponentiation a^s


@dataclass(frozen=True)
class SInfinityPoint:
    """Point (x, y) with x a nonzero Laurent series and y an exponent.

    ``y`` is an exact integer or a pair (residue, p^M) for a truncated
    p-adic exponent.  The group law is (x, y) + (x', y') = (x x', y + y').
    """

    x: Laurent
    y: object

    def __post_init__(self):
        if self.x.is_zero_approx():
            raise ZeroInput("x-component of an S_infinity point must be nonzero")

    @classmethod
    def integer(cls, field_r, i: int) -> "SInfinityPoint":
        """The embedded integer s_i = (T^i, i)."""
        return cls(Laurent.t_power(field_r, -i), i)

    def add(self, other: "SInfinityPoint") -> "SInfinityPoint":
        if isinstance(self.y, tuple) or isinstance(other.y, tuple):
            raise ValueError("group law on truncated exponents is not defined here")
        return SInfinityPoint(self.x * other.x, self.y + other.y)

    def neg(self, prec=None) -> "SInfinityPoint":
        y = self.y
        if isinstance(y, tuple):
            y = (-y[0] % y[1], y[1])
        else:
            y = -y
        return SInfinityPoint(self.x.inverse(prec), y)


def a_pow_s(a: Poly, s: SInfinityPoint) -> Laurent:
    """a^s = x^(deg a) * <a>^y for monic a, with <a> = a / T^(deg a)."""
    if a.is_zero():
        raise ZeroInput("a must be nonzero")
    if not a.is_monic():
        raise ValueError("a must be monic")
    field_r = a.field
    d = a.deg
    xs = s.x**d
    unit = Laurent.from_poly(a).shift(d)  # <a>, a 1-unit
    if isinstance(s.y, tuple) or s.y != 0:
        unit_pow = one_unit_pow(unit, s.y)
    else:
        unit_pow = Laurent.one(field_r)
    return xs * unit_pow


# ---------------------------------------------------------------------------
# power sums


def _lucas_rows(p: int, step: int, k_max: int) -> list:
    """Per k <= k_max, the pairs (k - j, -C(k, j) mod p) over the j in
    step*N with 0 < j <= k and C(k, j) != 0 mod p, as int64 arrays, j
    ascending.

    By Lucas's theorem C(k, j) = C(k // p, j // p) C(k % p, j % p) mod p, so
    the support of k is {p*j' + t : j' in the support of k // p, t <= k % p}
    and each row is one outer product on the row of k // p.
    """
    pascal = [np.ones(1, dtype=np.int64)]  # C(d, t) mod p, never 0 for d < p
    for d in range(1, min(p, k_max + 1)):
        c = pascal[-1]
        pascal.append(np.concatenate(([1], (c[:-1] + c[1:]) % p, [1])))
    supports = [(np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))]
    rows = [(np.zeros(0, dtype=np.int64),) * 2]
    for k in range(1, k_max + 1):
        (js, cs), d = supports[k // p], k % p
        js = (p * js[:, None] + np.arange(d + 1)).ravel()
        cs = (cs[:, None] * pascal[d]).ravel() % p
        if k <= k_max // p:
            supports.append((js, cs))
        keep = (js > 0) & (js % step == 0)
        rows.append((k - js[keep], p - cs[keep]))
    return rows


class PowerSumTable:
    """Rows of power sums S_e(k) over F_r, r = p^m, built bottom-up.

    Entries are residues mod p, i.e. constants of F_p inside F_r, so the
    same table serves every r = p^m.  The binomials come from one Lucas row
    per k (``_lucas_rows``), derived when the table is made and shared by
    every row e.  ``_rows[e][k]`` is S_e(k) as an array of the smallest
    dtype that holds p - 1 (None when it vanishes) and ``_lens[e][k]`` its
    length.  S_e(k) is accumulated in int64, one sum per weight -C(k, j)
    mod p, and reduced once, so nothing wraps for any p.

    Row e is computed from row e-1 for every k <= k_max; when a row is zero
    across the whole k-range, all later rows are zero too (the recursion
    never raises k), which is recorded in ``zero_row``.
    """

    def __init__(self, field_r, k_max: int):
        self.field = field_r
        self.p = field_r.p
        self.r = field_r.q
        self.k_max = k_max
        self._dtype = np.min_scalar_type(self.p - 1)
        self._lucas = _lucas_rows(self.p, self.r - 1, k_max)
        self._rows: list = [[np.ones(1, dtype=self._dtype)] * (k_max + 1)]  # per e, or None
        self._lens: list = [np.ones(k_max + 1, dtype=np.int64)]  # per e: len of S_e(k), 0 if zero
        self.zero_row: int | None = None

    def _ensure_row(self, e: int):
        while len(self._rows) <= e:
            if self.zero_row is not None and len(self._rows) > self.zero_row:
                self._rows.append(None)
                self._lens.append(np.zeros(self.k_max + 1, dtype=np.int64))
                continue
            self._build_next_row()

    def _build_next_row(self):
        e = len(self._rows)
        p, step = self.p, self.r - 1
        prev, prev_lens = self._rows[e - 1], self._lens[e - 1]
        row = [None] * (self.k_max + 1)
        lens = np.zeros(self.k_max + 1, dtype=np.int64)
        for k in range(e * step, self.k_max + 1):
            kids, ws = self._lucas[k]
            live = prev_lens[kids] > 0
            if not live.any():
                continue
            kids, ws = kids[live], ws[live]
            if e == 1:  # S_0 = 1: one term -C(k, j) T^(k-j) per j
                acc = np.zeros(kids[0] + 1, dtype=np.int64)
                acc[kids] = ws
            else:
                weights, group = np.unique(ws, return_inverse=True)
                sums = np.zeros((len(weights), int((kids + prev_lens[kids]).max())), dtype=np.int64)
                views = list(sums)
                for g, kid in zip(group.tolist(), kids.tolist()):
                    child = prev[kid]
                    views[g][kid : kid + len(child)] += child
                acc = weights @ sums % p
            nz = np.flatnonzero(acc)
            if len(nz):
                row[k] = acc[: nz[-1] + 1].astype(self._dtype)
                lens[k] = nz[-1] + 1
        self._lens.append(lens)
        if not lens.any():
            if self.zero_row is None:
                self.zero_row = e
            self._rows.append(None)
        else:
            self._rows.append(row)

    def is_nonzero(self, e: int, k: int) -> bool:
        if k > self.k_max:
            raise ValueError("k exceeds the table bound")
        if self.zero_row is not None and e >= self.zero_row:
            return False
        self._ensure_row(e)
        return bool(self._lens[e][k])

    def value(self, e: int, k: int) -> Poly:
        if not self.is_nonzero(e, k):
            return Poly.zero(self.field)
        return Poly(self.field, self._rows[e][k].tolist())

    def degree_in_e(self, k: int) -> int:
        """Largest e with S_e(k) != 0 (the x^-1-degree of the special value)."""
        step = self.r - 1
        best = 0
        e = 1
        while e * step <= k:
            if self.zero_row is not None and e >= self.zero_row:
                break
            if self.is_nonzero(e, k):
                best = e
            e += 1
        return best


_TABLE_CACHE: dict = {}


def _table_for(field_r, k: int) -> PowerSumTable:
    key = field_r
    tab = _TABLE_CACHE.get(key)
    if tab is None or tab.k_max < k:
        tab = PowerSumTable(field_r, max(k, 64, 2 * (tab.k_max if tab else 0)))
        _TABLE_CACHE[key] = tab
    return tab


def power_sum(field_r, e: int, k: int) -> Poly:
    """S_e(k) = sum over monic n of degree e of n^k, exactly.

    Returns 0 immediately when k < e(r-1) (the vanishing criterion); the
    nonzero range is read from the ``PowerSumTable`` of F_r, for prime and
    prime-power r alike, which enumeration cross-checks at desk scale (see
    power_sum_enumerated).
    """
    if e < 0 or k < 0:
        raise ValueError("e and k must be nonnegative")
    r = field_r.q
    if k < e * (r - 1):
        return Poly.zero(field_r)
    return _table_for(field_r, k).value(e, k)


def power_sum_enumerated(field_r, e: int, k: int, enum_bound: int = 4096) -> Poly:
    """Brute-force oracle: enumerate the r^e monics and sum their k-th powers."""
    if field_r.q**e > enum_bound:
        raise BoundExceeded(
            f"enumeration of {field_r.q**e} monics exceeds bound {enum_bound}"
        )
    total = Poly.zero(field_r)
    for n in monic_polys(field_r, e):
        total = total + n**k
    return total


def power_sums_enumerated_batch(field_r, e: int, k_max: int, enum_bound: int = 1024):
    """S_e(k) for all k <= k_max by incremental batched enumeration.

    Prime fields only; returns a list of Polys indexed by k.  Used as the
    acceptance-scale oracle against the recursion.
    """
    if field_r.m != 1:
        raise ValueError("batch enumeration requires a prime field")
    if field_r.q**e > enum_bound:
        raise BoundExceeded(
            f"enumeration of {field_r.q**e} monics exceeds bound {enum_bound}"
        )
    p = field_r.p
    count = field_r.q**e
    monics = np.zeros((count, e + 1), dtype=np.int64)
    for idx in range(count):
        enc = idx
        for d in range(e):
            monics[idx, d] = enc % p
            enc //= p
        monics[idx, e] = 1
    cur = np.ones((count, 1), dtype=np.int64)
    out = [Poly.const(field_r, count % p)]  # S_e(0) = r^e mod p
    for k in range(1, k_max + 1):
        nxt = np.zeros((count, cur.shape[1] + e), dtype=np.int64)
        for d in range(e + 1):
            nxt[:, d : d + cur.shape[1]] += monics[:, d : d + 1] * cur
        cur = nxt % p
        coeffs = cur.sum(axis=0) % p
        out.append(Poly(field_r, [int(c) for c in coeffs]))
    return out


# ---------------------------------------------------------------------------
# special polynomials


def _series_string(coeffs, power) -> str:
    """Nonzero terms c*v^j of a series with coefficients in A, lowest j first.

    ``power(j)`` writes v^j for j >= 1 (``u^j`` or ``x^-j``); a coefficient
    whose text holds "+" or "*" is parenthesised, and the zero series is "0".
    """
    terms = []
    for j, c in enumerate(coeffs):
        if c.is_zero():
            continue
        cs = c.to_string()
        if j == 0:
            terms.append(cs)
        elif cs == "1":
            terms.append(power(j))
        elif "+" in cs or "*" in cs:
            terms.append(f"({cs})*{power(j)}")
        else:
            terms.append(f"{cs}*{power(j)}")
    return "+".join(terms) if terms else "0"


@dataclass(frozen=True)
class SpecialPolynomial:
    """L(., x/T^i, -i) in A[x^-1]: coeffs[e] is the coefficient of x^-e."""

    i: int
    kind: str  # "zeta" (exponent i) or "carlitz" (exponent i+1)
    coeffs: tuple

    @property
    def exponent(self) -> int:
        return self.i if self.kind == "zeta" else self.i + 1

    @property
    def deg(self) -> int:
        d = len(self.coeffs) - 1
        while d >= 0 and self.coeffs[d].is_zero():
            d -= 1
        return d

    def coeff(self, e: int) -> Poly:
        if 0 <= e < len(self.coeffs):
            return self.coeffs[e]
        if not self.coeffs:
            raise ValueError("empty special polynomial")
        return Poly.zero(self.coeffs[0].field)

    def to_string(self) -> str:
        return _series_string(self.coeffs, lambda e: f"x^-{e}")

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "kind": self.kind,
            "coeffs": [c.to_string() for c in self.coeffs],
        }


def special_polynomial(field_r, i: int, kind: str) -> SpecialPolynomial:
    """The special polynomial at -i; finite by the vanishing criterion.

    The substitution x -> x/T^i is already applied, so the coefficient of
    x^-e is the honest power sum S_e(k) in A with k = i (zeta) or i+1
    (carlitz); the degree is bounded by floor(k / (r-1)).
    """
    if i < 0:
        raise ValueError("i must be nonnegative")
    if kind not in ("zeta", "carlitz"):
        raise ValueError("kind must be 'zeta' or 'carlitz'")
    k = i if kind == "zeta" else i + 1
    tab = _table_for(field_r, k)
    coeffs = [tab.value(e, k) for e in range(tab.degree_in_e(k) + 1)]
    return SpecialPolynomial(i=i, kind=kind, coeffs=tuple(coeffs))


def special_degree(field_r, i: int, kind: str) -> int:
    """deg_x of the special polynomial, via the degrees-only table."""
    k = i if kind == "zeta" else i + 1
    return _table_for(field_r, k).degree_in_e(k)


# ---------------------------------------------------------------------------
# local factors


@dataclass(frozen=True)
class LocalFactor:
    """Euler factor at a prime: the L-factor is 1 / denominator(u)."""

    prime: Poly
    denominator: tuple  # u-coefficients (Polys in T), constant term 1
    provenance: str

    def denominator_string(self) -> str:
        return _series_string(self.denominator, lambda j: "u" if j == 1 else f"u^{j}")

    def inverse_series(self, n_terms: int) -> list:
        """Coefficients of 1/denominator as a power series in u."""
        field = self.prime.field
        out = [Poly.one(field)]
        for k in range(1, n_terms):
            acc = Poly.zero(field)
            for j in range(1, min(k, len(self.denominator) - 1) + 1):
                acc = acc + self.denominator[j] * out[k - j]
            out.append(-acc)
        return out


class ZetaA:
    """The zeta object: local factor 1/(1 - f^{-s}) at every prime."""

    def __init__(self, field_r):
        self.field_r = field_r


class CarlitzObject:
    """Dispatch marker for the Carlitz module (factor 1/(1 - f u))."""

    def __init__(self, field_r):
        self.field_r = field_r


def local_factor(obj, f: Poly) -> LocalFactor:
    """Euler factor of the object at the monic prime f.

    Dispatch: rank-1 Drinfeld modules use the sheaf eigenvalue of their
    good twist (factor 1 at genuinely bad primes, which all have
    potentially good reduction); tau-sheaves use g^f directly; rank-2
    modules use the Frobenius characteristic polynomial at good primes and
    raise Unsupported at bad ones.
    """
    field = f.field
    one = Poly.one(field)
    if isinstance(obj, ZetaA):
        return LocalFactor(prime=f, denominator=(one, -one), provenance="rank1-formula")
    if isinstance(obj, CarlitzObject):
        return LocalFactor(prime=f, denominator=(one, -f), provenance="rank1-formula")
    if isinstance(obj, TauSheafRank1):
        try:
            lam = frobenius_eigenvalue(obj, f).value
        except BadPrime:
            return LocalFactor(prime=f, denominator=(one,), provenance="bad-prime-rule")
        return LocalFactor(prime=f, denominator=(one, -lam), provenance="tau-sheaf-eigenvalue")
    if isinstance(obj, DrinfeldModule):
        if obj.rank == 1:
            beta = obj.coeffs[1]
            try:
                j = good_model_twist(obj, f)
            except BadReduction:
                return LocalFactor(prime=f, denominator=(one,), provenance="bad-prime-rule")
            beta_good = beta * RatFunc.from_poly(f) ** (j * (obj.r - 1))
            lam = frobenius_eigenvalue(sheaf_of_drinfeld_rank1(beta_good), f).value
            return LocalFactor(prime=f, denominator=(one, -lam), provenance="rank1-formula")
        if obj.rank == 2:
            try:
                a, mu = frobenius_charpoly(obj, f)
            except BadReduction as exc:
                raise Unsupported(
                    f"rank-2 bad prime {f}: local factor needs a maximal model"
                ) from exc
            return LocalFactor(
                prime=f,
                denominator=(one, -a, f.scale(mu)),
                provenance="rank2-charpoly",
            )
    raise TypeError(f"no local factor dispatch for {type(obj).__name__}")


def local_factor_table(obj, field_r, d_max: int, enum_bound: int = 4096):
    """(f, LocalFactor-or-Unsupported) rows for all monic primes deg <= d_max."""
    rows = []
    for f in monic_irreducibles(field_r, d_max, enum_bound=enum_bound):
        try:
            rows.append((f, local_factor(obj, f)))
        except Unsupported as exc:
            rows.append((f, exc))
    return rows


# ---------------------------------------------------------------------------
# Euler products


def _eigenvalue_degree_slope(obj) -> int:
    """c such that the T-degree of the u-coefficients at f grows like c*deg f."""
    if isinstance(obj, ZetaA):
        return 0
    if isinstance(obj, CarlitzObject):
        return 1
    if isinstance(obj, TauSheafRank1):
        return obj.num.t_deg
    if isinstance(obj, DrinfeldModule):
        return 1
    raise TypeError(type(obj).__name__)


def euler_product_symbolic(obj, field_r, i: int, d_max: int, enum_bound: int = 4096):
    """Both sides of the Euler identity at s = (x/T^i, -i), exactly.

    Returns (euler_coeffs, dirichlet_coeffs): coefficient lists of x^-e,
    e <= d_max, as elements of A.  The Euler side multiplies the expanded
    local factors of primes of degree <= d_max; the Dirichlet side sums
    c_n * n^i over monic n directly.  They agree for every e <= d_max.
    """
    primes = monic_irreducibles(field_r, d_max, enum_bound=enum_bound) if d_max >= 1 else []
    zero, one = Poly.zero(field_r), Poly.one(field_r)
    # euler side: product of sum_j c_{f^j} f^{ij} x^{-j deg f}
    euler = [one] + [zero] * d_max
    factor_cache = {f: local_factor(obj, f).inverse_series(d_max // f.deg + 1) for f in primes}
    for f in primes:
        n_terms = d_max // f.deg + 1
        series = factor_cache[f]
        fi = f**i
        factor = [zero] * (d_max + 1)
        factor[0] = one
        for jj in range(1, n_terms):
            if jj * f.deg <= d_max:
                factor[jj * f.deg] = series[jj] * fi**jj
        new = [zero] * (d_max + 1)
        for a_deg in range(d_max + 1):
            if euler[a_deg].is_zero():
                continue
            for b_deg in range(0, d_max + 1 - a_deg, 1):
                if not factor[b_deg].is_zero():
                    new[a_deg + b_deg] = new[a_deg + b_deg] + euler[a_deg] * factor[b_deg]
        euler = new
    # dirichlet side: c_n * n^i summed over monic n of degree e
    dirichlet = [one if e == 0 else zero for e in range(d_max + 1)]
    for e in range(1, d_max + 1):
        acc = zero
        for n in monic_polys(field_r, e):
            c_n = _dirichlet_coefficient(n, primes, factor_cache)
            if c_n is None or c_n.is_zero():
                continue
            acc = acc + c_n * n**i
        dirichlet[e] = acc
    return euler, dirichlet


def _dirichlet_coefficient(n: Poly, primes, factor_cache):
    """c_n = prod c_{f^e} over the factorization of n (primes given)."""
    c = Poly.one(n.field)
    rest = n
    for f in primes:
        if rest.deg < f.deg:
            break
        mult = 0
        while True:
            q, r = divmod(rest, f)
            if r.is_zero():
                rest = q
                mult += 1
            else:
                break
        if mult:
            c = c * factor_cache[f][mult]
    if rest.deg > 0:
        return None  # a prime factor above the cutoff; not representable
    return c


def euler_product(obj, field_r, s: SInfinityPoint, d_max: int, prec: int = 20):
    """Truncated Euler product and Dirichlet expansion at a concrete point.

    Refuses (NonConvergent) unless each degree-d factor contributes terms
    of valuation at least d, i.e. v_infinity(x) <= -(c+1) where c is the
    degree slope of the object's eigenvalues.  Returns (product, dirichlet,
    guaranteed_agreement_precision).
    """
    if isinstance(s.y, tuple):
        raise ValueError("euler_product needs an exact integer exponent")
    c_slope = _eigenvalue_degree_slope(obj)
    w = s.x.val  # v_infinity(x): the t-adic valuation
    kappa = -w - c_slope
    if kappa < 1:
        raise NonConvergent(
            f"v_infinity(x) = {w} is not <= -({c_slope}+1); the product diverges"
        )
    neg_s = s.neg(prec=prec + abs(w) * (d_max + 2))
    product = Laurent.one(field_r, prec=INF)
    primes = monic_irreducibles(field_r, d_max)
    factors = {f: local_factor(obj, f) for f in primes}
    for f, lf in factors.items():
        u_f = a_pow_s(f, neg_s)
        den = Laurent.zero(field_r)
        upow = Laurent.one(field_r)
        for j, cpoly in enumerate(lf.denominator):
            if j > 0:
                upow = upow * u_f
            if not cpoly.is_zero():
                den = den + Laurent.from_poly(cpoly) * upow
        product = product * den.inverse(prec)
    product = product.truncate(prec)
    # Dirichlet side
    factor_cache = {f: lf.inverse_series(d_max // f.deg + 1) for f, lf in factors.items()}
    dirichlet = Laurent.one(field_r, prec=INF)
    for e in range(1, d_max + 1):
        for n in monic_polys(field_r, e):
            c_n = _dirichlet_coefficient(n, primes, factor_cache)
            if c_n is None or c_n.is_zero():
                continue
            dirichlet = dirichlet + Laurent.from_poly(c_n) * a_pow_s(n, neg_s)
    dirichlet = dirichlet.truncate(prec)
    agreement = min(prec, (d_max + 1) * kappa)
    return product, dirichlet, agreement


# ---------------------------------------------------------------------------
# translation identity


@dataclass(frozen=True)
class TranslateReport:
    i: int
    rows: tuple  # (f, lhs, rhs, status)
    violations: tuple

    @property
    def all_ok(self) -> bool:
        return not self.violations


def translate_identity_check(sheaf: TauSheafRank1, i: int, primes) -> TranslateReport:
    """Check eigenvalue(F (x) C^{(x)i}, f) = eigenvalue(F, f) * f^i per prime."""
    from .sheaf import carlitz_tensor_power, tensor

    if i < 0:
        raise ValueError("i must be nonnegative")
    field_r = sheaf.field_r
    twisted = sheaf if i == 0 else tensor(sheaf, carlitz_tensor_power(field_r, i)[0])
    rows = []
    violations = []
    for f in primes:
        try:
            rhs = frobenius_eigenvalue(sheaf, f).value * f**i
            lhs = frobenius_eigenvalue(twisted, f).value
        except BadPrime:
            rows.append((f, None, None, "bad-prime"))
            continue
        ok = lhs == rhs
        rows.append((f, lhs, rhs, "ok" if ok else "violation"))
        if not ok:
            violations.append(f)
    return TranslateReport(i=i, rows=tuple(rows), violations=tuple(violations))


# ---------------------------------------------------------------------------
# eigen-systems and the modularity classifier


class EigenSystem:
    """Hecke eigenvalues at monic primes; strong multiplicativity means
    only prime indices are stored.  Values are rational to allow negative
    translates."""

    def __init__(self, values: dict, metadata: dict | None = None):
        for prime, val in values.items():
            if val.is_zero():
                raise ValueError(f"eigenvalue at {prime} must be nonzero")
        self.values = dict(values)
        self.metadata = dict(metadata or {})

    def primes(self):
        return sorted(self.values.keys(), key=lambda p: p.sort_key())

    def degrees(self):
        return sorted({p.deg for p in self.values})


@dataclass(frozen=True)
class Classification:
    verdict: str  # "ClassIITranslate" | "ClassIWitness" | "NoMatch"
    j: int | None
    j_mod_r_minus_1: int | None
    table: dict | None  # prime string -> c_P index in F_r^*
    note: str = ""


def classify_eigen_system(es: EigenSystem, field_r) -> Classification:
    """Match alpha_P = c_P * P^j for one integer j and c_P in F_r^*.

    j is fixed by degree statistics (two distinct degrees are required);
    all c_P = 1 gives ClassIITranslate(j), a nonconstant character table
    gives ClassIWitness, anything else NoMatch.  j's residue mod r-1 is
    reported without judgement.
    """
    primes = es.primes()
    if len(es.degrees()) < 2:
        raise InsufficientData("need eigenvalues at two distinct prime degrees")
    r = field_r.q
    j = None
    for P in primes:
        alpha = es.values[P]
        d_alpha = alpha.num.deg - alpha.den.deg
        if d_alpha % P.deg != 0:
            return Classification("NoMatch", None, None, None, note=f"degree mismatch at {P}")
        jP = d_alpha // P.deg
        if j is None:
            j = jP
        elif j != jP:
            return Classification("NoMatch", None, None, None, note="inconsistent translation degree")
    table = {}
    for P in primes:
        c = es.values[P] / RatFunc.from_poly(P) ** j
        if not c.is_constant() or c.is_zero():
            return Classification("NoMatch", None, None, None, note=f"alpha/P^j not constant at {P}")
        table[P] = c.constant_value()
    values = set(table.values())
    jm = j % (r - 1) if r > 2 else 0
    tbl_out = {P.to_string(): field_r.index_of(c) for P, c in table.items()}
    if values == {field_r.one}:
        return Classification("ClassIITranslate", j, jm, tbl_out)
    if len(values) > 1:
        note = _conductor_evidence_note(field_r, table)
        return Classification("ClassIWitness", j, jm, tbl_out, note=note)
    return Classification(
        "NoMatch", j, jm, tbl_out, note="constant non-trivial table matches neither class"
    )


def _conductor_evidence_note(field_r, table) -> str:
    t_poly = Poly.gen(field_r)
    groups: dict = {}
    for P, c in table.items():
        key = (P % t_poly).to_string()
        groups.setdefault(key, set()).add(c)
    if all(len(v) == 1 for v in groups.values()) and len(groups) > 1:
        return "values depend only on f mod T"
    return ""


# ---------------------------------------------------------------------------
# Newton polygons


def newton_polygon(sp: SpecialPolynomial):
    """Lower Newton polygon of sp as a polynomial in x^-1.

    Coefficients are valued by v_infinity = -deg_T; returns (slope, length)
    segments with strictly increasing slopes.  Slopes locate the 1/T-adic
    valuations of the zeros in x^-1.
    """
    pts = []
    for e, c in enumerate(sp.coeffs):
        if not c.is_zero():
            pts.append((e, -c.deg))
    if not pts:
        raise ZeroInput("Newton polygon of the zero polynomial")
    if len(pts) == 1:
        return []
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop the middle point when it lies on or above the new chord
            if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        segments.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
    return segments


# ---------------------------------------------------------------------------
# v-adic congruences


@dataclass(frozen=True)
class VadicReport:
    i: int
    j: int
    modulus: int
    rows: tuple  # (e, required_prec, disagreement_valuation)

    @property
    def all_ok(self) -> bool:
        return all(dis >= req for _, req, dis in self.rows)


def vadic_congruence_check(field_r, i: int, j: int, M: int, e_max: int, enum_bound: int = 4096) -> VadicReport:
    """Degree-wise sums sum n <n>^i agree with exponent j mod t^(p^M).

    Requires i = j mod p^M; each degree e <= e_max is enumerated directly
    and compared after clearing the common T^e scale.  The report carries
    the actual disagreement valuation (INF when identical) as the margin.
    """
    p = field_r.p
    pM = p**M
    if i < 0 or j < 0:
        raise ValueError("exponents must be nonnegative here")
    if (i - j) % pM != 0:
        raise ValueError(f"i = {i} and j = {j} are not congruent mod p^M = {pM}")
    rows = []
    for e in range(e_max + 1):
        if field_r.q**e > enum_bound:
            raise BoundExceeded(f"degree {e} enumeration exceeds bound {enum_bound}")
        sums = []
        for y in (i, j):
            acc = Laurent.zero(field_r)
            for n in monic_polys(field_r, e):
                unit = Laurent.from_poly(n).shift(e)  # <n>
                term = Laurent.from_poly(n) * one_unit_pow(unit, y, prec=pM + e + 1)
                acc = acc + term
            sums.append(acc.shift(e))  # clear the T^e scale
        dis = sums[0].disagreement_valuation(sums[1])
        rows.append((e, pM, dis))
    return VadicReport(i=i, j=j, modulus=pM, rows=tuple(rows))
