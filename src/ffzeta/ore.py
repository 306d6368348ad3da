"""Twisted polynomials, Drinfeld modules, torsion and Frobenius machinery.

An Ore polynomial is sum c_i tau^i with tau the r-power Frobenius and the
twisted rule tau*c = c^r*tau; multiplication corresponds to composition of
the associated F_r-linear polynomials sum c_i x^(r^i).  Coefficients live
in one of two domains: ``RatFuncCoeffs``, F_r(T) for modules over the
rational function field, and ``FieldCoeffs``, the int elements of a
residue field F_f = A/(f) for reduced modules.  An element of F_f is the
code of its residue mod f (``Poly.code``; ``Poly.from_code`` reads it back),
and F_f is built only on the first read of a reduced module's ``dom.field``.

Reductions and Frobenius data at a prime f are read from the good model
that ``good_model`` builds in A = F_r[T], with no ``RatFunc`` arithmetic.
Frobenius data at a good prime come from closed forms in A modulo f: a
norm of the leading coefficient and, in rank 2, the Hasse invariant, so no
product is taken in a residue field and no Ore product is formed.  Torsion
points, kernels of the F_r-linear map phi_v over successively larger
extensions of the residue field, are kept as the independent oracle for
those values; all their linear algebra is over F_p.  At r = 2 the rank-2
branch of ``frobenius_charpoly`` dispatches once, at its top, to packed
F_2[T] ints.  At every r = 2^m ``point_module_annihilator`` runs on the
residue codes as they are: a code is the packed vector of its coordinates,
a sum is xor and T is F_2-linear; at odd p it reads their base-r digits.
"""

from __future__ import annotations

import operator
from collections import OrderedDict
from functools import cached_property

from .errors import (
    BadReduction,
    BoundExceeded,
    DomainMismatch,
    NotCyclic,
    ZeroInput,
)
from .ffield import FiniteField, f2_mod, f2_mul, f2_square, pk_lex_irreducible
from .poly import Poly, RatFunc, binary_power, norm, poly_xgcd, split_valuation, theta_multiples

# ---------------------------------------------------------------------------
# coefficient domains


class FieldCoeffs:
    """Ore coefficients in a ``FiniteField`` (elements are ints).

    F_r sits inside every residue field and its extensions as the
    constants, so an element of F_r is its own image.  ``FieldCoeffs(F_r,
    r, f)`` is A/(f), built by ``residue_field`` when ``field`` is first read.
    """

    zero, one = 0, 1

    def __init__(self, field, r: int, prime: Poly | None = None):
        if prime is None:
            self.field = field
        self._residue, self.r = (field, prime), r

    field = cached_property(lambda self: residue_field(*self._residue))

    def add(self, a, b):
        return self.field.add(a, b)

    def mul(self, a, b):
        return self.field.mul(a, b)

    def neg(self, a):
        return self.field.neg(a)

    def frob(self, a):
        return self.field.pow_(a, self.r)

    def is_zero(self, a):
        return a == 0

    def embed_fr(self, c):
        return c


class RatFuncCoeffs:
    """Ore coefficients in F_r(T) (``RatFunc`` elements), tau the r-power map."""

    def __init__(self, field_r):
        self.field_r = field_r
        self.r = field_r.q
        self.zero = RatFunc.zero(field_r)
        self.one = RatFunc.one(field_r)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def frob(self, a):
        return a.frob_power(self.r)

    def is_zero(self, a):
        return a.is_zero()

    def embed_fr(self, c):
        return RatFunc.const(self.field_r, c)


# ---------------------------------------------------------------------------
# Ore polynomials


class OrePoly:
    """Immutable twisted polynomial sum coeffs[i] * tau^i."""

    __slots__ = ("dom", "coeffs")

    def __init__(self, dom, coeffs):
        coeffs = list(coeffs)
        while coeffs and dom.is_zero(coeffs[-1]):
            coeffs.pop()
        self.dom = dom
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, dom) -> "OrePoly":
        return cls(dom, ())

    @classmethod
    def const(cls, dom, c) -> "OrePoly":
        return cls(dom, (c,))

    @classmethod
    def tau(cls, dom, i: int = 1) -> "OrePoly":
        return cls(dom, (dom.zero,) * i + (dom.one,))

    @property
    def deg(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.dom.zero

    def _check(self, other: "OrePoly"):
        if self.dom is not other.dom:
            raise DomainMismatch("Ore polynomials over different coefficient domains")

    def __add__(self, other: "OrePoly") -> "OrePoly":
        self._check(other)
        dom = self.dom
        n = max(len(self.coeffs), len(other.coeffs))
        return OrePoly(dom, [dom.add(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __neg__(self) -> "OrePoly":
        return OrePoly(self.dom, [self.dom.neg(c) for c in self.coeffs])

    def __sub__(self, other: "OrePoly") -> "OrePoly":
        return self + (-other)

    def __mul__(self, other: "OrePoly") -> "OrePoly":
        """Twisted product; equals composition of the linear polynomials."""
        self._check(other)
        dom = self.dom
        if self.is_zero() or other.is_zero():
            return OrePoly.zero(dom)
        out = [dom.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        twisted = list(other.coeffs)  # frob^i applied progressively
        for i, a in enumerate(self.coeffs):
            if i > 0:
                twisted = [dom.frob(b) for b in twisted]
            if dom.is_zero(a):
                continue
            for j, b in enumerate(twisted):
                if not dom.is_zero(b):
                    out[i + j] = dom.add(out[i + j], dom.mul(a, b))
        return OrePoly(dom, out)

    def __pow__(self, n: int) -> "OrePoly":
        return binary_power(self, n, OrePoly.const(self.dom, self.dom.one))

    def scale(self, c) -> "OrePoly":
        dom = self.dom
        return OrePoly(dom, [dom.mul(c, b) for b in self.coeffs])

    def evaluate(self, x):
        """Value of the associated F_r-linear polynomial at x (same domain)."""
        dom = self.dom
        out = dom.zero
        xi = x
        for i, c in enumerate(self.coeffs):
            if i > 0:
                xi = dom.frob(xi)
            if not dom.is_zero(c):
                out = dom.add(out, dom.mul(c, xi))
        return out

    def __eq__(self, other):
        if isinstance(other, OrePoly):
            return self.dom is other.dom and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"OrePoly({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# Drinfeld modules


class DrinfeldModule:
    """phi_T = theta*x + a_1 x^r + ... + a_t x^(r^t), a_t != 0.

    ``dom`` fixes where the coefficients live; ``field_r`` is F_r.  Reduced
    modules carry the prime and the twist exponent used to reach a good
    model (phi twisted by u = f^twist).
    """

    def __init__(self, field_r, dom, coeffs, prime: Poly | None = None, twist: int = 0):
        coeffs = list(coeffs)
        if len(coeffs) < 2:
            raise ValueError("rank 0 is not a Drinfeld module")
        if dom.is_zero(coeffs[-1]):
            raise ValueError("leading coefficient must be nonzero")
        self.field_r = field_r
        self.dom = dom
        self.coeffs = tuple(coeffs)
        self.theta = coeffs[0]
        self.prime = prime
        self.twist = twist

    @property
    def r(self) -> int:
        return self.field_r.q

    @property
    def rank(self) -> int:
        return len(self.coeffs) - 1

    def phi_T(self) -> OrePoly:
        return OrePoly(self.dom, self.coeffs)

    def action(self, a: Poly) -> OrePoly:
        """phi_a by Horner evaluation of a at phi_T in the Ore ring."""
        if a.is_zero():
            raise ZeroInput("phi_a of the zero polynomial")
        if a.field != self.field_r:
            raise DomainMismatch("operand polynomial not over F_r")
        dom = self.dom
        phi_t = self.phi_T()
        out = OrePoly.zero(dom)
        for c in reversed(a.coeffs):
            out = out * phi_t
            if c != self.field_r.zero:
                out = out + OrePoly.const(dom, dom.embed_fr(c))
        return out

    def is_reduced(self) -> bool:
        return self.prime is not None

    def to_dict(self) -> dict:
        if self.is_reduced():
            coeff_strs = [Poly.from_code(self.field_r, c).to_string() for c in self.coeffs]
            return {
                "r": self.r,
                "base": {"type": "residue", "prime": self.prime.to_string()},
                "phi_T": coeff_strs,
                "prime": self.prime.to_string(),
                "twist": self.twist,
            }
        return {
            "r": self.r,
            "base": {"type": "rational"},
            "phi_T": [c.to_string() for c in self.coeffs],
        }

    def __repr__(self):
        kind = f" mod {self.prime.to_string()}" if self.is_reduced() else ""
        return f"DrinfeldModule(rank={self.rank}{kind})"


def carlitz(field_r) -> DrinfeldModule:
    """C_T(x) = theta*x + x^r."""
    return DrinfeldModule(field_r, RatFuncCoeffs(field_r), [RatFunc.gen(field_r), RatFunc.one(field_r)])


def drinfeld_rank1(field_r, beta: RatFunc) -> DrinfeldModule:
    """The twist C^(beta): theta*x + beta*x^r."""
    if beta.is_zero():
        raise ZeroInput("beta must be nonzero")
    return DrinfeldModule(field_r, RatFuncCoeffs(field_r), [RatFunc.gen(field_r), beta])


def drinfeld_rank2(field_r, g: RatFunc, delta: RatFunc) -> DrinfeldModule:
    """theta*x + g*x^r + delta*x^(r^2)."""
    if delta.is_zero():
        raise ZeroInput("delta must be nonzero")
    return DrinfeldModule(field_r, RatFuncCoeffs(field_r), [RatFunc.gen(field_r), g, delta])


# ---------------------------------------------------------------------------
# residue fields A/(f) and reduction of modules


# Residue fields in use, least recently used first.  The first read of a
# reduced module's ``dom.field`` fills it (the torsion oracle makes one);
# reduction, the point module and the Frobenius characteristic polynomial
# work on residue codes or in A mod f and never do.
# A field's operation tables, built only when something multiplies in it
# (the torsion oracle), would set the memory of a long run over many
# primes, so the cache holds at most RESIDUE_CACHE_ELEMENTS table entries,
# counting what a field would build (``table_size``; a field without tables
# counts one).  An evicted field's torsion extensions go with it, since
# each keeps its base field alive; their own tables (each at most
# TABLE_LIMIT pairs) are not counted.
RESIDUE_CACHE_ELEMENTS = 1 << 18
_RESIDUE_CACHE: OrderedDict = OrderedDict()
_residue_cache_elements = 0


def _residue_cache_cost(F_f) -> int:
    """Operation-table entries F_f builds on its first product, at least 1."""
    return max(1, F_f.table_size)


def residue_field(field_r, f: Poly):
    """A/(f) = F_r[y]/(f); an element is the code of its residue mod f."""
    global _residue_cache_elements
    key = (field_r, f)
    F_f = _RESIDUE_CACHE.get(key)
    if F_f is not None:
        _RESIDUE_CACHE.move_to_end(key)
        return F_f
    F_f = _RESIDUE_CACHE[key] = FiniteField(field_r, f.coeffs, check=False)
    _residue_cache_elements += _residue_cache_cost(F_f)
    while _residue_cache_elements > RESIDUE_CACHE_ELEMENTS and len(_RESIDUE_CACHE) > 1:
        old = _RESIDUE_CACHE.popitem(last=False)[1]
        _residue_cache_elements -= _residue_cache_cost(old)
        for ext_key in [ext_key for ext_key in _EXT_CACHE if ext_key[0] == old]:
            del _EXT_CACHE[ext_key]
    return F_f


def good_model(phi: DrinfeldModule, f: Poly) -> tuple[int, list[tuple[Poly, Poly]]]:
    """(j, parts): the good model of phi at the monic prime f, its twist by
    u = f^j, j = -v_f(a_t) / (r^t - 1), which sends a_i to a_i u^(r^i - 1)
    and makes the leading coefficient a unit at f (Gekeler, Trans. AMS 360,
    2008).  f is split out of num and den of each a_i = num/den, i >= 1,
    once: a constant num or den has v_f = 0 and N(c) = c^d, and needs no
    division.  The twist only moves powers of f, so parts[i] = (num', den'),
    the parts prime to f (den' monic), where the twisted a_i is a unit at f,
    and (0, 1) where it is 0 mod f.  theta = T has weight r^0 - 1 = 0 and is
    never split: parts[0] = (T, 1).  Raises BadReduction, naming f, when
    r^t - 1 does not divide v_f(a_t) or a twisted a_i has a pole at f.
    """
    r, t = phi.r, phi.rank
    split = []  # (v_f(a_i), num', den'), with v_f(0) = inf
    for a in phi.coeffs[1:]:
        num, den, v = a.num, a.den, 0
        if not num.is_constant():
            v, num = split_valuation(num, f)
        if not den.is_constant():
            v_den, den = split_valuation(den, f)
            v -= v_den
        split.append((float("inf") if a.is_zero() else v, num, den))
    v_lead = split[-1][0]
    if v_lead % (r**t - 1) != 0:
        raise BadReduction(f"v_f(leading) = {v_lead} is not divisible by r^t-1 = {r**t - 1} at f = {f}")
    j = -v_lead // (r**t - 1)
    parts = [(phi.theta.num, phi.theta.den)]
    for i, (v, num, den) in enumerate(split, 1):
        v += j * (r**i - 1)
        if v < 0:
            raise BadReduction(f"coefficient {i} stays non-integral at f = {f} under every allowed twist")
        parts.append((num, den) if v == 0 else (Poly.zero(phi.field_r), Poly.one(phi.field_r)))
    return j, parts


def good_model_twist(phi: DrinfeldModule, f: Poly) -> int:
    """The twist exponent j of ``good_model``, or BadReduction."""
    return good_model(phi, f)[0]


def good_model_residues(phi: DrinfeldModule, f: Poly) -> tuple[int, list[Poly]]:
    """(j, residues): the good model's coefficients as residues mod f in A,
    num' * den'^-1 mod f with den'^-1 from the extended gcd (den' is monic
    and prime to f, so a constant den' is 1)."""
    j, parts = good_model(phi, f)
    residues = []
    for num, den in parts:
        res = num % f
        if den.deg > 0:
            res = (res * poly_xgcd(den, f)[1]) % f
        residues.append(res)
    return j, residues


def reduce_mod_prime(phi: DrinfeldModule, f: Poly) -> DrinfeldModule:
    """Good-reduction model of phi at the monic prime f (``good_model``).

    Each coefficient is a residue num' * den'^-1 mod f taken in A, whose
    code is its element of F_f, built only when ``dom.field`` is first read
    (``FieldCoeffs``); no ``RatFunc`` arithmetic runs.  A reduced phi, or an
    f that is not monic of degree >= 1, raises ValueError.
    """
    if phi.is_reduced():
        raise ValueError("reduce_mod_prime expects an unreduced module")
    if not f.is_monic() or f.deg < 1:
        raise ValueError("modulus must be monic of degree >= 1")
    j, residues = good_model_residues(phi, f)
    dom = FieldCoeffs(phi.field_r, phi.r, f)
    return DrinfeldModule(phi.field_r, dom, [a.code() for a in residues], prime=f, twist=j)


# ---------------------------------------------------------------------------
# point module annihilator (A-module structure of F_f under the action)


def point_module_annihilator(phi: DrinfeldModule, bound: int = 4096) -> Poly:
    """Monic annihilator of the cyclic A-module phi(F_f).

    T acts on F_f = F_r[theta]/(f) as the F_r-linear map
    x -> theta*x + sum a_i x^(r^i).  On the basis e_k = theta^k its k-th
    column is theta^(k+1) plus the sum over i of a_i*theta^(k r^i), the k-th
    entries of the theta-multiples of 1 with step 1 and of a_i with step r^i,
    so no polynomial is multiplied or reduced.  The annihilator is the map's
    minimal polynomial mu, by Krylov elimination: start from mu = 1 and, for
    each e_k that mu(T) does not kill, multiply mu by the minimal polynomial
    of mu(T)e_k, which makes mu the lcm of mu and the minimal polynomial of
    e_k.  It reads the residue codes only, never ``phi.dom``: at r = 2^m a
    code is the packed vector, a sum is xor and T is F_2-linear
    (``_annihilator_char2``); at odd p its base-r digits are its coordinates
    for F_r's operation tables (``_annihilator_tables``).  Non-cyclic
    modules (impossible for rank 1 by the theory) raise NotCyclic.
    """
    if not phi.is_reduced():
        raise ValueError("point_module_annihilator expects a reduced module")
    field_r = phi.field_r
    f = phi.prime
    d = f.deg
    if field_r.q**d > bound:
        raise BoundExceeded(f"residue field size {field_r.q**d} exceeds bound {bound}")
    if field_r.p == 2:
        mu = _annihilator_char2(field_r, f, phi.coeffs[1:])
    else:
        mu = Poly(field_r, _annihilator_tables(field_r, f.coeffs, phi.r,
                                               [Poly.from_code(field_r, a).coeffs for a in phi.coeffs[1:]]))
    if mu.deg < d:
        raise NotCyclic(f"point module at f = {f} has annihilator {mu} of degree {mu.deg} < {d}")
    return mu


def _annihilator_tables(field_r, f, r: int, coeffs) -> list:
    """``point_module_annihilator``'s mu at odd p; f, the a_i and mu are lists of F_r codes."""
    add, mul, neg, inv = field_r.ops()
    d = len(f) - 1
    # columns theta^(k+1) mod f in the basis theta^k: only theta^d wraps
    cols = [[int(i == k) for i in range(d)] for k in range(1, d)] + [[neg[c] for c in f[:d]]]
    for i, a in enumerate(coeffs, 1):
        if a:
            orbit = theta_multiples(field_r, f, a, r**i, d)
            cols = [[add[x][y] for x, y in zip(col, o)] for col, o in zip(cols, orbit)]

    def apply_map(vec):
        out = [0] * d
        for x, col in zip(vec, cols):
            if x:
                mx = mul[x]
                out = [add[y][mx[z]] for y, z in zip(out, col)]
        return out

    def minpoly(vec):
        # echelon rows [vector | combination], scaled to 1 at their pivot;
        # the row of T^j vec carries the combination e_j
        rows = []
        for j in range(d + 1):
            row = vec + [0] * j + [1] + [0] * (d - j)
            for piv, prow in rows:
                if row[piv]:
                    nc = mul[neg[row[piv]]]
                    row = [add[x][nc[y]] for x, y in zip(row, prow)]
            piv = next((k for k in range(d) if row[k]), None)
            if piv is None:
                return row[d : d + j + 1]  # monic: e_j was never scaled
            scale = mul[inv[row[piv]]]
            rows.append((piv, [scale[x] for x in row]))
            vec = apply_map(vec)
        raise AssertionError("minimal polynomial search exceeded dimension")

    mu = [1]
    for k in range(d):
        if len(mu) > d:
            break
        # mu(T) e_k by Horner
        vec = [0] * d
        vec[k] = 1
        for c in mu[-2::-1]:
            vec = apply_map(vec)
            vec[k] = add[vec[k]][c]
        if any(vec):
            chi = minpoly(vec)
            prod = [0] * (len(mu) + len(chi) - 1)
            for i, c in enumerate(mu):
                mc = mul[c]
                prod[i : i + len(chi)] = [add[x][mc[y]] for x, y in zip(prod[i:], chi)]
            mu = prod
    return mu


def _annihilator_char2(field_r, f: Poly, coeffs) -> Poly:
    """``_annihilator_tables`` at r = 2^m on residue codes (m-bit slots):
    theta*x shifts x up one slot and cancels the code c in slot d with c*f.
    Krylov elimination runs over F_2: T^j v enters tagged with slot j and,
    when independent, y^b T^j v for 0 < b < m with it."""
    m, r, d = field_r.m, field_r.q, f.deg
    md, slot, top = m * d, r - 1, 1 << m * d
    # y*x on each of 2d + 1 slots: a carry past y^(m-1) folds back as y^m mod h
    carry = ((1 << m * (2 * d + 1)) - 1) // slot << m - 1
    h_low = field_r.from_coords(field_r.modulus[:m])

    def times_y(x):
        c = x & carry
        return (x ^ c) << 1 ^ (c >> m - 1) * h_low

    def multiples(x):  # c*x, indexed by the code c of F_r
        out = [0, x]
        while len(out) < r:
            x = times_y(x)
            out += [z ^ x for z in out]
        return out

    fb = f.code()
    cancel = multiples(fb)  # c*f has c in slot d

    def orbit(v, step):  # v, theta^step v, ... (d vectors) mod f
        out = [v]
        while len(out) < d:
            for _ in range(step):  # theta*v: shift, then cancel slot d
                v <<= m
                v ^= cancel[v >> md]
            out.append(v)
        return out

    # theta^(k+1) mod f: only theta^d wraps, to f - theta^d
    cols = [1 << m * k for k in range(1, d)] + [fb ^ top]
    for i, a in enumerate(coeffs, 1):
        if a:
            cols = [x ^ y for x, y in zip(cols, orbit(a, r**i))]
    images = [multiples(col) for col in cols]  # images[k][c] = T(c theta^k)

    def apply_map(vec):
        out = 0
        for row in images:
            out ^= row[vec & slot]
            vec >>= m
        return out

    def minpoly(vec):
        # echelon rows vector | combination << md, each with its pivot bit
        rows = []
        for j in range(d + 1):
            row, b = vec | top << m * j, 0
            while True:  # T^j vec, then y^b T^j vec for 0 < b < m
                for piv, prow in rows:
                    if row & piv:
                        row ^= prow
                low = row & (top - 1)
                if not low:
                    return row >> md
                rows.append((low & -low, row))
                b += 1
                if b == m:
                    break
                row = times_y(row)
            vec = apply_map(vec)

    mu = 1
    for k in range(d):
        if mu >= top:
            break
        # mu(T) e_k by Horner
        vec = 1 << m * k
        for j in range((mu.bit_length() - 1) // m - 1, -1, -1):
            vec = apply_map(vec) ^ (mu >> m * j & slot) << m * k
        if vec:
            chi, scaled, mu = minpoly(vec), multiples(mu), 0
            for j in range(0, chi.bit_length(), m):
                mu ^= scaled[chi >> j & slot] << j
    return Poly.from_code(field_r, mu)


# ---------------------------------------------------------------------------
# torsion of reduced modules via kernels over growing extensions


def all_polys_below(field_r, degree: int) -> list[Poly]:
    """All polynomials of degree < degree, by ascending code."""
    return [Poly.from_code(field_r, x) for x in range(field_r.q**degree)]


def apply_linear(E, coeffs, x, r: int):
    """Evaluate sum coeffs[i] * x^(r^i) inside the field E."""
    out = E.zero
    xi = x
    for i, c in enumerate(coeffs):
        if i > 0:
            xi = E.pow_(xi, r)
        if c != E.zero:
            out = E.add(out, E.mul(c, xi))
    return out


def nullspace_mod_p(rows, p: int):
    """Basis of the null space of a matrix over F_p (rows of ints)."""
    if not rows:
        return []
    nrows, ncols = len(rows), len(rows[0])
    m = [list(r) for r in rows]
    piv_of_col = {}
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][col] % p:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col] % p:
                factor = m[i][col]
                m[i] = [(x - factor * y) % p for x, y in zip(m[i], m[rank])]
        piv_of_col[col] = rank
        rank += 1
    free_cols = [c for c in range(ncols) if c not in piv_of_col]
    basis = []
    for fc in free_cols:
        vec = [0] * ncols
        vec[fc] = 1
        for col, rw in piv_of_col.items():
            vec[col] = (-m[rw][fc]) % p
        basis.append(vec)
    return basis


_EXT_CACHE: dict = {}


def _extension_of(F_f, e: int):
    key = (F_f, e)
    if key not in _EXT_CACHE:
        _EXT_CACHE[key] = FiniteField(F_f, pk_lex_irreducible(F_f, e), check=False)
    return _EXT_CACHE[key]


class TorsionModule:
    """phi[v] with an A/(v)-basis and the coordinates of every point."""

    def __init__(self, field_r, v, rank, ambient, ext_degree, basis, coords):
        self.field_r = field_r
        self.v = v
        self.rank = rank
        self.ambient = ambient
        self.ext_degree = ext_degree
        self.basis = basis
        self.coords = coords  # dict: point -> tuple of residue Polys

    @property
    def points(self):
        return list(self.coords.keys())

    def size(self) -> int:
        return len(self.coords)


# the largest degree over F_p of an extension that the torsion search builds
_EXT_PDIM_CAP = 64


def torsion_points(phi: DrinfeldModule, v: Poly) -> TorsionModule:
    """Basis of phi[v] = ker(phi_v) with the A-action, for a reduced module.

    The kernel is cut out over F_f, F_{f^2}, ... by F_p-linear algebra
    until it reaches its full size r^(rank*deg v); past an extension of
    dimension ``_EXT_PDIM_CAP`` over F_p it raises BoundExceeded.
    """
    if not phi.is_reduced():
        raise ValueError("torsion_points expects a reduced module")
    if not v.is_monic() or v.deg < 1:
        raise ValueError("v must be a monic prime")
    if v == phi.prime:
        raise ValueError("v must differ from the reduction prime")
    field_r = phi.field_r
    F_f = phi.dom.field
    r = phi.r
    t = phi.rank
    target = r ** (t * v.deg)
    phi_v = phi.action(v)
    e = 0
    while True:
        e += 1
        E = F_f if e == 1 else _extension_of(F_f, e)
        pdim = E.m
        if pdim > _EXT_PDIM_CAP:
            raise BoundExceeded(
                f"splitting search for phi[{v}] exceeded extension dimension "
                f"{_EXT_PDIM_CAP} over F_p"
            )
        p = field_r.p
        cols = []
        for idx in range(pdim):
            vec = [0] * pdim
            vec[idx] = 1
            x = E.from_pvector(vec)
            y = apply_linear(E, phi_v.coeffs, x, r)
            cols.append(E.to_pvector(y))
        rows = [[cols[j][i] for j in range(pdim)] for i in range(pdim)]
        null_basis = nullspace_mod_p(rows, p)
        count = p ** len(null_basis)
        if count < target:
            continue
        if count > target:
            raise AssertionError("kernel larger than the torsion module; separability bug")
        kernel_points = _span_points(E, null_basis, p)
        return _build_torsion(phi, v, E, e, kernel_points)


def _span_points(E, null_basis, p: int):
    """Every F_p-combination of the null-space basis, as elements of E."""
    vecs = [[0] * E.m]
    for b in null_basis:
        vecs = [[x + c * y for x, y in zip(vec, b)] for c in range(p) for vec in vecs]
    return [E.from_pvector(vec) for vec in vecs]


def _build_torsion(phi, v, E, e, points):
    field_r = phi.field_r
    r = phi.r
    t = phi.rank
    D = v.deg
    residues = all_polys_below(field_r, D)
    point_set = set(points)
    ordered = sorted(points)

    def phi_action_on(x, a: Poly):
        if a.is_zero():
            return E.zero
        return apply_linear(E, phi.action(a).coeffs, x, r)

    basis = []
    # greedy A/(v)-independent points in deterministic order
    span = {E.zero}
    for cand in ordered:
        if cand in span:
            continue
        basis.append(cand)
        if len(basis) == t:
            break
        new_span = set()
        for lam in residues:
            img = phi_action_on(cand, lam) if not lam.is_zero() else E.zero
            for s in span:
                new_span.add(E.add(s, img))
        span = new_span
    if len(basis) != t:
        raise AssertionError("failed to find an A/(v)-basis of the torsion module")
    # coordinates of every point
    images = []
    for b in basis:
        images.append({lam.coeffs: phi_action_on(b, lam) if not lam.is_zero() else E.zero for lam in residues})
    coords = {}
    combos = [()]
    for _ in range(t):
        combos = [c + (lam,) for c in combos for lam in residues]
    for combo in combos:
        acc = E.zero
        for i, lam in enumerate(combo):
            acc = E.add(acc, images[i][lam.coeffs])
        coords[acc] = combo
    if len(coords) != len(point_set) or set(coords) != point_set:
        raise AssertionError("torsion module is not free over A/(v); bug")
    return TorsionModule(field_r, v, t, E, e, basis, coords)


# ---------------------------------------------------------------------------
# Frobenius on torsion and characteristic polynomials


def frobenius_on_torsion(phi: DrinfeldModule, v: Poly):
    """Matrix of x -> x^(r^deg f) on phi[v] in the computed basis.

    Returns a residue Poly (rank 1) or a rank x rank nested list of
    residue Polys (columns are images of basis points).
    """
    if not phi.is_reduced():
        raise ValueError("frobenius_on_torsion expects a reduced module")
    tor = torsion_points(phi, v)
    E = tor.ambient
    qf = phi.dom.field.q
    cols = []
    for b in tor.basis:
        img = E.pow_(b, qf)
        if img not in tor.coords:
            raise AssertionError("Frobenius image left the torsion module")
        cols.append(tor.coords[img])
    if phi.rank == 1:
        lam = cols[0][0]
        if lam.is_zero():
            raise AssertionError("Frobenius eigenvalue vanished on torsion")
        return lam
    return [[cols[j][i] for j in range(phi.rank)] for i in range(phi.rank)]


def frobenius_charpoly(phi: DrinfeldModule, f: Poly):
    """Characteristic polynomial data of Frobenius at a good prime f.

    Rank 1: returns (a, None) with charpoly u - a and a the global
    eigenvalue of degree deg f.  Rank 2: returns (a_f, mu) for
    u^2 - a_f*u + mu*f with deg a_f <= deg f / 2 and mu in F_r^*.

    Say the good model at f (``good_model``) is theta + g tau + Delta tau^2
    (rank 1: theta + beta tau), with d = deg f; N(x) = Res_theta(f, x) =
    prod_{i<d} x^(r^i) mod f is the norm from A/(f) to F_r, a Euclidean
    remainder sequence (``poly.norm``).
      rank 1:  a = N(beta)^-1 * f with N(beta) = N(num')/N(den') for the
               parts (num', den') of beta prime to f, so no inverse mod f;
      rank 2:  mu = (-1)^d * N(Delta)^-1 and a_f = mu * H mod f, where H
               is the Hasse invariant f_d of the recursion f_0 = 1,
               f_1 = g, f_k = g^(r^(k-1)) f_(k-1)
               - (theta^(r^(k-1)) - theta) Delta^(r^(k-2)) f_(k-2).
    The residue determines a_f because deg a_f <= d/2 < d.  See Gekeler,
    *Frobenius distributions of Drinfeld modules over finite fields*
    (Trans. AMS 360, 2008) and Hsia-Yu, *On characteristic polynomials of
    geometric Frobenius associated to Drinfeld modules* (Compositio 122,
    2000).  H takes O(d) products and r-th powers x(T)^r = x(T^r) mod f
    (c^r = c in F_r), on Polys or, at r = 2, on packed ints, from the
    residues num' * den'^-1 mod f of g and Delta.  No residue field is
    built, so a reduced module has its coefficients mapped back to residues.
    Oracles: torsion (``frobenius_on_torsion``), the Ore-relation null space
    (tests) and, in rank 1, ``sheaf.frobenius_eigenvalue``.
    """
    field_r = phi.field_r
    t = phi.rank
    if t not in (1, 2):
        raise ValueError("only ranks 1 and 2 are supported")
    if phi.is_reduced():
        if phi.prime != f:
            raise ValueError(f"module reduced at {phi.prime}, not at {f}")
        residues = [Poly.from_code(field_r, c) for c in phi.coeffs]
        if t == 1:
            return f.scale(field_r.inv(norm(f, residues[1]))), None
    elif t == 1:
        num, den = good_model(phi, f)[1][1]
        n_num = field_r.pow_(num.lc(), f.deg) if num.is_constant() else norm(f, num)
        n_den = field_r.pow_(den.lc(), f.deg) if den.is_constant() else norm(f, den)
        return f.scale(field_r.mul(n_den, field_r.inv(n_num))), None
    else:
        residues = good_model_residues(phi, f)[1]
    r = phi.r
    d = f.deg
    mu = field_r.inv(norm(f, residues[2]))
    if d % 2:
        mu = field_r.neg(mu)
    if field_r.f2_packed:  # packed ints: a difference is a sum, x(T)^2 = x(T^2)
        fb, residues = f.code(), [x.code() for x in residues]
        one, sub, mul, power = 1, operator.xor, f2_mul, f2_square
        mod, lift = (lambda x: f2_mod(x, fb)), (lambda x: Poly.from_code(field_r, x))
    else:
        one, sub, mul, power = Poly.one(field_r), operator.sub, operator.mul, (lambda x: x.frob_power(r))
        mod, lift = (lambda x: x % f), (lambda x: x)

    def conjugates(x) -> list:
        """x, x^r, ..., x^(r^(d-1)) mod f."""
        out = [x]
        for _ in range(d - 1):
            out.append(mod(power(out[-1])))
        return out

    theta, g, delta = (conjugates(x) for x in residues)
    prev, cur = one, g[0]  # f_0, f_1
    for k in range(2, d + 1):
        prev, cur = cur, mod(sub(mul(g[k - 1], cur), mul(mul(sub(theta[k - 1], theta[0]), delta[k - 2]), prev)))
    return lift(cur).scale(mu), mu


# ---------------------------------------------------------------------------
# Carlitz tensor power T-modules and exponential coefficients


class Mat:
    """Small immutable matrix over an element ring (RatFunc entries)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)

    @classmethod
    def identity(cls, field_r, n: int) -> "Mat":
        one, zero = RatFunc.one(field_r), RatFunc.zero(field_r)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def __add__(self, o: "Mat") -> "Mat":
        return Mat([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, o.rows)])

    def __sub__(self, o: "Mat") -> "Mat":
        return Mat([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, o.rows)])

    def __mul__(self, o: "Mat") -> "Mat":
        n = len(self.rows)
        return Mat(
            [
                [_dot(self.rows[i], [o.rows[k][j] for k in range(n)]) for j in range(n)]
                for i in range(n)
            ]
        )

    def scale(self, c: RatFunc) -> "Mat":
        return Mat([[c * a for a in r] for r in self.rows])

    def frob_power(self, r: int) -> "Mat":
        return Mat([[a.frob_power(r) for a in row] for row in self.rows])

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self.rows for a in r)

    def __eq__(self, o):
        return isinstance(o, Mat) and self.rows == o.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Mat({[[str(a) for a in r] for r in self.rows]})"


def _dot(row, col):
    acc = None
    for a, b in zip(row, col):
        term = a * b
        acc = term if acc is None else acc + term
    return acc


class TModuleCarlitzPower:
    """The n-th Carlitz tensor power: psi_T(x) = (theta*I + N)x + V x^r."""

    def __init__(self, field_r, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.field_r = field_r
        self.n = n
        theta = RatFunc.gen(field_r)
        zero, one = RatFunc.zero(field_r), RatFunc.one(field_r)
        self.theta_mat = Mat(
            [
                [theta if i == j else (one if j == i + 1 else zero) for j in range(n)]
                for i in range(n)
            ]
        )
        self.v_mat = Mat(
            [[one if (i == n - 1 and j == 0) else zero for j in range(n)] for i in range(n)]
        )

    def __repr__(self):
        return f"TModuleCarlitzPower(n={self.n})"


def exp_coefficients(module, n_terms: int):
    """Coefficients Q_0..Q_{n_terms-1} of the exponential of the module.

    Solves exp(psi_* x) = psi_T(exp(x)) degree by degree; Q_0 is the
    identity.  Drinfeld modules over the rational domain give exact
    rational Q_i, each over theta^(r^i) - theta, which is nonzero for
    i >= 1; Carlitz tensor powers give matrix coefficients, solved entry by
    entry (``_exp_matrix``).
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if isinstance(module, TModuleCarlitzPower):
        return _exp_matrix(module, n_terms)
    if isinstance(module, DrinfeldModule):
        if module.is_reduced():
            raise ValueError("exponential requires the generic (characteristic 0_A) base")
        return _exp_scalar(module, n_terms)
    raise TypeError("unsupported module type")


def _exp_scalar(phi: DrinfeldModule, n_terms: int):
    field_r = phi.field_r
    r = phi.r
    theta = RatFunc.gen(field_r)
    a = list(phi.coeffs)  # a[0] = theta
    Q = [RatFunc.one(field_r)]
    for n in range(1, n_terms):
        rhs = RatFunc.zero(field_r)
        for j in range(1, min(phi.rank, n) + 1):
            rhs = rhs + a[j] * Q[n - j].frob_power(r**j)
        Q.append(rhs / (theta ** (r**n) - theta))
    return Q


def _exp_matrix(module: TModuleCarlitzPower, n_terms: int):
    """Q_i (theta^(r^i) - theta) = V Q_{i-1}^(r) + N Q_i - Q_i N, N = theta_mat - theta I.

    N is the superdiagonal of ones, so (N Q)[a][b] = Q[a+1][b] and
    (Q N)[a][b] = Q[a][b-1]: entry (a, b) needs only (a+1, b) and (a, b-1),
    and the rows are solved bottom first, each from the left.
    """
    field_r = module.field_r
    r = field_r.q
    n = module.n
    theta = RatFunc.gen(field_r)
    zero = RatFunc.zero(field_r)
    Q = [Mat.identity(field_r, n)]
    for i in range(1, n_terms):
        rhs = (module.v_mat * Q[i - 1].frob_power(r)).rows
        inv_den = RatFunc.one(field_r) / (theta ** (r**i) - theta)
        rows = [[zero] * n for _ in range(n + 1)]  # rows[n]: the zeros below Q_i
        for a in range(n - 1, -1, -1):
            left = zero
            for b in range(n):
                left = rows[a][b] = (rhs[a][b] + rows[a + 1][b] - left) * inv_den
        Q.append(Mat(rows[:n]))
    return Q


def exp_functional_equation_residuals(module, Q):
    """Residuals of exp(psi_* x) = psi_T(exp(x)) per tau-degree; all must vanish."""
    if isinstance(module, TModuleCarlitzPower):
        field_r = module.field_r
        r = field_r.q
        n = module.n
        theta = RatFunc.gen(field_r)
        N = module.theta_mat - Mat.identity(field_r, n).scale(theta)
        out = []
        for i, Qi in enumerate(Q):
            lhs = Qi.scale(theta ** (r**i)) + Qi * N
            rhs = module.theta_mat * Qi
            if i >= 1:
                rhs = rhs + module.v_mat * Q[i - 1].frob_power(r)
            out.append(lhs - rhs)
        return out
    phi = module
    field_r = phi.field_r
    r = phi.r
    theta = RatFunc.gen(field_r)
    a = list(phi.coeffs)
    out = []
    for i, Qi in enumerate(Q):
        lhs = Qi * theta ** (r**i)
        rhs = theta * Qi
        for j in range(1, min(phi.rank, i) + 1):
            rhs = rhs + a[j] * Q[i - j].frob_power(r**j)
        out.append(lhs - rhs)
    return out
