"""Twisted polynomials, Drinfeld modules, torsion and Frobenius machinery.

An Ore polynomial is sum c_i tau^i with tau the r-power Frobenius and the
twisted rule tau*c = c^r*tau; multiplication corresponds to composition of
the associated F_r-linear polynomials sum c_i x^(r^i).  Coefficients live
in a pluggable domain so the same core serves modules over the rational
function field, over residue fields A/(f), and over Laurent/matrix rings.

Frobenius data of a reduced module at f come from the Ore ring F_f{tau}
itself: pi = tau^(deg f) is central and satisfies pi - phi_a = 0 in rank 1
and Gekeler's relation pi^2 - phi_a*pi + mu*phi_f = 0 in rank 2, which is
one F_p-linear solve.  Torsion points, found as kernels of the F_r-linear
map phi_v over successively larger extensions of the residue field, are
kept as the independent oracle for those values; all their linear algebra
is over F_p too.
"""

from __future__ import annotations

from .errors import (
    BadReduction,
    BoundExceeded,
    DomainMismatch,
    InconsistentFrobenius,
    NotCyclic,
    SingularRecursion,
    ZeroInput,
)
from .ffield import FiniteField, pk_lex_irreducible, pk_powmod
from .poly import Poly, RatFunc, binary_power, poly_gcd, poly_xgcd

# ---------------------------------------------------------------------------
# coefficient domains


class FieldCoeffs:
    """Ore coefficients in a ``FiniteField`` (elements are ints).

    F_r sits inside every residue field and its extensions as the
    constants, so an element of F_r is its own image.
    """

    def __init__(self, field, r: int):
        self.field = field
        self.r = r
        self.zero = field.zero
        self.one = field.one

    def add(self, a, b):
        return self.field.add(a, b)

    def sub(self, a, b):
        return self.field.sub(a, b)

    def mul(self, a, b):
        return self.field.mul(a, b)

    def neg(self, a):
        return self.field.neg(a)

    def frob(self, a):
        return self.field.pow_(a, self.r)

    def is_zero(self, a):
        return a == self.field.zero

    def eq(self, a, b):
        return a == b

    def embed_fr(self, c):
        return c


class RingCoeffs:
    """Ore coefficients in an element-object ring (RatFunc, Laurent, matrices)."""

    def __init__(self, zero, one, r: int, embed_fr, is_zero=None):
        self.zero = zero
        self.one = one
        self.r = r
        self._embed = embed_fr
        self._is_zero = is_zero or (lambda a: a == zero)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def frob(self, a):
        return a.frob_power(self.r)

    def is_zero(self, a):
        return self._is_zero(a)

    def eq(self, a, b):
        return a == b

    def embed_fr(self, c):
        return self._embed(c)


def ratfunc_domain(field_r, r: int | None = None) -> RingCoeffs:
    r = r or field_r.q
    zero = RatFunc.zero(field_r)
    one = RatFunc.one(field_r)
    return RingCoeffs(
        zero,
        one,
        r,
        embed_fr=lambda c: RatFunc.const(field_r, c),
        is_zero=lambda a: a.is_zero(),
    )


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
            return self.dom is other.dom and len(self.coeffs) == len(other.coeffs) and all(
                self.dom.eq(a, b) for a, b in zip(self.coeffs, other.coeffs)
            )
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
            F_f = self.dom.field
            coeff_strs = [element_to_residue(self.field_r, F_f, c).to_string() for c in self.coeffs]
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
    dom = ratfunc_domain(field_r)
    return DrinfeldModule(field_r, dom, [RatFunc.gen(field_r), RatFunc.one(field_r)])


def drinfeld_rank1(field_r, beta: RatFunc) -> DrinfeldModule:
    """The twist C^(beta): theta*x + beta*x^r."""
    if beta.is_zero():
        raise ZeroInput("beta must be nonzero")
    dom = ratfunc_domain(field_r)
    return DrinfeldModule(field_r, dom, [RatFunc.gen(field_r), beta])


def drinfeld_rank2(field_r, g: RatFunc, delta: RatFunc) -> DrinfeldModule:
    """theta*x + g*x^r + delta*x^(r^2)."""
    if delta.is_zero():
        raise ZeroInput("delta must be nonzero")
    dom = ratfunc_domain(field_r)
    return DrinfeldModule(field_r, dom, [RatFunc.gen(field_r), g, delta])


# ---------------------------------------------------------------------------
# residue fields A/(f) and reduction of modules


_RESIDUE_CACHE: dict = {}


def residue_field(field_r, f: Poly):
    """A/(f) = F_r[y]/(f); an element's base-r digits are its residue
    polynomial's coefficients."""
    key = (field_r, f)
    if key not in _RESIDUE_CACHE:
        _RESIDUE_CACHE[key] = FiniteField(field_r, f.coeffs, check=False)
    return _RESIDUE_CACHE[key]


def residue_to_element(field_r, F_f, a: Poly):
    """Map a residue polynomial to its field element (reducing mod f first)."""
    modulus = Poly(field_r, F_f.modulus)
    if a.deg >= modulus.deg:
        a = a % modulus
    return F_f.from_coords(a.coeffs)


def element_to_residue(field_r, F_f, el) -> Poly:
    return Poly(field_r, F_f.coords(el))


def ratfunc_residue(field_r, F_f, a: RatFunc, f: Poly):
    """Image of an f-integral rational function num/den in F_f = A/(f).

    The residue is computed in A = F_r[T]: num mod f, times den^-1 mod f
    (from the extended gcd) when den is not constant; denominators are
    monic, so a constant one is 1.  Only the result is mapped into F_f, so
    no product is taken there and no exp/log table is built.  Raises
    BadReduction, naming f, when den shares a factor with f.
    """
    res = a.num % f
    if a.den.deg > 0:
        g, den_inv, _ = poly_xgcd(a.den, f)
        if g.deg > 0:
            raise BadReduction(f"{a.to_string()} is not integral at f = {f.to_string()}")
        res = (res * den_inv) % f
    return residue_to_element(field_r, F_f, res)


def good_model_twist(phi: DrinfeldModule, f: Poly) -> int:
    """Twist exponent j such that u = f^j yields an f-integral unit-leading
    model, or BadReduction.  Twisting by u sends a_i to a_i * u^(r^i - 1),
    i.e. beta to u^(r-1) * beta in rank 1."""
    r = phi.r
    t = phi.rank
    lead = phi.coeffs[-1]
    v_lead = lead.valuation_at(f)
    if v_lead % (r**t - 1) != 0:
        raise BadReduction(
            f"v_f(leading) = {v_lead} is not divisible by r^t-1 = {r**t - 1} at f = {f}"
        )
    j = -v_lead // (r**t - 1)
    for i in range(1, t):
        a = phi.coeffs[i]
        if a.is_zero():
            continue
        if a.valuation_at(f) + j * (r**i - 1) < 0:
            raise BadReduction(
                f"coefficient {i} stays non-integral at f = {f} under every allowed twist"
            )
    return j


def reduce_mod_prime(phi: DrinfeldModule, f: Poly) -> DrinfeldModule:
    """Good-reduction model of phi at the monic prime f, of the same rank."""
    field_r = phi.field_r
    r = phi.r
    j = good_model_twist(phi, f)
    u_pows = RatFunc.from_poly(f)
    F_f = residue_field(field_r, f)
    dom = FieldCoeffs(F_f, r)
    new_coeffs = []
    for i, a in enumerate(phi.coeffs):
        if a.is_zero():
            new_coeffs.append(F_f.zero)
            continue
        a_tw = a * u_pows ** (j * (r**i - 1))
        new_coeffs.append(ratfunc_residue(field_r, F_f, a_tw, f))
    return DrinfeldModule(field_r, dom, new_coeffs, prime=f, twist=j)


# ---------------------------------------------------------------------------
# point module annihilator (A-module structure of F_f under the action)


def _vector_minpoly(field_r, apply_map, seed, dim: int) -> Poly:
    """Minimal monic polynomial of a vector under a linear map over F_r."""
    F = field_r
    # echelon rows: (vector, combination coefficients), pivot position map
    rows = []
    pivots = {}
    vec = list(seed)
    combo = [F.one]
    while True:
        v = list(vec)
        c = list(combo)
        for piv, (rv, rc) in pivots.items():
            if v[piv] != F.zero:
                factor = v[piv]
                v = [F.sub(x, F.mul(factor, y)) for x, y in zip(v, rv)]
                n = max(len(c), len(rc))
                c = [
                    F.sub(
                        c[k] if k < len(c) else F.zero,
                        F.mul(factor, rc[k] if k < len(rc) else F.zero),
                    )
                    for k in range(n)
                ]
        piv = next((k for k, x in enumerate(v) if x != F.zero), None)
        if piv is None:
            return Poly(F, c).monic()
        inv = F.inv(v[piv])
        v = [F.mul(x, inv) for x in v]
        c = [F.mul(x, inv) for x in c]
        pivots[piv] = (v, c)
        if len(pivots) > dim:
            raise AssertionError("minimal polynomial search exceeded dimension")
        vec = apply_map(vec)
        combo = [F.zero] + combo


def point_module_annihilator(phi: DrinfeldModule, bound: int = 4096) -> Poly:
    """Monic annihilator of the cyclic A-module phi(F_f).

    Brute-force route: T acts on F_f = F_r[T]/(f) as the F_r-linear map
    x -> theta*x + sum a_i x^(r^i); the annihilator is its minimal
    polynomial, computed by exhausting Krylov spaces.  Non-cyclic modules
    (impossible for rank 1 by the theory) raise NotCyclic for inspection.
    """
    if not phi.is_reduced():
        raise ValueError("point_module_annihilator expects a reduced module")
    field_r = phi.field_r
    f = phi.prime
    d = f.deg
    r = phi.r
    if field_r.q**d > bound:
        raise BoundExceeded(f"residue field size {field_r.q**d} exceeds bound {bound}")
    F_f = phi.dom.field
    # residue polynomials of the coefficients
    a_res = [element_to_residue(field_r, F_f, c) for c in phi.coeffs]
    # columns of the T-action matrix in the basis 1, theta, ..., theta^(d-1)
    gen = Poly.gen(field_r)
    frob_pows = [Poly(field_r, pk_powmod(field_r, gen.coeffs, r**i, f.coeffs)) for i in range(1, phi.rank + 1)]
    cols = []
    basis_pow = Poly.one(field_r)
    frob_of_basis = [Poly.one(field_r)] * phi.rank
    for k in range(d):
        acc = (gen * basis_pow) % f
        for i in range(1, phi.rank + 1):
            ai = a_res[i]
            if ai.is_zero():
                continue
            acc = acc + (ai * frob_of_basis[i - 1]) % f
        cols.append([acc.coeff(j) for j in range(d)])
        basis_pow = (basis_pow * gen) % f
        frob_of_basis = [(fb * fp) % f for fb, fp in zip(frob_of_basis, frob_pows)]

    def apply_map(vec):
        out = [field_r.zero] * d
        for jcol, x in enumerate(vec):
            if x == field_r.zero:
                continue
            col = cols[jcol]
            for irow in range(d):
                if col[irow] != field_r.zero:
                    out[irow] = field_r.add(out[irow], field_r.mul(col[irow], x))
        return out

    mu = Poly.one(field_r)
    for seed_idx in range(d):
        if mu.deg == d:
            break
        seed = [field_r.zero] * d
        seed[seed_idx] = field_r.one
        # skip seeds already killed by the accumulated annihilator
        if _apply_poly_to_vector(field_r, mu, apply_map, seed) == [field_r.zero] * d:
            continue
        chi = _vector_minpoly(field_r, apply_map, seed, d)
        mu = (mu * chi).exact_div(poly_gcd(mu, chi))
    if mu.deg < d:
        raise NotCyclic(
            f"point module at f = {f} has annihilator {mu} of degree {mu.deg} < {d}"
        )
    return mu


def _apply_poly_to_vector(field_r, p: Poly, apply_map, vec):
    acc = [field_r.zero] * len(vec)
    power = list(vec)
    for c in p.coeffs:
        if c != field_r.zero:
            acc = [field_r.add(a, field_r.mul(c, x)) for a, x in zip(acc, power)]
        power = apply_map(power)
    return acc


# ---------------------------------------------------------------------------
# torsion of reduced modules via kernels over growing extensions


def all_polys_below(field_r, degree: int) -> list[Poly]:
    """All polynomials of degree < degree, ascending coefficient encoding."""
    out = []
    for enc in range(field_r.q**degree):
        coeffs = []
        k = enc
        for _ in range(degree):
            coeffs.append(field_r.element_from_index(k % field_r.q))
            k //= field_r.q
        out.append(Poly(field_r, coeffs))
    return out


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
        inv = pow(m[rank][col], p - 2, p) if p > 2 else 1
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


def torsion_points(phi: DrinfeldModule, v: Poly, max_ext_pdim: int = 64) -> TorsionModule:
    """Basis of phi[v] = ker(phi_v) with the A-action, for a reduced module.

    The kernel is cut out over F_f, F_{f^2}, ... by F_p-linear algebra
    until it reaches its full size r^(rank*deg v); the extension dimension
    over F_p is capped by ``max_ext_pdim``.
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
        if pdim > max_ext_pdim:
            raise BoundExceeded(
                f"splitting search for phi[{v}] exceeded extension dimension "
                f"{max_ext_pdim} over F_p"
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
    points = []
    n = len(null_basis)
    for enc in range(p**n):
        vec = [0] * len(null_basis[0]) if null_basis else []
        k = enc
        for b in null_basis:
            c = k % p
            k //= p
            if c:
                vec = [(x + c * y) % p for x, y in zip(vec, b)]
        points.append(E.from_pvector(vec) if null_basis else E.zero)
    return points


def _build_torsion(phi, v, E, e, points):
    field_r = phi.field_r
    r = phi.r
    t = phi.rank
    D = v.deg
    residues = all_polys_below(field_r, D)
    point_set = set(points)
    ordered = sorted(points, key=E.index_of)

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


def frobenius_on_torsion(phi: DrinfeldModule, v: Poly, max_ext_pdim: int = 64):
    """Matrix of x -> x^(r^deg f) on phi[v] in the computed basis.

    Returns a residue Poly (rank 1) or a rank x rank nested list of
    residue Polys (columns are images of basis points).
    """
    if not phi.is_reduced():
        raise ValueError("frobenius_on_torsion expects a reduced module")
    tor = torsion_points(phi, v, max_ext_pdim=max_ext_pdim)
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

    pi = tau^(deg f) is central in F_f{tau} and satisfies pi - phi_a = 0
    (rank 1) or Gekeler's relation pi^2 - phi_a*pi + mu*phi_f = 0 (rank 2).
    The relation is F_r-linear in the coefficients of a, in mu and in the
    coefficient of pi^rank; in F_p coordinates it is one null-space
    computation whose solution is unique up to scaling, with a nonzero
    pi^rank coordinate (InconsistentFrobenius otherwise).  Torsion
    (``frobenius_on_torsion``) is the independent oracle for these values.
    """
    field_r = phi.field_r
    t = phi.rank
    if t not in (1, 2):
        raise ValueError("only ranks 1 and 2 are supported")
    reduced = phi if phi.is_reduced() else reduce_mod_prime(phi, f)
    dom = reduced.dom
    F_f = dom.field
    p, m = field_r.p, field_r.m
    d = f.deg
    deg_a = d if t == 1 else d // 2
    pi = OrePoly.tau(dom, d)
    powers = [OrePoly.const(dom, dom.one)]  # phi_{T^i}
    for _ in range(d if t == 2 else deg_a):
        powers.append(powers[-1] * reduced.phi_T())
    # one unknown per F_p coordinate: -phi_a * pi^(t-1), then mu * phi_f
    # (rank 2), then the coefficient of pi^t
    terms = [-(power * pi ** (t - 1)) for power in powers[: deg_a + 1]]
    if t == 2:
        phi_f = OrePoly.zero(dom)
        for c, power in zip(f.coeffs, powers):
            phi_f = phi_f + power.scale(c)
        terms.append(phi_f)
    basis_r = [field_r.from_pvector([int(i == k) for i in range(m)]) for k in range(m)]
    cols = [term.scale(b) for term in terms for b in basis_r] + [pi**t]
    flat = [[x for j in range(d * t + 1) for x in F_f.to_pvector(col.coeff(j))] for col in cols]
    null = nullspace_mod_p([list(row) for row in zip(*flat)], p)
    if len(null) != 1 or null[0][-1] == 0:
        raise InconsistentFrobenius(
            f"the Frobenius relation at f = {f} has no unique solution "
            f"(null space of dimension {len(null)})"
        )
    scale = pow(null[0][-1], p - 2, p)
    sol = [(x * scale) % p for x in null[0]]
    unknowns = [field_r.from_pvector(sol[k * m : (k + 1) * m]) for k in range(len(terms))]
    return Poly(field_r, unknowns[: deg_a + 1]), (unknowns[-1] if t == 2 else None)


# ---------------------------------------------------------------------------
# Carlitz tensor power T-modules and exponential coefficients


class Mat:
    """Small immutable matrix over an element ring (RatFunc entries)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)

    @property
    def n(self):
        return len(self.rows)

    @classmethod
    def identity(cls, field_r, n: int) -> "Mat":
        one, zero = RatFunc.one(field_r), RatFunc.zero(field_r)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field_r, n: int) -> "Mat":
        zero = RatFunc.zero(field_r)
        return cls([[zero] * n for _ in range(n)])

    def __add__(self, o: "Mat") -> "Mat":
        return Mat([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, o.rows)])

    def __sub__(self, o: "Mat") -> "Mat":
        return Mat([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, o.rows)])

    def __neg__(self) -> "Mat":
        return Mat([[-a for a in r] for r in self.rows])

    def __mul__(self, o: "Mat") -> "Mat":
        n = self.n
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

    @property
    def dim(self) -> int:
        return self.n

    def __repr__(self):
        return f"TModuleCarlitzPower(n={self.n})"


def exp_coefficients(module, n_terms: int):
    """Coefficients Q_0..Q_{n_terms-1} of the exponential of the module.

    Solves exp(psi_* x) = psi_T(exp(x)) degree by degree; Q_0 is the
    identity.  Drinfeld modules over the rational domain give exact
    rational Q_i; Carlitz tensor powers give matrix coefficients.
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
        den = theta ** (r**n) - theta
        if den.is_zero():
            raise SingularRecursion(f"theta^(r^{n}) - theta vanished")
        Q.append(rhs / den)
    return Q


def _exp_matrix(module: TModuleCarlitzPower, n_terms: int):
    field_r = module.field_r
    r = field_r.q
    n = module.n
    theta = RatFunc.gen(field_r)
    theta_mat = module.theta_mat
    N = theta_mat - Mat.identity(field_r, n).scale(theta)
    V = module.v_mat
    Q = [Mat.identity(field_r, n)]
    for i in range(1, n_terms):
        rhs = V * Q[i - 1].frob_power(r)
        den = theta ** (r**i) - theta
        inv_den = RatFunc.one(field_r) / den
        # solve Q*(theta^(r^i) I + N) - (theta I + N) Q = rhs by nilpotent
        # fixed-point iteration: Q = (rhs + N Q - Q N^(entrywise r^i)) / den
        N_high = N  # entrywise powers of 0/1 entries leave N unchanged
        X = rhs.scale(inv_den)
        for _ in range(2 * n + 2):
            X_new = (rhs + N * X - X * N_high).scale(inv_den)
            if X_new == X:
                break
            X = X_new
        else:
            raise SingularRecursion("matrix exponential iteration did not stabilize")
        Q.append(X)
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
