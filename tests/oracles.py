"""Second routes kept only to check the production ones.

``power_sum_enumerated`` sums n^k over the r^e monics n of degree e, the
brute-force check of ``lseries.power_sum``.  ``poly_to_string_termwise``
writes the canonical text of a Poly one term at a time, the check of
``Poly.to_string``.  ``one_unit_pow_binary`` takes 1-unit powers by
square-and-multiply, the check of the binomial series of
``laurent.one_unit_pow``.  ``classify_by_ratfunc_division`` takes each
c_P = alpha_P / P^j in F_r(T), a gcd per power and per quotient, the check
of ``lseries.classify_eigen_system``.

``frobenius_charpoly_nullspace`` finds the Frobenius characteristic
polynomial of a rank-1 or rank-2 module at a good prime f in the Ore ring
F_f{tau}: pi = tau^(deg f) is central and satisfies pi - phi_a = 0 (rank 1)
or Gekeler's relation pi^2 - phi_a*pi + mu*phi_f = 0 (rank 2).  The
relation is F_r-linear in the coefficients of a, in mu and in the
coefficient of pi^rank; in F_p coordinates it is one null-space computation
whose solution is unique up to scaling, with a nonzero pi^rank coordinate
(InconsistentFrobenius otherwise).  It forms O(d^3) residue-field products
where ``ore.frobenius_charpoly`` takes O(d) products in A.
"""

from ffzeta.errors import BoundExceeded, FFZetaError, NotOneUnit
from ffzeta.laurent import DEFAULT_PREC, INF, Laurent
from ffzeta.lseries import Classification, _conductor_evidence_note
from ffzeta.ore import OrePoly, nullspace_mod_p, reduce_mod_prime
from ffzeta.poly import Poly, RatFunc, binary_power, monic_polys


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


def poly_to_string_termwise(f: Poly) -> str:
    """The canonical encoding written term by term, each coefficient as its code."""
    F = f.field
    if f.is_zero():
        return "0"
    terms = []
    for e in range(f.deg, -1, -1):
        c = f.coeffs[e]
        if c == F.zero:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            xpart = "T" if e == 1 else f"T^{e}"
            terms.append(xpart if c == 1 else f"{c}*{xpart}")
    return "+".join(terms)


def one_unit_pow_binary(u: Laurent, y: int, prec=None) -> Laurent:
    """Independent route: square-and-multiply (negative y via inversion)."""
    if not u.is_one_unit():
        raise NotOneUnit(f"{u!r} is not a 1-unit")
    if prec is None:
        prec = u.prec if u.prec != INF else DEFAULT_PREC
    u = u.truncate(prec)
    if y < 0:
        return one_unit_pow_binary(u.inverse(prec), -y, prec)
    return binary_power(u, y, Laurent.one(u.field, prec))


class InconsistentFrobenius(FFZetaError):
    """The Frobenius relation in F_f{tau} has no unique solution; flags a bug."""


def frobenius_charpoly_nullspace(phi, f: Poly):
    """(a, None) in rank 1 or (a_f, mu) in rank 2, as ``ore.frobenius_charpoly``."""
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


def classify_by_ratfunc_division(es, field_r):
    """``lseries.classify_eigen_system`` with c_P = alpha_P / P^j in F_r(T)."""
    primes = es.primes()
    j = None
    for P in primes:
        alpha = es.values[P]
        d_alpha = alpha.num.deg - alpha.den.deg
        if d_alpha % P.deg != 0:
            return Classification("NoMatch", None, None, None, note=f"degree mismatch at {P}")
        if j is None:
            j = d_alpha // P.deg
        elif j != d_alpha // P.deg:
            return Classification("NoMatch", None, None, None, note="inconsistent translation degree")
    table = {}
    for P in primes:
        c = es.values[P] / RatFunc.from_poly(P) ** j
        if not c.is_constant() or c.is_zero():
            return Classification("NoMatch", None, None, None, note=f"alpha/P^j not constant at {P}")
        table[P] = c.constant_value()
    values = set(table.values())
    r = field_r.q
    jm = j % (r - 1) if r > 2 else 0
    tbl_out = {P.to_string(): c for P, c in table.items()}
    if values == {field_r.one}:
        return Classification("ClassIITranslate", j, jm, tbl_out)
    if len(values) > 1:
        return Classification("ClassIWitness", j, jm, tbl_out, note=_conductor_evidence_note(field_r, table))
    return Classification("NoMatch", j, jm, tbl_out, note="constant non-trivial table matches neither class")
