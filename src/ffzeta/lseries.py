"""Characteristic-p L-series: power sums, special polynomials, Euler
products, local factors, Newton polygons and the modularity classifiers.

Power sums S_e(k) = sum of n^k over monic n of degree e satisfy an exact
recursion obtained by writing n = T*m + c and expanding binomially:

    S_e(k) = - sum_{0 < j <= k, (r-1) | j} C(k, j) T^(k-j) S_{e-1}(k-j)

with S_0(k) = 1, because sum_{c in F_r} c^j is -1 for positive multiples
of r-1 and 0 otherwise.  Its coefficients are binomials mod p and -1, so
S_e(k) lies in F_p[T] for every r = p^m, and one table of residues mod p
(``PowerSumTable``) serves prime and prime-power r alike: ``FiniteField``
encodes elements as base-p digits, so the residues 0..p-1 are exactly the
constants of F_p inside F_r.  The binomials C(k, j) mod p come from Lucas's
theorem: the row of k is derived once from the row of k // p and serves
every e.  By the same theorem every index the recursion for S_e(k) reaches
is digit-dominated by k in base p, so a table holds only the union of those
indices over the k it was asked for, and one row costs its own digits, not
the whole range below it.  T -> cT with c in F_r^* maps the monics of degree e onto
themselves up to the factor c^e, so S_e(k)(cT) = c^(ek) S_e(k)(T): only
T^i with i = e*k mod (r-1) occur.  Each S_e(k) is stored as one packed
Python int, a fixed-width slot per power of T in that residue class
(Kronecker substitution), so T^(k-j) S_{e-1}(k-j) is one shift, made once
per row, and each term of the recursion is one big-int add.  The slot width
is chosen from p and the number of terms so that no slot overflows before
it is reduced; a reduction folds the high bits of every slot onto its low
bits with the weight 2^h mod p and, for p < 256, finishes with one
``bytes.translate``; 8-bit slots are read back as the bytes of the packed
int, and special polynomials print from those slots.  By the Carlitz-Lee
criterion S_e(k) = 0 once e(r-1) exceeds the base-r digit sum of k, so only
the entries below that bound are computed and the rows stop at the largest
digit sum; this makes special polynomials computable far past the reach of
enumeration, while direct enumeration remains the oracle at desk scale.
The work of a table is estimated from the digits before any row is built
and refused past ``WORK_LIMIT``.
"""

from __future__ import annotations

import struct
from itertools import groupby
from operator import itemgetter

from .errors import (
    BoundExceeded,
    InsufficientData,
    NonConvergent,
    Unsupported,
    ZeroInput,
)
from .errors import BadPrime, BadReduction, Record
from .laurent import INF, Laurent, one_unit_pow
from .ore import DrinfeldModule, frobenius_charpoly
from .poly import Poly, monic_irreducibles, monic_polys, split_valuation, terms_string
from .sheaf import TauSheafRank1, carlitz_tensor_power, frobenius_eigenvalue, tensor


# ---------------------------------------------------------------------------
# the space S_infinity and exponentiation a^s


class SInfinityPoint(Record):
    """Point (x, y) with x a nonzero Laurent series and y an exponent.

    ``y`` is an exact integer or a pair (residue, p^M) for a truncated
    p-adic exponent.  The group law is (x, y) + (x', y') = (x x', y + y').
    """

    __slots__ = ("x", "y")

    def __init__(self, x: Laurent, y):
        if x.is_zero_approx():
            raise ZeroInput("x-component of an S_infinity point must be nonzero")
        self._set(x, y)

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
    d = a.deg
    unit = Laurent.from_poly(a).shift(d)  # <a>, a 1-unit
    return s.x**d * one_unit_pow(unit, s.y)


# ---------------------------------------------------------------------------
# power sums


_SLOT_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}  # slot width in bits -> struct code
_MIN_FOLD_TERMS = 4  # the narrowest slot that sums this many terms between folds
# the most work, (indices) x (rows) x (slots of the longest entry), that one
# power-sum table may take (``_work``); at r = 3 the dense k <= 5000 (9.0e8,
# about 120 MB) and one k near 10^5 (6.5e8) pass, the dense k <= 10^4 does not
WORK_LIMIT = 1 << 30


def _digit_sum(k: int, base: int) -> int:
    total = 0
    while k:
        k, digit = divmod(k, base)
        total += digit
    return total


def _lattice(p: int, lo: int, hi: int, cap: int) -> list | None:
    """The union of D(k) over lo <= k <= hi, ascending, or None once it
    holds more than ``cap`` indices.

    D(k) is the set of j whose base-p digits are each at most k's: by
    Lucas's theorem the j with C(k, j) != 0 mod p, so every index that the
    recursion for S_e(k) reaches lies in D(k).  The j are built digit by
    digit from the top.  Each prefix carries a mask of the states of the k
    that can still dominate it: state 2a + b says whether k's prefix equals
    lo's (a) and hi's (b).  A k digit c, at least the j digit, runs from
    lo's digit (if a) to hi's (if b), and the state it leads to depends
    only on whether c is lo's digit, hi's digit or another one, so a few c
    stand for all of them.  Every j digit up to the highest c extends the
    prefix, so no level is longer than the final list.
    """
    n = 1
    while p**n <= hi:
        n += 1
    level = [(0, 1 << 3)]  # (prefix of j, mask of states); k starts equal to both
    for i in range(n - 1, -1, -1):
        l, h = lo // p**i % p, hi // p**i % p
        moves: dict = {}  # mask -> the mask each j digit leads to, for every j digit that has one
        nxt = []
        for j, mask in level:
            tos = moves.get(mask)
            if tos is None:
                states = [(st >> 1, st & 1) for st in range(4) if mask >> st & 1]
                tops = max(h if b else p - 1 for _, b in states)
                if len(nxt) + tops >= cap:
                    return None
                tos = moves[mask] = []
                for d in range(tops + 1):
                    to = 0
                    for a, b in states:
                        low, high = max(d, l if a else 0), h if b else p - 1
                        for c in {low, low + 1, low + 2, l, h}:
                            if low <= c <= high:
                                to |= 1 << (2 * (a and c == l) + (b and c == h))
                    tos.append(to)
            if len(nxt) + len(tos) > cap:
                return None
            nxt += [(j * p + d, to) for d, to in enumerate(tos)]
        level = nxt
    return [j for j, _ in level]


def _index_set(field_r, ks: range) -> dict:
    """The union of D(k) over ``ks``, each index mapped to its base-r digit
    sum; BoundExceeded when a table over it would pass ``WORK_LIMIT``.

    The indices are enumerated only while the work they prove (``_work``,
    each one costing at least what ``ks[-1]`` costs) stays within the
    bound, and the work of the whole set is checked before any row is built.
    """
    lo, hi, r = ks[0], ks[-1], field_r.q
    per_index = _work(1, _digit_sum(hi, r), hi, r - 1)
    cap = WORK_LIMIT // per_index
    lattice = _lattice(field_r.p, lo, hi, cap)
    if lattice is None:
        work = f"at least {(cap + 1) * per_index}"
    else:
        sums: dict = {}
        for k in lattice:  # ascending, and the lattice often holds k // r
            up = sums.get(k // r)
            sums[k] = _digit_sum(k, r) if up is None else up + k % r
        work = _work(len(sums), max(sums.values()), hi, r - 1)
        if work <= WORK_LIMIT:
            return sums
    raise BoundExceeded(f"power sums for k in {lo}..{hi}: work estimate {work}"
                        f" (indices x rows x slots) exceeds the bound WORK_LIMIT = {WORK_LIMIT}")


def _work(n_indices: int, top_digit_sum: int, k_max: int, s: int) -> int:
    """(indices) x (rows) x (slots of the longest entry) of a table whose
    largest digit sum and index are given: its rows stop at e = top // s,
    and deg S_e(k) <= e k."""
    e_max = top_digit_sum // s
    return n_indices * (e_max + 1) * (e_max * k_max // s + 1)


def _lucas_rows(p: int, step: int, ks) -> dict:
    """Per k in ``ks``, the terms of S_e(k) grouped by weight: pairs
    (w, kids), w ascending, where kids are the k - j over the j in step*N
    with 0 < j <= k and w = -C(k, j) mod p nonzero.

    By Lucas's theorem C(k, j) = C(k // p, j // p) C(k % p, j % p) mod p, so
    the support of k is {p*j' + t : j' in the support of k // p, t <= k % p}.
    As p*j' + t = p (j' mod step) + t mod step, supports are kept by j mod
    step, made once per k // p (then k // p^2, ...) that some k needs, and
    the row of k takes from the class b of k // p only the t = -p*b mod step
    (+ step, ...) up to k % p: no j off step*N is ever listed for a row.
    """
    pascal = [[1]]  # C(d, t) mod p, never 0 for d < p
    for d in range(1, min(p, max(ks) + 1)):
        c = pascal[-1]
        pascal.append([1, *[(a + b) % p for a, b in zip(c, c[1:])], 1])
    supports = {0: {0: [(0, 1)]}}  # k -> (j mod step -> [(j, C(k, j) mod p)])
    rows = {}
    for k in ks:
        chain = [k // p]  # the k // p^i whose supports are still to be made, top last
        while chain[-1] not in supports:
            chain.append(chain[-1] // p)
        for m in reversed(chain[:-1]):
            support: dict = {}
            for b, pairs in supports[m // p].items():
                for t, ct in enumerate(pascal[m % p]):
                    support.setdefault((p * b + t) % step, []).extend([(p * j + t, c * ct % p) for j, c in pairs])
            supports[m] = support
        d, tail, below = k % p, pascal[k % p], supports[k // p]
        groups: dict = {}
        for b, pairs in below.items():
            for t in range(-p * b % step, d + 1, step):
                ct = tail[t]
                for j, c in pairs:
                    if j or t:
                        groups.setdefault(p - c * ct % p, []).append(k - p * j - t)
        rows[k] = sorted(groups.items())
    return rows


def _slot_plan(p: int) -> tuple[int, int]:
    """Slot width in bits, and the most terms summed between two folds.

    A slot holds a reduced residue (at most p - 1) plus t terms w * c with
    w, c <= p - 1, so it never overflows while (p-1) + t (p-1)^2 < 2^width.
    The narrowest width that holds _MIN_FOLD_TERMS terms is taken, and sums
    as many as it holds: a wider slot lengthens every add, a narrower one
    folds after every few terms.  Where no width holds that many, a 64-bit
    slot is reduced after as many terms as it holds; only p >= 2^32, whose
    slot cannot hold one term, is refused.
    """
    for width in _SLOT_FORMATS:
        room = ((1 << width) - p) // (p - 1) ** 2
        if room >= _MIN_FOLD_TERMS:
            return width, room
    if room >= 1:
        return width, room
    raise Unsupported(f"power sums mod {p} do not fit a 64-bit slot")


def _fold_plan(p: int, bound: int) -> list:
    """Folds (h, 2^h mod p), p < 256, that take every slot value <= bound
    below 256 without changing it mod p.

    A fold replaces each slot value v by (v >> h) (2^h mod p) + (v mod 2^h).
    The largest value it can leave is computed exactly, and each step takes
    the h that leaves the least.  h = 8 lowers every bound >= 256, because
    2^8 mod p < 256, so the plan ends.
    """
    plan = []
    while bound > 255:
        options = []
        for h in range(1, bound.bit_length()):
            c, high, low = (1 << h) % p, bound >> h, (1 << h) - 1
            options.append((max(high * c + (bound & low), (high - 1) * c + low), h, c))
        bound, h, c = min(options)
        plan.append((h, c))
    return plan


def _chunked(groups: list, terms: int) -> list:
    """The weighted terms of one k, as chunks of at most ``terms`` terms."""
    if sum(len(kids) for _, kids in groups) <= terms:
        return [groups] if groups else []
    flat = [(w, kid) for w, kids in groups for kid in kids]
    return [
        [(w, [kid for _, kid in run]) for w, run in groupby(flat[i : i + terms], itemgetter(0))]
        for i in range(0, len(flat), terms)
    ]


class PowerSumTable:
    """The power sums S_e(k) over F_r, r = p^m, for k in an index set.

    The index set is the union of D(k) over the requested k, the indices
    digit-dominated by k in base p (``_lattice``): by Lucas's theorem every
    S_e'(kid) that the recursion for S_e(k) takes has kid in D(k), and D(k)
    is closed downward, so the set holds every term its entries need.  A
    range from 0 gives the dense set 0..k_max.  By the Carlitz-Lee
    criterion S_e(k) = 0 whenever the base-r digit sum of k is below
    e(r - 1), so row e holds only the k that pass it (its live entries),
    and the rows stop at ``zero_row``, the first e with no live index.
    Before any row is built, ``_index_set`` refuses a set whose work
    passes ``WORK_LIMIT``.  ``grow`` adds the indices of more k: the
    entries they need lie in their own lattice, so nothing is rebuilt.

    Entries are residues mod p, i.e. constants of F_p inside F_r, so the
    same table serves every r = p^m.  S_e(k) has no T^i off the class
    i = e*k mod s, s = r - 1 (T -> cT scales it by c^(ek)), so
    ``_rows[e][k]`` packs only that class into one int: slot j, in bits
    [j*W, (j+1)*W), is the coefficient of T^(e*k mod s + s*j).  The slot
    width W is 8, 16, 32 or 64 bits, fixed by p (``_slot_plan``).

    Row e is summed from row e-1: U(kid) = T^kid S_{e-1}(kid) starts at
    T^(kid + (e-1)*kid mod s), (kid + (e-1)*kid mod s - e*kid mod s) / s
    slots above S_e(k) for every Lucas term kid of k (s divides k - kid),
    so it is one shift of S_{e-1}(kid), 0 where that entry is not live.
    Each S_e(k) is sum_w w * sum U(kid) over those terms (``_lucas_rows``):
    one big-int add each.  A slot receives at most p - 1 plus ``terms``
    products w * c <= (p-1)^2 before it is reduced, and W is chosen so that
    this fits: nothing ever carries into the next slot.  The reduction folds
    every slot with a few shifts and masks (``_fold_plan``) until it is
    below 256, then maps each byte to its residue with one
    ``bytes.translate``.  For p > 256 no byte holds a residue, and the
    slots are reduced one by one.  ``slots`` reads 8-bit slots as the bytes
    of the packed int and wider ones with ``struct``; ``value`` spreads
    them into a dense Poly.
    """

    def __init__(self, field_r, ks: range):
        self.field = field_r
        self.p = p = field_r.p
        self.r = field_r.q
        sums = _index_set(field_r, ks)
        self._width, self._terms = _slot_plan(p)
        if p < 256:
            self._plan = _fold_plan(p, (p - 1) * (1 + (p - 1) * self._terms))
            self._residues = bytes(v % p for v in range(256))
        else:
            self._plan, self._residues = [], None
        self._folds: list = []  # (h, high mask, low mask, 2^h mod p), masks _fold_bits long
        self._fold_bits = 0
        self._digit_sums = sums  # the index set: k -> base-r digit sum of k
        self._chunks: dict = {}  # k -> its Lucas terms in chunks (``_chunked``)
        self._rows: list = [{}]  # per e: k -> S_e(k) packed, for the live k
        self.k_max = 0
        self._add(sums, sums)

    @property
    def zero_row(self) -> int:
        """The first e at which no index is live: S_e vanishes from there on."""
        return len(self._rows)

    def grow(self, ks: range) -> bool:
        """Add the union of D(k) over ``ks`` to the index set.  False, with
        nothing added, when the union would pass ``WORK_LIMIT``."""
        if all(map(self._digit_sums.__contains__, ks)):  # then so is each D(k)
            return True
        sums = _index_set(self.field, ks)
        new = {k: v for k, v in sums.items() if k not in self._digit_sums}
        if not new:
            return True
        top = max(max(new.values()), (self.zero_row - 1) * (self.r - 1))
        if _work(len(self._digit_sums) + len(new), top, max(self.k_max, ks[-1]), self.r - 1) > WORK_LIMIT:
            return False
        self._digit_sums.update(new)
        self._add(sums, new)
        return True

    def _add(self, lattice: dict, new) -> None:
        """Compute the entries of the k of ``new``, which lie in ``lattice``
        (a union of D(k) with its digit sums) and have none yet, row by row."""
        terms = self._terms
        self._chunks.update({k: _chunked(groups, terms) for k, groups in _lucas_rows(self.p, self.r - 1, new).items()})
        self._rows[0].update(dict.fromkeys(new, 1))
        self.k_max = max(self.k_max, *new)
        s, live, e = self.r - 1, list(lattice), 1
        while True:
            below, live = live, [k for k in live if lattice[k] >= e * s]
            if e == len(self._rows):
                self._rows.append({})
            todo = [k for k in live if k not in self._rows[e]]
            if not todo:  # a new k live at e is live below e too
                if not self._rows[e]:
                    self._rows.pop()
                return
            self._fill(e, todo, below, lattice)
            e += 1

    def _fill(self, e: int, todo: list, below: list, lattice: dict) -> None:
        """S_e(k) for the k in ``todo``, from the entries of row e-1 at the
        indices ``below`` (the live ones of ``lattice``, which holds every
        kid of those k)."""
        W, s, prev, row, reduce = self._width, self.r - 1, self._rows[e - 1], self._rows[e], self._reduce
        shifted = dict.fromkeys(lattice, 0)
        shifted.update({kid: prev[kid] << ((kid + (e - 1) * kid % s - e * kid % s) // s * W) for kid in below})
        self._cover_folds(max(map(int.bit_length, shifted.values())))
        get = shifted.__getitem__
        for k in todo:
            acc = 0
            for chunk in self._chunks[k]:
                acc = reduce(acc + sum([w * sum(map(get, kids)) for w, kids in chunk]))
            row[k] = acc

    def _unpack(self, x: int):
        """The slots of x, lowest first, none zero at the top: the bytes of x
        for 8-bit slots, else a tuple of ints read by ``struct``."""
        n = -(-x.bit_length() // self._width)
        if self._width == 8:
            return x.to_bytes(n, "little")
        return struct.unpack(f"<{n}{_SLOT_FORMATS[self._width]}", x.to_bytes(n * self._width // 8, "little"))

    def _reduce(self, acc: int) -> int:
        """acc with every slot reduced mod p."""
        for h, high, low, c in self._folds:
            acc = ((acc >> h) & high) * c + (acc & low)
        if self._residues is None:
            p, slots = self.p, self._unpack(acc)
            packed = struct.pack(f"<{len(slots)}{_SLOT_FORMATS[self._width]}", *[v % p for v in slots])
            return int.from_bytes(packed, "little")
        data = acc.to_bytes((acc.bit_length() + 7) // 8, "little")
        return int.from_bytes(data.translate(self._residues), "little")

    def _cover_folds(self, bits: int) -> None:
        """Make the fold masks span ints of up to ``bits`` bits."""
        if bits <= self._fold_bits or not self._plan:
            return
        W = self._width
        slots = -(-bits // W)
        ones = ((1 << (W * slots)) - 1) // ((1 << W) - 1)  # 1 in every slot
        self._folds = [(h, ones * ((1 << (W - h)) - 1), ones * ((1 << h) - 1), c) for h, c in self._plan]
        self._fold_bits = W * slots

    def _entry(self, e: int, k: int) -> int:
        """S_e(k) packed, 0 when it vanishes."""
        if k not in self._digit_sums:
            raise ValueError(f"k = {k} is not in the table's index set")
        return self._rows[e].get(k, 0) if e < len(self._rows) else 0

    def is_nonzero(self, e: int, k: int) -> bool:
        return self._entry(e, k) != 0

    def slots(self, e: int, k: int) -> tuple:
        """(e*k mod (r-1), the slots of S_e(k)): slot j is the coefficient of
        T^(e*k mod (r-1) + (r-1)*j)."""
        return e * k % (self.r - 1), self._unpack(self._entry(e, k))

    def value(self, e: int, k: int) -> Poly:
        return _spread(self.field, *self.slots(e, k), self.r - 1)

    def terms(self, k: int) -> tuple:
        """``slots(e, k)`` for e = 0 .. ``degree_in_e(k)``."""
        unpack, s = self._unpack, self.r - 1
        return tuple([(e * k % s, unpack(self._rows[e].get(k, 0))) for e in range(self.degree_in_e(k) + 1)])

    def degree_in_e(self, k: int) -> int:
        """Largest e with S_e(k) != 0 (the x^-1-degree of the special value):
        at most the digit sum of k over r - 1, and equal to it at prime r."""
        e = self._digit_sums[k] // (self.r - 1)
        while e and not self._rows[e].get(k):
            e -= 1
        return e


_TABLE_CACHE: dict = {}  # field -> its PowerSumTable, grown by unions within WORK_LIMIT


def _table_for(field_r, ks: range) -> PowerSumTable:
    """The cached table of F_r grown to hold the k in ``ks``; one built for
    ``ks`` alone replaces it when the union would pass ``WORK_LIMIT``."""
    tab = _TABLE_CACHE.get(field_r)
    if tab is None or not tab.grow(ks):
        tab = _TABLE_CACHE[field_r] = PowerSumTable(field_r, ks)
    return tab


def power_sum(field_r, e: int, k: int) -> Poly:
    """S_e(k) = sum over monic n of degree e of n^k, exactly.

    Returns 0 immediately when k < e(r-1) (the vanishing criterion); the
    nonzero range is read from the ``PowerSumTable`` of F_r, for prime and
    prime-power r alike, which enumeration cross-checks at desk scale.
    """
    if e < 0 or k < 0:
        raise ValueError("e and k must be nonnegative")
    r = field_r.q
    if k < e * (r - 1):
        return Poly.zero(field_r)
    return _table_for(field_r, range(k, k + 1)).value(e, k)


def power_sums_enumerated_batch(field_r, e: int, k_max: int, enum_bound: int = 1024):
    """S_e(k) for all k <= k_max by incremental batched enumeration.

    Prime fields only; returns a list of Polys indexed by k.  Used as the
    acceptance-scale oracle against the recursion.  It needs numpy (the
    ``dev`` extra), which it imports here so the library never loads it.
    """
    if field_r.m != 1:
        raise ValueError("batch enumeration requires a prime field")
    if field_r.q**e > enum_bound:
        raise BoundExceeded(
            f"enumeration of {field_r.q**e} monics exceeds bound {enum_bound}"
        )
    import numpy as np

    p = field_r.p
    count = field_r.q**e
    monics = np.array([n.coeffs for n in monic_polys(field_r, e)], dtype=np.int64)
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


def _series_string(texts, power) -> str:
    """Nonzero terms c*v^j of a series with coefficients in A, lowest j first.

    ``texts`` are the coefficients' texts, "0" where one vanishes;
    ``power(j)`` writes v^j for j >= 1 (``u^j`` or ``x^-j``); a coefficient
    whose text holds "+" or "*" is parenthesised, and the zero series is "0".
    """
    terms = []
    for j, cs in enumerate(texts):
        if cs == "0":
            continue
        if j == 0:
            terms.append(cs)
        elif cs == "1":
            terms.append(power(j))
        elif "+" in cs or "*" in cs:
            terms.append(f"({cs})*{power(j)}")
        else:
            terms.append(f"{cs}*{power(j)}")
    return "+".join(terms) if terms else "0"


def _u_power(j: int) -> str:
    return "u" if j == 1 else f"u^{j}"


def _spread(field, first: int, slots, step: int) -> Poly:
    """sum_j slots[j] T^(first + step*j) as a dense Poly."""
    cs = [0] * (first + step * (len(slots) - 1) + 1)
    cs[first::step] = slots
    return Poly(field, cs)


class SpecialPolynomial(Record):
    """L(., x/T^i, -i) in A[x^-1]: coeffs[e] is the coefficient of x^-e.

    It is kept as ``terms[e] = (first, slots)``: sum_j slots[j]
    T^(first + step*j), top slot nonzero.  ``special_polynomial`` gives the
    table's S_e(k), first = e*k mod (r-1) and step = r - 1 (T -> cT scales
    S_e(k) by c^(ek)); Polys give first 0, step 1.  ``to_string``, ``deg``
    and ``newton_points`` read the slots; ``coeffs`` builds Polys per read.
    """

    __slots__ = ("i", "kind", "field", "step", "terms")

    def __init__(self, i: int, kind: str, coeffs: tuple):  # kind "zeta" (exponent i) or "carlitz" (i+1)
        self._set(i, kind, coeffs[0].field if coeffs else None, 1, tuple((0, c.coeffs) for c in coeffs))

    @classmethod
    def packed(cls, i: int, kind: str, field, step: int, terms: tuple) -> "SpecialPolynomial":
        sp = object.__new__(cls)
        sp._set(i, kind, field, step, terms)
        return sp

    def _fields(self) -> tuple:  # equal and hashed by value, whatever the layout of the terms
        return self.i, self.kind, self.coeffs

    def __repr__(self):
        return f"SpecialPolynomial(i={self.i!r}, kind={self.kind!r}, coeffs={self.coeffs!r})"

    @property
    def exponent(self) -> int:
        return self.i if self.kind == "zeta" else self.i + 1

    @property
    def coeffs(self) -> tuple:
        return tuple(_spread(self.field, first, slots, self.step) for first, slots in self.terms)

    @property
    def deg(self) -> int:
        d = len(self.terms) - 1
        while d >= 0 and not self.terms[d][1]:
            d -= 1
        return d

    def coeff(self, e: int) -> Poly:
        if 0 <= e < len(self.terms):
            return _spread(self.field, *self.terms[e], self.step)
        if not self.terms:
            raise ValueError("empty special polynomial")
        return Poly.zero(self.field)

    def newton_points(self) -> list:
        """(e, -deg_T) of every nonzero coefficient of x^-e."""
        return [(e, -first - self.step * (len(slots) - 1)) for e, (first, slots) in enumerate(self.terms) if slots]

    def to_string(self) -> str:
        step = self.step
        return _series_string([terms_string(slots, first, step) for first, slots in self.terms], lambda e: f"x^-{e}")


def special_polynomial(field_r, i: int, kind: str) -> SpecialPolynomial:
    """The special polynomial at -i; finite by the vanishing criterion.

    The substitution x -> x/T^i is already applied, so the coefficient of
    x^-e is the honest power sum S_e(k) in A with k = i (zeta) or i+1
    (carlitz); the degree is at most floor(l_r(k) / (r-1)), l_r(k) the
    base-r digit sum of k, and equal to it at prime r.  The cached table of
    F_r grows by the indices digit-dominated by k, so a loop over i adds
    only what each k needs; BoundExceeded when that passes ``WORK_LIMIT``.
    The coefficients stay packed as the table holds them
    (``SpecialPolynomial``).
    """
    if i < 0:
        raise ValueError("i must be nonnegative")
    if kind not in ("zeta", "carlitz"):
        raise ValueError("kind must be 'zeta' or 'carlitz'")
    k = i if kind == "zeta" else i + 1
    tab = _table_for(field_r, range(k, k + 1))
    return SpecialPolynomial.packed(i, kind, field_r, tab.r - 1, tab.terms(k))


# ---------------------------------------------------------------------------
# local factors


class LocalFactor(Record):
    """Euler factor at a prime: the L-factor is 1 / denominator(u)."""

    __slots__ = ("prime", "denominator", "provenance")

    def __init__(self, prime: Poly, denominator: tuple, provenance: str):
        _set_prime(self, prime)
        _set_denominator(self, denominator)  # u-coefficients (Polys in T), constant term 1
        _set_provenance(self, provenance)

    def denominator_string(self) -> str:
        texts = ["0" if c.is_zero() else c.to_string() for c in self.denominator]
        return _series_string(texts, _u_power)

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


# the slots' own setters, one per row field: they pass Record's read-only
# __setattr__ without object.__setattr__'s lookup of the field by name
_set_prime, _set_denominator, _set_provenance = (vars(LocalFactor)[name].__set__ for name in LocalFactor.__slots__)


class ZetaA:
    """The zeta object: local factor 1/(1 - f^{-s}) at every prime."""

    def __init__(self, field_r):
        self.field_r = field_r


def local_factor(obj, f: Poly) -> LocalFactor:
    """Euler factor of the object at the monic prime f.

    Dispatch: ``ZetaA`` has the factor 1 - u; tau-sheaves use their
    eigenvalue g^f, a resultant.  Drinfeld modules of rank 1 and 2, the
    Carlitz module (beta = 1) among them, use ``frobenius_charpoly`` of
    their good model at f: rank 1 the eigenvalue N(beta)^-1 * f, a norm in
    F_r, and factor 1 at bad primes (all potentially good); rank 2 raises
    Unsupported there.
    """
    field = f.field
    one = Poly.one(field)
    if isinstance(obj, ZetaA):
        return LocalFactor(f, (one, -one), "rank1-formula")
    if isinstance(obj, TauSheafRank1):
        try:
            lam = frobenius_eigenvalue(obj, f).value
        except BadPrime:
            return LocalFactor(f, (one,), "bad-prime-rule")
        return LocalFactor(f, (one, -lam), "tau-sheaf-eigenvalue")
    if isinstance(obj, DrinfeldModule) and obj.rank in (1, 2):
        try:
            a, mu = frobenius_charpoly(obj, f)
        except BadReduction as exc:
            if obj.rank == 1:
                return LocalFactor(f, (one,), "bad-prime-rule")
            raise Unsupported(f"rank-2 bad prime {f}: local factor needs a maximal model") from exc
        if mu is None:
            return LocalFactor(f, (one, -a), "rank1-formula")
        return LocalFactor(f, (one, -a, f.scale(mu)), "rank2-charpoly")
    raise TypeError(f"no local factor dispatch for {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Euler products


def _eigenvalue_degree_slope(obj) -> int:
    """c such that the T-degree of the u-coefficients at f grows like c*deg f."""
    if isinstance(obj, ZetaA):
        return 0
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
    c_n * n^i over monic n directly, with c_n read from the same factors
    (``_dirichlet_terms``).  They agree for every e <= d_max.
    """
    primes = monic_irreducibles(field_r, d_max, enum_bound=enum_bound) if d_max >= 1 else []
    zero, one = Poly.zero(field_r), Poly.one(field_r)
    # euler side: product of sum_j c_{f^j} f^{ij} x^{-j deg f}
    euler = [one] + [zero] * d_max
    factor_cache = {f: local_factor(obj, f).inverse_series(d_max // f.deg + 1) for f in primes}
    for f, series in factor_cache.items():
        fi = f**i
        factor = [zero] * (d_max + 1)
        for jj, c in enumerate(series):  # jj * deg f <= d_max by the series' length
            factor[jj * f.deg] = c * fi**jj
        new = [zero] * (d_max + 1)
        for a_deg in range(d_max + 1):
            if euler[a_deg].is_zero():
                continue
            for b_deg in range(0, d_max + 1 - a_deg, 1):
                if not factor[b_deg].is_zero():
                    new[a_deg + b_deg] = new[a_deg + b_deg] + euler[a_deg] * factor[b_deg]
        euler = new
    # dirichlet side: c_n * n^i summed over monic n of degree e
    dirichlet = [one] + [zero] * d_max
    for n, c_n in _dirichlet_terms(field_r, primes, factor_cache, d_max):
        dirichlet[n.deg] = dirichlet[n.deg] + c_n * n**i
    return euler, dirichlet


def _dirichlet_terms(field_r, primes, factor_cache, d_max: int):
    """(n, c_n) for the monic n of degree 1..d_max with c_n != 0, where
    c_n = prod c_{f^e} over n = prod f^e.  Every prime factor of such an n
    has degree <= d_max, so it is among ``primes`` (sorted by degree)."""
    for e in range(1, d_max + 1):
        for n in monic_polys(field_r, e):
            c, rest = Poly.one(field_r), n
            for f in primes:
                if rest.deg < f.deg:
                    break
                mult, rest = split_valuation(rest, f)
                if mult:
                    c = c * factor_cache[f][mult]
            if not c.is_zero():
                yield n, c


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
    for n, c_n in _dirichlet_terms(field_r, primes, factor_cache, d_max):
        dirichlet = dirichlet + Laurent.from_poly(c_n) * a_pow_s(n, neg_s)
    dirichlet = dirichlet.truncate(prec)
    agreement = min(prec, (d_max + 1) * kappa)
    return product, dirichlet, agreement


# ---------------------------------------------------------------------------
# translation identity


class TranslateReport(Record):
    __slots__ = ("i", "rows", "violations")

    def __init__(self, i: int, rows: tuple, violations: tuple):
        self._set(i, rows, violations)  # a row is (f, lhs, rhs, status)

    @property
    def all_ok(self) -> bool:
        return not self.violations


def translate_identity_check(sheaf: TauSheafRank1, i: int, primes) -> TranslateReport:
    """Check eigenvalue(F (x) C^{(x)i}, f) = eigenvalue(F, f) * f^i per prime."""
    if i < 0:
        raise ValueError("i must be nonnegative")
    twisted = sheaf if i == 0 else tensor(sheaf, carlitz_tensor_power(sheaf.field_r, i))
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

    def __init__(self, values: dict):
        for prime, val in values.items():
            if val.is_zero():
                raise ValueError(f"eigenvalue at {prime} must be nonzero")
        self.values = dict(values)

    def primes(self):
        return sorted(self.values.keys(), key=lambda p: p.sort_key())

    def degrees(self):
        return sorted({p.deg for p in self.values})


class Classification(Record):
    __slots__ = ("verdict", "j", "j_mod_r_minus_1", "table", "note")

    def __init__(self, verdict: str, j: int | None, j_mod_r_minus_1: int | None, table: dict | None,
                 note: str = ""):
        # verdict: "ClassIITranslate" | "ClassIWitness" | "NoMatch"; table: prime string -> c_P index in F_r^*
        self._set(verdict, j, j_mod_r_minus_1, table, note)


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
        # alpha = num/den with den monic, so alpha/P^j is a constant c
        # exactly when num = c*den*P^j (j >= 0) or num*P^-j = c*den (j < 0),
        # and then c = lc(num); no gcd is taken
        alpha = es.values[P]
        c = alpha.num.lc()
        Q = P ** abs(j)
        if j >= 0:
            constant = alpha.num == (alpha.den * Q).scale(c)
        else:
            constant = alpha.num * Q == alpha.den.scale(c)
        if not constant:
            return Classification("NoMatch", None, None, None, note=f"alpha/P^j not constant at {P}")
        table[P] = c
    values = set(table.values())
    jm = j % (r - 1)
    tbl_out = {P.to_string(): c for P, c in table.items()}
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
    valuations of the zeros in x^-1.  A slope is an int when the length
    divides the rise and a ``Fraction`` otherwise, so ``fractions`` is only
    imported for a fractional slope.
    """
    pts = sp.newton_points()
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
        rise, run = y2 - y1, x2 - x1
        if rise % run:
            from fractions import Fraction

            segments.append((Fraction(rise, run), run))
        else:
            segments.append((rise // run, run))
    return segments


# ---------------------------------------------------------------------------
# v-adic congruences


class VadicReport(Record):
    __slots__ = ("i", "j", "modulus", "rows")

    def __init__(self, i: int, j: int, modulus: int, rows: tuple):
        self._set(i, j, modulus, rows)  # a row is (e, required_prec, disagreement_valuation)

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
