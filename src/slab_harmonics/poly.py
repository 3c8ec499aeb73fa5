"""Exact sparse polynomial arithmetic in the variables (t, y1, ..., yd).

Variable index 0 is always t, the distinguished reflection/shift variable;
indices 1..d are the y-variables.

A polynomial is stored as FLINT's fmpq_poly stores one: integer numerators
over one positive common denominator.  The numerators live in a dict mapping
exponent tuples (length d+1) to nonzero integers, and the form is canonical:
the denominator is coprime to the content of the numerators, and it is 1 for
the zero polynomial (the empty map, of total degree -1 by convention).  So
every operation is integer arithmetic, equal polynomials are stored equally,
and polynomial identities are checked by literal equality.  `Fraction`s
appear only at the edges: scalar arguments, the `terms` view and the value of
`eval_exact`.  The canonical serialized term order is graded lexicographic
(leading term first), with t ordered before y1 < ... < yd.

The only Laplacian walked as a chain Lap_y^k f is the y-Laplacian, and
every walk is f._y_chain, kept by f.  It runs _chain on a _MonomialIndex,
integer ids of the exponent tuples with each monomial's Laplacian targets
computed once, which the walks of one solve share and which lives only as
long as that call.  MultiPoly.laplacian_y applies the term-by-term kernel
_laplacian_y_num instead, so a check of a walk's result shares no
Laplacian code with the walk.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from collections.abc import Iterator, Mapping, Sequence
from itertools import chain, repeat
from operator import add, itemgetter, mul

Scalar = Fraction | int | str

Numerators = dict[tuple[int, ...], int]


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _reduce(num: Numerators, den: int) -> tuple[Numerators, int]:
    """The canonical form of nonzero numerators over den > 0: divide out
    gcd(den, content), found by one gcd scan that stops at 1."""
    if not num:
        return num, 1
    g = den
    for v in num.values():
        if g == 1:
            return num, den
        g = math.gcd(g, v)
    if g != 1:
        num = {e: v // g for e, v in num.items()}
        den //= g
    return num, den


def _over_one_denominator(
    items: list[tuple[tuple[int, ...], int, int]]
) -> tuple[Numerators, int]:
    """Sum the terms p/q x^exps of (exps, p, q) items, q > 0, into nonzero
    numerators over the lcm of the q, keeping first-appearance order."""
    den = math.lcm(*{q for _, _, q in items})
    num: Numerators = {}
    for exps, p, q in items:
        num[exps] = num.get(exps, 0) + p * (den // q)
    return {e: v for e, v in num.items() if v}, den


class _int_digits:
    """Set Python's int <-> str digit limit (0: none) for a `with` block."""

    def __init__(self, limit: int):
        self.limit = limit

    def __enter__(self):
        self.old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(self.limit)

    def __exit__(self, *exc_info):
        sys.set_int_max_str_digits(self.old)


def _check_exps(d: int, exps: tuple[int, ...]) -> None:
    if not {int}.issuperset(map(type, exps)):  # no float, no bool
        raise ValueError(f"exponents must be integers: {exps!r}")
    if len(exps) != d + 1:
        raise ValueError(f"exponent vector {exps} has length {len(exps)}, expected {d + 1}")
    if min(exps) < 0:
        raise ValueError(f"negative exponent in {exps}")


def _check_dim(d: int) -> None:
    if d < 1:
        raise ValueError(f"dimension d must be >= 1, got {d}")


def _laplacian_y_num(num: Numerators) -> Numerators:
    """The y-Laplacian on numerators, term by term.  The factors n(n-1) are
    integers, so the denominator does not change."""
    out: Numerators = {}
    others = range(1, len(next(iter(num), ())))
    for exps, a in num.items():
        for var in others:
            n = exps[var]
            if n > 1:
                e = exps[:var] + (n - 2,) + exps[var + 1 :]
                out[e] = out.get(e, 0) + a * (n * (n - 1))
    return {e: v for e, v in out.items() if v}


def _product_num(a: Numerators, b: Numerators) -> Numerators:
    """The product of two numerator maps, term by term; cancelled terms are
    dropped."""
    out: Numerators = {}
    b_items = b.items()
    for ea, va in a.items():
        for eb, vb in b_items:
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + va * vb
    return {e: v for e, v in out.items() if v}


class _MonomialIndex:
    """Integer ids of exponent tuples, for the y-Laplacian: keys[i] is the
    tuple of id i, and targets[i] the pairs (id of the tuple with one
    y-exponent n > 1 lowered by 2, n(n-1)) of Lap_y on that monomial, over
    the variables in order; None until a walk first reaches the monomial.
    So the walks that share an index build and hash each target tuple once,
    and every other visit of a monomial reads its targets by an integer.
    An index belongs to the one call that made it: a slab solve shares one
    among its walks, and it is dropped when that call returns."""

    __slots__ = ("ids", "keys", "targets")

    def __init__(self):
        self.ids: dict[tuple[int, ...], int] = {}
        self.keys: list[tuple[int, ...]] = []
        self.targets: list[list[tuple[int, int]] | None] = []

    def _new(self, exps: tuple[int, ...]) -> int:
        """The id of a tuple that has none yet."""
        i = self.ids[exps] = len(self.keys)
        self.keys.append(exps)
        self.targets.append(None)
        return i

    def _fill(self, i: int) -> list[tuple[int, int]]:
        """targets[i], computed on the first visit of monomial i."""
        exps, ids = self.keys[i], self.ids
        out = []
        for var, n in enumerate(exps):
            if n > 1 and var:
                e = exps[:var] + (n - 2,) + exps[var + 1 :]
                j = ids.get(e)
                out.append((self._new(e) if j is None else j, n * (n - 1)))
        self.targets[i] = out
        return out


def _chain(num: Numerators, index: _MonomialIndex) -> list[tuple[int, Numerators]]:
    """(content, primitive numerators) of each nonzero L^k applied to num,
    k = 0, 1, ..., with L = Lap_y; the only loop that applies L repeatedly.
    Each step is divided by its gcd as it is walked and L is applied to the
    quotient, so content, the running product of those gcds, times step is
    L^k num.  The walk runs on the ids of the index, reads each monomial's
    targets there (filling them on its first visit), and gives each step
    keyed by tuple.
    L lowers the degree by 2, so a chain has at most top // 2 + 1 steps,
    top the largest total degree of num; a walk that would go past that
    raises ArithmeticError.  The chain is empty for num = {}."""
    if not num:
        return []
    limit = max(map(sum, num)) // 2 + 1
    ids, keys, targets = index.ids, index.keys, index.targets
    content, step = _primitive(num)
    steps = [(content, step)]
    cur = {}
    for e, v in step.items():
        i = ids.get(e)
        cur[index._new(e) if i is None else i] = v
    while True:
        out: dict[int, int] = {}
        for i, a in cur.items():
            t = targets[i]
            if t is None:
                t = index._fill(i)
            for j, w in t:
                out[j] = out.get(j, 0) + a * w
        g = math.gcd(*out.values())
        if not g:
            return steps
        if len(steps) == limit:
            raise ArithmeticError(f"a Laplacian chain ran past its bound of {limit} steps")
        content *= g
        cur = {j: v // g for j, v in out.items() if v}
        steps.append((content, dict(zip(map(keys.__getitem__, cur), cur.values()))))


def _primitive(num: Numerators) -> tuple[int, Numerators]:
    """(content, num / content) for nonzero numerators num; num itself when
    its content is 1."""
    g = math.gcd(*num.values())
    return g, num if g == 1 else {e: v // g for e, v in num.items()}


def _cauchy_extension(
    u0: "MultiPoly", u1: "MultiPoly", index: _MonomialIndex | None = None
) -> "MultiPoly":
    """The harmonic h with h = u0 and dh/dt = u1 on t = 0, for t-free u0
    and u1: sum_n (-1)^(n//2) t^n/n! Lap_y^(n//2) u_(n%2).  Each datum's
    chain is the one it keeps (u._y_chain), walked if need be on the
    caller's index or else on one made here for the two; every term is over
    den top! with the factor top!/n! times the step's content, less their
    common gcd with den (the content trick of laplace._series), on the
    primitive numerators of the step; no two terms share a key."""
    u0._check_space(u1)
    if index is None:
        index = _MonomialIndex()
    den = math.lcm(u0._den, u1._den)
    steps = []  # (n, signed factor of u_(n%2), content, primitive numerators of L^(n//2) u_(n%2))
    for i, u in enumerate((u0, u1)):
        m = den // u._den
        for k, (content, num) in enumerate(u._y_chain(index)):
            n = 2 * k + i
            steps.append((n, m if n % 4 < 2 else -m, content, num))
    top = max((step[0] for step in steps), default=0)
    den *= math.factorial(top)
    common = math.gcd(den, *(m * math.perm(top, top - n) * c for n, m, c, _ in steps))
    steps = [(n, m * math.perm(top, top - n) * c // common, num) for n, m, c, num in steps]
    out = {(n,) + e[1:]: m * v for n, m, num in steps for e, v in num.items()}
    return MultiPoly._reduced(u0.d, out, den // common)


def _t_fibres(num: Numerators) -> dict[tuple[int, ...], list[int]]:
    """Group numerators by y-monomial: for each y-exponent tuple, the
    numerators a_0..a_m of its t-coefficients (a_m != 0), in one pass."""
    fibres: dict[tuple[int, ...], list[int]] = {}
    for exps, v in num.items():
        k = exps[0]
        a = fibres.get(rest := exps[1:])
        if a is None:
            fibres[rest] = a = [0] * (k + 1)
        elif len(a) <= k:
            a += [0] * (k + 1 - len(a))
        a[k] = v
    return fibres


class MultiPoly:
    """Immutable sparse multivariate polynomial over the rationals."""

    # A polynomial keeps what its methods derive, each on first use: _lap
    # the Laplacian, _fib the grouping by y-monomial (_t_fibres) and _ych
    # the y-Laplacian chain (_chain).  No other module writes them, and
    # building a polynomial writes nothing to them.
    __slots__ = ("d", "_num", "_den", "_lap", "_fib", "_ych")

    def __init__(self, d: int, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        _check_dim(d)
        items = []
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                _check_exps(d, exps)
                c = _frac(coeff)
                items.append((exps, c.numerator, c.denominator))
        num, den = _reduce(*_over_one_denominator(items))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _reduced(cls, d: int, num: Numerators, den: int) -> "MultiPoly":
        """Wrap numerators built by internal code, without the checks of
        __init__: the caller guarantees tuple exponents of length d+1,
        nonzero integer values and den > 0, and hands over the dict.  The
        result is put in canonical form."""
        num, den = _reduce(num, den)
        p = object.__new__(cls)
        object.__setattr__(p, "d", d)
        object.__setattr__(p, "_num", num)
        object.__setattr__(p, "_den", den)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "MultiPoly":
        _check_dim(d)
        return cls._reduced(d, {}, 1)

    @classmethod
    def constant(cls, d: int, value: Scalar) -> "MultiPoly":
        return cls(d, {(0,) * (d + 1): _frac(value)})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        return {e: Fraction(v, self._den) for e, v in self._num.items()}

    @property
    def is_zero(self) -> bool:
        return not self._num

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._num:
            return -1
        return max(sum(e) for e in self._num)

    @property
    def is_t_free(self) -> bool:
        return all(e[0] == 0 for e in self._num)

    def _check_var(self, var: int) -> None:
        if not 0 <= var <= self.d:
            raise IndexError(f"variable index {var} out of range 0..{self.d}")

    def _check_space(self, other: "MultiPoly") -> None:
        if self.d != other.d:
            raise ValueError(f"dimension mismatch: d={self.d} vs d={other.d}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return self._plus(other, False)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self._plus(other, True)

    def _plus(self, other: "MultiPoly", negate: bool) -> "MultiPoly":
        """self + other, or self - other if negate; cancelled terms are dropped."""
        self._check_space(other)
        if not other._num:
            return self
        if not self._num and not negate:
            return other
        den = math.lcm(self._den, other._den)
        ma, mb = den // self._den, den // other._den
        out = dict(self._num) if ma == 1 else {e: v * ma for e, v in self._num.items()}
        if negate:
            mb = -mb
        for exps, v in other._num.items():
            v *= mb
            w = out.get(exps)
            if w is None:
                out[exps] = v
            else:
                w += v
                if w:
                    out[exps] = w
                else:
                    del out[exps]
        return MultiPoly._reduced(self.d, out, den)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._reduced(self.d, {e: -v for e, v in self._num.items()}, self._den)

    def __mul__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check_space(other)
        num = _product_num(self._num, other._num)
        return MultiPoly._reduced(self.d, num, self._den * other._den)

    def scale(self, c: Scalar) -> "MultiPoly":
        c = _frac(c)
        p = c.numerator
        if not p:
            return MultiPoly._reduced(self.d, {}, 1)
        return MultiPoly._reduced(
            self.d, {e: v * p for e, v in self._num.items()}, self._den * c.denominator
        )

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(self.d, 1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.d == other.d and self._den == other._den and self._num == other._num

    # -- calculus ----------------------------------------------------------

    def derivative(self, var: int) -> "MultiPoly":
        """Exact partial derivative with respect to variable `var`."""
        self._check_var(var)
        out: Numerators = {}
        for exps, v in self._num.items():
            n = exps[var]
            if n:
                out[exps[:var] + (n - 1,) + exps[var + 1 :]] = v * n
        return MultiPoly._reduced(self.d, out, self._den)

    def laplacian(self) -> "MultiPoly":
        """Sum of second partials over all d+1 variables, computed on the
        first call and kept: a polynomial never changes.

        It is summed on the y-monomial grouping.  For y-exponents b, the
        t-numerators at y^b are those of d2/dt2 on the fibre of b,
        (k+2)(k+1) a_(k+2) at t^k, plus, for each y-variable v, n(n-1)
        times the fibre of b + 2e_v, with n the v-th exponent of b + 2e_v.
        Each target y-monomial gets one list as long as the longest fibre:
        the d2/dt2 part, built by one map per fibre, padded with zeros.  Each
        y-part is then added into it in place, by scalar +=, which beats a
        map per (fibre, variable) pair on fibres a few entries long.  A
        harmonic polynomial leaves every list zero and gets the empty map,
        without a scan of the entries.
        """
        try:
            return self._lap
        except AttributeError:
            pass
        fibres = self._fibres()
        length = max(map(len, fibres.values()), default=0)
        weights = [(k + 2) * (k + 1) for k in range(length)]
        sums = {}
        for rest, a in fibres.items():
            sums[rest] = s = list(map(mul, weights, a[2:]))
            s += [0] * (length - len(s))
        for rest, a in fibres.items():
            for v, n in enumerate(rest):
                if n > 1:
                    key = rest[:v] + (n - 2,) + rest[v + 1 :]
                    s = sums.get(key)
                    if s is None:
                        sums[key] = s = [0] * length
                    c = n * (n - 1)
                    k = 0  # a counter runs faster here than enumerate
                    for x in a:
                        s[k] += c * x
                        k += 1
        if any(map(any, sums.values())):
            num = {(k,) + rest: v for rest, s in sums.items() for k, v in enumerate(s) if v}
        else:
            num = {}
        lap = MultiPoly._reduced(self.d, num, self._den)
        object.__setattr__(self, "_lap", lap)
        return lap

    def laplacian_y(self) -> "MultiPoly":
        """Sum of second partials over the y-variables only."""
        return MultiPoly._reduced(self.d, _laplacian_y_num(self._num), self._den)

    def integrate_t(self) -> "MultiPoly":
        """Antiderivative in t vanishing at t = 0."""
        m = math.lcm(*{e[0] + 1 for e in self._num})
        out = {(e[0] + 1,) + e[1:]: v * (m // (e[0] + 1)) for e, v in self._num.items()}
        return MultiPoly._reduced(self.d, out, self._den * m)

    # -- substitutions in t --------------------------------------------------

    def shift_t(self, s: Scalar) -> "MultiPoly":
        """Substitute t <- t + s, expanded exactly by the binomial theorem."""
        s = _frac(s)
        if s == 0 or not self._num:
            return self
        p, q = s.numerator, s.denominator
        fibres = _t_fibres(self._num)  # a fresh grouping: the loop rewrites its lists
        top = max(len(a) for a in fibres.values()) - 1
        out: Numerators = {}
        for rest, a in fibres.items():
            # sum_k a_k (t + p/q)^k = q^-m sum_k a_k q^(m-k) (qt + p)^k: scale,
            # then the integer Taylor shift by p (Horner's scheme)
            m = len(a) - 1
            qk = 1
            for k in range(m, -1, -1):
                a[k] *= qk
                qk *= q
            for i in range(m):
                for j in range(m - 1, i - 1, -1):
                    a[j] += p * a[j + 1]
            # t^j now has a_j q^j over q^m; bring every term to q^top
            qj = q ** (top - m)
            for j in range(m + 1):
                if a[j]:
                    out[(j,) + rest] = a[j] * qj
                qj *= q
        return MultiPoly._reduced(self.d, out, self._den * q**top)

    def negate_t(self) -> "MultiPoly":
        """Substitute t <- -t (flips the sign of odd-in-t terms)."""
        return MultiPoly._reduced(
            self.d, {e: -v if e[0] % 2 else v for e, v in self._num.items()}, self._den
        )

    def parity_split_t(self) -> tuple["MultiPoly", "MultiPoly"]:
        """Split into (even, odd) parts with respect to t at t0 = 0."""
        even = {e: v for e, v in self._num.items() if e[0] % 2 == 0}
        odd = {e: v for e, v in self._num.items() if e[0] % 2 == 1}
        return (
            MultiPoly._reduced(self.d, even, self._den),
            MultiPoly._reduced(self.d, odd, self._den),
        )

    def trace(self, t0: Scalar) -> "MultiPoly":
        """Restrict t = t0; the result has zero t-exponent everywhere."""
        return self.traces(t0)[0]

    def traces(self, *points: Scalar) -> list["MultiPoly"]:
        """[trace(t0) for t0 in points], grouping the terms by y-monomial once.

        At t0 = p/q a fibre a_0..a_m gives the homogeneous Horner sum
        sum_k a_k p^k q^(m-k), brought from q^m to q^top; the powers
        q^0..q^top are tabled once per point."""
        points = [_frac(t0) for t0 in points]
        if not self._num:
            return [self] * len(points)
        if not any(points):
            free = {e: v for e, v in self._num.items() if not e[0]}
            return [MultiPoly._reduced(self.d, free, self._den)] * len(points)
        fibres = self._fibres()
        top = max(len(a) for a in fibres.values()) - 1
        out = []
        for t0 in points:
            p, q = t0.numerator, t0.denominator
            powers = [1]  # powers[j] = q^j
            for _ in range(top):
                powers.append(powers[-1] * q)
            num: Numerators = {}
            for rest, a in fibres.items():
                m = len(a) - 1
                v = a[m]
                for k in range(m - 1, -1, -1):
                    v = v * p + a[k] * powers[m - k]
                if v:
                    num[(0,) + rest] = v * powers[top - m]
            out.append(MultiPoly._reduced(self.d, num, self._den * powers[top]))
        return out

    def _fibres(self) -> dict[tuple[int, ...], list[int]]:
        """The grouping _t_fibres(numerators), built on the first call and
        kept; callers must not change its lists."""
        try:
            return self._fib
        except AttributeError:
            fibres = _t_fibres(self._num)
            object.__setattr__(self, "_fib", fibres)
            return fibres

    def _y_chain(self, index: _MonomialIndex | None = None) -> list[tuple[int, Numerators]]:
        """_chain(numerators), the chain of the y-Laplacian, walked on the
        first call (on the caller's index, or on a new one) and kept; every
        chain walk reads it, and callers must not change its steps."""
        try:
            return self._ych
        except AttributeError:
            chain = _chain(self._num, _MonomialIndex() if index is None else index)
            object.__setattr__(self, "_ych", chain)
            return chain

    # -- evaluation ----------------------------------------------------------

    def eval_exact(self, point: Sequence[Scalar]) -> Fraction:
        """Exact evaluation at a rational point of length d+1: the sum of
        c prod_i x_i^e_i over the terms c t^e_0 y1^e_1 ... yd^e_d."""
        if len(point) != self.d + 1:
            raise ValueError(f"point has length {len(point)}, expected {self.d + 1}")
        xs = [_frac(x) for x in point]
        return sum((c * math.prod(map(pow, xs, e)) for e, c in self.terms.items()), Fraction(0))

    def eval_float(self, point: Sequence[float]) -> float:
        """Float evaluation; convenient for sampling, not authoritative."""
        if len(point) != self.d + 1:
            raise ValueError(f"point has length {len(point)}, expected {self.d + 1}")
        total = 0.0
        for exps, v in self._num.items():
            v = v / self._den  # int true division rounds correctly
            for x, e in zip(point, exps):
                if e:
                    v *= float(x) ** e
            total += v
        return total

    # -- canonical form and serialization -------------------------------------

    def _ratios(self) -> Iterator[tuple[tuple[int, ...], int, str]]:
        """(exps, p, tail) for each term in canonical graded-lexicographic
        order, leading term first, where the coefficient str(Fraction) would
        print is "%d%s" % (p, tail): tail is "/q", or "" for q = 1.  The
        order comes from one decorated sort, and each distinct gcd of a
        numerator with the denominator gets its tail once."""
        num, den = self._num, self._den
        tails: dict[int, str] = {}
        for _, e in sorted(zip(map(sum, num), num), reverse=True):
            v = num[e]
            g = math.gcd(v, den)
            tail = tails.get(g)
            if tail is None:
                tails[g] = tail = "" if g == den else "/%d" % (den // g)
            yield e, v // g, tail

    def to_json_text(self) -> str:
        """The text json.dumps(self.to_json_dict()) gives, written in one
        pass without a dict per term: every term fills one % template, with
        a field per exponent.  A coefficient of any size is written:
        Python's int -> str digit limit is lifted meanwhile."""
        if not self._num:  # before the template, which has d+1 fields
            return '{"d": %d, "terms": []}' % self.d
        term = '{"coeff": "%%d%%s", "exps": [%s]}' % ", ".join(["%d"] * (self.d + 1))
        with _int_digits(0):
            terms = ", ".join([term % (p, tail, *e) for e, p, tail in self._ratios()])
        return '{"d": %d, "terms": [%s]}' % (self.d, terms)

    def to_json_dict(self) -> dict:
        return json.loads(self.to_json_text())

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "MultiPoly":
        """Read the polynomial schema; any malformed content raises ValueError.

        The terms are checked in a few passes over all of them at once (see
        _json_terms).  Only when one of those checks fails are they read
        again one by one, to raise the error of the first malformed term.
        """
        d = _json_dim(obj, "a polynomial", {"d", "terms"})
        _check_dim(d)
        items = obj["terms"]
        if not isinstance(items, list):
            raise ValueError(f"'terms' must be a list, got {items!r}")
        terms = _json_terms(d, items)
        if terms is None:
            _raise_first_bad_term(d, items)
        return cls._reduced(d, *terms)

    # -- display ---------------------------------------------------------------

    def _var_name(self, index: int) -> str:
        return "t" if index == 0 else f"y{index}"

    def __str__(self) -> str:
        """The terms in canonical order, each coefficient in full: Python's
        int -> str digit limit is lifted meanwhile."""
        if not self._num:
            return "0"
        parts: list[str] = []
        with _int_digits(0):
            for exps, p, tail in self._ratios():
                factors = [
                    self._var_name(i) if e == 1 else f"{self._var_name(i)}^{e}"
                    for i, e in enumerate(exps)
                    if e
                ]
                size = "%d%s" % (abs(p), tail)
                if not factors:
                    body = size
                elif size == "1":
                    body = "*".join(factors)
                else:
                    body = "*".join([size] + factors)
                sign = "-" if p < 0 else "+"
                parts.append(f"{sign} {body}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"MultiPoly(d={self.d}, {self})"


def _json_keys(obj: object, what: str, keys: set[str]) -> None:
    """Raise ValueError unless obj is a JSON object with no key outside `keys`."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"{what} must be an object, got {obj!r}")
    unknown = obj.keys() - keys
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in {what}, which takes {sorted(keys)}")


def _json_dim(obj: object, what: str, keys: set[str]) -> int:
    """The integer "d" of a JSON object read as `what`, which may hold only
    the keys in `keys`; raises ValueError."""
    _json_keys(obj, what, keys)
    d = obj["d"]
    if type(d) is not int:  # also rejects bool
        raise ValueError(f"'d' must be an integer, got {d!r}")
    return d


# the schema form of a rational: ASCII digits, a minus sign only in front of p
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _json_ratio(value: object) -> tuple[int, int]:
    """The integers (p, q) of a rational in its schema form "p/q" or "p":
    ASCII decimal digits, a minus sign only in front of p, and q nonzero.
    Anything else raises ValueError."""
    if not isinstance(value, str):
        raise ValueError(f"a rational must be a string \"p/q\", got {value!r}")
    if not _RATIONAL.fullmatch(value):
        raise ValueError(f"invalid rational {value!r}: expected \"p/q\" or \"p\" in decimal digits")
    num, _, den = value.partition("/")
    q = int(den) if den else 1
    if not q:
        raise ValueError(f"invalid rational {value!r}: zero denominator")
    return int(num), q


_COEFF, _EXPS = itemgetter("coeff"), itemgetter("exps")


def _json_terms(d: int, items: list) -> tuple[Numerators, int] | None:
    """The numerators and denominator of the JSON terms `items` of a
    polynomial in dimension d, or None if a term is malformed (as
    _raise_first_bad_term would find) or holds an integer over Python's
    int <-> str digit limit.

    Each check is one pass over all terms in C: their types, key counts and
    keys, the exponent lists and, flattened, their entries, and the
    coefficients against the schema's grammar.  Each distinct denominator
    string is parsed once and given its multiplier to the lcm once.
    """
    if not ({dict}.issuperset(map(type, items)) or all(map(isinstance, items, repeat(Mapping)))):
        return None
    if not {2}.issuperset(map(len, items)):
        return None
    try:
        exps, coeffs = list(map(_EXPS, items)), list(map(_COEFF, items))
        if not all(map(_RATIONAL.fullmatch, coeffs)):
            return None
    except (KeyError, TypeError):  # a key is missing; a coefficient is no string
        return None
    if not ({list}.issuperset(map(type, exps)) and {d + 1}.issuperset(map(len, exps))):
        return None
    flat = list(chain.from_iterable(exps))
    if not ({int}.issuperset(map(type, flat)) and min(flat, default=0) >= 0):  # no bool
        return None
    parts = list(map(str.partition, coeffs, repeat("/")))
    dens = list(map(itemgetter(2), parts))  # "" for an integer
    try:
        qs = {s: int(s) if s else 1 for s in set(dens)}
        nums = list(map(int, map(itemgetter(0), parts)))
    except ValueError:  # over the digit limit
        return None
    if not all(qs.values()):
        return None
    den = math.lcm(*qs.values())
    scale = {s: den // q for s, q in qs.items()}
    keys = list(map(tuple, exps))
    values = list(map(mul, nums, map(scale.__getitem__, dens)))
    num = dict(zip(keys, values))
    if len(num) < len(keys):  # a repeated exponent vector: sum its terms
        num = dict.fromkeys(keys, 0)
        for e, v in zip(keys, values):
            num[e] += v
    if not all(num.values()):
        num = {e: v for e, v in num.items() if v}
    return num, den


def _raise_first_bad_term(d: int, items: list) -> None:
    """Read the JSON terms one by one, each key in turn, and raise the
    error of the first malformed term (KeyError for a missing key)."""
    for item in items:
        if not isinstance(item, Mapping):
            raise ValueError(f"a term must be an object, got {item!r}")
        exps = item["exps"]
        if type(exps) is not list or not {int}.issuperset(map(type, exps)):  # no bool
            raise ValueError(f"exponents must be a list of integers: {exps!r}")
        _check_exps(d, tuple(exps))
        _json_ratio(item["coeff"])
        if len(item) != 2:  # both keys were read, so another is present
            raise ValueError(f"a term takes only 'coeff' and 'exps', got keys {sorted(item)}")


def _json_rational(value: object) -> Fraction:
    """A rational from its schema form "p/q" or "p"; else ValueError."""
    return Fraction(*_json_ratio(value))


def _require_harmonic(p: MultiPoly, what: str) -> None:
    """Raise ValueError("<what>; laplacian = ...") unless p is harmonic."""
    lap = p.laplacian()
    if not lap.is_zero:
        raise ValueError(f"{what}; laplacian = {lap}")


def variables(d: int) -> tuple[MultiPoly, ...]:
    """The tuple (t, y1, ..., yd) of coordinate polynomials in dimension d."""
    _check_dim(d)
    return tuple(MultiPoly(d, {(0,) * i + (1,) + (0,) * (d - i): 1}) for i in range(d + 1))
