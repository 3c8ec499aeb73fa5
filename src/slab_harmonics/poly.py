"""Exact sparse polynomial arithmetic in the variables (t, y1, ..., yd).

Coefficients are `fractions.Fraction`, so every operation is exact and
polynomial identities can be checked by literal equality.  Variable index 0
is always t, the distinguished reflection/shift variable; indices 1..d are
the y-variables.

Terms live in a dict mapping exponent tuples (length d+1) to nonzero
coefficients.  The zero polynomial has an empty term map and, by convention,
total degree -1.  The canonical serialized term order is graded
lexicographic (leading term first), with t ordered before y1 < ... < yd.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence, Union

Scalar = Union[Fraction, int, str]


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _laplacian_terms(
    terms: Mapping[tuple[int, ...], Fraction], first: int
) -> dict[tuple[int, ...], Fraction]:
    """Sum of second partials over variables first..d of a term map, in one
    pass over the integer numerators on the common denominator D of the
    input; one Fraction per nonzero output term, none for a zero result."""
    if not terms:
        return {}
    den = math.lcm(*(c.denominator for c in terms.values()))
    out: dict[tuple[int, ...], int] = {}
    for exps, c in terms.items():
        a = c.numerator * (den // c.denominator)
        for var in range(first, len(exps)):
            n = exps[var]
            if n > 1:
                e = exps[:var] + (n - 2,) + exps[var + 1 :]
                out[e] = out.get(e, 0) + a * (n * (n - 1))
    return {e: Fraction(v, den) for e, v in out.items() if v}


def _t_fibres(
    terms: Mapping[tuple[int, ...], Fraction]
) -> dict[tuple[int, ...], tuple[list[int], int]]:
    """Group a term map by y-monomial: for each y-exponent tuple, the integer
    numerators a_0..a_m of its t-coefficients (a_m != 0) over one common
    denominator D, so that the coefficient of t^k is a_k / D."""
    fibres: dict[tuple[int, ...], list[tuple[int, Fraction]]] = {}
    for exps, c in terms.items():
        fibres.setdefault(exps[1:], []).append((exps[0], c))
    out: dict[tuple[int, ...], tuple[list[int], int]] = {}
    for rest, items in fibres.items():
        den = math.lcm(*(c.denominator for _, c in items))
        a = [0] * (max(k for k, _ in items) + 1)
        for k, c in items:
            a[k] = c.numerator * (den // c.denominator)
        out[rest] = (a, den)
    return out


class MultiPoly:
    """Immutable sparse multivariate polynomial over the rationals."""

    __slots__ = ("d", "_terms")

    def __init__(self, d: int, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        if d < 1:
            raise ValueError(f"dimension d must be >= 1, got {d}")
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != d + 1:
                    raise ValueError(
                        f"exponent vector {exps} has length {len(exps)}, expected {d + 1}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                c = _frac(coeff)
                if c:
                    clean[exps] = c
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _trusted(cls, d: int, terms: dict[tuple[int, ...], Fraction]) -> "MultiPoly":
        """Wrap a term map built by internal code, without the checks of
        __init__: the caller guarantees tuple exponents of length d+1,
        Fraction values, no zero coefficient, and hands over the dict."""
        p = object.__new__(cls)
        object.__setattr__(p, "d", d)
        object.__setattr__(p, "_terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "MultiPoly":
        return cls(d)

    @classmethod
    def constant(cls, d: int, value: Scalar) -> "MultiPoly":
        return cls(d, {(0,) * (d + 1): _frac(value)})

    @classmethod
    def variable(cls, d: int, index: int) -> "MultiPoly":
        """The monomial for variable `index` (0 = t, 1..d = y1..yd)."""
        if not 0 <= index <= d:
            raise IndexError(f"variable index {index} out of range 0..{d}")
        exps = [0] * (d + 1)
        exps[index] = 1
        return cls(d, {tuple(exps): Fraction(1)})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def degree_in(self, var: int) -> int:
        """Degree in a single variable; -1 for the zero polynomial."""
        self._check_var(var)
        if not self._terms:
            return -1
        return max(e[var] for e in self._terms)

    @property
    def is_t_free(self) -> bool:
        return all(e[0] == 0 for e in self._terms)

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
        out = dict(self._terms)
        for exps, c in other._terms.items():
            if negate:
                c = -c
            v = out.get(exps)
            if v is None:
                out[exps] = c
            else:
                v += c
                if v:
                    out[exps] = v
                else:
                    del out[exps]
        return MultiPoly._trusted(self.d, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.d, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check_space(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                v = out.get(exps)
                out[exps] = ca * cb if v is None else v + ca * cb
        return MultiPoly._trusted(self.d, {e: c for e, c in out.items() if c})

    def __rmul__(self, other: Scalar) -> "MultiPoly":
        return self.scale(other)

    def scale(self, c: Scalar) -> "MultiPoly":
        c = _frac(c)
        if not c:
            return MultiPoly._trusted(self.d, {})
        return MultiPoly._trusted(self.d, {e: c * v for e, v in self._terms.items()})

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
        return self.d == other.d and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.d, frozenset(self._terms.items())))

    # -- calculus ----------------------------------------------------------

    def derivative(self, var: int) -> "MultiPoly":
        """Exact partial derivative with respect to variable `var`."""
        self._check_var(var)
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self._terms.items():
            n = exps[var]
            if n == 0:
                continue
            e = list(exps)
            e[var] = n - 1
            out[tuple(e)] = c * n
        return MultiPoly._trusted(self.d, out)

    def laplacian(self) -> "MultiPoly":
        """Sum of second partials over all d+1 variables."""
        return MultiPoly._trusted(self.d, _laplacian_terms(self._terms, 0))

    def laplacian_y(self) -> "MultiPoly":
        """Sum of second partials over the y-variables only."""
        return MultiPoly._trusted(self.d, _laplacian_terms(self._terms, 1))

    def integrate_t(self) -> "MultiPoly":
        """Antiderivative in t vanishing at t = 0."""
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self._terms.items():
            n = exps[0]
            out[(n + 1,) + exps[1:]] = c / (n + 1)
        return MultiPoly._trusted(self.d, out)

    # -- substitutions in t --------------------------------------------------

    def shift_t(self, s: Scalar) -> "MultiPoly":
        """Substitute t <- t + s, expanded exactly by the binomial theorem."""
        s = _frac(s)
        if s == 0:
            return self
        p, q = s.numerator, s.denominator
        out: dict[tuple[int, ...], Fraction] = {}
        for rest, (a, den) in _t_fibres(self._terms).items():
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
            for j in range(m, -1, -1):
                if a[j]:
                    out[(j,) + rest] = Fraction(a[j], den)
                den *= q
        return MultiPoly._trusted(self.d, out)

    def negate_t(self) -> "MultiPoly":
        """Substitute t <- -t (flips the sign of odd-in-t terms)."""
        return MultiPoly._trusted(
            self.d, {e: -c if e[0] % 2 else c for e, c in self._terms.items()}
        )

    def parity_split_t(self) -> tuple["MultiPoly", "MultiPoly"]:
        """Split into (even, odd) parts with respect to t at t0 = 0."""
        even = {e: c for e, c in self._terms.items() if e[0] % 2 == 0}
        odd = {e: c for e, c in self._terms.items() if e[0] % 2 == 1}
        return MultiPoly._trusted(self.d, even), MultiPoly._trusted(self.d, odd)

    def trace(self, t0: Scalar) -> "MultiPoly":
        """Restrict t = t0; the result has zero t-exponent everywhere."""
        t0 = _frac(t0)
        if t0 == 0:
            return MultiPoly._trusted(self.d, {e: c for e, c in self._terms.items() if not e[0]})
        p, q = t0.numerator, t0.denominator
        out: dict[tuple[int, ...], Fraction] = {}
        for rest, (a, den) in _t_fibres(self._terms).items():
            # homogeneous Horner: v = sum_k a_k p^k q^(m-k)
            v = a[-1]
            qk = 1
            for k in range(len(a) - 2, -1, -1):
                qk *= q
                v = v * p + a[k] * qk
            if v:
                out[(0,) + rest] = Fraction(v, den * qk)
        return MultiPoly._trusted(self.d, out)

    # -- evaluation ----------------------------------------------------------

    def eval_exact(self, point: Sequence[Scalar]) -> Fraction:
        """Exact evaluation at a rational point of length d+1."""
        if len(point) != self.d + 1:
            raise ValueError(f"point has length {len(point)}, expected {self.d + 1}")
        if not self._terms:
            return Fraction(0)
        # in integers: with x_i = p_i/q_i, D_i the degree in x_i and L the
        # common denominator of the coefficients, the value is
        # sum_e (L c_e) prod_i p_i^e_i q_i^(D_i - e_i) over L prod_i q_i^D_i
        den = math.lcm(*(c.denominator for c in self._terms.values()))
        tables = []
        scale = 1
        for var, x in enumerate(point):
            x = _frac(x)
            top = max(e[var] for e in self._terms)
            tables.append([x.numerator**k * x.denominator ** (top - k) for k in range(top + 1)])
            scale *= x.denominator**top
        total = 0
        for exps, c in self._terms.items():
            v = c.numerator * (den // c.denominator)
            for table, e in zip(tables, exps):
                v *= table[e]
            total += v
        return Fraction(total, den * scale)

    def eval_float(self, point: Sequence[float]) -> float:
        """Float evaluation; convenient for sampling, not authoritative."""
        if len(point) != self.d + 1:
            raise ValueError(f"point has length {len(point)}, expected {self.d + 1}")
        total = 0.0
        for exps, c in self._terms.items():
            v = float(c)
            for x, e in zip(point, exps):
                if e:
                    v *= float(x) ** e
            total += v
        return total

    # -- canonical form and serialization -------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in canonical graded-lexicographic order, leading term first."""
        return sorted(
            self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True
        )

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "terms": [
                {"coeff": str(c), "exps": list(e)} for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "MultiPoly":
        """Read the polynomial schema; any malformed content raises ValueError."""
        d = _json_dim(obj, "a polynomial")
        items = obj["terms"]
        if not isinstance(items, list):
            raise ValueError(f"'terms' must be a list, got {items!r}")
        terms: dict[tuple[int, ...], Fraction] = {}
        for item in items:
            if not isinstance(item, Mapping):
                raise ValueError(f"a term must be an object, got {item!r}")
            exps = item["exps"]
            if not isinstance(exps, list) or not all(type(e) is int for e in exps):
                raise ValueError(f"exponents must be a list of integers: {exps!r}")
            coeff = _json_rational(item["coeff"])
            exps = tuple(exps)
            old = terms.get(exps)
            terms[exps] = coeff if old is None else old + coeff
        return cls(d, terms)

    # -- display ---------------------------------------------------------------

    def _var_name(self, index: int) -> str:
        return "t" if index == 0 else f"y{index}"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exps, c in self.sorted_terms():
            factors = [
                self._var_name(i) if e == 1 else f"{self._var_name(i)}^{e}"
                for i, e in enumerate(exps)
                if e
            ]
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {body}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"MultiPoly(d={self.d}, {self})"


def _json_dim(obj: object, what: str) -> int:
    """The integer "d" of a JSON object read as `what`; raises ValueError."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"{what} must be an object, got {obj!r}")
    d = obj["d"]
    if type(d) is not int:  # also rejects bool
        raise ValueError(f"'d' must be an integer, got {d!r}")
    return d


def _json_rational(value: object) -> Fraction:
    """A rational from its schema form "p/q" or "p"; else ValueError."""
    if not isinstance(value, str):
        raise ValueError(f"a rational must be a string \"p/q\", got {value!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise ValueError(f"invalid rational {value!r}: {exc}") from exc


def _require_harmonic(p: MultiPoly, what: str) -> None:
    """Raise ValueError("<what>; laplacian = ...") unless p is harmonic."""
    lap = p.laplacian()
    if not lap.is_zero:
        raise ValueError(f"{what}; laplacian = {lap}")


def variables(d: int) -> tuple[MultiPoly, ...]:
    """The tuple (t, y1, ..., yd) of coordinate polynomials in dimension d."""
    return tuple(MultiPoly.variable(d, i) for i in range(d + 1))
