"""Exact coefficient arithmetic.

Everything downstream is computed either symbolically, with coefficients in
the integer polynomial ring Z[a, b], or at an exact rational specialization
(a, b) -> (a0, b0).  No floats anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "BiPoly",
    "ParamSpec",
    "DEFAULT_PARAM_BATTERY",
    "y_seq",
]


class BiPoly:
    """A polynomial in Z[a, b], stored sparsely as {(i, j): c} for c*a^i*b^j.

    Instances are immutable by convention; all operations return new objects.
    Zero coefficients are never stored, so equality of term dicts is equality
    of polynomials.

    >>> p = BiPoly.var_a() * BiPoly.var_b() - BiPoly.var_a() ** 3
    >>> str(p)
    '-a^3 + a*b'
    >>> BiPoly.parse("-a^3 + a*b") == p
    True
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc: dict[tuple[int, int], int] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (i, j), c in items:
            if i < 0 or j < 0:
                raise ValueError("negative exponent")
            if not isinstance(c, int):
                raise TypeError(f"coefficients of Z[a, b] are ints, not {type(c).__name__}")
            c = acc.get((i, j), 0) + c
            if c:
                acc[(i, j)] = c
            else:
                acc.pop((i, j), None)
        object.__setattr__(self, "terms", acc)

    @classmethod
    def _wrap(cls, terms: dict) -> "BiPoly":
        """Adopt a term dict that is already clean (no zero coefficients)."""
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def one(cls) -> "BiPoly":
        return cls({(0, 0): 1})

    @classmethod
    def const(cls, c: int) -> "BiPoly":
        return cls({(0, 0): c})

    @classmethod
    def var_a(cls) -> "BiPoly":
        return cls({(1, 0): 1})

    @classmethod
    def var_b(cls) -> "BiPoly":
        return cls({(0, 1): 1})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for k, c in small.items():
            c += out.get(k, 0)
            if c:
                out[k] = c
            else:
                del out[k]
        return BiPoly._wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly._wrap({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            c = out.get(k, 0) - c
            if c:
                out[k] = c
            else:
                del out[k]
        return BiPoly._wrap(out)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                c = out.get(key, 0) + c1 * c2
                if c:
                    out[key] = c
                else:
                    del out[key]
        return BiPoly._wrap(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = BiPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- evaluation and display --------------------------------------------

    def specialize(self, params: "ParamSpec") -> Fraction:
        """Evaluate at a = a0, b = b0."""
        total = Fraction(0)
        for (i, j), c in self.terms.items():
            total += c * params.a0**i * params.b0**j
        return total

    def _ordered(self):
        # graded order, highest total degree first, then higher a-degree
        return sorted(self.terms.items(), key=lambda t: (-(t[0][0] + t[0][1]), -t[0][0], -t[0][1]))

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for (i, j), c in self._ordered():
            mono = "*".join(
                ([f"a^{i}" if i > 1 else "a"] if i else []) + ([f"b^{j}" if j > 1 else "b"] if j else [])
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not chunks:
                chunks.append(("-" if c < 0 else "") + body)
            else:
                chunks.append(("- " if c < 0 else "+ ") + body)
        return " ".join(chunks)

    def __repr__(self):
        return f"BiPoly({str(self)!r})"

    _TOKEN = re.compile(r"\s*(?:(\d+)|([ab])(?:\^(\d+))?|(\*)|([+-]))")

    @classmethod
    def parse(cls, text: str) -> "BiPoly":
        """Inverse of str(): accepts sums of integer monomials in a, b."""
        pos = 0
        terms: list[tuple[tuple[int, int], int]] = []
        sign, coeff, expa, expb = 1, None, 0, 0
        have_factor = False
        expect_factor = False  # set right after '*'

        def flush():
            nonlocal sign, coeff, expa, expb, have_factor
            if expect_factor:
                raise ValueError("dangling '*'")
            if have_factor:
                terms.append(((expa, expb), sign * (1 if coeff is None else coeff)))
            sign, coeff, expa, expb, have_factor = 1, None, 0, 0, False

        while pos < len(text):
            m = cls._TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ValueError(f"cannot parse polynomial at: {text[pos:]!r}")
                break
            pos = m.end()
            num, var, power, star, pm = m.groups()
            if pm:
                flush()
                if pm == "-":
                    sign = -sign
            elif star:
                if not have_factor or expect_factor:
                    raise ValueError("misplaced '*'")
                expect_factor = True
            else:
                if have_factor and not expect_factor:
                    raise ValueError("missing '*' between factors")
                expect_factor = False
                if num is not None:
                    coeff = (1 if coeff is None else coeff) * int(num)
                else:
                    k = int(power) if power else 1
                    if var == "a":
                        expa += k
                    else:
                        expb += k
                have_factor = True
        flush()
        return cls(terms)


def _coerce(x):
    if isinstance(x, BiPoly):
        return x
    if isinstance(x, int):
        return BiPoly.const(x)
    return NotImplemented


A = BiPoly.var_a()
B = BiPoly.var_b()


def parse_rational(text: str) -> Fraction:
    """An integer or p/q fraction; malformed text or q = 0 raises ValueError."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


@dataclass(frozen=True)
class ParamSpec:
    """An exact rational specialization point (a0, b0).

    (1, 0) is the 0-Hecke point and (0, 0) the nil-Coxeter point.
    """

    a0: Fraction
    b0: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a0", Fraction(self.a0))
        object.__setattr__(self, "b0", Fraction(self.b0))

    @classmethod
    def parse(cls, text: str) -> "ParamSpec":
        """Parse "a0,b0" with each side an integer or p/q fraction."""
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'a,b', got {text!r}")
        return cls(parse_rational(parts[0]), parse_rational(parts[1]))

    @property
    def label(self) -> str:
        return f"({self.a0},{self.b0})"

    def __str__(self):
        return f"{self.a0},{self.b0}"


DEFAULT_PARAM_BATTERY: tuple[ParamSpec, ...] = (
    ParamSpec(Fraction(1), Fraction(0)),
    ParamSpec(Fraction(0), Fraction(0)),
    ParamSpec(Fraction(2), Fraction(3)),
    ParamSpec(Fraction(-1), Fraction(1)),
)


def y_seq(n: int) -> list[BiPoly]:
    """First n+1 entries of the substitution sequence y.

    y_0 = 0, y_1 = -a, and y_k = -a*y_{k-1} + b*y_{k-2}.

    >>> [str(p) for p in y_seq(3)]
    ['0', '-a', 'a^2', '-a^3 - a*b']
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    ys = [BiPoly.zero(), -A]
    while len(ys) <= n:
        ys.append(-A * ys[-1] + B * ys[-2])
    return ys[: n + 1]
