"""Exact scalar arithmetic over prime finite fields F_p and the rationals Q.

Scalars are immutable.  Elements of F_p are canonical residues in [0, p);
rational scalars are a sign and a normalized ``Fraction``.  Rationals are never
factored: a reduced p/q has a rational n-th root exactly when |p| and q are
perfect n-th powers, which integer roots decide.  Zero is representable but is
rejected by every multiplicative-group operation (dlog, roots, inversion).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    DivisionByZero,
    EvoautError,
    FieldMismatch,
    InvariantViolation,
    NotPrimeField,
    ZeroArgument,
)

PRIME_CAP = 2**31


def is_prime(n: int) -> bool:
    """Primality by trial division; adequate for the supported-size primes."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"factorize expects a positive integer, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2 if d % 6 == 5 else 4
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def exact_root(m: int, n: int) -> int | None:
    """The integer r >= 0 with r**n == m for m >= 0, or None if there is none."""
    if n == 1 or m < 2:
        return m
    if n >= m.bit_length():   # r >= 2 would give r**n >= 2**n > m
        return None
    if n == 2:
        r = math.isqrt(m)
    else:   # Newton's method from above converges to floor(m ** (1/n))
        r = 1 << -(-m.bit_length() // n)
        while True:
            s = ((n - 1) * r + m // r ** (n - 1)) // n
            if s >= r:
                break
            r = s
    return r if r**n == m else None


class Field:
    """Common interface of the two supported coefficient fields."""

    characteristic: int

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, string, or same-field Scalar."""
        if isinstance(value, Scalar):
            if value.field is not self and value.field != self:
                raise FieldMismatch(f"scalar of {value.field} given to {self}")
            return value
        if isinstance(value, str):
            return self.parse(value)
        return self._from_number(value)

    def parse(self, text: str) -> "Scalar":
        """Parse a decimal integer, ``a/b``, or ``-a/b`` literal.  A plain
        ASCII integer (an optional ``-``, then only the digits 0-9) is read
        by ``int``, and any other literal by ``Fraction``, so what is
        accepted is what the running interpreter's ``Fraction`` accepts."""
        cleaned = text.strip().replace("−", "-")
        digits = cleaned[1:] if cleaned[:1] == "-" else cleaned
        try:
            value = int(cleaned) if digits.isascii() and digits.isdigit() else Fraction(cleaned)
        except (ValueError, ZeroDivisionError) as exc:
            raise EvoautError(f"cannot parse scalar literal {text!r}") from exc
        return self._from_number(value)

    def _from_number(self, value) -> "Scalar":
        raise NotImplementedError

    @property
    def zero(self) -> "Scalar":
        return self._from_number(0)

    @property
    def one(self) -> "Scalar":
        return self._from_number(1)


class PrimeField(Field):
    """F_p for a prime p, with a fixed generator of the cyclic group F_p^x.

    The generator is the smallest g whose order is p - 1 (checked against
    every maximal proper divisor), so construction is deterministic.  Discrete
    logs come from baby-step giant-step, whose baby steps are built on first
    use.  Instances are immutable apart from that idempotent cache, so sharing
    across threads is safe.
    """

    def __init__(self, p: int):
        # the cap comes first: trial division of a huge p would never end
        if isinstance(p, int) and p > PRIME_CAP:
            raise NotPrimeField(f"{p} exceeds the 2^31 cap on field primes")
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrimeField(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self._unit_factors = factorize(p - 1) if p > 2 else {}
        self.generator = self._find_generator()
        self._baby: tuple[dict[int, int], int] | None = None

    def _find_generator(self) -> int:
        if self.p == 2:
            return 1
        order = self.p - 1
        for g in range(2, self.p):
            if all(pow(g, order // q, self.p) != 1 for q in self._unit_factors):
                return g
        raise InvariantViolation(f"no generator found for F_{self.p}")

    def _from_number(self, value) -> "FpScalar":
        if isinstance(value, int):
            return FpScalar(self, value % self.p)
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise DivisionByZero(f"denominator of {value} vanishes mod {self.p}")
            num = value.numerator % self.p
            return FpScalar(self, num * pow(den, -1, self.p) % self.p)
        raise EvoautError(f"cannot coerce {value!r} into F_{self.p}")

    def _log(self, x: int) -> int:
        """log_g(x) for a residue x in F_p^x, by baby-step giant-step.  With
        m = ceil(sqrt(p - 1)) baby steps g**j (j < m), the log is i*m + j for
        the first giant step x * g**(-m*i) that is a baby step g**j."""
        if self._baby is None:
            baby, acc = {}, 1
            for j in range(math.isqrt(self.p - 2) + 1):
                baby[acc] = j
                acc = acc * self.generator % self.p
            self._baby = baby, pow(self.generator, -len(baby), self.p)
        baby, giant = self._baby
        m = len(baby)
        y = x
        for i in range(m):
            j = baby.get(y)
            if j is not None:
                return i * m + j
            y = y * giant % self.p
        raise InvariantViolation(f"{x} is not a power of the generator of F_{self.p}")

    def nonzero_elements(self):
        """All of F_p^x in residue order."""
        return [FpScalar(self, r) for r in range(1, self.p)]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F{self.p}"


class RationalField(Field):
    """The field Q; a stateless singleton-by-equality."""

    characteristic = 0

    def _from_number(self, value) -> "QScalar":
        if isinstance(value, (int, Fraction)):
            return QScalar(self, Fraction(value))
        raise EvoautError(f"cannot coerce {value!r} into Q")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


QQ = RationalField()


class Scalar:
    """Base class; concrete scalars support +, -, *, /, ** and inv()."""

    field: Field

    def is_zero(self) -> bool:
        raise NotImplementedError

    def inv(self) -> "Scalar":
        raise NotImplementedError

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return NotImplemented

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __radd__(self, other):
        return self.__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self


class FpScalar(Scalar):
    """Canonical residue in F_p."""

    __slots__ = ("field", "residue")

    def __init__(self, field: PrimeField, residue: int):
        self.field = field
        self.residue = residue % field.p

    def is_zero(self) -> bool:
        return self.residue == 0

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpScalar(self.field, self.residue + other.residue)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpScalar(self.field, self.residue - other.residue)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpScalar(self.field, self.residue * other.residue)

    def __neg__(self):
        return FpScalar(self.field, -self.residue)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if self.residue == 0:
            if exponent < 0:
                raise DivisionByZero("0 has no negative powers")
            return FpScalar(self.field, 0 if exponent else 1)
        return FpScalar(self.field, pow(self.residue, exponent, self.field.p))

    def inv(self) -> "FpScalar":
        if self.residue == 0:
            raise DivisionByZero(f"0 is not invertible in {self.field}")
        return FpScalar(self.field, pow(self.residue, -1, self.field.p))

    def __eq__(self, other):
        if isinstance(other, FpScalar):
            return self.field == other.field and self.residue == other.residue
        if isinstance(other, int):
            return self.residue == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.residue))

    def __str__(self):
        return str(self.residue)

    def __repr__(self):
        return f"F{self.field.p}({self.residue})"


class QScalar(Scalar):
    """Rational scalar: a sign and a normalized Fraction."""

    __slots__ = ("field", "sign", "fraction")

    def __init__(self, field: RationalField, fraction: Fraction):
        self.field = field
        self.fraction = fraction
        self.sign = (fraction > 0) - (fraction < 0)

    def is_zero(self) -> bool:
        return self.sign == 0

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QScalar(self.field, self.fraction + other.fraction)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QScalar(self.field, self.fraction - other.fraction)

    def __neg__(self):
        return QScalar(self.field, -self.fraction)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QScalar(self.field, self.fraction * other.fraction)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if self.sign == 0:
            if exponent < 0:
                raise DivisionByZero("0 has no negative powers")
            return QScalar(self.field, Fraction(1 if exponent == 0 else 0))
        return QScalar(self.field, self.fraction**exponent)

    def inv(self) -> "QScalar":
        if self.sign == 0:
            raise DivisionByZero("0 is not invertible in Q")
        return QScalar(self.field, 1 / self.fraction)

    def __eq__(self, other):
        if isinstance(other, QScalar):
            return self.fraction == other.fraction
        if isinstance(other, (int, Fraction)):
            return self.fraction == other
        return NotImplemented

    def __hash__(self):
        return hash(("Q", self.fraction))

    def __str__(self):
        return str(self.fraction)

    def __repr__(self):
        return f"Q({self.fraction})"


def dlog(field: Field, x: Scalar) -> int:
    """Discrete log of x to the field generator, in [0, p-1)."""
    if not isinstance(field, PrimeField):
        raise NotPrimeField("dlog is only defined over prime fields")
    x = field.scalar(x)
    if x.is_zero():
        raise ZeroArgument("dlog of 0")
    return field._log(x.residue)


def nth_roots(field: Field, n: int, a) -> list[Scalar]:
    """All x in K^x with x**n == a, sorted canonically (may be empty).

    Over F_p the equation linearizes to n*y = dlog(a) (mod p-1).  Over Q a
    root exists iff the reduced numerator and denominator of |a| are perfect
    n-th powers and the sign admits it; even n on a positive rational yields
    both square-root signs.
    """
    if n < 1:
        raise ValueError(f"root index must be >= 1, got {n}")
    a = field.scalar(a)
    if a.is_zero():
        raise ZeroArgument("nth_roots of 0")
    if isinstance(field, PrimeField):
        roots = [pow(field.generator, y, field.p) for y in root_logs(field, n, dlog(field, a))]
        return [FpScalar(field, r) for r in sorted(roots)]
    assert isinstance(a, QScalar)
    num = exact_root(abs(a.fraction.numerator), n)
    den = exact_root(a.fraction.denominator, n)
    if num is None or den is None:
        return []
    magnitude = QScalar(field, Fraction(num, den))
    if n % 2 == 1:
        return [magnitude if a.sign > 0 else -magnitude]
    if a.sign < 0:
        return []
    return [-magnitude, magnitude]


def root_logs(field: PrimeField, n: int, t: int) -> range:
    """The discrete logs of the n-th roots of g**t in F_p, in increasing
    order: the y in [0, p - 1) with n*y == t (mod p - 1).  They exist iff
    gcd(n, p - 1) divides t, and then form one residue class mod
    (p - 1) / gcd(n, p - 1)."""
    order = field.p - 1
    d = math.gcd(n, order)
    if t % d != 0:
        return range(0)
    step = order // d
    y0 = t // d * pow(n // d, -1, step) % step if step > 1 else 0
    return range(y0, order, step)


def mu_order(field: Field, d: int) -> int:
    """|mu_d(K)|: gcd(d, p-1) over F_p; 2 for even d over Q, else 1."""
    if d < 1:
        raise ValueError(f"root index must be >= 1, got {d}")
    if isinstance(field, PrimeField):
        return math.gcd(d, field.p - 1)
    return 2 if d % 2 == 0 else 1
