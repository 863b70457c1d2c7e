import random
from fractions import Fraction

import pytest

from evoaut.errors import (
    DivisionByZero,
    EvoautError,
    FieldMismatch,
    NotPrimeField,
    ZeroArgument,
)
from evoaut.scalar import (
    PRIME_CAP,
    PrimeField,
    QQ,
    dlog,
    exact_root,
    factorize,
    is_prime,
    mu_order,
    nth_roots,
)

from helpers import F2, F5, F7, assert_raises_exactly

PRIMES_TO_100 = [p for p in range(2, 101) if is_prime(p)]


def test_field_ops_f7():
    a, b = F7.scalar(3), F7.scalar(5)
    assert a * b == F7.one
    assert F7.scalar(3).inv() == F7.scalar(5)
    assert (a + b).residue == 1
    assert (a - b).residue == 5
    assert (-a).residue == 4
    assert (a ** -2) == (a * a).inv()


def test_field_ops_rationals():
    half = QQ.scalar(Fraction(-1, 2))
    assert half * half == QQ.scalar(Fraction(1, 4))
    assert (half ** 2).fraction == Fraction(1, 4)
    assert half.inv().fraction == Fraction(-2)
    assert (QQ.scalar(2) / QQ.scalar(3)).fraction == Fraction(2, 3)
    assert (half ** -3).fraction == Fraction(-8)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        F7.zero.inv()
    with pytest.raises(DivisionByZero):
        QQ.one / QQ.zero
    with pytest.raises(DivisionByZero):
        QQ.zero ** -1


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        F7.scalar(1) + F5.scalar(1)
    with pytest.raises(FieldMismatch):
        F7.scalar(QQ.one)


def test_prime_validation():
    with pytest.raises(NotPrimeField):
        PrimeField(9)
    with pytest.raises(NotPrimeField):
        PrimeField(1)
    with pytest.raises(NotPrimeField):
        PrimeField(PRIME_CAP + 1)


def test_generator_is_primitive():
    for p in PRIMES_TO_100:
        field = PrimeField(p)
        g = field.generator
        seen = set()
        acc = 1
        for _ in range(p - 1):
            seen.add(acc)
            acc = acc * g % p
        assert len(seen) == p - 1


def test_dlog_examples_f7():
    # F_7 has generator 3 (smallest primitive root), so dlog(2) = 2
    assert F7.generator == 3
    assert dlog(F7, F7.scalar(2)) == 2
    assert dlog(F7, F7.scalar(1)) == 0
    assert dlog(F7, F7.scalar(3)) == 1


def test_dlog_exhaustive_small_primes():
    for p in PRIMES_TO_100:
        field = PrimeField(p)
        for x in field.nonzero_elements():
            log = dlog(field, x)
            assert 0 <= log < max(p - 1, 1)
            assert field.scalar(field.generator) ** log == x


@pytest.mark.parametrize("p", [683, 65537, 2**31 - 1])
def test_dlog_round_trip(p):
    field = PrimeField(p)
    g = field.scalar(field.generator)
    rng = random.Random(p)
    residues = {1, p - 1, field.generator, pow(field.generator, -1, p)}
    residues |= set(range(1, p)) if p < 1000 else {rng.randrange(1, p) for _ in range(40)}
    for x in sorted(residues):
        log = dlog(field, field.scalar(x))
        assert 0 <= log < p - 1
        assert g ** log == x


def test_dlog_errors():
    with pytest.raises(ZeroArgument):
        dlog(F7, F7.zero)
    with pytest.raises(NotPrimeField):
        dlog(QQ, QQ.one)


def test_nth_roots_examples():
    cubes = nth_roots(F7, 3, F7.one)
    assert [r.residue for r in cubes] == [1, 2, 4]
    square_roots = nth_roots(QQ, 2, QQ.one)
    assert [r.fraction for r in square_roots] == [-1, 1]
    assert nth_roots(QQ, 2, QQ.scalar(2)) == []
    with pytest.raises(ZeroArgument):
        nth_roots(F7, 2, F7.zero)


def test_nth_roots_against_exhaustive_scan():
    rng = random.Random(11)
    for p in (2, 3, 5, 7, 11, 13):
        field = PrimeField(p)
        for _ in range(40):
            n = rng.randint(1, 12)
            a = field.scalar(rng.randrange(1, p))
            expected = [x for x in field.nonzero_elements() if x**n == a]
            assert nth_roots(field, n, a) == expected


def test_nth_roots_rationals_reraise():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 6)
        base = QQ.scalar(Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4, 6]),
                                  rng.choice([1, 2, 3, 5])))
        a = base**n
        roots = nth_roots(QQ, n, a)
        assert roots, f"{base}^{n} must have an n-th root"
        for r in roots:
            assert r**n == a
        # and non-powers usually fail: 2 is never a perfect even power
        assert nth_roots(QQ, 2 * n, QQ.scalar(2)) == []


def test_roots_of_unity_count_matches_mu_order():
    rng = random.Random(17)
    for field in (F5, F7, PrimeField(13), QQ):
        for _ in range(50):
            n = rng.randint(1, 20)
            assert len(nth_roots(field, n, field.one)) == mu_order(field, n)


def test_mu_order_examples():
    assert mu_order(F7, 3) == 3
    assert mu_order(QQ, 3) == 1
    assert mu_order(F5, 3) == 1
    assert mu_order(QQ, 8) == 2
    assert mu_order(F2, 4) == 1


def test_factored_form_tracks_fractions():
    rng = random.Random(19)
    for _ in range(1000):
        x = Fraction(rng.randint(-60, 60), rng.randint(1, 40))
        y = Fraction(rng.randint(-60, 60) or 1, rng.randint(1, 40))
        a, b = QQ.scalar(x), QQ.scalar(y)
        assert (a * b).fraction == x * y
        assert (a + b).fraction == x + y
        if y != 0:
            assert (a / b).fraction == x / y
        # the factored invariant is re-checked inside every constructor call


def test_factorize():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(97) == {97: 1}


def test_parse_and_print():
    assert str(F7.parse("12")) == "5"
    assert str(F7.parse("1/2")) == "4"
    assert str(QQ.parse("-3/6")) == "-1/2"
    assert str(QQ.parse("−2/4")) == "-1/2"  # unicode minus accepted
    assert str(QQ.parse("7")) == "7"
    with pytest.raises(EvoautError):
        QQ.parse("three")
    with pytest.raises(DivisionByZero):
        F5.parse("1/5")


def test_f2_edge_cases():
    assert F2.generator == 1
    assert F2.nonzero_elements() == [F2.one]
    assert dlog(F2, F2.one) == 0
    assert nth_roots(F2, 4, F2.one) == [F2.one]


def test_factorize_tries_every_wheel_residue():
    assert factorize(121) == {11: 2}
    assert factorize(7 * 17 * 23 * 25) == {5: 2, 7: 1, 17: 1, 23: 1}
    for n in range(1, 2000):
        product = 1
        for q, e in factorize(n).items():
            assert is_prime(q)
            product *= q**e
        assert product == n


def test_generator_has_full_order():
    # F_683: 682 = 2 * 11 * 31, where a wheel that skips 11 and 31 accepts 2
    for p in (683, 1013, 1289, 1429) + tuple(q for q in range(3, 400) if is_prime(q)):
        field = PrimeField(p)
        powers = {pow(field.generator, k, p) for k in range(p - 1)}
        assert len(powers) == p - 1, p


LARGE_PRIME = 1000000000000000003
P14 = 10000000000037   # a 14-digit prime


def test_exact_root():
    for n in range(1, 12):
        for r in (0, 1, 2, 3, 10, 97, LARGE_PRIME):
            assert exact_root(r**n, n) == r
            if r > 1 and n > 1:
                assert exact_root(r**n + 1, n) is None
                assert exact_root(r**n - 1, n) is None
    assert exact_root(2, 2) is None
    assert exact_root(2**64, 64) == 2
    assert exact_root(2**64, 65) is None


def test_q_roots_of_large_primes_need_no_factoring():
    assert nth_roots(QQ, 2, 121) == [QQ.scalar(-11), QQ.scalar(11)]
    assert nth_roots(QQ, 3, Fraction(-8, 27 * 7**3)) == [QQ.scalar(Fraction(-2, 21))]
    big = QQ.scalar(Fraction(P14, LARGE_PRIME))
    assert nth_roots(QQ, 2, big**2) == [-big, big]
    assert nth_roots(QQ, 5, -big**5) == [-big]
    assert nth_roots(QQ, 2, big) == []
    assert nth_roots(QQ, 2, -big**2) == []
    assert nth_roots(QQ, 3, big**6 * 2) == []


def fraction_route(field, text):
    """What ``Field.parse`` made of a literal when every literal went through
    ``Fraction`` on the running interpreter: the scalar, or the class of the
    error raised (``parse`` turns Fraction's own errors into EvoautError)."""
    try:
        value = Fraction(text.strip().replace("−", "-"))
    except (ValueError, ZeroDivisionError):
        return EvoautError
    try:
        return field._from_number(value)
    except EvoautError as exc:
        return type(exc)


@pytest.mark.parametrize("field", [F7, QQ], ids=["F7", "Q"])
@pytest.mark.parametrize("literal", [
    "1_0", "٣", "²", "+3", "-0", "−2", " 7 ", "3.0", "1e3", "3/1", "-3/6", "0x10", "", "-",
    "1/7", "10000000000037",
    pytest.param("1" * 5000, id="5000-digits"),   # past int's default digit limit on 3.11+
])
def test_parse_matches_the_fraction_route(field, literal):
    # plain ASCII integers are read by int, everything else by Fraction: the
    # shortcut accepts nothing Fraction would refuse on this interpreter
    # (Python 3.10's Fraction takes no underscores) and reads every literal
    # to the same scalar
    expected = fraction_route(field, literal)
    if isinstance(expected, type):
        with pytest.raises(EvoautError) as raised:
            field.parse(literal)
        assert type(raised.value) is expected
    else:
        got = field.parse(literal)
        assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: factorize(0), ValueError, "factorize expects a positive integer, got 0",
                 id="factorize-0"),
    pytest.param(lambda: nth_roots(F7, 0, 1), ValueError, "root index must be >= 1, got 0",
                 id="0th-roots"),
    pytest.param(lambda: mu_order(F7, 0), ValueError, "root index must be >= 1, got 0",
                 id="mu-0"),
    pytest.param(lambda: F7.scalar(1.5), EvoautError, "cannot coerce 1.5 into F_7",
                 id="float-into-F7"),
    pytest.param(lambda: QQ.scalar(1.5), EvoautError, "cannot coerce 1.5 into Q",
                 id="float-into-Q"),
    pytest.param(lambda: F7.scalar("3"), EvoautError, "cannot coerce '3' into F_7",
                 id="string-into-F7"),   # strings go through parse
    pytest.param(lambda: F7.zero ** -1, DivisionByZero, "0 has no negative powers",
                 id="zero-to-a-negative-power"),
])
def test_out_of_range_arguments_are_refused(call, error, message):
    assert_raises_exactly(call, error, message)
