"""Exact cyclotomic arithmetic: canonical forms, field axioms, embeddings."""

import cmath
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import embed, inverse_oracle
from gategroups import cyclo
from gategroups.cyclo import ONE, ZERO, Cyclotomic, parse, rational, root_of_unity, sqrt2

EMBED_TOL = 1e-10


def test_roots_of_unity_small():
    assert root_of_unity(1) is ONE
    assert root_of_unity(2) is rational(-1)
    i = root_of_unity(4)
    assert i * i == rational(-1)
    z8 = root_of_unity(8)
    assert z8**4 == rational(-1)
    assert z8**8 is ONE


def test_root_of_unity_rejects_zero():
    with pytest.raises(ValueError):
        root_of_unity(0)


def test_root_orders_up_to_24():
    for n in range(1, 25):
        z = root_of_unity(n)
        assert z**n is ONE
        for k in range(1, n):
            assert z**k is not ONE


def test_sqrt2_defining_properties():
    r = sqrt2()
    assert r * r == rational(2)
    assert r * r.inverse() is ONE
    # canonical form agrees with the complex embedding of E(8) - E(8)^3
    expected = cmath.exp(2j * cmath.pi / 8) - cmath.exp(6j * cmath.pi / 8)
    assert abs(embed(r) - expected) < 1e-12
    assert abs(embed(r) - 2**0.5) < 1e-12
    assert r == root_of_unity(8) - root_of_unity(8) ** 3


def test_arith_examples():
    z4 = root_of_unity(4)
    assert z4 + -z4 is ZERO
    z3 = root_of_unity(3)
    assert z3 * z3**2 is ONE
    # embedding oracle for E(3) + E(3)^2 = -1
    total = embed(z3) + embed(z3**2)
    assert abs(total - (-1)) < 1e-12
    assert z3 + z3**2 == rational(-1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_inverse_matches_the_all_conjugates_oracle(monkeypatch):
    """Identical values on every conductor up to 64, with nothing memoised."""
    seen = set()
    for n in range(1, 65):
        a = 3 + root_of_unity(n)  # never 0
        monkeypatch.setattr(cyclo, "_INV", {})
        assert a.inverse() is inverse_oracle(a), n
        assert a * a.inverse() is ONE
        seen.add(a.conductor)
    assert seen == {n for n in range(1, 65) if n % 4 != 2}


@pytest.mark.parametrize("n", [60, 63, 64, 101])
def test_inverse_takes_logarithmically_many_products(n, monkeypatch):
    """O(log n) products per cyclic factor of (Z/n)^*, where the conjugates take n."""
    calls = []
    real = cyclo._mul

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(cyclo, "_INV", {})
    monkeypatch.setattr(cyclo, "_mul", counting)
    a = 1 + root_of_unity(n)
    assert a.conductor == n
    calls.clear()
    r = a.inverse()
    assert len(calls) <= 3 * n.bit_length()
    assert real(a, r) is ONE


def test_conjugation():
    i = root_of_unity(4)
    assert i.conjugate() == -i
    assert sqrt2().conjugate() == sqrt2()
    z8 = root_of_unity(8)
    assert z8.conjugate() == z8**7
    x = rational(1, 3) * z8 + rational(2) * root_of_unity(3)
    assert x.conjugate().conjugate() == x


def test_conj_respects_ring_ops():
    a = root_of_unity(8) + rational(1, 2)
    b = root_of_unity(3) - root_of_unity(4)
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_minimal_conductor():
    # E(8)^2 is i, conductor 4
    assert (root_of_unity(8) ** 2).conductor == 4
    assert (root_of_unity(12) ** 4).conductor == 3
    assert (root_of_unity(5) * root_of_unity(5) ** 4).conductor == 1
    assert (root_of_unity(6)).conductor == 3


def _random_value(rng, max_conductor=24):
    """Random sparse element of one Q(zeta_n) with n <= max_conductor."""
    n = rng.randint(1, max_conductor)
    total = ZERO
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(0, n)
        coeff = rational(rng.randint(-4, 4), rng.randint(1, 4))
        total = total + coeff * root_of_unity(n) ** k
    return total


def test_embedding_homomorphism_randomized():
    import random

    rng = random.Random(20240817)
    for _ in range(200):
        a = _random_value(rng)
        b = _random_value(rng)
        assert abs(embed(a + b) - (embed(a) + embed(b))) < EMBED_TOL
        assert abs(embed(a * b) - (embed(a) * embed(b))) < EMBED_TOL
        assert abs(embed(a - b) - (embed(a) - embed(b))) < EMBED_TOL
        if not b.is_zero:
            assert abs(embed(a / b) - (embed(a) / embed(b))) < EMBED_TOL


def test_canonical_uniqueness_randomized():
    # equal values built along different expression trees intern identically
    import random

    rng = random.Random(99)
    for _ in range(100):
        parts = [_random_value(rng, 12) for _ in range(3)]
        left = (parts[0] + parts[1]) + parts[2]
        right = parts[2] + (parts[1] + parts[0])
        assert left is right
        prod_left = (parts[0] * parts[1]) * parts[2]
        prod_right = parts[2] * (parts[1] * parts[0])
        assert prod_left is prod_right
        if abs(embed(left) - embed(right)) > EMBED_TOL:
            raise AssertionError("embedding oracle disagrees with equality")


_coeffs = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6
)


@st.composite
def cyclotomics(draw, max_conductor=12):
    n = draw(st.integers(min_value=1, max_value=max_conductor))
    total = ZERO
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        k = draw(st.integers(min_value=0, max_value=n))
        total = total + rational(draw(_coeffs)) * root_of_unity(n) ** k
    return total


@settings(max_examples=150, deadline=None)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if not a.is_zero:
        assert a * a.inverse() is ONE


@settings(max_examples=100, deadline=None)
@given(cyclotomics())
def test_parse_print_round_trip(a):
    assert parse(str(a)) is a


def test_parse_examples():
    assert parse("E(4)") is root_of_unity(4)
    assert parse("ER(2)") is sqrt2()
    assert parse("1/2*E(8)-1/2*E(8)^3") == sqrt2().inverse()
    assert parse("(1+E(4))*(1-E(4))") == rational(2)
    assert parse("2^3") == rational(8)
    assert parse("-E(4)^-1") is root_of_unity(4)
    with pytest.raises(ValueError):
        parse("ER(3)")
    with pytest.raises(ValueError):
        parse("E(4")


def test_parse_refuses_huge_powers_and_deep_nesting():
    """Powers of roots of unity reduce their exponent; other powers,
    conductors and nesting past fixed bounds are a ValueError, not a
    MemoryError or a RecursionError."""
    assert parse("E(4)^999999999999") is root_of_unity(4) ** 3
    assert parse("(-E(3))^-1000000000001") is (-root_of_unity(3)) ** (-1000000000001 % 6)
    assert parse("2^1000") == rational(2**1000)
    assert parse("(" * 64 + "1" + ")" * 64) is ONE
    assert parse("1+E(256)") is ONE + root_of_unity(256)
    assert parse("E(16)*E(3)").conductor == 48
    for text in (
        "2^99999999999",
        "(1/2)^-99999999999",
        "ER(2)^99999999999",  # |sqrt 2| is not 1
        "(3/5+4/5*E(4))^99999999999",  # absolute value 1, but not an algebraic integer
        "((2^10000)^10000)^10000",
        "(" * 65 + "1" + ")" * 65,
        "(" * 3000 + "1" + ")" * 3000,
        "E(99999999999)^2",  # conductor above the bound
        "1+E(99999999999)",
        "E(251)+E(241)",  # each conductor is allowed, their lcm is not
    ):
        with pytest.raises(ValueError):
            parse(text)


# arbitrary text of cyclotomic tokens, including malformed runs and huge exponents
_TEXT_TOKENS = ["E(", "ER(", "E(4)", "E(7)", "E(12)", "ER(2)", "0", "1", "2", "3", "12",
                "99999999999", "(", ")", "+", "-", "*", "/", "^", " ", "x"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_TEXT_TOKENS), max_size=24).map("".join))
def test_arbitrary_text_parses_and_round_trips_or_is_a_value_error(text):
    try:
        value = parse(text)
    except ValueError:
        return
    assert parse(str(value)) is value


def test_constructor_and_hash():
    assert Cyclotomic(5) == rational(5)
    assert hash(root_of_unity(8)) == hash(root_of_unity(8))
    d = {root_of_unity(8): "a"}
    assert d[parse("E(8)")] == "a"


def test_no_floating_point_in_src():
    """The package computes exactly: no module imports cmath or builds a complex."""
    src = Path(cyclo.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"^\s*(import|from)\s+cmath\b", text, re.M), path.name
        assert not re.search(r"\bcomplex\(", text), path.name
