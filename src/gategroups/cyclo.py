"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Values are sparse rational combinations of roots of unity, stored on a
canonical (Zumbroich-style) basis with a minimal conductor, so that equal
field elements always have the identical representation: equality, hashing
and printing are purely structural.  All instances are interned and
immutable, and the binary operations are memoised on operand identity;
repeated gate-matrix products therefore cost a dictionary lookup.

The canonical basis of Q(zeta_n) is the set of zeta_n^k whose Chinese
remainder component j_p = k * (n/q)^-1 mod q at each maximal prime power
q = p^v dividing n lies in

    [0, q/2)   for p = 2,
    [q/p, q)   for odd p.

Exponents outside the basis are rewritten with the relation
sum_{t=0..p-1} zeta_n^(k + t*n/p) = 0.  With this choice zeta_8 - zeta_8^3
is the canonical form of sqrt(2) and -zeta_9^4 - zeta_9^7 the one of
zeta_9, matching the conventions of the usual exact CAS systems.

Text syntax: ``E(n)`` is zeta_n, ``ER(2)`` is sqrt(2), rationals are
``p/q``, with ``+ - * / ^`` and parentheses; ``parse(str(x)) == x`` is
exact for every x of conductor at most 256.  The parser refuses larger
conductors: the number 1 alone has up to n - 1 terms in the basis of
Q(zeta_n), so ``1+E(n)`` for a large n would not fit in memory.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "Cyclotomic",
    "ZERO",
    "ONE",
    "root_of_unity",
    "sqrt2",
    "rational",
    "parse",
]


@lru_cache(maxsize=None)
def _prime_data(n):
    """Reduction data per prime of n: (p, q, n//p, (n//q)^-1 mod q, lo, hi)."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            out.append((p, q))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, m))
    data = []
    for p, q in out:
        mq = n // q
        minv = pow(mq, -1, q)
        if p == 2:
            lo, hi = 0, q // 2
        else:
            lo, hi = q // p, q
        data.append((p, q, n // p, minv, lo, hi))
    return tuple(data)


def _canonicalize(n, coeffs):
    """Return (conductor, items) for the exponent->coefficient map ``coeffs``.

    Rewrites every exponent onto the canonical basis of Q(zeta_n), then
    reduces the conductor until it is minimal.
    """
    cur = {}
    for k, c in coeffs.items():
        if c:
            k %= n
            acc = cur.get(k)
            cur[k] = c if acc is None else acc + c
    cur = {k: c for k, c in cur.items() if c}

    # basis rewrite, one pass per prime (passes do not disturb each other)
    for p, q, n_over_p, minv, lo, hi in _prime_data(n):
        work = {}
        for k, c in cur.items():
            j = (k * minv) % q
            if lo <= j < hi:
                acc = work.get(k)
                work[k] = c if acc is None else acc + c
            elif p == 2:
                k2 = (k + n_over_p) % n
                acc = work.get(k2)
                work[k2] = -c if acc is None else acc - c
            else:
                for t in range(1, p):
                    k2 = (k + t * n_over_p) % n
                    acc = work.get(k2)
                    work[k2] = -c if acc is None else acc - c
        cur = {k: c for k, c in work.items() if c}

    # conductor minimisation
    while n > 1 and cur:
        reduced = False
        for p, q, _, minv, _, _ in _prime_data(n):
            if p == 2 or q > p:
                # proper subfield iff every basis exponent is divisible by p
                if all(k % p == 0 for k in cur):
                    cur = {k // p: c for k, c in cur.items()}
                    n //= p
                    reduced = True
                    break
            else:
                # p odd, p || n: element lies in Q(zeta_{n/p}) iff for each
                # residue slice the p-1 coefficients agree; the common value
                # c contributes -c to the reduced exponent.
                mq = n // q
                slices = {}
                for k, c in cur.items():
                    j = (k * minv) % q
                    b = ((k - j * mq) % n) // p
                    slices.setdefault(b, {})[j] = c
                ok = True
                for row in slices.values():
                    if len(row) != p - 1 or len(set(row.values())) != 1:
                        ok = False
                        break
                if ok:
                    cur = {b: -next(iter(row.values())) for b, row in slices.items()}
                    n //= p
                    reduced = True
                    break
        if not reduced:
            break
    if not cur:
        n = 1
    return n, tuple(sorted(cur.items()))


_INTERN: dict = {}


def _intern(n, items):
    key = (n, items)
    v = _INTERN.get(key)
    if v is None:
        v = object.__new__(Cyclotomic)
        object.__setattr__(v, "conductor", n)
        object.__setattr__(v, "_items", items)
        object.__setattr__(v, "_hash", hash(key))
        _INTERN[key] = v
    return v


def _build(n, coeffs):
    n2, items = _canonicalize(n, coeffs)
    return _intern(n2, items)


class Cyclotomic:
    """An exact element of a cyclotomic field, in canonical form.

    Instances are interned: two equal values are the same object.  They are
    immutable and hashable, so they can be freely shared across threads.
    """

    __slots__ = ("conductor", "_items", "_hash")

    def __new__(cls, value=0):
        if isinstance(value, Cyclotomic):
            return value
        return _build(1, {0: Fraction(value)})

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self):
        return not self._items

    @property
    def is_rational(self):
        return self.conductor == 1

    def as_rational(self):
        if self.conductor != 1:
            raise ValueError(f"{self} is not rational")
        return self._items[0][1] if self._items else Fraction(0)

    def coefficients(self):
        """The canonical sparse form as a dict exponent -> Fraction."""
        return dict(self._items)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        return _add(self, Cyclotomic(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _add(self, _neg(Cyclotomic(other)))

    def __rsub__(self, other):
        return _add(Cyclotomic(other), _neg(self))

    def __neg__(self):
        return _neg(self)

    def __mul__(self, other):
        return _mul(self, Cyclotomic(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _mul(self, _inv(Cyclotomic(other)))

    def __rtruediv__(self, other):
        return _mul(Cyclotomic(other), _inv(self))

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = _inv(base)
            exponent = -exponent
        result = ONE
        while exponent:
            if exponent & 1:
                result = _mul(result, base)
            base = _mul(base, base)
            exponent >>= 1
        return result

    def inverse(self):
        return _inv(self)

    def galois(self, u):
        """Image under zeta_n -> zeta_n^u; u must be coprime to the conductor."""
        n = self.conductor
        if n == 1:
            return self
        if math.gcd(u, n) != 1:
            raise ValueError(f"{u} is not coprime to the conductor {n}")
        return _build(n, {(k * u) % n: c for k, c in self._items})

    def conjugate(self):
        """Complex conjugate, i.e. the Galois image zeta_n -> zeta_n^-1."""
        c = _CONJ.get(id(self))
        if c is None:
            c = self.galois(self.conductor - 1) if self.conductor > 1 else self
            _CONJ[id(self)] = c
        return c

    # -- housekeeping ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return self is other
        if isinstance(other, (int, Fraction)):
            return self is Cyclotomic(other)
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __bool__(self):
        return bool(self._items)

    def __repr__(self):
        return f"Cyclotomic({str(self)!r})"

    def __str__(self):
        if self.conductor == 1:
            return str(self._items[0][1]) if self._items else "0"
        parts = []
        for k, c in self._items:
            root = f"E({self.conductor})" if k == 1 else f"E({self.conductor})^{k}"
            if c == 1:
                term = root
            elif c == -1:
                term = "-" + root
            else:
                term = f"{c}*{root}"
            if parts and not term.startswith("-"):
                parts.append("+")
            parts.append(term)
        return "".join(parts)


ZERO = _build(1, {})
ONE = _build(1, {0: Fraction(1)})

_ADD: dict = {}
_MUL: dict = {}
_NEG: dict = {}
_INV: dict = {}
_CONJ: dict = {}


def _lift_items(items, n, m):
    scale = m // n
    return {k * scale: c for k, c in items}


def _add(a, b):
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    key = (id(a), id(b))
    r = _ADD.get(key)
    if r is None:
        m = math.lcm(a.conductor, b.conductor)
        coeffs = _lift_items(a._items, a.conductor, m)
        for k, c in _lift_items(b._items, b.conductor, m).items():
            acc = coeffs.get(k)
            coeffs[k] = c if acc is None else acc + c
        r = _build(m, coeffs)
        _ADD[key] = r
        _ADD[(id(b), id(a))] = r
    return r


def _neg(a):
    r = _NEG.get(id(a))
    if r is None:
        r = _intern(a.conductor, tuple((k, -c) for k, c in a._items))
        _NEG[id(a)] = r
    return r


def _mul(a, b):
    if a.is_zero or b.is_zero:
        return ZERO
    if a is ONE:
        return b
    if b is ONE:
        return a
    key = (id(a), id(b))
    r = _MUL.get(key)
    if r is None:
        m = math.lcm(a.conductor, b.conductor)
        xs = _lift_items(a._items, a.conductor, m)
        ys = _lift_items(b._items, b.conductor, m)
        coeffs = {}
        for k1, c1 in xs.items():
            for k2, c2 in ys.items():
                k = (k1 + k2) % m
                c = c1 * c2
                acc = coeffs.get(k)
                coeffs[k] = c if acc is None else acc + c
        r = _build(m, coeffs)
        _MUL[key] = r
        _MUL[(id(b), id(a))] = r
    return r


def _inv(a):
    """1/a = q / N(a), where N(a) = a * q is the rational field norm.

    The norm is taken along the cyclic factors <u> of the Galois group
    (Z/n)^*, one at a time: for a factor of order m and the partial norm x
    so far, p = sigma_u(x) ... sigma_u^(m-1)(x) is formed by doubling, and
    multiplied into both x and q.  That costs O(log m) products per factor
    where a product of all the conjugates costs n of them.
    """
    if a.is_zero:
        raise ZeroDivisionError("division by zero cyclotomic")
    r = _INV.get(id(a))
    if r is None:
        n = a.conductor
        x, q = a, ONE
        for u, m in _unit_factors(n):
            # t = x sigma(x) ... sigma^(k-1)(x), then sigma(t) with k = m - 1
            t, k = ONE, 0
            for bit in bin(m - 1)[2:]:
                t = _mul(t, t.galois(pow(u, k, n)))
                k *= 2
                if bit == "1":
                    t = _mul(t, x.galois(pow(u, k, n)))
                    k += 1
            p = t.galois(u)
            x, q = _mul(x, p), _mul(q, p)
        assert x.is_rational, "field norm must be rational"
        r = _mul(q, _build(1, {0: 1 / x.as_rational()}))
        _INV[id(a)] = r
    return r


@lru_cache(maxsize=None)
def _unit_factors(n):
    """(generator, order) of cyclic factors whose direct product is (Z/n)^*.

    One factor per odd prime power p^v of n, generated by a primitive root,
    and for 2^v the factors <-1> (v >= 2) and <5> (v >= 3); each generator
    is lifted to n by the Chinese remainder theorem, 1 on the other primes.
    """
    out = []
    for p, q, *_ in _prime_data(n):
        if p == 2:
            local = [(q - 1, 2)] if q >= 4 else []
            if q >= 8:
                local.append((5, q // 4))
        else:
            phi = q // p * (p - 1)
            g = next(
                g
                for g in range(2, q)
                if g % p and all(pow(g, phi // r, q) != 1 for r, *_ in _prime_data(phi))
            )
            local = [(g, phi)]
        rest = n // q
        for g, m in local:  # u = g mod q and u = 1 mod rest
            out.append(((g * rest * pow(rest, -1, q) + q * pow(q, -1, rest)) % n, m))
    return tuple(out)


# -- public constructors and helpers ------------------------------------


def root_of_unity(n):
    """The primitive n-th root of unity E(n); E(1) = 1, E(2) = -1."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"order of a root of unity must be a positive integer, got {n!r}")
    return _build(n, {1 % n: Fraction(1)})


def sqrt2():
    """The real square root of 2, canonically E(8)-E(8)^3."""
    return _add(root_of_unity(8), _inv(root_of_unity(8)))


def rational(value, denominator=None):
    """Exact rational as a Cyclotomic (conductor 1)."""
    if denominator is not None:
        return _build(1, {0: Fraction(value, denominator)})
    return _build(1, {0: Fraction(value)})


# -- parser ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(ER|E)|([()+\-*/^]))")
_MAX_DEPTH = 64  # parentheses nested in one expression
_MAX_CONDUCTOR = 256  # of every value formed while parsing
_MAX_POWER_BITS = 1 << 12  # exponent times coefficient bits, for bases not roots of unity


def _is_root_of_unity(x):
    """True iff x is a root of unity.

    The canonical basis is an integral basis of roots of unity, so x is an
    algebraic integer iff its coefficients are integers; x times its
    complex conjugate is 1 iff every Galois conjugate of x has absolute
    value 1 (the Galois group is abelian).  By Kronecker's theorem the two
    together hold exactly for the roots of unity.
    """
    return all(c.denominator == 1 for _, c in x._items) and _mul(x, x.conjugate()) is ONE


def _bounded_power(x, exponent):
    """x ** exponent, with ValueError for a power too large to hold.

    A root of unity of Q(zeta_n) has order dividing lcm(2, n), so its
    exponent is reduced first; any other base is refused once the exponent
    times the bit size of its coefficients passes ``_MAX_POWER_BITS``.
    """
    if _is_root_of_unity(x):
        return x ** (exponent % math.lcm(2, x.conductor))
    size = len(x._items).bit_length() + max(
        (c.numerator.bit_length() + c.denominator.bit_length() for _, c in x._items), default=0
    )
    if abs(exponent) * size > _MAX_POWER_BITS:
        raise ValueError(
            f"exponent {exponent} is too large for a value that is not a root of unity"
        )
    return x**exponent


_BINARY = {
    "+": ("add", operator.add),
    "-": ("sub", operator.sub),
    "*": ("mul", operator.mul),
    "/": ("div", operator.truediv),
}


def _bounded_arith(a, b, symbol):
    """``a symbol b``, with ValueError when a and b lie in no common field of
    conductor at most ``_MAX_CONDUCTOR``."""
    op, apply = _BINARY[symbol]
    m = math.lcm(a.conductor, b.conductor)
    if m > _MAX_CONDUCTOR:
        raise ValueError(f"{op} needs conductor {m}, above {_MAX_CONDUCTOR}")
    return apply(a, b)


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                rest = text[pos:].strip()
                if not rest:
                    break
                raise ValueError(f"cannot tokenise {rest[:12]!r} in cyclotomic expression")
            num, name, sym = m.groups()
            self.tokens.append(num or name or sym)
            pos = m.end()

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of cyclotomic expression")
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input {self.peek()!r} in cyclotomic expression")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            symbol = self.take()
            value = _bounded_arith(value, self.term(), symbol)
        return value

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            symbol = self.take()
            value = _bounded_arith(value, self.unary(), symbol)
        return value

    def unary(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        value = self.power()
        return value if sign == 1 else -value

    def power(self):
        value = self.atom()
        if self.peek() == "^":
            self.take()
            neg = False
            if self.peek() == "-":
                self.take()
                neg = True
            exponent = int(self.take())
            value = _bounded_power(value, -exponent if neg else exponent)
        return value

    def atom(self):
        tok = self.take()
        if tok == "(":
            if self.depth == _MAX_DEPTH:
                raise ValueError(f"cyclotomic expression nests more than {_MAX_DEPTH} parentheses")
            self.depth += 1
            value = self.expr()
            self.take(")")
            self.depth -= 1
            return value
        if tok == "E":
            self.take("(")
            n = int(self.take())
            self.take(")")
            if n > _MAX_CONDUCTOR:
                raise ValueError(f"E({n}) has a conductor above {_MAX_CONDUCTOR}")
            return root_of_unity(n)
        if tok == "ER":
            self.take("(")
            n = int(self.take())
            self.take(")")
            if n != 2:
                raise ValueError("only ER(2) is supported")
            return sqrt2()
        if tok.isdigit():
            return rational(int(tok))
        raise ValueError(f"unexpected token {tok!r} in cyclotomic expression")


def parse(text):
    """Parse the textual syntax; exact round-trip with str()."""
    try:
        return _Parser(text).parse()
    except ZeroDivisionError:
        raise ValueError(f"division by zero in cyclotomic expression {text!r}") from None
