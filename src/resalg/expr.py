"""Noncommutative expressions over abstract resolvent generators.

An expression is a finite sum  sum_k  c_k * R(z_k1, f_k1) ... R(z_km, f_km)
with complex coefficients and words of generator symbols.  R(z, f) stands for
the resolvent at spectral parameter z (Re z != 0) of the field generator
attached to the real vector f.  The module provides a grammar, a faithful
printer, and a terminating rewriter for the defining one-parameter relations:

  R1  R(z,f) R(w,f) -> (i(w-z))^-1 (R(z,f) - R(w,f))      for z != w
  R2  R(z,0) -> (-i/z) * I
  R3  R(z,f) -> (1/c) R(z/c, f/c),  c = sign(first nonzero of f) * |f|
  R4  merge equal words, drop cancelled terms, keep canonical term order

Two-parameter relations (commutation, composition) are deliberately not
rewrite rules; they are certified numerically elsewhere.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

# a sum of coefficients on one word cancels when it is at most this times
# the sum of their magnitudes (relative, so tiny genuine terms survive), or
# at most CANCEL_FLOOR: among subnormal coefficients, where that product
# underflows, rounding errors are absolute, about math.ulp(0.0) per operation
CANCEL_EPS = 1e-14
CANCEL_FLOOR = 16 * math.ulp(0.0)
# |norm(f) - 1| below this counts as unit length, so R3 does not refire
UNIT_EPS = 1e-14
# a power e^n is expanded only when its size bound stays at most this many
# terms x letters: at most T^n terms of at most nL letters each, for T terms
# and a longest word of L letters in e, counting a scalar as one letter and
# the zero expression as one term.  Every expression within the limit prints
# as powers within it, so parse(to_string(e)) == e still holds for it.
POWER_LIMIT = 1024


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class DomainError(ValueError):
    """Raised when a generator parameter leaves the analytic domain."""


@dataclass(frozen=True)
class Generator:
    """One resolvent symbol R(z, f) with Re(z) != 0."""

    z: complex
    f: tuple

    def __post_init__(self):
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "f", tuple(float(x) for x in self.f))
        if self.z.real == 0.0:
            raise DomainError(
                f"generator R({_format_complex_bare(self.z)},{_format_vector(self.f)}) "
                "requires Re(z) != 0"
            )

    def adjoint(self) -> "Generator":
        return Generator(-self.z.conjugate(), self.f)

    def sort_key(self):
        return (self.f, self.z.real, self.z.imag)


def _word_key(word):
    return tuple(g.sort_key() for g in word)


def _normalize(terms):
    buckets = {}
    for coeff, word in terms:
        word = tuple(word)
        buckets.setdefault(word, []).append(complex(coeff))
    out = []
    for word, coeffs in buckets.items():
        total = sum(coeffs)
        if len(coeffs) == 1:
            if total == 0:
                continue
        elif abs(total) <= max(CANCEL_EPS * sum(abs(c) for c in coeffs), CANCEL_FLOOR):
            continue
        out.append((total, word))
    out.sort(key=lambda t: _word_key(t[1]))
    return tuple(out)


@dataclass(frozen=True)
class Expr:
    """Normalized sum of complex-weighted generator words."""

    terms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", _normalize(self.terms))

    def __add__(self, other):
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return Expr(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return Expr(tuple((-c, w) for c, w in self.terms))

    def __sub__(self, other):
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        prods = [
            (c1 * c2, w1 + w2)
            for c1, w1 in self.terms
            for c2, w2 in other.terms
        ]
        return Expr(tuple(prods))

    def __rmul__(self, other):
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        letters = n * max([1, *(len(w) for _, w in self.terms)])
        if letters > POWER_LIMIT or max(1, len(self.terms)) ** n * letters > POWER_LIMIT:
            raise ValueError(f"power expands past {POWER_LIMIT} terms x letters")
        if len(self.terms) != 1:
            out = identity()
            for _ in range(n):
                out = out * self
            return out
        # one term: the product's word is the word n times over, and its
        # coefficient takes the steps n products take, so every bit is kept:
        # multiply, `_normalize`'s sum of one coefficient, dropped at zero
        ((c, word),) = self.terms
        ((coeff, _),) = identity().terms
        for _ in range(n):
            coeff = sum([coeff * c])
            if coeff == 0:
                return zero()
        return Expr(((coeff, word * n),))

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self):
        return to_string(self)


def _as_expr(value):
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, complex)):
        return scalar(value)
    return NotImplemented


def zero() -> Expr:
    return Expr(())


def identity() -> Expr:
    return Expr(((1.0 + 0.0j, ()),))


def scalar(c) -> Expr:
    return Expr(((complex(c), ()),))


def resolvent(z, f) -> Expr:
    """Single-letter expression R(z, f)."""
    return Expr(((1.0 + 0.0j, (Generator(z, f),)),))


def adjoint(e: Expr) -> Expr:
    terms = tuple(
        (c.conjugate(), tuple(g.adjoint() for g in reversed(w))) for c, w in e.terms
    )
    return Expr(terms)


# ---------------------------------------------------------------------------
# rewriting


def _first_nonzero(f):
    for idx, x in enumerate(f):
        if x != 0.0:
            return idx
    return None


def _canonicalize_letter(coeff, word):
    """Apply R2/R3 to every letter of one word.  Returns (coeff, word)."""
    out = []
    for g in word:
        idx = _first_nonzero(g.f)
        if idx is None:
            coeff = coeff * (1.0 / (1j * g.z))  # R2: scalar resolvent of the zero vector
            continue
        norm = math.sqrt(math.fsum(x * x for x in g.f))
        sign = 1.0 if g.f[idx] > 0.0 else -1.0
        if sign > 0.0 and abs(norm - 1.0) <= UNIT_EPS:
            out.append(g)
            continue
        c = sign * norm
        coeff = coeff / c
        # x/c + 0.0 turns -0.0 coordinates into 0.0 so prints stay tidy
        out.append(Generator(g.z / c, tuple(x / c + 0.0 for x in g.f)))
    return coeff, tuple(out)


def _rewrite_adjacent_pair(e: Expr):
    """One R1 step anywhere in e, or None when no site is left."""
    for t_idx, (coeff, word) in enumerate(e.terms):
        for i in range(len(word) - 1):
            g1, g2 = word[i], word[i + 1]
            if g1.f == g2.f and g1.z != g2.z:
                factor = -(1j / (g2.z - g1.z))
                head, tail = word[:i], word[i + 2 :]
                rest = list(e.terms[:t_idx] + e.terms[t_idx + 1 :])
                rest.append((coeff * factor, head + (g1,) + tail))
                rest.append((-coeff * factor, head + (g2,) + tail))
                return Expr(tuple(rest))
    return None


def simplify(e: Expr) -> Expr:
    """Rewrite to the canonical normal form (terminating, idempotent).

    Termination: R2/R3 run once per letter; every R1 step replaces a word of
    length L by two of length L-1, so sum(3^len) strictly decreases.
    """
    cur = Expr(tuple(_canonicalize_letter(c, w) for c, w in e.terms))
    while True:
        nxt = _rewrite_adjacent_pair(cur)
        if nxt is None:
            return cur
        cur = nxt


def check_dimension(e: Expr, dim: int) -> None:
    """Raises ValueError at the first letter whose vector does not have
    dimension `dim`, the dimension of the phase space."""
    for _, word in e.terms:
        for g in word:
            if len(g.f) != dim:
                raise ValueError(f"letter has dimension {len(g.f)}, space has {dim}")


def derivation(space, f, e: Expr) -> Expr:
    """Leibniz action of the infinitesimal symplectic translation along f.

    On letters: d_f R(w,g) = sigma(f,g) * R(w,g)^2.
    """
    from resalg import symplectic

    fv = symplectic.as_vector(space, f)
    check_dimension(e, space.dim)
    new_terms = []
    for coeff, word in e.terms:
        for i, g in enumerate(word):
            s = symplectic.pair(space, fv, g.f)
            if s == 0.0:
                continue
            new_terms.append((coeff * s, word[:i] + (g, g) + word[i + 1 :]))
    return Expr(tuple(new_terms))


# ---------------------------------------------------------------------------
# grammar
#
#   expr    := term (('+'|'-') term)*
#   term    := factor ('*' factor)*
#   factor  := scalar | 'I' | gen | 'adj(' expr ')' | '(' expr ')' | factor '^' uint
#   gen     := 'R' '(' complex ',' vector ')'
#   vector  := '[' real (',' real)* ']'
#   complex := real | real 'i' | real ('+'|'-') real 'i'
#
# A power beyond POWER_LIMIT is a ParseError at its exponent.
# Whitespace-insensitive; reals carry an optional sign where a value starts.

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z]+")


class _Token:
    __slots__ = ("kind", "value", "pos", "imag")

    def __init__(self, kind, value, pos, imag=False):
        self.kind = kind  # 'num' | 'ident' | a punctuation char | 'end'
        self.value = value
        self.pos = pos
        self.imag = imag


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-*^()[],":
            tokens.append(_Token(ch, ch, pos))
            pos += 1
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            value = float(m.group())
            if not math.isfinite(value):
                raise ParseError(f"numeric literal '{m.group()}' overflows", pos)
            end = m.end()
            imag = end < n and text[end] == "i"
            if imag:
                end += 1
            tokens.append(_Token("num", value, pos, imag))
            pos = end
            continue
        m = _IDENT_RE.match(text, pos)
        if m:
            name = m.group()
            if name not in ("R", "I", "adj"):
                raise ParseError(f"unknown identifier '{name}'", pos)
            tokens.append(_Token("ident", name, pos))
            pos = m.end()
            continue
        raise ParseError(f"unexpected character '{ch}'", pos)
    tokens.append(_Token("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected '{kind}'", tok.pos)
        return self.advance()

    def parse(self) -> Expr:
        tok = self.peek()
        if tok.kind == "end":
            raise ParseError("empty input", tok.pos)
        e = self.parse_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError("trailing input", tok.pos)
        return e

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.parse_term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while self.peek().kind == "*":
            self.advance()
            e = e * self.parse_factor()
        return e

    def parse_factor(self) -> Expr:
        e = self.parse_primary()
        while self.peek().kind == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "num" or tok.imag or tok.value != int(tok.value):
                raise ParseError("exponent must be a nonnegative integer", tok.pos)
            self.advance()
            try:
                e = e ** int(tok.value)
            except ValueError as exc:
                raise ParseError(str(exc), tok.pos) from None
        return e

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind in ("+", "-") or tok.kind == "num":
            value = self.parse_signed_number()
            return scalar(complex(0.0, value[0]) if value[1] else value[0])
        if tok.kind == "ident" and tok.value == "I":
            self.advance()
            return identity()
        if tok.kind == "ident" and tok.value == "R":
            return self.parse_generator()
        if tok.kind == "ident" and tok.value == "adj":
            self.advance()
            self.expect("(")
            inner = self.parse_expr()
            self.expect(")")
            return adjoint(inner)
        if tok.kind == "(":
            # a parenthesized complex literal "(a+bi)" is one scalar, not an
            # addition; otherwise tiny imaginary parts would be merged away
            saved = self.idx
            self.advance()
            try:
                value = self.parse_complex()
                self.expect(")")
                return scalar(value)
            except ParseError:
                self.idx = saved
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError("expected a factor", tok.pos)

    def parse_signed_number(self):
        """Returns (float value, imag flag)."""
        sign = 1.0
        tok = self.peek()
        if tok.kind in ("+", "-"):
            sign = 1.0 if tok.kind == "+" else -1.0
            self.advance()
            tok = self.peek()
        if tok.kind != "num":
            raise ParseError("expected a number", tok.pos)
        self.advance()
        return sign * tok.value, tok.imag

    def parse_complex(self) -> complex:
        value, imag = self.parse_signed_number()
        if imag:
            return complex(0.0, value)
        tok = self.peek()
        if tok.kind in ("+", "-"):
            nxt = self.tokens[self.idx + 1]
            if nxt.kind == "num" and nxt.imag:
                part, _ = self.parse_signed_number()
                return complex(value, part)
        return complex(value)

    def parse_generator(self) -> Expr:
        start = self.expect("ident")
        self.expect("(")
        z = self.parse_complex()
        self.expect(",")
        self.expect("[")
        coords = [self.parse_signed_number()]
        while self.peek().kind == ",":
            self.advance()
            coords.append(self.parse_signed_number())
        self.expect("]")
        self.expect(")")
        for value, imag in coords:
            if imag:
                raise ParseError("vector entries must be real", start.pos)
        f = tuple(value for value, _ in coords)
        if z.real == 0.0:
            raise DomainError(
                f"generator R({_format_complex_bare(z)},{_format_vector(f)}) at "
                f"position {start.pos}: Re(z) must be nonzero"
            )
        return resolvent(z, f)


def parse(text: str) -> Expr:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing (bit-exact round trip: parse(to_string(e)) == e)


def _format_float(x: float) -> str:
    s = repr(float(x))
    if s.endswith(".0"):
        s = s[:-2]
    return s


def _format_complex_bare(c: complex) -> str:
    if c.imag == 0.0:
        return _format_float(c.real)
    sign = "-" if c.imag < 0.0 else "+"
    return f"{_format_float(c.real)}{sign}{_format_float(abs(c.imag))}i"


def _format_coefficient(c: complex) -> str:
    if c.imag == 0.0:
        return _format_float(c.real)
    return f"({_format_complex_bare(c)})"


def _format_vector(f) -> str:
    return "[" + ",".join(_format_float(x) for x in f) + "]"


def _format_word(word) -> str:
    runs = []
    for g in word:
        if runs and runs[-1][0] == g:
            runs[-1][1] += 1
        else:
            runs.append([g, 1])
    parts = []
    for g, count in runs:
        atom = f"R({_format_complex_bare(g.z)},{_format_vector(g.f)})"
        parts.append(atom if count == 1 else f"{atom}^{count}")
    return "*".join(parts)


def to_string(e: Expr) -> str:
    if not e.terms:
        return "0"
    parts = []
    for coeff, word in e.terms:
        body = "I" if not word else _format_word(word)
        if coeff == 1:
            parts.append(body)
        else:
            parts.append(f"{_format_coefficient(coeff)}*{body}")
    return " + ".join(parts)
