"""Text grammar for polynomials, vector fields, one-forms and ratios.

Polynomials are sums of terms like `3/2*x^2*y`, `i*x`, `-y^3`; variables are
x, y for n = 2 and x, y, z for n = 3; `i` is the imaginary unit; whitespace
is insignificant and parentheses may group a polynomial as a factor.  Vector
fields are comma-separated component lists.  One-forms attach dx / dy / dz to
each term; ratios are `P / Q` split at a top-level slash.

Printing is the exact inverse: terms in ascending graded-lex order with x <
y < z, mixed coefficients a+bi emitted as two grammar-conformant terms, so
emit-then-parse is the identity.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .gaussian import GaussianRational
from .series import PolySeries, VAR_NAMES
from .fields import OneFormJet, VectorFieldJet


class ParseError(Exception):
    """Syntax error with the position and the offending token."""

    def __init__(self, message: str, text: str, position: int):
        self.message = message
        self.position = position
        line = text.count("\n", 0, position) + 1
        col = position - (text.rfind("\n", 0, position) + 1) + 1
        snippet = text[position : position + 10] or "<end>"
        super().__init__(f"{message} at line {line}, column {col}: {snippet!r}")


# The deepest parenthesis nesting a parser accepts; deeper input is refused
# with ParseError.  Each level costs three Python frames, so a count, not the
# interpreter's recursion limit, decides the refusal, the same for every caller.
MAX_NESTING = 100

# The most digits a number literal may have; a longer one is refused with
# ParseError before its quadratic-time conversion.  This is Python's default
# int/text limit, so the library in process and the CLI, which lifts that
# limit so that every answer prints, accept the same literals.
MAX_LITERAL_DIGITS = 4300

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+)|(?P<diff>d[xyz])|(?P<name>[ixyz])|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError("unexpected character", text, len(text) - len(stripped))
        kind = m.lastgroup
        if kind == "number" and len(m.group(kind)) > MAX_LITERAL_DIGITS:
            message = f"a literal of {len(m.group(kind))} digits exceeds the budget of {MAX_LITERAL_DIGITS} digits"
            raise ParseError(message, text, m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses around the current factor

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def error(self, message):
        raise ParseError(message, self.text, self.peek()[2])

    def expect_end(self):
        if self.pos != len(self.tokens):
            self.error("trailing input")

    def accept(self, ops: str) -> str | None:
        """Consume the next token and return it if it is one of the ops."""
        kind, val, _ = self.peek()
        if kind == "op" and val in ops:
            self.next()
            return val
        return None

    # signed := ['+'|'-'] item (('+'|'-') item)*
    def signs(self):
        """The sign of each item of a signed sum; the caller parses the item
        after each sign is yielded."""
        op = self.accept("+-")
        while True:
            yield -1 if op == "-" else 1
            op = self.accept("+-")
            if op is None:
                return

    # polynomial := signed sum of terms
    def polynomial(self) -> PolySeries:
        result = PolySeries.zero(self.dim)
        for sign in self.signs():
            result = result + self.term() * sign
        return result

    # term := factor ('*'? factor)*  with '/' only after a number factor; a
    # one-form's term (stop_at_diff) takes no implicit product
    def term(self, stop_at_diff=False) -> PolySeries:
        result = self.factor()
        if result is None:
            self.error("expected a term")
        while True:
            kind, val, _ = self.peek()
            if self.accept("*"):
                if stop_at_diff and self.peek()[0] == "diff":
                    self.pos -= 1  # the star binds a differential, not a factor
                    break
                nxt = self.factor()
                if nxt is None:
                    self.error("expected a factor after '*'")
                result = result * nxt
            elif not stop_at_diff and (kind in ("number", "name") or (kind == "op" and val == "(")):
                # an implicit product: "2x" is 2*x, "2 3" is 6, "(x)(y)" is x*y
                result = result * self.factor()
            else:
                break
        return result

    # factor := rational | 'i' | variable ['^' number] | '(' polynomial ')'
    def factor(self) -> PolySeries | None:
        kind, val, start = self.peek()
        if kind == "number":
            self.next()
            num = int(val)
            save = self.pos
            if self.accept("/"):
                kind3, val3, _ = self.peek()
                if kind3 == "number":
                    self.next()
                    if int(val3) == 0:
                        raise ParseError("zero denominator", self.text, start)
                    return PolySeries.constant(self.dim, Fraction(num, int(val3)))
                self.pos = save  # the slash belongs to a ratio split
            return PolySeries.constant(self.dim, num)
        if kind == "name" and val == "i":
            self.next()
            return PolySeries.constant(self.dim, GaussianRational(0, 1))
        if kind == "name":
            index = VAR_NAMES.index(val)
            if index >= self.dim:
                raise ParseError(
                    f"variable {val!r} is not available in dimension {self.dim}",
                    self.text,
                    start,
                )
            self.next()
            power = 1
            if self.accept("^"):
                kind3, val3, _ = self.peek()
                if kind3 != "number":
                    self.error("expected an integer exponent")
                self.next()
                power = int(val3)
            return PolySeries.variable(self.dim, index) ** power
        if self.accept("("):
            if self.depth == MAX_NESTING:
                raise ParseError("parentheses nested too deeply", self.text, start)
            self.depth += 1
            inner = self.polynomial()
            if not self.accept(")"):
                self.error("expected ')'")
            self.depth -= 1
            return inner
        return None


def parse_poly(text: str, dim: int = 2) -> PolySeries:
    """Parse an exact polynomial in the shared grammar."""
    parser = _Parser(text, dim)
    result = parser.polynomial()
    parser.expect_end()
    return result


def parse_field(text: str, dim: int | None = None) -> VectorFieldJet:
    """Parse a comma-separated component list into a polynomial field.

    The dimension defaults to the number of components.
    """
    if dim is None:
        dim = text.count(",") + 1
    parser = _Parser(text, dim)
    comps = [parser.polynomial()]
    while parser.accept(","):
        comps.append(parser.polynomial())
    parser.expect_end()
    if len(comps) != dim:
        raise ParseError(
            f"expected {dim} components, got {len(comps)}", text, len(text)
        )
    return VectorFieldJet(comps)


def parse_one_form(text: str, dim: int = 2) -> OneFormJet:
    """Parse `P dx + Q dy (+ R dz)`; each additive term carries a differential."""
    parser = _Parser(text, dim)
    coeffs = [PolySeries.zero(dim) for _ in range(dim)]
    for sign in parser.signs():
        term = parser.term(stop_at_diff=True)
        parser.accept("*")
        kind, val, start = parser.peek()
        if kind != "diff":
            raise ParseError("expected dx, dy or dz after the term", text, start)
        parser.next()
        index = VAR_NAMES.index(val[1])
        if index >= dim:
            raise ParseError(f"{val} needs a higher dimension", text, start)
        coeffs[index] = coeffs[index] + term * sign
    parser.expect_end()
    return OneFormJet(coeffs)


def parse_ratio(text: str, dim: int = 2):
    """Parse `P / Q` splitting at a top-level slash; both sides polynomials.

    Ambiguous inputs (several viable splits) are rejected; parenthesize the
    numerator and denominator to disambiguate.  When no split parses, the
    error of the side that parsed furthest is raised at its place in text.
    """
    from .integrability import MeromorphicRatio

    depth = 0
    candidates = []
    for idx, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            candidates.append(idx)
    if not candidates:
        parse_poly(text, dim)  # a syntax error is reported as it is
    parses, errors = [], []
    for idx in candidates:
        start = 0  # where the side being parsed begins in text
        try:
            num = parse_poly(text[:idx], dim)
            start = idx + 1
            den = parse_poly(text[start:], dim)
        except ParseError as err:
            errors.append((start + err.position, err.message))
            continue
        if not den.is_zero():
            parses.append((idx, num, den))
    if not parses:  # the error of the side that parsed furthest, if any
        position, message = max(errors, key=lambda e: e[0], default=(0, "expected a ratio P / Q"))
        raise ParseError(message, text, position)
    if len(parses) > 1:
        raise ParseError(
            "ambiguous ratio; parenthesize numerator and denominator",
            text,
            parses[1][0],
        )
    _, num, den = parses[0]
    return MeromorphicRatio(num, den)


# -- printing -----------------------------------------------------------------


def _ordered_scalar_terms(f: PolySeries):
    """Expand each monomial into up to two printable (rational, imag?) parts."""
    for e, c in f.sorted_terms():
        if c.re != 0:
            yield e, c.re, False
        if c.im != 0:
            yield e, c.im, True


def _format_term(e, rational: Fraction, imaginary: bool, names) -> str:
    factors = []
    mag = abs(rational)
    if mag != 1 or (not imaginary and not any(e)):
        factors.append(str(mag))
    if imaginary:
        factors.append("i")
    for var, k in zip(names, e):
        if k == 1:
            factors.append(var)
        elif k > 1:
            factors.append(f"{var}^{k}")
    return "*".join(factors)


def poly_to_text(f: PolySeries, names=VAR_NAMES) -> str:
    """Render in ascending graded-lex order; parses back to the same value.

    names overrides the displayed variable names (blow-up charts print the
    slope coordinate as t); only the default names round-trip.
    """
    parts = list(_ordered_scalar_terms(f))
    if not parts:
        return "0"
    out = []
    for idx, (e, rational, imaginary) in enumerate(parts):
        term = _format_term(e, rational, imaginary, names)
        if idx == 0:
            out.append(term if rational > 0 else f"-{term}")
        else:
            out.append(f"+ {term}" if rational > 0 else f"- {term}")
    return " ".join(out)


def field_to_text(x: VectorFieldJet, names=VAR_NAMES) -> str:
    return ", ".join(poly_to_text(c, names) for c in x.comps)


def one_form_to_text(omega: OneFormJet) -> str:
    parts = []
    for i, c in enumerate(omega.coeffs):
        if c.is_zero():
            continue
        parts.append(f"({poly_to_text(c)}) d{VAR_NAMES[i]}")
    return " + ".join(parts) if parts else "0 dx"


def ratio_to_text(ratio) -> str:
    return f"({poly_to_text(ratio.numerator)}) / ({poly_to_text(ratio.denominator)})"


# -- structured (JSON-ready) serialization ------------------------------------


def fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def gq_to_json(c: GaussianRational) -> list[str]:
    return [fraction_str(c.re), fraction_str(c.im)]


def poly_to_json(f: PolySeries) -> list:
    return [
        [fraction_str(c.re), fraction_str(c.im), list(e)]
        for e, c in f.sorted_terms()
    ]


def field_to_json(x: VectorFieldJet) -> list:
    return [poly_to_json(c) for c in x.comps]


def one_form_to_json(omega: OneFormJet) -> list:
    return [poly_to_json(c) for c in omega.coeffs]
