"""Textual expression language for ladder-operator arithmetic.

GRAMMAR.md at the repository root is the frozen contract: the grammar in
EBNF, the tokens, precedence and disambiguation, and the canonical printing
that :func:`format_polynomial` follows.  Each parser method carries its rule
as a comment.  ``a`` is the lowering letter, ``ad`` (or ``a†``) the raising
letter and ``1`` the identity.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from operator import add, mul

from .ladder import Letter, NormalPolynomial, _term_sort_key
from .scalars import GaussianRational, Record, _coefficient_str


class ParseError(Exception):
    """Raised for any lexical or syntax problem; carries the 0-based offset."""

    def __init__(self, position: int, message: str):
        self.position = position
        self.message = message
        super().__init__(message)


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------

class ExprNode(Record):
    """Base class for expression AST nodes."""

    __slots__ = ()


class IdentityExpr(ExprNode):
    __slots__ = ()


class LetterExpr(ExprNode):
    __slots__ = __match_args__ = ("letter",)

    def __init__(self, letter: Letter):
        self._fill(letter)


class PowerExpr(ExprNode):
    __slots__ = __match_args__ = ("base", "exponent")

    def __init__(self, base: ExprNode, exponent: int):
        if exponent < 0:
            raise ValueError("power exponent must be nonnegative")
        self._fill(base, exponent)


class ProductExpr(ExprNode):
    __slots__ = __match_args__ = ("factors",)

    def __init__(self, factors: tuple[ExprNode, ...]):
        if not factors:
            raise ValueError("product needs at least one factor")
        self._fill(factors)


class SumExpr(ExprNode):
    __slots__ = __match_args__ = ("terms",)

    def __init__(self, terms: tuple[ExprNode, ...]):
        if not terms:
            raise ValueError("sum needs at least one term")
        self._fill(terms)


class ScaledExpr(ExprNode):
    __slots__ = __match_args__ = ("coeff", "body")

    def __init__(self, coeff: GaussianRational, body: ExprNode):
        self._fill(coeff, body)


def power(base: ExprNode, exponent: int) -> ExprNode:
    """Smart constructor: anything to the zeroth power is the identity."""
    if exponent == 0:
        return IdentityExpr()
    return PowerExpr(base, exponent)


def product(factors: list[ExprNode]) -> ExprNode:
    if len(factors) == 1:
        return factors[0]
    return ProductExpr(tuple(factors))


def scaled(coeff: GaussianRational, body: ExprNode) -> ExprNode:
    if coeff.is_one():
        return body
    return ScaledExpr(coeff, body)


def sum_of(terms: list[ExprNode]) -> ExprNode:
    if len(terms) == 1:
        return terms[0]
    return SumExpr(tuple(terms))


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class _Token(Record):
    __slots__ = __match_args__ = ("kind", "lexeme", "pos")

    def __init__(self, kind: str, lexeme: str, pos: int):
        # kind: 'int', 'a', 'ad', 'i', '^', '+', '-', '/', '(', ')', 'end'
        self._fill(kind, lexeme, pos)


_PUNCT = set("^+-/()")
_DIGITS = set("0123456789")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    # The longest digit string ``int`` converts; 0 means no limit.
    max_digits = sys.get_int_max_str_digits()
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if 0 < max_digits < j - i:
                raise ParseError(i, f"lexical error at position {i}: integer literal "
                                    f"longer than {max_digits} digits")
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch == "a":
            if i + 1 < n and text[i + 1] in ("d", "†"):
                tokens.append(_Token("ad", text[i:i + 2], i))
                i += 2
            else:
                tokens.append(_Token("a", "a", i))
                i += 1
            continue
        if ch == "i":
            tokens.append(_Token("i", "i", i))
            i += 1
            continue
        raise ParseError(i, f"lexical error at position {i}: unknown token {ch!r}")
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Deepest parenthesis nesting that parse accepts (GRAMMAR.md, "Errors").  The
# parser recurses a few frames per level, so the bound keeps it well inside
# Python's recursion limit; a deeper '(' is a ParseError at its own position.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses around the current position

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, expected: str) -> ParseError:
        tok = self.peek()
        found = "end of input" if tok.kind == "end" else repr(tok.lexeme)
        return ParseError(
            tok.pos,
            f"syntax error at position {tok.pos}: expected {expected}, found {found}",
        )

    # expr := term (('+' | '-') term)*
    def parse_expr(self) -> ExprNode:
        terms = [self.parse_term()]
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            term = self.parse_term()
            if op.kind == "-":
                if isinstance(term, ScaledExpr):
                    term = scaled(-term.coeff, term.body)
                else:
                    term = scaled(GaussianRational.coerce(-1), term)
            terms.append(term)
        return sum_of(terms)

    # term := coeff factor* | factor+
    def parse_term(self) -> ExprNode:
        start = self.pos
        coeff = self._try_parse_coeff()
        # A lone '1' directly before '^' is the identity atom, not a coefficient.
        if coeff is not None and self.pos == start + 1 and self.tokens[start].lexeme == "1" \
                and self.peek().kind == "^":
            self.pos, coeff = start, None
        factors = []
        while self._at_factor_start():
            factors.append(self.parse_factor())
        if coeff is None and not factors:
            raise self.error("a coefficient, 'a', 'ad', '1' or '('")
        body = product(factors) if factors else IdentityExpr()
        return body if coeff is None else scaled(coeff, body)

    def _at_factor_start(self) -> bool:
        tok = self.peek()
        return tok.kind in ("a", "ad", "(") or (tok.kind == "int" and tok.lexeme == "1")

    # factor := atom ('^' nat)?
    def parse_factor(self) -> ExprNode:
        atom = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            if self.peek().kind != "int":
                raise self.error("natural number")
            exponent = int(self.advance().lexeme)
            return power(atom, exponent)
        return atom

    # atom := 'a' | 'ad' | '1' | '(' expr ')'
    def parse_atom(self) -> ExprNode:
        tok = self.peek()
        if tok.kind == "a":
            self.advance()
            return LetterExpr(Letter.ANNIHILATOR)
        if tok.kind == "ad":
            self.advance()
            return LetterExpr(Letter.CREATOR)
        if tok.kind == "int" and tok.lexeme == "1":
            self.advance()
            return IdentityExpr()
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    tok.pos,
                    f"nesting too deep at position {tok.pos}: "
                    f"more than {MAX_NESTING} open parentheses",
                )
            self.advance()
            self.depth += 1
            inner = self.parse_expr()
            if self.peek().kind != ")":
                raise self.error("')'")
            self.advance()
            self.depth -= 1
            return inner
        raise self.error("'a', 'ad', '1' or '('")

    # coeff := rational (('+' | '-') rational 'i')? | rational 'i'
    def _try_parse_coeff(self) -> GaussianRational | None:
        if self.peek().kind not in ("int", "-"):
            return None
        real = self._parse_rational()
        if self.peek().kind == "i":
            self.advance()
            return GaussianRational(Fraction(0), real)
        if self.peek().kind in ("+", "-"):
            save = self.pos
            sign = -1 if self.advance().kind == "-" else 1
            if self.peek().kind == "int":
                imag = self._parse_rational()
                if self.peek().kind == "i":
                    self.advance()
                    return GaussianRational(real, sign * imag)
            self.pos = save  # the sign was a binary operator after all
        return GaussianRational(real)

    # rational := int ('/' nat)?
    def _parse_rational(self) -> Fraction:
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        if self.peek().kind != "int":
            raise self.error("number")
        num = int(self.advance().lexeme)
        if self.peek().kind == "/":
            self.advance()
            if self.peek().kind != "int":
                raise self.error("natural number")
            den_tok = self.advance()
            den = int(den_tok.lexeme)
            if den == 0:
                raise ParseError(
                    den_tok.pos,
                    f"zero denominator in rational at position {den_tok.pos}",
                )
            return Fraction(sign * num, den)
        return Fraction(sign * num)


def parse(text: str) -> ExprNode:
    """Parse an expression string or raise :class:`ParseError` with a position."""
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    if parser.peek().kind != "end":
        raise parser.error("end of input")
    return node


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_END = object()
_FIRST = object()  # the value of a sum or product before its first child


def _open(node: ExprNode) -> list:
    """The evaluation frame of one node: ``[children, value, fold]``.

    The node's value starts at ``value`` and takes in each child's value in
    turn as ``value = fold(value, child_value)``; a leaf has no children.  A
    sum or product starts at its first child's value instead.
    """
    if isinstance(node, IdentityExpr):
        return [iter(()), NormalPolynomial.one(), None]
    if isinstance(node, LetterExpr):
        return [iter(()), NormalPolynomial.monomial(node.letter.monomial), None]
    if isinstance(node, PowerExpr):
        return [iter((node.base,)), None, lambda _, base: base ** node.exponent]
    if isinstance(node, ProductExpr):
        return [iter(node.factors), _FIRST, mul]
    if isinstance(node, SumExpr):
        return [iter(node.terms), _FIRST, add]
    if isinstance(node, ScaledExpr):
        return [iter((node.body,)), None, lambda _, body: body.scale(node.coeff)]
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node: ExprNode) -> NormalPolynomial:
    """Map an AST to its unique normally ordered polynomial.

    Iterative, with an explicit stack of open nodes, so a tree of any depth
    evaluates, however it was built.  Children are evaluated left to right
    and each value is folded into its parent as soon as it is known, so the
    products and sums happen in the order of a recursive left fold.
    """
    stack = [_open(node)]
    while True:
        frame = stack[-1]
        child = next(frame[0], _END)
        if child is not _END:
            stack.append(_open(child))
            continue
        stack.pop()
        if not stack:
            return frame[1]
        parent = stack[-1]
        value = parent[1]
        parent[1] = frame[1] if value is _FIRST else parent[2](value, frame[1])


# ---------------------------------------------------------------------------
# Canonical pretty-printer
# ---------------------------------------------------------------------------

def format_polynomial(p: NormalPolynomial) -> str:
    """Canonical rendering; re-parses and re-evaluates to ``p`` exactly.

    Terms appear in canonical order; a unit coefficient is omitted unless the
    monomial is the identity; the zero polynomial prints as ``0``.  Each term
    is rendered from its ``(r, s)`` key and its coefficient's stored parts;
    the sign of a later term's leading part, read from its numerators, goes
    into the separator.
    """
    terms = p._terms
    if not terms:
        return "0"
    pieces = []
    for r, s in sorted(terms, key=_term_sort_key):
        c = terms[r, s]
        re, im = c._re, c._im
        lead = re.numerator or im.numerator
        if not pieces:
            sep, sign = "", 1
        elif lead > 0:
            sep, sign = " + ", 1
        else:
            sep, sign = " - ", -1
        text = _coefficient_str(re, im, sign)
        factors = []
        if r:
            factors.append("ad" if r == 1 else f"ad^{r}")
        if s:
            factors.append("a" if s == 1 else f"a^{s}")
        if factors and text == "1":
            pieces.append(sep + " ".join(factors))
        else:
            pieces.append(sep + " ".join([text, *factors]))
    return "".join(pieces)
