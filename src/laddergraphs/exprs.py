"""Textual expression language for ladder-operator arithmetic.

Grammar (PEG, leftmost alternative wins; whitespace allowed between tokens):

    expr     := term (('+' | '-') term)*
    term     := coeff factor* | factor+
    factor   := atom ('^' nat)?
    atom     := 'a' | 'ad' | '1' | '(' expr ')'
    coeff    := rational (('+' | '-') rational 'i')? | rational 'i'
    rational := int ('/' nat)?
    int      := '-'? nat
    nat      := digit+

``a`` is the lowering letter and ``ad`` the raising letter (the Unicode
spelling ``a†`` is accepted as an alias); ``1`` is the identity.
Juxtaposition is operator product and binds tighter than ``+``/``-``;
``^`` binds tighter than juxtaposition.  A bare coefficient denotes a scalar
multiple of the identity.  One token of lookahead resolves the only
int-vs-atom ambiguity: a lone ``1`` followed by ``^`` is the identity atom,
so ``1^3`` is a power; in every other position a leading integer starts a
coefficient.

See GRAMMAR.md at the repository root for the frozen contract.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul

from .ladder import Letter, NormalMonomial, NormalPolynomial
from .scalars import GaussianRational, Record


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
        if coeff is not None:
            # A lone '1' directly before '^' is the identity atom, not a coefficient.
            if self.pos == start + 1 and self.tokens[start].lexeme == "1" \
                    and self.peek().kind == "^":
                self.pos = start
            else:
                factors = []
                while self._at_factor_start():
                    factors.append(self.parse_factor())
                body = product(factors) if factors else IdentityExpr()
                return scaled(coeff, body)
        if not self._at_factor_start():
            raise self.error("a coefficient, 'a', 'ad', '1' or '('")
        factors = [self.parse_factor()]
        while self._at_factor_start():
            factors.append(self.parse_factor())
        return product(factors)

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


def _open(node: ExprNode) -> list:
    """The evaluation frame of one node: ``[children, value, fold]``.

    The node's value starts at ``value`` and takes in each child's value in
    turn as ``value = fold(value, child_value)``; a leaf has no children.
    """
    if isinstance(node, IdentityExpr):
        return [iter(()), NormalPolynomial.one(), None]
    if isinstance(node, LetterExpr):
        return [iter(()), NormalPolynomial.monomial(node.letter.monomial), None]
    if isinstance(node, PowerExpr):
        return [iter((node.base,)), None, lambda _, base: base ** node.exponent]
    if isinstance(node, ProductExpr):
        return [iter(node.factors), NormalPolynomial.one(), mul]
    if isinstance(node, SumExpr):
        return [iter(node.terms), NormalPolynomial.zero(), add]
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
        parent[1] = parent[2](parent[1], frame[1])


# ---------------------------------------------------------------------------
# Canonical pretty-printer
# ---------------------------------------------------------------------------

def _monomial_str(m: NormalMonomial) -> str:
    parts = []
    if m.r == 1:
        parts.append("ad")
    elif m.r > 1:
        parts.append(f"ad^{m.r}")
    if m.s == 1:
        parts.append("a")
    elif m.s > 1:
        parts.append(f"a^{m.s}")
    return " ".join(parts)


def _positive_leading(c: GaussianRational) -> bool:
    return c.re > 0 or (c.re == 0 and c.im > 0)


def format_polynomial(p: NormalPolynomial) -> str:
    """Canonical rendering; re-parses and re-evaluates to ``p`` exactly.

    Terms appear in canonical order; a unit coefficient is omitted unless the
    monomial is the identity; the zero polynomial prints as ``0``.
    """
    if p.is_zero():
        return "0"
    pieces = []
    for index, (mono, coeff) in enumerate(p.terms()):
        if index == 0:
            sep = ""
            c = coeff
        elif _positive_leading(coeff):
            sep = " + "
            c = coeff
        else:
            sep = " - "
            c = -coeff
        mono_str = _monomial_str(mono)
        if not mono_str:
            piece = str(c)
        elif c.is_one():
            piece = mono_str
        else:
            piece = f"{c} {mono_str}"
        pieces.append(sep + piece)
    return "".join(pieces)
