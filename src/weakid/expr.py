"""Surface syntax for free-algebra expressions.

Grammar (whitespace between tokens is ignored):

    expr     := ("+" | "-")? term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := atom ("^" nat)?
    atom     := rational | var | "(" expr ")"
              | "[" expr ("," expr)+ "]"            left-normed commutator
              | "o(" expr "," expr ")"              circle product
              | "S" nat "(" expr ("," expr)* ")"    standard polynomial
              | "ad(" expr "," expr "," nat ")"     g (ad f)^m
    var      := "x" nat | "x" | "y"                 x = x1, y = x2
    rational := int ("/" posint)?

Digits and letters are ASCII only.  Errors carry 1-based line and column
positions; brackets nested deeper than ``_MAX_NESTING`` are a parse error at
the first bracket past the cap.  Expressions whose total degree or number of
terms may exceed the caps below are rejected with ``ValueError`` before they
are elaborated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .freealg import NcPoly, circ, comm, left_normed, render, standard_poly, substitute

__all__ = ["ParseError", "parse", "elaborate", "parse_poly", "render"]


class ParseError(Exception):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


@dataclass(frozen=True)
class Token:
    kind: str  # NUM, NAME, or a literal symbol
    text: str
    line: int
    col: int


# One token per match: a number, a name, a symbol, a newline or a run of
# other whitespace.  Digits and letters are ASCII only: str.isdigit and
# str.isalpha accept other scripts' digits and letters, which int() then
# misreads or rejects.  Where nothing matches, the character is unexpected.
# Compiled on first use (``re`` caches it), not when the package is imported.
_TOKEN = (r"(?P<NUM>[0-9]+)|(?P<NAME>[A-Za-z][A-Za-z0-9_]*)"
          r"|(?P<SYM>[-+*/^()\[\],])|(?P<NL>\n)|[^\S\n]+")

# Deepest nesting of brackets the parser accepts: the parser, the size
# bounds and the elaboration all recurse once or twice per level.
_MAX_NESTING = 100


def _tokenize(src):
    match = re.compile(_TOKEN).match
    tokens = []
    line, start = 1, 0  # start: offset of the current line's first character
    pos = 0
    while pos < len(src):
        m = match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}",
                             line, pos - start + 1)
        kind, text = m.lastgroup, m.group()
        if kind == "NL":
            line, start = line + 1, m.end()
        elif kind:
            tokens.append(Token(text if kind == "SYM" else kind, text,
                                line, pos - start + 1))
        pos = m.end()
    tokens.append(Token("EOF", "", line, pos - start + 1))
    return tokens


# Expression nodes: tagged tuples.
#   ("num", Fraction)  ("var", i)  ("sum", [(sign, expr), ...])
#   ("prod", [expr, ...])  ("pow", expr, nat)  ("bracket", [expr, ...])
#   ("circ", e1, e2)  ("std", k, [expr, ...])  ("ad", f, g, m)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            got = tok.text or "end of input"
            raise ParseError(f"expected {kind!r}, found {got!r}", tok.line, tok.col)
        return tok

    def fail(self, message):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def enter(self, kind):
        """Consume an opening bracket one nesting level deeper, rejecting
        it past ``_MAX_NESTING``; ``leave`` closes the level."""
        tok = self.expect(kind)
        if self.depth == _MAX_NESTING:
            raise ParseError(f"brackets nested deeper than {_MAX_NESTING}",
                             tok.line, tok.col)
        self.depth += 1

    def leave(self, kind):
        self.expect(kind)
        self.depth -= 1

    def parse_args(self, close):
        """expr ("," expr)* and the closing bracket, as a list."""
        args = [self.parse_expr()]
        while self.peek().kind == ",":
            self.next()
            args.append(self.parse_expr())
        self.leave(close)
        return args

    def parse_expr(self):
        signs = []
        if self.peek().kind in "+-":
            signs.append(1 if self.next().kind == "+" else -1)
        else:
            signs.append(1)
        terms = [self.parse_term()]
        while self.peek().kind in "+-":
            signs.append(1 if self.next().kind == "+" else -1)
            terms.append(self.parse_term())
        return ("sum", list(zip(signs, terms)))

    def parse_term(self):
        factors = [self.parse_factor()]
        while self.peek().kind == "*":
            self.next()
            factors.append(self.parse_factor())
        return ("prod", factors)

    def parse_factor(self):
        atom = self.parse_atom()
        if self.peek().kind == "^":
            self.next()
            return ("pow", atom, self.parse_nat())
        return atom

    def parse_nat(self):
        tok = self.expect("NUM")
        return int(tok.text)

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "NUM":
            self.next()
            num = int(tok.text)
            if self.peek().kind == "/":
                self.next()
                den_tok = self.expect("NUM")
                den = int(den_tok.text)
                if den == 0:
                    raise ParseError("zero denominator", den_tok.line, den_tok.col)
                return ("num", Fraction(num, den))
            return ("num", Fraction(num))
        if tok.kind == "(":
            self.enter("(")
            e = self.parse_expr()
            self.leave(")")
            return e
        if tok.kind == "[":
            self.enter("[")
            args = self.parse_args("]")
            if len(args) < 2:
                raise ParseError("commutator brackets need at least 2 arguments",
                                 tok.line, tok.col)
            return ("bracket", args)
        if tok.kind == "NAME":
            return self.parse_name()
        self.fail(f"unexpected {tok.text or 'end of input'!r}")

    def parse_name(self):
        tok = self.next()
        name = tok.text
        if name == "y":
            return ("var", 2)
        if name == "x":
            return ("var", 1)
        if name.startswith("x") and name[1:].isdigit():
            idx = int(name[1:])
            if idx < 1:
                raise ParseError("variable indices start at 1", tok.line, tok.col)
            return ("var", idx)
        if name == "o":
            self.enter("(")
            e1 = self.parse_expr()
            self.expect(",")
            e2 = self.parse_expr()
            self.leave(")")
            return ("circ", e1, e2)
        if name == "ad":
            self.enter("(")
            f = self.parse_expr()
            self.expect(",")
            g = self.parse_expr()
            self.expect(",")
            m = self.parse_nat()
            self.leave(")")
            return ("ad", f, g, m)
        if name.startswith("S") and name[1:].isdigit():
            k = int(name[1:])
            if k < 1:
                raise ParseError("standard polynomials need k >= 1", tok.line, tok.col)
            self.enter("(")
            args = self.parse_args(")")
            if len(args) != k:
                raise ParseError(
                    f"S{k} takes {k} arguments, found {len(args)}", tok.line, tok.col)
            return ("std", k, args)
        raise ParseError(f"unknown identifier {name!r}", tok.line, tok.col)


def parse(src):
    """Parse source text into an expression tree."""
    parser = _Parser(_tokenize(src))
    e = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return e


# Caps on an expression's size, checked on its parse tree so that an
# oversized ``check`` fails at once instead of running for minutes.  The cost
# of a check grows with both: on a 2-vCPU machine S6 (720 terms) takes about
# 1 s, (x+y)^10 (1024 terms) about 7 s and S7 (5040 terms) over 10 s, and the
# generic value of a multilinear word doubles in size with every letter.
_MAX_DEGREE = 12
_MAX_TERMS = 1000


def _times(a, b):
    """Product of two term bounds, saturated just above the cap."""
    return min(a * b, _MAX_TERMS + 1)


def _power(t, k):
    """t**k for a term bound t >= 1, saturated just above the cap."""
    out = 1
    for _ in range(k if t > 1 else 0):
        out = _times(out, t)
        if out > _MAX_TERMS:
            break
    return out


def _bounds(node):
    """(degree, terms): upper bounds on the total degree and the number of
    terms of the polynomial a node elaborates to, each saturated just above
    its cap so that no bound is ever a large number."""
    tag = node[0]
    if tag == "num":
        return 0, 1
    if tag == "var":
        return 1, 1
    if tag == "pow":
        d, t = _bounds(node[1])
        return min(max(d, 1) * node[2], _MAX_DEGREE + 1), _power(t, node[2])
    if tag == "ad":  # g (ad f)^m: each bracket doubles the terms
        df, tf = _bounds(node[1])
        dg, tg = _bounds(node[2])
        m = node[3]
        return (min(dg + df * m, _MAX_DEGREE + 1),
                _times(tg, _power(_times(2, tf), m)))
    if tag == "sum":
        sizes = [_bounds(t) for _, t in node[1]]
        return (max(d for d, _ in sizes),
                min(sum(t for _, t in sizes), _MAX_TERMS + 1))
    if tag == "prod":
        args, terms = node[1], 1
    elif tag == "bracket":  # k arguments: 2^(k-1) orders
        args, terms = node[1], _power(2, len(node[1]) - 1)
    elif tag == "circ":
        args, terms = node[1:], 2
    elif tag == "std":  # k! signed orders
        args, terms = node[2], 1
        for i in range(2, node[1] + 1):
            terms = _times(terms, i)
            if terms > _MAX_TERMS:
                break
    else:
        raise ValueError(f"unknown node {tag!r}")
    degree = 0
    for a in args:
        d, t = _bounds(a)
        degree = min(degree + d, _MAX_DEGREE + 1)
        terms = _times(terms, t)
    return degree, terms


def elaborate(node):
    """Expression tree -> noncommutative polynomial."""
    tag = node[0]
    if tag == "num":
        return NcPoly.scalar(node[1])
    if tag == "var":
        return NcPoly.variable(node[1])
    if tag == "sum":
        (sign, first), *rest = node[1]
        acc = elaborate(first) if sign > 0 else -elaborate(first)
        for sign, term in rest:
            t = elaborate(term)
            acc = acc + t if sign > 0 else acc - t
        return acc
    if tag == "prod":
        first, *rest = node[1]
        acc = elaborate(first)
        for factor in rest:
            acc = acc * elaborate(factor)
        return acc
    if tag == "pow":
        return elaborate(node[1]) ** node[2]
    if tag == "bracket":
        return left_normed(*(elaborate(a) for a in node[1]))
    if tag == "circ":
        return circ(elaborate(node[1]), elaborate(node[2]))
    if tag == "std":
        k, args = node[1], node[2]
        values = {i + 1: elaborate(a) for i, a in enumerate(args)}
        return substitute(_standard_poly(k), values)
    if tag == "ad":
        f = elaborate(node[1])
        g = elaborate(node[2])
        for _ in range(node[3]):
            g = comm(g, f)
        return g
    raise ValueError(f"unknown node {tag!r}")


# S_k, built once per k rather than at every S<k>(...) elaborated
_standard_poly = lru_cache(maxsize=None)(standard_poly)


def parse_poly(src):
    """Parse, check the size caps and elaborate in one step."""
    node = parse(src)
    degree, terms = _bounds(node)
    if degree > _MAX_DEGREE:
        raise ValueError(f"expression too large: total degree may exceed "
                         f"{_MAX_DEGREE}")
    if terms > _MAX_TERMS:
        raise ValueError(f"expression too large: may have more than "
                         f"{_MAX_TERMS} terms")
    return elaborate(node)
