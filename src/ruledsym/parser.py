"""Expression parser for polynomial and rational-function input.

Grammar (whitespace insensitive):

    expr   :=  term { ("+" | "-") term }
    term   :=  factor { ("*" | "/") factor }
    factor :=  ("+" | "-") factor  |  atom [ ("^" | "**") exponent ]
    atom   :=  NUMBER | NAME | "(" expr ")"

NUMBER is a nonnegative integer or decimal literal (decimals are read
exactly, 0.25 becomes 1/4); rationals are written with "/".  Exponents are
nonnegative integers.  The same syntax serves three targets: univariate
polynomials, univariate rational functions, and multivariate polynomials
(where "/" is only allowed by a nonzero constant).
"""

from fractions import Fraction

from .errors import ParseError, PreconditionViolation
from .mpoly import MultiPoly
from .ratfunc import RatFunc

_OPS = set("+-*/^()")


def tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(("num", Fraction(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch == "*" and i + 1 < n and text[i + 1] == "*":
            tokens.append(("op", "^", i))
            i += 2
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r at position %d" % (ch, i),
                         position=i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, at = self.peek()
        if kind != "op" or val != op:
            raise ParseError("expected %r at position %d" % (op, at), position=at)
        self.advance()

    def parse(self):
        node = self.expr()
        kind, _, at = self.peek()
        if kind != "end":
            raise ParseError("unexpected trailing input at position %d" % at,
                             position=at)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                node = (("add" if val == "+" else "sub"), node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.factor()
                node = (("mul" if val == "*" else "div"), node, rhs)
            else:
                return node

    def factor(self):
        kind, val, at = self.peek()
        if kind == "op" and val in "+-":
            self.advance()
            inner = self.factor()
            return inner if val == "+" else ("neg", inner)
        node = self.atom()
        kind, val, at = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            ekind, eval_, eat = self.advance()
            if ekind != "num" or eval_.denominator != 1 or eval_ < 0:
                raise ParseError(
                    "exponent must be a nonnegative integer (position %d)" % eat,
                    position=eat)
            return ("pow", node, int(eval_))
        return node

    def atom(self):
        kind, val, at = self.advance()
        if kind == "num":
            return ("num", val)
        if kind == "name":
            return ("var", val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("unexpected token at position %d" % at, position=at)


def parse_ast(text):
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression")
    return _Parser(text).parse()


def _eval_ast(node, const, env, allow_division):
    op = node[0]
    if op == "num":
        return const(node[1])
    if op == "var":
        name = node[1]
        if name not in env:
            raise ParseError("unknown variable %r (expected one of %s)"
                             % (name, ", ".join(sorted(env))), variable=name)
        return env[name]
    if op == "neg":
        return -_eval_ast(node[1], const, env, allow_division)
    if op == "pow":
        return _eval_ast(node[1], const, env, allow_division) ** node[2]
    a = _eval_ast(node[1], const, env, allow_division)
    b = _eval_ast(node[2], const, env, allow_division)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op != "div":
        raise PreconditionViolation("unknown operator %r" % (op,))
    return allow_division(a, b)


def parse_ratfunc(text, var="t"):
    """Parse into a rational function of one variable."""
    ast = parse_ast(text)

    def div(a, b):
        if b.is_zero():
            raise ParseError("division by zero in %r" % text)
        return a / b

    return _eval_ast(ast, RatFunc.const, {var: RatFunc.x()}, div)


def parse_unipoly(text, var="t"):
    """Parse into a polynomial of one variable (no true denominators)."""
    r = parse_ratfunc(text, var)
    if not r.is_polynomial():
        raise ParseError("expected a polynomial, got a denominator in %r" % text)
    return r.as_unipoly()


def parse_multipoly(text, vars):
    """Parse into a multivariate polynomial; division only by constants."""
    ast = parse_ast(text)
    vars = tuple(vars)
    env = {name: MultiPoly.var(vars, name) for name in vars}

    def div(a, b):
        if not b.is_constant():
            raise ParseError("division by a non-constant in %r" % text)
        v = b.const_value()
        if v == 0:
            raise ParseError("division by zero in %r" % text)
        return a * (1 / v)

    return _eval_ast(ast, lambda c: MultiPoly.const(vars, c), env, div)
