"""Sparse multivariate polynomials over the rationals.

Terms map exponent tuples to exact coefficients (Fraction in all solver
paths; the implicit substitution residual also carries number-field
elements).  Every polynomial carries a fixed tuple of variable names; mixing
polynomials from different variable spaces is an error, which keeps
exponent tuples unambiguous.

The module provides arithmetic, evaluation, substitution of values and
univariate views; it has no division, gcd or factorisation (exact
elimination goes through the groebner module, and irreducibility is
certified on a univariate restriction in the implicit module).
"""

from fractions import Fraction

from .errors import PreconditionViolation
from .upoly import UniPoly


def _coerce(c):
    if isinstance(c, int):
        return Fraction(c)
    return c


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        object.__setattr__(self, "vars", tuple(vars))
        clean = {}
        if terms:
            for exp, c in terms.items():
                c = _coerce(c)
                if c == 0:
                    continue
                if len(exp) != len(self.vars):
                    raise PreconditionViolation("exponent length mismatch")
                clean[tuple(exp)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # ---- constructors ----

    @classmethod
    def const(cls, vars, c):
        z = tuple([0] * len(vars))
        return cls(vars, {z: c})

    @classmethod
    def var(cls, vars, name, power=1):
        i = tuple(vars).index(name)
        exp = [0] * len(vars)
        exp[i] = power
        return cls(vars, {tuple(exp): Fraction(1)})

    @classmethod
    def from_unipoly(cls, vars, name, p):
        i = tuple(vars).index(name)
        terms = {}
        for k, c in enumerate(p.coeffs):
            if c == 0:
                continue
            exp = [0] * len(vars)
            exp[i] = k
            terms[tuple(exp)] = c
        return cls(vars, terms)

    # ---- queries ----

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def const_value(self):
        if not self.is_constant():
            raise PreconditionViolation("the polynomial is not constant")
        z = tuple([0] * len(self.vars))
        return self.terms.get(z, Fraction(0))

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name):
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def used_vars(self):
        out = set()
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    out.add(self.vars[i])
        return out

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.const(self.vars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # ---- arithmetic ----

    def _check(self, other):
        if self.vars != other.vars:
            raise PreconditionViolation("mixed variable spaces")

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e)
            out[e] = c if v is None else v + c
        return MultiPoly(self.vars, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
            if other == 0:
                return MultiPoly(self.vars)
            return MultiPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(e)
                p = c1 * c2
                out[e] = p if v is None else v + p
        return MultiPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = MultiPoly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # ---- evaluation / substitution ----

    def eval(self, values):
        """Full evaluation; values maps every used variable to a number, or
        to a polynomial for a simultaneous substitution.  Powers take one
        product per step, and the sum starts at the zero of the values'
        ring, so a zero form substitutes to a zero polynomial."""
        total = next(iter(values.values()), Fraction(0)) * 0
        tables = [[] for _ in self.vars]

        def power(i, e):
            table = tables[i]
            if not table:
                table.append(values[self.vars[i]])
            while len(table) < e:
                table.append(table[-1] * table[0])
            return table[e - 1]

        for exp, c in self.terms.items():
            term = c
            for i, e in enumerate(exp):
                if e:
                    term = term * power(i, e)
            total = total + term
        return total

    def substitute_values(self, values):
        """Partial evaluation; returns a polynomial in the same variable space."""
        out = {}
        idx = {self.vars.index(n): v for n, v in values.items()}
        for exp, c in self.terms.items():
            coeff = c
            new = list(exp)
            for i, v in idx.items():
                if exp[i]:
                    coeff = coeff * v ** exp[i]
                    new[i] = 0
            key = tuple(new)
            prev = out.get(key)
            out[key] = coeff if prev is None else prev + coeff
        return MultiPoly(self.vars, out)

    # ---- univariate views ----

    def as_univar(self, name):
        """Coefficient list (ascending) in one variable; entries share self.vars."""
        i = self.vars.index(name)
        d = self.degree_in(name)
        buckets = [dict() for _ in range(d + 1)]
        for exp, c in self.terms.items():
            e = exp[i]
            new = list(exp)
            new[i] = 0
            buckets[e][tuple(new)] = c
        return [MultiPoly(self.vars, b) for b in buckets]

    def to_unipoly(self, name):
        """Conversion when no other variable occurs."""
        used = self.used_vars()
        if not used <= {name}:
            raise PreconditionViolation(
                "polynomial involves %s" % sorted(used - {name}))
        if self.is_zero():
            return UniPoly()
        i = self.vars.index(name)
        d = self.degree_in(name)
        coeffs = [Fraction(0)] * (d + 1)
        for exp, c in self.terms.items():
            coeffs[exp[i]] = c
        return UniPoly(coeffs)

    # ---- rendering ----

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            factors = []
            for name, e in zip(self.vars, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            body = "*".join(factors)
            neg = isinstance(c, Fraction) and c < 0
            mag = -c if neg else c
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = "%s*%s" % (mag, body)
            parts.append(("-" if neg else "+", text))
        s0, b0 = parts[0]
        out = ("-" if s0 == "-" else "") + b0
        for sg, b in parts[1:]:
            out += " %s %s" % (sg, b)
        return out

    def __repr__(self):
        return "MultiPoly(%s)" % self.render()


def project(p, new_vars):
    """Re-express a polynomial on another variable tuple.

    Every variable actually used by p must appear in new_vars; variables
    may otherwise be dropped, added, or reordered.
    """
    new_vars = tuple(new_vars)
    lookup = [new_vars.index(v) if v in new_vars else None for v in p.vars]
    terms = {}
    for exp, c in p.terms.items():
        new = [0] * len(new_vars)
        for i, e in enumerate(exp):
            if e:
                j = lookup[i]
                if j is None:
                    raise PreconditionViolation(
                        "variable %r still in use" % (p.vars[i],))
                new[j] = e
        terms[tuple(new)] = c
    return MultiPoly(new_vars, terms)
