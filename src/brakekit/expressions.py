"""Compiler for the expression grammar of system documents.

An expression (arithmetic ``+ - * / **``, unary ``+ -``, int and float
literals, ``pi``, ``sin``, ``cos`` and the coordinates ``q1..qN``) is parsed
by a whitelist walk of its Python ast into a tree of interned nodes, so equal
subtrees are one object.  The constructors keep every tree in one canonical
form: sums and products are flat, like terms and like powers are collected,
a number times a sum is distributed, and numbers are folded, exact ones (int
literals and their ratios) as Fractions and the rest as floats.  ``pi`` stays
a symbol, so ``d/dq1`` of ``1.2*cos(2*pi*q1)`` prints as
``-2.4*pi*sin(2*pi*q1)``.  Derivatives are symbolic on the tree; a
q-dependent exponent brings in ``log``, which exists only inside the
compiler.  ``Tree.compile`` prints the entries of one field into the source
of one NumPy function, with a local for every subtree used twice, and
compiles it.

Every pass over a tree walks it with an explicit stack, so no tree that
``ast.parse`` accepts can exhaust the interpreter's recursion limit, and
printed expressions are split into locals before they nest deeper than
``compile`` accepts.
"""

from __future__ import annotations

import ast
import math
import operator
import warnings
from fractions import Fraction

import numpy as np

from .errors import PreconditionViolated

__all__ = ["Tree"]

# a larger expansion is refused unexpanded by the pole rule
_MAX_EXPANDED_TERMS = 2000

_BINARY = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_FUNCS = ("sin", "cos")

# printing: precedence of a printed expression, and the limits past which a
# subexpression is bound to a local (nesting depth, operands of one chain)
_ADD, _MUL, _NEG, _POW, _ATOM = range(5)
_MAX_DEPTH = 40
_MAX_CHAIN = 40
_NAMESPACE = {"asarray": np.asarray, "empty": np.empty, "sin": np.sin, "cos": np.cos,
              "log": np.log, "pi": math.pi}


class _NotFinite(ValueError):
    """A folded constant is not a finite real."""


class _OutOfRange(ValueError):
    """A folded number would leave the float range, or underflow to 0."""


class _ZeroPower(ValueError):
    """Zero to a q-dependent power."""


class Node:
    """One interned node; ``op`` is num, pi, q, add, mul, pow, sin, cos or log.

    ``val`` is the number of a num (a Fraction or a float), the index of a q,
    the constant term of an add and the coefficient of a mul.
    """

    __slots__ = ("op", "val", "args", "serial", "qfree")

    def __init__(self, op, val, args, serial):
        self.op, self.val, self.args, self.serial = op, val, args, serial
        self.qfree = op != "q" and all(a.qfree for a in args)


def _postorder(roots, children):
    """Nodes reachable from roots, each after its children, each once."""
    seen, order = set(), []
    stack = [(r, False) for r in reversed(roots)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(children(node)))
    return order


def _is_one(v):
    return type(v) is Fraction and v == 1


def _exact_int(node):
    return node.op == "num" and type(node.val) is Fraction and node.val.denominator == 1


def _fold(fn, *vals):
    """fn of numbers as a Fraction or a float; _NotFinite unless a finite real,
    _OutOfRange for a product or power of nonzero numbers that underflows to 0."""
    try:
        v = fn(*vals)
        ok = not isinstance(v, complex) and math.isfinite(v)
    except (ZeroDivisionError, OverflowError):
        ok = False
    if not ok:
        raise _NotFinite
    if v == 0 and fn is not operator.add and all(vals):
        raise _OutOfRange
    return Fraction(0) if v == 0 else v


def _num_pow(b, e):
    # an exact power is computed exactly: 9**9**8 would take minutes
    if (type(b) is Fraction and b != 0 and abs(float(e)) * abs(
            math.log10(abs(b.numerator)) - math.log10(b.denominator)) > 308):
        raise _OutOfRange
    return _fold(operator.pow, b, e)


def _factor_key(f):
    # constants first (so 2*pi*q1 and -4.8*pi**2*cos(...) print as sympy
    # printed them), then the coordinates, then the rest in creation order
    return (0, f.serial) if f.qfree else (1, f.val) if f.op == "q" else (2, f.serial)


class Tree:
    """The interned nodes of the expressions of one field and their derivatives.

    Creation order decides the order of factors and terms, so a field prints
    to the same source, and evaluates to the same bits, in every process.
    """

    def __init__(self, dim):
        self.dim = dim
        self.text = ""          # the expression named in error messages
        self._table = {}
        self._diffs = {}
        self._values = {}
        self.zero, self.one = self.num(0), self.num(1)
        self.pi = self._node("pi")
        self.q = [self._node("q", i) for i in range(dim)]

    def _node(self, op, val=None, args=()):
        key = (op, type(val), val, args)
        node = self._table.get(key)
        if node is None:
            node = self._table[key] = Node(op, val, args, len(self._table))
        return node

    # -- constructors; each returns the canonical form of its result --------

    def num(self, v):
        return self._node("num", _fold(lambda x: x if isinstance(x, float) else Fraction(x), v))

    def add(self, terms):
        const, coeffs = Fraction(0), {}
        for t in terms:
            if t.op == "num":
                const = _fold(operator.add, const, t.val)
                continue
            if t.op == "add":
                const = _fold(operator.add, const, t.val)
            for p in (t.args if t.op == "add" else (t,)):
                c, rest = Fraction(1), p
                if p.op == "mul":   # p is c times the product of its factors
                    c = p.val
                    rest = p.args[0] if len(p.args) == 1 else \
                        self._node("mul", Fraction(1), p.args)
                coeffs[rest] = _fold(operator.add, coeffs.get(rest, Fraction(0)), c)
        out = []
        for rest in sorted(coeffs, key=lambda r: r.serial):
            c = coeffs[rest]
            if c != 0:
                out.append(rest if _is_one(c) else
                           self._node("mul", c, rest.args if rest.op == "mul" else (rest,)))
        if not out:
            return self.num(const)
        if const == 0 and len(out) == 1:
            return out[0]
        return self._node("add", const, tuple(out))

    def mul(self, factors):
        coeff, powers = Fraction(1), {}
        for f in factors:
            if f.op == "num":
                coeff = _fold(operator.mul, coeff, f.val)
                continue
            if f.op == "mul":
                coeff = _fold(operator.mul, coeff, f.val)
            for g in (f.args if f.op == "mul" else (f,)):
                # constant powers of a base are collected; as in sympy, q1**q2*q1**(-q2)
                # stays, since it is not 1 where q1 < 0
                base, e = g.args if g.op == "pow" and g.args[1].qfree else (g, self.one)
                powers.setdefault(base, []).append(e)
        if coeff == 0:
            return self.zero
        out = [self.pow(b, es[0] if len(es) == 1 else self.add(es)) for b, es in powers.items()]
        if any(p.op in ("num", "mul") for p in out):
            return self.mul([self.num(coeff), *out])
        if not out:
            return self.num(coeff)
        if len(out) == 1 and out[0].op == "add" and not _is_one(coeff):
            # a number times a sum is distributed, as sympy does
            s = out[0]
            return self.add([self.num(_fold(operator.mul, coeff, s.val)),
                             *(self.mul([self.num(coeff), t]) for t in s.args)])
        if _is_one(coeff) and len(out) == 1:
            return out[0]
        return self._node("mul", coeff, tuple(sorted(out, key=_factor_key)))

    def pow(self, b, e):
        if e.op == "num":
            if e.val == 0:
                return self.one
            if _is_one(e.val):
                return b
            if b.op == "num":
                return self.num(_num_pow(b.val, e.val))
            if _exact_int(e):
                if b.op == "pow" and b.args[1].qfree:
                    return self.pow(b.args[0], self.mul([b.args[1], e]))
                if b.op == "mul":
                    return self.mul([self.num(_num_pow(b.val, e.val)),
                                     *(self.pow(f, e) for f in b.args)])
        elif b.op == "num" and b.val == 1:
            return self.one
        elif b is self.zero:
            if not e.qfree:
                raise _ZeroPower   # 0, 1 or inf by the sign of e: never a smooth field
            v = self.value(e)
            if isinstance(v, complex) or not v > 0:
                raise _NotFinite
            return self.zero
        return self._node("pow", None, (b, e))

    def fn(self, op, u):
        """sin or cos of u, exact at multiples of pi/2, with a minus sign taken out of u."""
        if u is self.zero:
            return self.zero if op == "sin" else self.one
        k = 1 if u is self.pi else u.val if u.op == "mul" and u.args == (self.pi,) else None
        if k is not None and 2 * k == int(2 * k):
            c, s = ((1, 0), (0, 1), (-1, 0), (0, -1))[int(2 * k) % 4]
            return self.num(s if op == "sin" else c)
        if u.op in ("num", "mul") and u.val < 0:
            u = self.mul([self.num(-1), u])
            return self.mul([self.num(-1), self.fn(op, u)]) if op == "sin" else self.fn(op, u)
        return self._node(op, None, (u,))

    # -- parsing -------------------------------------------------------------

    def parse(self, text):
        """The node of an expression in the grammar; nothing in the text is evaluated.

        The ast is walked against a whitelist: + - * / ** and unary +/-, int
        and float literals, pi, the coordinates, and one-argument sin and cos.
        Anything else, and a constant that is not a finite real, is a ValueError.
        """
        self.text = text
        try:
            with warnings.catch_warnings():  # "1or q1" warns; as an error it is a SyntaxError
                warnings.simplefilter("error", SyntaxWarning)
                tree = ast.parse(text, mode="eval")
        except (SyntaxError, RecursionError, MemoryError) as exc:
            raise ValueError(f"cannot parse expression {text!r}: "
                             f"{exc or 'it is nested too deeply'}") from exc
        names = {"pi": self.pi, **{f"q{i + 1}": q for i, q in enumerate(self.q)}}

        def children(node):
            if isinstance(node, ast.BinOp) and isinstance(node.op, _BINARY):
                return [node.left, node.right]
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
                return [node.operand]
            if ((isinstance(node, ast.Constant) and type(node.value) in (int, float))
                    or (isinstance(node, ast.Name) and node.id in names)):
                return []
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in _FUNCS and len(node.args) == 1 and not node.keywords):
                return [node.args[0]]
            raise ValueError(f"expression {text!r}: {self._snippet(node)!r} "
                             "is outside the grammar")

        built = {}
        for node in _postorder([tree.body], children):
            try:
                built[node] = self._build(node, built, names)
            except _OutOfRange:
                raise ValueError(f"expression {text!r}: {self._snippet(node)!r} "
                                 "is outside the float range") from None
            except _NotFinite:
                raise ValueError(f"expression {text!r}: constant {self._snippet(node)} "
                                 "is not a finite real") from None
            except _ZeroPower:
                raise ValueError(f"expression {text!r}: {self._snippet(node)!r} is a power "
                                 "of zero with a q-dependent exponent") from None
        expr = built[tree.body]
        for node in _postorder([expr], lambda n: n.args):
            if node.qfree:
                v = self.value(node)
                if isinstance(v, complex) or not math.isfinite(v):
                    raise ValueError(f"expression {text!r}: constant {self.source(node)} "
                                     "is not a finite real")
        return expr

    def _snippet(self, node):
        return ast.get_source_segment(self.text, node) or ast.dump(node)[:80]

    def _build(self, node, built, names):
        if isinstance(node, ast.BinOp):
            left, right = built[node.left], built[node.right]
            op = type(node.op)
            if op is ast.Add:
                return self.add([left, right])
            if op is ast.Sub:
                return self.add([left, self.mul([self.num(-1), right])])
            if op is ast.Mult:
                return self.mul([left, right])
            if op is ast.Div:
                return self.mul([left, self.pow(right, self.num(-1))])
            return self.pow(left, right)
        if isinstance(node, ast.UnaryOp):
            x = built[node.operand]
            return self.mul([self.num(-1), x]) if isinstance(node.op, ast.USub) else x
        if isinstance(node, ast.Constant):
            return self.num(node.value if type(node.value) is float else Fraction(node.value))
        if isinstance(node, ast.Name):
            return names[node.id]
        return self.fn(node.func.id, built[node.args[0]])

    # -- values and derivatives ----------------------------------------------

    def value(self, node):
        """The float value of a q-free node (complex where a power of a negative is)."""
        vals = self._values
        for n in _postorder([node], lambda n: () if n in vals else n.args):
            if n in vals:
                continue
            a = [vals[c] for c in n.args]
            try:
                if n.op == "num":
                    v = float(n.val)
                elif n.op == "pi":
                    v = math.pi
                elif n.op == "add":
                    v = float(n.val) + sum(a)
                elif n.op == "mul":
                    v = float(n.val) * math.prod(a)
                elif n.op == "pow":
                    v = a[0] ** a[1]
                else:
                    v = getattr(math, n.op)(a[0])
            except (ZeroDivisionError, OverflowError, ValueError, TypeError):
                v = math.nan
            vals[n] = v
        return vals[node]

    def diff(self, expr, i):
        """d expr / d q_(i+1), memoized on every node."""
        memo = self._diffs
        for n in _postorder([expr], lambda n: () if (n, i) in memo else n.args):
            if (n, i) not in memo:
                try:
                    memo[n, i] = self._diff_node(n, i)
                except (_NotFinite, _OutOfRange):
                    raise ValueError(f"field {self.text!r}: a derivative has a constant that "
                                     "is not a finite real") from None
        return memo[expr, i]

    def _diff_node(self, n, i):
        def d(a):
            return self._diffs[a, i]

        if n.qfree:
            return self.zero
        if n.op == "q":
            return self.one if n.val == i else self.zero
        if n.op == "add":
            return self.add([d(t) for t in n.args])
        if n.op == "mul":
            coeff = self.num(n.val)
            return self.add([self.mul([coeff, *n.args[:k], d(f), *n.args[k + 1:]])
                             for k, f in enumerate(n.args) if d(f) is not self.zero])
        if n.op == "pow":
            b, e = n.args
            terms = []
            if d(e) is not self.zero:
                terms.append(self.mul([d(e), self._node("log", None, (b,))]))
            if d(b) is not self.zero:
                terms.append(self.mul([d(b), e, self.pow(b, self.num(-1))]))
            return self.mul([n, self.add(terms)])
        (u,) = n.args
        if d(u) is self.zero:
            return self.zero
        if n.op == "sin":
            return self.mul([self.fn("cos", u), d(u)])
        if n.op == "cos":
            return self.mul([self.num(-1), self.fn("sin", u), d(u)])
        return self.mul([d(u), self.pow(u, self.num(-1))])

    # -- the pole rule --------------------------------------------------------

    def expanded_terms(self, base) -> float:
        """Upper bound on the number of terms of base expanded; inf past the cap."""
        count = {}
        for n in _postorder([base], lambda n: n.args):
            if n.op == "add":
                count[n] = sum(count[t] for t in n.args) + (n.val != 0)
            elif n.op == "mul":
                count[n] = math.prod(count[f] for f in n.args)
            elif n.op == "pow" and _exact_int(n.args[1]) and n.args[1].val > 0:
                k, p = count[n.args[0]], int(n.args[1].val)
                if k == 1:
                    count[n] = 1.0
                elif k > _MAX_EXPANDED_TERMS or p > _MAX_EXPANDED_TERMS:
                    count[n] = math.inf
                else:
                    c = math.comb(p + int(k) - 1, int(k) - 1)
                    count[n] = float(c) if c <= _MAX_EXPANDED_TERMS else math.inf
            else:
                count[n] = 1.0
        return count[base]

    def dominated_by_constant(self, base) -> bool:
        """Whether, expanded, base is a constant c0 plus terms that are each a
        coefficient times positive integer powers of sin and cos, and |c0|
        exceeds the summed |coefficients| of those terms.

        Real sin and cos are bounded by 1, so such a base never vanishes.
        """
        if self.expanded_terms(base) > _MAX_EXPANDED_TERMS:
            return False
        # node -> {monomial: coefficient}; a monomial is ((atom, power), ...), where
        # constants such as pi are atoms too, so that 2*pi*sin(x) and -5*sin(x)
        # are two terms with |coefficients| 2*pi and 5, as sympy expands them
        poly = {}
        for n in _postorder([base], lambda n: n.args):
            if n.op == "num":
                poly[n] = {(): float(n.val)}
            elif n.op == "add":
                p = {(): float(n.val)}
                for t in n.args:
                    p = _poly_add(p, poly[t])
                poly[n] = p
            elif n.op == "mul":
                p = {(): float(n.val)}
                for f in n.args:
                    p = _poly_mul(p, poly[f])
                poly[n] = p
            elif n.op == "pow" and _exact_int(n.args[1]):
                b, k = n.args[0], int(n.args[1].val)
                if b.op == "add" and k > 0:
                    poly[n] = _poly_pow(poly[b], k)
                elif b.op in ("add", "mul", "pow"):
                    poly[n] = {((n, 1),): 1.0}
                else:
                    poly[n] = {((b, k),): 1.0}
            else:
                poly[n] = {((n, 1),): 1.0}
        c0, bound = 0.0, 0.0
        for mono, c in poly[base].items():
            for a, k in mono:
                if a.qfree:
                    c *= self.value(a) ** k
                elif not (a.op in ("sin", "cos") and k > 0):
                    return False
            if all(a.qfree for a, _k in mono):
                c0 += c
            else:
                bound += abs(c)
        return abs(c0) > bound

    def refuse_poles(self, expr):
        """Refuse a q-dependent base under a negative power that may vanish."""
        for n in _postorder([expr], lambda n: n.args):
            if n.op != "pow":
                continue
            base, e = n.args
            if (e.qfree and not base.qfree and self.value(e) < 0
                    and not self.dominated_by_constant(base)):
                raise PreconditionViolated(
                    f"field {self.text!r}: {self.source(n)} may have a pole; a q-dependent base "
                    "under a negative power must expand to a constant that outweighs its "
                    "sin/cos terms")

    # -- printing --------------------------------------------------------------

    def source(self, expr):
        """The printed expression, inline (no locals): for messages."""
        return _Printer([expr], emit=None, inline=True).entries[0][0]

    def compile(self, entries, shape, name="field"):
        """One NumPy function of q for a field whose entries, in C order, are nodes.

        For shape () it returns the value broadcast to the batch shape of q;
        otherwise an array of batch + shape, each entry written into it.
        """
        lines = []
        printer = _Printer(entries, lines.append)
        used = sorted(printer.coords)
        body = ["q = asarray(q, dtype=float)", *(f"q{i + 1} = q[..., {i}]" for i in used),
                *lines]
        if shape == ():
            body.append(f"return _batch({printer.entries[0][0]}, q.shape[:-1])")
        else:
            body.append(f"out = empty(q.shape[:-1] + {shape!r})")
            for index, (text, _prec, _depth) in zip(np.ndindex(*shape), printer.entries):
                body.append(f"out[..., {', '.join(map(str, index))}] = {text}")
            body.append("return out")
        src = f"def {name}(q):\n" + "".join(f"    {line}\n" for line in body)
        namespace = {**_NAMESPACE, "_batch": _batch}
        exec(compile(src, f"<{name} of {self.text!r}>", "exec"), namespace)
        return namespace[name]


def _batch(val, target):
    val = np.asarray(val, dtype=float)
    return np.broadcast_to(val, target).copy() if val.shape != target else val


def _poly_add(p, r):
    out = dict(p)
    for m, c in r.items():
        out[m] = out.get(m, 0.0) + c
    return {m: c for m, c in out.items() if c != 0 or not m}


def _poly_mul(p, r):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in r.items():
            powers = dict(m1)
            for a, k in m2:
                powers[a] = powers.get(a, 0) + k
            m = tuple(sorted(((a, k) for a, k in powers.items() if k), key=lambda x: x[0].serial))
            out[m] = out.get(m, 0.0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0 or not m}


def _poly_pow(p, k):
    out = {(): 1.0}
    while k:
        if k & 1:
            out = _poly_mul(out, p)
        k >>= 1
        if k:
            p = _poly_mul(p, p)
    return out


def _num_text(v):
    """(text, precedence) of a number as Python source that reads back the same float."""
    if type(v) is float:
        return repr(v), _ATOM if v >= 0 else _NEG
    if v.denominator != 1:
        return f"({v.numerator}/{v.denominator})", _ATOM
    if abs(v) < 2 ** 53:
        return str(v.numerator), _ATOM if v >= 0 else _NEG
    return repr(float(v)), _ATOM if v >= 0 else _NEG


class _Printer:
    """Python source of the entries of one field.

    A subtree used more than once, one nested deeper than _MAX_DEPTH, and each
    run of _MAX_CHAIN operands of a long sum or product become a local,
    assigned by ``emit`` in evaluation order; left-to-right evaluation is
    kept, so every entry computes the floats the inline expression would.
    """

    def __init__(self, entries, emit, inline=False):
        self.emit, self.inline, self.n_locals, self.coords = emit, inline, 0, set()
        order = _postorder(list(entries), lambda n: n.args)
        refs = dict.fromkeys(order, 0)
        for n in order:
            for a in n.args:
                refs[a] += 1
        for e in entries:
            refs[e] += 1
        self.done = {}
        for n in order:
            text, prec, depth = self._print(n)
            if not inline and n.args and (refs[n] > 1 or depth > _MAX_DEPTH):
                text, prec, depth = self._local(text), _ATOM, 0
            self.done[n] = (text, prec, depth)
        self.entries = [self.done[e] for e in entries]

    def _local(self, text):
        name = f"x{self.n_locals}"
        self.n_locals += 1
        self.emit(f"{name} = {text}")
        return name

    def _chain(self, parts):
        """Join (operator, (text, prec, depth)) parts left to right."""
        while not self.inline and len(parts) > _MAX_CHAIN:
            head = self._chain(parts[:_MAX_CHAIN])
            parts = [("", (self._local(head[0]), _ATOM, 0))] + parts[_MAX_CHAIN:]
        text = "".join(f"{op}{t}" for op, (t, _p, _d) in parts)
        depth = max(d for _op, (_t, _p, d) in parts) + len(parts) - 1
        return text, depth

    @staticmethod
    def _wrap(item, prec):
        text, p, depth = item
        return (f"({text})", _ATOM, depth) if p < prec else item

    def _print(self, n):
        args = [self.done[a] for a in n.args]
        if n.op == "num":
            return (*_num_text(n.val), 0)
        if n.op == "pi":
            return "pi", _ATOM, 0
        if n.op == "q":
            self.coords.add(n.val)
            return f"q{n.val + 1}", _ATOM, 0
        if n.op in ("sin", "cos", "log"):
            return f"{n.op}({args[0][0]})", _ATOM, args[0][2] + 1
        if n.op == "pow":
            return self._pow(args[0], n.args[1], args[1])
        if n.op == "mul":
            return self._mul(n.val, n.args, args)
        parts = []
        for t, item in zip(n.args, args):
            if t.op == "mul" and t.val < 0 and item[1] != _ATOM:  # an inline negated term
                item = self._mul(-t.val, t.args, [self.done[a] for a in t.args])
                parts.append((" - " if parts else "-", self._wrap(item, _MUL)))
            else:
                parts.append((" + " if parts else "", self._wrap(item, _ADD + 1)))
        if n.val != 0:
            text, _prec = _num_text(abs(n.val))
            parts.append((" - " if n.val < 0 else " + ", (text, _ATOM, 0)))
        text, depth = self._chain(parts)
        return text, _ADD, depth

    def _pow(self, base, e_node, e):
        if _exact_int(e_node) and e_node.val < 0:
            e = (f"({float(e_node.val)!r})", _ATOM, 0)   # as sympy prints it
        return self._power(base, e)

    def _power(self, base, e):
        base, e = self._wrap(base, _ATOM), self._wrap(e, _ATOM)
        return f"{base[0]}**{e[0]}", _POW, max(base[2], e[2]) + 1

    def _mul(self, coeff, factors, items):
        num, den = [], []
        for f, item in zip(factors, items):
            if f.op == "pow" and _exact_int(f.args[1]) and f.args[1].val < 0:
                base = self.done[f.args[0]]
                k = -f.args[1].val
                den.append(base if k == 1 else self._power(base, (*_num_text(k), 0)))
            else:
                num.append(item)
        parts = [("*" if i else "", self._wrap(it, _MUL + 1 if i else _MUL))
                 for i, it in enumerate(num)]
        if coeff == -1 and type(coeff) is Fraction and parts:
            op, (t, p, d) = parts[0]
            parts[0] = (op, (f"-{t}", p, d))
        elif not _is_one(coeff) or not parts:
            parts.insert(0, ("", (*_num_text(coeff), 0)))
            if len(parts) > 1:
                parts[1] = ("*", parts[1][1])
        if den:
            dparts = [("*" if i else "", self._wrap(it, _MUL + 1)) for i, it in enumerate(den)]
            text, depth = self._chain(dparts)
            item = (text, _MUL, depth) if len(den) > 1 else dparts[0][1]
            parts.append(("/", self._wrap(item, _MUL + 1)))
        text, depth = self._chain(parts)
        return text, _MUL, depth
