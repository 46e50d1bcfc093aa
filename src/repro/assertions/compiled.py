"""Compiled assertions: ``(ρ + ch(s))⟦R⟧`` without re-reading the AST.

:func:`~repro.assertions.eval.evaluate_formula` interprets a formula node
by node, dispatching on the node class and re-resolving every variable,
host function and channel subscript for each history it is asked about.
The proof oracle (``ρ⟦T⟧ = ∀s. (ρ + ch(s))⟦T⟧``, §3.3) and the ``sat``
checker ask about hundreds of thousands of histories per formula, so
this module does that work once:

* :func:`compile_formula` walks the formula once and returns a
  :class:`CompiledFormula` — a tree of builders, one per node, with the
  node-class dispatch already done;
* :meth:`CompiledFormula.bind` specialises the tree to one environment
  ``ρ`` and one *slot map* (concrete channel → position) and returns
  ``fn(seqs)``, the truth of the formula when ``seqs[i]`` is the history
  of the channel in slot ``i``.  Channels without a slot read ⟨⟩, exactly
  as ``ch(s)(c) = ⟨⟩`` for channels absent from ``s``.

Binding resolves what ``ρ`` fixes: variable and host-function lookups,
channel subscripts and quantifier domains that mention no variable bound
inside the formula.  A closed channel reference becomes a fixed slot
read.  References under a ∀/∃/Σ binder (the multiplier's ``row[j]``)
resolve at run time through the same slot map.  A lookup that fails at
bind time becomes a closure that repeats it — and so raises the same
error — when evaluation reaches it, so short-circuiting still decides
which errors are ever raised.

The interpreter in :mod:`repro.assertions.eval` stays the reference: the
compiled form returns the same truth value and raises the same
:class:`~repro.errors.EvaluationError` messages on every formula,
environment and history (``tests/assertions/test_compiled.py``).
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional, Tuple

from repro.assertions.ast import (
    Apply,
    Arith,
    BoolLit,
    ChannelTrace,
    Compare,
    Concat,
    Cons,
    ConstTerm,
    Exists,
    ForAll,
    Formula,
    Implies,
    Index,
    Length,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    SeqLit,
    Sum,
    VarTerm,
)
from repro.assertions.eval import (
    DEFAULT_EVAL_CONFIG,
    EvalConfig,
    _is_int,
    _require_int,
    _require_seq,
)
from repro.assertions.sequences import is_seq_prefix, is_strict_seq_prefix, seq_index
from repro.errors import EvaluationError
from repro.traces.events import Channel
from repro.values.environment import Environment
from repro.values.expressions import (
    BinOp,
    Const,
    FuncCall,
    IntSet,
    NamedSet,
    NatSet,
    RangeSet,
    SetLiteral,
    SetUnion,
    UnaryOp,
    Var,
)

Seqs = Tuple[Tuple[Any, ...], ...]
#: A bound node: ``run(seqs, frame)`` — ``frame[k]`` holds the value of
#: the k-th enclosing binder variable (outermost first).
Runner = Callable[[Seqs, Optional[list]], Any]
#: A compiled node: ``build(env, slots)`` returns its runner.
Builder = Callable[[Environment, Mapping[Channel, int]], Runner]
Scope = Tuple[str, ...]


class CompiledFormula:
    """A formula compiled once; :meth:`bind` it per environment."""

    __slots__ = ("_build", "_frame_size")

    def __init__(self, build: Builder, frame_size: int) -> None:
        self._build = build
        self._frame_size = frame_size

    def bind(
        self, env: Environment, slots: Mapping[Channel, int]
    ) -> Callable[[Seqs], bool]:
        """``fn(seqs)``: the formula's truth under ``env`` when each
        channel ``c`` of ``slots`` has history ``seqs[slots[c]]`` and
        every other channel has history ⟨⟩."""
        run = self._build(env, slots)
        size = self._frame_size
        if size == 0:
            return lambda seqs: run(seqs, None)
        return lambda seqs: run(seqs, [None] * size)


def compile_formula(
    formula: Formula, config: EvalConfig = DEFAULT_EVAL_CONFIG
) -> CompiledFormula:
    """Compile ``formula``; quantifiers enumerate ``config.quant_bound``
    values, as in :func:`~repro.assertions.eval.evaluate_formula`."""
    compiler = _Compiler(config.quant_bound)
    build = compiler.formula(formula, ())
    return CompiledFormula(build, compiler.frame_size)


# ---------------------------------------------------------------------------
# Names an expression reads from its environment
# ---------------------------------------------------------------------------


def _reads(expr: Any) -> Optional[FrozenSet[str]]:
    """The names a value or set expression looks up when evaluated —
    variables, host functions and set names alike — or ``None`` for an
    expression class this module does not know (always evaluated late)."""
    kind = type(expr)
    if kind in (Const, NatSet, IntSet):
        return frozenset()
    if kind in (Var, NamedSet):
        return frozenset((expr.name,))
    names: FrozenSet[str] = frozenset()
    if kind is FuncCall:
        names, parts = frozenset((expr.name,)), expr.args
    elif kind is BinOp:
        parts = (expr.left, expr.right)
    elif kind is UnaryOp:
        parts = (expr.operand,)
    elif kind is SetLiteral:
        parts = expr.elements
    elif kind is RangeSet:
        parts = (expr.low, expr.high)
    elif kind is SetUnion:
        parts = expr.parts
    else:
        return None
    for part in parts:
        inner = _reads(part)
        if inner is None:
            return None
        names |= inner
    return names


def _closed(expr: Any, scope: Scope) -> bool:
    """Whether ``expr`` reads no binder variable of ``scope``: its value
    is then fixed by the environment alone."""
    reads = _reads(expr)
    return reads is not None and not reads & set(scope)


def _frame_index(scope: Scope, name: str) -> int:
    """The frame position of the innermost binder of ``name``."""
    return len(scope) - 1 - scope[::-1].index(name)


def _late(expr: Any, scope: Scope, env: Environment) -> Callable[[list], Any]:
    """Evaluate ``expr`` at run time under ``env`` extended with the
    binder values in scope (innermost binding of a name wins)."""
    visible = {name: _frame_index(scope, name) for name in scope}
    if not visible:
        return lambda frame: expr.evaluate(env)
    return lambda frame: expr.evaluate(
        env.bind_all({name: frame[k] for name, k in visible.items()})
    )


def _constant(value: Any) -> Builder:
    run = lambda seqs, frame: value  # noqa: E731
    return lambda env, slots: run


# -- strict operators: every operand is evaluated, then checked -------------


def _cons(head: Any, tail: Any) -> tuple:
    _require_seq(tail, "⌢ (cons)")
    return (head,) + tail


def _concat(left: Any, right: Any) -> tuple:
    _require_seq(left, "++")
    _require_seq(right, "++")
    return left + right


def _length(seq: Any) -> int:
    _require_seq(seq, "#")
    return len(seq)


def _arith(op: str) -> Callable[[Any, Any], int]:
    apply = {
        "+": operator.add,
        "-": operator.sub,
        "*": operator.mul,
        "div": operator.floordiv,
        "mod": operator.mod,
    }[op]
    divides = op in ("div", "mod")

    def arith(left, right):
        _require_int(left, op)
        _require_int(right, op)
        if divides and right == 0:
            raise EvaluationError(f"division by zero in {op}")
        return apply(left, right)

    return arith


def _comparison(op: str) -> Callable[[Any, Any], bool]:
    """``=``/``!=`` on any values; the paper's overloaded orders — prefix
    order on two sequences, numeric order on two numbers — otherwise."""
    if op == "=":
        return operator.eq
    if op == "!=":
        return operator.ne
    on_seqs, on_numbers = {
        "<=": (is_seq_prefix, operator.le),
        "<": (is_strict_seq_prefix, operator.lt),
        ">=": (lambda a, b: is_seq_prefix(b, a), operator.ge),
        ">": (lambda a, b: is_strict_seq_prefix(b, a), operator.gt),
    }[op]

    def compare(left, right):
        if isinstance(left, tuple) and isinstance(right, tuple):
            return on_seqs(left, right)
        if _is_int(left) and _is_int(right):
            return on_numbers(left, right)
        raise EvaluationError(
            f"cannot compare {left!r} {op} {right!r}: operands must be two "
            f"sequences or two numbers"
        )

    return compare


# ---------------------------------------------------------------------------
# The compiler: one builder per node, dispatch done here, never at run time
# ---------------------------------------------------------------------------


class _Compiler:
    def __init__(self, quant_bound: int) -> None:
        self.quant_bound = quant_bound
        self.frame_size = 0

    def term(self, node: Any, scope: Scope) -> Builder:
        """A term position (``evaluate_term``'s dispatch)."""
        return self._dispatch(node, scope, _TERMS, "term")

    def formula(self, node: Any, scope: Scope) -> Builder:
        """A formula position (``evaluate_formula``'s dispatch)."""
        return self._dispatch(node, scope, _FORMULAS, "formula")

    def _dispatch(self, node: Any, scope: Scope, table: dict, what: str) -> Builder:
        for kind in type(node).__mro__:
            compile_node = table.get(kind)
            if compile_node is not None:
                return compile_node(self, node, scope)
        message = f"unknown {what} {node!r}"

        def run(seqs, frame):
            raise EvaluationError(message)

        return lambda env, slots: run

    def binder(self, scope: Scope, variable: str) -> Tuple[int, Scope]:
        """Frame index and inner scope for a binder of ``variable``."""
        inner = scope + (variable,)
        self.frame_size = max(self.frame_size, len(inner))
        return len(scope), inner

    def strict(self, combine: Callable[..., Any], scope: Scope, *operands) -> Builder:
        """Evaluate the operand terms left to right, then ``combine``."""
        builders = [self.term(operand, scope) for operand in operands]
        if len(builders) == 1:
            (only,) = builders

            def build_one(env, slots):
                run = only(env, slots)
                return lambda seqs, frame: combine(run(seqs, frame))

            return build_one
        if len(builders) == 2:
            first, second = builders

            def build_two(env, slots):
                a, b = first(env, slots), second(env, slots)
                return lambda seqs, frame: combine(a(seqs, frame), b(seqs, frame))

            return build_two

        def build(env, slots):
            runs = [b(env, slots) for b in builders]
            return lambda seqs, frame: combine(*[r(seqs, frame) for r in runs])

        return build

    # -- terms ---------------------------------------------------------------

    def const(self, term: ConstTerm, scope: Scope) -> Builder:
        return _constant(term.value)

    def var(self, term: VarTerm, scope: Scope) -> Builder:
        name = term.name
        if name in scope:
            k = _frame_index(scope, name)
            run = lambda seqs, frame: frame[k]  # noqa: E731
            return lambda env, slots: run

        def build(env, slots):
            try:
                value = env.lookup(name)
            except Exception:
                return lambda seqs, frame: env.lookup(name)
            return lambda seqs, frame: value

        return build

    def channel(self, term: ChannelTrace, scope: Scope) -> Builder:
        ref = term.channel
        closed = ref.index is None or _closed(ref.index, scope)

        def build(env, slots):
            if closed:
                try:
                    index = slots.get(ref.evaluate(env))
                except Exception:
                    pass  # the run-time read below repeats the failure
                else:
                    if index is None:
                        return lambda seqs, frame: ()
                    return lambda seqs, frame: seqs[index]
            # Channel equality is (name, subscript) equality, so a map
            # keyed by subscript answers slots.get(Channel(name, v)).
            by_subscript = {c.index: i for c, i in slots.items() if c.name == ref.name}
            if type(ref.index) is Var and ref.index.name in scope:
                subscript = operator.itemgetter(_frame_index(scope, ref.index.name))
            else:
                subscript = _late(ref.index, scope, env)

            def run(seqs, frame):
                index = by_subscript.get(subscript(frame))
                return () if index is None else seqs[index]

            return run

        return build

    def seq_lit(self, term: SeqLit, scope: Scope) -> Builder:
        if not term.elements:
            return _constant(())
        return self.strict(lambda *values: values, scope, *term.elements)

    def cons(self, term: Cons, scope: Scope) -> Builder:
        return self.strict(_cons, scope, term.head, term.tail)

    def concat(self, term: Concat, scope: Scope) -> Builder:
        return self.strict(_concat, scope, term.left, term.right)

    def length(self, term: Length, scope: Scope) -> Builder:
        return self.strict(_length, scope, term.sequence)

    def arith(self, term: Arith, scope: Scope) -> Builder:
        return self.strict(_arith(term.op), scope, term.left, term.right)

    def index(self, term: Index, scope: Scope) -> Builder:
        # Not strict: the sequence is checked before the index is evaluated.
        seq_b, index_b = self.term(term.sequence, scope), self.term(term.index, scope)

        def build(env, slots):
            sequence, position = seq_b(env, slots), index_b(env, slots)

            def run(seqs, frame):
                seq = sequence(seqs, frame)
                _require_seq(seq, "indexing")
                i = position(seqs, frame)
                _require_int(i, "index")
                try:
                    return seq_index(seq, i)
                except IndexError as exc:
                    raise EvaluationError(str(exc)) from exc

            return run

        return build

    def apply(self, term: Apply, scope: Scope) -> Builder:
        # Not strict: the function is looked up and checked first.
        name = term.name
        arg_bs = [self.term(a, scope) for a in term.args]
        bound = _frame_index(scope, name) if name in scope else None

        def build(env, slots):
            args = [b(env, slots) for b in arg_bs]
            func: Any = None
            if bound is None:
                try:
                    func = env.lookup(name, kind="function")
                except Exception:
                    return lambda seqs, frame: env.lookup(name, kind="function")

            def run(seqs, frame):
                f = frame[bound] if bound is not None else func
                if not callable(f):
                    raise EvaluationError(f"{name!r} is not bound to a function")
                values = [a(seqs, frame) for a in args]
                try:
                    return f(*values)
                except EvaluationError:
                    raise
                except Exception as exc:
                    raise EvaluationError(f"{name}(...) raised {exc!r}") from exc

            return run

        return build

    def sum(self, term: Sum, scope: Scope) -> Builder:
        low_b, high_b = self.term(term.low, scope), self.term(term.high, scope)
        k, inner = self.binder(scope, term.variable)
        body_b = self.term(term.body, inner)

        def build(env, slots):
            low, high, body = low_b(env, slots), high_b(env, slots), body_b(env, slots)

            def run(seqs, frame):
                lo = low(seqs, frame)
                hi = high(seqs, frame)
                _require_int(lo, "Σ lower bound")
                _require_int(hi, "Σ upper bound")
                total = 0
                for value in range(lo, hi + 1):
                    frame[k] = value
                    summand = body(seqs, frame)
                    _require_int(summand, "Σ body")
                    total += summand
                return total

            return run

        return build

    # -- formulas -------------------------------------------------------------

    def bool_lit(self, formula: BoolLit, scope: Scope) -> Builder:
        return _constant(formula.value)

    def compare(self, formula: Compare, scope: Scope) -> Builder:
        return self.strict(
            _comparison(formula.op), scope, formula.left, formula.right
        )

    def conj(self, formula: LogicalAnd, scope: Scope) -> Builder:
        left_b = self.formula(formula.left, scope)
        right_b = self.formula(formula.right, scope)

        def build(env, slots):
            left, right = left_b(env, slots), right_b(env, slots)
            return lambda seqs, frame: left(seqs, frame) and right(seqs, frame)

        return build

    def disj(self, formula: LogicalOr, scope: Scope) -> Builder:
        left_b = self.formula(formula.left, scope)
        right_b = self.formula(formula.right, scope)

        def build(env, slots):
            left, right = left_b(env, slots), right_b(env, slots)
            return lambda seqs, frame: left(seqs, frame) or right(seqs, frame)

        return build

    def neg(self, formula: LogicalNot, scope: Scope) -> Builder:
        operand_b = self.formula(formula.operand, scope)

        def build(env, slots):
            operand = operand_b(env, slots)
            return lambda seqs, frame: not operand(seqs, frame)

        return build

    def implies(self, formula: Implies, scope: Scope) -> Builder:
        ante_b = self.formula(formula.antecedent, scope)
        cons_b = self.formula(formula.consequent, scope)

        def build(env, slots):
            antecedent, consequent = ante_b(env, slots), cons_b(env, slots)
            return lambda seqs, frame: (
                not antecedent(seqs, frame) or consequent(seqs, frame)
            )

        return build

    def quantifier(self, formula: Any, scope: Scope) -> Builder:
        universal = isinstance(formula, ForAll)
        domain = formula.domain
        bound = self.quant_bound
        k, inner = self.binder(scope, formula.variable)
        body_b = self.formula(formula.body, inner)
        closed = _closed(domain, scope)

        def build(env, slots):
            body = body_b(env, slots)
            values = None
            if closed:
                try:
                    values = tuple(domain.evaluate(env).enumerate(bound))
                except Exception:
                    pass  # the run-time evaluation below repeats the failure
            if values is None:
                late = _late(domain, scope, env)
                domain_values = lambda frame: late(frame).enumerate(bound)  # noqa: E731
            else:
                domain_values = lambda frame: values  # noqa: E731

            # Like all()/any(): ∀ stops at the first false body, ∃ at the
            # first true one.
            def run(seqs, frame):
                for value in domain_values(frame):
                    frame[k] = value
                    if bool(body(seqs, frame)) is not universal:
                        return not universal
                return universal

            return run

        return build


_TERMS: Dict[type, Callable[[_Compiler, Any, Scope], Builder]] = {
    ConstTerm: _Compiler.const,
    VarTerm: _Compiler.var,
    ChannelTrace: _Compiler.channel,
    SeqLit: _Compiler.seq_lit,
    Cons: _Compiler.cons,
    Concat: _Compiler.concat,
    Length: _Compiler.length,
    Index: _Compiler.index,
    Arith: _Compiler.arith,
    Apply: _Compiler.apply,
    Sum: _Compiler.sum,
}

_FORMULAS: Dict[type, Callable[[_Compiler, Any, Scope], Builder]] = {
    BoolLit: _Compiler.bool_lit,
    Compare: _Compiler.compare,
    LogicalAnd: _Compiler.conj,
    LogicalOr: _Compiler.disj,
    LogicalNot: _Compiler.neg,
    Implies: _Compiler.implies,
    ForAll: _Compiler.quantifier,
    Exists: _Compiler.quantifier,
}
