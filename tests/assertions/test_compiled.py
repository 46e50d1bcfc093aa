"""Compiled assertions ≡ the reference interpreter (§3.3 ``ρ + ch(s)``).

Every formula is evaluated twice on the same environment and history:
by :func:`repro.assertions.eval.evaluate_formula` over a
:class:`ChannelHistory`, and by ``compile_formula(...).bind(env, slots)``
over the slot tuple.  The two must agree on the truth value, and on the
class and message of any error raised.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.assertions.compiled import compile_formula
from repro.assertions.eval import EvalConfig, evaluate_formula
from repro.assertions.sequences import cancel_protocol
from repro.errors import EvaluationError
from repro.process.channels import ChannelExpr
from repro.soundness.generators import AssertionGenerator
from repro.systems import multiplier
from repro.traces.events import Channel
from repro.traces.histories import ChannelHistory
from repro.values.domains import FiniteDomain
from repro.values.environment import Environment
from repro.values.expressions import (
    BinOp,
    Const,
    FuncCall,
    NamedSet,
    NatSet,
    RangeSet,
    SetLiteral,
    Var,
)

pytestmark = pytest.mark.differential

CONFIG = EvalConfig(quant_bound=4)
VALUES = (0, 1, 2, "ACK")
#: Every channel a generated formula can name, closed or under a binder.
UNIVERSE = (
    Channel("a"),
    Channel("b"),
    Channel("c", 0),
    Channel("c", 1),
    Channel("c", 2),
)


def _raises_evaluation_error(*args):
    raise EvaluationError("host refused")


HOSTS = {
    "f": cancel_protocol,
    "g": lambda *args: len(args),
    "h": _raises_evaluation_error,
}


def run_both(formula, env, history, slots_universe=UNIVERSE):
    """``(kind, payload)`` from each evaluator: ``("ok", truth)`` or
    ``(exception class, message)``."""

    def outcome(thunk):
        try:
            return ("ok", thunk())
        except Exception as exc:  # class and message are both compared
            return (type(exc), str(exc))

    reference = outcome(
        lambda: evaluate_formula(formula, env, ChannelHistory(history), CONFIG)
    )
    slots = {chan: i for i, chan in enumerate(slots_universe)}
    seqs = tuple(history.get(chan, ()) for chan in slots_universe)
    compiled = outcome(lambda: compile_formula(formula, CONFIG).bind(env, slots)(seqs))
    return reference, compiled


# -- strategies ---------------------------------------------------------------

values = st.sampled_from(VALUES)
small_ints = st.integers(min_value=0, max_value=3)

subscripts = st.one_of(
    small_ints.map(Const),
    st.sampled_from(["i", "j", "x", "ghost"]).map(Var),
    small_ints.map(lambda n: BinOp("-", Var("i"), Const(n))),
    st.just(FuncCall("g", (Var("j"),))),
)
channel_refs = st.one_of(
    st.sampled_from(["a", "b", "d"]).map(ChannelExpr),
    subscripts.map(lambda e: ChannelExpr("c", e)),
)
domains = st.one_of(
    st.lists(values.map(Const), max_size=3).map(lambda xs: SetLiteral(tuple(xs))),
    st.just(NatSet()),
    st.just(NamedSet("M")),
    st.just(NamedSet("x")),
    small_ints.map(lambda n: RangeSet(Const(0), Const(n))),
    st.just(RangeSet(Const(0), Var("i"))),
)

leaf_terms = st.one_of(
    values.map(ConstTerm),
    st.sampled_from(["x", "y", "i", "j"]).map(VarTerm),
    channel_refs.map(ChannelTrace),
    st.just(SeqLit(())),
)


def _extend_terms(children):
    bounds = st.one_of(small_ints.map(ConstTerm), children.map(Length))
    return st.one_of(
        st.lists(children, max_size=3).map(lambda xs: SeqLit(tuple(xs))),
        st.builds(Cons, children, children),
        st.builds(Concat, children, children),
        st.builds(Length, children),
        st.builds(Index, children, children),
        st.builds(
            Arith, st.sampled_from(["+", "-", "*", "div", "mod"]), children, children
        ),
        st.builds(
            Apply,
            st.sampled_from(["f", "g", "h", "x", "nowhere", "j"]),
            st.lists(children, max_size=2).map(tuple),
        ),
        st.builds(Sum, st.sampled_from(["j", "x"]), bounds, bounds, children),
    )


terms = st.recursive(leaf_terms, _extend_terms, max_leaves=6)

comparisons = st.builds(
    Compare, st.sampled_from(["<=", "<", "=", "!=", ">", ">="]), terms, terms
)


def _extend_formulas(children):
    return st.one_of(
        st.builds(LogicalAnd, children, children),
        st.builds(LogicalOr, children, children),
        st.builds(LogicalNot, children),
        st.builds(Implies, children, children),
        st.builds(ForAll, st.sampled_from(["i", "j", "x"]), domains, children),
        st.builds(Exists, st.sampled_from(["i", "j", "x"]), domains, children),
    )


formulas = st.recursive(
    st.one_of(st.booleans().map(BoolLit), comparisons), _extend_formulas, max_leaves=5
)


@st.composite
def environments(draw):
    bindings = dict(HOSTS)
    bindings["M"] = FiniteDomain(draw(st.lists(values, max_size=3)))
    for name in ("x", "y", "i"):
        if draw(st.booleans()):
            bindings[name] = draw(values)
    return Environment(bindings)


histories = st.dictionaries(
    st.sampled_from(UNIVERSE),
    st.lists(values, min_size=1, max_size=3).map(tuple),
    max_size=len(UNIVERSE),
)


# -- properties ----------------------------------------------------------------


@settings(max_examples=600, deadline=None)
@given(formula=formulas, env=environments(), history=histories)
def test_compiled_matches_interpreter(formula, env, history):
    reference, compiled = run_both(formula, env, history)
    assert compiled == reference


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10_000), history=histories)
def test_generated_formulas_match(seed, history):
    gen = AssertionGenerator(seed=seed, channels=("a", "b", "wire"))
    for formula in (gen.formula(), gen.formula_over(("a", "b"))):
        reference, compiled = run_both(formula, Environment(), history)
        assert compiled == reference


@settings(max_examples=200, deadline=None)
@given(formula=formulas, env=environments(), history=histories)
def test_unslotted_channels_read_empty(formula, env, history):
    # Only the channels a history actually records get slots; every
    # other channel must read ⟨⟩, as ch(s)(c) does.
    present = tuple(sorted(history, key=Channel.sort_key))
    reference, compiled = run_both(formula, env, history, slots_universe=present)
    assert compiled == reference


# -- fixed cases ----------------------------------------------------------------


def test_multiplier_sum_over_row_channels():
    formula = multiplier.specification()
    env = multiplier.environment()
    rows = {Channel("row", j): (j, j + 1) for j in (1, 2, 3)}
    good = sum(v * j for v, j in zip((2, 3, 5), (1, 2, 3)))
    for output, expected in (((good,), True), ((good + 1,), False)):
        history = {**rows, Channel("output"): output}
        reference, compiled = run_both(formula, env, history, tuple(history))
        assert reference == compiled == ("ok", expected)


def test_failed_lookup_raises_only_when_reached():
    # `ghost` is unbound, but the guard short-circuits before reaching it.
    formula = LogicalOr(BoolLit(True), Compare("=", VarTerm("ghost"), ConstTerm(0)))
    fn = compile_formula(formula).bind(Environment(), {})
    assert fn(()) is True
    reached = compile_formula(Compare("=", VarTerm("ghost"), ConstTerm(0)))
    with pytest.raises(EvaluationError, match="unbound variable: 'ghost'"):
        reached.bind(Environment(), {})(())


def test_bind_specialises_per_environment():
    formula = Compare("<=", Length(ChannelTrace(ChannelExpr("c", Var("i")))), ConstTerm(1))
    compiled = compile_formula(formula)
    slots = {Channel("c", 0): 0, Channel("c", 1): 1}
    seqs = ((7,), (7, 8))
    assert compiled.bind(Environment({"i": 0}), slots)(seqs) is True
    assert compiled.bind(Environment({"i": 1}), slots)(seqs) is False
    assert compiled.bind(Environment({"i": 5}), slots)(seqs) is True  # no slot: ⟨⟩


A, B = ChannelTrace(ChannelExpr("a")), ChannelTrace(ChannelExpr("b"))
C_J = ChannelTrace(ChannelExpr("c", Var("j")))
ZERO, ONE = ConstTerm(0), ConstTerm(1)

#: One formula per evaluation path, errors included — a deterministic
#: floor under the generated cases.
PATHS = {
    "div by zero": Compare("=", Arith("div", ONE, ZERO), ZERO),
    "mod by zero": Compare("=", Arith("mod", ONE, Length(SeqLit(()))), ZERO),
    "mod": Compare("=", Arith("mod", ConstTerm(7), ConstTerm(3)), ONE),
    "arith on a sequence": Compare("=", Arith("+", A, ONE), ZERO),
    "not a function": Compare("=", Apply("x", ()), ZERO),
    "unbound function": Compare("=", Apply("nowhere", (Length(A),)), ZERO),
    "host EvaluationError": Compare("=", Apply("h", ()), ZERO),
    "host TypeError": Compare("=", Apply("f", (ONE,)), ZERO),
    "host ok": Compare("=", Apply("f", (A,)), A),
    "index out of range": Compare("=", Index(A, ConstTerm(9)), ZERO),
    "index by a sequence": Compare("=", Index(A, A), ZERO),
    "cons onto a number": Compare("=", Cons(ONE, ONE), A),
    "concat": Compare("<=", A, Concat(A, B)),
    "length of a number": Compare("=", Length(ONE), ZERO),
    "mixed compare": Compare("<=", Length(A), A),
    "prefix": Compare("<", A, B),
    "sum bound not a number": Compare("=", Sum("j", A, ONE, ONE), ZERO),
    "sum body not a number": Compare("=", Sum("j", ZERO, ONE, A), ZERO),
    "sum over c[j]": Compare(
        "=", Sum("j", ZERO, ConstTerm(4), Length(C_J)), ConstTerm(3)
    ),
    "c[j] without a slot": ForAll(
        "j", RangeSet(Const(3), Const(5)), Compare("=", C_J, SeqLit(()))
    ),
    "unbound subscript": Compare("=", ChannelTrace(ChannelExpr("c", Var("ghost"))), A),
    "domain not a set": ForAll("j", NamedSet("x"), BoolLit(True)),
    "dependent domain": ForAll(
        "i",
        RangeSet(Const(0), Const(2)),
        Exists("j", RangeSet(Const(0), Var("i")), Compare("=", VarTerm("j"), VarTerm("i"))),
    ),
    "shadowed binder": ForAll(
        "x", NatSet(), Exists("x", SetLiteral((Const(0),)), Compare("=", VarTerm("x"), ZERO))
    ),
    "binder shadows a function": Compare(
        "=", Sum("g", ZERO, ONE, Apply("g", ())), ZERO
    ),
    "unknown formula": LogicalAnd(BoolLit(True), ConstTerm(1)),
    "unknown term": Compare("=", BoolLit(True), ZERO),
}


@pytest.mark.parametrize("name", sorted(PATHS))
def test_each_evaluation_path(name):
    env = Environment({**HOSTS, "x": 1})
    history = {
        Channel("a"): (1, 2),
        Channel("b"): (1, 2, 0),
        Channel("c", 0): (5,),
        Channel("c", 2): (5, 6),
    }
    for universe in (UNIVERSE, tuple(history)):
        reference, compiled = run_both(PATHS[name], env, history, universe)
        assert compiled == reference
