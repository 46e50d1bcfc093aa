"""The oracle over compiled assertions ≡ a paper-literal reference loop.

The reference below decides ``ρ⟦T⟧ = ∀s. (ρ + ch(s))⟦T⟧`` (§3.3) the
slow, obvious way: it builds a :class:`ChannelHistory` for every
instance and asks :func:`evaluate_formula`.  The oracle must return the
same :class:`Verdict` — method, instance count and counterexample — on
both its exhaustive and its randomized path, or raise the same
:class:`DischargeError`.  The memo tests pin that proof checking reuses
the search's verdicts and that rebinding ``env``/``config`` misses.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assertions.ast import BoolLit
from repro.assertions.eval import evaluate_formula
from repro.assertions.parser import parse_assertion
from repro.assertions.sequences import cancel_protocol
from repro.assertions.simplify import simplify
from repro.assertions.substitution import channels_mentioned, formula_free_variables
from repro.errors import DischargeError, EvaluationError
from repro.proof.checker import ProofChecker
from repro.proof.oracle import Oracle, OracleConfig, Verdict
from repro.soundness.generators import AssertionGenerator
from repro.systems import protocol
from repro.traces.histories import ChannelHistory
from repro.values.domains import FiniteDomain
from repro.values.environment import Environment
from repro.values.expressions import Const, NamedSet, RangeSet, SetLiteral, Var

pytestmark = pytest.mark.differential

CHANS = {"input", "wire", "output", "c"}
ENV = Environment(
    {"f": cancel_protocol, "M": FiniteDomain({0, 1}), "n": 1}
)
SMALL = dict(value_pool=(0, 1), max_history_length=2)


def reference_verdict(oracle, formula, var_domains=None):
    """The oracle's decision, one ``ChannelHistory`` per instance."""
    var_domains = dict(var_domains or {})
    folded = simplify(formula)
    if isinstance(folded, BoolLit):
        return Verdict(
            folded.value, "syntactic", 1, None if folded.value else "simplifies to false"
        )
    config = oracle.config
    variables = sorted(formula_free_variables(formula) - set(oracle.env.names()))
    assignments = oracle._assignments(variables, var_domains)
    refs = sorted(channels_mentioned(formula), key=repr)

    def concrete(env):
        chans = set()
        for ref in refs:
            try:
                chans.add(ref.evaluate(env))
            except EvaluationError:
                pass
        return sorted(chans, key=lambda c: c.sort_key())

    pool = config.value_pool
    per_channel = [
        seq
        for length in range(config.max_history_length + 1)
        for seq in itertools.product(pool, repeat=length)
    ]
    n_chans = len({r.name for r in refs}) + sum(1 for r in refs if r.index is not None)
    total = max(len(assignments), 1) * len(per_channel) ** min(n_chans, len(refs))

    def exhaustive():
        for assignment in assignments:
            env = oracle.env.bind_all(assignment)
            chans = concrete(env)
            for combo in itertools.product(per_channel, repeat=len(chans)):
                yield env, ChannelHistory(dict(zip(chans, combo)))

    def sampled():
        rng = random.Random(config.seed)
        ordered = oracle._ordered_variables(list(variables), var_domains)
        for _ in range(config.random_trials):
            assignment = {}
            for name in ordered:
                if name in var_domains:
                    values = oracle._domain_values(
                        var_domains[name], oracle.env.bind_all(assignment)
                    )
                else:
                    values = pool
                if not values:
                    break
                assignment[name] = rng.choice(values)
            if len(assignment) < len(ordered):
                continue
            env = oracle.env.bind_all(assignment)
            history = {}
            for chan in concrete(env):
                length = rng.randrange(config.max_history_length + 1)
                history[chan] = tuple(rng.choice(pool) for _ in range(length))
            yield env, ChannelHistory(history)

    if total <= config.exhaustive_limit:
        method, instances = "exhaustive-bounded", exhaustive()
    else:
        method, instances = "randomized", sampled()
    evaluated = errors = 0
    first = None
    for env, history in instances:
        try:
            ok = evaluate_formula(formula, env, history, config.eval_config)
        except EvaluationError as exc:
            errors += 1
            first = first or str(exc)
            continue
        evaluated += 1
        if not ok:
            detail = ", ".join(f"{c!r}={s!r}" for c, s in history.items())
            return Verdict(False, method, evaluated, detail or "empty histories")
    if evaluated == 0:
        raise DischargeError(
            f"oracle could not evaluate {formula!r} on any instance "
            f"({errors} evaluation errors) — {first or 'no instance to evaluate'}"
        )
    return Verdict(True, method, evaluated, None)


def outcome(decide):
    try:
        return decide()
    except DischargeError as exc:
        return ("DischargeError", str(exc))


def assert_same(formula, var_domains=None, **config):
    oracle = Oracle(ENV, OracleConfig(**config))
    expected = outcome(lambda: reference_verdict(oracle, formula, var_domains))
    assert outcome(lambda: oracle.holds(formula, var_domains)) == expected
    return expected


#: (formula, eigenvariable domains): eigenvariables over declared sets,
#: free variables over the pool, indexed channels closed and under binders.
CASES = [
    ("wire <= input", None),
    ("input <= wire", None),
    ("f(wire) <= x ^ input", {"x": NamedSet("M")}),
    ("f(wire) <= x ^ input", None),
    ("c[i] <= c[i] ++ wire", {"i": RangeSet(Const(0), Const(2))}),
    ("#c[i] <= #c[k] + 1", {"i": RangeSet(Const(0), Const(1)), "k": SetLiteral((Var("i"),))}),
    ("#c[n] <= #c[n - 1] + n", None),
    ("forall j : {0..2} . #c[j] <= 2", None),
    ("(sum j : 0..1 . #c[j]) <= #wire + #c[0] + #c[1]", None),
    ("x = 0 or x = 1", {"x": NamedSet("M")}),
    ("#wire <= wire", None),  # errors on every instance
    ("exists j : {0..1} . c[j] = wire", None),
    # the binder's c[j] reads the slot its closed sibling c[0] opened
    ("c[0] = wire => (exists j : {0..1} . c[j] = wire)", None),
]


@pytest.mark.parametrize("text, domains", CASES)
@pytest.mark.parametrize(
    "config",
    [SMALL, dict(SMALL, exhaustive_limit=40, random_trials=300)],
    ids=["exhaustive", "randomized"],
)
def test_fixed_cases(text, domains, config):
    assert_same(parse_assertion(text, CHANS), domains, **config)


def test_both_paths_are_exercised():
    formula = parse_assertion("c[i] <= c[i] ++ wire", CHANS)
    domains = {"i": RangeSet(Const(0), Const(2))}
    exhaustive = assert_same(formula, domains, **SMALL)
    randomized = assert_same(
        formula, domains, **dict(SMALL, exhaustive_limit=40, random_trials=300)
    )
    assert exhaustive.method == "exhaustive-bounded"
    assert randomized.method == "randomized"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), limit=st.sampled_from([200_000, 30]))
def test_generated_formulas(seed, limit):
    gen = AssertionGenerator(seed=seed, channels=("input", "wire", "output"))
    for formula in (gen.formula(), gen.formula_over(("wire",))):
        assert_same(formula, exhaustive_limit=limit, random_trials=200, **SMALL)


# -- the verdict memo ---------------------------------------------------------


class CountingOracle(Oracle):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.decided = []

    def _decide(self, formula, var_domains):
        self.decided.append(formula)
        return super()._decide(formula, var_domains)


def test_checker_discharges_are_the_search_verdicts():
    oracle = CountingOracle(protocol.environment(), OracleConfig(value_pool=(0, 1, "ACK", "NACK")))
    searched = []
    original = oracle.holds

    def recording(formula, var_domains=None):
        verdict = original(formula, var_domains)
        searched.append(verdict)
        return verdict

    oracle.holds = recording
    prover = protocol.prover()
    prover.oracle = oracle
    proof = prover.prove_name("protocol")
    decided_in_search = len(oracle.decided)
    search_verdicts = list(searched)
    report = ProofChecker(protocol.definitions(), oracle).check(proof)
    assert report.discharges
    # Every discharge of the checker *is* a verdict object of the search,
    # and checking decided nothing anew.
    for discharge in report.discharges:
        assert any(discharge.verdict is v for v in search_verdicts)
    assert len(oracle.decided) == decided_in_search


def test_memo_hit_returns_the_same_verdict():
    oracle = CountingOracle(ENV, OracleConfig(**SMALL))
    formula = parse_assertion("f(wire) <= x ^ input", CHANS)
    domains = {"x": NamedSet("M")}
    first = oracle.holds(formula, domains)
    assert oracle.holds(formula, dict(domains)) is first
    assert len(oracle.decided) == 1
    # Different eigenvariable domains are a different question.
    oracle.holds(formula)
    assert len(oracle.decided) == 2


def test_rebinding_env_or_config_misses_the_memo():
    formula = parse_assertion("#wire <= n", CHANS)
    oracle = CountingOracle(Environment({"n": 3}), OracleConfig(**SMALL))
    assert oracle.holds(formula).ok
    oracle.env = Environment({"n": 0})
    refuted = oracle.holds(formula)
    assert not refuted.ok and len(oracle.decided) == 2
    oracle.config = OracleConfig(value_pool=(0,), max_history_length=0)
    assert oracle.holds(formula).ok  # only ⟨⟩ histories now
    assert len(oracle.decided) == 3

