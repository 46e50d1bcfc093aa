"""Semantic discharge of pure premises (the trust boundary of proofs).

The paper's proofs lean on steps justified "(def f)", "(trans ≤)",
"(theorem)" — facts of sequence arithmetic valid for *all* channel
histories and variable values.  §3.3 defines their semantics:

    ρ⟦T⟧ = ∀s. (ρ + ch(s))⟦T⟧

The oracle decides such facts by bounded exhaustive evaluation: every
assignment of pool values to free variables (eigenvariables range over
their declared domains instead) and every assignment of bounded-length
histories to the mentioned channels.  When the combination space exceeds
a limit it falls back to seeded random sampling.  The formula is compiled
once (:mod:`repro.assertions.compiled`) and bound once per variable
assignment; the histories stream into the bound function as tuples.

This is deliberately a *refutation-complete-up-to-bounds* decision
procedure, not a theorem prover; every discharge records its method and
instance count, and :class:`~repro.proof.checker.CheckReport` surfaces
them, so the trust boundary of a checked proof is explicit (DESIGN.md §4).
"""

from __future__ import annotations

import itertools
import random
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.assertions.ast import BoolLit, Formula
from repro.assertions.compiled import CompiledFormula, compile_formula
from repro.assertions.eval import DEFAULT_EVAL_CONFIG, EvalConfig
from repro.assertions.substitution import channels_mentioned, formula_free_variables
from repro.errors import DischargeError, EvaluationError
from repro.traces.events import Channel
from repro.traces.histories import ChannelHistory
from repro.values.domains import Domain
from repro.values.environment import Environment
from repro.values.expressions import SetExpr


class OracleConfig:
    """Bounds for the oracle's search.

    ``value_pool`` supplies candidate values for unconstrained variables
    and for channel messages; ``max_history_length`` bounds the histories
    tried per channel; above ``exhaustive_limit`` total instances the
    oracle samples ``random_trials`` assignments instead (seeded).
    """

    __slots__ = (
        "value_pool",
        "max_history_length",
        "exhaustive_limit",
        "random_trials",
        "seed",
        "eval_config",
    )

    def __init__(
        self,
        value_pool: Sequence[object] = (0, 1, "ACK", "NACK"),
        max_history_length: int = 3,
        exhaustive_limit: int = 200_000,
        random_trials: int = 5_000,
        seed: int = 0,
        eval_config: EvalConfig = DEFAULT_EVAL_CONFIG,
    ) -> None:
        self.value_pool = tuple(value_pool)
        self.max_history_length = max_history_length
        self.exhaustive_limit = exhaustive_limit
        self.random_trials = random_trials
        self.seed = seed
        self.eval_config = eval_config

    def __repr__(self) -> str:
        return (
            f"OracleConfig(pool={self.value_pool!r}, "
            f"hist≤{self.max_history_length})"
        )


def _evaluable_channels(channel_refs, env: Environment):
    """The concrete channels of the refs whose subscripts evaluate under
    ``env``.  Refs whose subscript mentions a quantifier-bound variable
    (e.g. ``row[j]`` under a Σ) are skipped: their instantiated siblings
    cover the relevant channels, and any channel absent from a history
    reads as ⟨⟩ — part of the oracle's documented bounds."""
    concrete = set()
    for ref in channel_refs:
        try:
            concrete.add(ref.evaluate(env))
        except EvaluationError:
            continue
    return sorted(concrete, key=lambda c: c.sort_key())


class Verdict(NamedTuple):
    """Outcome of a discharge attempt."""

    ok: bool
    method: str  # 'exhaustive-bounded' or 'randomized'
    instances: int
    counterexample: Optional[str]


DomainLike = Union[Domain, SetExpr]


class Oracle:
    """Decides pure formulas by bounded evaluation.

    Verdicts are memoised per ``(formula, eigenvariable domains)`` on the
    instance, keyed also by the *identity* of :attr:`env` and
    :attr:`config` — rebinding either misses the memo.  The decision is
    deterministic (exhaustive enumeration, or a fresh ``Random(seed)``
    per call), so a memo hit is the very verdict a recomputation would
    return: proof search and proof checking discharge each side
    condition once between them.
    """

    def __init__(
        self, env: Optional[Environment] = None, config: Optional[OracleConfig] = None
    ) -> None:
        self.env = env if env is not None else Environment()
        self.config = config if config is not None else OracleConfig()
        self._verdicts: Dict[Hashable, Verdict] = {}

    # -- public API --------------------------------------------------------

    def holds(
        self,
        formula: Formula,
        var_domains: Optional[Mapping[str, DomainLike]] = None,
    ) -> Verdict:
        """Decide ``⊨ formula``.  ``var_domains`` constrains eigenvariables
        to their declared sets; other free variables range over the pool."""
        var_domains = dict(var_domains or {})
        key = (self.env, self.config, formula, tuple(sorted(var_domains.items())))
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._decide(formula, var_domains)
            self._verdicts[key] = verdict
        return verdict

    def require(
        self,
        formula: Formula,
        var_domains: Optional[Mapping[str, DomainLike]] = None,
    ) -> Verdict:
        """Like :meth:`holds`, raising :class:`DischargeError` on failure."""
        verdict = self.holds(formula, var_domains)
        if not verdict.ok:
            raise DischargeError(
                f"oracle refuted {formula!r}"
                + (f": {verdict.counterexample}" if verdict.counterexample else "")
            )
        return verdict

    def _decide(
        self, formula: Formula, var_domains: Mapping[str, DomainLike]
    ) -> Verdict:
        # Fast path: many side conditions (R_<> blanks especially) fold to
        # a literal truth value syntactically, for every history and value.
        from repro.assertions.simplify import simplify

        folded = simplify(formula)
        if isinstance(folded, BoolLit):
            return Verdict(folded.value, "syntactic", 1, None if folded.value else "simplifies to false")
        variables = sorted(formula_free_variables(formula) - set(self.env.names()))
        assignments = self._assignments(variables, var_domains)
        channel_refs = sorted(channels_mentioned(formula), key=repr)
        # Upper bound on instance count (subscripts may collapse channels).
        n_chans = len({ref.name for ref in channel_refs}) + sum(
            1 for ref in channel_refs if ref.index is not None
        )
        total = max(len(assignments), 1) * self._history_count(
            min(n_chans, len(channel_refs))
        )
        compiled = compile_formula(formula, self.config.eval_config)
        if total <= self.config.exhaustive_limit:
            batches = self._exhaustive(compiled, channel_refs, assignments)
            return self._run(formula, batches, "exhaustive-bounded")
        batches = self._sampled(compiled, channel_refs, variables, var_domains)
        return self._run(formula, batches, "randomized")

    # -- instance generation ----------------------------------------------

    def _domain_values(
        self, domain: DomainLike, env: Optional[Environment] = None
    ) -> Tuple[object, ...]:
        if isinstance(domain, SetExpr):
            domain = domain.evaluate(env if env is not None else self.env)
        return domain.sample(len(self.config.value_pool) + 8)

    def _ordered_variables(
        self, variables: List[str], var_domains: Mapping[str, DomainLike]
    ) -> List[str]:
        """Order eigenvariables so that any whose domain mentions another
        eigenvariable comes after it (e.g. ``k ∈ {j}`` inside the dining
        philosophers' fork)."""
        remaining = list(variables)
        ordered: List[str] = []
        while remaining:
            progressed = False
            for name in list(remaining):
                domain = var_domains.get(name)
                deps = (
                    domain.free_variables() & set(remaining)
                    if isinstance(domain, SetExpr)
                    else set()
                )
                if not deps - {name}:
                    ordered.append(name)
                    remaining.remove(name)
                    progressed = True
            if not progressed:
                raise DischargeError(
                    f"cyclic eigenvariable domains among {remaining!r}"
                )
        return ordered

    def _assignments(
        self, variables: List[str], var_domains: Mapping[str, DomainLike]
    ) -> List[Dict[str, object]]:
        ordered = self._ordered_variables(variables, var_domains)
        partials: List[Dict[str, object]] = [{}]
        for name in ordered:
            extended: List[Dict[str, object]] = []
            for partial in partials:
                if name in var_domains:
                    env = self.env.bind_all(partial)
                    values = self._domain_values(var_domains[name], env)
                else:
                    values = self.config.value_pool
                for value in values:
                    extended.append({**partial, name: value})
            partials = extended
        return partials

    def _history_count(self, n_channels: int) -> int:
        pool = len(self.config.value_pool)
        per = sum(pool ** l for l in range(self.config.max_history_length + 1))
        return per ** n_channels

    def _bound(
        self, compiled: CompiledFormula, channel_refs, assignment: Dict[str, object]
    ) -> Tuple[Callable[[tuple], bool], List[Channel]]:
        """The formula bound to ``ρ + assignment``, one slot per concrete
        channel it mentions, and those channels in slot order."""
        env = self.env.bind_all(assignment)
        channels = _evaluable_channels(channel_refs, env)
        fn = compiled.bind(env, {chan: i for i, chan in enumerate(channels)})
        return fn, channels

    def _exhaustive(
        self, compiled: CompiledFormula, channel_refs, assignments
    ) -> Iterator[_Batch]:
        """Every assignment, each with every combination of bounded
        histories for its channels — streamed, never materialised."""
        pool = self.config.value_pool
        all_seqs = [
            seq
            for length in range(self.config.max_history_length + 1)
            for seq in itertools.product(pool, repeat=length)
        ]
        for assignment in assignments:
            fn, channels = self._bound(compiled, channel_refs, assignment)
            yield fn, channels, itertools.product(all_seqs, repeat=len(channels))

    def _sampled(
        self,
        compiled: CompiledFormula,
        channel_refs,
        variables: List[str],
        var_domains: Mapping[str, DomainLike],
    ) -> Iterator[_Batch]:
        rng = random.Random(self.config.seed)
        pool = self.config.value_pool
        ordered = self._ordered_variables(list(variables), var_domains)
        bound: Dict[tuple, Tuple[Callable[[tuple], bool], List[Channel]]] = {}
        for _ in range(self.config.random_trials):
            assignment: Dict[str, object] = {}
            for name in ordered:
                if name in var_domains:
                    env = self.env.bind_all(assignment)
                    values = self._domain_values(var_domains[name], env)
                else:
                    values = pool
                if not values:
                    break
                assignment[name] = rng.choice(values)
            if len(assignment) < len(ordered):
                continue
            key = tuple(assignment.values())
            if key not in bound:
                bound[key] = self._bound(compiled, channel_refs, assignment)
            fn, channels = bound[key]
            seqs = []
            for _chan in channels:
                length = rng.randrange(self.config.max_history_length + 1)
                seqs.append(tuple(rng.choice(pool) for _ in range(length)))
            yield fn, channels, (tuple(seqs),)

    # -- evaluation loop -----------------------------------------------------

    def _run(self, formula: Formula, batches: Iterator[_Batch], method: str) -> Verdict:
        evaluated = 0
        errors = 0
        first_error: Optional[str] = None
        for fn, channels, combos in batches:
            for seqs in combos:
                try:
                    ok = fn(seqs)
                except EvaluationError as exc:
                    errors += 1
                    if first_error is None:
                        first_error = str(exc)
                    continue
                evaluated += 1
                if not ok:
                    return Verdict(False, method, evaluated, _describe(channels, seqs))
        if evaluated == 0:
            raise DischargeError(
                f"oracle could not evaluate {formula!r} on any instance "
                f"({errors} evaluation errors) — "
                + (first_error or "no instance to evaluate")
            )
        return Verdict(True, method, evaluated, None)


#: One binding of the formula and the histories to feed it:
#: ``(fn, channels in slot order, iterable of seqs tuples)``.
_Batch = Tuple[Callable[[tuple], bool], List[Channel], Iterable[tuple]]


def _describe(channels: Sequence[Channel], seqs: tuple) -> str:
    history = ChannelHistory(dict(zip(channels, seqs)))
    parts = [f"{chan!r}={seq!r}" for chan, seq in history.items()]
    return ", ".join(parts) or "empty histories"
