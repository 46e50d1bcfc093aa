"""The compiled trie walk ≡ the paper-literal per-trace loop.

``SatChecker._check_trie`` judges each trie node with the formula
compiled once over a slot tuple threaded down the edges;
``_check_flat`` recomputes ``ch(s)`` for every trace and asks the
reference interpreter.  On the paper's systems both must report the same
verdict, the same canonical breadth-first counterexample (trace and
error text) and the same ``traces_checked``.
"""

import pytest

from repro.assertions.parser import parse_assertion
from repro.process.ast import ArrayRef, Name
from repro.sat.checker import SatChecker
from repro.semantics.config import SemanticsConfig
from repro.systems import copier, multiplier, philosophers, protocol, register
from repro.values.expressions import Const

pytestmark = pytest.mark.differential


def _summary(result):
    cex = result.counterexample
    return (
        result.holds,
        result.traces_checked,
        None if cex is None else (cex.trace, cex.error),
    )


def assert_walks_agree(make_checker, process, specs, channels):
    trie, flat = make_checker(True), make_checker(False)
    outcomes = set()
    for spec in specs:
        formula = parse_assertion(spec, channels)
        a = trie.check(process, formula)
        b = flat.check(process, formula)
        assert _summary(a) == _summary(b), spec
        outcomes.add(a.holds)
    return outcomes


def test_copier():
    def make(trie_walk):
        return SatChecker(
            copier.definitions(), copier.environment(), SemanticsConfig(6, 2),
            trie_walk=trie_walk,
        )

    outcomes = assert_walks_agree(
        make,
        Name("network"),
        ["output <= input", "input <= output", "#input <= #output + 1", "input@2 = 0"],
        copier.CHANNELS,
    )
    assert True in outcomes and False in outcomes


def test_protocol():
    def make(trie_walk):
        return SatChecker(
            protocol.definitions(), protocol.environment(), SemanticsConfig(5, 2),
            trie_walk=trie_walk,
        )

    assert_walks_agree(
        make,
        Name("protocol"),
        ["output <= input", "input <= output", "#output <= #input", "f(wire) <= input"],
        protocol.CHANNELS,
    )
    assert_walks_agree(
        make, Name("sender"), ["f(wire) <= input", "wire <= input"], protocol.CHANNELS
    )


def test_register():
    def make(trie_walk):
        return SatChecker(
            register.definitions(), register.environment(), SemanticsConfig(5, 2),
            trie_walk=trie_walk,
        )

    for initial in (0, 1):
        spec = register.integrity_spec(initial)
        process = ArrayRef("reg", Const(initial))
        trie, flat = make(True).check(process, spec), make(False).check(process, spec)
        assert _summary(trie) == _summary(flat)
        assert trie.holds
    assert_walks_agree(
        make,
        ArrayRef("reg", Const(0)),
        ["forall i : NAT . 1 <= i & i <= #get => get@i = 0", "#get <= #set + 2"],
        register.CHANNELS,
    )


def test_philosophers():
    def make(trie_walk):
        return SatChecker(
            philosophers.definitions(3), philosophers.environment(),
            SemanticsConfig(depth=6, sample=3), engine="operational",
            trie_walk=trie_walk,
        )

    specs = [
        "#drop[0] <= #grab[0] & #grab[0] <= #drop[0] + 1",
        "#eat[0] + #eat[1] <= 1",
        "#grab[1] = 0",
        "forall i : {0..2} . #release[i] <= #reach[i]",
    ]
    outcomes = assert_walks_agree(make, Name("table"), specs, philosophers.CHANNELS)
    assert True in outcomes and False in outcomes


def test_multiplier_sum_over_row_channels():
    def make(trie_walk):
        checker = multiplier.checker(depth=4, sample=2)
        checker.trie_walk = trie_walk
        return checker

    wrong = (
        "forall i : NAT . 1 <= i & i <= #output =>"
        " output@i = (sum j : 1..3 . v(j) * row[j]@i) + 1"
    )
    outcomes = assert_walks_agree(
        make,
        Name("multiplier"),
        [str(multiplier.specification()), wrong, "output@1 = 0"],
        multiplier.CHANNELS,
    )
    assert True in outcomes and False in outcomes
