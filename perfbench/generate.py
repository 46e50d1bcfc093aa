"""Seeded input generator for the end-to-end benchmark.

Every workload input is built here from the ``--seed`` argument: the
``.csp`` systems (copier chains, the §2.2 protocol, dining philosophers,
buffer chains, twin state machines), the assertions checked against
them, the invariants handed to ``repro prove``, sabotaged variants, and
the serve request stream.

The seed changes only what leaves the amount of work alone: channel and
process names, message values, the sabotage chosen among variants of the
same shape, the order of commands, and the request stream drawn from a
fixed Zipf popularity.  Renaming a system gives an isomorphic one, so
trace counts do not depend on the seed; they sit in :data:`GOLDEN`, and
the benchmark's tests recompute them with both the denotational and the
operational engine.

Every generated command carries its expected exit code and verdict by
construction: a correct family HOLDS (or its proof is checked), a
sabotaged one is VIOLATED (or prints ``PROOF FAILED``).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Identifier pools; none is a keyword of the process or assertion syntax.
CHANNEL_WORDS = (
    "amber", "basin", "cable", "ditch", "ember", "flume", "gully", "haven",
    "inlet", "jetty", "kiln", "ledge", "marsh", "notch", "orbit", "prism",
    "quay", "ridge", "sluice", "trough", "umber", "vault", "wharf", "yoke",
)
PROCESS_WORDS = (
    "alder", "birch", "cedar", "dogwood", "elder", "fir", "ginkgo", "hazel",
    "ilex", "juniper", "kapok", "larch", "maple", "nutmeg", "olive", "poplar",
    "quince", "rowan", "spruce", "tamarack", "upas", "willow", "yew", "zelkova",
)

class Namer:
    """Draws distinct seeded identifiers for one generated system.

    Each call returns its names in alphabetical order, so a role keeps
    its rank among the names on every seed.  Tactic search, trace order
    and counterexample search all follow name order; fixing the ranks
    keeps their cost the same whatever names the seed picks.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def channels(self, count: int) -> List[str]:
        return sorted(self._rng.sample(CHANNEL_WORDS, count))

    def processes(self, count: int) -> List[str]:
        return sorted(self._rng.sample(PROCESS_WORDS, count))


@dataclass(frozen=True)
class System:
    """One generated ``.csp`` file plus what the commands need to know."""

    key: str  #: file stem, unique within a workload
    family: str  #: copier, protocol, philosophers, buffer, twins
    size: int  #: cells, places, seats, or array width
    source: str
    target: str  #: the process to check (last equation)
    holds: Tuple[str, ...]  #: assertions that hold
    violated: Tuple[str, ...]  #: assertions with a counterexample
    options: Tuple[str, ...] = ()  #: --set / --with-cancel bindings
    invariants: Tuple[str, ...] = ()  #: correct ``--invariant`` list
    wrong_invariants: Tuple[str, ...] = ()  #: sabotaged ``--invariant`` list

    @property
    def sets(self) -> List[str]:
        """The ``--set`` bindings among :attr:`options`."""
        opts = self.options
        return [opts[i + 1] for i, o in enumerate(opts) if o == "--set"]

    @property
    def with_cancel(self) -> Optional[str]:
        opts = self.options
        return opts[opts.index("--with-cancel") + 1] if "--with-cancel" in opts else None


@dataclass(frozen=True)
class Expect:
    """The answer a command must give."""

    exit_code: int
    verdict: str  #: HOLDS, VIOLATED, TRACES, STATS, PARSE, DEADLOCKS, PROVED, PROOF FAILED
    count: Optional[int] = None  #: traces (or deadlocking traces), when fixed
    cache_hits: Optional[bool] = None  #: stats: must the snapshot cache hit?
    names: Tuple[str, ...] = ()  #: parse: names the pretty-printer must show
    verdicts: Tuple["Expect", ...] = ()  #: serve batches: one per spec


@dataclass(frozen=True)
class Command:
    """One ``python -m repro`` invocation of a CLI workload."""

    label: str  #: kind shown in traces and tables, e.g. ``check-cold``
    argv: Tuple[str, ...]  #: arguments after ``python -m repro``
    expect: Expect
    system: str  #: System.key
    #: cached situation: cold and warm runs of one situation share a
    #: ``--cache-dir`` (fresh per pass); empty for uncached commands
    situation: str = ""


@dataclass(frozen=True)
class Request:
    """One ``check`` request of the serve workload."""

    system: str
    depth: int
    sample: int
    specs: Tuple[str, ...]  #: one spec, or a batch
    expect: Expect


@dataclass
class Workload:
    """The generated inputs of one workload."""

    systems: Dict[str, System] = field(default_factory=dict)
    commands: List[Command] = field(default_factory=list)
    requests: List[Request] = field(default_factory=list)
    warmup: List[Request] = field(default_factory=list)


# -- families ---------------------------------------------------------------


def copier_chain(rng: random.Random, cells: int, key: str) -> System:
    """``cells`` one-place copiers linked head to tail, links concealed."""
    n = Namer(rng)
    links = n.channels(cells + 1)
    *procs, net = n.processes(cells + 1)
    lines = [
        f"{procs[i]} = {links[i]}?x:NAT -> {links[i + 1]}!x -> {procs[i]};"
        for i in range(cells)
    ]
    hidden = ", ".join(links[1:-1])
    lines.append(f"{net} = chan {hidden}; ({' || '.join(procs)})")
    first, last = links[0], links[-1]
    invariants = tuple(
        f"{procs[i]}={links[i + 1]} <= {links[i]}" for i in range(cells)
    ) + (f"{net}={last} <= {first}",)
    # Sabotage: the network claims a message is always in flight, which
    # the empty history already refutes.
    wrong = invariants[:-1] + (f"{net}=#{last} + 1 <= #{first}",)
    return System(
        key, "copier", cells, "\n".join(lines) + "\n", net,
        holds=(f"{last} <= {first}", f"#{last} <= #{first}"),
        violated=(f"{first} <= {last}",),
        invariants=invariants, wrong_invariants=wrong,
    )


def protocol(rng: random.Random, key: str, sabotage: Optional[int] = None) -> System:
    """The §2.2 acknowledgement protocol over a seeded two-value ``M``.

    ``sabotage`` 0 makes the receiver also output a NACKed message, 1
    makes the sender drop a NACKed message; either breaks
    ``output <= input`` at the same small depth.
    """
    n = Namer(rng)
    inp, wire, out = n.channels(3)
    sender, q, receiver, top = n.processes(4)
    a, b = sorted(rng.sample(range(2, 40), 2))
    retry = f"{q}[x]"
    nack_out = ""
    if sabotage == 0:
        nack_out = f"{out}!z -> "
    elif sabotage == 1:
        retry = sender
    source = (
        f"{sender} = {inp}?y:M -> {q}[y];\n"
        f"{q}[x:M] = {wire}!x -> ({wire}?y:{{ACK}} -> {sender}"
        f" | {wire}?y:{{NACK}} -> {retry});\n"
        f"{receiver} = {wire}?z:M -> ({wire}!ACK -> {out}!z -> {receiver}"
        f" | {wire}!NACK -> {nack_out}{receiver});\n"
        f"{top} = chan {wire}; ({sender} || {receiver})\n"
    )
    invariants = (
        f"{sender}=f({wire}) <= {inp}",
        f"{q}:x=f({wire}) <= x ^ {inp}",
        f"{receiver}={out} <= f({wire})",
        f"{top}={out} <= {inp}",
    )
    # Sabotage: the protocol claims a message is always in flight.
    wrong = invariants[:3] + (f"{top}=#{out} + 1 <= #{inp}",)
    spec = f"{out} <= {inp}"
    return System(
        key, "protocol" if sabotage is None else "protocol-sabotaged", 2,
        source, top,
        holds=() if sabotage is not None else (spec, f"#{out} <= #{inp}"),
        violated=(spec,) if sabotage is not None else (f"{inp} <= {out}",),
        options=("--set", f"M={a},{b}", "--with-cancel", "f"),
        invariants=invariants, wrong_invariants=wrong,
    )


def philosophers(rng: random.Random, key: str, seats: int = 3) -> System:
    """Dining philosophers: fork safety holds, all-grab-left deadlocks."""
    n = Namer(rng)
    grab, reach, eat, drop, release = n.channels(5)
    phil, fork, table = n.processes(3)
    m = f"{{0..{seats - 1}}}"
    right = f"(i+{seats - 1}) mod {seats}"
    components = [f"{phil}[{i}]" for i in range(seats)] + [
        f"{fork}[{i}]" for i in range(seats)
    ]
    source = (
        f"{phil}[i:{m}] = {grab}[i]!i -> {reach}[i]!i -> {eat}[i]!i -> "
        f"{drop}[i]!i -> {release}[i]!i -> {phil}[i];\n"
        f"{fork}[i:{m}] = {grab}[i]?j:{m} -> {drop}[i]?k:{{j}} -> {fork}[i]"
        f" | {reach}[{right}]?j:{m} -> {release}[{right}]?k:{{j}} -> {fork}[i];\n"
        f"{table} = {' || '.join(components)}\n"
    )
    i = rng.randrange(seats)
    safety = (
        f"#{drop}[{i}] <= #{grab}[{i}] & #{grab}[{i}] <= #{drop}[{i}] + 1"
        f" & #{release}[{i}] <= #{reach}[{i}]"
        f" & #{reach}[{i}] <= #{release}[{i}] + 1"
    )
    return System(
        key, "philosophers", seats, source, table,
        holds=(safety,),
        violated=(f"#{grab}[{i}] <= #{drop}[{i}]",),
    )


def buffer_chain(rng: random.Random, places: int, key: str) -> System:
    """An ``places``-cell FIFO built from one parametric copier cell."""
    n = Namer(rng)
    (link,) = n.channels(1)
    cell, top = n.processes(2)
    chain = " || ".join(f"{cell}[{i}]" for i in range(1, places + 1))
    source = (
        f"{cell}[i:{{1..{places}}}] = {link}[i-1]?x:NAT -> {link}[i]!x -> {cell}[i];\n"
        f"{top} = chan {link}[1..{places - 1}]; ({chain})\n"
    )
    order = f"{link}[{places}] <= {link}[0]"
    capacity = f"#{link}[0] <= #{link}[{places}] + {places}"
    invariants = (
        f"{cell}:i={link}[i] <= {link}[i-1] & #{link}[i-1] <= #{link}[i] + 1",
        f"{top}={order} & {capacity}",
    )
    # Sabotage: the buffer claims a message is always in flight.
    wrong = invariants[:1] + (
        f"{top}={order} & #{link}[{places}] + 1 <= #{link}[0]",
    )
    return System(
        key, "buffer", places, source, top,
        holds=(order, capacity),
        violated=(f"{link}[0] <= {link}[{places}]",),
        invariants=invariants, wrong_invariants=wrong,
    )


def twins(rng: random.Random, key: str, width: int = 211) -> System:
    """Two independent ``width``-entry state-machine arrays (each one
    strongly connected component) — the engine's solve-bound case."""
    n = Namer(rng)
    a1, b1, a2, b2 = n.channels(4)
    m1, m2, top = n.processes(3)

    def machine(m: str, a: str, b: str) -> str:
        return (
            f"{m}[i:{{0..{width - 1}}}] = {a}?x:{{0,1,2,3}} "
            f"-> {b}!((i+x) mod 5) -> {m}[(i+x*97+1) mod {width}]"
        )

    source = f"{machine(m1, a1, b1)};\n{machine(m2, a2, b2)};\n{top} = {m1}[0]\n"
    return System(key, "twins", width, source, top, holds=(), violated=())


# -- expected answers -------------------------------------------------------

#: Trace counts of each family at each bound, keyed by
#: ``(family, size, depth, sample)``.  Independent of the seed (renaming
#: is an isomorphism) and cross-checked across both engines by the tests.
GOLDEN: Dict[Tuple[str, int, int, int], int] = {
    ("copier", 2, 5, 2): 73,
    ("copier", 2, 6, 2): 169,
    ("copier", 2, 7, 2): 297,
    ("copier", 2, 12, 2): 10921,
    ("copier", 3, 5, 2): 145,
    ("copier", 3, 6, 2): 313,
    ("protocol", 2, 5, 2): 73,
    ("protocol", 2, 6, 2): 169,
    ("protocol", 2, 7, 2): 297,
    ("protocol", 2, 13, 2): 19113,
    ("protocol", 2, 14, 2): 43689,
    ("buffer", 2, 5, 2): 73,
    ("buffer", 2, 6, 2): 169,
    ("buffer", 3, 5, 2): 145,
    ("buffer", 3, 6, 2): 313,
    ("philosophers", 3, 4, 3): 46,
    ("philosophers", 3, 5, 3): 64,
    ("philosophers", 3, 12, 3): 3526,
    ("twins", 211, 16, 211): 174761,
}

#: Deadlocking traces, keyed like :data:`GOLDEN`.
DEADLOCKS: Dict[Tuple[str, int, int, int], int] = {
    ("copier", 2, 6, 2): 0,
    ("protocol", 2, 6, 2): 0,
    ("buffer", 3, 6, 2): 0,
    ("philosophers", 3, 6, 3): 6,
    ("philosophers", 3, 10, 3): 54,
}


def traces_count(system: System, depth: int, sample: int) -> int:
    """The golden trace count; a missing entry is a generator bug."""
    return GOLDEN[(system.family, system.size, depth, sample)]


def deadlock_count(system: System, depth: int, sample: int) -> int:
    return DEADLOCKS[(system.family, system.size, depth, sample)]


def _bounds(depth: int, sample: int) -> Tuple[str, ...]:
    return ("--depth", str(depth), "--sample", str(sample))


def check_command(
    system: System, spec: str, depth: int, sample: int, label: str,
    engine: str = "denotational", extra: Sequence[str] = (),
) -> Command:
    holds = spec in system.holds
    expect = Expect(
        0 if holds else 1,
        "HOLDS" if holds else "VIOLATED",
        traces_count(system, depth, sample) if holds else None,
    )
    argv = (
        "check", f"{system.key}.csp", "--process", system.target, "--spec", spec,
        *_bounds(depth, sample), "--engine", engine, *system.options, *extra,
    )
    return Command(label, argv, expect, system.key)


def traces_command(system: System, depth: int, sample: int, label: str) -> Command:
    expect = Expect(0, "TRACES", traces_count(system, depth, sample))
    argv = ("traces", f"{system.key}.csp", "--process", system.target,
            *_bounds(depth, sample), *system.options)
    return Command(label, argv, expect, system.key)


def stats_command(
    system: System, depth: int, sample: int, label: str,
    engine: str = "denotational", warm: Optional[bool] = None,
    extra: Sequence[str] = (),
) -> Command:
    expect = Expect(0, "STATS", traces_count(system, depth, sample), cache_hits=warm)
    argv = ("stats", f"{system.key}.csp", "--process", system.target,
            *_bounds(depth, sample), "--engine", engine, *system.options, *extra)
    return Command(label, argv, expect, system.key)


def deadlocks_command(system: System, depth: int, sample: int) -> Command:
    count = deadlock_count(system, depth, sample)
    expect = Expect(1 if count else 0, "DEADLOCKS", count)
    argv = ("deadlocks", f"{system.key}.csp", "--process", system.target,
            *_bounds(depth, sample), *system.options)
    return Command("deadlocks", argv, expect, system.key)


def parse_command(system: System) -> Command:
    names = tuple(
        line.split("=")[0].split("[")[0].strip()
        for line in system.source.splitlines() if "=" in line
    )
    return Command("parse", ("parse", f"{system.key}.csp"),
                   Expect(0, "PARSE", names=names), system.key)


def prove_command(system: System, wrong: bool = False) -> Command:
    argv = ["prove", f"{system.key}.csp", "--goal", system.target, *system.options]
    for invariant in system.wrong_invariants if wrong else system.invariants:
        argv += ["--invariant", invariant]
    expect = Expect(1, "PROOF FAILED") if wrong else Expect(0, "PROVED")
    label = f"prove-{system.family}{system.size}" + ("-wrong" if wrong else "")
    return Command(label, tuple(argv), expect, system.key)


def _cold_warm(rng: random.Random, pairs: List[Tuple[Command, Command]],
               once: List[Command]) -> List[Command]:
    """Every cold command (and the uncached ones) in seeded order, then
    every warm one: each cached situation runs cold before it runs warm."""
    cold = [c for c, _ in pairs] + once
    warm = [w for _, w in pairs]
    rng.shuffle(cold)
    rng.shuffle(warm)
    return cold + warm


def cli_cold(seed: int) -> Workload:
    """Short commands at depth ≤ 6, each cached situation cold then warm."""
    rng = random.Random(f"cli-cold/{seed}")
    copier = copier_chain(rng, 2, "copier")
    proto = protocol(rng, "protocol")
    phil = philosophers(rng, "philosophers")
    buf = buffer_chain(rng, 3, "buffer")
    work = Workload({s.key: s for s in (copier, proto, phil, buf)})

    def twice(make) -> Tuple[Command, Command]:
        situation = f"situation{len(pairs)}"
        return tuple(
            dataclasses.replace(make(t), situation=situation)
            for t in ("cold", "warm")
        )

    pairs: List[Tuple[Command, Command]] = []
    for make in (
        lambda t: check_command(copier, copier.holds[0], 6, 2, f"check-{t}"),
        lambda t: check_command(copier, copier.violated[0], 6, 2, f"check-{t}"),
        lambda t: traces_command(copier, 5, 2, f"traces-{t}"),
        lambda t: stats_command(copier, 6, 2, f"stats-{t}", warm=t == "warm"),
        lambda t: check_command(proto, proto.holds[0], 6, 2, f"check-{t}"),
        lambda t: check_command(
            proto, proto.holds[0], 6, 2, f"check-op-{t}", engine="operational"),
        lambda t: check_command(
            phil, phil.holds[0], 5, 3, f"check-op-{t}", engine="operational"),
        lambda t: stats_command(
            phil, 5, 3, f"stats-op-{t}", engine="operational", warm=t == "warm"),
        lambda t: check_command(buf, buf.holds[0], 6, 2, f"check-{t}"),
        lambda t: traces_command(buf, 5, 2, f"traces-{t}"),
    ):
        pairs.append(twice(make))
    once = [
        parse_command(copier),
        parse_command(phil),
        deadlocks_command(proto, 6, 2),
        deadlocks_command(phil, 6, 3),
        deadlocks_command(buf, 6, 2),
    ]
    work.commands = _cold_warm(rng, pairs, once)
    return work


def check_deep(seed: int) -> Workload:
    """Heavy commands, ``--no-cache``: sat-, solve- and explorer-bound."""
    rng = random.Random(f"check-deep/{seed}")
    proto = protocol(rng, "protocol")
    broken = protocol(rng, "sabotaged", sabotage=rng.randrange(2))
    copier = copier_chain(rng, 2, "copier")
    twin = twins(rng, "twins")
    phil = philosophers(rng, "philosophers")
    work = Workload({s.key: s for s in (proto, broken, copier, twin, phil)})
    off = ("--no-cache",)
    work.commands = [
        check_command(proto, proto.holds[0], 13, 2, "check-sat", extra=off),
        check_command(proto, proto.holds[0], 14, 2, "check-sat", extra=off),
        check_command(copier, copier.holds[0], 12, 2, "check-sat", extra=off),
        check_command(broken, broken.violated[0], 13, 2, "check-violated", extra=off),
        stats_command(twin, 16, 211, "stats-solve", extra=("--jobs", "1", *off)),
        stats_command(twin, 16, 211, "stats-solve-forked",
                      extra=("--jobs", "2", "--parallel", "processes", *off)),
        deadlocks_command(phil, 10, 3),
        check_command(phil, phil.holds[0], 12, 3, "check-explore",
                      engine="operational", extra=off),
    ]
    rng.shuffle(work.commands)
    return work


def prove(seed: int) -> Workload:
    """``repro prove`` on four correct families and three sabotaged ones."""
    rng = random.Random(f"prove/{seed}")
    copier = copier_chain(rng, 2, "copier")
    proto = protocol(rng, "protocol")
    buf2 = buffer_chain(rng, 2, "buffer2")
    buf3 = buffer_chain(rng, 3, "buffer3")
    work = Workload({s.key: s for s in (copier, proto, buf2, buf3)})
    work.commands = [prove_command(s) for s in (copier, proto, buf2, buf3)] + [
        prove_command(s, wrong=True) for s in (copier, proto, buf3)
    ]
    rng.shuffle(work.commands)
    return work


#: Serve situations, most popular first: (family maker, size, depth, sample).
SERVE_SITUATIONS = (
    ("copier", 2, 6, 2), ("protocol", 2, 6, 2), ("buffer", 2, 6, 2),
    ("copier", 3, 5, 2), ("philosophers", 3, 4, 3), ("protocol", 2, 5, 2),
    ("copier", 2, 7, 2), ("buffer", 3, 5, 2), ("copier", 2, 5, 2),
    ("protocol", 2, 7, 2), ("buffer", 2, 5, 2), ("copier", 3, 6, 2),
)
#: Zipf exponent of the situation popularity.
ZIPF_S = 1.1
#: Requests drawn per stream; a run stops at its deadline long before.
STREAM_LENGTH = 40_000


def _serve_request(rng: random.Random, system: System, depth: int, sample: int
                   ) -> Request:
    def one(spec: str) -> Expect:
        if spec in system.holds:
            return Expect(0, "HOLDS", traces_count(system, depth, sample))
        return Expect(1, "VIOLATED")

    roll = rng.random()
    if roll < 0.1:
        specs = (system.holds[0], rng.choice(system.holds + system.violated))
    elif roll < 0.3:
        specs = (system.violated[0],)
    else:
        specs = (rng.choice(system.holds),)
    verdicts = tuple(one(s) for s in specs)
    code = next((v.exit_code for v in verdicts if v.exit_code), 0)
    head = verdicts[0]
    expect = Expect(code, head.verdict, head.count,
                    verdicts=verdicts if len(specs) > 1 else ())
    return Request(system.key, depth, sample, specs, expect)


def serve(seed: int) -> Workload:
    """A Zipf-skewed stream of ``check`` requests over twelve situations."""
    rng = random.Random(f"serve/{seed}")
    makers = {
        "copier": lambda k, size: copier_chain(rng, size, k),
        "protocol": lambda k, size: protocol(rng, k),
        "buffer": lambda k, size: buffer_chain(rng, size, k),
        "philosophers": lambda k, size: philosophers(rng, k, size),
    }
    work = Workload()
    situations = []
    for index, (family, size, depth, sample) in enumerate(SERVE_SITUATIONS):
        system = makers[family](f"s{index:02d}-{family}{size}", size)
        work.systems[system.key] = system
        situations.append((system, depth, sample))
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(situations))]
    for system, depth, sample in situations:
        work.warmup.append(_serve_request(rng, system, depth, sample))
    for system, depth, sample in rng.choices(situations, weights, k=STREAM_LENGTH):
        work.requests.append(_serve_request(rng, system, depth, sample))
    return work


WORKLOADS = {
    "cli-cold": cli_cold,
    "check-deep": check_deep,
    "prove": prove,
    "serve": serve,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
