"""Seeded instance sets for the three benchmark workloads.

A workload is a list of slots.  A slot fixes the family and the sizes of
one decision; the seed only fills in the random structure (tree machines,
random automata).  One block holds one instance per slot, so every block
has the same mix of families and sizes, and the timed loop runs whole
blocks.  That keeps the latency distribution of a run, and its quartiles
across seeds, steady while every instance is still new.

Each instance names the public treeamb call it makes by module and
attribute, so the tracer can swap in its wrappers without the workload
knowing.  Reference answers come from oracles.py, never from the call
under test.
"""

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass

from treeamb import formats, zoo
from treeamb.ambiguity import INFINITE, UNCOUNTABLE
from treeamb.automata import ParityTreeAutomaton, det_pta_for_tree
from treeamb.games import AUTOMATON, PATHFINDER, solve
from treeamb.membership import build_game
from treeamb.trees import (build_tree, constant_tree, graft_antichain,
                           graft_node, lstar_r_antichain, make_node)

import oracles

CA = ("c", "a1")
BITS = ("0", "1")
AB = ("a", "b")
MAX_K = 8


@dataclass
class Instance:
    """One decision: the call, how to read its verdict, and its reference."""

    key: str
    family: str
    module: str              # treeamb module holding the public call
    func: str                # attribute name of the call in that module
    args: tuple
    verdict: object          # raw result -> comparable verdict
    expected: object         # () -> reference verdict (run after timing)
    certificate: object = None   # raw result -> bool, independent check


# Slot ladders.  Each block runs every slot once.  Sizes repeat where the
# median and the tail percentile of a run's latencies fall: the median lands
# inside the cluster of one repeated middle slot and the tail inside the
# cluster of the repeated top slot, rather than in a gap between two slots
# whose costs differ by a third, which is what makes quartiles wander from
# seed to seed.
WITNESS_SLOTS = (("frak", 10), ("co-graft", 13), ("co-graft", 16),
                 ("frak", 13), ("frak", 16), ("frak", 16), ("co-graft", 20),
                 ("co-graft", 20), ("co-graft", 20), ("co-graft", 23),
                 ("frak", 20), ("frak", 20), ("frak", 20))
MEMBER_ZOO_SLOTS = (("no-max", 1000, 2), ("perf", 1000, 2), ("no-max", 1600, 6),
                    ("perf", 1600, 4))
MEMBER_RANDOM_SLOTS = ((13, 312), (15, 338), (17, 362), (19, 388))
DET_SLOTS = ((19, 1), (36, 1), (54, 1), (71, 1), (19, 2), (36, 2), (36, 2),
             (36, 2), (36, 2), (54, 2), (71, 2))
CO_K1_SIZES = (13, 29, 46, 62)
CO_K2_SIZES = (5, 5, 5, 5, 5)


def random_tree(rng, alphabet, n, name):
    """A tree machine with exactly n reachable states.

    States 1..n-1 hang off random free edges of earlier states (so all
    are reachable); the edges left over point anywhere.
    """
    out = [rng.choice(alphabet) for _ in range(n)]
    nxt = {}
    free = [(0, "l"), (0, "r")]
    for s in range(1, n):
        i = rng.randrange(len(free))
        free[i], free[-1] = free[-1], free[i]
        nxt[free.pop()] = s
        free += [(s, "l"), (s, "r")]
    for slot in free:
        nxt[slot] = rng.randrange(n)
    return build_tree(0, lambda s, d: nxt[(s, d)], out.__getitem__,
                      alphabet, name=name)


def random_pta(rng, alphabet, n, max_color, name):
    """A single-initial PTA where every state reads every letter."""
    states = [f"p{i}" for i in range(n)]
    delta = set()
    for q in states:
        for x in alphabet:
            for _ in range(rng.randint(1, 2)):
                delta.add((q, x, rng.choice(states), rng.choice(states)))
    color = {q: rng.randrange(max_color + 1) for q in states}
    return ParityTreeAutomaton(name, tuple(alphabet), frozenset(states),
                               frozenset([states[0]]), frozenset(delta),
                               color).check()


def _rng(workload, seed, block, slot, draw=0):
    return random.Random(f"{workload}:{seed}:{block}:{slot}:{draw}")


def product_size(a, t):
    """Reachable (tree state, automaton state) positions of a on t."""
    moves = {}
    for q, x, ql, qr in a.delta:
        moves.setdefault((q, x), []).append((ql, qr))
    seen = {(t.init, q) for q in a.initials}
    todo = list(seen)
    while todo:
        m, q = todo.pop()
        for ql, qr in moves.get((q, t.out[m]), ()):
            for w in ((t.next[(m, "l")], ql), (t.next[(m, "r")], qr)):
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
    return len(seen)


class Draws:
    """Picks one random draw per slot, or replays picks made before.

    Random machines of one size differ a lot in how much of the product
    they reach, and the decision time follows it.  Taking, of a few draws,
    the one with the median product size keeps each slot's work close to
    its typical value, so a run's quartiles depend on the seed less.

    Picking is the benchmark's own work, so it runs once in an untimed
    interpreter, which hands its picks (slot -> draw index) to the timed
    set-ups.  Replaying builds only the picked draw of each slot.
    """

    def __init__(self, workload, seed, picks=None):
        self.workload = workload
        self.seed = seed
        self.replay = picks is not None
        self.picks = {} if picks is None else picks

    def typical(self, block, slot, make, accept=lambda cand: True, count=5):
        """make(rng) -> (automaton, tree, ...) for the picked draw: of the
        first `count` accepted draws, the one with the median product size."""
        key = f"{block}:{slot}"
        if self.replay:
            return make(_rng(self.workload, self.seed, block, slot,
                             self.picks[key]))
        found = []
        for draw in range(50 * count):
            cand = make(_rng(self.workload, self.seed, block, slot, draw))
            if accept(cand):
                found.append((product_size(cand[0], cand[1]), draw, cand))
                if len(found) == count:
                    _, draw, cand = sorted(found)[count // 2]
                    self.picks[key] = draw
                    return cand
        raise RuntimeError("no acceptable candidate in 50 draws per pick")


# ------------------------------------------------------------- classify

def _classify_verdict(v):
    return (v.kind, v.n)


def _classify_certificate(a, t):
    def check(v):
        if v.kind not in (INFINITE, UNCOUNTABLE):
            return True
        return oracles.witness_ok(a, t, v.witness, v.kind == UNCOUNTABLE)
    return check


def _classify(key, family, a, t, expected):
    return Instance(key, family, "ambiguity", "classify", (a, t, MAX_K),
                    _classify_verdict, expected,
                    _classify_certificate(a, t))


def co_singleton_reference(t0, t):
    """classify's verdict for zoo_complement_singleton(t0) on t, from the
    minimal-difference count."""
    n = oracles.min_diff_count(t0, t)
    if n == math.inf:
        return (INFINITE, None)
    return ("exact", n) if n <= MAX_K else ("at_least", MAX_K + 1)


def _differing_pair(rng, n, name):
    """Two random trees with different root labels, so never equal."""
    t0 = random_tree(rng, CA, n, f"t0-{name}")
    tx = random_tree(rng, CA, n, f"tx-{name}")
    if tx.out[tx.init] == t0.out[t0.init]:
        flip = {"c": "a1", "a1": "c"}
        tx = build_tree(tx.init, lambda s, d: tx.next[(s, d)],
                        lambda s: flip[tx.out[s]] if s == tx.init
                        else tx.out[s], CA, name=tx.name)
    return t0, tx


def classify_witness(draws, block, workdir):
    """Verdicts that end in a certificate: the frak scheme on l*r grafts of
    tx != t0 (Uncountable), and complement-singleton on an l*r graft whose
    minimal-difference count is infinite (Infinite)."""
    out = []
    lstar_r = lstar_r_antichain()
    for j, (family, n) in enumerate(WITNESS_SLOTS):
        if family == "frak":
            def make(rng):
                t0, tx = _differing_pair(rng, n, f"{block}-{j}")
                co = zoo.zoo_complement_singleton(t0)
                return (zoo.zoo_frak_scheme(det_pta_for_tree(t0), co),
                        graft_antichain(constant_tree("c", CA), tx, lstar_r))

            a, t = draws.typical(block, j, make)
            out.append(_classify(f"{block}:{j}", "frak", a, t,
                                 lambda: (UNCOUNTABLE, None)))
        else:
            def make(rng):
                t0, tx = _differing_pair(rng, n, f"{block}-{j}")
                return (zoo.zoo_complement_singleton(t0),
                        graft_antichain(t0, tx, lstar_r), t0)

            a, t, t0 = draws.typical(
                block, j, make,
                lambda cand: co_singleton_reference(cand[2], cand[1])[0]
                == INFINITE)
            out.append(_classify(
                f"{block}:{j}", "co-graft", a, t,
                lambda t0=t0, t=t: co_singleton_reference(t0, t)))
    return out


# --------------------------------------------------------- member-large

def _cli_verdict(code):
    if code not in (0, 1):
        raise RuntimeError(f"treeamb member exited with code {code}")
    return code == 0


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _pta_certificate(a, t):
    """The solver's winning strategy for the answer, checked by an oracle:
    an accepting run when t is accepted, a refuting direction choice when
    it is not.  None when the strategy fails its check."""
    g = build_game(a, t)
    analysis = solve(g.arena)
    (q0,) = a.initials
    if analysis.winner_of(g.arena.init) == AUTOMATON:
        choice = {v: p[1:] for v, p in analysis.strategy[AUTOMATON].items()}
        return True if oracles.accepting_run_ok(a, t, choice, q0) else None
    direction = {v: "l" if w == g.arena.edges[v][0] else "r"
                 for v, w in analysis.strategy[PATHFINDER].items()
                 if len(v) == 3}
    return False if oracles.pathfinder_wins(a, t, direction) else None


def _lone_one_graft(rng, t):
    """t with a 1 above two constant-0 cones grafted at a random node."""
    zeros = constant_tree("0", BITS)
    depth = rng.randint(2, 12)
    path = "".join(rng.choice("lr") for _ in range(depth))
    return graft_node(t, make_node("1", zeros, zeros), path)


_ZOO_MEMBER = {"no-max": (zoo.zoo_no_max, oracles.no_max_member),
               "perf": (zoo.zoo_perf, oracles.perf_member)}


def member_large(draws, block, workdir):
    """`treeamb member` through cli.run on files written at set-up."""
    out = []
    for name, (build, _) in _ZOO_MEMBER.items():
        path = os.path.join(workdir, f"{name}.pta")
        if not os.path.exists(path):
            _write(path, formats.serialize_pta(build()))
    j = 0
    for name, n, copies in MEMBER_ZOO_SLOTS:
        analytic = _ZOO_MEMBER[name][1]
        for copy in range(copies):
            rng = _rng("member-large", draws.seed, block, j)
            t = random_tree(rng, BITS, n, f"t-{block}-{j}")
            planted = copy % 2 == 1
            if planted:
                t = _lone_one_graft(rng, t)
            tpath = os.path.join(workdir, f"{block}-{j}.mtree")
            _write(tpath, formats.serialize_mtree(t))
            out.append(Instance(
                f"{block}:{j}", name, "cli", "run",
                (["member", "-a", os.path.join(workdir, f"{name}.pta"),
                  "-t", tpath],),
                _cli_verdict, lambda t=t, analytic=analytic: analytic(t)))
            j += 1
    for ns, nt in MEMBER_RANDOM_SLOTS:
        a, t = draws.typical(
            block, j,
            lambda rng: (random_pta(rng, AB, ns, 7, f"rnd-{block}-{j}"),
                         random_tree(rng, AB, nt, f"t-{block}-{j}")))
        apath = os.path.join(workdir, f"{block}-{j}.pta")
        tpath = os.path.join(workdir, f"{block}-{j}.mtree")
        _write(apath, formats.serialize_pta(a))
        _write(tpath, formats.serialize_mtree(t))
        out.append(Instance(
            f"{block}:{j}", "random-pta", "cli", "run",
            (["member", "-a", apath, "-t", tpath],),
            _cli_verdict, lambda a=a, t=t: _pta_certificate(a, t)))
        j += 1
    return out


# ---------------------------------------------------------- k-ambiguity

def _k_amb(key, family, a, k, answer):
    return Instance(key, family, "ambiguity", "is_k_ambiguous", (a, k),
                    bool, lambda: answer)


def _fixed_k_instances():
    """The zoo part of every k-ambiguity block."""
    fixed = []
    for n in (2, 3, 4):
        a = zoo.zoo_neg_union(n)
        fixed += [(f"neg-union-{n}", a, k, k >= n) for k in (1, 2, 3)]
    for name, a in (("lfa", zoo.zoo_lfa()), ("exists-a1", zoo.zoo_exists_a1())):
        fixed += [(name, a, k, False) for k in (1, 2)]
    return fixed


def k_ambiguity(draws, block, workdir):
    """is_k_ambiguous with answers known from the construction."""
    out = []
    j = 0
    for family, a, k, answer in _fixed_k_instances():
        out.append(_k_amb(f"{block}:{j}", family, a, k, answer))
        j += 1
    for n, k in DET_SLOTS:
        t = random_tree(_rng("k-ambiguity", draws.seed, block, j), CA, n,
                        f"t-{block}-{j}")
        out.append(_k_amb(f"{block}:{j}", "det", det_pta_for_tree(t), k, True))
        j += 1
    for n, k in [(n, 1) for n in CO_K1_SIZES] + [(n, 2) for n in CO_K2_SIZES]:
        t = random_tree(_rng("k-ambiguity", draws.seed, block, j), CA, n,
                        f"t-{block}-{j}")
        out.append(_k_amb(f"{block}:{j}", "co", zoo.zoo_complement_singleton(t),
                          k, False))
        j += 1
    return out


# name -> (block builder, blocks generated at set-up)
WORKLOADS = {
    "classify-witness": (classify_witness, 5),
    "member-large": (member_large, 4),
    "k-ambiguity": (k_ambiguity, 3),
}


def build(name, seed, workdir, picks=None):
    """All blocks of a workload, files under workdir, and the draw picked
    for each slot.  With picks (from an earlier build of the same workload
    and seed), only the picked draws are generated.

    Each block runs in a seeded shuffled order.  The slots of one size then
    lie spread over the timed loop rather than side by side, so the
    machine's speed at a few moments does not set the cluster the median
    or the tail falls in.
    """
    make, count = WORKLOADS[name]
    draws = Draws(name, seed, picks)
    blocks = [make(draws, b, workdir) for b in range(count)]
    for b, block in enumerate(blocks):
        random.Random(f"{name}:{seed}:{b}:order").shuffle(block)
    return blocks, draws.picks


def call(inst, modules):
    """Run one decision through the module attribute it names (so a traced
    run sees the wrapped function) and return the raw result."""
    fn = getattr(modules[inst.module], inst.func)
    if inst.module == "cli":
        with contextlib.redirect_stdout(io.StringIO()):
            return fn(*inst.args)
    return fn(*inst.args)
