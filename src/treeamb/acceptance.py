"""Desk-scale acceptance checks, runnable as `treeamb suite`.

Each criterion is a self-contained callable returning True/False; the
runner times it and fails it on any exception or on exceeding its time
budget.  Cross-validation criteria carry their own independent oracles
(brute-force lasso evaluation, shape enumeration, progress measures) so
a pass never rests on the code under test alone.
"""

import itertools
import random
import time
import traceback

from . import zoo
from .ambiguity import (INFINITE, UNCOUNTABLE, AmbiguityVerdict, at_least_k,
                        classify, is_k_ambiguous, witness_is_valid)
from .automata import (conjunction_dpw, det_pta_for_tree,
                       fta_enumerate_accepted)
from .games import (AUTOMATON, PATHFINDER, ParityGameArena, solve,
                    solve_oracle, verify_strategy)
from .membership import (automaton_strategy_to_run, build_game, leads,
                         member, pathfinder_strategy)
from .trees import (RegularTree, constant_tree, graft_antichain, graft_node,
                    lstar_r_antichain, make_node, tree_equal)

ALPHA = ("c", "a1")


def _t_c():
    return constant_tree("c", ALPHA)


def _t_a1():
    return constant_tree("a1", ALPHA)


def _spread_tree():
    return graft_antichain(_t_c(), _t_a1(), lstar_r_antichain())


# ---------------------------------------------------------------- criteria

def crit_hierarchy_counts():
    """classify finds exactly k accepting runs on the k-part union."""
    for k in (1, 2, 3):
        t0 = time.time()
        nb = zoo.zoo_neg_union(k)
        v = classify(nb, constant_tree("c", nb.alphabet), 5)
        if v != AmbiguityVerdict.exact(k) or time.time() - t0 >= 10.0:
            return False
    return True


def crit_two_ambiguous_union():
    nb = zoo.zoo_neg_union(2)
    return (not is_k_ambiguous(nb, 1)) and is_k_ambiguous(nb, 2)


def crit_bounded_family_counts():
    """The m-spine member trees carry exactly 2m accepting runs."""
    lfa = zoo.zoo_lfa()
    for m in (2, 3):
        if classify(lfa, zoo.lfa_witness_tree(m, 1), 8) != \
                AmbiguityVerdict.exact(2 * m):
            return False
    return True


def crit_unbounded_ambiguity():
    lfa = zoo.zoo_lfa()
    return all(at_least_k(lfa, zoo.lfa_witness_tree(m, 0), m)
               for m in range(2, 6))


def crit_uncountable_scheme():
    co = zoo.zoo_complement_singleton(_t_c())
    frak = zoo.zoo_frak_scheme(det_pta_for_tree(_t_c()), co)
    spread = _spread_tree()
    v = classify(frak, spread, 4)
    return v.kind == UNCOUNTABLE and witness_is_valid(frak, spread, v.witness)


def crit_countably_infinite():
    co = zoo.zoo_complement_singleton(_t_c())
    if classify(co, _spread_tree(), 8).kind != INFINITE:
        return False
    two = graft_node(graft_node(_t_c(), _t_a1(), "ll"), _t_a1(), "r")
    return classify(co, two, 8) == AmbiguityVerdict.exact(2)


def _rep_samples(rep):
    """Five sample trees per shipped representation, members and not."""
    if rep.name == "single":
        # the alphabet has one letter, so every sample denotes the same
        # tree; vary the machine instead of the language
        tc = zoo.substitute(rep, "x1")
        pad = RegularTree("const-c-3", tc.alphabet, 0,
                          {(0, "l"): 1, (0, "r"): 2, (1, "l"): 2,
                           (1, "r"): 0, (2, "l"): 0, (2, "r"): 1},
                          {0: "c", 1: "c", 2: "c"}).check()
        return [tc, pad, graft_node(tc, pad, "lr"),
                graft_node(pad, tc, "r"), graft_node(tc, tc, "ll")]
    if rep.name == "leaf-or-node":
        ta1 = zoo.substitute(rep, "x1")
        both = zoo.substitute(rep, ("c", "x1", "x1"))
        sig = zoo.rep_alphabet(rep)
        tc = constant_tree("c", sig)
        return [ta1, both, tc, make_node("c", tc, ta1),
                make_node("c", both, ta1)]
    comb1 = zoo.substitute(rep, ("c", "x1", "x2"))
    comb2 = zoo.substitute(rep, ("c", ("c", "x1", "x2"), "x2"))
    return [zoo.substitute(rep, "x1"), comb1, comb2,
            zoo.substitute(rep, ("c", "x2", "x1")),
            constant_tree("c", zoo.rep_alphabet(rep))]


def _substitution_member(rep, t):
    """Independent membership test: compare against every substituted
    accepted shape small enough to matter.

    A shape with n inner nodes substitutes to a tree with at least n
    distinct subtrees here (each spine suffix differs), so shapes larger
    than t's machine cannot produce t and the bounded enumeration below
    is a complete oracle for these representations.
    """
    budget = 2 * len(t.states) + 3
    return any(tree_equal(zoo.substitute(rep, shape), t)
               for shape in fta_enumerate_accepted(rep.fta, budget))


def crit_representation_unambiguity():
    reps = (zoo.niwinski_rep_single(), zoo.niwinski_rep_leaf_or_node(),
            zoo.niwinski_rep_combs())
    for rep in reps:
        a = zoo.niwinski_unambiguous(rep)
        if not is_k_ambiguous(a, 1):
            return False
        for t in _rep_samples(rep):
            if member(a, t) != _substitution_member(rep, t):
                return False
    return True


def _arena(owner, color, edges, name="g"):
    return ParityGameArena(name, dict(owner), dict(color),
                           {v: tuple(edges[v]) for v in edges},
                           frozenset(v for v in edges if not edges[v])).check()


def _agree(g):
    an = solve(g)
    ora = solve_oracle(g)
    if an.region != ora.region:
        return False
    for p in (AUTOMATON, PATHFINDER):
        if not verify_strategy(g, p, an.strategy[p], an.region[p]):
            return False
        if not verify_strategy(g, p, ora.strategy[p], ora.region[p]):
            return False
    return True


def crit_solver_cross_validation():
    """Zielonka solver vs progress-measure oracle.

    Exhaustive over every arena with at most 3 vertices and colors {0,1}
    (all owner/color/successor-set combinations), plus every 4-vertex
    arena with out-degree at most one — the full 4-vertex space has ~17M
    members, far past a desk-scale budget, while the degree-one class
    still adds the 4-cycles no smaller arena contains.  Then 200 random
    arenas with up to 8 vertices and colors up to 3.
    """
    for n in (1, 2, 3):
        subsets = list(itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(n + 1)))
        for owners in itertools.product((AUTOMATON, PATHFINDER), repeat=n):
            for colors in itertools.product((0, 1), repeat=n):
                for succ in itertools.product(subsets, repeat=n):
                    g = _arena(dict(enumerate(owners)),
                               dict(enumerate(colors)),
                               dict(enumerate(succ)))
                    if not _agree(g):
                        return False
    deg1 = [()] + [(v,) for v in range(4)]
    for owners in itertools.product((AUTOMATON, PATHFINDER), repeat=4):
        for colors in itertools.product((0, 1), repeat=4):
            for succ in itertools.product(deg1, repeat=4):
                g = _arena(dict(enumerate(owners)), dict(enumerate(colors)),
                           dict(enumerate(succ)))
                if not _agree(g):
                    return False
    rng = random.Random(20250311)
    for _ in range(200):
        n = rng.randint(1, 8)
        owner = {v: rng.choice((AUTOMATON, PATHFINDER)) for v in range(n)}
        color = {v: rng.randrange(4) for v in range(n)}
        edges = {v: () if rng.random() < 0.1 else
                 tuple(rng.sample(range(n), rng.randint(1, min(3, n))))
                 for v in range(n)}
        if not _agree(_arena(owner, color, edges)):
            return False
    return True


def _dpw_accepts_lasso(dpw, q, cycle):
    """Does dpw, started in state q, accept cycle repeated forever?"""
    trace, seen, idx = [], {}, 0
    while (q, idx) not in seen:
        seen[(q, idx)] = len(trace)
        q = dpw.delta[(q, cycle[idx])]
        trace.append(q)
        idx = (idx + 1) % len(cycle)
    loop = trace[seen[(q, idx)]:]
    return max(dpw.color[s] for s in loop) % 2 == 0


def crit_conjunction_gadget():
    """Every lasso of total length <= 6 over pairs of colors <= 2.

    A stem only fixes the state its cycle starts in: ends[k] lists the
    state after each stem of length k, one entry per stem, and each cycle
    is simulated once per distinct start state.  Every lasso is still
    compared with the expected verdict, and the comparisons are counted."""
    d = conjunction_dpw(2, 2)
    ends = [[d.init]]
    for _ in range(5):
        ends.append([d.delta[(q, a)] for q in ends[-1] for a in d.alphabet])
    compared = 0
    for n in range(1, 7):
        for cycle in itertools.product(d.alphabet, repeat=n):
            first, second = zip(*cycle)
            want = max(first) % 2 == 0 and max(second) % 2 == 0
            accepts = {}
            for q in itertools.chain.from_iterable(ends[:7 - n]):
                got = accepts.get(q)
                if got is None:
                    got = accepts[q] = _dpw_accepts_lasso(d, q, cycle)
                if got != want:
                    return False
                compared += 1
    return compared == 3_512_493    # sum of n * 9**n over lengths n <= 6


def _leads_instances():
    """(automaton, rejected tree, accepted tree) triples; the two trees
    differ somewhere and the preconditions of leads hold."""
    out = []
    ex = zoo.zoo_exists_a1()
    tc, ta1 = _t_c(), _t_a1()
    for node in ("", "l", "r", "lr", "ll", "rl", "lll", "rrr"):
        tprime = ta1 if node == "" else graft_node(tc, ta1, node)
        out.append((ex, tc, tprime))
    nb = zoo.zoo_neg_union(2)
    base = constant_tree("c", nb.alphabet)
    a1cone = constant_tree("a1", nb.alphabet)
    a2cone = constant_tree("a2", nb.alphabet)
    for spot in ("r", "rl"):
        t0 = graft_node(graft_node(base, a1cone, "l"), a2cone, spot)
        tprime = graft_node(base, a1cone, "l")
        out.append((nb, t0, tprime))
    return out


def crit_leads_contract():
    instances = _leads_instances()
    if len(instances) != 10:
        return False
    for a, t0, tprime in instances:
        g = build_game(a, tprime)
        phi = automaton_strategy_to_run(g, solve(g.arena))
        strj = pathfinder_strategy(a, t0)
        v = leads(a, t0, strj, tprime, phi)
        if t0.label(v) == tprime.label(v):
            return False
    return True


CRITERIA = [
    ("hierarchy-counts", 30.0, crit_hierarchy_counts),
    ("two-ambiguous-union", 30.0, crit_two_ambiguous_union),
    ("bounded-family-counts", 60.0, crit_bounded_family_counts),
    ("unbounded-ambiguity", 120.0, crit_unbounded_ambiguity),
    ("uncountable-scheme", 60.0, crit_uncountable_scheme),
    ("countably-infinite", 30.0, crit_countably_infinite),
    ("representation-unambiguity", 60.0, crit_representation_unambiguity),
    ("solver-cross-validation", 60.0, crit_solver_cross_validation),
    ("conjunction-gadget", 60.0, crit_conjunction_gadget),
    ("leads-contract", 30.0, crit_leads_contract),
]


def run_one(name):
    for crit_name, budget, fn in CRITERIA:
        if crit_name == name:
            t0 = time.time()
            try:
                ok = bool(fn())
            except Exception:
                traceback.print_exc()
                ok = False
            elapsed = time.time() - t0
            return name, ok and elapsed < budget, elapsed
    raise KeyError(name)


def run_suite():
    """Run every criterion; returns [(name, passed, seconds)]."""
    return [run_one(name) for name, _, _ in CRITERIA]
