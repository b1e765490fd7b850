"""Membership game: arena shape, winner, strategy extraction, leads."""

import hashlib
import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest

from treeamb import cli, formats, games
from treeamb.ambiguity import classify
from treeamb.automata import ParityTreeAutomaton, det_pta_for_tree
from treeamb.errors import (AlphabetMismatch, InconsistentRun, IsMember,
                            NotMember, PreconditionViolated, StateMismatch,
                            UnknownState)
from treeamb.games import (AUTOMATON, PATHFINDER, ParityGameArena,
                           automaton_wins, bfs, cycle_tops, solve,
                           verify_strategy)
from treeamb.membership import (RegularRun, _product_arena, _product_ids,
                                automaton_strategy_to_run, build_game, leads,
                                member, pathfinder_strategy, run_check,
                                run_graft, run_is_accepting)
from treeamb.trees import (RegularTree, build_tree, constant_tree, graft_node,
                           make_node, tree_equal)
from treeamb.zoo import (forbid_letter, zoo_exists_a1, zoo_neg_union,
                         zoo_no_max, zoo_perf)

ALPHA = ("c", "a1")
T_C = constant_tree("c", ALPHA)
T_A1 = constant_tree("a1", ALPHA)
NOT_A1 = forbid_letter("a1", ALPHA)


def outputs_under_hash_seeds(script, seeds):
    """The distinct stdouts of script, run in a fresh interpreter on this
    checkout's treeamb once per PYTHONHASHSEED in seeds."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    outs = set()
    for seed in seeds:
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        outs.add(done.stdout)
    return outs


def random_tree(rng, alphabet, size):
    out = {s: rng.choice(alphabet) for s in range(size)}
    nxt = {(s, d): rng.randrange(size) for s in range(size) for d in "lr"}
    return build_tree(0, lambda s, d: nxt[(s, d)], out.__getitem__, alphabet,
                      name=f"rnd{size}")


def random_pta(rng, alphabet, nstates, ntrans, maxcolor):
    states = [f"q{i}" for i in range(nstates)]
    delta = set()
    for q in states:
        a = rng.choice(alphabet)
        delta.add((q, a, rng.choice(states), rng.choice(states)))
    for _ in range(ntrans):
        delta.add((rng.choice(states), rng.choice(alphabet),
                   rng.choice(states), rng.choice(states)))
    color = {q: rng.randrange(maxcolor + 1) for q in states}
    return ParityTreeAutomaton("rnd", alphabet, frozenset(states),
                               frozenset([states[0]]), frozenset(delta),
                               color).check()


def owned(g, player):
    return {v for v, o in g.arena.owner.items() if o == player}


# ---------------------------------------------------------------- arenas

def test_arena_deterministic_on_constant_tree():
    g = build_game(NOT_A1, T_C)
    assert len(owned(g, AUTOMATON)) == 1 and len(owned(g, PATHFINDER)) == 1
    assert not g.arena.sinks
    (av,) = owned(g, AUTOMATON)
    assert len(av) == 2      # (tree state, automaton state)
    assert g.arena.color[av] == 0


def test_arena_initial_sink_when_no_transition():
    g = build_game(NOT_A1, T_A1)
    assert len(owned(g, AUTOMATON)) == 1 and len(owned(g, PATHFINDER)) == 0
    assert set(g.arena.sinks) == set(owned(g, AUTOMATON))


def test_arena_union_normalized_to_single_initial():
    alpha = ("c", "a1", "a2")
    g = build_game(zoo_neg_union(2), constant_tree("c", alpha))
    # fresh initial plus one per summand
    assert len(owned(g, AUTOMATON)) == 3
    assert len(owned(g, PATHFINDER)) == 2
    assert g.arena.init in owned(g, AUTOMATON)


def test_pathfinder_vertices_branch_left_then_right():
    g = build_game(NOT_A1, T_C)
    (pv,) = owned(g, PATHFINDER)
    succs = g.arena.edges[pv]
    assert len(succs) == 2
    # both children of the constant tree are the same machine state
    assert succs[0][0] == succs[1][0] == T_C.init


# ---------------------------------------------------------------- member

def test_member_examples():
    assert member(NOT_A1, T_C)
    assert not member(NOT_A1, T_A1)
    ea = zoo_exists_a1()
    assert not member(ea, T_C)
    assert member(ea, graft_node(T_C, T_A1, "rl"))


def test_member_union_reaches_second_summand():
    alpha = ("c", "a1", "a2")
    nb = zoo_neg_union(2)
    t_a1 = constant_tree("a1", alpha)
    t_a2 = constant_tree("a2", alpha)
    assert member(nb, t_a1)      # via the no-a2 summand
    assert member(nb, t_a2)      # via the no-a1 summand
    assert not member(nb, graft_node(t_a1, t_a2, "l"))


def test_member_agrees_with_direct_evaluation_on_deterministic():
    """For deterministic automata the unique candidate run decides."""
    rng = random.Random(20260815)
    for trial in range(10):
        t = random_tree(rng, ALPHA, rng.randrange(1, 5))
        a = det_pta_for_tree(random_tree(rng, ALPHA, rng.randrange(1, 5)),
                             alphabet=ALPHA)
        # build the unique candidate run by product exploration
        byletter = {(q, x): (ql, qr) for q, x, ql, qr in a.delta}
        (q0,) = a.initials
        states = {}
        ok = True
        todo = [(t.init, q0)]
        while todo:
            m, q = todo.pop()
            if (m, q) in states:
                continue
            states[(m, q)] = True
            if (q, t.out[m]) not in byletter:
                ok = False
                break
            ql, qr = byletter[(q, t.out[m])]
            todo += [(t.next[(m, "l")], ql), (t.next[(m, "r")], qr)]
        if ok:
            mach = build_tree(
                (t.init, q0),
                lambda s, d: (t.next[(s[0], d)],
                              byletter[(s[1], t.out[s[0]])][0 if d == "l" else 1]),
                lambda s: s[1], tuple(sorted(a.states, key=str)))
            verdict = run_is_accepting(RegularRun(a, t, mach))
        else:
            verdict = False
        assert member(a, t) == verdict, f"trial {trial}"


# ------------------------------------------------- strategies and runs

def test_member_games_admit_each_vertex_to_one_attractor(monkeypatch):
    """On trees the zoo's sink-heavy automata accept, Pathfinder's
    attractor of the sinks and the decomposition of the rest admit every
    vertex of member's arena once, none twice; that arena leaves out the
    moves into a child with no transition, so it is smaller than the
    full build, which has sinks."""
    admitted = []

    def counting(*args):
        attr = attract(*args)
        admitted.append(len(attr))
        return attr

    attract = games._attract
    monkeypatch.setattr(games, "_attract", counting)
    for seed in range(6):
        t = random_tree(random.Random(seed), ("0", "1"), 200)
        for a in (zoo_no_max(), zoo_perf()):
            (succ, _, _, sinks), _, _ = _product_ids(a, t)
            assert sinks
            (trimmed, _, _, _), _, _ = _product_ids(a, t, trim=True)
            assert len(trimmed) < len(succ)
            admitted.clear()
            assert member(a, t)
            assert sum(admitted) == len(trimmed)


def test_run_from_winning_strategy_is_the_unique_run():
    g = build_game(NOT_A1, T_C)
    run = automaton_strategy_to_run(g, solve(g.arena))
    assert len(run.machine.states) == 1
    assert run.machine.out[run.machine.init] == "ok"
    assert run_is_accepting(run)


def test_run_from_union_strategy_picks_an_initial_state():
    alpha = ("c", "a1", "a2")
    nb = zoo_neg_union(2)
    g = build_game(nb, constant_tree("c", alpha))
    run = automaton_strategy_to_run(g, solve(g.arena))
    assert run.machine.out[run.machine.init] in nb.initials
    assert run_is_accepting(run)


# initials 1 and "1" both carry the funnel's transition; sorted on str
# alone, the run's root followed the hash seed (seeds 0 and 5 disagreed)
_ALIKE_ROOTS = """
from treeamb.automata import ParityTreeAutomaton
from treeamb.games import solve
from treeamb.membership import automaton_strategy_to_run, build_game
from treeamb.trees import constant_tree
a = ParityTreeAutomaton(
    "tie", ("c",), frozenset([1, "1"]), frozenset([1, "1"]),
    frozenset([(1, "c", 1, 1), ("1", "c", 1, 1)]), {1: 0, "1": 0})
g = build_game(a.check(), constant_tree("c", ("c",)))
run = automaton_strategy_to_run(g, solve(g.arena))
print(repr(run.machine.out[run.machine.init]))
"""


def test_run_root_ignores_the_hash_seed():
    # repr breaks the tie: "'1'" sorts before "1"
    assert outputs_under_hash_seeds(_ALIKE_ROOTS, ("0", "5")) == {"'1'\n"}


def test_strategy_to_run_raises_when_not_member():
    g = build_game(NOT_A1, T_A1)
    with pytest.raises(NotMember):
        automaton_strategy_to_run(g, solve(g.arena))


def test_random_member_pairs_yield_accepting_runs():
    rng = random.Random(7)
    found = 0
    while found < 10:
        a = random_pta(rng, ALPHA, rng.randrange(1, 4), 4, 2)
        t = random_tree(rng, ALPHA, rng.randrange(1, 4))
        g = build_game(a, t)
        analysis = solve(g.arena)
        if analysis.winner_of(g.arena.init) != AUTOMATON:
            continue
        run = automaton_strategy_to_run(g, analysis)
        assert run_is_accepting(run)
        assert tree_equal(run.tree, t)
        found += 1


def test_pathfinder_strategy_passes_verify():
    g = build_game(NOT_A1, T_A1)
    analysis = solve(g.arena)
    assert verify_strategy(g.arena, PATHFINDER, analysis.strategy[PATHFINDER],
                           analysis.region[PATHFINDER])
    strj = pathfinder_strategy(NOT_A1, T_A1)
    assert strj.init in strj.states
    # total map over state pairs
    assert all(len(strj.out[s]) == len(NOT_A1.states) ** 2 for s in strj.states)


def test_pathfinder_strategy_rejects_member_tree():
    with pytest.raises(IsMember):
        pathfinder_strategy(NOT_A1, T_C)


# ---------------------------------------------------- run acceptance

def test_run_color0_cycle_accepts():
    mach = build_tree(0, lambda s, d: 0, lambda s: "ok",
                      tuple(sorted(NOT_A1.states)))
    assert run_is_accepting(RegularRun(NOT_A1, T_C, mach))


def test_run_odd_selfloop_rejects():
    ea = zoo_exists_a1()
    # stay in "seek" down the left spine forever
    mach = build_tree(0, lambda s, d: 0 if (s == 0 and d == "l") else 1,
                      lambda s: "seek" if s == 0 else "done",
                      tuple(sorted(ea.states)))
    run = run_check(RegularRun(ea, T_C, mach))
    assert not run_is_accepting(run)


def test_run_alternating_colors_max_even_accepts():
    a = ParityTreeAutomaton(
        "alt", ("c",), frozenset(["u", "w"]), frozenset(["u"]),
        frozenset([("u", "c", "w", "w"), ("w", "c", "u", "u")]),
        {"u": 1, "w": 2}).check()
    t = constant_tree("c", ("c",))
    mach = build_tree(0, lambda s, d: 1 - s,
                      lambda s: "u" if s == 0 else "w", ("u", "w"))
    assert run_is_accepting(RegularRun(a, t, mach))


def test_run_check_rejects_non_transition():
    mach = build_tree(0, lambda s, d: 0, lambda s: "ok",
                      tuple(sorted(NOT_A1.states)))
    with pytest.raises(InconsistentRun):
        run_check(RegularRun(NOT_A1, T_A1, mach))


def reference_run_check(run):
    """run_check as it was before its walk filled one adjacency map: a
    successor closure that looks up both children of a pair per call."""
    a, t, mach = run.automaton, run.tree, run.machine
    mach.check()
    if mach.out[mach.init] not in a.initials:
        raise InconsistentRun(
            f"{run.name}: root state {mach.out[mach.init]!r} is not initial")

    def succ(p):
        r, m = p
        return ((mach.next[(r, "l")], t.next[(m, "l")]),
                (mach.next[(r, "r")], t.next[(m, "r")]))

    for r, m in bfs([(mach.init, t.init)], succ):
        trans = (mach.out[r], t.out[m],
                 mach.out[mach.next[(r, "l")]], mach.out[mach.next[(r, "r")]])
        if trans not in a.delta:
            raise InconsistentRun(
                f"{run.name}: {trans!r} is not a transition of {a.name}")
    return run


def reference_run_is_accepting(run):
    """run_is_accepting as it was before it filled one adjacency map: a
    successor closure that builds both (state, direction) keys per call."""
    reference_run_check(run)
    a, mach = run.automaton, run.machine

    def succ(s):
        return (mach.next[(s, "l")], mach.next[(s, "r")])

    reach = list(bfs([mach.init], succ))
    colors = {s: a.color[mach.out[s]] for s in reach}
    return all(c % 2 == 0 for _, c in cycle_tops(reach, succ, colors))


def random_run(rng):
    """A random run machine on a random tree, over an automaton made of
    the transitions the run reads; a third of the time some are dropped,
    so that run_check fails on the first one its walk meets."""
    states = rng.sample(["p", "q", 1, "1", (0, 1), "(0, 1)"], rng.randint(1, 6))
    n = rng.randint(1, 8)
    nxt = {(s, d): rng.randrange(n) for s in range(n) for d in "lr"}
    out = {s: rng.choice(states) for s in range(n)}
    mach = RegularTree("m", tuple(states), 0, nxt, out)
    t = random_tree(rng, ALPHA, rng.randint(1, 4))

    def succ(p):
        r, m = p
        return [(nxt[(r, d)], t.next[(m, d)]) for d in "lr"]

    delta = {(out[r], t.out[m], out[nxt[(r, "l")]], out[nxt[(r, "r")]])
             for r, m in bfs([(0, t.init)], succ)}
    if rng.random() < 1 / 3:
        gone = sorted(delta, key=repr)
        delta -= set(rng.sample(gone, rng.randint(1, len(gone))))
    a = ParityTreeAutomaton("read", ALPHA, frozenset(states),
                            frozenset([out[0]]), frozenset(delta),
                            {q: rng.randrange(4) for q in states}).check()
    return RegularRun(a, t, mach)


def test_run_is_accepting_agrees_with_the_reference():
    """Same verdicts, and the same first missing transition in the same
    message, as the reference run check."""
    def verdict(check, run):
        try:
            return check(run)
        except InconsistentRun as err:
            return str(err)

    rng = random.Random(20261020)
    verdicts = []
    for _ in range(1500):
        run = random_run(rng)
        verdicts.append(verdict(run_is_accepting, run))
        assert verdicts[-1] == verdict(reference_run_is_accepting, run)
    kinds = [v if isinstance(v, bool) else "inconsistent" for v in verdicts]
    assert min(map(kinds.count, (True, False, "inconsistent"))) > 200


def test_run_is_judged_on_its_reachable_states_only():
    # state 1 loops on an odd color and reads ("bad", "c", "bad", "bad"),
    # no transition; the root never reaches it, so neither counts
    a = ParityTreeAutomaton(
        "two", ("c",), frozenset(["ok", "bad"]), frozenset(["ok"]),
        frozenset([("ok", "c", "ok", "ok")]), {"ok": 0, "bad": 1}).check()
    mach = RegularTree("m", ("bad", "ok"), 0,
                       {(s, d): s for s in (0, 1) for d in "lr"},
                       {0: "ok", 1: "bad"})
    run = RegularRun(a, constant_tree("c", ("c",)), mach)
    assert run_check(run) is run
    assert run_is_accepting(run)
    assert reference_run_is_accepting(run)


def test_run_label_outside_its_alphabet_is_named():
    # states 1 and 2 both output a label outside the machine's alphabet;
    # the check reports the first in the order of set(out)
    mach = RegularTree("m", ("ok",), 0,
                       {(s, d): (s + 1) % 3 for s in range(3) for d in "lr"},
                       {0: "ok", 1: "bad", 2: "worse"})
    with pytest.raises(AlphabetMismatch) as err:
        run_is_accepting(RegularRun(NOT_A1, T_C, mach))
    assert str(err.value) == "state 1 outputs 'bad' outside the alphabet"


def test_run_tree_missing_an_edge_is_named():
    # the walk checks the run's tree before it looks an edge up: a tree
    # without its root's l-edge fails that check, not on a missing key
    data = os.path.join(os.path.dirname(__file__), "data")
    a = formats.parse_pta(formats.read_file(os.path.join(data, "free2.pta")))
    t = formats.parse_mtree(formats.read_file(os.path.join(data, "tc.mtree")))
    run = classify(a, t, 3).witness.runs[0]
    broken = replace(run.tree, next={k: s for k, s in run.tree.next.items()
                                     if k != (run.tree.init, "l")})
    for check in (run_check, run_is_accepting):
        with pytest.raises(UnknownState) as err:
            check(RegularRun(run.automaton, broken, run.machine))
        assert str(err.value) == f"state {run.tree.init} missing l-edge"


# ---------------------------------------------------------- run_graft

def test_graft_run_onto_itself_at_root():
    g = build_game(NOT_A1, T_C)
    run = automaton_strategy_to_run(g, solve(g.arena))
    out = run_graft(run, run, "")
    assert tree_equal(out.machine, run.machine)
    assert tree_equal(out.tree, run.tree)


def test_graft_deterministic_run_at_lr():
    g = build_game(NOT_A1, T_C)
    run = automaton_strategy_to_run(g, solve(g.arena))
    out = run_graft(run, run, "lr")
    assert run_is_accepting(out)
    assert tree_equal(out.machine, run.machine)


def test_graft_union_second_summand_residual():
    alpha = ("c", "a1", "a2")
    nb = zoo_neg_union(2)
    t = constant_tree("c", alpha)
    second = next(q for q in sorted(nb.initials, key=str) if q[0] == 2)
    mach = build_tree(0, lambda s, d: 0, lambda s: second,
                      tuple(sorted(nb.states, key=str)))
    base = run_check(RegularRun(nb, t, mach))
    grafted = run_graft(base, base, "r")
    assert run_is_accepting(grafted)
    assert grafted.machine.label("r") == second


def test_graft_state_mismatch():
    alpha = ("c", "a1", "a2")
    nb = zoo_neg_union(2)
    t = constant_tree("c", alpha)
    runs = []
    for tag in (1, 2):
        q = next(p for p in sorted(nb.initials, key=str) if p[0] == tag)
        mach = build_tree(0, lambda s, d: 0, lambda s, q=q: q,
                          tuple(sorted(nb.states, key=str)))
        runs.append(run_check(RegularRun(nb, t, mach)))
    with pytest.raises(StateMismatch):
        run_graft(runs[0], runs[1], "lr")


# --------------------------------------------------------------- leads

def test_leads_finds_the_grafted_a1():
    ea = zoo_exists_a1()
    tprime = graft_node(T_C, T_A1, "rl")
    g = build_game(ea, tprime)
    phi = automaton_strategy_to_run(g, solve(g.arena))
    strj = pathfinder_strategy(ea, T_C)
    v = leads(ea, T_C, strj, tprime, phi)
    assert v == "rl"
    assert T_C.label(v) != tprime.label(v)


def test_leads_immediate_root_difference():
    g = build_game(NOT_A1, T_C)
    phi = automaton_strategy_to_run(g, solve(g.arena))
    strj = pathfinder_strategy(NOT_A1, T_A1)
    assert leads(NOT_A1, T_A1, strj, T_C, phi) == ""


def test_leads_rejects_non_accepting_run():
    ea = zoo_exists_a1()
    strj = pathfinder_strategy(ea, T_C)
    mach = build_tree(0, lambda s, d: 0 if (s == 0 and d == "l") else 1,
                      lambda s: "seek" if s == 0 else "done",
                      tuple(sorted(ea.states)))
    bad = RegularRun(ea, T_C, mach)
    with pytest.raises(PreconditionViolated):
        leads(ea, T_C, strj, T_C, bad)


def test_leads_rejects_run_on_wrong_tree():
    ea = zoo_exists_a1()
    tprime = graft_node(T_C, T_A1, "rl")
    g = build_game(ea, tprime)
    phi = automaton_strategy_to_run(g, solve(g.arena))
    strj = pathfinder_strategy(ea, T_C)
    with pytest.raises(PreconditionViolated):
        leads(ea, T_C, strj, graft_node(T_C, T_A1, "lr"), phi)


def test_leads_label_difference_on_generated_instances():
    """Perturb one node of a member tree; leads must locate a difference."""
    ea = zoo_exists_a1()
    strj = pathfinder_strategy(ea, T_C)
    for spot in ("r", "ll", "lrl", "rrr", "l"):
        tprime = graft_node(T_C, T_A1, spot)
        g = build_game(ea, tprime)
        phi = automaton_strategy_to_run(g, solve(g.arena))
        v = leads(ea, T_C, strj, tprime, phi)
        assert T_C.label(v) != tprime.label(v)


# ------------------------------------------------------- int product

def structural_product(a, t, name):
    """The membership arena built straight on tuple vertices, breadth first
    from every initial state: the reference for the int build."""
    owner, color, edges, sinks = {}, {}, {}, set()
    inits = [(t.init, q) for q in sorted(a.initials, key=str)]
    queue = list(inits)
    for v in queue:
        if v in owner:
            continue
        if len(v) == 2:
            m, q = v
            owner[v], color[v] = AUTOMATON, a.color[q]
            edges[v] = tuple((m, ql, qr) for ql, qr in a.moves(q, t.out[m]))
            if not edges[v]:
                sinks.add(v)
        else:
            m, ql, qr = v
            owner[v], color[v] = PATHFINDER, 0
            edges[v] = ((t.next[(m, "l")], ql), (t.next[(m, "r")], qr))
        queue += [w for w in edges[v] if w not in owner]
    init = inits[0] if len(inits) == 1 else None
    return ParityGameArena(name, owner, color, edges, frozenset(sinks),
                           init), inits


def multi_initial_cases(seed, count):
    """Seeded random (automaton, tree) pairs; most automata have several
    initial states and many products have sinks."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        a = random_pta(rng, ALPHA, rng.randint(1, 4), rng.randint(0, 6), 3)
        states = sorted(a.states)
        inits = frozenset(rng.sample(states, rng.randint(1, len(states))))
        a = ParityTreeAutomaton(a.name, a.alphabet, a.states, inits, a.delta,
                                a.color).check()
        cases.append((a, random_tree(rng, ALPHA, rng.randint(1, 5))))
    return cases


def test_member_agrees_with_solving_the_structural_game():
    cases = multi_initial_cases(20261018, 80)
    verdicts = []
    for a, t in cases:
        g = build_game(a, t)
        expected = solve(g.arena).winner_of(g.arena.init) == AUTOMATON
        assert member(a, t) == expected, (a, t)
        verdicts.append(expected)
    assert True in verdicts and False in verdicts
    assert sum(len(a.initials) > 1 for a, _ in cases) >= 30
    assert sum(bool(_product_arena(a, t, "G")[0].sinks)
               for a, t in cases) >= 20


def test_int_product_relabels_to_the_structural_arena():
    cases = multi_initial_cases(7, 40) + [(zoo_neg_union(2), T_C),
                                          (NOT_A1, T_A1)]
    assert sum(len(a.initials) > 1 for a, _ in cases) >= 10
    with_sinks = 0
    for a, t in cases:
        (succ, owner, color, sinks), names, keys = _product_ids(a, t)
        names = names()
        assert keys() == list(map(str, names))
        with_sinks += bool(sinks)
        assert len(succ) == len(owner) == len(color) == len(names)
        assert len(set(names)) == len(names)
        arena, inits = _product_arena(a, t, "G")
        assert (arena, inits) == structural_product(a, t, "G")
        assert list(arena.owner) == names     # numbered in discovery order
        assert arena.check() is arena
        assert [arena.edges[v] for v in names] == [
            tuple(names[j] for j in ws) for ws in succ]
        assert arena.sinks == frozenset(names[i] for i in sinks)
    assert with_sinks >= 10


def mixed_names_pta(rng):
    """A random automaton whose states are ints, tuples and strs, where 1
    and "1", and (0, 1) and "(0, 1)", print alike.  A state's children on
    one letter mix kinds, so its transitions there need not compare."""
    return pta_over(rng, [1, 2, "1", "(0, 1)", "x", (0, 1), (1, 0)])


# states whose repr escapes a quote, a backslash or a control character,
# or keeps a non-ASCII letter, and a tuple holding one
ESCAPED_STATES = ["it's", 'say "hi"', "back\\slash", "é", "ü'\"\\",
                  "tab\t", "'", '"', (0, "it's")]


def pta_over(rng, states):
    """A random automaton over the given states (at least three), with
    one to three initial states."""
    delta = set()
    for x in ALPHA:
        for q in rng.sample(states, rng.randint(1, len(states))):
            for _ in range(rng.randint(1, 3)):
                delta.add((q, x, rng.choice(states), rng.choice(states)))
    inits = frozenset(rng.sample(states, rng.randint(1, 3)))
    return ParityTreeAutomaton(
        "mixed", ALPHA, frozenset(states), inits, frozenset(delta),
        {q: rng.randrange(4) for q in states}).check()


def test_product_keys_are_the_str_of_the_names():
    rng = random.Random(20261020)
    for i in range(300):
        a = (mixed_names_pta(rng) if i % 2
             else pta_over(rng, rng.sample(ESCAPED_STATES, 5)))
        t = random_tree(rng, ALPHA, rng.randint(1, 5))
        _, names, keys = _product_ids(a, t)
        assert keys() == list(map(str, names()))


def test_member_keeps_states_apart_that_print_alike():
    rng = random.Random(9)
    verdicts = []
    for _ in range(60):
        a, t = mixed_names_pta(rng), random_tree(rng, ALPHA, rng.randint(1, 6))
        g = build_game(a, t)
        expected = solve(g.arena).winner_of(g.arena.init) == AUTOMATON
        assert member(a, t) == expected, (a, t)
        # the int build hides no state behind another's printed name
        arena, inits = structural_product(a, t, "G")
        assert _product_arena(a, t, "G") == (arena, inits)
        won = solve(arena).region[AUTOMATON]
        assert any(v in won for v in inits) == expected
        verdicts.append(expected)
    assert True in verdicts and False in verdicts


def test_children_of_mixed_kinds_on_one_letter():
    # (1, 1) and ("1", "1") do not compare; moves sorts them by str
    a = ParityTreeAutomaton(
        "mixed", ("c",), frozenset([1, "1"]), frozenset([1]),
        frozenset([(1, "c", 1, 1), (1, "c", "1", "1")]), {1: 0, "1": 1}).check()
    t = constant_tree("c", ("c",))
    assert a.moves(1, "c") == [("1", "1"), (1, 1)]
    assert member(a, t)
    g = build_game(a, t)
    assert g.arena == structural_product(a, t, g.arena.name)[0]
    analysis = solve(g.arena)
    assert analysis.winner_of(g.arena.init) == AUTOMATON
    assert analysis.strategy[AUTOMATON][g.arena.init] == (t.init, 1, 1)


def test_member_trims_only_moves_into_a_child_without_transition():
    """member's build drops exactly the moves with a child that has no
    transition on its letter, and keeps the verdict of solve on build_game
    and Automaton's region of the full build on every vertex it keeps."""
    rng = random.Random(20261021)
    cases = multi_initial_cases(7, 300)
    for i in range(600):
        a = (mixed_names_pta(rng) if i % 2
             else pta_over(rng, rng.sample(ESCAPED_STATES, 5)))
        cases.append((a, random_tree(rng, ALPHA, rng.randint(1, 5))))
    # no-max and perfect have states without a transition on some letter
    for _ in range(480):
        t = random_tree(rng, ("0", "1"), rng.randint(1, 6))
        cases += [(zoo_no_max(), t), (zoo_perf(), t)]
    assert len(cases) >= 1500
    trimmed = 0
    for a, t in cases:
        g = build_game(a, t)
        verdict = solve(g.arena).winner_of(g.arena.init) == AUTOMATON
        assert member(a, t) == verdict, (a, t)
        full, _ = _product_arena(a, t, "G")
        won_full = solve(full).region[AUTOMATON]
        (succ, owner, color, sinks), names, _ = _product_ids(a, t, trim=True)
        names = names()
        assert set(names) <= set(full.owner)
        trimmed += len(names) < len(full.owner)
        won, _ = automaton_wins(succ, owner, color, sinks)
        assert {names[v] for v in won} == won_full.intersection(names)

        def goes_on(m, q):
            return bool(a.moves(q, t.out[m]))

        for v, ws, c in zip(names, succ, color):
            assert c == full.color[v]
            kept = [names[w] for w in ws]
            if len(v) == 3:
                assert tuple(kept) == full.edges[v]
                continue
            m, q = v
            ml, mr = t.next[(m, "l")], t.next[(m, "r")]
            # a move is dropped iff one of its children has no transition
            assert kept == [(m, ql, qr) for ql, qr in a.moves(q, t.out[m])
                            if goes_on(ml, ql) and goes_on(mr, qr)]
    assert trimmed >= 500


def test_alphabet_mismatch_names_the_given_automaton():
    free = ParityTreeAutomaton(
        "two-starts", ("c",), frozenset(["p", "q"]), frozenset(["p", "q"]),
        frozenset([("p", "c", "p", "p"), ("q", "c", "q", "q")]),
        {"p": 0, "q": 0}).check()
    for call in (member, build_game):
        with pytest.raises(AlphabetMismatch) as e:
            call(free, T_C)
        assert str(e.value) == (f"{T_C.name} is over {T_C.alphabet}, "
                                f"outside two-starts's alphabet")


# sha256 of `treeamb game build` output on the shipped fixtures; the
# structural arena must not depend on how the product is numbered
GAME_BUILD_SHA256 = {
    ("exists_a1.pta", "t0.mtree"):
        "fe9a1a33c95bfc851a81b6543c71c053dc799b82e3cdd2090be1c67a12a31187",
    ("exists_a1.pta", "tc.mtree"):
        "fe9a1a33c95bfc851a81b6543c71c053dc799b82e3cdd2090be1c67a12a31187",
    ("exists_a1.pta", "tprime.mtree"):
        "884e4f2c4c6cf691ddd5d52c77e2c49569dea4769c508586e344312248b83c22",
    ("free2.pta", "tc.mtree"):
        "4832b757a8e69d724e05cfa99f8a8488c5a0c0d8e63623c34086535cc5821004",
    ("negunion2.pta", "t0.mtree"):
        "cb81efb5f2fadbe8094ec22413705ab48f7f6963930e20d807da748216cc4beb",
    ("negunion2.pta", "tc.mtree"):
        "cb81efb5f2fadbe8094ec22413705ab48f7f6963930e20d807da748216cc4beb",
    ("negunion2.pta", "tprime.mtree"):
        "d036749914b09ee2e04b268bafa7c2f4bd698548de33eb116238f6a59a308108",
}


@pytest.mark.parametrize("pta,mtree", sorted(GAME_BUILD_SHA256))
def test_game_build_bytes_are_pinned(pta, mtree, tmp_path, capsys):
    data = os.path.join(os.path.dirname(__file__), "data")
    out = tmp_path / "g.game"
    assert cli.run(["game", "build", "-a", os.path.join(data, pta),
                    "-t", os.path.join(data, mtree), "-o", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GAME_BUILD_SHA256[(pta, mtree)]
    capsys.readouterr()


# sha256 over no-max and perfect on seeded {0,1} trees of the .game bytes
# of build_game, the regions of `game solve` on those bytes, and on the
# rejected trees the .straj bytes of pathfinder_strategy; the named game
# keeps every move, also those that member leaves out
NAMED_PATH_SHA256 = (
    "5bbd135ca4f3afc1efb83a00f8857b376cc251b06cf972f9dfbc66c7c7cf9dd8")


def test_named_membership_path_is_pinned():
    rng = random.Random(20261022)
    zeros = constant_tree("0", ("0", "1"))
    lone = make_node("1", zeros, zeros)
    trees = [random_tree(rng, ("0", "1"), rng.randint(1, 6))
             for _ in range(60)]
    # a planted lone 1 has no 1 below it: both automata reject
    trees += [graft_node(rng.choice([zeros, trees[i]]), lone,
                         "".join(rng.choice("lr")
                                 for _ in range(rng.randint(0, 4))))
              for i in range(40)]
    digest = hashlib.sha256()
    rejected = 0
    for t in trees:
        for a in (zoo_no_max(), zoo_perf()):
            text = formats.serialize_game(build_game(a, t).arena)
            digest.update(text.encode())
            arena = formats.parse_game(text)
            analysis = solve(arena)
            digest.update("".join(f"{v} {analysis.winner_of(v)}\n"
                                  for v in arena.owner).encode())
            if analysis.winner_of(arena.init) == PATHFINDER:
                rejected += 1
                digest.update(formats.serialize_straj(
                    pathfinder_strategy(a, t)).encode())
    assert 80 <= rejected < 2 * len(trees)
    assert digest.hexdigest() == NAMED_PATH_SHA256
