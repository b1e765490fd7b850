"""Membership game: arena shape, winner, strategy extraction, leads."""

import random

import pytest

from treeamb.automata import ParityTreeAutomaton, det_pta_for_tree, union
from treeamb.errors import (IncompleteStrategy, InconsistentRun, IsMember,
                            NotMember, PreconditionViolated, StateMismatch)
from treeamb.games import AUTOMATON, PATHFINDER, solve, verify_strategy
from treeamb.membership import (RegularRun, automaton_strategy_to_run,
                                build_game, leads, member,
                                pathfinder_strategy, run_check, run_graft,
                                run_is_accepting)
from treeamb.trees import build_tree, constant_tree, graft_node, tree_equal
from treeamb.zoo import forbid_letter, zoo_exists_a1, zoo_neg_union

ALPHA = ("c", "a1")
T_C = constant_tree("c", ALPHA)
T_A1 = constant_tree("a1", ALPHA)
NOT_A1 = forbid_letter("a1", ALPHA)


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
