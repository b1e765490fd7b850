"""Tests of the benchmark's reference oracles.

    python3 -m pytest perfbench/oracle_tests.py      (or run the file)

The file name keeps it out of the repository's own test collection.  Each
oracle is checked on instances whose answers treeamb's acceptance suite
and test suite already fix, and each certificate check must reject a
tampered certificate.
"""

import math
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from treeamb import zoo  # noqa: E402
from treeamb.ambiguity import INFINITE, RegenerationWitness, classify  # noqa: E402
from treeamb.automata import ParityTreeAutomaton, det_pta_for_tree  # noqa: E402
from treeamb.games import AUTOMATON, PATHFINDER, solve  # noqa: E402
from treeamb.membership import RegularRun, build_game  # noqa: E402
from treeamb.trees import (build_tree, constant_tree, graft_antichain,  # noqa: E402
                           graft_node, lstar_r_antichain, make_node)

import oracles  # noqa: E402
import workloads  # noqa: E402

CA = ("c", "a1")
AB = ("a", "b")
T_C = constant_tree("c", CA)
T_A1 = constant_tree("a1", CA)
SPREAD = graft_antichain(T_C, T_A1, lstar_r_antichain())
TWO = graft_node(graft_node(T_C, T_A1, "ll"), T_A1, "r")
BITS = ("0", "1")
ZEROS = constant_tree("0", BITS)
ONES = constant_tree("1", BITS)
LONE_ONE = make_node("1", ZEROS, ZEROS)
ONE_SPINE = build_tree(0, lambda s, d: 0 if (s, d) == (0, "l") else 1,
                       lambda s: "1" if s == 0 else "0", BITS)


# ------------------------------------------------------ minimal differences

def test_min_diff_count_matches_countably_infinite_criterion():
    assert oracles.min_diff_count(T_C, SPREAD) == math.inf
    assert oracles.min_diff_count(T_C, TWO) == 2


def test_min_diff_count_edge_cases():
    assert oracles.min_diff_count(T_C, T_C) == 0
    assert oracles.min_diff_count(T_C, T_A1) == 1
    assert oracles.min_diff_count(T_C, graft_node(T_C, T_A1, "lrl")) == 1


def test_min_diff_count_agrees_with_classify_on_small_random_pairs():
    rng = random.Random(7)
    for _ in range(30):
        t0 = workloads.random_tree(rng, CA, rng.randint(1, 6), "t0")
        t1 = workloads.random_tree(rng, CA, rng.randint(1, 6), "t1")
        v = classify(zoo.zoo_complement_singleton(t0), t1, 8)
        count = oracles.min_diff_count(t0, t1)
        if count == math.inf:
            assert v.kind == "infinite"
        else:
            assert (v.kind, v.n) == (("exact", count) if count <= 8
                                     else ("at_least", 9))


# ------------------------------------------------------- analytic member

def test_no_max_member_matches_zoo_tests():
    assert oracles.no_max_member(ZEROS)
    assert oracles.no_max_member(ONES)
    assert not oracles.no_max_member(LONE_ONE)
    assert oracles.no_max_member(ONE_SPINE)


def test_perf_member_matches_zoo_tests():
    assert oracles.perf_member(ONES)
    assert oracles.perf_member(ZEROS)
    assert not oracles.perf_member(LONE_ONE)
    assert not oracles.perf_member(ONE_SPINE)


def test_planted_lone_one_breaks_both():
    t = graft_node(ONES, LONE_ONE, "lr")
    assert not oracles.no_max_member(t)
    assert not oracles.perf_member(t)


# ------------------------------------------------- certificate checks

def _strategies(a, t):
    g = build_game(a, t)
    return g, solve(g.arena)


def test_accepting_run_check():
    a = zoo.forbid_letter("a1", CA)
    g, analysis = _strategies(a, T_C)
    choice = {v: p[1:] for v, p in analysis.strategy[AUTOMATON].items()}
    assert oracles.accepting_run_ok(a, T_C, choice, "ok")
    # the all-odd automaton's only run is a valid but rejecting one
    odd = zoo.forbid_letter("a1", CA)
    odd.color = {"ok": 1}
    assert not oracles.accepting_run_ok(odd, T_C, choice, "ok")
    # a choice that is not a transition on the label read
    assert not oracles.accepting_run_ok(a, T_A1, choice, "ok")


def test_pathfinder_check():
    a = zoo.zoo_exists_a1()
    g, analysis = _strategies(a, T_C)
    assert analysis.winner_of(g.arena.init) == PATHFINDER
    direction = {v: "l" if w == g.arena.edges[v][0] else "r"
                 for v, w in analysis.strategy[PATHFINDER].items()}
    assert oracles.pathfinder_wins(a, T_C, direction)
    # on a tree with an a1 at l, no direction choice refutes every run
    t = graft_node(T_C, T_A1, "l")
    pairs = {(m, ql, qr) for m in t.out for ql in a.states for qr in a.states}
    for d in "lr":
        assert not oracles.pathfinder_wins(a, t, dict.fromkeys(pairs, d))


def test_accepting_positions_agree_with_treeamb_on_small_random_ptas():
    rng = random.Random(11)
    for i in range(40):
        a = workloads.random_pta(rng, AB, rng.randint(2, 6), 4, f"r{i}")
        t = workloads.random_tree(rng, AB, rng.randint(1, 8), f"t{i}")
        mine = oracles.accepting_positions(a, t)
        g, analysis = _strategies(a, t)
        reach = oracles._reachable(
            [(t.init, q) for q in a.initials],
            lambda v: [(t.next[(v[0], d)], qd)
                       for ql, qr in oracles._moves_index(a).get(
                           (v[1], t.out[v[0]]), ())
                       for d, qd in (("l", ql), ("r", qr))])
        theirs = {v for v in analysis.region[AUTOMATON] if v in reach}
        assert mine == theirs


def test_pta_certificate_backs_every_answer():
    rng = random.Random(3)
    answers = set()
    for i in range(12):
        a = workloads.random_pta(rng, AB, 4, 3, f"r{i}")
        t = workloads.random_tree(rng, AB, 6, f"t{i}")
        cert = workloads._pta_certificate(a, t)
        assert cert is not None
        answers.add(cert)
    assert answers == {True, False}


def test_witness_check_accepts_classify_certificates():
    co = zoo.zoo_complement_singleton(T_C)
    v = classify(co, SPREAD, 8)
    assert oracles.witness_ok(co, SPREAD, v.witness, uncountable=False)
    frak = zoo.zoo_frak_scheme(det_pta_for_tree(T_C), co)
    u = classify(frak, SPREAD, 4)
    assert oracles.witness_ok(frak, SPREAD, u.witness, uncountable=True)


def test_witness_check_rejects_tampering():
    co = zoo.zoo_complement_singleton(T_C)
    w = classify(co, SPREAD, 8).witness
    r1, _ = w.runs
    same = type(w)(w.mode, w.vertex, w.spine, (r1, r1))
    assert not oracles.witness_ok(co, SPREAD, same, uncountable=False)
    cut = type(w)(w.mode, w.vertex, w.spine[:1], w.runs)
    assert not oracles.witness_ok(co, SPREAD, cut, uncountable=False)
    other = RegularRun(r1.automaton, r1.tree, constant_tree(
        next(iter(co.states)), tuple(co.states)))
    wrong = type(w)(w.mode, w.vertex, w.spine, (r1, other))
    assert not oracles.witness_ok(co, SPREAD, wrong, uncountable=False)


# A hand-made automaton on the constant-c tree.  From s, the spine
# s -> t2 -> s exists as moves; whether its first step is a winning move
# depends on whether s also has the move (t2, good), since "bad" has no
# transition.  good has two accepting runs, so s has two accepting runs.
STATES = ("s", "t2", "good", "good2", "bad")


def _spine_automaton(winning_spine, initial):
    delta = {("s", "c", "t2", "bad"), ("s", "c", "good", "good"),
             ("t2", "c", "s", "good"), ("good", "c", "good", "good"),
             ("good", "c", "good2", "good2"), ("good2", "c", "good2", "good2")}
    if winning_spine:
        delta.add(("s", "c", "t2", "good"))
    return ParityTreeAutomaton("spine", CA, frozenset(STATES),
                               frozenset([initial]), frozenset(delta),
                               dict.fromkeys(STATES, 0)).check()


def _spine_witness(a):
    def run(labels):        # state at depth d: labels[min(d, len - 1)]
        last = len(labels) - 1
        return RegularRun(a, T_C, build_tree(
            0, lambda d, _: min(d + 1, last), labels.__getitem__, STATES))

    v = (T_C.init, "s")
    return RegenerationWitness(INFINITE, v, (v, (T_C.init, "t2"), v),
                               (run(["s", "good"]),
                                run(["s", "good", "good2"])))


def test_witness_check_on_a_hand_made_spine():
    a = _spine_automaton(winning_spine=True, initial="s")
    assert oracles.witness_ok(a, T_C, _spine_witness(a), uncountable=False)


def test_witness_check_rejects_a_losing_sibling():
    a = _spine_automaton(winning_spine=False, initial="s")
    assert not oracles.witness_ok(a, T_C, _spine_witness(a), uncountable=False)


def test_witness_check_rejects_an_unreachable_vertex():
    # the same valid spine and runs, but no accepting run from good's
    # initial position passes through s
    a = _spine_automaton(winning_spine=True, initial="good")
    assert not oracles.witness_ok(a, T_C, _spine_witness(a), uncountable=False)


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items())
             if name.startswith("test_") and callable(f)]
    for f in tests:
        f()
        print(f"ok  {f.__name__}")
    print(f"{len(tests)} passed")
