import hashlib
import itertools
import random

import pytest

from test_membership import mixed_names_pta, random_pta
from treeamb.automata import (FiniteTreeAutomaton, ParityTreeAutomaton,
                              color_identity_dpw, conjunction_dpw,
                              conjunction_dpw_tuple,
                              det_pta_for_tree, fta_accepts,
                              fta_count_accepting_runs, fta_enumerate_accepted,
                              fta_is_unambiguous, intersect, moore_reduction,
                              restrict_initials, single_initial, union)
from treeamb.errors import AlphabetMismatch, UnknownState
from treeamb.formats import serialize_pta
from treeamb.trees import build_tree, constant_tree, last_letter_machine


def dpw_accepts_lasso(dpw, stem, cycle):
    """Independent acceptance check: drive the automaton around the cycle
    until a (state, phase) pair repeats, then inspect the loop's colors."""
    q = dpw.init
    for a in stem:
        q = dpw.delta[(q, a)]
    trace = []
    seen = {}
    idx = 0
    while (q, idx) not in seen:
        seen[(q, idx)] = len(trace)
        q = dpw.delta[(q, cycle[idx])]
        trace.append(q)
        idx = (idx + 1) % len(cycle)
    loop = trace[seen[(q, idx)]:]
    return max(dpw.color[s] for s in loop) % 2 == 0


def lasso_truth(cycle):
    """A color tuple sequence satisfies the conjunction iff every coordinate's
    maximal recurring value is even; on a lasso that is the cycle maximum."""
    width = len(cycle[0])
    return all(max(a[j] for a in cycle) % 2 == 0 for j in range(width))


def exhaust_lassos(dpw, letters, max_cycle, stems):
    for n in range(1, max_cycle + 1):
        for cycle in itertools.product(letters, repeat=n):
            want = lasso_truth(cycle)
            for stem in stems:
                assert dpw_accepts_lasso(dpw, stem, cycle) == want, \
                    (stem, cycle)


def test_identity_dpw_matches_parity():
    d = color_identity_dpw(3)
    exhaust_lassos(d, d.alphabet, 3, [(), ((3,),), ((0,), (1,))])


def test_conjunction_2_2_exhaustive():
    d = conjunction_dpw(2, 2)
    stems = [()] + [(a,) for a in d.alphabet]
    exhaust_lassos(d, d.alphabet, 3, stems)


def test_conjunction_2_4_exhaustive():
    d = conjunction_dpw(2, 4)
    stems = [()] + [(a,) for a in d.alphabet]
    exhaust_lassos(d, d.alphabet, 2, stems)


def test_conjunction_known_words():
    # [PAPER] the alternation (2,1)(0,2)(2,1)(0,2)... has coordinate maxima
    # 2 and 2, both even, so it is accepted
    d = conjunction_dpw(2, 2)
    assert dpw_accepts_lasso(d, (), ((2, 1), (0, 2)))
    assert not dpw_accepts_lasso(d, (), ((1, 0),))
    assert not dpw_accepts_lasso(d, (), ((2, 1),))          # right max 1
    assert dpw_accepts_lasso(d, ((1, 1),), ((0, 0),))       # stem forgiven


def test_conjunction_tuple_exhaustive():
    d = conjunction_dpw_tuple((2, 1, 2))
    stems = [(), (d.alphabet[0],), (d.alphabet[-1],)]
    exhaust_lassos(d, d.alphabet, 2, stems)


def test_conjunction_tuple_random_long_lassos():
    rng = random.Random(7)
    d = conjunction_dpw_tuple((2, 2, 2))
    for _ in range(300):
        stem = tuple(rng.choice(d.alphabet)
                     for _ in range(rng.randrange(4)))
        cycle = tuple(rng.choice(d.alphabet)
                      for _ in range(rng.randint(1, 5)))
        assert dpw_accepts_lasso(d, stem, cycle) == lasso_truth(cycle)


def test_conjunction_no_odd_colors_accepts_everything():
    d = conjunction_dpw(0, 2)
    # only coordinate 1 has an odd color; letters are still full pairs
    assert dpw_accepts_lasso(d, (), ((0, 2),))
    assert not dpw_accepts_lasso(d, (), ((0, 1),))


# --------------------------------------------------------------------------
# tree automata: structural behavior of the constructions

def two_state_pta():
    # accepts trees over (a, b) whose every branch shows a infinitely often
    states = frozenset(["qa", "qb"])
    delta = frozenset((q, x, s, s2)
                      for q in states
                      for x, target in (("a", "qa"), ("b", "qb"))
                      for s in [target] for s2 in [target])
    return ParityTreeAutomaton(
        "infA", ("a", "b"), states, frozenset(["qa", "qb"]), delta,
        {"qa": 2, "qb": 1}).check()


def test_union_structure():
    a = two_state_pta()
    b = det_pta_for_tree(constant_tree("a", ("a", "b")))
    u = union(a, b)
    u.check()
    assert len(u.states) == len(a.states) + len(b.states)
    assert len(u.initials) == len(a.initials) + len(b.initials)
    assert len(u.delta) == len(a.delta) + len(b.delta)
    assert u.max_color() == max(a.max_color(), b.max_color())


def test_restrict_and_single_initial():
    a = two_state_pta()
    r = restrict_initials(a, ["qa"])
    assert r.initials == frozenset(["qa"])
    with pytest.raises(UnknownState):
        restrict_initials(a, ["nope"])
    s = single_initial(a)
    fresh = next(iter(s.initials))
    assert fresh not in a.states and len(s.initials) == 1
    assert s.color[fresh] == 1
    # the fresh state copies exactly the moves of the old initials
    copied = {(x, l, r) for q, x, l, r in s.delta if q == fresh}
    original = {(x, l, r) for q, x, l, r in a.delta if q in a.initials}
    assert copied == original


def test_intersect_requires_same_alphabet():
    a = two_state_pta()
    b = det_pta_for_tree(constant_tree("c", ("c",)))
    with pytest.raises(AlphabetMismatch):
        intersect(a, b)


def test_intersect_structure_and_colors():
    a = two_state_pta()
    t = constant_tree("a", ("a", "b"))
    b = det_pta_for_tree(t, alphabet=("a", "b"))
    p = intersect(a, b)
    p.check()
    # every product state carries the conjunction automaton's color
    d = conjunction_dpw(a.max_color(), b.max_color())
    for (q1, q2, s) in p.states:
        assert q1 in a.states and q2 in b.states
        assert p.color[(q1, q2, s)] == d.color[s]


def test_det_pta_for_tree_shape():
    t = build_tree(0, lambda s, d: (s + (d == "l")) % 2, lambda s: "ab"[s],
                   ("a", "b"), name="flip")
    a = det_pta_for_tree(t)
    assert a.initials == frozenset([t.init])
    assert len(a.delta) == len(t.states)
    for q, x, l, r in a.delta:
        assert x == t.out[q]
        assert l == t.next[(q, "l")] and r == t.next[(q, "r")]
    with pytest.raises(AlphabetMismatch):
        det_pta_for_tree(t, alphabet=("a",))


def test_moore_reduction_structure():
    a = two_state_pta()
    m = last_letter_machine(("a", "b"))
    red = moore_reduction(a, m)
    red.check()
    assert red.alphabet == m.inputs
    assert red.initials == frozenset((q, m.init) for q in a.initials)
    # machine component advances before the inner automaton reads its letter
    for (q, mm), x, (l, ml), (r, mr) in red.delta:
        m2 = m.delta[(mm, x)]
        assert ml == m2 and mr == m2
        assert (q, m.out[m2], l, r) in a.delta
    with pytest.raises(AlphabetMismatch):
        moore_reduction(a, last_letter_machine(("a", "c")))


# --------------------------------------------------------------------------
# finite tree automata

def left_comb_fta():
    # accepts left combs over binary c / leaf x: c(c(...c(x,x)..., x), x)
    return FiniteTreeAutomaton(
        "combs", ("x",), ("c",),
        frozenset(["spine", "leaf"]), frozenset(["spine"]),
        frozenset([("leaf", "x")]),
        frozenset([("spine", "c", "spine", "leaf"),
                   ("spine", "c", "leaf", "leaf")])).check()


def test_fta_accepts_and_counts():
    f = left_comb_fta()
    assert fta_accepts(f, ("c", "x", "x"))
    assert fta_accepts(f, ("c", ("c", "x", "x"), "x"))
    assert not fta_accepts(f, ("c", "x", ("c", "x", "x")))
    assert not fta_accepts(f, "x")
    assert fta_count_accepting_runs(f, ("c", ("c", "x", "x"), "x")) == 1


def test_fta_unambiguous_and_not():
    assert fta_is_unambiguous(left_comb_fta())
    # two initial states both accepting the same leaf: two distinct runs
    f = FiniteTreeAutomaton(
        "dup", ("x",), ("c",), frozenset(["p", "q"]), frozenset(["p", "q"]),
        frozenset([("p", "x"), ("q", "x")]), frozenset()).check()
    assert not fta_is_unambiguous(f)
    assert fta_count_accepting_runs(f, "x") == 2
    # same two states but only one initial: unambiguous
    g = FiniteTreeAutomaton(
        "single", ("x",), ("c",), frozenset(["p", "q"]), frozenset(["p"]),
        frozenset([("p", "x"), ("q", "x")]), frozenset()).check()
    assert fta_is_unambiguous(g)


def test_fta_ambiguity_below_the_root():
    # one initial state, but the left child state can be chosen two ways
    f = FiniteTreeAutomaton(
        "inner", ("x",), ("c",),
        frozenset(["top", "u", "v"]), frozenset(["top"]),
        frozenset([("u", "x"), ("v", "x")]),
        frozenset([("top", "c", "u", "u"), ("top", "c", "v", "u")])).check()
    assert not fta_is_unambiguous(f)
    assert fta_count_accepting_runs(f, ("c", "x", "x")) == 2


def test_fta_enumerate_accepted():
    f = left_comb_fta()
    trees = fta_enumerate_accepted(f, 7)
    assert trees == [("c", "x", "x"),
                     ("c", ("c", "x", "x"), "x"),
                     ("c", ("c", ("c", "x", "x"), "x"), "x")]


def test_union_bytes_are_pinned():
    # sha256 of serialize_pta over 300 seeded unions: random automata over
    # one or two alphabets, and automata whose states print alike
    rng = random.Random(20261019)
    digest = hashlib.sha256()
    for i in range(300):
        if i % 3 == 2:
            a1, a2 = mixed_names_pta(rng), mixed_names_pta(rng)
        else:
            a1 = random_pta(rng, ("a", "b"), rng.randint(1, 5),
                            rng.randint(0, 6), 3)
            a2 = random_pta(rng, ("b", "c") if i % 3 else ("a", "b"),
                            rng.randint(1, 5), rng.randint(0, 6), 3)
        digest.update(serialize_pta(union(a1, a2)).encode())
    assert digest.hexdigest() == (
        "ba85d4cefb6f340e5798c27b9aff3746b3967cf0c7e916976188da859a413509")
