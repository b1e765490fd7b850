"""Run-cardinality classifier: emptiness, k-distinct products, verdicts."""

import collections
import hashlib
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from treeamb.ambiguity import (INFINITE, UNCOUNTABLE, AmbiguityVerdict,
                               _RunCounts, _emptiness_ids,
                               _k_distinct_arena, _k_distinct_walk,
                               at_least_k, classify,
                               emptiness,
                               find_regeneration_witness,
                               k_distinct_runs_automaton, is_k_ambiguous,
                               nonempty_states, witness_is_valid)
from treeamb.automata import (ParityTreeAutomaton, det_pta_for_tree,
                              intersect, moore_reduction, trim_useful, union)
from treeamb.errors import NotMember
from treeamb.formats import serialize_pta, verdict_to_json
from treeamb.games import (AUTOMATON, PATHFINDER, ParityGameArena,
                           automaton_wins, cycle_tops, in_str_order, solve)
from treeamb.membership import member, run_is_accepting
from treeamb.trees import (MooreMachine, constant_tree, graft_antichain,
                           graft_node, lstar_r_antichain, make_node, relabel,
                           tree_equal)
from treeamb import ambiguity, membership, zoo

from test_membership import (ESCAPED_STATES, mixed_names_pta,
                             multi_initial_cases, outputs_under_hash_seeds,
                             pta_over, random_pta, random_tree)

ALPHA = ("c", "a1")
T_C = constant_tree("c", ALPHA)
T_A1 = constant_tree("a1", ALPHA)
NOT_A1 = zoo.forbid_letter("a1", ALPHA)


def all_odd():
    return ParityTreeAutomaton(
        "odd", ("c",), frozenset(["q"]), frozenset(["q"]),
        frozenset([("q", "c", "q", "q")]), {"q": 1}).check()


# --------------------------------------------------------------- emptiness

def test_emptiness_witness_for_forbidden_letter():
    w = emptiness(NOT_A1)
    assert w is not None
    assert member(NOT_A1, w)


def test_emptiness_none_when_all_colors_odd():
    assert emptiness(all_odd()) is None


def test_emptiness_witness_for_lfa():
    lfa = zoo.zoo_lfa()
    w = emptiness(lfa)
    assert w is not None
    assert member(lfa, w)


# two initials that print alike: sorted on str alone, their order follows
# the hash seed, and seeds 0 and 5 order them differently
_ALIKE_INITIALS = """
from treeamb.ambiguity import emptiness
from treeamb.automata import ParityTreeAutomaton
from treeamb.formats import serialize_mtree
a = ParityTreeAutomaton(
    "tie", ("c", "a1"), frozenset([1, "1"]), frozenset([1, "1"]),
    frozenset([(1, "c", 1, 1), ("1", "a1", "1", "1")]), {1: 0, "1": 0})
print(serialize_mtree(emptiness(a.check())), end="")
"""


def test_emptiness_witness_ignores_the_hash_seed():
    assert len(outputs_under_hash_seeds(_ALIKE_INITIALS, ("0", "5"))) == 1


def test_nonempty_states():
    assert nonempty_states(all_odd()) == frozenset()
    lfa = zoo.zoo_lfa()
    assert nonempty_states(lfa) == lfa.states


def test_trim_useful_drops_dead_states_and_keeps_language():
    odd = ParityTreeAutomaton("odd", ALPHA, frozenset(["q"]),
                              frozenset(["q"]),
                              frozenset([("q", "c", "q", "q")]),
                              {"q": 1}).check()
    u = union(NOT_A1, odd)
    trimmed = trim_useful(u)
    assert len(trimmed.states) < len(u.states)
    for t in (T_C, T_A1, graft_node(T_C, T_A1, "rl")):
        assert member(trimmed, t) == member(u, t)


def test_member_agrees_with_intersection_emptiness():
    rng = random.Random(41)
    for _ in range(10):
        a = random_pta(rng, ALPHA, 3, 5, 2)
        t = random_tree(rng, ALPHA, 3)
        d = det_pta_for_tree(t, alphabet=ALPHA)
        assert member(a, t) == (emptiness(intersect(a, d)) is not None)


# -------------------------------------------------------------- k distinct

def test_k_distinct_rejects_bad_k():
    with pytest.raises(ValueError):
        k_distinct_runs_automaton(NOT_A1, 0)


def test_one_distinct_is_the_same_language():
    rng = random.Random(5)
    for a in (NOT_A1, zoo.zoo_exists_a1()):
        k1 = k_distinct_runs_automaton(a, 1)
        for _ in range(5):
            t = random_tree(rng, ALPHA, 3)
            assert member(k1, t) == member(a, t)


def test_two_distinct_on_union_of_identical_dets():
    u = union(det_pta_for_tree(T_C), det_pta_for_tree(T_C))
    assert member(k_distinct_runs_automaton(u, 2), T_C)
    assert not member(k_distinct_runs_automaton(u, 3), T_C)


def test_at_least_agrees_with_k_distinct_membership():
    # the counting shortcut must decide exactly what the product decides
    rng = random.Random(11)
    for _ in range(8):
        a = random_pta(rng, ALPHA, 3, 4, 1)
        t = random_tree(rng, ALPHA, 2)
        for k in (1, 2):
            lit = member(k_distinct_runs_automaton(a, k), t)
            assert at_least_k(a, t, k) == lit


# --------------------------------------------------------------- at least

def test_at_least_k_basics():
    d = det_pta_for_tree(T_C)
    assert at_least_k(d, T_C, 1)
    assert not at_least_k(d, T_C, 2)
    u = union(det_pta_for_tree(T_C), det_pta_for_tree(T_C))
    assert at_least_k(u, T_C, 2)
    assert not at_least_k(u, T_C, 3)
    with pytest.raises(ValueError):
        at_least_k(d, T_C, 0)


def test_at_least_k_on_free_choice():
    t = constant_tree("c", ("c",))
    assert at_least_k(zoo.zoo_free2(), t, 4)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_at_least_k_is_monotone(seed):
    rng = random.Random(seed)
    a = random_pta(rng, ALPHA, 3, 4, 2)
    t = random_tree(rng, ALPHA, 3)
    answers = [at_least_k(a, t, k) for k in range(1, 5)]
    assert answers == sorted(answers, reverse=True)


# ----------------------------------------------------------- k ambiguous

def test_is_k_ambiguous_basics():
    d = det_pta_for_tree(T_C)
    assert is_k_ambiguous(d, 1)
    u = union(det_pta_for_tree(T_C), det_pta_for_tree(T_C))
    assert not is_k_ambiguous(u, 1)
    assert is_k_ambiguous(u, 2)
    with pytest.raises(ValueError):
        is_k_ambiguous(d, 0)


def test_is_k_ambiguous_on_negation_union():
    nb = zoo.zoo_neg_union(2)
    assert not is_k_ambiguous(nb, 1)
    assert is_k_ambiguous(nb, 2)


def test_exists_is_ambiguous():
    assert not is_k_ambiguous(zoo.zoo_exists_a1(), 1)


def high_colors():
    """Colors up to 3; p has no move on a1, and s has no move at all."""
    return ParityTreeAutomaton(
        "high", ALPHA, frozenset("pqrs"), frozenset("pq"),
        frozenset([("p", "c", "q", "p"), ("p", "c", "p", "p"),
                   ("q", "c", "q", "q"), ("q", "a1", "r", "q"),
                   ("r", "c", "r", "p"), ("r", "a1", "q", "s")]),
        {"p": 2, "q": 2, "r": 3, "s": 0}).check()


def _k_amb_cases():
    rng = random.Random(23)
    cases = [random_pta(rng, ALPHA, rng.randint(1, 3), rng.randint(1, 5),
                        rng.randint(0, 2)) for _ in range(12)]
    # multi-initial: each argument keeps its own initial state
    cases.append(union(random_pta(rng, ALPHA, 2, 2, 1),
                       random_pta(rng, ALPHA, 2, 3, 2)))
    return cases + [high_colors(), zoo.zoo_neg_union(2), zoo.zoo_neg_union(3),
                    zoo.zoo_lfa(), zoo.zoo_exists_a1()]


def test_is_k_ambiguous_agrees_with_structural_product():
    for a in _k_amb_cases():
        for k in (1, 2):
            structural = k_distinct_runs_automaton(a, k + 1)
            assert is_k_ambiguous(a, k) == (emptiness(structural) is None)


def test_int_product_relabels_to_structural_product():
    # the walk numbers the structural product in breadth-first discovery
    # order, the initial states first in str order
    for a in _k_amb_cases():
        for k in (1, 2, 3):
            names, color, ninit, steps = _k_distinct_walk(a, k)
            b = k_distinct_runs_automaton(a, k)
            assert len(names) == len(set(names)) == len(color) == len(steps)
            assert names[:ninit] == sorted(b.initials, key=str)
            found = ninit
            for out in steps:
                for _, kids in out:
                    for c in itertools.chain.from_iterable(kids):
                        assert c <= found
                        found += c == found
            assert found == len(names)
            assert b.color == dict(zip(names, color))
            assert b.delta == {(names[i], x, names[l], names[r])
                               for i, out in enumerate(steps)
                               for x, kids in out for l, r in kids}


def test_k_distinct_game_has_one_pathfinder_vertex_per_child_pair():
    repeats = 0
    for a in _k_amb_cases():
        for k in (1, 2, 3):
            (succ, owner, color, sinks), ninit = _k_distinct_arena(a, k)
            _, colors, walk_ninit, steps = _k_distinct_walk(a, k)
            n = len(steps)
            assert ninit == walk_ninit
            assert owner[:n] == bytearray(n) and set(owner[n:]) <= {1}
            assert color == colors + [0] * (len(succ) - n)
            moves = [[p for _, kids in out for p in kids] for out in steps]
            pairs = [succ[v] for v in range(n, len(succ))]
            assert len(pairs) == len(set(pairs))
            assert set(pairs) == {p for ps in moves for p in ps}
            # one move per distinct pair, in the order the walk lists them
            assert [tuple(succ[v] for v in succ[i]) for i in range(n)] == [
                tuple(dict.fromkeys(ps)) for ps in moves]
            assert sinks == [i for i in range(n) if not moves[i]]
            repeats += sum(len(ps) > len(set(ps)) for ps in moves)
    assert repeats      # some state reaches one pair on two letters


# sha256 of serialize_pta(k_distinct_runs_automaton(zoo_neg_union(n), k)):
# the structural automaton must not depend on how the build numbers states
NEG_UNION_K_DISTINCT_SHA256 = {
    (2, 2): "b2f42bc9ae7defd32ce66b68bda866e331809b8db939ea42a898d4b6bcd9fc2e",
    (2, 3): "11b6d2e211489fce244c7daf6182a8fbb542cae03fd122b838554b2f4cc7f4a3",
    (3, 2): "18880b0d0102358f923227e5f93b9940b840c43e691e82b16d7a5b9200bdd753",
    (3, 3): "805e7ed39736e8eccfab0073f6fb5a74268a77bcbc61134df83e589598cb61a0",
}


@pytest.mark.parametrize("n,k", sorted(NEG_UNION_K_DISTINCT_SHA256))
def test_k_distinct_serialization_is_pinned(n, k):
    text = serialize_pta(k_distinct_runs_automaton(zoo.zoo_neg_union(n), k))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == NEG_UNION_K_DISTINCT_SHA256[(n, k)]


def test_free_choice_is_very_ambiguous():
    # the 4-distinct product of the free automaton is the largest game in
    # this file: is_k_ambiguous(free2, 3) takes about 3 s and 196 MB peak
    # RSS on a 2-core box with Python 3.11.7
    free2 = zoo.zoo_free2()
    assert not is_k_ambiguous(free2, 1)
    assert not is_k_ambiguous(free2, 3)
    v = classify(free2, constant_tree("c", ("c",)), 3)
    assert v.kind == UNCOUNTABLE


# ---------------------------------------------------------------- classify

def test_classify_counts_union_of_forbidden_letters():
    for k in (1, 2, 3):
        nb = zoo.zoo_neg_union(k)
        v = classify(nb, constant_tree("c", nb.alphabet), 5)
        assert v == AmbiguityVerdict.exact(k)


def test_classify_zero_when_not_member():
    assert classify(zoo.zoo_neg_union(1), T_A1, 5) == AmbiguityVerdict.exact(0)
    with pytest.raises(ValueError):
        classify(NOT_A1, T_C, 0)


def test_classify_at_least_when_count_exceeds_bound():
    d = det_pta_for_tree(T_C)
    v = classify(union(union(d, d), d), T_C, 2)
    assert v.kind == "at_least" and v.n == 3


def test_classify_free_choice_uncountable():
    t = constant_tree("c", ("c",))
    free2 = zoo.zoo_free2()
    v = classify(free2, t, 3)
    assert v.kind == UNCOUNTABLE
    assert v.witness.vertex == (t.init, "q1")
    assert witness_is_valid(free2, t, v.witness)
    r1, r2 = v.witness.runs
    assert run_is_accepting(r1) and run_is_accepting(r2)
    assert not tree_equal(r1.machine, r2.machine)


def test_classify_complement_singleton_infinite_and_exact():
    co = zoo.zoo_complement_singleton(T_C)
    spread = graft_antichain(T_C, T_A1, lstar_r_antichain())
    v = classify(co, spread, 8)
    assert v.kind == INFINITE
    assert witness_is_valid(co, spread, v.witness)
    two = graft_node(graft_node(T_C, T_A1, "ll"), T_A1, "r")
    assert classify(co, two, 8) == AmbiguityVerdict.exact(2)


def test_classify_controlled_splitting_uncountable():
    co = zoo.zoo_complement_singleton(T_C)
    frak = zoo.zoo_frak_scheme(det_pta_for_tree(T_C), co)
    spread = graft_antichain(T_C, T_A1, lstar_r_antichain())
    v = classify(frak, spread, 4)
    assert v.kind == UNCOUNTABLE
    assert witness_is_valid(frak, spread, v.witness)


def test_classify_finite_hierarchy_witnesses():
    lfa = zoo.zoo_lfa()
    for m in (2, 3):
        w = zoo.lfa_witness_tree(m, 1)
        assert classify(lfa, w, 8) == AmbiguityVerdict.exact(2 * m)


def test_lfa_is_never_k_ambiguous():
    lfa = zoo.zoo_lfa()
    for k in range(1, 6):
        assert at_least_k(lfa, zoo.lfa_witness_tree(k + 1, 0), k + 1)


def test_classify_exact_coherence():
    nb = zoo.zoo_neg_union(2)
    t = constant_tree("c", nb.alphabet)
    v = classify(nb, t, 5)
    assert v.kind == "exact"
    assert at_least_k(nb, t, v.n)
    assert not at_least_k(nb, t, v.n + 1)


def test_classify_deterministic_is_unambiguous():
    rng = random.Random(23)
    for _ in range(10):
        d = det_pta_for_tree(random_tree(rng, ALPHA, 3), alphabet=ALPHA)
        t = random_tree(rng, ALPHA, 3)
        v = classify(d, t, 3)
        assert v in (AmbiguityVerdict.exact(0), AmbiguityVerdict.exact(1))


def test_classify_adds_over_union():
    rng = random.Random(31)
    done = 0
    while done < 5:
        t1 = random_tree(rng, ALPHA, 2)
        t2 = random_tree(rng, ALPHA, 2)
        sample = random.Random(done).choice([t1, t2])
        u = union(det_pta_for_tree(t1, alphabet=ALPHA),
                  det_pta_for_tree(t2, alphabet=ALPHA))
        parts = (classify(det_pta_for_tree(t1, alphabet=ALPHA), sample, 3).n +
                 classify(det_pta_for_tree(t2, alphabet=ALPHA), sample, 3).n)
        assert classify(u, sample, 3) == AmbiguityVerdict.exact(parts)
        done += 1


def law_tree(rng):
    """A random tree of 1-3 states, or a c-spine (or a random tree) with a
    random tree hung at every l*r node."""
    r = rng.randrange(3)
    if r == 0:
        return random_tree(rng, ALPHA, rng.randint(1, 3))
    base = T_C if r == 1 else random_tree(rng, ALPHA, 2)
    return graft_antichain(base, random_tree(rng, ALPHA, rng.randint(1, 2)),
                           lstar_r_antichain())


def law_part(rng, t):
    """An automaton over ALPHA from a family that reaches every verdict
    kind on law_tree's trees: random, complement-singleton (Infinite on
    the grafts), a frak scheme (Uncountable), or 1-4 copies of the
    deterministic automaton for t (AtLeast past 2) or for another tree."""
    r = rng.randrange(6)
    if r == 0:
        return random_pta(rng, ALPHA, rng.randint(1, 3), rng.randint(1, 4),
                          rng.randint(0, 3))
    t0 = random_tree(rng, ALPHA, rng.randint(1, 2))
    if r in (1, 5):
        return zoo.zoo_complement_singleton(t0)
    if r == 2:
        return zoo.zoo_frak_scheme(det_pta_for_tree(t0, alphabet=ALPHA),
                                   zoo.zoo_complement_singleton(t0))
    d = out = det_pta_for_tree(t if r == 3 else t0, alphabet=ALPHA)
    for _ in range(rng.randint(0, 3)):
        out = union(out, d)
    return out


def test_classify_verdicts_obey_the_union_and_intersect_laws():
    # union adds run counts and intersect multiplies them, so with K fixed
    # the composite's verdict follows from its parts': Uncountable before
    # Infinite before the sum or product, capped at AtLeast(K+1), and
    # Exact(0) first for intersect.  Sums and products past 2 need the
    # larger K to show
    rng = random.Random(1)
    kinds = collections.Counter()
    for i in range(1200):
        K = rng.choice((2, 8))
        t = law_tree(rng)
        a, b = law_part(rng, t), law_part(rng, t)
        op = (union, intersect)[i % 2]
        v, w = classify(a, t, K), classify(b, t, K)
        got = classify(op(a, b), t, K)
        kinds[op, got.kind] += 1
        if op is intersect and 0 in (v.n, w.n):
            assert got == AmbiguityVerdict.exact(0)
        elif UNCOUNTABLE in (v.kind, w.kind):
            assert got.kind == UNCOUNTABLE
        elif INFINITE in (v.kind, w.kind):
            assert got.kind == INFINITE
        else:
            n = v.n + w.n if op is union else v.n * w.n
            assert got == (AmbiguityVerdict.at_least(K + 1) if n > K
                           else AmbiguityVerdict.exact(n))
    assert min(kinds[op, kind] for op in (union, intersect)
               for kind in ("exact", "at_least", INFINITE, UNCOUNTABLE)) >= 30


def reference_total(counts, cap):
    """_RunCounts.total as it was before it counted in the order of
    strongly_connected_components: a post-order walk from the roots, with
    a stack of (vertex, ready) and the set of vertices being expanded."""
    br, wmoves, succ = counts.branching, counts.wmoves, counts.succ
    memo, expanding = {}, set()
    stack = [(v, False) for v in counts.roots]
    while stack:
        u, ready = stack.pop()
        if u in memo:
            continue
        if u not in br:
            memo[u] = 1
            continue
        if ready:
            expanding.discard(u)
            n = 0
            for cl, cr in wmoves[u]:
                n += memo[cl] * memo[cr]
                if n >= cap:
                    n = cap
                    break
            memo[u] = n
        else:
            if u in expanding:
                raise AssertionError(
                    "counting over a branching cycle; the infinite "
                    "certificate should have fired first")
            expanding.add(u)
            stack.append((u, True))
            stack += [(c, False) for c in succ[u] if c not in memo]
    return min(sum(memo[v] for v in counts.roots), cap)


def prefix_tree(rng, depth):
    """A random finite prefix of make_node nodes, at most depth deep, over
    the constant-c tree or small random trees."""
    if depth == 0 or rng.random() < 0.25:
        return (T_C if rng.random() < 0.7
                else random_tree(rng, ALPHA, rng.randint(1, 2)))
    return make_node(rng.choice(ALPHA), prefix_tree(rng, depth - 1),
                     prefix_tree(rng, depth - 1))


def test_total_agrees_with_the_reference_count():
    # exists-a1 forks at each a1 of a finite prefix, off every cycle; the
    # sums and products of two parts nest those forks
    rng = random.Random(20261023)
    exists = zoo.zoo_exists_a1()

    def part(t):
        return (exists, law_part(rng, t),
                union(exists, law_part(rng, t)))[rng.randrange(3)]

    pairs = branching = 0
    totals = collections.Counter()
    for i in range(3000):
        t = prefix_tree(rng, 4)
        a, b = part(t), part(t)
        counts = _RunCounts((a, union(a, b), intersect(a, b))[i % 3], t)
        if not counts.roots or counts.regeneration_vertices():
            continue
        pairs += 1
        branching += bool(counts.order)
        for cap in range(1, 7):
            assert counts.total(cap) == reference_total(counts, cap)
        totals[counts.total(7)] += 1
        if pairs == 1200:
            break
    assert pairs == 1200 and branching > 300
    assert min(totals[n] for n in range(1, 8)) >= 30, totals


def test_total_on_the_zoo():
    lfa = zoo.zoo_lfa()
    for m in range(2, 6):
        counts = _RunCounts(lfa, zoo.lfa_witness_tree(m, 1))
        assert counts.total(2 * m + 1) == 2 * m
        assert counts.total(m) == m
    for k in range(1, 5):
        counts = _RunCounts(zoo.zoo_neg_union(k), T_C)
        assert counts.total(k + 1) == k
    # free2's reachable regeneration vertex sits on a branching cycle
    counts = _RunCounts(zoo.zoo_free2(), constant_tree("c", ("c",)))
    assert counts.regeneration_vertices()
    with pytest.raises(AssertionError, match="branching cycle"):
        counts.total(3)


def test_classify_verdicts_obey_the_moore_reduction_law():
    # moore_reduction(a, M)'s runs on t are a's runs on relabel(M, t), one
    # for one, so both classify alike; the witnesses differ in their names
    rng = random.Random(2)
    xy = ("x", "y")
    kinds = collections.Counter()
    for i in range(600):
        a = random_pta(rng, xy, rng.randint(1, 3), rng.randint(1, 4),
                       rng.randint(0, 3))
        if i % 3 == 0:
            a = union(a, random_pta(rng, xy, rng.randint(1, 2),
                                    rng.randint(1, 3), rng.randint(0, 3)))
        ms = tuple(range(rng.randint(1, 3)))
        m = MooreMachine("m", ALPHA, xy, ms, 0,
                         {(s, x): rng.choice(ms) for s in ms for x in ALPHA},
                         {s: rng.choice(xy) for s in ms}).check()
        t = random_tree(rng, ALPHA, rng.randint(1, 3))
        got = classify(moore_reduction(a, m), t, 6)
        want = classify(a, relabel(m, t), 6)
        assert (got.kind, got.n) == (want.kind, want.n)
        kinds["Exact(0)" if got.n == 0 else got.kind] += 1
    assert min(kinds["Exact(0)"], kinds["exact"], kinds[UNCOUNTABLE]) >= 30, \
        kinds


# ------------------------------------------------------------- witnesses

def test_witness_none_on_deterministic():
    d = det_pta_for_tree(T_C)
    assert find_regeneration_witness(d, T_C, INFINITE) is None
    assert find_regeneration_witness(d, T_C, UNCOUNTABLE) is None


def test_witness_requires_membership():
    with pytest.raises(NotMember):
        find_regeneration_witness(zoo.zoo_neg_union(1), T_A1, INFINITE)


def test_witness_modes_are_checked():
    with pytest.raises(ValueError):
        find_regeneration_witness(zoo.zoo_free2(),
                                  constant_tree("c", ("c",)), "sideways")


def test_infinite_witness_reoccurs_in_searching_state():
    co = zoo.zoo_complement_singleton(T_C)
    spread = graft_antichain(T_C, T_A1, lstar_r_antichain())
    w = find_regeneration_witness(co, spread, INFINITE)
    assert w is not None
    m, q = w.vertex
    assert q[0] == "seek"
    assert w.spine[0] == w.vertex and w.spine[-1] == w.vertex
    assert witness_is_valid(co, spread, w)


def test_uncountable_witness_spine_has_even_max():
    t = constant_tree("c", ("c",))
    free2 = zoo.zoo_free2()
    w = find_regeneration_witness(free2, t, UNCOUNTABLE)
    assert max(free2.color[q] for _, q in w.spine) % 2 == 0
    assert witness_is_valid(free2, t, w)


def test_tampered_witness_is_rejected():
    t = constant_tree("c", ("c",))
    free2 = zoo.zoo_free2()
    w = find_regeneration_witness(free2, t, UNCOUNTABLE)
    same_runs = type(w)(w.mode, w.vertex, w.spine, (w.runs[0], w.runs[0]))
    assert not witness_is_valid(free2, t, same_runs)
    broken_spine = type(w)(w.mode, w.vertex, w.spine[:1], w.runs)
    assert not witness_is_valid(free2, t, broken_spine)
    # names that are no product vertex, as the vertex or inside the spine
    stranger = ("nowhere", "q")
    elsewhere = type(w)(w.mode, stranger, w.spine, w.runs)
    assert not witness_is_valid(free2, t, elsewhere)
    detour = type(w)(w.mode, w.vertex,
                     w.spine[:1] + (stranger,) + w.spine[1:], w.runs)
    assert not witness_is_valid(free2, t, detour)
    # accepting, distinct runs of another automaton on another tree
    co = zoo.zoo_complement_singleton(T_C)
    spread = graft_antichain(T_C, T_A1, lstar_r_antichain())
    w2 = classify(co, spread, 8).witness
    assert w2.mode == INFINITE and witness_is_valid(co, spread, w2)
    foreign = type(w2)(w2.mode, w2.vertex, w2.spine, w.runs)
    assert not witness_is_valid(co, spread, foreign)
    # malformed runs are invalid, not errors: a third run, a run machine
    # missing an edge or with a label outside its alphabet, a run tree
    # missing an edge
    third = type(w)(w.mode, w.vertex, w.spine, w.runs + w.runs[:1])
    assert not witness_is_valid(free2, t, third)
    r = w.runs[0]

    def with_run(machine=r.machine, tree=r.tree):
        runs = (type(r)(r.automaton, tree, machine), w.runs[1])
        return type(w)(w.mode, w.vertex, w.spine, runs)

    def without_edge(m):
        return replace(m, next={k: s for k, s in m.next.items()
                                if k != (m.init, "l")})

    assert not witness_is_valid(free2, t,
                                with_run(machine=without_edge(r.machine)))
    stray = replace(r.machine, out={**r.machine.out, r.machine.init: "x"})
    assert not witness_is_valid(free2, t, with_run(machine=stray))
    assert not witness_is_valid(free2, t, with_run(tree=without_edge(r.tree)))


def test_classify_json_of_random_pairs_is_pinned():
    # sha256 of the classify --json text of 400 seeded random pairs; the
    # sample reaches every verdict and more than one Infinite certificate
    rng = random.Random(20261019)
    digest, kinds = hashlib.sha256(), collections.Counter()
    for _ in range(400):
        a = random_pta(rng, ALPHA, rng.randint(1, 6), rng.randint(0, 10),
                       rng.randint(0, 4))
        t = random_tree(rng, ALPHA, rng.randint(1, 5))
        v = classify(a, t, 8)
        kinds[v.kind] += 1
        digest.update(verdict_to_json(v).encode())
    assert kinds == {"exact": 352, UNCOUNTABLE: 46, INFINITE: 2}
    assert digest.hexdigest() == (
        "35019724aab7ba90706019071b44866a2c916be996db73d7bd0baaa8e4139fa3")


# (0, (1, 0)) and (0, "(1, 0)") are both regeneration vertices and both
# qualify for the uncountable certificate; sorted on the tree state and str
# alone, the certificate's vertex followed the hash seed (seeds 0 and 1
# disagreed)
_ALIKE_VERTICES = """
from treeamb.ambiguity import INFINITE, UNCOUNTABLE, find_regeneration_witness
from treeamb.automata import ParityTreeAutomaton
from treeamb.trees import constant_tree
s, S = (1, 0), "(1, 0)"
a = ParityTreeAutomaton(
    "tie", ("c",), frozenset([s, S]), frozenset([s]),
    frozenset((p, "c", q, q) for p in (s, S) for q in (s, S)), {s: 0, S: 0})
t = constant_tree("c", ("c",))
for mode in (INFINITE, UNCOUNTABLE):
    print(repr(find_regeneration_witness(a.check(), t, mode).vertex))
"""


def test_certificate_vertex_ignores_the_hash_seed():
    # repr breaks the tie: "'(1, 0)'" sorts before "(1, 0)"
    assert outputs_under_hash_seeds(_ALIKE_VERTICES, ("0", "1")) == {
        "(0, '(1, 0)')\n" * 2}


def test_search_order_sorts_states_by_str_then_repr():
    # ties on (tree state, str) need the repr: 1 and "1", (0, 1) and
    # "(0, 1)"
    rng = random.Random(20261020)
    ties = 0
    for i in range(300):
        a = (mixed_names_pta(rng) if i % 2
             else pta_over(rng, rng.sample(ESCAPED_STATES, 5)))
        t = random_tree(rng, ALPHA, rng.randint(1, 5))
        counts = _RunCounts(a, t)
        names = counts.names
        assert counts.order == sorted(
            counts.reach & counts.branching, key=lambda u: (
                names[u][0], str(names[u][1]), repr(names[u][1])))
        printed = [(names[u][0], str(names[u][1])) for u in counts.order]
        ties += len(set(printed)) < len(printed)
    assert ties > 5


def test_branching_components_match_the_full_decomposition():
    # comps runs cycle_tops on the branching vertices alone; a cycle
    # through a branching vertex stays among them, so every reachable
    # branching vertex sits in the same components, level by level, as
    # when cycle_tops runs over the whole winning region
    rng = random.Random(20261019)
    on_cycle = nested = 0
    for i in range(300):
        if i % 3 == 0:
            a, t = mixed_names_pta(rng), random_tree(rng, ALPHA,
                                                     rng.randint(1, 5))
        else:
            t = law_tree(rng)
            a = law_part(rng, t)
        counts = _RunCounts(a, t)
        full = {}
        for S, c in cycle_tops(counts.succ, counts.succ.__getitem__,
                               counts.color):
            for v in S:
                full.setdefault(v, []).append((S, c))
        for v in counts.reach & counts.branching:
            assert counts.comps.get(v, []) == full.get(v, [])
            on_cycle += v in full
            nested += len(full.get(v, ())) > 1
    assert on_cycle > 50 and nested > 10


def test_random_witnesses_are_valid_and_some_fork_below_the_vertex():
    # the residual runs split at the nearest vertex with two winning moves;
    # when that lies strictly below the witness vertex, both runs agree at
    # the root's children and follow the strategy down to the fork
    rng = random.Random(20261018)
    below = 0
    for _ in range(300):
        a = random_pta(rng, ALPHA, rng.randint(2, 5), rng.randint(2, 8),
                       rng.randint(0, 3))
        t = random_tree(rng, ALPHA, rng.randint(1, 4))
        v = classify(a, t, 3)
        if v.kind not in (INFINITE, UNCOUNTABLE):
            continue
        assert witness_is_valid(a, t, v.witness)
        m0, m1 = (r.machine for r in v.witness.runs)
        below += all(m0.label(d) == m1.label(d) for d in "lr")
    assert below > 0


# ------------------------------------- derived verdicts on the letter zoo

def test_classify_no_maximal_one():
    a = zoo.zoo_no_max()
    zeros = constant_tree("0", ("0", "1"))
    ones = constant_tree("1", ("0", "1"))
    assert classify(a, zeros, 3) == AmbiguityVerdict.exact(1)
    assert classify(a, ones, 3).kind == UNCOUNTABLE


def test_classify_perfect_ones():
    a = zoo.zoo_perf()
    assert classify(a, constant_tree("0", ("0", "1")), 3) == \
        AmbiguityVerdict.exact(1)
    assert classify(a, constant_tree("1", ("0", "1")), 3).kind == UNCOUNTABLE


def test_classify_x_below_y():
    a = zoo.zoo_x_subset_ydown()
    assert classify(a, constant_tree("00", a.alphabet), 3) == \
        AmbiguityVerdict.exact(1)
    assert classify(a, constant_tree("11", a.alphabet), 3) == \
        AmbiguityVerdict.exact(1)


# ------------------------------------------------- int emptiness game

def structural_emptiness_game(a):
    """The emptiness arena built straight on tagged vertices: the reference
    for the int build."""
    owner, color, edges, sinks = {}, {}, {}, set()
    for q in a.states:
        v = ("q", q)
        owner[v], color[v] = AUTOMATON, a.color[q]
        trs = sorted((tr for tr in a.delta if tr[0] == q), key=str)
        edges[v] = tuple(("t", tr) for tr in trs)
        if not trs:
            sinks.add(v)
        for tr in trs:
            owner[("t", tr)], color[("t", tr)] = PATHFINDER, 0
            edges[("t", tr)] = (("q", tr[2]), ("q", tr[3]))
    return ParityGameArena(f"empty[{a.name}]", owner, color, edges,
                           frozenset(sinks))


def _emptiness_cases():
    rng = random.Random(20261018)
    cases = [random_pta(rng, ALPHA, rng.randint(1, 5), rng.randint(0, 8), 3)
             for _ in range(40)]
    return cases + [all_odd(), NOT_A1, zoo.zoo_neg_union(2), zoo.zoo_lfa(),
                    zoo.zoo_exists_a1(), zoo.zoo_free2()]


def test_int_emptiness_game_relabels_to_the_structural_arena():
    for a in _emptiness_cases():
        succ, owner, color, sinks, names = _emptiness_ids(a)
        assert names == sorted(names, key=str)
        g = structural_emptiness_game(a)
        assert g.check() is g
        assert len(set(names)) == len(names) and set(names) == g.owner.keys()
        assert [g.owner[v] for v in names] == [(AUTOMATON, PATHFINDER)[o]
                                               for o in owner]
        assert [g.color[v] for v in names] == color
        assert [g.edges[v] for v in names] == [
            tuple(names[j] for j in ws) for ws in succ]
        assert frozenset(names[i] for i in sinks) == g.sinks


def test_emptiness_ids_are_in_str_order_as_built():
    # in_str_order leaves the arena as it is: emptiness solves the arena
    # that it solved when it renumbered the build, ties between names
    # that print alike included
    rng = random.Random(20261023)
    for i in range(2400):
        if i % 3 == 0:
            a = random_pta(rng, ALPHA, rng.randint(1, 6), rng.randint(0, 8),
                           rng.randint(0, 4))
        elif i % 3 == 1:
            a = mixed_names_pta(rng)
        else:
            a = pta_over(rng, rng.sample(ESCAPED_STATES, rng.randint(3, 7)))
        *arena, names = _emptiness_ids(a)
        renumbered, _, rank = in_str_order(*arena, names,
                                           list(map(str, names)))
        assert rank == list(range(len(names)))
        assert renumbered == tuple(arena)


def test_verdict_arenas_come_back_from_automaton_wins_unchanged(monkeypatch):
    """The int arenas of _product_ids, _emptiness_ids and
    _k_distinct_arena are solved as built and left as they were; the
    emptiness arenas give each state one move per distinct pair or
    transition."""
    sinks_seen = {"_product_ids": set(), "_emptiness_ids": set(),
                  "_k_distinct_arena": set()}
    made_by = []

    def checked(succ, owner, color, sinks):
        before = [list(succ), bytearray(owner), list(color), list(sinks)]
        result = automaton_wins(succ, owner, color, sinks)
        assert [succ, owner, color, sinks] == before
        if made_by[-1] != "_product_ids":
            assert all(len(set(ws)) == len(ws)
                       for ws, o in zip(succ, owner) if not o)
        sinks_seen[made_by[-1]].add(bool(sinks))
        return result

    monkeypatch.setattr(membership, "automaton_wins", checked)
    monkeypatch.setattr(ambiguity, "automaton_wins", checked)
    for a, t in multi_initial_cases(5, 40):
        made_by.append("_product_ids")
        member(a, t)
    cases = _emptiness_cases() + _k_amb_cases()
    for a in cases:
        made_by.append("_emptiness_ids")
        nonempty_states(a)
        made_by.append("_k_distinct_arena")
        is_k_ambiguous(a, 1)
    assert all(seen == {True, False} for seen in sinks_seen.values())
    assert any(len(a.initials) > 1 for a in cases)


def test_nonempty_states_and_is_k_ambiguous_agree_with_solve():
    cases = _emptiness_cases()
    answers = set()
    for a in cases:
        analysis = solve(structural_emptiness_game(a))
        won = frozenset(q for q in a.states
                        if analysis.winner_of(("q", q)) == AUTOMATON)
        assert nonempty_states(a) == won
        answers.add(won == a.states)
    assert answers == {True, False}
    rng = random.Random(11)
    small = [random_pta(rng, ALPHA, 3, rng.randint(0, 5), 1) for _ in range(10)]
    verdicts = set()
    for a in small + [NOT_A1, zoo.zoo_neg_union(2), zoo.zoo_exists_a1()]:
        for k in (1, 2):
            b = k_distinct_runs_automaton(a, k + 1)
            analysis = solve(structural_emptiness_game(b))
            empty = all(analysis.winner_of(("q", q)) == PATHFINDER
                        for q in b.initials)
            assert is_k_ambiguous(a, k) == empty
            verdicts.add(empty)
    assert verdicts == {True, False}
