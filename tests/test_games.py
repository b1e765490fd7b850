import hashlib
import itertools
import random
import sys

import pytest

from test_membership import outputs_under_hash_seeds, random_pta, random_tree
from treeamb.ambiguity import _RunCounts
from treeamb.errors import IncompleteStrategy, MalformedArena
from treeamb.games import (AUTOMATON, PATHFINDER, ParityGameArena,
                           automaton_wins, bfs, cycle_tops, in_str_order,
                           solve, solve_oracle,
                           strongly_connected_components, verify_strategy)


def arena(owner, color, edges, sinks=(), name="g", init=None):
    return ParityGameArena(name, dict(owner), dict(color),
                           {v: tuple(ws) for v, ws in edges.items()},
                           frozenset(sinks), init).check()


def test_self_loop_parity():
    g = arena({0: AUTOMATON}, {0: 0}, {0: [0]})
    assert solve(g).winner_of(0) == AUTOMATON
    g = arena({0: AUTOMATON}, {0: 1}, {0: [0]})
    assert solve(g).winner_of(0) == PATHFINDER


def test_two_cycle_max_color_decides():
    g = arena({"a": AUTOMATON, "p": PATHFINDER},
              {"a": 1, "p": 2},
              {"a": ["p"], "p": ["a"]})
    an = solve(g)
    assert an.region[AUTOMATON] == {"a", "p"}
    assert an.region[PATHFINDER] == frozenset()


def test_choice_vertex_picks_even_loop():
    g = arena({"a": AUTOMATON, "good": PATHFINDER, "bad": PATHFINDER},
              {"a": 1, "good": 2, "bad": 1},
              {"a": ["good", "bad"], "good": ["good"], "bad": ["bad"]})
    an = solve(g)
    assert an.region[AUTOMATON] == {"a", "good"}
    assert an.region[PATHFINDER] == {"bad"}
    assert an.strategy[AUTOMATON]["a"] == "good"
    assert an.strategy[PATHFINDER] == {"bad": "bad"}


def test_sink_loses_for_owner():
    # [TRIVIAL] a stuck player loses on the spot
    g = arena({"s": AUTOMATON}, {"s": 0}, {}, sinks=["s"])
    assert solve(g).winner_of("s") == PATHFINDER
    g = arena({"s": PATHFINDER}, {"s": 5}, {}, sinks=["s"])
    assert solve(g).winner_of("s") == AUTOMATON


def test_pathfinder_can_steer_into_automaton_sink():
    g = arena({"p": PATHFINDER, "s": AUTOMATON, "ok": AUTOMATON},
              {"p": 0, "s": 0, "ok": 2},
              {"p": ["ok", "s"], "ok": ["p"]}, sinks=["s"])
    an = solve(g)
    assert an.region[PATHFINDER] == {"p", "s", "ok"}
    assert an.strategy[PATHFINDER]["p"] == "s"


def test_pathfinder_wins_odd_trap():
    # Automaton may shuttle between two odd colors forever, or enter an
    # even self-loop that the Pathfinder immediately exits through color 3.
    g = arena({0: AUTOMATON, 1: AUTOMATON, 2: PATHFINDER},
              {0: 1, 1: 3, 2: 2},
              {0: [1, 2], 1: [0], 2: [1]})
    an = solve(g)
    assert an.region[PATHFINDER] == {0, 1, 2}
    assert verify_strategy(g, PATHFINDER, an.strategy[PATHFINDER],
                           an.region[PATHFINDER])


def test_malformed_arenas_rejected():
    with pytest.raises(MalformedArena):
        arena({0: AUTOMATON}, {0: 0}, {})          # no move, not a sink
    with pytest.raises(MalformedArena):
        arena({0: AUTOMATON}, {0: 0}, {0: [0]}, sinks=[0])
    with pytest.raises(MalformedArena):
        arena({0: AUTOMATON}, {0: 0}, {0: [1]})    # dangling edge
    with pytest.raises(MalformedArena):
        arena({0: "X"}, {0: 0}, {0: [0]})


def _strategy_domains_exact(g, an):
    for p in (AUTOMATON, PATHFINDER):
        expect = {v for v in an.region[p]
                  if g.owner[v] == p and v not in g.sinks}
        assert set(an.strategy[p]) == expect


def test_exhaustive_two_vertex_agreement():
    # every 2-vertex arena with colors in {0,1}: recursive solver,
    # progress-measure oracle, and strategy verification all agree
    edge_opts = [(), (0,), (1,), (0, 1)]
    count = 0
    for o0, o1 in itertools.product((AUTOMATON, PATHFINDER), repeat=2):
        for c0, c1 in itertools.product((0, 1), repeat=2):
            for e0, e1 in itertools.product(edge_opts, repeat=2):
                sinks = [v for v, e in ((0, e0), (1, e1)) if not e]
                g = arena({0: o0, 1: o1}, {0: c0, 1: c1},
                          {0: e0, 1: e1}, sinks=sinks)
                an = solve(g)
                ora = solve_oracle(g)
                assert an.region == ora.region
                _strategy_domains_exact(g, an)
                for p in (AUTOMATON, PATHFINDER):
                    assert verify_strategy(g, p, an.strategy[p], an.region[p])
                    assert verify_strategy(g, p, ora.strategy[p], ora.region[p])
                count += 1
    assert count == 256


def random_arena(rng, n):
    owner = {v: rng.choice((AUTOMATON, PATHFINDER)) for v in range(n)}
    color = {v: rng.randrange(4) for v in range(n)}
    edges = {}
    sinks = []
    for v in range(n):
        if rng.random() < 0.1:
            edges[v] = ()
            sinks.append(v)
        else:
            k = rng.randint(1, min(3, n))
            edges[v] = tuple(rng.sample(range(n), k))
    return arena(owner, color, edges, sinks=sinks)


def test_random_arenas_solver_vs_oracle():
    rng = random.Random(20240817)
    for _ in range(150):
        g = random_arena(rng, rng.randint(1, 7))
        an = solve(g)
        ora = solve_oracle(g)
        assert an.region == ora.region
        _strategy_domains_exact(g, an)
        _strategy_domains_exact(g, ora)
        for p in (AUTOMATON, PATHFINDER):
            assert verify_strategy(g, p, an.strategy[p], an.region[p])
            assert verify_strategy(g, p, ora.strategy[p], ora.region[p])


def test_verify_rejects_bad_strategy():
    g = arena({"a": AUTOMATON, "good": PATHFINDER, "bad": PATHFINDER},
              {"a": 1, "good": 2, "bad": 1},
              {"a": ["good", "bad"], "good": ["good"], "bad": ["bad"]})
    assert verify_strategy(g, AUTOMATON, {"a": "good"}, {"a"})
    assert not verify_strategy(g, AUTOMATON, {"a": "bad"}, {"a"})
    with pytest.raises(IncompleteStrategy):
        verify_strategy(g, AUTOMATON, {}, {"a"})
    with pytest.raises(IncompleteStrategy):
        verify_strategy(g, AUTOMATON, {"a": "a"}, {"a"})  # not an edge


def test_verify_rejects_reachable_owned_sink():
    g = arena({"a": AUTOMATON, "s": AUTOMATON},
              {"a": 0, "s": 0}, {"a": ["s"]}, sinks=["s"])
    assert not verify_strategy(g, AUTOMATON, {"a": "s"}, {"a"})


def test_verify_rejects_a_bad_cycle_below_a_good_top():
    # a -> p -> a tops at 2, good for Automaton; inside it, Pathfinder's
    # self-loop at p tops at 1, so Pathfinder can stay there and win
    owner = {"a": AUTOMATON, "p": PATHFINDER}
    edges = {"a": ["p"], "p": ["a", "p"]}
    g = arena(owner, {"a": 2, "p": 1}, edges)
    assert not verify_strategy(g, AUTOMATON, {"a": "p"}, {"a"})
    g = arena(owner, {"a": 2, "p": 0}, edges)
    assert verify_strategy(g, AUTOMATON, {"a": "p"}, {"a"})


def tops_of(vertices, succ, color):
    return sorted((sorted(S), c) for S, c in cycle_tops(vertices, succ, color))


def test_scc_and_cycle_helpers():
    succ = {0: [1], 1: [2], 2: [0], 3: [3], 4: [0]}.__getitem__
    comps = strongly_connected_components({0, 1, 2, 3, 4}, succ)
    assert sorted(sorted(c) for c in comps) == [[0, 1, 2], [3], [4]]
    color = {0: 0, 1: 2, 2: 1, 3: 1, 4: 3}
    # 0 -> 1 -> 2 -> 0 tops at 2, and 0 and 2 below it hold no cycle; 3's
    # self-loop tops at 1; the trivial singleton 4 holds no cycle
    assert tops_of({0, 1, 2, 3, 4}, succ, color) == [([0, 1, 2], 2),
                                                     ([3], 1)]
    assert tops_of({0, 1, 2}, succ, color) == [([0, 1, 2], 2)]
    assert tops_of({3, 4}, succ, color) == [([3], 1)]
    assert tops_of({4}, succ, color) == []
    # a 2-cycle, successors outside the set ignored, given as a generator
    two = {5: [6, 0], 6: [5, 3]}
    color.update({5: 0, 6: 4})

    def gen(v):
        return (w for w in two[v])

    assert tops_of([5, 6], gen, color) == [([5, 6], 4)]
    assert tops_of([5], gen, color) == []
    # nested levels: 7 -> 8 -> 9 -> 7 tops at 4, 8 <-> 9 at 2 inside it,
    # and 8's self-loop at 1 inside that
    nest = {7: [8], 8: [8, 9], 9: [7, 8]}.__getitem__
    color.update({7: 4, 8: 1, 9: 2})
    assert tops_of([7, 8, 9], nest, color) == [([7, 8, 9], 4), ([8], 1),
                                               ([8, 9], 2)]


def max_color_components(vertices, succ, color, c):
    """The per-color definition cycle_tops answers: the strongly connected
    components inside the vertices of color at most c that hold a cycle
    and a vertex of color c."""
    sub = {v for v in vertices if color[v] <= c}
    found = []
    for comp in strongly_connected_components(sub, succ):
        v = next(iter(comp))
        if (len(comp) > 1 or v in succ(v)) and any(color[u] == c
                                                   for u in comp):
            found.append(comp)
    return found


def test_cycle_tops_matches_the_per_color_definition():
    rng = random.Random(20261019)
    nested = 0
    for _ in range(1500):
        n = rng.randint(1, 9)
        vertices = list(range(n))
        color = {v: rng.randint(0, 4) for v in range(n + 2)}
        # ids n and n + 1 lie outside the set
        edges = {v: [rng.randrange(n + 2) for _ in range(rng.randint(0, 3))]
                 for v in vertices}
        found = list(cycle_tops(vertices, edges.__getitem__, color))
        # some vertex lies in components of two levels
        nested += sum(map(len, (S for S, _ in found))) > len(
            set().union(*(S for S, _ in found)))
        for c in range(5):
            want = max_color_components(vertices, edges.__getitem__, color, c)
            got = [S for S, top in found if top == c]
            assert sorted(map(sorted, got)) == sorted(map(sorted, want))
    assert nested > 50


def reference_sccs(vertices, succ):
    """Tarjan as strongly_connected_components ran it before it skipped
    non-members lazily and tested the stack by low: a filtered successor
    list per pushed vertex and a separate on-stack set."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]
    members = set(vertices)
    for root in vertices:
        if root in index:
            continue
        work = [(root, iter([w for w in succ(root) if w in members]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter([u for u in succ(w) if u in members])))
                    advanced = True
                    break
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def test_sccs_match_the_reference_tarjan():
    """Same components in the same order on seeded graphs over int, str
    and tuple vertices (some printing alike), with successors outside the
    set, self-loops and parallel edges."""
    rng = random.Random(20261020)
    pool = [0, 1, 2, 9, 10, "1", "a", "(0, 1)", (0, 1), (1, 0), (2,),
            ("x", (1, "y")), "é"]
    seen = {"outside": 0, "self-loop": 0, "parallel": 0, "big": 0}
    for _ in range(1500):
        names = rng.sample(pool, rng.randint(1, len(pool)))
        inside = names[:rng.randint(1, len(names))]
        succ = {v: [rng.choice(names) for _ in range(rng.randint(0, 4))]
                for v in names}
        got = strongly_connected_components(inside, succ.__getitem__)
        assert got == reference_sccs(inside, succ.__getitem__)
        seen["outside"] += any(w not in inside
                               for v in inside for w in succ[v])
        seen["self-loop"] += any(v in succ[v] for v in inside)
        seen["parallel"] += any(len(set(succ[v])) < len(succ[v])
                                for v in inside)
        seen["big"] += any(len(c) > 2 for c in got)
    assert min(seen.values()) > 200, seen


def test_sccs_come_after_every_component_they_reach():
    """On every edge u -> w inside the set, w's component is emitted no
    later than u's: reverse topological order, which _RunCounts.total
    counts in.  Seeded graphs with self-loops, parallel edges and
    successors outside the vertex list."""
    rng = random.Random(20261023)
    seen = {"outside": 0, "self-loop": 0, "parallel": 0, "across": 0}
    for _ in range(2000):
        n = rng.randint(1, 12)
        inside = rng.sample(range(n + 3), n)
        succ = {v: [rng.randrange(n + 3) for _ in range(rng.randint(0, 3))]
                for v in inside}
        comps = strongly_connected_components(inside, succ.__getitem__)
        where = {v: i for i, comp in enumerate(comps) for v in comp}
        assert sorted(where) == sorted(inside)
        for u in inside:
            for w in succ[u]:
                if w in where:
                    assert where[w] <= where[u]
                    seen["across"] += where[w] < where[u]
        seen["outside"] += any(w not in where for v in inside
                               for w in succ[v])
        seen["self-loop"] += any(v in succ[v] for v in inside)
        seen["parallel"] += any(len(set(succ[v])) < len(succ[v])
                                for v in inside)
    assert min(seen.values()) > 200, seen


def test_ties_break_in_str_order():
    # ids follow str order ("10" < "2"), so 10 is pulled toward vertex 1
    # before 2 is, and 0's first edge into the attractor is 0 -> 10
    owner = {v: AUTOMATON for v in (0, 1, 2, 3, 10)}
    color = {0: 0, 1: 2, 2: 0, 3: 0, 10: 0}
    edges = {0: [2, 10], 10: [1], 3: [1], 2: [3], 1: [1]}
    an = solve(arena(owner, color, edges))
    assert an.region[AUTOMATON] == {0, 1, 2, 3, 10}
    assert an.strategy[AUTOMATON][0] == 10


def test_many_color_layers_do_not_overflow(monkeypatch):
    # one decomposition layer per color: isolated self-loops with distinct
    # colors, and a chain whose colors strictly decrease toward its final
    # self-loop, with owners alternating; both go deeper than the default
    # interpreter recursion limit
    def refuse(limit):
        raise AssertionError("solve changed the recursion limit")
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    n = 1500
    owner = {v: AUTOMATON for v in range(n)}
    color = {v: 2 * v for v in range(n)}
    edges = {v: (v,) for v in range(n)}
    g = arena(owner, color, edges)
    an = solve(g)
    assert an.region[AUTOMATON] == frozenset(range(n))
    n = 3000
    owner = {v: (AUTOMATON, PATHFINDER)[v % 2] for v in range(n)}
    color = {v: n - v for v in range(n)}
    edges = {v: (min(v + 1, n - 1),) for v in range(n)}
    an = solve(arena(owner, color, edges))
    # every play ends on the self-loop at n - 1, whose color 1 is odd
    assert an.region[PATHFINDER] == frozenset(range(n))
    assert an.strategy[PATHFINDER] == {v: min(v + 1, n - 1)
                                       for v in range(1, n, 2)}


def test_bfs_order_parents_and_lazy_successors():
    graph = {0: [1, 2], 1: [3], 2: [3, 0], 3: [], 4: [0]}
    assert list(bfs([0], graph.__getitem__)) == [0, 1, 2, 3]
    # repeated starts are yielded once, in first-seen order
    assert list(bfs([2, 0, 2], graph.__getitem__)) == [2, 0, 3, 1]
    parent = {}
    assert list(bfs([4], graph.__getitem__, parent)) == [4, 0, 1, 2, 3]
    assert parent == {4: None, 0: 4, 1: 0, 2: 0, 3: 1}
    # the loop body may supply a vertex's successors after it is yielded
    edges = {}
    for v in bfs([0], edges.__getitem__):
        edges[v] = [w for w in (2 * v + 1, 2 * v + 2) if w < 7]
    assert list(edges) == list(range(7))
    # leaving early leaves the rest unexplored
    asked = []

    def succ(v):
        asked.append(v)
        return graph[v]

    for v in bfs([0], succ):
        if v == 1:
            break
    assert asked == [0]


def test_branching_is_reaching_two_winning_moves():
    # branching agrees with a naive closure: a winning vertex is
    # branching iff it reaches, through winning moves, one with two of them
    alpha = ("c", "a1")
    rng = random.Random(4)
    seen = set()
    for _ in range(300):
        a = random_pta(rng, alpha, rng.randrange(1, 5), 5, 2)
        t = random_tree(rng, alpha, rng.randrange(1, 4))
        counts = _RunCounts(a, t)
        for v in counts.wmoves:
            reach, todo = {v}, [v]
            while todo:
                for w in counts.succ[todo.pop()]:
                    if w not in reach:
                        reach.add(w)
                        todo.append(w)
            naive = any(len(counts.wmoves[u]) >= 2 for u in reach)
            assert (v in counts.branching) == naive
            seen.add(naive)
    assert seen == {False, True}


def int_form(g, order):
    """g's vertices numbered in the given order, as automaton_wins takes
    them."""
    ids = {v: i for i, v in enumerate(order)}
    succ = [tuple(ids[w] for w in g.edges[v]) for v in order]
    owner = bytearray(g.owner[v] == PATHFINDER for v in order)
    return (succ, owner, [g.color[v] for v in order],
            [ids[v] for v in order if v in g.sinks])


def test_automaton_wins_matches_solve_in_any_numbering():
    rng = random.Random(20261018)
    for _ in range(150):
        g = random_arena(rng, rng.randint(1, 9))
        order = sorted(g.owner)
        rng.shuffle(order)
        arena = int_form(g, order)
        won, choice = automaton_wins(*arena)
        assert {order[i] for i in won} == solve(g).region[AUTOMATON]
        assert len(choice) == len(order)
        assert int_form(g, order) == arena      # untouched


def test_in_str_order_gives_automaton_the_choices_of_solve():
    """With only Automaton sinks, automaton_wins on the str-order
    renumbering returns solve's Automaton region and strategy; on the
    build order the strategy differs on some arenas."""
    rng = random.Random(20261019)
    differs = 0
    for _ in range(2000):
        names = rng.sample(range(40), rng.randint(1, 9))  # "10" < "9"
        owner = {v: rng.choice((AUTOMATON, PATHFINDER)) for v in names}
        color = {v: rng.randrange(5) for v in names}
        edges, sinks = {}, []
        for v in names:
            if owner[v] == AUTOMATON and rng.random() < 0.15:
                edges[v] = ()
                sinks.append(v)
            else:   # parallel edges allowed
                edges[v] = [rng.choice(names)
                            for _ in range(rng.randint(1, 3))]
        g = arena(owner, color, edges, sinks)
        an = solve(g)
        built = int_form(g, names)
        renumbered, ordered, rank = in_str_order(*built, names,
                                                 list(map(str, names)))
        assert ordered == sorted(names, key=str)
        assert [ordered[i] for i in rank] == names
        won, choice = automaton_wins(*renumbered)
        assert {ordered[v] for v in won} == an.region[AUTOMATON]
        assert {ordered[v]: ordered[choice[v]] for v in won
                if not renumbered[1][v]} == an.strategy[AUTOMATON]
        won, choice = automaton_wins(*built)
        differs += {names[v]: names[choice[v]] for v in won
                    if not built[1][v]} != an.strategy[AUTOMATON]
    assert differs > 20


def test_automaton_wins_with_sinks_of_both_owners():
    """With Pathfinder sinks as well as Automaton's, automaton_wins' region
    is solve's and solve_oracle's; its choices win there, enter no sink of
    Automaton's and are never made at a sink."""
    rng = random.Random(20261020)
    for _ in range(2000):
        n = rng.randint(2, 9)
        owner = {v: rng.choice((AUTOMATON, PATHFINDER)) for v in range(n)}
        owner[0], owner[1] = AUTOMATON, PATHFINDER
        sinks = {0, 1} | {v for v in range(2, n) if rng.random() < 0.15}
        edges = {v: () if v in sinks else
                 [rng.randrange(n) for _ in range(rng.randint(1, 3))]
                 for v in range(n)}
        g = arena(owner, {v: rng.randrange(5) for v in range(n)}, edges,
                  sinks)
        order = list(range(n))
        rng.shuffle(order)
        built = int_form(g, order)
        won, choice = automaton_wins(*built)
        region = {order[v] for v in won}
        assert region == solve(g).region[AUTOMATON]
        assert region == solve_oracle(g).region[AUTOMATON]
        strategy = {order[v]: order[choice[v]] for v in won
                    if not built[1][v]}
        assert verify_strategy(g, AUTOMATON, strategy, region)
        assert all(owner[w] == PATHFINDER for w in strategy.values()
                   if w in sinks)
        assert all(choice[v] is None for v in built[3])


def test_automaton_wins_only_reads_its_arguments():
    """An arena with sinks given as tuples and bytes is solved as the same
    arena given as lists."""
    rng = random.Random(20261021)
    solved = 0
    for _ in range(300):
        g = random_arena(rng, rng.randint(1, 9))
        if g.sinks:
            succ, owner, color, sinks = int_form(g, sorted(g.owner))
            assert automaton_wins(tuple(succ), bytes(owner), tuple(color),
                                  tuple(sinks)) == automaton_wins(
                                      succ, owner, color, sinks)
            solved += 1
    assert solved > 50


def test_malformed_int_arenas_rejected():
    ok = ([(1,), ()], bytearray([0, 1]), [2, 1], [1])
    # Pathfinder's sink 1 loses; a sink may be listed twice
    for sinks in ([1], [1, 1]):
        won, choice = automaton_wins(*ok[:3], sinks)
        assert won == {0, 1} and choice[0] == 1 and len(choice) == 2
    for succ, owner, color, sinks in [
            ([()], bytearray([0]), [0], []),      # no move, not a sink
            ([(0,)], bytearray([0]), [0], [0]),   # sink with a move
            ([(0,)], bytearray([0]), [0], [1]),   # undeclared sink
            ([(1,)], bytearray([0]), [0], []),    # dangling edge
            ([(-1,)], bytearray([0]), [0], []),   # dangling edge
            ([(0,)], bytearray([2]), [0], []),    # no such owner
            ([(0,)], bytearray([0]), [-1], []),   # negative color
            ([(0,)], bytearray([0, 1]), [0], [])]:    # owner for no vertex
        with pytest.raises(MalformedArena):
            automaton_wins(succ, owner, color, sinks)


def test_automaton_wins_counts_parallel_edges():
    # Pathfinder's 0 has two moves, both to 1, which Automaton wins on its
    # color-2 loop; 0 is attracted only if both edges count
    succ, owner, color = [(1, 1), (1,)], bytearray([1, 0]), [1, 2]
    assert automaton_wins(succ, owner, color, [])[0] == {0, 1}
    g = arena({0: PATHFINDER, 1: AUTOMATON}, {0: 1, 1: 2},
              {0: (1, 1), 1: (1,)})
    assert solve(g).region[AUTOMATON] == {0, 1}


# 1 and "1", 2 and "2", (0, 1) and "(0, 1)" print alike; interned in str
# order alone, they kept set order, and Automaton's move at 1 was 2 under
# PYTHONHASHSEED=0 and "1" under 24
_ALIKE_ARENA = """
from treeamb.games import ParityGameArena, solve
A, P = "A", "P"
owner = {"1": A, 1: A, "(0, 1)": A, "2": A, 2: P, (0, 1): A}
color = {"1": 0, 1: 0, "(0, 1)": 1, "2": 1, 2: 2, (0, 1): 0}
edges = {"1": (2, 1, (0, 1)), 1: ("1", "(0, 1)", "2", 2, (0, 1), 1),
         "(0, 1)": ("(0, 1)", (0, 1), "2"), "2": ("(0, 1)",),
         2: (2, "2", 1), (0, 1): (2, "(0, 1)", 1, "1", (0, 1), "2")}
an = solve(ParityGameArena("alike", owner, color, edges, frozenset()))
for p in (A, P):
    print(p, sorted(map(repr, an.region[p])),
          sorted((repr(v), repr(w)) for v, w in an.strategy[p].items()))
"""


def test_solve_on_names_that_print_alike_is_pinned():
    # Automaton wins everything; its moves, as reprs
    region = ["'(0, 1)'", "'1'", "'2'", "(0, 1)", "1", "2"]
    moves = [("'(0, 1)'", "(0, 1)"), ("'1'", "2"), ("'2'", "'(0, 1)'"),
             ("(0, 1)", "2"), ("1", "'1'")]
    assert outputs_under_hash_seeds(_ALIKE_ARENA, ("0", "5", "24")) == {
        f"A {region} {moves}\nP [] []\n"}


def _oracle_arenas():
    """Every arena of at most 2 vertices with colors {0,1,2}, then 1,500
    seeded random ones of at most 9 vertices, colors up to 5 and some
    sinks, named by a mix of ints and strs that print alike."""
    for n in (1, 2):
        subsets = [s for k in range(n + 1)
                   for s in itertools.combinations(range(n), k)]
        for owners in itertools.product((AUTOMATON, PATHFINDER), repeat=n):
            for colors in itertools.product((0, 1, 2), repeat=n):
                for succ in itertools.product(subsets, repeat=n):
                    yield arena(dict(enumerate(owners)),
                                dict(enumerate(colors)),
                                dict(enumerate(succ)),
                                sinks=[v for v in range(n) if not succ[v]])
    rng = random.Random(20261020)
    pool = list(range(9)) + [str(i) for i in range(9)] + ["v1", "v2"]
    for _ in range(1500):
        names = rng.sample(pool, rng.randint(1, 9))
        owner = {v: rng.choice((AUTOMATON, PATHFINDER)) for v in names}
        color = {v: rng.randrange(6) for v in names}
        edges = {v: () if rng.random() < 0.1 else
                 tuple(rng.choice(names) for _ in range(rng.randint(1, 3)))
                 for v in names}
        yield arena(owner, color, edges,
                    sinks=[v for v in names if not edges[v]])


def test_solve_oracle_outputs_are_pinned():
    # the progress-measure oracle's regions and strategies, as sorted
    # reprs, on 2,088 arenas: a rewrite of the oracle keeps both, down to
    # its ties (the first successor in edge order with the least measure)
    digest = hashlib.sha256()
    count = 0
    for g in _oracle_arenas():
        ora = solve_oracle(g)
        for p in (AUTOMATON, PATHFINDER):
            digest.update(repr((sorted(map(repr, ora.region[p])),
                                sorted((repr(v), repr(w)) for v, w in
                                       ora.strategy[p].items()))).encode())
        count += 1
    assert count == 2088
    assert digest.hexdigest() == (
        "c0a85d0500eff7396780677036b05c8c2f0d3911b6d63deaaaf3da3f2f3cc026")
