"""How many accepting runs does an automaton have on a tree?

The run-cardinality machinery works on the membership product graph
restricted to the Automaton winning region W.  Writing N(v) for the number
of accepting runs from product vertex v = (tree state, automaton state),
the two structural observations that drive everything are:

  * a vertex with exactly one winning move everywhere below it has exactly
    the winning strategy's run, so N(v) = 1; and
  * where choices exist they multiply across children and add across
    moves, so N(v) = sum over winning moves of N(left)*N(right).

That recursion is exact whenever no vertex reachable inside W is both on a
W-cycle and above a choice ("cyclic and branching"): any branch of any
assembled run eventually cycles through choice-free vertices and therefore
follows the winning strategy, so every assembly is accepting.  A cyclic
and branching vertex conversely pumps its cycle any number of times before
committing to one of two distinct continuations, giving infinitely many
accepting runs.  Uncountability is certified separately by an even cycle
that either leaves the run's path choice (two winning moves re-entering
the cycle's strongly connected component) or re-chooses a subtree (a cycle
whose off-path sibling has more than one run) at every revisit.

Only soundness is claimed for the infinite and uncountable certificates;
the classifier reports what it can prove and otherwise counts.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

from .automata import (ParityTreeAutomaton, conjunction_dpw_tuple,
                       restrict_initials)
from .errors import NotMember, TreeambError
from .games import (automaton_wins, bfs, cycle_tops, in_str_order,
                    name_key, strongly_connected_components)
from .membership import RegularRun, _product_ids, run_is_accepting
from .trees import build_tree, tree_equal

INFINITE = "infinite"
UNCOUNTABLE = "uncountable"

# a checker's (left, right) labels: done, or discharging here; or the
# search handed to one child
_DONE = (("d", "d"),)
_SPLIT = (("s", "d"), ("d", "s"))


# ----------------------------------------------------------------- emptiness

def _emptiness_ids(a):
    """The witness-path emptiness game on dense int ids, and the name of
    each id.

    States pick a transition, transitions branch to both children.  State
    q is named ("q", q) and transition tr ("t", tr), and the ids follow
    the str order of those names, as solve interns them: all states
    first, then all transitions.  Both sorts run over states in str order
    and each state's transitions in str order, so that names which print
    alike keep that order.  A state's moves are its transitions in str
    order, and a state with none is a losing sink for Automaton.  Returns
    (succ, owner, color, sinks, names): the int arena as
    games.automaton_wins takes it, and names[i] the name of id i.
    """
    own = {q: sorted([(q, x, l, r) for x in set(a.alphabet)
                      for l, r in a.moves(q, x)], key=str)
           for q in sorted(a.states, key=str)}
    states = sorted(own, key=lambda q: str(("q", q)))
    trs = sorted([tr for mine in own.values() for tr in mine],
                 key=lambda tr: str(("t", tr)))
    ids = {q: i for i, q in enumerate(states)}
    tids = {tr: i for i, tr in enumerate(trs, len(states))}
    succ = [tuple(map(tids.__getitem__, own[q])) for q in states]
    succ += [(ids[tr[2]], ids[tr[3]]) for tr in trs]
    owner = bytearray(len(states)) + b"\x01" * len(trs)
    color = [a.color[q] for q in states] + [0] * len(trs)
    sinks = [i for i, q in enumerate(states) if not own[q]]
    names = [("q", q) for q in states] + [("t", tr) for tr in trs]
    return succ, owner, color, sinks, names


def emptiness(a):
    """A regular tree accepted by a, or None when the language is empty."""
    succ, *arena, names = _emptiness_ids(a)
    won, choice = automaton_wins(succ, *arena)
    # the states are ids 0..|Q|-1
    n = len(a.states)
    winners = [i for i in won if i < n and names[i][1] in a.initials]
    if not winners:
        return None
    return build_tree(min(winners, key=lambda i: name_key(names[i][1])),
                      lambda i, d: succ[choice[i]][d == "r"],
                      lambda i: names[choice[i]][1][1],
                      a.alphabet, name=f"wit[{a.name}]")


def nonempty_states(a):
    """States from which some accepting run exists (on some tree): the
    states Automaton wins in a's _emptiness_ids game."""
    *arena, names = _emptiness_ids(a)
    won, _ = automaton_wins(*arena)
    # the states are ids 0..|Q|-1
    return frozenset(names[i][1] for i in won if i < len(a.states))


# ------------------------------------------------------ k distinct runs

def _k_distinct_walk(a, k):
    """The reachable part of the k-distinct-runs product, breadth-first.

    k trackers each follow one candidate run; a checker per tracker pair
    starts searching and must eventually discharge, which it may do
    exactly at a node where its two trackers disagree (both children
    leave the search); while the trackers agree it hands the search to
    one chosen child.  Acceptance folds the k tracker parities and one
    co-Buechi coordinate (search = 1, discharged = 0, maxed over the
    checkers) through the parity-conjunction DPW.

    Product state (trackers, checkers, DPW state) gets id i when first
    discovered, the initial states first in str order.  The walk keys
    states on int DPW ids and reads DPW moves from one int row per
    reached DPW state, so it hashes the nested DPW states only to build
    those rows.  Each (trackers, letter) has its tracker children and
    their DPW letters computed once, and each state its checker
    assignments.

    Returns (names, color, ninit, steps): names[i] is state i, color[i]
    its color, ids 0..ninit-1 the initial states, and steps[i] lists
    (x, pairs) for each letter x on which state i moves, in alphabet
    order, pairs being the (left, right) ids of those transitions.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    pairs = tuple(itertools.combinations(range(k), 2))
    dpw = conjunction_dpw_tuple((a.max_color(),) * k + (1,))
    # DPW letter: tracker colors, then 1 while any checker searches
    code = {x: i for i, x in enumerate(dpw.alphabet)}
    dstates, dids, rows = [], {}, []

    def dpw_id(ds):
        if ds not in dids:
            dids[ds] = len(dstates)
            dstates.append(ds)
            rows.append(None)
        return dids[ds]

    def dpw_row(d):
        """Successor DPW ids of DPW state d, indexed by letter code."""
        if rows[d] is None:
            rows[d] = [dpw_id(dpw.delta[(dstates[d], x)])
                       for x in dpw.alphabet]
        return rows[d]

    def codes(trackers):
        """The letter codes of trackers' colors without and with a search."""
        cols = tuple(a.color[q] for q in trackers)
        return code[cols + (0,)], code[cols + (1,)]

    def tracker_children(trackers, x):
        """(left trackers, right trackers, their codes) per move combination
        on x; empty when some tracker has no move on x."""
        moves = [a.moves(q, x) for q in trackers]
        if not all(moves):
            return ()
        out = []
        for combo in itertools.product(*moves):
            ltr = tuple(m[0] for m in combo)
            rtr = tuple(m[1] for m in combo)
            out.append((ltr, rtr, codes(ltr), codes(rtr)))
        return out

    def assignments(trackers, checkers):
        """(left checkers, right checkers, does the left search, does the
        right search) per choice of where each searching checker goes."""
        if not pairs:
            return [((), (), False, False)]
        opts = [_DONE if c == "d" or trackers[i] != trackers[j] else _SPLIT
                for (i, j), c in zip(pairs, checkers)]
        out = []
        for assign in itertools.product(*opts):
            lch, rch = zip(*assign)
            out.append((lch, rch, "s" in lch, "s" in rch))
        return out

    initials = set()
    for trackers in itertools.product(sorted(a.initials, key=str), repeat=k):
        checkers = ("s",) * len(pairs)
        letter = tuple(a.color[q] for q in trackers) + (1 if pairs else 0,)
        initials.add((trackers, checkers, dpw.delta[(dpw.init, letter)]))
    ids = {(t, c, dpw_id(ds)): i
           for i, (t, c, ds) in enumerate(sorted(initials, key=str))}
    children = {}
    fresh = {}
    steps = []
    for key in bfs(list(ids), fresh.pop):
        found = fresh[key] = []
        trackers, checkers, d = key
        row = dpw_row(d)
        assigns = assignments(trackers, checkers)
        out = []
        for x in a.alphabet:
            combos = children.get((trackers, x))
            if combos is None:
                combos = children[(trackers, x)] = tracker_children(trackers,
                                                                    x)
            if not combos:
                continue
            kids = []
            for ltr, rtr, lcodes, rcodes in combos:
                for lch, rch, lsearch, rsearch in assigns:
                    lkey = (ltr, lch, row[lcodes[lsearch]])
                    rkey = (rtr, rch, row[rcodes[rsearch]])
                    l = ids.get(lkey)
                    if l is None:
                        l = ids[lkey] = len(ids)
                        found.append(lkey)
                    r = ids.get(rkey)
                    if r is None:
                        r = ids[rkey] = len(ids)
                        found.append(rkey)
                    kids.append((l, r))
            out.append((x, kids))
        steps.append(out)
    names = [(t, c, dstates[d]) for t, c, d in ids]
    color = [dpw.color[ds] for _, _, ds in names]
    return names, color, len(initials), steps


def k_distinct_runs_automaton(a, k):
    """Automaton for "a has at least k pairwise distinct accepting runs",
    on the structural product states (trackers, checkers, DPW state); see
    _k_distinct_walk for the construction."""
    names, color, ninit, steps = _k_distinct_walk(a, k)
    return ParityTreeAutomaton(
        f"{k}-distinct[{a.name}]", a.alphabet, frozenset(names),
        frozenset(names[:ninit]),
        frozenset((names[i], x, names[l], names[r])
                  for i, out in enumerate(steps)
                  for x, kids in out for l, r in kids),
        dict(zip(names, color))).check()


def _k_distinct_arena(a, k):
    """The verdict-only emptiness game of the k-distinct product, built from
    its walk with no automaton in between, and the number of initial
    states (ids 0..ninit-1).

    Letters play no part: state i is Automaton's vertex i, with one move
    per distinct (left, right) child pair of its own; each distinct pair
    is one Pathfinder vertex of color 0 after the states, moving to the
    two children.  A state without moves is a losing sink.
    """
    _, color, ninit, steps = _k_distinct_walk(a, k)
    n = len(steps)
    pair_ids = {}
    succ = [tuple(dict.fromkeys([n + pair_ids.setdefault(p, len(pair_ids))
                                 for _, kids in out for p in kids]))
            for out in steps]
    del steps
    sinks = [i for i, ws in enumerate(succ) if not ws]
    succ += pair_ids
    owner = bytearray(n) + b"\x01" * len(pair_ids)
    return (succ, owner, color + [0] * len(pair_ids), sinks), ninit


def is_k_ambiguous(a, k):
    """True iff no tree at all has more than k distinct accepting runs.

    That is, the (k+1)-distinct product accepts nothing: Automaton wins
    no initial state of its emptiness game, which is solved on the one
    int arena of _k_distinct_arena.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    arena, ninit = _k_distinct_arena(a, k + 1)
    return automaton_wins(*arena)[0].isdisjoint(range(ninit))


# ------------------------------------------------------- counting core

class _RunCounts:
    """Winning-region counting data for one automaton/tree pair, on the
    ids of _product_ids renumbered by games.in_str_order.

    names, color, edges and strategy (Automaton's choices) are lists over
    the ids; only order and the witness code read names.  wmoves maps
    each winning Automaton vertex to its winning moves as (left, right)
    pairs and succ to their children, sorted; roots are the winning
    initial vertices; reach is the set reachable from the roots through
    winning moves (= vertices occurring in accepting runs).

    Both certificates sit on branching vertices, and every vertex of a
    cycle through a branching vertex reaches it, so is branching too:
    comps and order, which the searches read, cover branching vertices
    only.
    """

    def __init__(self, a, t):
        self.automaton = a
        self.tree = t
        arena, names, keys = _product_ids(a, t)
        arena, self.names, rank = in_str_order(*arena, names(), keys())
        won, self.strategy = automaton_wins(*arena)
        edges, owner, self.color, _ = arena
        self.edges = edges
        # the initial vertices had ids 0.., in str order of their states
        self.roots = tuple(v for v in rank[:len(a.initials)] if v in won)
        # winning moves of a winning Automaton vertex: the Pathfinder
        # successors inside W, given as their (left child, right child)
        self.wmoves = wmoves = {}
        self.succ = succ = {}
        for v in won:
            if not owner[v]:
                ms = wmoves[v] = tuple(edges[p] for p in edges[v] if p in won)
                succ[v] = sorted({c for m in ms for c in m})
        self.reach = set(bfs(self.roots, succ.__getitem__))

    @cached_property
    def forks(self):
        """Winning vertices with two or more winning moves."""
        return {v for v, ms in self.wmoves.items() if len(ms) >= 2}

    @cached_property
    def branching(self):
        """Vertices at or above a genuine choice, i.e. reaching a fork; one
        backward walk from the forks, skipped when there is none."""
        if not self.forks:
            return set()
        pred = {}
        for v, cs in self.succ.items():
            for c in cs:
                pred.setdefault(c, []).append(v)
        return set(bfs(self.forks, lambda v: pred.get(v, ())))

    @cached_property
    def comps(self):
        """Each branching vertex on a cycle of winning moves, mapped to the
        (S, c) that games.cycle_tops yields holding it, outermost first.

        The decomposition runs on the branching vertices alone: the
        strongly connected component of one, and each level nested in it,
        is then the same set as over the whole winning region."""
        comps = {}
        for S, c in cycle_tops(self.branching, self.succ.__getitem__,
                               self.color):
            for v in S:
                comps.setdefault(v, []).append((S, c))
        return comps

    @cached_property
    def order(self):
        """The reachable branching vertices, the only candidates for either
        certificate, in search order: by tree state, then by automaton
        state's name_key."""
        names = self.names
        qkey = {q: name_key(q) for q in self.automaton.states}
        return sorted(self.reach & self.branching,
                      key=lambda u: (names[u][0], qkey[names[u][1]]))

    def regeneration_vertices(self):
        """Reachable vertices that are cyclic and branching, in search order."""
        return [v for v in self.order if v in self.comps]

    def total(self, cap):
        """Number of accepting runs on the whole tree saturated at cap, 0
        when not member: N(v) per vertex, children multiplied and moves
        added.

        Only sound once regeneration_vertices() is empty: the branching
        vertices then form a DAG.  strongly_connected_components emits each
        component after every component it reaches, so one pass over
        order in that sequence finds every child's N ready; a child
        outside order is not branching and has N = 1.
        """
        wmoves, succ = self.wmoves, self.succ
        memo = {}
        for comp in strongly_connected_components(self.order,
                                                  succ.__getitem__):
            u = comp.pop()
            if comp or u in succ[u]:
                raise AssertionError(
                    "counting over a branching cycle; the infinite "
                    "certificate should have fired first")
            n = 0
            for cl, cr in wmoves[u]:
                n += memo.get(cl, 1) * memo.get(cr, 1)
                if n >= cap:
                    n = cap
                    break
            memo[u] = n
        return min(sum(memo.get(v, 1) for v in self.roots), cap)


def at_least_k(a, t, k):
    """True iff a has at least k pairwise distinct accepting runs on t.

    Decided by counting on the winning product graph (with the infinite
    certificate short-circuiting), which agrees with membership of the
    k-distinct product but stays polynomial in the product size instead
    of exponential in k.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    counts = _RunCounts(a, t)
    if not counts.roots:
        return False
    if counts.regeneration_vertices():
        return True
    return counts.total(cap=k) >= k


# ------------------------------------------------- witnesses & verdicts

@dataclass
class RegenerationWitness:
    """A vertex that regenerates ambiguity, with its certificate.

    spine is a cycle of product vertices from the vertex back to itself
    through winning moves (even maximum color in the uncountable case);
    runs are two distinct accepting runs of the automaton started at the
    vertex's state on the subtree at the vertex's tree state.
    """

    mode: str
    vertex: tuple
    spine: tuple
    runs: tuple


@dataclass
class AmbiguityVerdict:
    kind: str          # "exact" | "at_least" | "infinite" | "uncountable"
    n: int = None
    witness: RegenerationWitness = None

    @classmethod
    def exact(cls, n):
        return cls("exact", n=n)

    @classmethod
    def at_least(cls, n):
        return cls("at_least", n=n)

    def __repr__(self):
        if self.kind == "exact":
            return f"Exact({self.n})"
        if self.kind == "at_least":
            return f"AtLeast({self.n})"
        return self.kind.capitalize()


def _shortest_path(succ, sources, targets):
    """BFS path (vertex list) from any source to any target, or None."""
    parent = {}
    for u in bfs(sources, succ, parent):
        if u in targets:
            path = [u]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path[::-1]
    return None


def _cycle_through(counts, v, within, via):
    """A cycle v ->+ v of winning moves inside within through some vertex
    of via: BFS paths to via, then back to v.

    Callers pass a v that lies on such a cycle, so both paths exist."""
    def succ(u):
        return [w for w in counts.succ[u] if w in within]

    if v in via:
        return [v] + _shortest_path(succ, succ(v), {v})
    head = _shortest_path(succ, succ(v), via)
    return [v] + head + _shortest_path(succ, succ(head[-1]), {v})


def _subtree(t, m):
    return build_tree(m, lambda s, d: t.next[(s, d)], lambda s: t.out[s],
                      t.alphabet, name=f"{t.name}@{m}")


def _residual_runs(counts, vertex):
    """Two distinct accepting runs of A_q on the subtree at m, read off
    Automaton's winning strategy.

    u is the nearest vertex below vertex = (m, q) with two winning moves
    (one exists, as witness vertices are branching); the vertices before it
    have one winning move each, so the strategy follows the BFS path to u.
    Run i follows the strategy except at u's node on that path, where it
    takes u's i-th winning move; every branch ends up following the
    positional winning strategy, so both runs accept.  u may recur on a
    cycle, so the fork is placed at a node, not patched into the strategy:
    machine states are (vertex, depth along the path), depth None off it.
    """
    a, t = counts.automaton, counts.tree
    strat, edges, names = counts.strategy, counts.edges, counts.names
    m, q = names[vertex]
    path = _shortest_path(counts.succ.__getitem__, [vertex], counts.forks)
    last = len(path) - 1
    dirs = ["l" if edges[strat[u]][0] == w else "r"
            for u, w in zip(path, path[1:])]

    def stepper(fork):
        """The successor function of the run that takes the winning move
        fork at u's node on the path."""
        def step(s, d):
            v, j = s
            k = 0 if d == "l" else 1
            if j is None:
                return edges[strat[v]][k], None
            kids = fork if j == last else edges[strat[v]]
            return kids[k], (j + 1 if j < last and dirs[j] == d else None)
        return step

    def state(s):
        return names[s[0]][1]

    sub = _subtree(t, m)
    aq = restrict_initials(a, frozenset([q]))
    alphabet = tuple(sorted(aq.states, key=str))
    moves = counts.wmoves[path[-1]]
    return tuple(
        RegularRun(aq, sub, build_tree((vertex, 0), stepper(moves[i]), state,
                                       alphabet,
                                       name=f"run[{aq.name},{sub.name}]#{i}"))
        for i in (0, 1))


def _find_witness(counts, mode):
    """The first certificate of the mode, re-checked by _witness_ok; None
    when there is none.

    One loop tries the vertices of counts.order and, innermost first, the
    components S of counts.comps that hold them, c being S's top color.
    An infinite certificate sits at the first vertex with a component, a
    regeneration vertex: its spine is a cycle back to it through
    branching vertices.  An uncountable one needs an even c and a vertex
    two of whose winning moves re-enter S, or one does beside a branching
    sibling (S is branching, so the move's children both are).  Its spine
    is a cycle inside S through a vertex of color c, which exists as S is
    strongly connected and holds a cycle."""
    if mode not in (INFINITE, UNCOUNTABLE):
        raise ValueError(f"unknown witness mode {mode!r}")
    color, branching, names = counts.color, counts.branching, counts.names
    for v in counts.order:
        for S, c in reversed(counts.comps.get(v, ())):
            if mode == INFINITE:
                within, via = branching, {v}
            elif c % 2:
                continue
            else:
                moves = [(l, r) for l, r in counts.wmoves[v]
                         if l in S or r in S]
                if len(moves) < 2 and not any(
                        l in branching and r in branching for l, r in moves):
                    continue
                within, via = S, {u for u in S if color[u] == c}
            spine = _cycle_through(counts, v, within, via)
            witness = RegenerationWitness(
                mode, names[v], tuple(map(names.__getitem__, spine)),
                _residual_runs(counts, v))
            if not _witness_ok(counts, witness):
                raise AssertionError(
                    "internal witness failed its validity checks")
            return witness
    return None


def find_regeneration_witness(a, t, mode):
    """Search the winning product graph for an ambiguity-regenerating
    vertex; None when no certificate of the requested kind is found."""
    counts = _RunCounts(a, t)
    if not counts.roots:
        raise NotMember(f"{a.name} does not accept {t.name}")
    return _find_witness(counts, mode)


def _witness_ok(counts, witness):
    """witness_is_valid against an already solved product."""
    a = counts.automaton
    # a name outside the reach set maps to None, which has no winning move
    ids = {counts.names[u]: u for u in counts.reach}
    v = ids.get(witness.vertex)
    spine = [ids.get(u) for u in witness.spine]
    if len(spine) < 2 or spine[0] != v or spine[-1] != v:
        return False
    for u, w in zip(spine, spine[1:]):
        if not any(w in (cl, cr) for cl, cr in counts.wmoves.get(u, ())):
            return False
    if (witness.mode == UNCOUNTABLE
            and max(map(counts.color.__getitem__, spine)) % 2 != 0):
        return False
    if len(witness.runs) != 2:
        return False
    m, q = witness.vertex
    sub = _subtree(counts.tree, m)
    # judge each run as a run of A_q: a's transitions and colors, root q
    aq = restrict_initials(a, frozenset([q]))
    r1, r2 = witness.runs
    try:
        # the run walk checks a run's tree and machine before it walks
        # them, so a malformed one is invalid rather than an error
        ok = all(run_is_accepting(RegularRun(aq, r.tree, r.machine)) and
                 tree_equal(r.tree, sub)
                 for r in (r1, r2))
    except TreeambError:
        return False
    return ok and not tree_equal(r1.machine, r2.machine)


def witness_is_valid(a, t, witness):
    """Mechanical validity checks of a regeneration witness."""
    return _witness_ok(_RunCounts(a, t), witness)


def classify(a, t, K):
    """The run-cardinality verdict of a on t, counting up to K.

    Order: non-membership, the uncountable certificate, the infinite
    certificate, then exact counting with verdict AtLeast(K+1) once the
    count exceeds K (the certificates are sound but not complete, so
    AtLeast also covers "infinite but unproven").
    """
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    counts = _RunCounts(a, t)
    if not counts.roots:
        return AmbiguityVerdict.exact(0)
    for mode in (UNCOUNTABLE, INFINITE):
        witness = _find_witness(counts, mode)
        if witness is not None:
            return AmbiguityVerdict(mode, witness=witness)
    n = counts.total(cap=K + 1)
    if n > K:
        return AmbiguityVerdict.at_least(K + 1)
    return AmbiguityVerdict.exact(n)
