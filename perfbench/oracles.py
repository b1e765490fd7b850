"""Reference answers that do not go through the code they check.

Every function here reads the plain data of trees and automata (the
`next`/`out` tables of a tree machine, the `delta`/`color` of an automaton)
and walks it with its own graph code.  Nothing calls into treeamb's game
solver, product builders or run checkers, so a verdict that agrees with
these oracles is backed by a second, independent computation.
"""

import math

DIRS = ("l", "r")


# ------------------------------------------------------------ graph helpers

def _sccs(vertices, succ):
    """Strongly connected components (iterative Tarjan) of the subgraph
    induced by `vertices`; succ(v) may name vertices outside it."""
    index, low, comps = {}, {}, []
    stack, on_stack = [], set()
    for root in vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            v, it = work[-1]
            pushed = False
            for w in it:
                if w not in vertices:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ(w))))
                    pushed = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if pushed:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _on_cycle(comp, succ):
    return len(comp) > 1 or comp[0] in succ(comp[0])


def _reachable(roots, succ):
    seen = set(roots)
    todo = list(seen)
    while todo:
        v = todo.pop()
        for w in succ(v):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def cycle_with_max_parity(vertices, succ, color, parity):
    """Does the graph on `vertices` have a cycle whose largest color has
    the given parity (0 even, 1 odd)?"""
    for c in sorted({color[v] for v in vertices if color[v] % 2 == parity}):
        sub = {v for v in vertices if color[v] <= c}
        for comp in _sccs(sub, succ):
            if _on_cycle(comp, succ) and any(color[v] == c for v in comp):
                return True
    return False


# ------------------------------------------ minimal differences of two trees

def min_diff_count(t0, t1):
    """Number of minimal nodes where t1's label differs from t0's.

    Walks the product of the two tree machines.  A pair of states with
    equal labels passes the search to both children; a pair with different
    labels is a minimal difference.  The count is infinite (math.inf)
    exactly when an agreeing pair on a cycle of agreeing pairs can still
    reach a difference.  These counts are the accepting-run counts of
    zoo_complement_singleton(t0) on t1.
    """
    root = (t0.init, t1.init)

    def differs(p):
        return t0.out[p[0]] != t1.out[p[1]]

    if differs(root):
        return 1

    def children(p):
        return [(t0.next[(p[0], d)], t1.next[(p[1], d)]) for d in DIRS]

    def agree_succ(p):
        return [c for c in children(p) if not differs(c)]

    agree = _reachable([root], agree_succ)
    hits = {p for p in agree if any(differs(c) for c in children(p))}
    pred = {p: [] for p in agree}
    for p in agree:
        for c in agree_succ(p):
            pred[c].append(p)
    live = _reachable(hits, lambda p: pred[p])
    if root not in live:
        return 0
    for comp in _sccs(live, agree_succ):
        if _on_cycle(comp, agree_succ):
            return math.inf
    memo = {}
    for comp in _sccs(live, agree_succ):    # reverse topological order
        p = comp[0]
        memo[p] = sum(1 if differs(c) else memo.get(c, 0)
                      for c in children(p))
    return memo[root]


# ------------------------------------------- analytic membership on {0, 1}

def _states_reaching(t, targets):
    """Tree states from which some state in targets is reachable (>= 0 steps)."""
    pred = {s: [] for s in t.out}
    for (s, _), w in t.next.items():
        pred[w].append(s)
    return _reachable(targets, lambda s: pred[s])


def _ones(t):
    reach = _reachable([t.init], lambda s: [t.next[(s, d)] for d in DIRS])
    return [s for s in reach if t.out[s] == "1"]


def no_max_member(t):
    """Is t in L(zoo_no_max)?  Every 1-node has a 1-node strictly below."""
    has_one = _states_reaching(t, [s for s in t.out if t.out[s] == "1"])
    return all(any(t.next[(s, d)] in has_one for d in DIRS) for s in _ones(t))


def perf_member(t):
    """Is t in L(zoo_perf)?  Every 1-node has two incomparable 1-nodes
    below it, i.e. at or below it sits a node whose left and right
    subtrees both contain a 1."""
    has_one = _states_reaching(t, [s for s in t.out if t.out[s] == "1"])
    split = [s for s in t.out if all(t.next[(s, d)] in has_one for d in DIRS)]
    above_split = _states_reaching(t, split)
    return all(s in above_split for s in _ones(t))


# ---------------------------------------------------- certificate checks

def _moves_index(a):
    idx = {}
    for q, x, ql, qr in a.delta:
        idx.setdefault((q, x), []).append((ql, qr))
    return idx


def accepting_run_ok(a, t, choice, q0):
    """Is `choice` an accepting run of a from state q0 on t?

    choice maps a reachable (tree state, automaton state) pair to the
    (left, right) state pair the run takes there.  The run must use
    transitions of a and every cycle of the run graph must have an even
    largest color.
    """
    index = _moves_index(a)

    def succ(v):
        m, _ = v
        ql, qr = choice[v]
        return [(t.next[(m, "l")], ql), (t.next[(m, "r")], qr)]

    try:
        reach = _reachable([(t.init, q0)], succ)
    except KeyError:
        return False
    for v in reach:
        m, q = v
        if choice[v] not in index.get((q, t.out[m]), ()):
            return False
    color = {v: a.color[v[1]] for v in reach}
    return not cycle_with_max_parity(reach, succ, color, 1)


def pathfinder_wins(a, t, direction):
    """Does the direction choice refute every run of a on t?

    direction maps (tree state, q_left, q_right) to "l" or "r".  Automaton
    may take any transition; a position without one is lost for it, and
    Pathfinder wins when no play it allows cycles with an even largest
    color.
    """
    index = _moves_index(a)

    def succ(v):
        m, q = v
        out = []
        for ql, qr in index.get((q, t.out[m]), ()):
            d = direction[(m, ql, qr)]
            out.append((t.next[(m, d)], ql if d == "l" else qr))
        return out

    try:
        reach = _reachable([(t.init, q) for q in a.initials], succ)
    except KeyError:
        return False
    color = {v: a.color[v[1]] for v in reach}
    return not cycle_with_max_parity(reach, succ, color, 0)


def _machine_run_ok(a, run, q, t, m):
    """A RegularRun-shaped run: machine states labelled by automaton states,
    on a tree equal to t's subtree at state m, starting in q."""
    mach, tree = run.machine, run.tree
    if mach.out[mach.init] != q:
        return False
    same = _reachable([(tree.init, m)],
                      lambda p: [(tree.next[(p[0], d)], t.next[(p[1], d)])
                                 for d in DIRS])
    if any(tree.out[x] != t.out[y] for x, y in same):
        return False
    delta = a.delta

    def succ(p):
        r, s = p
        return [(mach.next[(r, d)], tree.next[(s, d)]) for d in DIRS]

    reach = _reachable([(mach.init, tree.init)], succ)
    for r, s in reach:
        trans = (mach.out[r], tree.out[s], mach.out[mach.next[(r, "l")]],
                 mach.out[mach.next[(r, "r")]])
        if trans not in delta:
            return False
    color = {p: a.color[mach.out[p[0]]] for p in reach}
    return not cycle_with_max_parity(reach, succ, color, 1)


def _machines_differ(m1, m2):
    pairs = _reachable([(m1.init, m2.init)],
                       lambda p: [(m1.next[(p[0], d)], m2.next[(p[1], d)])
                                  for d in DIRS])
    return any(m1.out[x] != m2.out[y] for x, y in pairs)


# ------------------------------------------------ the membership game

SINK = ("sink",)


def _attractor(vertices, target, player, succ, pred, owner):
    """Vertices of `vertices` from which `player` can force a visit to
    target, staying inside `vertices`."""
    attr = set(target)
    left = {v: sum(1 for w in succ[v] if w in vertices)
            for v in vertices if owner[v] != player}
    todo = list(attr)
    while todo:
        w = todo.pop()
        for v in pred[w]:
            if v in attr or v not in vertices:
                continue
            if owner[v] != player:
                left[v] -= 1
                if left[v]:
                    continue
            attr.add(v)
            todo.append(v)
    return attr


def _zielonka(vertices, succ, pred, owner, color):
    """[player 0's region, player 1's region] of the max-parity game on
    `vertices`, where player 0 wins plays whose largest color seen
    infinitely often is even."""
    if not vertices:
        return [set(), set()]
    top = max(color[v] for v in vertices)
    p = top % 2
    high = _attractor(vertices, {v for v in vertices if color[v] == top},
                      p, succ, pred, owner)
    won = _zielonka(vertices - high, succ, pred, owner, color)
    if not won[1 - p]:
        won = [set(), set()]
        won[p] = set(vertices)
        return won
    lost = _attractor(vertices, won[1 - p], 1 - p, succ, pred, owner)
    won = _zielonka(vertices - lost, succ, pred, owner, color)
    won[1 - p] |= lost
    return won


def accepting_positions(a, t):
    """The positions (tree state, automaton state), reachable from an
    initial position on t, from which a has an accepting run on the
    subtree at that tree state.

    Solves the membership game with this module's own Zielonka recursion.
    At (m, q) Automaton (player 0) picks a transition of a on t's label at
    m; at (m, ql, qr) Pathfinder picks a direction.  A position without a
    transition leads to a sink that Automaton loses.
    """
    index = _moves_index(a)
    succ, owner, color = {SINK: [SINK]}, {SINK: 0}, {SINK: 1}
    todo = [(t.init, q) for q in a.initials]
    while todo:
        v = todo.pop()
        if v in succ:
            continue
        if len(v) == 2:
            m, q = v
            owner[v], color[v] = 0, a.color[q]
            succ[v] = [(m, ql, qr) for ql, qr in index.get((q, t.out[m]), ())]
            if not succ[v]:
                succ[v] = [SINK]
        else:
            m, ql, qr = v
            owner[v], color[v] = 1, 0
            succ[v] = [(t.next[(m, "l")], ql), (t.next[(m, "r")], qr)]
        todo += succ[v]
    pred = {v: [] for v in succ}
    for v, ws in succ.items():
        for w in ws:
            pred[w].append(v)
    won = _zielonka(set(succ), succ, pred, owner, color)[0]
    return {v for v in won if len(v) == 2}


def _winning_moves(index, t, won, v):
    """The (left, right) child positions of the transitions at v whose
    children both admit accepting runs."""
    m, q = v
    for ql, qr in index.get((q, t.out[m]), ()):
        kids = ((t.next[(m, "l")], ql), (t.next[(m, "r")], qr))
        if kids[0] in won and kids[1] in won:
            yield kids


def witness_ok(a, t, witness, uncountable):
    """Independent check of a classify certificate.

    The witness vertex must be reachable from an initial position through
    winning moves, i.e. occur in some accepting run of a on t.  The spine
    must be a cycle of winning moves through it (with an even largest
    color when uncountable), and the two residual runs must be distinct
    accepting runs from it.
    """
    won = accepting_positions(a, t)
    index = _moves_index(a)
    spine = witness.spine
    v = witness.vertex
    if len(spine) < 2 or spine[0] != v or spine[-1] != v:
        return False
    roots = [(t.init, q) for q in a.initials if (t.init, q) in won]
    reach = _reachable(roots, lambda u: [w for kids in
                                         _winning_moves(index, t, won, u)
                                         for w in kids])
    if v not in reach:
        return False
    for u, w in zip(spine, spine[1:]):
        if not any(w in kids for kids in _winning_moves(index, t, won, u)):
            return False
    if uncountable and max(a.color[q] for _, q in spine) % 2:
        return False
    m, q = v
    r1, r2 = witness.runs
    return (_machine_run_ok(a, r1, q, t, m) and _machine_run_ok(a, r2, q, t, m)
            and _machines_differ(r1.machine, r2.machine))
