"""Finite parity games with max-parity winning condition.

Vertices are owned by the Automaton player ("A", wants the maximal color
seen infinitely often to be even) or the Pathfinder ("P", wants it odd).
A declared sink loses for its owner.

One Zielonka core, _solve_ids(), runs the attractor decomposition on an
int arena: dense ids 0..n-1 with successor tuples, a 0/1 owner bytearray
(Automaton/Pathfinder) and colors.  It derives the predecessor lists the
attractors walk from the successors itself.  One liveness bytearray marks
the current subgame, and an explicit frame stack replaces the recursion,
so a deep color hierarchy needs no interpreter recursion.  Ties break in
id order.  Each owner's sinks, ids without a move, are handed to the
other player with one attractor before the decomposition.

solve() is the front end for named arenas: it interns the vertices and
sink gadgets of a ParityGameArena in name_key order, so its regions and
strategies do not depend on how the arena was built, and maps both back;
its gadgets keep its strategies' tie-breaks, which attracting the sinks
first would change.  automaton_wins() checks an int arena (succ, owner,
color, sinks), solves it with the sinks attracted first and returns
Automaton's region and choices, the choices breaking ties in id order.
After in_str_order() they are solve's choices whenever every sink is
Automaton's.

solve_oracle() recomputes both regions with small progress measures on
the arena closed by a losing self-loop per sink, shares no code with the
Zielonka core, and exists purely as an independent cross-check.
"""

import itertools
from dataclasses import dataclass

from .errors import IncompleteStrategy, MalformedArena

AUTOMATON = "A"
PATHFINDER = "P"


@dataclass
class ParityGameArena:
    name: str
    owner: dict      # vertex -> "A" | "P"
    color: dict      # vertex -> nonnegative int
    edges: dict      # vertex -> tuple of successors; order breaks ties
    sinks: frozenset
    init: object = None

    def check(self):
        for v, o in self.owner.items():
            if o not in (AUTOMATON, PATHFINDER):
                raise MalformedArena(f"vertex {v!r} has owner {o!r}")
            if v not in self.color or self.color[v] < 0:
                raise MalformedArena(f"vertex {v!r} lacks a valid color")
            succ = self.edges.get(v, ())
            if v in self.sinks:
                if succ:
                    raise MalformedArena(f"sink {v!r} has outgoing edges")
            elif not succ:
                raise MalformedArena(f"vertex {v!r} has no move and is not a sink")
            for w in succ:
                if w not in self.owner:
                    raise MalformedArena(f"edge {v!r} -> {w!r} dangling")
        if self.init is not None and self.init not in self.owner:
            raise MalformedArena(f"initial vertex {self.init!r} undeclared")
        return self


def name_key(x):
    """Sort key for vertex and state names: str order, with repr breaking
    ties between names that print alike (1 and "1", (0, 1) and "(0, 1)")."""
    return str(x), repr(x)


@dataclass
class WinningAnalysis:
    arena: ParityGameArena
    region: dict     # player -> frozenset of vertices
    strategy: dict   # player -> {vertex: chosen successor}

    def winner_of(self, v):
        return AUTOMATON if v in self.region[AUTOMATON] else PATHFINDER


def _completed(arena):
    """Replace sinks by a gadget self-loop that loses for the sink's owner."""
    owner = dict(arena.owner)
    color = dict(arena.color)
    edges = {v: tuple(arena.edges.get(v, ())) for v in arena.owner}
    gadgets = set()
    for v in arena.sinks:
        g = ("__lost__", v)
        gadgets.add(g)
        owner[g] = arena.owner[v]
        color[g] = 1 if arena.owner[v] == AUTOMATON else 0
        edges[g] = (g,)
        edges[v] = (g,)
    return owner, color, edges, gadgets


def _attract(seeds, player, succ, pred, owner, alive, choice):
    """Attractor of seeds for player inside the live vertices.

    alive[v] is 1 for a live vertex; this marks seeds and attracted vertices
    2 and returns them in attraction order, seeds first.  A pulled vertex of
    player's gets its first edge into the attractor as choice[v].
    """
    for v in seeds:
        alive[v] = 2
    attr = list(seeds)
    append = attr.append
    degree = {}
    for u in attr:      # attr doubles as the BFS queue
        for v in pred[u]:
            if alive[v] != 1:
                continue
            if owner[v] == player:
                # choose the pulling edge before admitting v, so a self-loop
                # can never masquerade as progress toward the target
                for w in succ[v]:
                    if alive[w] == 2:
                        choice[v] = w
                        break
                alive[v] = 2
                append(v)
                continue
            d = degree.get(v)
            if d is None:
                d = 0
                for w in succ[v]:
                    if alive[w]:
                        d += 1
            if d == 1:
                alive[v] = 2
                append(v)
            else:
                degree[v] = d - 1
    return attr


def _zielonka(vertices, succ, pred, owner, color, choice, alive):
    """Winning vertex lists (Automaton's, Pathfinder's) of the subgame on
    vertices: the ids v with alive[v] == 1, each with a live move; every
    other id has alive[v] == 0.

    The second recursive call of the decomposition is a tail call and runs
    as the loop over a frame's shrinking vertex list; the first runs on an
    explicit stack.  A suspended frame keeps the attractor it removed for
    the subgame below it and the vertices it has won so far; only the
    running frame holds its vertex list.  When a frame returns, its parent
    makes the frame's vertices live again.  choice[v] ends as v's strategy
    move whenever v lies in its owner's region: a move chosen in a subgame
    whose result is discarded is chosen again when v is solved again.
    """
    stack = []
    won = ([], [])
    while True:
        if vertices:
            c = max(map(color.__getitem__, vertices))
            sigma = c & 1
            target = [v for v in vertices if color[v] == c]
            target.sort()
            attr = _attract(target, sigma, succ, pred, owner, alive, choice)
            for v in attr:
                alive[v] = 0
            stack.append((won, sigma, attr, len(target)))
            won = ([], [])
            vertices = [v for v in vertices if alive[v]]
            continue
        sub = won
        while stack:
            won, sigma, attr, k = stack.pop()
            for part in (attr, *sub):
                for v in part:
                    alive[v] = 1
            opp = 1 - sigma
            if sub[opp]:
                break
            # sigma wins the whole frame, and any live move at a top-color
            # vertex wins: a play through them infinitely often has maximal
            # color c, any other play ends in the subgame sigma wins
            for v in attr[:k]:
                if owner[v] == sigma:
                    choice[v] = next(w for w in succ[v] if alive[w])
            won[sigma].extend(attr)
            won[sigma].extend(sub[sigma])
            sub = won
        else:
            return sub
        trap = _attract(sorted(sub[opp]), opp, succ, pred, owner, alive,
                        choice)
        for v in trap:
            alive[v] = 0
        won[opp].extend(trap)
        vertices = [v for v in attr if alive[v]]
        vertices += [v for v in sub[sigma] if alive[v]]


def _solve_ids(succ, owner, color, sinks=()):
    """Zielonka on an int arena whose ids without a move are the sinks
    listed, each losing for its owner.

    The predecessor lists are rebuilt from succ, ids visited in increasing
    order: pred[w] lists each v with an edge v -> w once per edge, so a
    parallel edge counts twice in the attractors' degree counts.
    Pathfinder wins its attractor of Automaton's sinks, then Automaton its
    attractor of Pathfinder's sinks among the ids left, and _zielonka
    solves the rest, where every id keeps a move.

    Returns (won, choice): won holds Automaton's and Pathfinder's winning
    id lists, and choice[v] is v's strategy move when v lies in its
    owner's region and is no sink.
    """
    nums = list(range(len(succ)))   # one int object per id, in every list
    pred = [[] for _ in nums]
    for v, ws in zip(nums, succ):
        for w in ws:
            pred[w].append(v)
    choice = [None] * len(nums)
    alive = bytearray(b"\x01") * len(nums)
    attracted = [None, None]    # the sinks' attractors, by their winner
    for p in (1, 0):
        seeds = sorted({nums[v] for v in sinks if owner[v] != p})
        attracted[p] = _attract(seeds, p, succ, pred, owner, alive, choice)
        for v in attracted[p]:
            alive[v] = 0
    won = _zielonka([v for v in nums if alive[v]] if sinks else nums,
                    succ, pred, owner, color, choice, alive)
    return (won[0] + attracted[0], won[1] + attracted[1]), choice


def _check_ids(succ, owner, color, sinks):
    """ParityGameArena.check for an int arena on ids 0..n-1."""
    n = len(succ)
    if len(owner) != n or len(color) != n:
        raise MalformedArena(f"{n} vertices but {len(owner)} owners and "
                             f"{len(color)} colors")
    if n and max(owner) > 1:
        v = next(v for v, o in enumerate(owner) if o > 1)
        raise MalformedArena(f"vertex {v} has owner {owner[v]!r}")
    if n and min(color) < 0:
        v = next(v for v, c in enumerate(color) if c < 0)
        raise MalformedArena(f"vertex {v} lacks a valid color")
    for v in sinks:
        if not 0 <= v < n:
            raise MalformedArena(f"sink {v} undeclared")
        if succ[v]:
            raise MalformedArena(f"sink {v} has outgoing edges")
    if succ.count(()) != len(set(sinks)):
        sinkset = set(sinks)
        v = next(v for v, ws in enumerate(succ) if not ws and v not in sinkset)
        raise MalformedArena(f"vertex {v} has no move and is not a sink")
    heads = list(itertools.chain.from_iterable(succ))
    if heads and not (min(heads) >= 0 and max(heads) < n):
        v, w = next((v, w) for v, ws in enumerate(succ) for w in ws
                    if not 0 <= w < n)
        raise MalformedArena(f"edge {v} -> {w} dangling")


def automaton_wins(succ, owner, color, sinks):
    """The ids Automaton wins in the int arena on ids 0..n-1, and its
    choices.

    owner[v] is 0 for Automaton and 1 for Pathfinder; the listed sinks have
    no move and lose for their owner.  The arena is checked like
    ParityGameArena.check and only read: tuples and bytes serve as well.
    Returns (won, choice): won is the set of ids Automaton wins, and
    choice[v], at each Automaton id v in won, its winning move.  The
    region does not depend on the numbering; the choices break ties in id
    order (see in_str_order).
    """
    _check_ids(succ, owner, color, sinks)
    won, choice = _solve_ids(succ, owner, color, sinks)
    return set(won[0]), choice


def in_str_order(succ, owner, color, sinks, names, keys):
    """The int arena renumbered in str order of names, names[v] naming id
    v, as solve interns: ((succ, owner, color, sinks), names, rank), with
    the names in their new order and rank[v] the new id of v.  keys[v]
    must be str(names[v]); a caller that builds the names can compose
    those strings more cheaply than str can.  Where no two names print
    alike, as with product names, whose str shows their items' reprs,
    this is solve's name_key order.

    If every sink is Automaton's, automaton_wins on the result gives
    Automaton the choices solve gives it on the named arena, though solve
    closes each sink with a self-loop gadget that Pathfinder wins and
    automaton_wins removes Pathfinder's attractor of the sinks first.
    Removing a Pathfinder attractor of vertices Pathfinder wins from a
    subgame changes none of the choices the decomposition settles for
    Automaton (by induction on the subgame: no attractor that settles
    them meets the set, no Pathfinder vertex outside it has a move into
    it, and each frame's subgames again differ by such a set).  With
    Pathfinder sinks, Automaton's own attractor of them may settle other,
    equally winning, choices.
    """
    order = sorted(range(len(names)), key=keys.__getitem__)
    rank = [0] * len(order)
    for i, v in enumerate(order):
        rank[v] = i
    new = rank.__getitem__
    return (([tuple(map(new, succ[v])) for v in order],
             bytearray(map(owner.__getitem__, order)),
             list(map(color.__getitem__, order)), sorted(map(new, sinks))),
            list(map(names.__getitem__, order)), rank)


def solve(arena):
    """Winning regions and positional strategies, by attractor decomposition
    on the vertices and sink gadgets interned in name_key order."""
    arena.check()
    gadgets = {("__lost__", v): v for v in arena.sinks}
    verts = sorted(arena.owner.keys() | gadgets.keys(), key=name_key)
    n = len(verts)
    ids = dict(zip(verts, range(n)))
    edges = arena.edges.get
    succ = [tuple(map(ids.__getitem__, edges(v, ()))) for v in verts]
    owner = bytearray([o == PATHFINDER for o in map(arena.owner.get, verts)])
    color = list(map(arena.color.get, verts))
    lost = bytearray(n)         # the sink gadgets
    for name, v in gadgets.items():
        g, v = ids[name], ids[v]
        # g is a self-loop that loses for v's owner, and v's one move
        owner[g], color[g] = owner[v], 1 - owner[v]
        succ[g] = succ[v] = (g,)
        lost[g] = 1
    won, choice = _solve_ids(succ, owner, color)
    region, strategy = {}, {}
    for p, player in enumerate((AUTOMATON, PATHFINDER)):
        region[player] = frozenset(verts[v] for v in won[p] if not lost[v])
        strategy[player] = {verts[v]: verts[choice[v]] for v in sorted(won[p])
                            if owner[v] == p and not lost[v]
                            and not lost[choice[v]]}
    return WinningAnalysis(arena, region, strategy)


def _project(arena, gadgets, regions, strats):
    region = {p: frozenset(v for v in regions[p] if v not in gadgets)
              for p in (AUTOMATON, PATHFINDER)}
    strategy = {}
    for p in (AUTOMATON, PATHFINDER):
        strategy[p] = {v: w for v, w in strats[p].items()
                       if v not in gadgets and v not in arena.sinks
                       and w not in gadgets}
    return WinningAnalysis(arena, region, strategy)


# --------------------------------------------------------------------------
# Progress-measure solver (independent oracle)

def _spm_one_side(edges, owner, color, player):
    """Vertices from which `player` wins when colors of their parity are good.

    Standard lifting of small progress measures on a closed arena, every
    vertex with a move; written for the player who wants the maximal
    recurring color to be even, so the Pathfinder side is handled by the
    caller via a color shift.  A measure is a tuple with one counter per
    odd color, highest color first, and top = (len(edges) + 1,) compares
    above every one of them.  Lifting reaches the least fixed point in any
    order, so the worklist is a plain stack that may hold a vertex twice;
    the strategy takes the first successor, in edge order, with the least
    measure.
    """
    colors = list(color.values())
    odd = sorted({c for c in colors if c % 2}, reverse=True)
    cap = [colors.count(p) for p in odd]
    keep = {c: sum(p >= c for p in odd) for c in set(colors)}
    top = (len(edges) + 1,)

    def prog(m, c):
        """m as a vertex of color c needs it: the counters of the odd colors
        >= c kept and the rest zeroed, then at an odd c one more, counted
        like an odometer whose digit i runs up to cap[i] and that
        overflows to top."""
        if m == top:
            return top
        k = keep[c]
        m = list(m[:k]) + [0] * (len(odd) - k)
        if c % 2 == 0:
            return tuple(m)
        for i in range(k - 1, -1, -1):
            if m[i] < cap[i]:
                m[i] += 1
                return tuple(m)
            m[i] = 0
        return top

    rho = dict.fromkeys(edges, (0,) * len(odd))
    preds = {v: [] for v in edges}
    for v, ws in edges.items():
        for w in ws:
            preds[w].append(v)
    work = list(edges)
    while work:
        v = work.pop()
        vals = [prog(rho[w], color[v]) for w in edges[v]]
        new = min(vals) if owner[v] == player else max(vals)
        if rho[v] < new:
            rho[v] = new
            work += preds[v]
    win = {v for v in edges if rho[v] != top}
    strat = {v: min(edges[v], key=lambda w: prog(rho[w], color[v]))
             for v in win if owner[v] == player}
    return win, strat


def solve_oracle(arena):
    """Same contract as solve, computed with progress measures twice over."""
    arena.check()
    owner, color, edges, gadgets = _completed(arena)
    win_a, strat_a = _spm_one_side(edges, owner, color, AUTOMATON)
    shifted = {v: c + 1 for v, c in color.items()}
    win_p, strat_p = _spm_one_side(edges, owner, shifted, PATHFINDER)
    if win_a | win_p != edges.keys() or win_a & win_p:
        raise MalformedArena("progress measure passes do not partition the arena")
    return _project(arena, gadgets,
                    {AUTOMATON: win_a, PATHFINDER: win_p},
                    {AUTOMATON: strat_a, PATHFINDER: strat_p})


# --------------------------------------------------------------------------
# Graph walks and strategy verification

def bfs(starts, succ, parent=None):
    """Yield each vertex reachable from starts once, in breadth-first order.

    Repeated starts are yielded once, in first-seen order.  succ(v) is
    called only after v has been yielded, so the loop body may compute v's
    successors itself; leaving the loop early leaves the rest unexplored.
    If parent is a dict, it receives each vertex's BFS predecessor, None
    for a start; once iteration ends, its keys are the reach set.
    """
    seen = {} if parent is None else parent
    queue = []
    for v in starts:
        if v not in seen:
            seen[v] = None
            queue.append(v)
    for v in queue:     # the queue grows while it is walked
        yield v
        for w in succ(v):
            if w not in seen:
                seen[w] = v
                queue.append(w)


def strongly_connected_components(vertices, succ):
    """Tarjan, iterative.  succ maps a vertex to an iterable of successors.

    Roots are tried in the order of vertices, which fixes the order of the
    components.  Successors outside vertices are skipped as they come up,
    membership tested against a set built once.  low holds exactly the
    vertices on Tarjan's stack: an entry is deleted when its component
    pops, so `w in low` is the on-stack test."""
    index = {}
    low = {}
    stack = []
    sccs = []
    members = set(vertices)
    for root in vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ(root)))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in members:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ(w))))
                    break
                if w in low and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                lv = low[v]
                if work:
                    pv = work[-1][0]
                    if lv < low[pv]:
                        low[pv] = lv
                if lv == index[v]:
                    comp = set()
                    while True:
                        w = stack.pop()
                        del low[w]
                        comp.add(w)
                        if w == v:
                            break
                    sccs.append(comp)
    return sccs


def cycle_tops(vertices, succ, color):
    """Yield (S, c) for each strongly connected component S inside vertices
    that holds a cycle (more than one vertex, or one with a self-loop), c
    being S's maximal color; then the same, level by level, inside the
    vertices of each S whose colors are below its c.  succ(v) may name
    vertices outside the set; those edges are ignored.

    Each yielded S is a cyclic component of the vertices of color at most
    c, holding a vertex of color c, and every such component is yielded:
    so a cycle whose maximal color is c exists iff some S comes with c.
    One Tarjan pass covers a whole level, since no cycle spans two
    components of the level above.
    """
    level = list(vertices)
    while level:
        below = []
        for comp in strongly_connected_components(level, succ):
            v = next(iter(comp))
            if len(comp) > 1 or v in succ(v):
                c = max(map(color.__getitem__, comp))
                yield comp, c
                below += [u for u in comp if color[u] < c]
        level = below


def verify_strategy(arena, player, strategy, region=None):
    """Check that a positional strategy wins for player on the claimed region.

    Follows strategy edges at the player's vertices and all edges at the
    opponent's; fails if a reachable cycle has the wrong max-color parity or
    a reachable sink belongs to the player.
    """
    arena.check()
    restricted = {}
    for v in bfs(strategy if region is None else region,
                 restricted.__getitem__):
        if v in arena.sinks:
            if arena.owner[v] == player:
                return False
            restricted[v] = ()
        elif arena.owner[v] == player:
            if v not in strategy:
                raise IncompleteStrategy(f"no move chosen at {v!r}")
            w = strategy[v]
            if w not in arena.edges[v]:
                raise IncompleteStrategy(f"chosen move {v!r} -> {w!r} is not an edge")
            restricted[v] = (w,)
        else:
            restricted[v] = arena.edges[v]
    bad = 1 if player == AUTOMATON else 0
    return all(c % 2 != bad for _, c in
               cycle_tops(restricted, restricted.__getitem__, arena.color))
