"""The membership game: does an automaton accept a regular tree?

Both machines are finite, so the game where Automaton proposes transitions
and Pathfinder picks directions lives on a finite product arena: Automaton
positions are pairs (tree-machine state, automaton state), Pathfinder
positions are (tree-machine state, q_left, q_right).  The winner from the
initial position decides membership, and the positional strategies of the
solved game convert back and forth into regular runs (for Automaton) and
regular direction-choosing trees (for Pathfinder).

A note on invalid moves: the textbook game lets Automaton propose any state
pair and lose on the spot when it is not a transition.  Here invalid moves
are simply absent from the arena, and a position with no valid move is a
losing sink for Automaton.  Both treatments give the same winner: every
play through an invalid move is lost for Automaton immediately, which is
exactly what the sink does.  The leads() simulator below re-creates the
invalid-move device where it is actually needed.  On member's path a move
into a child with no valid move is absent too (see _product_ids): no run
uses it, and Pathfinder wins its position by stepping into that child.
build_game and classify keep every valid move.
"""

from dataclasses import dataclass

from .automata import single_initial
from .errors import (AlphabetMismatch, IncompleteStrategy, InconsistentRun,
                     IsMember, NotMember, PreconditionViolated, StateMismatch)
from .games import (AUTOMATON, PATHFINDER, ParityGameArena, automaton_wins,
                    cycle_tops, name_key, solve)
from .trees import (RegularTree, build_tree, check_path, graft_node,
                    tree_equal)


def _check_alphabet(a, t):
    """Raise AlphabetMismatch, naming a, unless t's letters are all a's."""
    if not set(t.alphabet) <= set(a.alphabet):
        raise AlphabetMismatch(f"{t.name} is over {t.alphabet}, outside "
                               f"{a.name}'s alphabet")


def _product_ids(a, t, trim=False):
    """The membership product on dense int ids, and the names of the ids.

    Vertex i is numbered i when the breadth-first walk from the initial
    vertices first discovers it, the initial Automaton vertices (t.init, q)
    first, q in str order.  Returns ((succ, owner, color, sinks), names,
    keys) with the int arena in the form of games.automaton_wins: (m, q)
    is owned by Automaton (0) with color C(q), and (m, ql, qr) by
    Pathfinder (1) with color 0; an Automaton vertex with no transition on
    the node's label is a losing sink.  names() decodes the list of vertex
    names, and keys() lists their str, composed from one repr per tree
    state and per automaton state (a tuple's str is its items' reprs
    between parentheses).  A tree with a letter outside a's alphabet raises
    AlphabetMismatch naming a (_check_alphabet).

    With trim (member's build), a move (ql, qr) at (m, q) is kept only if
    ql has a transition on the letter of m's l-child and qr one on the
    letter of its r-child; an Automaton vertex left without a move is a
    sink.  Automaton's region on every vertex still built is that of the
    full build.  No run uses a dropped move, since a run needs a
    transition at every node.  In the full game the move's Pathfinder
    vertex has a sink as a successor, so it lies in Pathfinder's attractor
    of the sinks.  The trimmed arena is the full one restricted to the
    vertices its walk reaches, less these moves: Automaton's winning
    strategy never proposes one of them, and Pathfinder's, whose vertices
    keep all of their moves, still wins against fewer proposals.  A vertex
    left without a move had only losing ones.

    The walk hashes no names.  Tree states m and automaton states q (in
    str order) are numbered once; (m, q) is coded m*|Q| + q and looked up
    in a dense list, (m, ql, qr) is coded (m*|Q| + ql)*|Q| + qr and looked
    up in a dict.  Each (q, letter)'s moves are fetched once, as the codes
    ql*|Q| + qr; with trim, once per (q, letter, l-child's letter,
    r-child's letter), keeping the moves whose children can go on.
    """
    _check_alphabet(a, t)
    states = sorted(a.states, key=str)
    nq = len(states)
    nqq = nq * nq
    qid = dict(zip(states, range(nq)))
    qcolor = [a.color[q] for q in states]
    tstates = list(t.out)
    mid = dict(zip(tstates, range(len(tstates))))
    nxt = t.next
    left = [mid[nxt[(m, "l")]] * nq for m in tstates]
    right = [mid[nxt[(m, "r")]] * nq for m in tstates]
    labels = [t.out[m] for m in tstates]
    moves = a.moves
    if trim:
        # live[x][q]: q has a transition on letter x, so a run can go on
        # from a child labelled x in state q
        live = {x: [bool(moves(q, x)) for q in states] for x in set(labels)}
        kinds = [(x, t.out[nxt[(m, "l")]], t.out[nxt[(m, "r")]])
                 for m, x in zip(tstates, labels)]
    else:
        kinds = labels
    # rows[m][q]: q's move codes at m, fetched on first use; tree states of
    # the same kind (their letter, and with trim their children's letters)
    # share one row
    by_kind = {k: [None] * nq for k in set(kinds)}
    rows = [by_kind[k] for k in kinds]
    avert = [None] * (len(tstates) * nq)    # Automaton vertex ids by code
    pvert = {}                              # Pathfinder vertex ids by code
    codes = []
    succ, owner, color, sinks = [], bytearray(), [], []
    m0 = mid[t.init] * nq
    for q in sorted(a.initials, key=str):
        c = m0 + qid[q]
        avert[c] = len(codes)
        codes.append(c)
        owner.append(0)
        color.append(a.color[q])
    for v, c in enumerate(codes):   # codes grows while it is walked
        if owner[v]:
            m, pair = divmod(c, nqq)
            ql, qr = divmod(pair, nq)
            w = left[m] + ql
            jl = avert[w]
            if jl is None:
                jl = avert[w] = len(codes)
                codes.append(w)
                owner.append(0)
                color.append(qcolor[ql])
            w = right[m] + qr
            jr = avert[w]
            if jr is None:
                jr = avert[w] = len(codes)
                codes.append(w)
                owner.append(0)
                color.append(qcolor[qr])
            succ.append((jl, jr))
            continue
        m, q = divmod(c, nq)
        row = rows[m]
        pairs = row[q]
        if pairs is None:
            pairs = row[q] = [qid[ql] * nq + qid[qr]
                              for ql, qr in moves(states[q], labels[m])]
            if trim:
                _, xl, xr = kinds[m]
                livel, liver = live[xl], live[xr]
                pairs = row[q] = [w for w in pairs
                                  if livel[w // nq] and liver[w % nq]]
        if not pairs:
            sinks.append(v)
        ws = []
        base = m * nqq
        for w in pairs:
            w += base
            j = pvert.get(w)
            if j is None:
                j = pvert[w] = len(codes)
                codes.append(w)
                owner.append(1)
                color.append(0)
            ws.append(j)
        succ.append(tuple(ws))

    def names():
        out = []
        for c, o in zip(codes, owner):
            if o:
                m, pair = divmod(c, nqq)
                out.append((tstates[m], states[pair // nq], states[pair % nq]))
            else:
                out.append((tstates[c // nq], states[c % nq]))
        return out

    def keys():
        rq = list(map(repr, states))
        rm = [f"({m!r}, " for m in tstates]
        out = []
        for c, o in zip(codes, owner):
            if o:
                m, pair = divmod(c, nqq)
                ql, qr = divmod(pair, nq)
                out.append(f"{rm[m]}{rq[ql]}, {rq[qr]})")
            else:
                m, q = divmod(c, nq)
                out.append(f"{rm[m]}{rq[q]})")
        return out

    return (succ, owner, color, sinks), names, keys


def _product_arena(a, t, name):
    """Arena of the membership game, explored from all initial states: the
    int product of _product_ids relabelled by its vertex names.  Returns
    the arena and the list of initial Automaton vertices (one per initial
    state of a).  A tree with a letter outside a's alphabet raises
    AlphabetMismatch naming a.
    """
    (succ, owner, color, sinks), names, _ = _product_ids(a, t)
    names = names()
    label = names.__getitem__
    inits = names[:len(a.initials)]
    player = (AUTOMATON, PATHFINDER).__getitem__
    return (ParityGameArena(
        name, dict(zip(names, map(player, owner))), dict(zip(names, color)),
        {v: tuple(map(label, ws)) for v, ws in zip(names, succ)},
        frozenset(map(label, sinks)), inits[0] if len(inits) == 1 else None),
        inits)


@dataclass
class MembershipGame:
    arena: ParityGameArena
    automaton: object  # the automaton the arena was built from (single-initial)
    original: object   # the automaton as passed in
    tree: RegularTree


def build_game(a, t):
    """Membership game for automaton a on regular tree t.

    Multi-initial automata are funneled through single_initial first so the
    game has one initial position; the original automaton is kept on the
    result for converting strategies back to runs over its real states.
    The alphabets are checked before the funnel, so that a mismatch names
    a as given.
    """
    _check_alphabet(a, t)
    normalized = a if len(a.initials) == 1 else single_initial(a)
    arena, _ = _product_arena(normalized, t, f"G[{a.name},{t.name}]")
    return MembershipGame(arena, normalized, a, t)


def member(a, t):
    """Is t in the language of a?  Decided on the int product explored from
    every initial state, built without the moves into a child that has no
    transition (trim in _product_ids): t is accepted iff Automaton wins
    from one of them."""
    arena, _, _ = _product_ids(a, t, trim=True)
    won, _ = automaton_wins(*arena)
    return any(i in won for i in range(len(a.initials)))


@dataclass
class RegularRun:
    """A regular run of an automaton on a regular tree.

    The machine is a RegularTree whose "labels" are automaton states: the
    state assigned to node v is machine.label(v).  Reusing the tree type
    buys grafting, subtree extraction and equality checking for free.
    """

    automaton: object
    tree: RegularTree
    machine: RegularTree

    @property
    def name(self):
        return self.machine.name


def _run_walk(run):
    """Check the run invariants in one walk, and return each reachable run
    state's (l-child, r-child); raises InconsistentRun, or the error of
    the run machine's or the tree's check() when one is malformed.

    The walk visits the reachable (run state, tree state) pairs breadth
    first and checks that each reads off a transition of the automaton,
    failing on the first that does not.  The tree is checked total first,
    so every path of the run machine from its root is the first component
    of a path of pairs: the run states the walk records are exactly the
    reachable ones.
    """
    a, t, mach = run.automaton, run.tree, run.machine
    mach.check()
    t.check()
    if mach.out[mach.init] not in a.initials:
        raise InconsistentRun(
            f"{run.name}: root state {mach.out[mach.init]!r} is not initial")

    mnext, tnext, mout, tout = mach.next, t.next, mach.out, t.out
    delta = a.delta
    kids = {}       # reachable run state -> (l-child, r-child)
    seen = {(mach.init, t.init)}
    queue = [(mach.init, t.init)]
    for r, m in queue:      # the queue grows while it is walked
        rl, rr = kids[r] = mnext[(r, "l")], mnext[(r, "r")]
        pl, pr = (rl, tnext[(m, "l")]), (rr, tnext[(m, "r")])
        trans = (mout[r], tout[m], mout[rl], mout[rr])
        if trans not in delta:
            raise InconsistentRun(
                f"{run.name}: {trans!r} is not a transition of {a.name}")
        if pl not in seen:
            seen.add(pl)
            queue.append(pl)
        if pr not in seen:
            seen.add(pr)
            queue.append(pr)
    return kids


def run_check(run):
    """Validate the run invariants; raises InconsistentRun.

    Root must output an initial state, and every reachable (run state,
    tree state) pair must read off a transition of the automaton.  One
    walk over those pairs, _run_walk, checks them; run_is_accepting uses
    the same walk.
    """
    _run_walk(run)
    return run


def run_is_accepting(run):
    """Does every branch of the run satisfy the parity condition?

    A branch's infinitely-visited machine states form a cycle-closed set,
    so the condition fails exactly when some reachable cycle of the run
    machine has an odd maximal color.  The walk that checks the run
    (run_check's) records each reachable run state's children on the way,
    and cycle_tops reads them from there: the run machine is not walked
    again.
    """
    kids = _run_walk(run)
    color, mout = run.automaton.color, run.machine.out
    colors = {s: color[mout[s]] for s in kids}
    return all(c % 2 == 0
               for _, c in cycle_tops(kids, kids.__getitem__, colors))


def automaton_strategy_to_run(g, analysis):
    """Read a regular run off Automaton's winning strategy.

    The run machine is the strategy-restricted product: from (m, q) the
    chosen Pathfinder vertex fixes the state pair, and its two arena edges
    are the l- and r-successors.  When the game was built over a fresh
    funnel state, the root is renamed to the first original initial state
    that carries the chosen transition.
    """
    if analysis.winner_of(g.arena.init) != AUTOMATON:
        raise NotMember(f"{g.tree.name} not accepted by {g.original.name}")
    strat = analysis.strategy[AUTOMATON]
    a, t = g.original, g.tree
    root = g.arena.init
    root_out = root[1]
    if g.automaton is not a:
        # the funnel state copied some initial state's transition; recover it
        _, ql, qr = strat[root]
        root_out = next(q for q in sorted(a.initials, key=name_key)
                        if (q, t.out[t.init], ql, qr) in a.delta)

    def succ(v, d):
        p = strat[v]
        return g.arena.edges[p][0 if d == "l" else 1]

    def out(v):
        return root_out if v == root else v[1]

    alphabet = tuple(sorted(a.states, key=str))
    mach = build_tree(root, succ, out, alphabet, f"run[{a.name},{t.name}]")
    return run_check(RegularRun(a, t, mach))


@dataclass
class PathfinderStrategyTree:
    """A regular tree of total maps (q_left, q_right) -> direction.

    The machine runs over directions like a RegularTree; out[state] is the
    map consulted at the corresponding node.
    """

    name: str
    automaton: object
    init: object
    next: dict       # (state, dir) -> state
    out: dict        # state -> {(ql, qr): "l" | "r"}, total on Q x Q

    @property
    def states(self):
        return tuple(sorted(self.out))


def pathfinder_strategy(a, t):
    """Pathfinder's winning strategy as a regular map-labeled tree.

    Entries for state pairs never reached as Pathfinder vertices default to
    direction l, keeping the emitted maps total and files reproducible.
    """
    g = build_game(a, t)
    analysis = solve(g.arena)
    if analysis.winner_of(g.arena.init) == AUTOMATON:
        raise IsMember(f"{t.name} is accepted by {a.name}")
    strat = analysis.strategy[PATHFINDER]
    pairs = [(ql, qr) for ql in sorted(a.states, key=str)
             for qr in sorted(a.states, key=str)]
    out = {m: {pair: "l" for pair in pairs} for m in t.states}
    for v, w in strat.items():
        if len(v) != 3:
            continue
        m, ql, qr = v
        if (ql, qr) in out[m]:
            out[m][(ql, qr)] = "l" if w == g.arena.edges[v][0] else "r"
    return PathfinderStrategyTree(f"straj[{a.name},{t.name}]", a,
                                  t.init, dict(t.next), out)


def run_graft(run, run1, v):
    """Replace the part of run below node v by run1.

    run1 must start in the state run assigns to v; the result is a run on
    the correspondingly grafted tree.  Acceptance carries over whenever
    both inputs are accepting, since every cycle of the grafted machine
    comes from one of the two machines.
    """
    check_path(v)
    here = run.machine.label(v)
    there = run1.machine.label("")
    if here != there:
        raise StateMismatch(
            f"run assigns {here!r} at {v or 'the root'}, graft starts at {there!r}")
    machine = graft_node(run.machine, run1.machine, v)
    tree = graft_node(run.tree, run1.tree, v)
    return run_check(RegularRun(run.automaton, tree, machine))


def leads(a, t0, strj, tprime, phi):
    """Play phi's strategy against strj in the game on t0; find the slip.

    phi is an accepting run on tprime, so when Automaton replays it in the
    game for t0 (Pathfinder steering by strj) the first proposal that is
    not a transition under t0's labels pins a node where t0 and tprime
    disagree: the same proposal IS a transition under tprime's label there.
    The states of the four machines determine the whole simulation, so a
    valid play longer than their product must have looped, meaning some
    precondition (t0 rejected, strj winning, phi accepting) was violated.
    """
    try:
        if not run_is_accepting(phi):
            raise PreconditionViolated(f"{phi.name} is not accepting")
    except InconsistentRun as err:
        raise PreconditionViolated(str(err)) from err
    if not tree_equal(phi.tree, tprime):
        raise PreconditionViolated(
            f"{phi.name} runs on {phi.tree.name}, not on {tprime.name}")
    _check_alphabet(a, t0)
    mach = phi.machine
    bound = len(mach.states) * len(t0.states) * len(tprime.states) * len(strj.states)
    r, m0, s = mach.init, t0.init, strj.init
    path = ""
    for _ in range(bound + 1):
        ql = mach.out[mach.next[(r, "l")]]
        qr = mach.out[mach.next[(r, "r")]]
        if (mach.out[r], t0.out[m0], ql, qr) not in a.delta:
            return path
        choice = strj.out[s].get((ql, qr))
        if choice is None:
            raise IncompleteStrategy(
                f"{strj.name} has no direction for {(ql, qr)!r}")
        path += choice
        r = mach.next[(r, choice)]
        m0 = t0.next[(m0, choice)]
        s = strj.next[(s, choice)]
    raise PreconditionViolated(
        "no invalid move within the state-product bound; "
        "the inputs cannot all satisfy the leads preconditions")
