"""Parity tree automata and the constructions that respect run counts.

A parity tree automaton runs on infinite binary trees; a run assigns a
state to every node so that each node's (state, label, left, right) is a
transition, and it accepts when every branch's maximal recurring color is
even.  The product constructions here are arranged so that accepting runs
of the result correspond one-to-one to (tuples of) accepting runs of the
arguments — that bookkeeping is what the run-counting machinery relies on.

Deterministic parity word automata appear as a helper: the conjunction
automaton reads tuples of colors and accepts exactly when every coordinate
sequence has an even maximal recurring color (an index-appearance-record
over the corresponding Streett pairs).
"""

import itertools
from dataclasses import dataclass

from .errors import AlphabetMismatch, MalformedArena, UnknownState
from .games import bfs
from .trees import _merge_alphabets


@dataclass
class ParityTreeAutomaton:
    name: str
    alphabet: tuple
    states: frozenset
    initials: frozenset
    delta: frozenset          # of (q, a, q_left, q_right)
    color: dict               # state -> nonnegative int

    def check(self):
        if not self.alphabet:
            raise MalformedArena(f"{self.name}: empty alphabet")
        if not self.initials <= self.states:
            raise UnknownState(f"{self.name}: initial states not declared")
        for q in self.states:
            if self.color.get(q, -1) < 0:
                raise MalformedArena(f"{self.name}: state {q!r} lacks a color")
        for q, a, ql, qr in self.delta:
            if q not in self.states or ql not in self.states or qr not in self.states:
                raise UnknownState(f"{self.name}: transition uses unknown state")
            if a not in self.alphabet:
                raise AlphabetMismatch(f"{self.name}: transition letter {a!r} not in alphabet")
        return self

    # (delta, {a: {q: q's transitions on a, sorted}}); a class default, not
    # a field.  It holds delta's own tuples and keys on existing states, so
    # the index adds one small object per (q, a) and no copy of any move.
    _moves_index = (None, {})

    def moves(self, q, a):
        """The sorted (q_left, q_right) pairs of q's transitions on a, as a
        fresh list; pairs whose states do not compare (1 and "1") are
        sorted by str.  The index behind it is built on the first call and
        again whenever delta has been replaced."""
        delta, index = self._moves_index
        if delta is not self.delta:
            index = {}
            for tr in self.delta:
                index.setdefault(tr[1], {}).setdefault(tr[0], []).append(tr)
            for by_state in index.values():
                for p, trs in by_state.items():
                    try:
                        by_state[p] = tuple(sorted(trs))
                    except TypeError:
                        by_state[p] = tuple(sorted(trs, key=str))
            self._moves_index = (self.delta, index)
        return [(ql, qr) for _, _, ql, qr in index.get(a, {}).get(q, ())]

    def max_color(self):
        return max(self.color.values(), default=0)


@dataclass
class DetParityWordAutomaton:
    name: str
    alphabet: tuple           # letters; tuples of colors for conjunctions
    states: frozenset
    init: object
    delta: dict               # (state, letter) -> state, total
    color: dict

    def check(self):
        if self.init not in self.states:
            raise UnknownState(f"{self.name}: initial state not declared")
        for q in self.states:
            if self.color.get(q, -1) < 0:
                raise MalformedArena(f"{self.name}: state {q!r} lacks a color")
            for a in self.alphabet:
                if (q, a) not in self.delta:
                    raise MalformedArena(f"{self.name}: missing transition {q!r} on {a!r}")
                if self.delta[(q, a)] not in self.states:
                    raise UnknownState(f"{self.name}: transition to unknown state")
        return self

    def max_color(self):
        return max(self.color.values(), default=0)


# --------------------------------------------------------------------------
# Conjunction of parity conditions, as a deterministic parity word automaton

def color_identity_dpw(d):
    """Reads single colors 0..d; max recurring output = max recurring input."""
    letters = tuple(range(d + 1))
    states = frozenset(range(d + 1))
    delta = {(q, (a,)): a for q in states for a in letters}
    color = {q: q for q in states}
    return DetParityWordAutomaton(
        f"colors<={d}", tuple((a,) for a in letters), states, 0, delta, color).check()


def conjunction_dpw(d1, d2):
    """Deterministic parity automaton over pairs (c1, c2) with ci <= di that
    accepts exactly the sequences whose both coordinates have an even maximal
    recurring color.

    Index appearance record over the Streett pairs (E, F) with, for each
    coordinate j and odd c <= dj, E = "coordinate j shows c" and
    F = "coordinate j shows something above c".
    """
    pairs = []
    for j, dj in ((0, d1), (1, d2)):
        for c in range(1, dj + 1, 2):
            pairs.append((j, c))
    k = len(pairs)
    letters = tuple(itertools.product(range(d1 + 1), range(d2 + 1)))
    if k == 0:
        # no odd colors at all: everything accepted
        return DetParityWordAutomaton(
            "conj-trivial", letters, frozenset([0]),
            0, {(0, a): 0 for a in letters}, {0: 0}).check()

    def hits(a):
        e_hit, f_hit = set(), set()
        for i, (j, c) in enumerate(pairs):
            if a[j] == c:
                e_hit.add(i)
            elif a[j] > c:
                f_hit.add(i)
        return e_hit, f_hit

    init = (tuple(range(k)), 0, 0)
    states = []
    delta = {}
    for st in bfs([init], lambda st: [delta[(st, a)] for a in letters]):
        states.append(st)
        perm = st[0]
        for a in letters:
            e_hit, f_hit = hits(a)
            pos_e = max((p + 1 for p, i in enumerate(perm) if i in e_hit), default=0)
            pos_f = max((p + 1 for p, i in enumerate(perm) if i in f_hit), default=0)
            moved = tuple(i for i in perm if i in f_hit)
            kept = tuple(i for i in perm if i not in f_hit)
            delta[(st, a)] = (moved + kept, pos_e, pos_f)
    color = {(perm, e, f): (2 * f if f >= e else 2 * e - 1)
             for (perm, e, f) in states}
    return DetParityWordAutomaton(
        f"conj({d1},{d2})", letters, frozenset(states), init, delta, color).check()


def conjunction_dpw_tuple(domains):
    """Deterministic parity automaton over color tuples (c_1, ..., c_n),
    c_j <= domains[j], accepting exactly when every coordinate's maximal
    recurring color is even.  Built by folding the binary conjunction."""
    domains = tuple(domains)
    if not domains:
        raise MalformedArena("conjunction over no coordinates")
    if len(domains) == 1:
        return color_identity_dpw(domains[0])
    prev = conjunction_dpw_tuple(domains[:-1])
    last = domains[-1]
    bridge = conjunction_dpw(prev.max_color(), last)
    letters = tuple(itertools.product(*(range(d + 1) for d in domains)))
    init = (prev.init, bridge.init)
    states = []
    delta = {}
    for st in bfs([init], lambda st: [delta[(st, a)] for a in letters]):
        states.append(st)
        p, b = st
        for a in letters:
            p2 = prev.delta[(p, a[:-1])]
            delta[(st, a)] = (p2, bridge.delta[(b, (prev.color[p2], a[-1]))])
    color = {(p, b): bridge.color[b] for (p, b) in states}
    return DetParityWordAutomaton(
        "conj" + str(domains), letters, frozenset(states), init, delta,
        color).check()


# --------------------------------------------------------------------------
# Ambiguity-respecting constructions

def _tagged(parts):
    """The automata of parts ({tag: automaton}) side by side, each state q
    of parts[tag] renamed (tag, q): (states, color, delta) as a set, a dict
    and a set, for the caller to extend."""
    states, color, delta = set(), {}, set()
    for tag, a in parts.items():
        states.update((tag, q) for q in a.states)
        color.update({(tag, q): a.color[q] for q in a.states})
        delta.update(((tag, q), x, (tag, l), (tag, r))
                     for q, x, l, r in a.delta)
    return states, color, delta


def union(a1, a2):
    """Disjoint union: accepting runs are runs of either argument, so the
    count on any tree is the sum of the two counts."""
    parts = {1: a1, 2: a2}
    states, color, delta = _tagged(parts)
    initials = frozenset((tag, q) for tag, a in parts.items()
                         for q in a.initials)
    return ParityTreeAutomaton(
        f"({a1.name}|{a2.name})", _merge_alphabets(a1.alphabet, a2.alphabet),
        frozenset(states), initials, frozenset(delta), color).check()


def restrict_initials(a, qs):
    qs = frozenset(qs)
    if not qs <= a.states:
        raise UnknownState(f"{a.name}: restrict to undeclared states")
    return ParityTreeAutomaton(f"{a.name}@", a.alphabet, a.states, qs,
                               a.delta, dict(a.color)).check()


def single_initial(a):
    """Funnel all initial states into one fresh state.  The language is
    preserved; distinct runs may collapse when they differ only in the root
    state, so this is a membership gadget, not a counting-safe construction."""
    fresh = ("init",)
    while fresh in a.states:
        fresh = fresh + ("*",)
    delta = set(a.delta)
    for q, letter, ql, qr in a.delta:
        if q in a.initials:
            delta.add((fresh, letter, ql, qr))
    color = dict(a.color)
    color[fresh] = 1
    return ParityTreeAutomaton(
        f"{a.name}!", a.alphabet, a.states | {fresh}, frozenset([fresh]),
        frozenset(delta), color).check()


def intersect(a1, a2):
    """Product automaton: runs correspond one-to-one to pairs of runs, so the
    count on any tree is the product of the two counts.

    The deterministic conjunction automaton rides along in the state and
    reads, at every node, the pair of colors of the two tracked states; its
    own color decides acceptance of the branch.
    """
    if tuple(a1.alphabet) != tuple(a2.alphabet):
        raise AlphabetMismatch(
            f"intersect: alphabets differ ({a1.alphabet} vs {a2.alphabet})")
    dpw = conjunction_dpw(a1.max_color(), a2.max_color())

    def advance(p, q1, q2):
        return dpw.delta[(p, (a1.color[q1], a2.color[q2]))]

    initials = frozenset((q1, q2, advance(dpw.init, q1, q2))
                         for q1 in a1.initials for q2 in a2.initials)
    states = []
    delta = set()
    kids = {}
    for st in bfs(initials, kids.pop):
        states.append(st)
        out = kids[st] = []
        q1, q2, p = st
        for a in a1.alphabet:
            for l1, r1 in a1.moves(q1, a):
                for l2, r2 in a2.moves(q2, a):
                    left = (l1, l2, advance(p, l1, l2))
                    right = (r1, r2, advance(p, r1, r2))
                    delta.add((st, a, left, right))
                    out += (left, right)
    color = {(q1, q2, p): dpw.color[p] for (q1, q2, p) in states}
    return ParityTreeAutomaton(
        f"({a1.name}&{a2.name})", a1.alphabet, frozenset(states), initials,
        frozenset(delta), color).check()


def moore_reduction(a2, machine):
    """Automaton accepting exactly the trees whose relabeling through the
    machine lands in L(a2); runs correspond one-to-one.

    The machine component tracks the state reached after consuming the
    labels down to and including the current node's, so the label the inner
    automaton reads at a node is the machine's output after that update.
    """
    if tuple(a2.alphabet) != tuple(machine.outputs):
        raise AlphabetMismatch(
            f"moore_reduction: {a2.name} reads {a2.alphabet}, "
            f"machine emits {machine.outputs}")
    alphabet = tuple(machine.inputs)
    states = frozenset((q, m) for q in a2.states for m in machine.states)
    initials = frozenset((q, machine.init) for q in a2.initials)
    delta = set()
    for q, m in states:
        for a in alphabet:
            m2 = machine.delta[(m, a)]
            b = machine.out[m2]
            for l, r in a2.moves(q, b):
                delta.add((((q, m)), a, (l, m2), (r, m2)))
    color = {(q, m): a2.color[q] for (q, m) in states}
    return ParityTreeAutomaton(
        f"{a2.name}/{machine.name}", alphabet, states, initials,
        frozenset(delta), color).check()


def det_pta_for_tree(t, alphabet=None):
    """Deterministic automaton whose language is exactly {t}.  All colors 0;
    the single run follows the tree's own state machine."""
    alphabet = tuple(alphabet) if alphabet is not None else tuple(t.alphabet)
    for a in t.alphabet:
        if a not in alphabet:
            raise AlphabetMismatch(f"tree label {a!r} outside {alphabet}")
    states = frozenset(t.states)
    delta = frozenset((s, t.out[s], t.next[(s, "l")], t.next[(s, "r")])
                      for s in t.states)
    color = {s: 0 for s in t.states}
    return ParityTreeAutomaton(f"just[{t.name}]", alphabet, states,
                               frozenset([t.init]), delta, color).check()


def _reach(initials, delta):
    moves = {}
    for q, _, l, r in delta:
        moves.setdefault(q, []).extend((l, r))
    return set(bfs(initials, lambda q: moves.get(q, ())))


def reachable_states(a):
    return _reach(a.initials, a.delta)


def trim_useful(a):
    """Restrict to states that are reachable and have nonempty language.
    The result can have no initial states left, in which case it is the
    canonical empty automaton over the same alphabet."""
    from .ambiguity import nonempty_states
    keep = reachable_states(a) & nonempty_states(a)
    delta = frozenset((q, x, l, r) for q, x, l, r in a.delta
                      if q in keep and l in keep and r in keep)
    # pruning non-productive states can orphan others; shrink once more
    keep &= _reach(a.initials & keep, delta)
    if not keep:
        return ParityTreeAutomaton(
            f"{a.name}~", a.alphabet, frozenset(["dead"]), frozenset(),
            frozenset(), {"dead": 1}).check()
    return ParityTreeAutomaton(
        f"{a.name}~", a.alphabet, frozenset(keep), a.initials & keep,
        frozenset(tr for tr in delta if tr[0] in keep),
        {q: a.color[q] for q in keep}).check()


# --------------------------------------------------------------------------
# Automata on finite trees (for the unambiguous-language representations)

@dataclass
class FiniteTreeAutomaton:
    name: str
    alphabet0: tuple          # nullary labels
    alphabet2: tuple          # binary labels
    states: frozenset
    initials: frozenset
    delta0: frozenset         # of (q, a)
    delta2: frozenset         # of (q, a, q_left, q_right)

    def check(self):
        if not self.initials <= self.states:
            raise UnknownState(f"{self.name}: initial states not declared")
        for q, a in self.delta0:
            if q not in self.states or a not in self.alphabet0:
                raise MalformedArena(f"{self.name}: bad leaf transition {(q, a)!r}")
        for q, a, l, r in self.delta2:
            if not {q, l, r} <= self.states or a not in self.alphabet2:
                raise MalformedArena(f"{self.name}: bad inner transition")
        return self


def _fold_finite_tree(node, leaf_fn, node_fn):
    if isinstance(node, tuple) and len(node) == 3:
        sym, left, right = node
        return node_fn(sym, _fold_finite_tree(left, leaf_fn, node_fn),
                       _fold_finite_tree(right, leaf_fn, node_fn))
    return leaf_fn(node)


def fta_run_counts(f, tree):
    """Map state -> number of runs from that state on the finite tree.
    Finite trees are nested tuples: a leaf is its label, an inner node is
    (label, left, right)."""
    def leaf(sym):
        counts = {}
        for q, a in f.delta0:
            if a == sym:
                counts[q] = counts.get(q, 0) + 1
        return counts

    def inner(sym, lc, rc):
        counts = {}
        for q, a, l, r in f.delta2:
            if a == sym and l in lc and r in rc:
                counts[q] = counts.get(q, 0) + lc[l] * rc[r]
        return counts

    return _fold_finite_tree(tree, leaf, inner)


def fta_accepts(f, tree):
    counts = fta_run_counts(f, tree)
    return any(q in counts for q in f.initials)


def fta_count_accepting_runs(f, tree):
    counts = fta_run_counts(f, tree)
    return sum(counts.get(q, 0) for q in f.initials)


def fta_is_unambiguous(f):
    """No finite tree admits two distinct accepting runs.

    Builds the least set of triples (q1, q2, differ) such that some finite
    tree carries runs from q1 and from q2 which differ somewhere iff the
    flag can be True; ambiguity is a flagged pair of initial states.
    """
    triples = set()
    for q1, a in f.delta0:
        for q2, b in f.delta0:
            if a == b:
                triples.add((q1, q2, q1 != q2))
    by_letter = {}
    for q, a, l, r in f.delta2:
        by_letter.setdefault(a, []).append((q, l, r))
    changed = True
    while changed:
        changed = False
        for a, rules in by_letter.items():
            for (q1, l1, r1), (q2, l2, r2) in itertools.product(rules, rules):
                for dl in (False, True):
                    if (l1, l2, dl) not in triples:
                        continue
                    for dr in (False, True):
                        if (r1, r2, dr) not in triples:
                            continue
                        t = (q1, q2, (q1 != q2) or dl or dr)
                        if t not in triples:
                            triples.add(t)
                            changed = True
    return not any((q1, q2, True) in triples
                   for q1 in f.initials for q2 in f.initials)


def fta_enumerate_accepted(f, max_nodes):
    """All accepted finite trees with at most max_nodes nodes, smallest
    first.  Sizes stay tiny in the tests; this is deliberately naive."""
    by_size = {1: [sym for sym in f.alphabet0]}
    for n in range(3, max_nodes + 1, 2):
        layer = []
        for nl in range(1, n - 1, 2):
            nr = n - 1 - nl
            for sym in f.alphabet2:
                for lt in by_size.get(nl, ()):
                    for rt in by_size.get(nr, ()):
                        layer.append((sym, lt, rt))
        by_size[n] = layer
    out = []
    for n in sorted(by_size):
        for t in by_size[n]:
            if fta_accepts(f, t):
                out.append(t)
    return out
