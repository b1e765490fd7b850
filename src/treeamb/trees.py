"""Finitely presented infinite binary trees.

A regular tree over an alphabet is given by a Moore machine that reads
directions ('l' or 'r') and outputs node labels: the label of a node v is the
output of the state reached by walking v from the initial state.  All
operations below return trimmed machines with canonically renumbered states,
so structural equality of the underlying graphs is meaningful but semantic
equality should always go through tree_equal.
"""

from dataclasses import dataclass, replace

from .errors import AlphabetMismatch, AntichainViolation, UnknownState
from .games import bfs

DIRS = ("l", "r")


def check_path(v):
    """Validate a node path (a string over {l, r}); returns it unchanged."""
    if not isinstance(v, str) or any(ch not in ("l", "r") for ch in v):
        raise ValueError(f"not a node path: {v!r}")
    return v


@dataclass
class RegularTree:
    """Moore machine over directions denoting an infinite binary tree.

    states are 0..n-1 with 0 the initial state; next maps (state, dir) to a
    state and out maps each state to a label.  Instances are treated as
    immutable once built.
    """

    name: str
    alphabet: tuple
    init: int
    next: dict
    out: dict

    @property
    def states(self):
        return tuple(sorted(self.out))

    def label(self, v):
        """Label of node v (a direction string)."""
        return self.out[self.state_at(v)]

    def state_at(self, v):
        check_path(v)
        s = self.init
        for d in v:
            s = self.next[(s, d)]
        return s

    def check(self):
        """Raise if the machine is not total / refers to unknown states."""
        sts = set(self.out)
        alphabet = set(self.alphabet)
        if self.init not in sts:
            raise UnknownState(f"initial state {self.init} undeclared")
        for s in sts:
            if self.out[s] not in alphabet:
                raise AlphabetMismatch(
                    f"state {s} outputs {self.out[s]!r} outside the alphabet")
            for d in DIRS:
                if (s, d) not in self.next:
                    raise UnknownState(f"state {s} missing {d}-edge")
                if self.next[(s, d)] not in sts:
                    raise UnknownState(f"edge {s} -{d}-> {self.next[(s, d)]} dangling")
        return self


def build_tree(init, succ, out, alphabet, name="tree"):
    """BFS-trim a machine given by functions and renumber states from 0.

    succ(state, dir) and out(state) may be defined on any hashable state
    space; only the part reachable from init is kept.
    """
    order = {}
    kids = {}
    for s in bfs([init], kids.__getitem__):
        order[s] = len(order)
        kids[s] = succ(s, "l"), succ(s, "r")
    nxt = {}
    for s, (l, r) in kids.items():
        nxt[(order[s], "l")] = order[l]
        nxt[(order[s], "r")] = order[r]
    outs = {i: out(s) for s, i in order.items()}
    return RegularTree(name, tuple(alphabet), 0, nxt, outs)


def constant_tree(symbol, alphabet, name=None):
    """The tree labelling every node with the same symbol."""
    if symbol not in alphabet:
        raise AlphabetMismatch(f"{symbol!r} not in alphabet {alphabet}")
    return build_tree(0, lambda s, d: 0, lambda s: symbol, alphabet,
                      name or f"const-{symbol}")


def subtree_at(t, v):
    """The subtree of t rooted at node v."""
    check_path(v)
    return build_tree(t.state_at(v), lambda s, d: t.next[(s, d)],
                      lambda s: t.out[s], t.alphabet, f"{t.name}@{v or 'e'}")


def graft_node(t1, t2, v):
    """t1 with the subtree at node v replaced by t2: the graft of t2 along
    the one-node antichain {v}."""
    return replace(graft_antichain(t1, t2, singleton_antichain(v)),
                   name=f"{t1.name}[{t2.name}/{v}]")


def graft_antichain(t1, t2, y):
    """t1 with the subtree at every node of the antichain y replaced by t2.

    y is a RegularAntichain; its acceptor runs alongside t1's machine and
    control transfers to t2 the moment an accepting state is entered.
    """
    if not y.is_antichain():
        raise AntichainViolation(f"{y.name} accepts comparable nodes")
    alphabet = _merge_alphabets(t1.alphabet, t2.alphabet)

    def succ(s, d):
        tag = s[0]
        if tag == "in":
            return ("in", t2.next[(s[1], d)])
        if tag == "out":
            return ("out", t1.next[(s[1], d)])
        m, a = s[1], s[2]
        a2 = y.delta.get((a, d))
        if a2 is None:
            return ("out", t1.next[(m, d)])
        if a2 in y.accepting:
            return ("in", t2.init)
        return ("prod", t1.next[(m, d)], a2)

    def out(s):
        return t2.out[s[1]] if s[0] == "in" else t1.out[s[1]]

    if y.init in y.accepting:
        init = ("in", t2.init)
    else:
        init = ("prod", t1.init, y.init)
    return build_tree(init, succ, out, alphabet, f"{t1.name}[{t2.name}/{y.name}]")


def make_node(a, t1, t2):
    """The tree with root label a, left subtree t1 and right subtree t2."""
    alphabet = _merge_alphabets(t1.alphabet, t2.alphabet)
    if a not in alphabet:
        raise AlphabetMismatch(f"root label {a!r} not in the common alphabet")

    def succ(s, d):
        if s == "root":
            return (1, t1.init) if d == "l" else (2, t2.init)
        side, m = s
        t = t1 if side == 1 else t2
        return (side, t.next[(m, d)])

    def out(s):
        if s == "root":
            return a
        side, m = s
        return (t1 if side == 1 else t2).out[m]

    return build_tree("root", succ, out, alphabet, f"({a} {t1.name} {t2.name})")


def relabel(f, t):
    """Apply a Moore relabelling f to t.

    The new label of v is read from f's output after f has consumed the
    labels on the path from the root down to and including v.
    """
    if not set(t.alphabet) <= set(f.inputs):
        raise AlphabetMismatch(
            f"machine reads {f.inputs}, tree is over {t.alphabet}")

    def succ(s, d):
        fs, m = s
        m2 = t.next[(m, d)]
        return (f.delta[(fs, t.out[m2])], m2)

    init = (f.delta[(f.init, t.out[t.init])], t.init)
    return build_tree(init, succ, lambda s: f.out[s[0]], f.outputs,
                      f"{f.name}^({t.name})")


def tree_equal(t1, t2):
    """Do two machines denote the same tree?  Product reachability check."""
    def succ(p):
        a, b = p
        return ((t1.next[(a, "l")], t2.next[(b, "l")]),
                (t1.next[(a, "r")], t2.next[(b, "r")]))

    return all(t1.out[a] == t2.out[b]
               for a, b in bfs([(t1.init, t2.init)], succ))


def unfold(t, depth):
    """Finite table of labels of all nodes up to the given depth.

    Used by tests as an implementation-independent oracle for the tree
    operations.
    """
    table = {}
    frontier = [("", t.init)]
    for _ in range(depth + 1):
        nxt = []
        for v, s in frontier:
            table[v] = t.out[s]
            nxt.extend((v + d, t.next[(s, d)]) for d in DIRS)
        frontier = nxt
    return table


def _merge_alphabets(a1, a2):
    merged = list(a1)
    merged.extend(s for s in a2 if s not in merged)
    return tuple(merged)


# --------------------------------------------------------------------------
# Regular antichains of nodes

@dataclass
class RegularAntichain:
    """A regular set of pairwise incomparable nodes.

    Presented as a partial DFA over directions; missing edges reject all
    extensions.  The antichain property is checked, not assumed.
    """

    name: str
    states: tuple
    init: object
    delta: dict          # (state, dir) -> state, partial
    accepting: frozenset

    def accepts(self, v):
        check_path(v)
        s = self.init
        for d in v:
            s = self.delta.get((s, d))
            if s is None:
                return False
        return s in self.accepting

    def _succ(self, s):
        return [t for t in (self.delta.get((s, d)) for d in DIRS)
                if t is not None]

    def _trimmed(self):
        # states both reachable from init and co-reachable to an accept state
        reach = set(bfs([self.init], self._succ))
        pred = {}
        for (s, _), t in self.delta.items():
            if s in reach:
                pred.setdefault(t, []).append(s)
        return set(bfs([a for a in self.accepting if a in reach],
                       lambda t: pred.get(t, ())))

    def is_antichain(self):
        """True iff no accepted node is a proper prefix of another."""
        live = self._trimmed()

        def succ(s):
            return [t for t in self._succ(s) if t in live]

        # a nonempty path from an accepting state back to an accepting one?
        return not any(s in self.accepting
                       for a in self.accepting if a in live
                       for s in bfs(succ(a), succ))

    def check(self):
        if self.init not in self.states:
            raise UnknownState(f"initial state {self.init} undeclared")
        for (s, d), t in self.delta.items():
            if s not in self.states or t not in self.states:
                raise UnknownState(f"edge {s} -{d}-> {t} dangling")
        if not self.accepting <= set(self.states):
            raise UnknownState("accepting set mentions undeclared states")
        if not self.is_antichain():
            raise AntichainViolation(f"{self.name} accepts comparable nodes")
        return self


def singleton_antichain(v, name=None):
    """The antichain {v}."""
    check_path(v)
    states = tuple(range(len(v) + 1))
    delta = {(i, d): i + 1 for i, d in enumerate(v)}
    return RegularAntichain(name or (v or "eps"), states, 0, delta,
                            frozenset({len(v)}))


def lstar_r_antichain(name="l*r"):
    """The antichain l^*r: the right child of every node on the left spine."""
    delta = {(0, "l"): 0, (0, "r"): 1}
    return RegularAntichain(name, (0, 1), 0, delta, frozenset({1}))


# --------------------------------------------------------------------------
# General Moore machines (relabellings)

@dataclass
class MooreMachine:
    """Deterministic Moore machine from words over inputs to outputs."""

    name: str
    inputs: tuple
    outputs: tuple
    states: tuple
    init: object
    delta: dict   # (state, input) -> state, total
    out: dict     # state -> output

    def check(self):
        for s in self.states:
            for a in self.inputs:
                if (s, a) not in self.delta:
                    raise UnknownState(f"state {s} missing input {a!r}")
        return self


def last_letter_machine(alphabet, name="last"):
    """Moore machine whose output after a nonempty word is its last letter."""
    alphabet = tuple(alphabet)
    states = ("e",) + alphabet
    delta = {(s, a): a for s in states for a in alphabet}
    out = {s: (s if s != "e" else alphabet[0]) for s in states}
    return MooreMachine(name, alphabet, alphabet, states, "e", delta, out)


def constant_machine(alphabet, symbol, name=None):
    """Moore machine outputting the same symbol after every word."""
    alphabet = tuple(alphabet)
    delta = {("s", a): "s" for a in alphabet}
    return MooreMachine(name or f"const-{symbol}", alphabet, (symbol,),
                        ("s",), "s", delta, {"s": symbol})
