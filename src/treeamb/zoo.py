"""Stock automata: the specimens the ambiguity machinery is exercised on.

Everything here is a plain constructor; the interesting structure lives in
the transition tables.  Components embedded into larger automata get their
states wrapped in a tag ("c", "a1", "nb", ...) by automata._tagged, so
that state sets stay disjoint without renaming gymnastics.
"""

from dataclasses import dataclass

from .automata import (FiniteTreeAutomaton, ParityTreeAutomaton, _tagged,
                       det_pta_for_tree, fta_is_unambiguous, union)
from .errors import AlphabetMismatch, AmbiguousRepresentation
from .trees import (_merge_alphabets, build_tree, constant_tree, graft_node,
                    make_node)


def forbid_letter(letter, alphabet, name=None):
    """Deterministic single-state automaton for trees avoiding a letter."""
    alphabet = tuple(alphabet)
    if letter not in alphabet:
        raise AlphabetMismatch(f"{letter!r} not in {alphabet}")
    q = "ok"
    delta = frozenset((q, a, q, q) for a in alphabet if a != letter)
    return ParityTreeAutomaton(name or f"not-{letter}", alphabet,
                               frozenset([q]), frozenset([q]), delta,
                               {q: 0}).check()


def zoo_neg_union(k):
    """Union of the k "letter a_i never occurs" automata over {c, a1..ak}.

    Each summand is deterministic, so on a tree avoiding all k letters the
    union has exactly k accepting runs; this is the k-th rung of the
    bounded-ambiguity ladder.
    """
    if not 1 <= k <= 4:
        raise ValueError(f"k={k} out of the supported range 1..4")
    alphabet = ("c",) + tuple(f"a{i}" for i in range(1, k + 1))
    parts = [forbid_letter(f"a{i}", alphabet) for i in range(1, k + 1)]
    out = parts[0]
    for p in parts[1:]:
        out = union(out, p)
    return out


def zoo_exists_a1():
    """Trees containing at least one a1, by guessing a path to the first one.

    The searching state has odd color, so a run is accepting only if every
    guessed path actually reaches an a1; at that node the search must stop.
    """
    s, d = "seek", "done"
    alphabet = ("c", "a1")
    delta = frozenset([
        (s, "c", s, d), (s, "c", d, s),
        (s, "a1", d, d),
        (d, "c", d, d), (d, "a1", d, d),
    ])
    return ParityTreeAutomaton("exists-a1", alphabet,
                               frozenset([s, d]), frozenset([s]), delta,
                               {s: 1, d: 0}).check()


def zoo_complement_singleton(t):
    """Automaton for "this tree is not t": guess a node labeled differently.

    The seek component runs t's machine alongside, passing the obligation to
    exactly one child while labels agree and exiting to the accept-everything
    state exactly at a disagreement.  Seek states are odd, so a run that
    never finds a difference is rejected; accepting runs correspond
    one-to-one to the minimal difference nodes.
    """
    delta = set()
    for p in t.states:
        pl, pr = t.next[(p, "l")], t.next[(p, "r")]
        for a in t.alphabet:
            delta.add((("done", p), a, ("done", pl), ("done", pr)))
            if a == t.out[p]:
                delta.add((("seek", p), a, ("seek", pl), ("done", pr)))
                delta.add((("seek", p), a, ("done", pl), ("seek", pr)))
            else:
                delta.add((("seek", p), a, ("done", pl), ("done", pr)))
    states = frozenset((tag, p) for tag in ("seek", "done") for p in t.states)
    color = {(tag, p): (1 if tag == "seek" else 0)
             for tag, p in states}
    return ParityTreeAutomaton(f"co[{t.name}]", tuple(t.alphabet), states,
                               frozenset([("seek", t.init)]),
                               frozenset(delta), color).check()


LFA_ALPHABET = ("c", "a1", "a2")


def zoo_lfa():
    """The finitely-but-unboundedly ambiguous automaton.

    A left-spine component reads c, dispatching each right subtree into a
    singleton checker for t_c, except for one guessed position whose right
    subtree goes to the two-ambiguous no-a1-or-no-a2 union, after which the
    spine must terminate in an a1-cone.  On the m-th tree of the family the
    guess has m positions and the union contributes a factor of two.
    """
    tc = constant_tree("c", LFA_ALPHABET)
    ta1 = constant_tree("a1", LFA_ALPHABET)
    comp = {"c": det_pta_for_tree(tc), "a1": det_pta_for_tree(ta1),
            "nb": zoo_neg_union(2)}
    states, color, delta = _tagged(comp)
    states.update(("q1", "q2"))
    color.update(q1=1, q2=1)
    delta.update(("q1", "c", "q1", ("c", p)) for p in comp["c"].initials)
    delta.update(("q1", "c", "q2", ("nb", p)) for p in comp["nb"].initials)
    delta.update(("q2", "c", "q2", ("c", p)) for p in comp["c"].initials)
    delta.update(("q2", "a1", ("a1", p), ("a1", p)) for p in comp["a1"].initials)
    return ParityTreeAutomaton("lfa", LFA_ALPHABET, frozenset(states),
                               frozenset(["q1"]), frozenset(delta),
                               color).check()


def lfa_witness_tree(m, k=0, tprime=None):
    """The tree with tprime hung at l^k r, an a1-cone at l^m, and c elsewhere.

    These are the member trees of the unbounded family: position k carries
    the subtree for the two-ambiguous slot and the spine ends after m steps.
    """
    if not 0 <= k < m:
        raise ValueError(f"need 0 <= k < m, got k={k}, m={m}")
    tc = constant_tree("c", LFA_ALPHABET)
    ta1 = constant_tree("a1", LFA_ALPHABET)
    out = graft_node(tc, tprime if tprime is not None else tc, "l" * k + "r")
    return graft_node(out, ta1, "l" * m)


def zoo_frak_scheme(a0, anb):
    """Left-spine scheme: every l^i r subtree is in L(a0) or L(anb), with
    infinitely many of the latter.

    The spine guesses, per position, a dispatch target and a flag: "hit"
    (color 2) may only dispatch to anb, "low" (color 1) may dispatch to
    either.  A spine run is accepting iff it flags "hit" infinitely often,
    which forces infinitely many anb dispatches.  Allowing an anb dispatch
    to be flagged "low" does not change the language: given any accepting
    flagging, taking I := all anb-dispatched positions (a superset of the
    hits, hence infinite) shows the tree is in the scheme language, and
    conversely any witnessing infinite I can be flagged verbatim.
    """
    if tuple(a0.alphabet) != tuple(anb.alphabet):
        raise AlphabetMismatch(
            f"scheme parts read {a0.alphabet} vs {anb.alphabet}")
    if "c" not in a0.alphabet:
        raise AlphabetMismatch("the scheme spine needs the letter c")
    states, color, delta = _tagged({"a0": a0, "anb": anb})
    states.update(("hit", "low"))
    color.update(hit=2, low=1)
    for z in ("hit", "low"):
        delta.update((z, "c", "hit", ("anb", p)) for p in anb.initials)
        delta.update((z, "c", "low", ("anb", p)) for p in anb.initials)
        delta.update((z, "c", "low", ("a0", p)) for p in a0.initials)
    return ParityTreeAutomaton(f"frak[{a0.name},{anb.name}]",
                               tuple(a0.alphabet), frozenset(states),
                               frozenset(["low"]), frozenset(delta),
                               color).check()


def zoo_no_max():
    """Characteristic trees over {0,1} whose 1-set has no maximal element.

    Every 1 launches an obligation thread hunting for a 1 strictly below,
    routed down a guessed path; the hit state may only sit at 1-nodes and
    relaunches there.  A branch is rejected exactly when it follows a hunt
    forever: the obligation-free state is even (color 2, not 0) so that a
    branch which keeps leaving threads before their hits still sees even
    colors infinitely often — with an odd idle state the segments of
    dodged hunts would wrongly dominate.
    """
    idle, hunt, hit = "idle", "hunt", "hit"
    routed = [(hunt, idle), (idle, hunt), (hit, idle), (idle, hit)]
    delta = {(idle, "0", idle, idle)}
    for q in (idle, hit):
        delta.update((q, "1", a, b) for a, b in routed)
    delta.update((hunt, "0", a, b) for a, b in routed)
    return ParityTreeAutomaton("no-max", ("0", "1"),
                               frozenset([idle, hunt, hit]),
                               frozenset([idle]), frozenset(delta),
                               {idle: 2, hunt: 1, hit: 2}).check()


def zoo_perf():
    """Characteristic trees over {0,1} whose 1-set is perfect.

    Each 1 must have two incomparable 1-descendants: a carried obligation
    descends to the branching point, splits into two find-a-1 threads, and
    each find lands on a hit state that may only sit at 1-nodes, where it
    relaunches.  As in zoo_no_max the obligation-free state is even so
    that only branches stuck inside a carry or find thread forever are
    rejected; carries may cross 1-nodes because the pair they eventually
    produce sits below those nodes as well.
    """
    idle, carry, find, hit = "idle", "carry", "find", "hit"
    split_now = [(a, b) for a in (find, hit) for b in (find, hit)]
    launch = split_now + [(carry, idle), (idle, carry)]
    delta = {(idle, "0", idle, idle)}
    for q in (idle, hit):
        delta.update((q, "1", a, b) for a, b in launch)
    for x in ("0", "1"):
        delta.update((carry, x, a, b) for a, b in launch)
    delta.update((find, "0", a, b)
                 for a, b in ((find, idle), (idle, find),
                              (hit, idle), (idle, hit)))
    states = frozenset([idle, carry, find, hit])
    color = {idle: 2, carry: 1, find: 1, hit: 2}
    return ParityTreeAutomaton("perfect", ("0", "1"), states,
                               frozenset([idle]), frozenset(delta),
                               color).check()


def zoo_x_subset_ydown():
    """Pairs of node sets (X, Y) where every X node has a Y node at or below.

    Labels are two-character strings "xy".  Each X node without y starts a
    find-Y obligation carried down one path; the obligation dissolves at
    any node with y = 1.  A branch stuck carrying forever is odd and
    rejected; the obligation-free state is even (see zoo_no_max) so that
    branches repeatedly dodging finds stay accepting.
    """
    idle, find = "idle", "find"
    delta = set()
    for x in ("0", "1"):
        sym_y0, sym_y1 = x + "0", x + "1"
        delta.add((idle, sym_y1, idle, idle))
        delta.add((find, sym_y1, idle, idle))
        if x == "0":
            delta.add((idle, sym_y0, idle, idle))
        else:
            delta.update((idle, sym_y0, a, b)
                         for a, b in ((find, idle), (idle, find)))
        delta.update((find, sym_y0, a, b)
                     for a, b in ((find, idle), (idle, find)))
    return ParityTreeAutomaton("x-subset-ydown", ("00", "01", "10", "11"),
                               frozenset([idle, find]), frozenset([idle]),
                               frozenset(delta), {idle: 2, find: 1}).check()


def zoo_free2():
    """Two interchangeable all-accepting states on the constant-c tree;
    every {q1,q2}-labeling of every node is an accepting run."""
    states = frozenset(["q1", "q2"])
    delta = frozenset((q, "c", ql, qr)
                      for q in states for ql in states for qr in states)
    return ParityTreeAutomaton("free2", ("c",), states, states, delta,
                               {"q1": 0, "q2": 0}).check()


# --------------------------------------------------------------------------
# Countable languages presented by substitution, and their unambiguous PTA

@dataclass
class NiwinskiRepresentation:
    """A countable language as M[t_1/x_1, ...]: a finite-tree automaton for
    the shape language M plus one regular tree per leaf variable."""

    name: str
    fta: FiniteTreeAutomaton
    subs: dict           # leaf symbol -> RegularTree


def rep_alphabet(rep):
    sigma = tuple(rep.fta.alphabet2)
    for x in rep.fta.alphabet0:
        sigma = _merge_alphabets(sigma, rep.subs[x].alphabet)
    return sigma


def substitute(rep, tau):
    """The infinite tree obtained from a finite tree by substituting every
    leaf variable; tau uses the nested-tuple finite tree encoding."""
    sigma = rep_alphabet(rep)

    def go(tau):
        if isinstance(tau, tuple) and len(tau) == 3:
            sym, left, right = tau
            return make_node(sym, go(left), go(right))
        t = rep.subs[tau]
        return build_tree(t.init, lambda s, d: t.next[(s, d)],
                          lambda s: t.out[s], sigma, name=t.name)

    return go(tau)


def niwinski_unambiguous(rep):
    """An unambiguous automaton for the substituted language.

    The shape automaton runs top-down over inner nodes with odd color (so
    it cannot run forever), and wherever it would read a leaf variable the
    run instead enters the deterministic automaton of the substituted
    tree.  Unique shape decomposition plus determinism of the substituted
    components leaves at most one accepting run per tree.
    """
    if not fta_is_unambiguous(rep.fta):
        raise AmbiguousRepresentation(f"{rep.name}: shape automaton is ambiguous")
    missing = [x for x in rep.fta.alphabet0 if x not in rep.subs]
    if missing:
        raise AlphabetMismatch(f"{rep.name}: no tree bound for {missing}")
    sigma = rep_alphabet(rep)
    dets = {x: det_pta_for_tree(rep.subs[x], alphabet=sigma)
            for x in rep.fta.alphabet0}
    init_of = {x: (x, next(iter(dets[x].initials)))
               for x in rep.fta.alphabet0}
    leaves = {}
    for q, x in rep.fta.delta0:
        leaves.setdefault(q, []).append(x)
    states, color, delta = _tagged(dets)
    for q, a, q1, q2 in rep.fta.delta2:
        states.update([("B", q), ("B", q1), ("B", q2)])
        delta.add((("B", q), a, ("B", q1), ("B", q2)))
        for x in leaves.get(q1, ()):
            delta.add((("B", q), a, init_of[x], ("B", q2)))
            for y in leaves.get(q2, ()):
                delta.add((("B", q), a, init_of[x], init_of[y]))
        for y in leaves.get(q2, ()):
            delta.add((("B", q), a, ("B", q1), init_of[y]))
    states.update(("B", q) for q in rep.fta.states)
    color.update({("B", q): 1 for q in rep.fta.states})
    initials = {("B", q) for q in rep.fta.initials}
    for q in rep.fta.initials:
        initials.update(init_of[x] for x in leaves.get(q, ()))
    return ParityTreeAutomaton(f"unamb[{rep.name}]", sigma, frozenset(states),
                               frozenset(initials), frozenset(delta),
                               color).check()


def niwinski_rep_single():
    """The one-leaf shape {x1} substituted with the constant-c tree."""
    fta = FiniteTreeAutomaton("just-x1", ("x1",), ("c",),
                              frozenset(["s1"]), frozenset(["s1"]),
                              frozenset([("s1", "x1")]), frozenset()).check()
    return NiwinskiRepresentation(
        "single", fta, {"x1": constant_tree("c", ("c",))})


def niwinski_rep_leaf_or_node():
    """Shapes {x1, c(x1, x1)} over the constant-a1 tree: two-tree language."""
    fta = FiniteTreeAutomaton(
        "leaf-or-node", ("x1",), ("c",),
        frozenset(["leaf", "root"]), frozenset(["leaf", "root"]),
        frozenset([("leaf", "x1")]),
        frozenset([("root", "c", "leaf", "leaf")])).check()
    return NiwinskiRepresentation(
        "leaf-or-node", fta, {"x1": constant_tree("a1", ("a1",))})


def niwinski_rep_combs():
    """Left combs c(...c(x1, x2)..., x2): an infinite countable family.

    Substituting x1 by the a1 tree and x2 by the c tree puts the single
    a1-cone at depth k of the left spine for the k-comb; all substitution
    results are pairwise distinct.
    """
    fta = FiniteTreeAutomaton(
        "left-combs", ("x1", "x2"), ("c",),
        frozenset(["s1", "s2", "comb"]), frozenset(["s1", "comb"]),
        frozenset([("s1", "x1"), ("s2", "x2")]),
        frozenset([("comb", "c", "s1", "s2"),
                   ("comb", "c", "comb", "s2")])).check()
    return NiwinskiRepresentation(
        "left-combs", fta, {"x1": constant_tree("a1", ("a1",)),
                            "x2": constant_tree("c", ("c",))})
