"""Tree machine operations, checked against depth-bounded unfolding."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from test_membership import random_tree
from treeamb.errors import AlphabetMismatch, AntichainViolation
from treeamb.formats import serialize_mtree
from treeamb.games import bfs
from treeamb.trees import (
    MooreMachine, RegularAntichain, RegularTree, build_tree, constant_machine,
    constant_tree, graft_antichain, graft_node, last_letter_machine,
    lstar_r_antichain, make_node, relabel, singleton_antichain, subtree_at,
    tree_equal, unfold,
)

AB = ("a", "b")


def t_alt():
    # depth parity tree: a at even depths, b at odd depths
    nxt = {(0, "l"): 1, (0, "r"): 1, (1, "l"): 0, (1, "r"): 0}
    return RegularTree("t-alt", AB, 0, nxt, {0: "a", 1: "b"})


def t_c():
    return constant_tree("c", ("c", "a1"))


def t_a1():
    return constant_tree("a1", ("c", "a1"))


def expected_labels(fn, depth):
    """Label table computed from a plain function on paths: the oracle."""
    table = {}
    frontier = [""]
    for _ in range(depth + 1):
        nxt = []
        for v in frontier:
            table[v] = fn(v)
            nxt.extend([v + "l", v + "r"])
        frontier = nxt
    return table


def alt_label(v):
    return "a" if len(v) % 2 == 0 else "b"


def test_label_walk():
    t = t_alt()
    assert t.label("") == "a"
    assert t.label("lrl") == "b"
    assert t.label("rr") == "a"


def test_subtree_swaps_phase():
    t = t_alt()
    s = subtree_at(t, "l")
    assert unfold(s, 4) == expected_labels(lambda v: alt_label("l" + v), 4)
    assert tree_equal(subtree_at(t, "lr"), t)
    assert not tree_equal(s, t)


def test_subtree_of_constant():
    assert tree_equal(subtree_at(t_c(), "rllr"), t_c())


def test_graft_node_against_oracle():
    t1, t2 = t_alt(), constant_tree("b", AB)
    v = "lr"
    g = graft_node(t1, t2, v)

    def fn(u):
        if u.startswith(v):
            return "b"
        return alt_label(u)

    assert unfold(g, 5) == expected_labels(fn, 5)


def test_graft_node_at_root():
    g = graft_node(t_alt(), t_c(), "")
    assert tree_equal(g, t_c())


def test_graft_subtree_roundtrip():
    t = t_alt()
    for v in ("", "l", "rl", "llr"):
        assert tree_equal(graft_node(t, subtree_at(t, v), v), t)


def test_make_node():
    t = make_node("c", t_c(), t_c())
    assert tree_equal(t, t_c())
    u = make_node("c", t_a1(), t_c())
    assert u.label("") == "c"
    assert u.label("lrr") == "a1"
    assert u.label("rll") == "c"


def test_make_node_alphabet_check():
    with pytest.raises(AlphabetMismatch):
        make_node("z", t_c(), t_c())


def test_graft_antichain_lstar_r():
    y = lstar_r_antichain()
    g = graft_antichain(t_c(), t_a1(), y)

    def fn(v):
        # a1 exactly on and below some l^k r
        stripped = v.lstrip("l")
        return "a1" if stripped.startswith("r") else "c"

    assert unfold(g, 6) == expected_labels(fn, 6)


def test_graft_antichain_singleton_matches_graft_node():
    t1, t2, v = t_alt(), constant_tree("b", AB), "rlr"
    a = graft_antichain(t1, t2, singleton_antichain(v))
    b = graft_node(t1, t2, v)
    assert tree_equal(a, b)


def test_graft_node_bytes_are_pinned():
    # sha256 of serialize_mtree over 300 seeded node grafts, at the root
    # and at paths of depth up to 6; tree_equal cannot see how the states
    # are numbered, these bytes can
    rng = random.Random(20261019)
    digest = hashlib.sha256()
    for i in range(300):
        t1 = random_tree(rng, AB, rng.randint(1, 12))
        t2 = random_tree(rng, ("b", "c"), rng.randint(1, 12))
        v = "".join(rng.choice("lr") for _ in range(i % 7))
        digest.update(serialize_mtree(graft_node(t1, t2, v)).encode())
    assert digest.hexdigest() == (
        "64018bba4f14e28899d7c09e5941389fbbc93823bee11cfe860483110f531cf8")


def test_graft_antichain_epsilon():
    g = graft_antichain(t_c(), t_a1(), singleton_antichain(""))
    assert tree_equal(g, t_a1())


def test_antichain_violation_detected():
    # accepts both epsilon and l: comparable
    bad = RegularAntichain("bad", (0, 1), 0, {(0, "l"): 1}, frozenset({0, 1}))
    assert not bad.is_antichain()
    with pytest.raises(AntichainViolation):
        graft_antichain(t_c(), t_a1(), bad)


def test_antichain_unreachable_accept_ok():
    # second accepting state is unreachable, so no violation in the trim
    a = RegularAntichain("ok", (0, 1, 2), 0, {(0, "l"): 1}, frozenset({1, 2}))
    assert a.is_antichain()


def test_lstar_r_accepts():
    y = lstar_r_antichain()
    assert y.accepts("r") and y.accepts("llr")
    assert not y.accepts("") and not y.accepts("rl")


def test_relabel_last_letter_is_identity():
    f = last_letter_machine(AB)
    t = t_alt()
    assert tree_equal(relabel(f, t), t)


def test_relabel_constant():
    f = constant_machine(AB, "b")
    assert unfold(relabel(f, t_alt()), 3) == expected_labels(lambda v: "b", 3)


def test_relabel_cone_marker():
    # outputs 1 once a 1 has been consumed: marks the upward closure
    delta = {("n", "0"): "n", ("n", "1"): "y", ("y", "0"): "y", ("y", "1"): "y"}
    f = MooreMachine("cone", ("0", "1"), ("0", "1"), ("n", "y"), "n",
                     delta, {"n": "0", "y": "1"})
    zero = constant_tree("0", ("0", "1"))
    one = constant_tree("1", ("0", "1"))
    t = graft_node(zero, one, "rl")  # single 1-cone at rl
    r = relabel(f, t)

    def fn(v):
        return "1" if v.startswith("rl") else "0"

    assert unfold(r, 4) == expected_labels(fn, 4)


def test_relabel_alphabet_check():
    f = last_letter_machine(("x", "y"))
    with pytest.raises(AlphabetMismatch):
        relabel(f, t_alt())


machines = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, n - 1), min_size=2 * n, max_size=2 * n),
    st.lists(st.sampled_from(AB), min_size=n, max_size=n),
))


def mk(spec):
    n, edges, outs = spec
    nxt = {}
    for i in range(n):
        nxt[(i, "l")] = edges[2 * i]
        nxt[(i, "r")] = edges[2 * i + 1]
    return RegularTree("rand", AB, 0, nxt, dict(enumerate(outs)))


@settings(max_examples=60, deadline=None)
@given(machines, machines, machines)
def test_tree_equal_is_an_equivalence(s1, s2, s3):
    t1, t2, t3 = mk(s1), mk(s2), mk(s3)
    assert tree_equal(t1, t1)
    assert tree_equal(t1, t2) == tree_equal(t2, t1)
    if tree_equal(t1, t2) and tree_equal(t2, t3):
        assert tree_equal(t1, t3)


@settings(max_examples=40, deadline=None)
@given(machines, machines)
def test_tree_equal_agrees_with_unfolding(s1, s2):
    t1, t2 = mk(s1), mk(s2)
    # 16 states in the product is a safe distinguishing depth
    assert tree_equal(t1, t2) == (unfold(t1, 16) == unfold(t2, 16))


def reference_build_tree(init, succ, out, alphabet, name="tree"):
    """build_tree as it was before it numbered states during its walk: a
    bfs pass that numbers the states and records their children, then a
    pass that writes next."""
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


def random_machine(rng, n):
    """A machine given by functions on n states drawn from ints, strs and
    tuples, some of them printing alike (1 and "1", (1, "x") and
    "(1, 'x')"), with self-loops and states that init does not reach."""
    pool = [f(k) for k in range(n) for f in (
        int, str, lambda k: (k, "x"), lambda k: str((k, "x")))]
    states = rng.sample(pool, n)
    # a third of the time the upper half is reachable only from itself
    cut = max(1, n // 2) if rng.random() < 1 / 3 else n
    table = {}
    for i, s in enumerate(states):
        for d in "lr":
            if rng.random() < 0.15:
                table[(s, d)] = s
            else:
                table[(s, d)] = states[rng.randrange(cut if i < cut else n)]
    label = {s: rng.choice(AB) for s in states}
    init = states[rng.randrange(cut)]
    return init, table, label


def test_build_tree_matches_the_two_pass_reference():
    """Same numbering, and the same contents and insertion order of next
    and out, on 1,200 seeded machines; each state id is one int object
    across the keys and values of next and the keys of out."""
    rng = random.Random(20261021)
    seen = {"self-loop": 0, "unreachable": 0, "alike": 0, "shared ints": 0}
    for i in range(1200):
        # every 40th machine has enough states that ids above 256, which
        # CPython does not share, occur
        n = rng.randint(300, 500) if i % 40 == 0 else rng.randint(1, 12)
        init, table, label = random_machine(rng, n)
        args = (init, lambda s, d: table[(s, d)], label.__getitem__,
                list(AB), f"m{i}")
        got, want = build_tree(*args), reference_build_tree(*args)
        assert (got.init, got.name, got.alphabet) == (
            want.init, want.name, want.alphabet)
        assert list(got.next.items()) == list(want.next.items())
        assert list(got.out.items()) == list(want.out.items())
        objs = {}
        for (j, _), k in got.next.items():
            objs.setdefault(j, set()).add(id(j))
            objs.setdefault(k, set()).add(id(k))
        for j in got.out:
            objs.setdefault(j, set()).add(id(j))
        assert all(len(ids) == 1 for ids in objs.values())
        seen["shared ints"] += any(j > 256 for j in objs)
        seen["self-loop"] += any(table[(s, d)] == s
                                 for s in label for d in "lr")
        seen["unreachable"] += len(got.out) < n
        seen["alike"] += len(set(map(str, label))) < n
    shared = seen.pop("shared ints")
    assert shared >= 10 and min(seen.values()) > 200, (shared, seen)


def test_build_tree_trims():
    # junk states not reachable from init disappear
    t = build_tree(5, lambda s, d: 5, lambda s: "a", AB, "x")
    assert t.states == (0,)
    assert t.init == 0


def test_all_constructors_produce_checked_machines():
    for t in (t_alt(), t_c(), subtree_at(t_alt(), "lr"),
              graft_node(t_c(), t_a1(), "rl"),
              graft_antichain(t_c(), t_a1(), lstar_r_antichain()),
              make_node("c", t_c(), t_a1()),
              relabel(last_letter_machine(AB), t_alt())):
        t.check()
