"""Stock automata: structure and membership samples."""

import hashlib

import pytest

from treeamb.automata import det_pta_for_tree, fta_is_unambiguous
from treeamb.errors import AlphabetMismatch, AmbiguousRepresentation
from treeamb.formats import serialize_pta
from treeamb.membership import member
from treeamb.trees import (build_tree, constant_tree, graft_antichain,
                           graft_node, lstar_r_antichain, make_node,
                           tree_equal)
from treeamb import zoo

ALPHA2 = ("c", "a1")
ALPHA3 = ("c", "a1", "a2")
T_C2 = constant_tree("c", ALPHA2)
T_A1_2 = constant_tree("a1", ALPHA2)


# ----------------------------------------------------------- neg_union

def test_neg_union_shape_and_bounds():
    for k in (1, 2, 3, 4):
        a = zoo.zoo_neg_union(k)
        assert len(a.states) == k
        assert len(a.initials) == k
        assert a.max_color() == 0
        assert a.alphabet == ("c",) + tuple(f"a{i}" for i in range(1, k + 1))
    with pytest.raises(ValueError):
        zoo.zoo_neg_union(0)
    with pytest.raises(ValueError):
        zoo.zoo_neg_union(5)


def test_neg_union_membership():
    nb = zoo.zoo_neg_union(2)
    t_a1 = constant_tree("a1", ALPHA3)
    t_a2 = constant_tree("a2", ALPHA3)
    assert not member(nb, make_node("c", t_a1, t_a2))
    assert member(nb, t_a1)
    assert member(nb, constant_tree("c", ALPHA3))
    assert not member(zoo.zoo_neg_union(1), constant_tree("a1", ("c", "a1")))


# ----------------------------------------------------------- exists_a1

def test_exists_a1_membership():
    ea = zoo.zoo_exists_a1()
    assert not member(ea, T_C2)
    assert member(ea, graft_node(T_C2, T_A1_2, "rl"))
    assert member(ea, T_A1_2)


# ------------------------------------------------- complement_singleton

def test_complement_singleton_rejects_only_its_tree():
    co = zoo.zoo_complement_singleton(T_C2)
    assert not member(co, T_C2)
    for sample in (T_A1_2,
                   graft_node(T_C2, T_A1_2, "l"),
                   make_node("a1", T_C2, T_C2)):
        assert member(co, sample)


def test_complement_singleton_of_structured_tree():
    t = graft_node(T_C2, T_A1_2, "lr")
    co = zoo.zoo_complement_singleton(t)
    assert not member(co, t)
    assert member(co, T_C2)
    assert member(co, graft_node(T_C2, T_A1_2, "rl"))


# ----------------------------------------------------------------- lfa

def test_lfa_membership():
    lfa = zoo.zoo_lfa()
    assert member(lfa, zoo.lfa_witness_tree(2, k=1))
    assert member(lfa, zoo.lfa_witness_tree(3, k=0))
    assert not member(lfa, constant_tree("c", ALPHA3))


def test_lfa_witness_tree_layout():
    t = zoo.lfa_witness_tree(2, k=1)
    assert t.label("lr") == "c"
    assert t.label("ll") == "a1"
    assert t.label("lll") == "a1"
    assert t.label("r") == "c"
    with pytest.raises(ValueError):
        zoo.lfa_witness_tree(2, k=2)
    with pytest.raises(ValueError):
        zoo.lfa_witness_tree(0)


def test_lfa_rejects_tree_with_both_letters_in_slot():
    # the dispatched subtree must avoid a1 or avoid a2
    slot = make_node("c", constant_tree("a1", ALPHA3), constant_tree("a2", ALPHA3))
    t = zoo.lfa_witness_tree(2, k=1, tprime=slot)
    assert not member(zoo.zoo_lfa(), t)


# ---------------------------------------------------------------- frak

def frak_instance():
    a0 = det_pta_for_tree(T_C2)
    return zoo.zoo_frak_scheme(a0, zoo.zoo_complement_singleton(T_C2))


def test_frak_membership():
    frak = frak_instance()
    t = graft_antichain(T_C2, T_A1_2, lstar_r_antichain())
    assert member(frak, t)
    assert not member(frak, T_C2)


def test_frak_rejects_finitely_many_differences():
    # only one l^i r subtree differs from t_c: the infinite obligation fails
    frak = frak_instance()
    assert not member(frak, graft_node(T_C2, T_A1_2, "r"))


def test_frak_alphabet_guards():
    a0 = det_pta_for_tree(T_C2)
    other = det_pta_for_tree(constant_tree("c", ALPHA3))
    with pytest.raises(AlphabetMismatch):
        zoo.zoo_frak_scheme(a0, other)
    nocs = det_pta_for_tree(constant_tree("0", ("0", "1")))
    with pytest.raises(AlphabetMismatch):
        zoo.zoo_frak_scheme(nocs, nocs)


# -------------------------------------------- no_max / perf / x_subset

def test_no_max_membership():
    nm = zoo.zoo_no_max()
    assert member(nm, constant_tree("0", ("0", "1")))
    assert member(nm, constant_tree("1", ("0", "1")))
    t0 = constant_tree("0", ("0", "1"))
    assert not member(nm, make_node("1", t0, t0))  # epsilon is maximal
    # 1s exactly on the left spine: no maximal element
    spine = build_tree(0, lambda s, d: 0 if (s, d) == (0, "l") else 1,
                       lambda s: "1" if s == 0 else "0", ("0", "1"))
    assert member(nm, spine)


def test_perf_membership():
    pf = zoo.zoo_perf()
    assert member(pf, constant_tree("1", ("0", "1")))
    assert member(pf, constant_tree("0", ("0", "1")))
    t0 = constant_tree("0", ("0", "1"))
    assert not member(pf, make_node("1", t0, t0))
    # a single infinite chain of 1s is closed but not perfect
    spine = build_tree(0, lambda s, d: 0 if (s, d) == (0, "l") else 1,
                       lambda s: "1" if s == 0 else "0", ("0", "1"))
    assert not member(pf, spine)


def test_x_subset_ydown_membership():
    xy = zoo.zoo_x_subset_ydown()
    alpha = ("00", "01", "10", "11")
    blank = constant_tree("00", alpha)
    # X={eps}, Y={r}
    t = make_node("10", blank, make_node("01", blank, blank))
    assert member(xy, t)
    # X={eps}, Y=empty
    assert not member(xy, make_node("10", blank, blank))
    assert member(xy, blank)
    assert member(xy, constant_tree("11", alpha))


# --------------------------------------------------------------- free2

def test_free2_membership():
    f2 = zoo.zoo_free2()
    assert member(f2, constant_tree("c", ("c",)))
    assert len(f2.states) == 2 and len(f2.delta) == 8
    assert f2.initials == f2.states


# ----------------------------------------------------- representations

def test_rep_single_language():
    rep = zoo.niwinski_rep_single()
    a = zoo.niwinski_unambiguous(rep)
    t_c = constant_tree("c", ("c",))
    assert member(a, t_c)
    assert tree_equal(zoo.substitute(rep, "x1"), t_c)


def test_rep_leaf_or_node_language():
    rep = zoo.niwinski_rep_leaf_or_node()
    a = zoo.niwinski_unambiguous(rep)
    t_a1 = zoo.substitute(rep, "x1")
    both = zoo.substitute(rep, ("c", "x1", "x1"))
    assert member(a, t_a1)
    assert member(a, both)
    # c(c(a1,a1), a1) is not a substitution of any accepted shape
    deeper = make_node("c", both, t_a1)
    assert not member(a, deeper)


def test_rep_combs_language():
    rep = zoo.niwinski_rep_combs()
    a = zoo.niwinski_unambiguous(rep)
    for tau in ("x1",
                ("c", "x1", "x2"),
                ("c", ("c", "x1", "x2"), "x2")):
        assert member(a, zoo.substitute(rep, tau))
    # the mirrored comb is not in the shape language
    assert not member(a, zoo.substitute(rep, ("c", "x2", "x1")))
    # distinct shapes substitute to distinct trees
    ts = [zoo.substitute(rep, tau) for tau in
          ("x1", ("c", "x1", "x2"), ("c", ("c", "x1", "x2"), "x2"))]
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            assert not tree_equal(ts[i], ts[j])


def test_rep_shapes_are_unambiguous():
    for repf in (zoo.niwinski_rep_single, zoo.niwinski_rep_leaf_or_node,
                 zoo.niwinski_rep_combs):
        assert fta_is_unambiguous(repf().fta)


def test_ambiguous_representation_rejected():
    from treeamb.automata import FiniteTreeAutomaton
    fta = FiniteTreeAutomaton(
        "twice", ("x1",), ("c",),
        frozenset(["s", "s2"]), frozenset(["s", "s2"]),
        frozenset([("s", "x1"), ("s2", "x1")]), frozenset()).check()
    rep = zoo.NiwinskiRepresentation(
        "bad", fta, {"x1": constant_tree("c", ("c",))})
    with pytest.raises(AmbiguousRepresentation):
        zoo.niwinski_unambiguous(rep)


def test_representation_missing_substitution():
    rep = zoo.niwinski_rep_single()
    rep = zoo.NiwinskiRepresentation(rep.name, rep.fta, {})
    with pytest.raises(AlphabetMismatch):
        zoo.niwinski_unambiguous(rep)


def test_forbid_letter_guard():
    with pytest.raises(AlphabetMismatch):
        zoo.forbid_letter("b", ("c", "a1"))


# ------------------------------------------------------- pinned bytes

def _tagged_zoo():
    """The zoo automata that embed tagged components, by name."""
    co = zoo.zoo_complement_singleton(T_C2)
    made = {f"neg-union-{k}": zoo.zoo_neg_union(k) for k in (2, 3, 4)}
    made["lfa"] = zoo.zoo_lfa()
    made["frak"] = zoo.zoo_frak_scheme(det_pta_for_tree(T_C2), co)
    made["frak-co-co"] = zoo.zoo_frak_scheme(co, co)
    for rep in (zoo.niwinski_rep_single(), zoo.niwinski_rep_leaf_or_node(),
                zoo.niwinski_rep_combs()):
        made[f"unamb-{rep.name}"] = zoo.niwinski_unambiguous(rep)
    return made


# sha256 of serialize_pta of each automaton of _tagged_zoo()
TAGGED_ZOO_SHA256 = {
    "frak":
        "6d0327f5d5a15d0f65524b023d46b996161463d4ee180dd459dd400829fd41c0",
    "frak-co-co":
        "500bbb6116bc03a32bd1763dc23543c760924a7f83533748e0f90777d53c7afe",
    "lfa":
        "71cd556b874dbc39e49b13acca4f5100a399369ac3549bdc0457b0904f39d78e",
    "neg-union-2":
        "7ec4c6409560fa60dd6f01dc939226fc7b853351a6d25ea097d3499ab1c30df9",
    "neg-union-3":
        "8054a2a3cb679f9caf320be461f50fef2ab4af9615a4cdf941999eb9f313b645",
    "neg-union-4":
        "035582b1f1dc347593fcd319b11b601f4a0cdf5cceac002a5b2f90e7b6168d78",
    "unamb-leaf-or-node":
        "9900d9172b6e7794ac53f772b50b1b2224bec29795ec6f0927f5d0bc93569fba",
    "unamb-left-combs":
        "d8ebcd279433c421edd62ad630aa078b43b017d6006243df5d92eb111f35d8cc",
    "unamb-single":
        "c8e56f650d0a2aea99f5d6f664b7aa6691b95062c910253a01b806c323449c92",
}


@pytest.mark.parametrize("name", sorted(TAGGED_ZOO_SHA256))
def test_tagged_zoo_bytes_are_pinned(name):
    text = serialize_pta(_tagged_zoo()[name])
    assert hashlib.sha256(text.encode()).hexdigest() == TAGGED_ZOO_SHA256[name]
