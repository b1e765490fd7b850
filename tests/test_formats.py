"""Text formats: byte-identical round trips and parse error reporting."""

import json
import os
import random

import pytest

from treeamb import formats, zoo
from treeamb.ambiguity import classify
from treeamb.automata import ParityTreeAutomaton, fta_enumerate_accepted
from treeamb.errors import ParseError
from treeamb.games import solve
from treeamb.membership import (automaton_strategy_to_run, build_game, member,
                                pathfinder_strategy, run_is_accepting)
from treeamb.trees import (constant_tree, last_letter_machine,
                           lstar_r_antichain, tree_equal)

from test_membership import outputs_under_hash_seeds, random_tree

DATA = os.path.join(os.path.dirname(__file__), "data")

PARSE = {".mtree": formats.parse_mtree, ".chain": formats.parse_chain,
         ".pta": formats.parse_pta, ".fta": formats.parse_fta,
         ".ftree": formats.parse_ftree, ".game": formats.parse_game,
         ".moore": formats.parse_moore}

SERIALIZE = {".mtree": formats.serialize_mtree,
             ".chain": formats.serialize_chain,
             ".pta": formats.serialize_pta, ".fta": formats.serialize_fta,
             ".ftree": formats.serialize_ftree,
             ".game": formats.serialize_game,
             ".moore": formats.serialize_moore}


def fixture(name):
    with open(os.path.join(DATA, name)) as fh:
        return fh.read()


def shipped(ext):
    return sorted(f for f in os.listdir(DATA)
                  if f.endswith(ext) and not f.startswith(("broken",
                                                           "orphan",
                                                           "partial")))


@pytest.mark.parametrize("name", [f for ext in PARSE for f in shipped(ext)])
def test_shipped_files_round_trip_byte_identical(name):
    ext = os.path.splitext(name)[1]
    text = fixture(name)
    obj = PARSE[ext](text, name)
    assert SERIALIZE[ext](obj) == text


def test_run_fixture_round_trip_and_binding():
    text = fixture("phi.run")
    of, on, machine = formats.parse_run(text, "phi.run")
    assert of == "exists-a1"
    a = formats.parse_pta(fixture("exists_a1.pta"), "exists_a1.pta")
    t = formats.parse_mtree(fixture("tprime.mtree"), "tprime.mtree")
    assert t.name == on
    phi = formats.bind_run(machine, a, t)
    assert run_is_accepting(phi)
    assert formats.serialize_run(phi) == text


def test_straj_fixture_round_trip_and_binding():
    text = fixture("t0.straj")
    parsed = formats.parse_straj(text, "t0.straj")
    a = formats.parse_pta(fixture("exists_a1.pta"), "exists_a1.pta")
    strj = formats.bind_straj(parsed, a)
    assert set(strj.out) and all(len(table) == len(a.states) ** 2
                                 for table in strj.out.values())
    assert formats.serialize_straj(strj) == text


def test_rep_directory_round_trip(tmp_path):
    rep = formats.load_rep(os.path.join(DATA, "rep-leaf-or-node"))
    assert rep.fta.states == frozenset(["leaf", "root"])
    assert tree_equal(rep.subs["x1"], constant_tree("a1", ("a1",)))
    formats.save_rep(rep, tmp_path / "again")
    again = formats.load_rep(tmp_path / "again")
    assert again.fta == rep.fta
    assert set(again.subs) == set(rep.subs)
    assert tree_equal(again.subs["x1"], rep.subs["x1"])


def test_unprintable_states_renamed_stably():
    a = ParityTreeAutomaton(
        "pairy", ("c",),
        frozenset([("l", 0), ("r", 1)]), frozenset([("l", 0)]),
        frozenset([(("l", 0), "c", ("r", 1), ("r", 1)),
                   (("r", 1), "c", ("r", 1), ("r", 1))]),
        {("l", 0): 0, ("r", 1): 1}).check()
    text = formats.serialize_pta(a)
    assert "q0" in text and "('l', 0)" not in text
    b = formats.parse_pta(text, "pairy.pta")
    assert formats.serialize_pta(b) == text
    assert len(b.states) == 2 and b.max_color() == 1
    # a str state holding non-ASCII whitespace is renamed as well
    nb = ParityTreeAutomaton(
        "nbsp", ("c",), frozenset(["p", "a\xa0b"]), frozenset(["p"]),
        frozenset([("p", "c", "a\xa0b", "a\xa0b"), ("a\xa0b", "c", "p", "p")]),
        {"p": 0, "a\xa0b": 1}).check()
    text = formats.serialize_pta(nb)
    assert "\xa0" not in text and "state q0" in text
    assert formats.serialize_pta(formats.parse_pta(text, "nbsp.pta")) == text


# 1 and "1", and (0, 1) and "(0, 1)", print alike, so every state is
# renamed; sorted on str alone, 1 and "1" swapped names between hash seeds
# 0 and 29
_ALIKE_STATES = """
from treeamb.automata import ParityTreeAutomaton
from treeamb.formats import serialize_pta
states = [1, "1", (0, 1), "(0, 1)", "a", "b", "c", "d", "e"]
a = ParityTreeAutomaton(
    "tie", ("x",), frozenset(states), frozenset([1]),
    frozenset((q, "x", q, q) for q in states),
    {q: i % 2 for i, q in enumerate(states)})
print(serialize_pta(a.check()), end="")
"""


def test_renamed_states_ignore_the_hash_seed():
    (text,) = outputs_under_hash_seeds(_ALIKE_STATES, ("0", "29"))
    # repr breaks the tie: "'1'" sorts before "1", so "1" is q2 and 1 is q3
    assert "init q3" in text and "state q2 color=1" in text


def test_numeric_state_tokens_sort_as_strings():
    t = constant_tree("c", ("c",))
    big = {i: t for i in range(12)}
    a = ParityTreeAutomaton(
        "many", ("c",), frozenset(range(12)), frozenset([0]),
        frozenset((q, "c", (q + 1) % 12, (q + 1) % 12) for q in range(12)),
        {q: 0 for q in range(12)}).check()
    text = formats.serialize_pta(a)
    lines = [l for l in text.splitlines() if l.startswith("state ")]
    assert lines == sorted(lines)
    assert formats.serialize_pta(formats.parse_pta(text, "m.pta")) == text


def generated_objects():
    """(ext, object) params for every format, beyond the shipped fixtures."""
    objs = [("lstar-r", ".chain", lstar_r_antichain()),
            ("last-letter", ".moore", last_letter_machine(("a1", "a2", "c")))]
    for rep in (zoo.niwinski_rep_single(), zoo.niwinski_rep_leaf_or_node(),
                zoo.niwinski_rep_combs()):
        objs.append((rep.name, ".fta", rep.fta))
        objs += [(f"{rep.name}-{i}", ".ftree", tree) for i, tree
                 in enumerate(fta_enumerate_accepted(rep.fta, 7)[:4])]
    automata = [zoo.zoo_neg_union(2), zoo.zoo_neg_union(3),
                zoo.zoo_exists_a1(), zoo.zoo_lfa(), zoo.zoo_no_max(),
                zoo.zoo_perf(), zoo.zoo_x_subset_ydown(), zoo.zoo_free2()]
    rng = random.Random(6)
    for a in automata:
        objs.append((a.name, ".pta", a))
        for size in (1, 3, 6):
            t = random_tree(rng, a.alphabet, size)
            key = f"{a.name}-{size}"
            g = build_game(a, t)
            objs += [(key, ".mtree", t), (key, ".game", g.arena)]
            if member(a, t):
                run = automaton_strategy_to_run(g, solve(g.arena))
                objs.append((key, ".run", run))
            else:
                objs.append((key, ".straj", pathfinder_strategy(a, t)))
    return [pytest.param(ext, obj, id=f"{ext[1:]}:{key}")
            for key, ext, obj in objs]


def reparse(ext, obj, text):
    if ext == ".run":
        _, _, machine = formats.parse_run(text)
        return formats.bind_run(machine, obj.automaton, obj.tree)
    if ext == ".straj":
        return formats.bind_straj(formats.parse_straj(text), obj.automaton)
    return PARSE[ext](text)


GENERATED = generated_objects()


@pytest.mark.parametrize("ext,obj", GENERATED)
def test_generated_objects_round_trip_byte_identical(ext, obj):
    write = dict(SERIALIZE, **{".run": formats.serialize_run,
                               ".straj": formats.serialize_straj})[ext]
    text = write(obj)
    assert write(reparse(ext, obj, text)) == text


def test_generated_objects_cover_every_format():
    assert ({p.values[0] for p in GENERATED}
            == set(PARSE) | {".run", ".straj"})


# ------------------------------------------------------------ error lines

def check_error(exc, filename, lineno, excerpt):
    assert exc.value.filename == filename
    assert exc.value.lineno == lineno
    assert excerpt in str(exc.value)


BAD_ROW = {
    ".mtree": (formats.parse_mtree, "mtree t\nalphabet c\n\nstate 0 out=c\n"
               "init 0\nedge 0 l 0\nedge 0 r ghost\n", 7),
    ".chain": (formats.parse_chain, "chain c\nstate 0\nstate 1 accept\n"
               "init 0\nedge 0 x 1\n", 5),
    ".pta": (formats.parse_pta, "pta p\nalphabet c\nstate q color=0\n"
             "state r color=red\ninit q\n", 4),
    ".fta": (formats.parse_fta, "fta f\nleafalpha x\ninnalpha c\n"
             "state q\ninit q\nleaf q x\ntrans q c q ghost\n", 7),
    ".moore": (formats.parse_moore, "moore m\ninputs a\noutputs a\n"
               "state s out=a\ninit s\nedge s a s\n\nedge s b s\n", 8),
    ".straj": (formats.parse_straj, "straj s of=p\nstate 0\ninit 0\n"
               "edge 0 l 0\nedge 0 r 0\nout 0 q q up\n", 6),
    ".run": (formats.parse_run, "run of=a on=t\nmtree m\nalphabet q\n"
             "state 0 out=q\ninit 0\nedge 0 l 0\nedge 0 r ghost\n", 7),
    ".game": (formats.parse_game, "game g\nvertex v owner=A color=0\n"
              "vertex w owner=X color=0\n", 3),
}


@pytest.mark.parametrize("ext", sorted(BAD_ROW))
def test_bad_row_reports_its_own_line(ext):
    parse, text, lineno = BAD_ROW[ext]
    with pytest.raises(ParseError) as e:
        parse(text, "bad" + ext)
    assert (e.value.filename, e.value.lineno) == ("bad" + ext, lineno)


@pytest.mark.parametrize("parse,text,lineno", [
    pytest.param(formats.parse_pta, "pta p\nalphabet c\nstate q\n", 3,
                 id="pta"),
    pytest.param(formats.parse_mtree, "mtree t\nalphabet c\nstate 0\n", 3,
                 id="mtree"),
    pytest.param(formats.parse_moore,
                 "moore m\ninputs a\noutputs a\nstate s\n", 4, id="moore"),
    pytest.param(formats.parse_run,
                 "run of=a on=t\nmtree m\nalphabet q\n\nstate 0\n", 5,
                 id="run"),
    pytest.param(formats.parse_fta,
                 "fta f\nleafalpha x\ninnalpha c\nstate\n", 4, id="fta"),
    pytest.param(formats.parse_chain, "chain c\nstate\n", 2, id="chain"),
    pytest.param(formats.parse_straj, "straj s of=p\nstate\n", 2,
                 id="straj"),
])
def test_state_row_without_its_attribute_reports_its_line(parse, text,
                                                          lineno):
    with pytest.raises(ParseError) as e:
        parse(text, "bad")
    check_error(e, "bad", lineno, "expected `state <id>")


def test_straj_rejects_repeated_edge_and_out_rows():
    head = "straj s of=p\nstate 0\ninit 0\nedge 0 l 0\nedge 0 r 0\n"
    with pytest.raises(ParseError) as e:
        formats.parse_straj(head + "edge 0 l 0\n", "s.straj")
    check_error(e, "s.straj", 6, "two l-edges")
    with pytest.raises(ParseError) as e:
        formats.parse_straj(head + "out 0 q q l\nout 0 q q r\n", "s.straj")
    check_error(e, "s.straj", 7, "two out rows")


def with_first_row_repeated(text, directive):
    """text with its first `directive` row appended again, and the line
    number of the copy."""
    row = next(line for line in text.splitlines()
               if line.split()[0] == directive)
    return text + row + "\n", len(text.splitlines()) + 1


@pytest.mark.parametrize("name,directive", [
    ("free2.pta", "trans"), ("leafnode.fta", "trans"),
    ("leafnode.fta", "leaf")])
def test_pta_and_fta_reject_repeated_rows(name, directive):
    text, lineno = with_first_row_repeated(fixture(name), directive)
    parse = PARSE[os.path.splitext(name)[1]]
    with pytest.raises(ParseError) as e:
        parse(text, name)
    check_error(e, name, lineno, "listed twice")
    # without the copy the file round-trips byte for byte
    assert SERIALIZE[os.path.splitext(name)[1]](parse(fixture(name))) == \
        fixture(name)


def test_undeclared_transition_state_reports_line():
    with pytest.raises(ParseError) as e:
        formats.parse_pta(fixture("broken.pta"), "broken.pta")
    check_error(e, "broken.pta", 5, "ghost")


def test_orphan_ftree_node_reports_line():
    with pytest.raises(ParseError) as e:
        formats.parse_ftree(fixture("orphan.ftree"), "orphan.ftree")
    check_error(e, "orphan.ftree", 4, "not reachable")


def test_partial_strategy_rejected_at_binding():
    a = formats.parse_pta(fixture("exists_a1.pta"), "exists_a1.pta")
    parsed = formats.parse_straj(fixture("partial.straj"), "partial.straj")
    with pytest.raises(ParseError) as e:
        formats.bind_straj(parsed, a)
    assert "not total" in str(e.value)


def test_mtree_missing_edge_reports_state():
    with pytest.raises(ParseError) as e:
        formats.parse_mtree("mtree t\nalphabet c\nstate 0 out=c\ninit 0\n"
                            "edge 0 l 0\n", "t.mtree")
    assert "lacks" in str(e.value) and "r" in str(e.value)


def test_mtree_duplicate_state_reports_line():
    with pytest.raises(ParseError) as e:
        formats.parse_mtree("mtree t\nalphabet c\nstate 0 out=c\n"
                            "state 0 out=c\ninit 0\n", "t.mtree")
    check_error(e, "t.mtree", 4, "twice")


def test_game_unknown_edge_endpoint_reports_line():
    with pytest.raises(ParseError) as e:
        formats.parse_game("game g\nvertex v owner=A color=0\ninit v\n"
                           "edge v w\n", "g.game")
    check_error(e, "g.game", 4, "w")


def test_game_preserves_edge_order():
    text = ("game g\nvertex a owner=A color=0\nvertex b owner=P color=1\n"
            "vertex c owner=P color=0\ninit a\nedge a c\nedge a b\n"
            "edge b a\nedge c a\n")
    arena = formats.parse_game(text, "g.game")
    assert arena.edges["a"] == ("c", "b")
    assert formats.serialize_game(arena) == text


def test_run_header_mismatch_reports_line():
    with pytest.raises(ParseError) as e:
        formats.parse_run("run on=t of=a\nmtree m\n", "x.run")
    assert e.value.lineno == 1


@pytest.mark.parametrize("text", ["", "mtree m\n", "run\n"])
def test_run_header_error_names_the_run_form(text):
    with pytest.raises(ParseError) as e:
        formats.parse_run(text, "x.run")
    check_error(e, "x.run", 1, "expected `run of=<pta> on=<tree>`")


def test_missing_file_directive_reports_expected_form():
    with pytest.raises(ParseError) as e:
        formats.parse_chain("chain c\nstate 0\ninit 0\nhop 0 l 0\n",
                            "c.chain")
    check_error(e, "c.chain", 4, "hop")


# ------------------------------------------------------------ json / dot

def test_verdict_json_fields():
    a = formats.parse_pta(fixture("free2.pta"), "free2.pta")
    t = formats.parse_mtree(fixture("tc.mtree"), "tc.mtree")
    doc = json.loads(formats.verdict_to_json(classify(a, t, 3)))
    assert doc["verdict"] == "uncountable"
    assert set(doc["witness"]) == {"vertex", "fragment", "runs"}
    exact = json.loads(formats.verdict_to_json(
        classify(formats.parse_pta(fixture("negunion2.pta"), "n.pta"),
                 t, 5)))
    assert exact == {"verdict": "exact", "n": 2}


def test_dot_marks_owners_and_strategy():
    arena = formats.parse_game(fixture("member.game"), "member.game")
    dot = formats.game_to_dot(arena, solve(arena))
    assert "shape=box" in dot and "shape=diamond" in dot
    assert "penwidth=2.5" in dot and "lightblue" in dot
    assert formats.game_to_dot(arena).count("fillcolor") == 0
