"""Command-line surface: outputs and the 0/1/2 exit code contract."""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

from treeamb import acceptance, formats, zoo
from treeamb.automata import det_pta_for_tree
from treeamb.cli import run
from treeamb.trees import (constant_tree, graft_antichain, graft_node,
                           lstar_r_antichain)

DATA = os.path.join(os.path.dirname(__file__), "data")


def data(name):
    return os.path.join(DATA, name)


def out_of(capsys):
    return capsys.readouterr().out.strip()


def test_validate_every_shipped_fixture(capsys):
    for name in sorted(os.listdir(DATA)):
        if name.startswith(("broken", "orphan", "partial")):
            continue
        assert run(["validate", data(name)]) == 0, name
    assert "ok" in out_of(capsys)


def test_validate_broken_reports_file_and_line(capsys):
    assert run(["validate", data("broken.pta")]) == 2
    assert "broken.pta:5" in capsys.readouterr().err


def test_validate_state_row_without_color_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.pta"
    bad.write_text("pta p\nalphabet c\nstate q\ninit q\n")
    assert run(["validate", str(bad)]) == 2
    assert f"{bad}:3: " in capsys.readouterr().err


def test_validate_missing_and_unknown_files(capsys):
    assert run(["validate", data("nosuch.pta")]) == 2
    assert run(["validate", data("tc.mtree") + ".bak"]) == 2
    capsys.readouterr()


def test_member_true_exits_zero(capsys):
    assert run(["member", "-a", data("negunion2.pta"),
                "-t", data("tc.mtree")]) == 0
    assert out_of(capsys) == "true"


def test_member_false_exits_one(capsys, tmp_path):
    both = tmp_path / "both.mtree"
    both.write_text(
        "mtree both\nalphabet a1 a2 c\nstate 0 out=c\nstate 1 out=a1\n"
        "state 2 out=a2\ninit 0\nedge 0 l 1\nedge 0 r 2\nedge 1 l 1\n"
        "edge 1 r 1\nedge 2 l 2\nedge 2 r 2\n")
    assert run(["member", "-a", data("negunion2.pta"), "-t", str(both)]) == 1
    assert out_of(capsys) == "false"


def test_member_alphabet_mismatch_exits_two(capsys):
    assert run(["member", "-a", data("free2.pta"),
                "-t", data("tprime.mtree")]) == 2
    assert "alphabet" in capsys.readouterr().err


def test_classify_plain_and_json(capsys):
    assert run(["classify", "-a", data("negunion2.pta"),
                "-t", data("tc.mtree")]) == 0
    assert out_of(capsys) == "Exact(2)"
    assert run(["classify", "-a", data("free2.pta"), "-t", data("tc.mtree"),
                "--json"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["verdict"] == "uncountable"
    assert doc["witness"]["runs"][0].startswith("run of=")
    # every call parses with the same parser; no option outlives its call
    assert run(["classify", "-a", data("free2.pta"),
                "-t", data("tc.mtree")]) == 0
    assert out_of(capsys) == "Uncountable"


def test_ambiguous_exit_codes(capsys):
    assert run(["ambiguous", "-a", data("negunion2.pta"), "-k", "1"]) == 1
    assert out_of(capsys) == "false"
    assert run(["ambiguous", "-a", data("negunion2.pta"), "-k", "2"]) == 0
    assert out_of(capsys) == "true"
    assert run(["ambiguous", "-a", data("negunion2.pta"), "-k", "0"]) == 2


def test_empty_writes_witness(capsys, tmp_path):
    w = tmp_path / "w.mtree"
    assert run(["empty", "-a", data("exists_a1.pta"),
                "--witness", str(w)]) == 1
    assert out_of(capsys) == "nonempty"
    assert run(["validate", str(w)]) == 0
    assert run(["member", "-a", data("exists_a1.pta"), "-t", str(w)]) == 0
    capsys.readouterr()


def test_empty_language_exits_zero(capsys, tmp_path):
    dead = tmp_path / "dead.pta"
    dead.write_text("pta dead\nalphabet c\nstate q color=1\ninit q\n"
                    "trans q c q q\n")
    assert run(["empty", "-a", str(dead)]) == 0
    assert out_of(capsys) == "empty"


def test_construct_union_restrict_single_init(capsys, tmp_path):
    u = tmp_path / "u.pta"
    assert run(["construct", "intersect", data("negunion2.pta"),
                data("exists_a1.pta"), "-o", str(u)]) == 2  # alphabets differ
    assert run(["construct", "union", data("negunion2.pta"),
                data("negunion2.pta"), "-o", str(u)]) == 0
    assert run(["validate", str(u)]) == 0
    s = tmp_path / "s.pta"
    assert run(["construct", "single-init", str(u), "-o", str(s)]) == 0
    parsed = formats.parse_pta((tmp_path / "s.pta").read_text(), "s.pta")
    assert len(parsed.initials) == 1
    r = tmp_path / "r.pta"
    assert run(["construct", "restrict", data("negunion2.pta"), "q0",
                "-o", str(r)]) == 0
    parsed = formats.parse_pta(r.read_text(), "r.pta")
    assert parsed.initials == frozenset(["q0"])
    capsys.readouterr()


def test_construct_graft_at_node_and_antichain(capsys, tmp_path):
    g1 = tmp_path / "g1.mtree"
    assert run(["construct", "graft", data("t0.mtree"), data("tprime.mtree"),
                "--at", "lr", "-o", str(g1)]) == 0
    assert run(["validate", str(g1)]) == 0
    g2 = tmp_path / "g2.mtree"
    assert run(["construct", "graft", data("t0.mtree"), data("tprime.mtree"),
                "--chain", data("lsr.chain"), "-o", str(g2)]) == 0
    assert run(["validate", str(g2)]) == 0
    assert run(["construct", "graft", data("t0.mtree"), data("tprime.mtree"),
                "-o", str(g1)]) == 2
    assert run(["construct", "graft", data("t0.mtree"), data("tprime.mtree"),
                "--at", "x", "-o", str(g1)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("op, inputs", [
    ("union", ["negunion2.pta"]),
    ("intersect", ["negunion2.pta"]),
    ("reduce", ["negunion2.pta"]),
    ("graft", ["t0.mtree"]),
    ("union", ["negunion2.pta"] * 3),
    ("single-init", ["negunion2.pta"] * 2),
])
def test_construct_needs_its_exact_number_of_inputs(capsys, tmp_path, op,
                                                    inputs):
    out = tmp_path / "out"
    assert run(["construct", op] + [data(f) for f in inputs] +
               ["--at", "-", "-o", str(out)] * (op == "graft")) == 2
    n = 1 if op == "single-init" else 2
    assert capsys.readouterr().err == (
        f"{op}:0: {op} needs exactly {n} input{'s' * (n > 1)}, "
        f"got {len(inputs)}\n")
    assert not out.exists()


def test_construct_reduce(capsys, tmp_path):
    a2 = tmp_path / "a2.pta"
    a2.write_text("pta overout\nalphabet c a1\nstate u color=0\ninit u\n"
                  "trans u a1 u u\ntrans u c u u\n")
    red = tmp_path / "red.pta"
    assert run(["construct", "reduce", str(a2), data("lastm.moore"),
                "-o", str(red)]) == 0
    assert run(["validate", str(red)]) == 0
    capsys.readouterr()


def test_zoo_writes_automata_and_reps(capsys, tmp_path):
    for args in (["neg-union", "--k", "3"], ["exists-a1"], ["lfa"],
                 ["free2"], ["no-max"], ["perf"], ["x-subset-ydown"],
                 ["complement-singleton", "--tree", data("tc.mtree")]):
        out = tmp_path / (args[0] + ".pta")
        assert run(["zoo"] + args + ["-o", str(out)]) == 0, args
        assert run(["validate", str(out)]) == 0
    w = tmp_path / "w.mtree"
    assert run(["zoo", "lfa-witness", "--m", "2", "--k", "1",
                "-o", str(w)]) == 0
    assert run(["validate", str(w)]) == 0
    repdir = tmp_path / "rep"
    assert run(["zoo", "rep-combs", "-o", str(repdir)]) == 0
    assert run(["validate", str(repdir)]) == 0
    assert run(["zoo", "frak", "--a0", data("free2.pta"),
                "--anb", data("free2.pta"), "-o",
                str(tmp_path / "f.pta")]) == 0
    assert run(["zoo", "atlantis"]) == 2
    capsys.readouterr()


def test_game_build_and_solve(capsys, tmp_path):
    g = tmp_path / "m.game"
    dot = tmp_path / "m.dot"
    assert run(["game", "build", "-a", data("exists_a1.pta"),
                "-t", data("tprime.mtree"), "-o", str(g),
                "--dot", str(dot)]) == 0
    assert g.read_text() == open(data("member.game")).read()
    assert "digraph" in dot.read_text()
    assert run(["game", "solve", "-g", str(g)]) == 0
    out = out_of(capsys)
    assert "Automaton wins" in out and "initial vertex won by Automaton" in out


def test_leads_prints_divergence_node(capsys):
    assert run(["leads", "-a", data("exists_a1.pta"), "--t0", data("t0.mtree"),
                "--tprime", data("tprime.mtree"), "--run", data("phi.run"),
                "--straj", data("t0.straj")]) == 0
    assert out_of(capsys) == "lr"


def test_leads_rejects_accepted_t0(capsys):
    assert run(["leads", "-a", data("exists_a1.pta"),
                "--t0", data("tprime.mtree"),
                "--tprime", data("tprime.mtree"), "--run", data("phi.run"),
                "--straj", data("t0.straj")]) == 2
    capsys.readouterr()


def test_suite_table_shape(capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [("always-true", 10.0, lambda: True),
                         ("always-false", 10.0, lambda: False)])
    assert run(["suite"]) == 1
    lines = out_of(capsys).splitlines()
    assert lines[0].startswith("always-true") and "PASS" in lines[0]
    assert lines[1].startswith("always-false") and "FAIL" in lines[1]
    assert lines[-1].endswith("FAIL")
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [("always-true", 10.0, lambda: True)])
    assert run(["suite"]) == 0
    capsys.readouterr()


def test_validate_rep_dir_missing_member_file_exits_two(capsys, tmp_path):
    repdir = tmp_path / "rep"
    shutil.copytree(data("rep-leaf-or-node"), repdir)
    (repdir / "rep.fta").unlink()
    assert run(["validate", str(repdir)]) == 2
    assert f"{repdir / 'rep.fta'}:0: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(["zoo", "free2", "-o", "{missing}"], id="zoo-o"),
    pytest.param(["zoo", "lfa-witness", "--m", "1", "-o", "{missing}"],
                 id="zoo-mtree-o"),
    pytest.param(["empty", "-a", data("exists_a1.pta"),
                  "--witness", "{missing}"], id="empty-witness"),
    pytest.param(["game", "build", "-a", data("exists_a1.pta"),
                  "-t", data("tprime.mtree"), "-o", "{missing}"],
                 id="game-build-o"),
    pytest.param(["game", "build", "-a", data("exists_a1.pta"),
                  "-t", data("tprime.mtree"), "--dot", "{missing}"],
                 id="game-build-dot"),
    pytest.param(["game", "solve", "-g", data("member.game"),
                  "--dot", "{missing}"], id="game-solve-dot"),
    # directories are created as needed, so block one with a regular file
    pytest.param(["zoo", "rep-combs", "-o", "{blocked}"], id="zoo-rep-o"),
])
def test_unwritable_output_path_exits_two(capsys, tmp_path, argv):
    (tmp_path / "file").write_text("")
    paths = {"missing": str(tmp_path / "nosuch" / "x"),
             "blocked": str(tmp_path / "file" / "x")}
    assert run([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert any(f"{p}:0: " in err for p in paths.values()), err


def test_validate_repeated_trans_row_exits_two(capsys, tmp_path):
    text = open(data("free2.pta")).read()
    row = next(line for line in text.splitlines() if line.startswith("trans"))
    bad = tmp_path / "twice.pta"
    bad.write_text(text + row + "\n")
    assert run(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:{len(text.splitlines()) + 1}: " in err, err


@pytest.mark.parametrize("automaton,straj,bad", [
    ("free2.pta", "t0.straj", "phi.run"),         # run states unknown
    ("exists_a1.pta", "partial.straj", "partial.straj"),    # map not total
])
def test_leads_binding_errors_name_the_file(capsys, automaton, straj, bad):
    assert run(["leads", "-a", data(automaton), "--t0", data("t0.mtree"),
                "--tprime", data("tprime.mtree"), "--run", data("phi.run"),
                "--straj", data(straj)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{data(bad)}:0: "), err


@pytest.mark.parametrize("module", ["treeamb", "treeamb.cli"])
def test_python_dash_m_treeamb_runs_the_cli(module):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run(
        [sys.executable, "-m", module, "validate", data("free2.pta")],
        capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (0, "ok\n"), done.stderr


# ------------------------------------------------------ pinned output bytes

def _zoo_inputs():
    """Zoo automata and trees whose verdicts reach every certificate kind,
    by file name."""
    alpha = ("c", "a1")
    t_c = constant_tree("c", alpha)
    t_a1 = constant_tree("a1", alpha)
    co = zoo.zoo_complement_singleton(t_c)
    return {
        "co.pta": co,
        "frak.pta": zoo.zoo_frak_scheme(det_pta_for_tree(t_c), co),
        "lfa.pta": zoo.zoo_lfa(),
        "nomax.pta": zoo.zoo_no_max(),
        "perf.pta": zoo.zoo_perf(),
        "xy.pta": zoo.zoo_x_subset_ydown(),
        "spread.mtree": graft_antichain(t_c, t_a1, lstar_r_antichain()),
        "two.mtree": graft_node(graft_node(t_c, t_a1, "ll"), t_a1, "r"),
        "lfa21.mtree": zoo.lfa_witness_tree(2, 1),
        "ones.mtree": constant_tree("1", ("0", "1")),
    }


@pytest.fixture
def inputs(tmp_path):
    """Path of a shipped fixture or of a zoo input written to tmp_path."""
    made = _zoo_inputs()

    def path(name):
        if name not in made:
            return data(name)
        out = tmp_path / name
        out.write_text(formats.serialize_pta(made[name])
                       if name.endswith(".pta")
                       else formats.serialize_mtree(made[name]))
        return str(out)
    return path


# sha256 of `treeamb classify --json` output: (automaton, tree, --max-k)
# -> (verdict, digest); the verdict names what each case covers
CLASSIFY_SHA256 = {
    ("exists_a1.pta", "t0.mtree", 8): ("exact",
        "5e5ef5314bf50287b35671586b78af52de0e672224e0ef820c74de7399d8d193"),
    ("exists_a1.pta", "tprime.mtree", 8): ("exact",
        "abfc435110b475867bb2335d0bf7781b9c2d06a99968079ae30994997aec9cac"),
    ("free2.pta", "tc.mtree", 8): ("uncountable",
        "d1459d17db2c20f1a66497f222d44466bdeaa7018c90512ca7877012ca831eb5"),
    ("negunion2.pta", "tc.mtree", 8): ("exact",
        "4ca75c6239341c1c440e6484d764b9c9444c7d8773ee2386b7b906383787ddd8"),
    ("negunion2.pta", "tprime.mtree", 8): ("exact",
        "abfc435110b475867bb2335d0bf7781b9c2d06a99968079ae30994997aec9cac"),
    ("co.pta", "spread.mtree", 8): ("infinite",
        "1e4022f32c8863738758a023187ae826cffbf444e82b772dabb702c279ecbf0d"),
    ("co.pta", "two.mtree", 8): ("exact",
        "4ca75c6239341c1c440e6484d764b9c9444c7d8773ee2386b7b906383787ddd8"),
    ("frak.pta", "spread.mtree", 4): ("uncountable",
        "e92f495532db9fff408ed207222327cc5a12f5b108ad6bf6e73685be8528c7c3"),
    ("lfa.pta", "lfa21.mtree", 8): ("exact",
        "f39a0f6c9483c41e9afb5275670f2c97476437c27ae67e784138d00f093a3ee8"),
    ("lfa.pta", "lfa21.mtree", 2): ("at_least",
        "8b630a08d9fcef74c0abc51ec34b97f8a23fc16e9e503f1648b128ad9fc55d37"),
}


@pytest.mark.parametrize("pta,mtree,k", sorted(CLASSIFY_SHA256))
def test_classify_json_bytes_are_pinned(pta, mtree, k, inputs, capsys):
    assert run(["classify", "--json", "-a", inputs(pta), "-t", inputs(mtree),
                "--max-k", str(k)]) == 0
    out = capsys.readouterr().out
    verdict, digest = CLASSIFY_SHA256[(pta, mtree, k)]
    assert json.loads(out)["verdict"] == verdict
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the tree `treeamb empty --witness` writes, per automaton
EMPTY_WITNESS_SHA256 = {
    "exists_a1.pta":
        "034d0d5dc079fd3427562e431ac72f87800eccb3ebec80e2c985dca8f0c2697e",
    "free2.pta":
        "ac6252ca0e0e182d1fe1c9ba0580c94eec90b34a2736207b9339f00769c9947e",
    "negunion2.pta":
        "fc36e60ebee7c11f54dc302c2c32a7ff4d8a0d634b411c951a036bc5c06dfe96",
    "co.pta":
        "74a35acae9440261a27c0e5db321a0fff2b99eb55130f76b55bc3364902566e1",
    "frak.pta":
        "8c2517e756a77cca8d2a46f6ecb144a5071146f154692e52ebdf2e61fe830160",
    "lfa.pta":
        "63371573a23709fac3168eedf46ffb0a114ad5f423c2db92090ffe569283d553",
    "nomax.pta":
        "f84a0826bbdfc06bee0df510bd05c4f20baa9d44b605d6837dcdacfc2629abf0",
    "perf.pta":
        "ecf5dba01ca618e82097f478e273295714bf70086ef333c4b412308dec39cbbf",
    "xy.pta":
        "766f6059d101dfb062c11cd18c1e4d861e155f33199d2db949def23cfa8368bc",
}


@pytest.mark.parametrize("pta", sorted(EMPTY_WITNESS_SHA256))
def test_empty_witness_bytes_are_pinned(pta, inputs, tmp_path, capsys):
    w = tmp_path / "w.mtree"
    assert run(["empty", "-a", inputs(pta), "--witness", str(w)]) == 1
    assert out_of(capsys) == "nonempty"
    digest = hashlib.sha256(w.read_bytes()).hexdigest()
    assert digest == EMPTY_WITNESS_SHA256[pta]
