"""Command-line front end.

Exit codes: 0 success, 1 negative verdict (member/ambiguous false, empty
reporting a nonempty language, suite with failures), 2 bad input (parse
errors, missing files, violated preconditions).
"""

import argparse
import os
import sys

from . import formats, zoo
from .ambiguity import classify, emptiness, is_k_ambiguous
from .automata import (intersect, moore_reduction, restrict_initials,
                       single_initial, union)
from .errors import ParseError, TreeambError
from .games import solve
from .membership import build_game, leads, member
from .trees import graft_antichain, graft_node

_PARSERS = {
    ".mtree": formats.parse_mtree,
    ".chain": formats.parse_chain,
    ".pta": formats.parse_pta,
    ".fta": formats.parse_fta,
    ".ftree": formats.parse_ftree,
    ".game": formats.parse_game,
    ".moore": formats.parse_moore,
    ".straj": formats.parse_straj,
    ".run": formats.parse_run,
}


def _load(path, kind):
    return _PARSERS[kind](formats.read_file(path), path)


def _emit(text, out):
    if out:
        formats.write_file(out, text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------- commands

def _cmd_validate(args):
    path = args.file
    if os.path.isdir(path):
        rep = formats.load_rep(path)
        print(f"ok: representation {rep.name} "
              f"({len(rep.fta.states)} shape states, {len(rep.subs)} trees)")
        return 0
    ext = os.path.splitext(path)[1]
    if ext not in _PARSERS:
        raise ParseError(path, 0, f"unknown format {ext!r} "
                                  f"(known: {' '.join(sorted(_PARSERS))})")
    _load(path, ext)
    print("ok")
    return 0


def _cmd_member(args):
    a = _load(args.automaton, ".pta")
    t = _load(args.tree, ".mtree")
    verdict = member(a, t)
    print("true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_classify(args):
    a = _load(args.automaton, ".pta")
    t = _load(args.tree, ".mtree")
    verdict = classify(a, t, args.max_k)
    if args.json:
        print(formats.verdict_to_json(verdict))
    else:
        print(repr(verdict))
    return 0


def _cmd_ambiguous(args):
    a = _load(args.automaton, ".pta")
    verdict = is_k_ambiguous(a, args.k)
    print("true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_empty(args):
    a = _load(args.automaton, ".pta")
    w = emptiness(a)
    if w is None:
        print("empty")
        return 0
    if args.witness:
        formats.write_file(args.witness, formats.serialize_mtree(w))
    print("nonempty")
    return 1


def _cmd_construct(args):
    binary = {"union": union, "intersect": intersect}
    arity = {"union": 2, "intersect": 2, "reduce": 2, "graft": 2,
             "single-init": 1}
    n, got = arity.get(args.op), len(args.inputs)
    if n is not None and got != n:
        raise ParseError(args.op, 0, f"{args.op} needs exactly {n} "
                         f"input{'s' if n > 1 else ''}, got {got}")
    if args.op in binary:
        a = binary[args.op](_load(args.inputs[0], ".pta"),
                            _load(args.inputs[1], ".pta"))
    elif args.op == "single-init":
        a = single_initial(_load(args.inputs[0], ".pta"))
    elif args.op == "restrict":
        a = _load(args.inputs[0], ".pta")
        qs = frozenset(args.inputs[1:])
        if not qs:
            raise ParseError(args.inputs[0], 0,
                             "restrict needs at least one state id")
        a = restrict_initials(a, qs)
    elif args.op == "reduce":
        a2 = _load(args.inputs[0], ".pta")
        m = _load(args.inputs[1], ".moore")
        a = moore_reduction(a2, m)
    else:   # graft
        t1 = _load(args.inputs[0], ".mtree")
        t2 = _load(args.inputs[1], ".mtree")
        if (args.at is None) == (args.chain is None):
            raise ParseError("graft", 0,
                             "graft needs exactly one of --at / --chain")
        if args.at is not None:
            node = "" if args.at == "-" else args.at
            t = graft_node(t1, t2, node)
        else:
            t = graft_antichain(t1, t2, _load(args.chain, ".chain"))
        _emit(formats.serialize_mtree(t), args.out)
        return 0
    _emit(formats.serialize_pta(a), args.out)
    return 0


def _cmd_zoo(args):
    name = args.name
    stock = {"exists-a1": zoo.zoo_exists_a1, "lfa": zoo.zoo_lfa,
             "no-max": zoo.zoo_no_max, "perf": zoo.zoo_perf,
             "x-subset-ydown": zoo.zoo_x_subset_ydown, "free2": zoo.zoo_free2}
    reps = {"rep-single": zoo.niwinski_rep_single,
            "rep-leaf-or-node": zoo.niwinski_rep_leaf_or_node,
            "rep-combs": zoo.niwinski_rep_combs}
    if name in stock:
        a = stock[name]()
    elif name == "neg-union":
        a = zoo.zoo_neg_union(args.k if args.k is not None else 2)
    elif name == "complement-singleton":
        if not args.tree:
            raise ParseError(name, 0, "complement-singleton needs --tree")
        a = zoo.zoo_complement_singleton(_load(args.tree, ".mtree"))
    elif name == "lfa-witness":
        if args.m is None:
            raise ParseError(name, 0, "lfa-witness needs --m")
        _emit(formats.serialize_mtree(zoo.lfa_witness_tree(args.m,
                                                           args.k or 0)),
              args.out)
        return 0
    elif name == "frak":
        if not (args.a0 and args.anb):
            raise ParseError(name, 0, "frak needs --a0 and --anb")
        a = zoo.zoo_frak_scheme(_load(args.a0, ".pta"),
                                _load(args.anb, ".pta"))
    elif name in reps:
        rep = reps[name]()
        if not args.out:
            raise ParseError(name, 0, "representations need -o <directory>")
        formats.save_rep(rep, args.out)
        print(f"wrote {args.out}/")
        return 0
    else:
        raise ParseError(name, 0, "unknown zoo entry")
    _emit(formats.serialize_pta(a), args.out)
    return 0


def _cmd_game(args):
    if args.gop == "build":
        a = _load(args.automaton, ".pta")
        t = _load(args.tree, ".mtree")
        g = build_game(a, t)
        _emit(formats.serialize_game(g.arena), args.out)
        if args.dot:
            formats.write_file(args.dot,
                               formats.game_to_dot(g.arena, solve(g.arena)))
        return 0
    arena = _load(args.game, ".game")
    analysis = solve(arena)
    for player, tag in (("A", "Automaton"), ("P", "Pathfinder")):
        print(f"{tag} wins {len(analysis.region[player])} vertices")
    if args.dot:
        formats.write_file(args.dot, formats.game_to_dot(arena, analysis))
    if arena.init is not None:
        winner = analysis.winner_of(arena.init)
        print(f"initial vertex won by "
              f"{'Automaton' if winner == 'A' else 'Pathfinder'}")
    return 0


def _cmd_leads(args):
    a = _load(args.automaton, ".pta")
    t0 = _load(args.t0, ".mtree")
    tprime = _load(args.tprime, ".mtree")
    _, _, raw_mach = _load(args.run, ".run")
    phi = formats.bind_run(raw_mach, a, tprime, args.run)
    strj = formats.bind_straj(_load(args.straj, ".straj"), a, args.straj)
    v = leads(a, t0, strj, tprime, phi)
    print(v if v else "-")
    return 0


def _cmd_suite(_args):
    from .acceptance import run_suite
    results = run_suite()
    width = max(len(name) for name, _, _ in results)
    ok = True
    for name, passed, seconds in results:
        ok &= passed
        print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}  "
              f"{seconds:6.2f}s")
    print(f"{'suite':<{width}}  {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# ------------------------------------------------------------ dispatch

def _build_parser():
    p = argparse.ArgumentParser(
        prog="treeamb",
        description="Parity tree automata over regular infinite trees: "
                    "membership games and run-cardinality classification.")
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("validate", help="parse and check a file or rep dir")
    s.add_argument("file")
    s.set_defaults(fn=_cmd_validate)

    s = sub.add_parser("member", help="is the tree accepted?")
    s.add_argument("-a", "--automaton", required=True)
    s.add_argument("-t", "--tree", required=True)
    s.set_defaults(fn=_cmd_member)

    s = sub.add_parser("classify", help="count accepting runs")
    s.add_argument("-a", "--automaton", required=True)
    s.add_argument("-t", "--tree", required=True)
    s.add_argument("--max-k", type=int, default=8)
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=_cmd_classify)

    s = sub.add_parser("ambiguous",
                       help="no tree has more than k accepting runs?")
    s.add_argument("-a", "--automaton", required=True)
    s.add_argument("-k", type=int, required=True)
    s.set_defaults(fn=_cmd_ambiguous)

    s = sub.add_parser("empty", help="is the language empty?")
    s.add_argument("-a", "--automaton", required=True)
    s.add_argument("--witness", help="write an accepted tree here")
    s.set_defaults(fn=_cmd_empty)

    s = sub.add_parser("construct", help="automaton and tree constructions")
    s.add_argument("op", choices=["union", "intersect", "single-init",
                                  "restrict", "reduce", "graft"])
    s.add_argument("inputs", nargs="+")
    s.add_argument("--at", help="graft node path (- for the root)")
    s.add_argument("--chain", help="graft antichain file")
    s.add_argument("-o", "--out")
    s.set_defaults(fn=_cmd_construct)

    s = sub.add_parser("zoo", help="stock automata and trees")
    s.add_argument("name")
    s.add_argument("--k", type=int)
    s.add_argument("--m", type=int)
    s.add_argument("--tree", help="tree input for complement-singleton")
    s.add_argument("--a0", help="component automaton for frak")
    s.add_argument("--anb", help="component automaton for frak")
    s.add_argument("-o", "--out")
    s.set_defaults(fn=_cmd_zoo)

    s = sub.add_parser("game", help="membership games")
    gsub = s.add_subparsers(dest="gop", required=True)
    b = gsub.add_parser("build")
    b.add_argument("-a", "--automaton", required=True)
    b.add_argument("-t", "--tree", required=True)
    b.add_argument("-o", "--out")
    b.add_argument("--dot")
    b.set_defaults(fn=_cmd_game)
    so = gsub.add_parser("solve")
    so.add_argument("-g", "--game", required=True)
    so.add_argument("--dot")
    so.set_defaults(fn=_cmd_game)

    s = sub.add_parser("leads", help="node where the rejected tree differs")
    s.add_argument("-a", "--automaton", required=True)
    s.add_argument("--t0", required=True)
    s.add_argument("--tprime", required=True)
    s.add_argument("--run", required=True)
    s.add_argument("--straj", required=True)
    s.set_defaults(fn=_cmd_leads)

    s = sub.add_parser("suite", help="run the acceptance criteria")
    s.set_defaults(fn=_cmd_suite)
    return p


_PARSER = _build_parser()


def run(argv):
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        print(e, file=sys.stderr)
        return 2
    except (TreeambError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
