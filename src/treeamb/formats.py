"""Line-oriented text formats, JSON verdicts and DOT export.

Every serializer emits lines in a canonical order (header, alphabets,
states, init, edges/transitions, each block sorted by the written tokens)
so that parse followed by serialize reproduces a serializer-written file
byte for byte.  States whose str() forms are unique and whitespace-free
are written as-is; anything else (tuples, mostly) is renamed q0, q1, ...
in str-sorted order, consistently across an automaton and any runs or
strategies serialized against it.
"""

import json
import os

from .automata import FiniteTreeAutomaton, ParityTreeAutomaton
from .errors import ParseError, TreeambError
from .games import AUTOMATON, PATHFINDER, ParityGameArena
from .membership import PathfinderStrategyTree, RegularRun, run_check
from .trees import DIRS, MooreMachine, RegularAntichain, RegularTree
from .zoo import NiwinskiRepresentation


def token_map(items):
    """Canonical printable name for each item (see module docstring)."""
    items = sorted(items, key=str)
    toks = [str(x) for x in items]
    if len(set(toks)) == len(toks) and all(t.split() == [t] for t in toks):
        return {x: str(x) for x in items}
    return {x: f"q{i}" for i, x in enumerate(items)}


def _check_symbols(symbols, what):
    for s in symbols:
        if not isinstance(s, str) or s.split() != [s]:
            raise ValueError(f"{what} {s!r} is not serializable")
    return tuple(symbols)


class _Reader:
    """The non-blank lines of a file as (lineno, fields, raw) triples."""

    def __init__(self, text, filename):
        self.filename = filename
        self.rows = [(i + 1, line.split(), line)
                     for i, line in enumerate(text.splitlines())
                     if line.strip()]

    def fail(self, lineno, message):
        raise ParseError(self.filename, lineno, message)

    def header(self, keyword):
        if not self.rows:
            raise ParseError(self.filename, 1, f"expected `{keyword} <name>`")
        lineno, fields, raw = self.rows[0]
        if not fields or fields[0] != keyword:
            self.fail(lineno, f"expected `{keyword} <name>`, got {fields[0] if fields else ''!r}")
        if len(fields) < 2:
            self.fail(lineno, f"expected a name after `{keyword}`")
        return raw.split(None, 1)[1].strip()

    def body(self):
        return self.rows[1:]


def _body_index(reader, allowed):
    """Group body rows by directive, rejecting unknown ones."""
    groups = {k: [] for k in allowed}
    for lineno, fields, raw in reader.body():
        if fields[0] not in allowed:
            reader.fail(lineno, f"expected one of {sorted(allowed)}, "
                                f"got {fields[0]!r}")
        groups[fields[0]].append((lineno, fields))
    return groups


def _single(reader, groups, key, what):
    if not groups[key]:
        raise ParseError(reader.filename, 0, f"missing `{key}` ({what})")
    if len(groups[key]) > 1:
        reader.fail(groups[key][1][0], f"duplicate `{key}` line")
    return groups[key][0]


# -------------------------------------------------------------- .mtree

def serialize_mtree(t):
    _check_symbols(t.alphabet, "alphabet symbol")
    toks = token_map(t.out)
    lines = [f"mtree {t.name}", "alphabet " + " ".join(t.alphabet)]
    order = sorted(t.out, key=lambda s: toks[s])
    lines += [f"state {toks[s]} out={t.out[s]}" for s in order]
    lines.append(f"init {toks[t.init]}")
    for s in order:
        for d in DIRS:
            lines.append(f"edge {toks[s]} {d} {toks[t.next[(s, d)]]}")
    return "\n".join(lines) + "\n"


def parse_mtree(text, filename="<mtree>"):
    r = _Reader(text, filename)
    name = r.header("mtree")
    groups = _body_index(r, {"alphabet", "state", "init", "edge"})
    lineno, fields = _single(r, groups, "alphabet", "the label alphabet")
    alphabet = tuple(fields[1:])
    if not alphabet:
        r.fail(lineno, "alphabet must list at least one symbol")
    out = {}
    for lineno, fields in groups["state"]:
        if len(fields) != 3 or not fields[2].startswith("out="):
            r.fail(lineno, "expected `state <id> out=<sym>`")
        s, sym = fields[1], fields[2][4:]
        if s in out:
            r.fail(lineno, f"state {s} declared twice")
        if sym not in alphabet:
            r.fail(lineno, f"label {sym!r} is not in the alphabet")
        out[s] = sym
    lineno, fields = _single(r, groups, "init", "the initial state")
    if len(fields) != 2:
        r.fail(lineno, "expected `init <id>`")
    init = fields[1]
    if init not in out:
        r.fail(lineno, f"initial state {init} is not declared")
    nxt = {}
    for lineno, fields in groups["edge"]:
        if len(fields) != 4 or fields[2] not in DIRS:
            r.fail(lineno, "expected `edge <src> l|r <dst>`")
        src, d, dst = fields[1], fields[2], fields[3]
        for s in (src, dst):
            if s not in out:
                r.fail(lineno, f"state {s} is not declared")
        if (src, d) in nxt:
            r.fail(lineno, f"state {src} has two {d}-edges")
        nxt[(src, d)] = dst
    for s in out:
        for d in DIRS:
            if (s, d) not in nxt:
                raise ParseError(filename, 0, f"state {s} lacks a {d}-edge")
    return RegularTree(name, alphabet, init, nxt, out).check()


# -------------------------------------------------------------- .chain

def serialize_chain(c):
    toks = token_map(c.states)
    lines = [f"chain {c.name}"]
    order = sorted(c.states, key=lambda s: toks[s])
    for s in order:
        flag = " accept" if s in c.accepting else ""
        lines.append(f"state {toks[s]}{flag}")
    lines.append(f"init {toks[c.init]}")
    for s in order:
        for d in DIRS:
            if (s, d) in c.delta:
                lines.append(f"edge {toks[s]} {d} {toks[c.delta[(s, d)]]}")
    return "\n".join(lines) + "\n"


def parse_chain(text, filename="<chain>"):
    r = _Reader(text, filename)
    name = r.header("chain")
    groups = _body_index(r, {"state", "init", "edge"})
    states, accepting = [], set()
    for lineno, fields in groups["state"]:
        if len(fields) not in (2, 3) or (len(fields) == 3
                                         and fields[2] != "accept"):
            r.fail(lineno, "expected `state <id> [accept]`")
        if fields[1] in states:
            r.fail(lineno, f"state {fields[1]} declared twice")
        states.append(fields[1])
        if len(fields) == 3:
            accepting.add(fields[1])
    lineno, fields = _single(r, groups, "init", "the initial state")
    if len(fields) != 2 or fields[1] not in states:
        r.fail(lineno, "expected `init <declared id>`")
    init = fields[1]
    delta = {}
    for lineno, fields in groups["edge"]:
        if len(fields) != 4 or fields[2] not in DIRS:
            r.fail(lineno, "expected `edge <src> l|r <dst>`")
        src, d, dst = fields[1], fields[2], fields[3]
        for s in (src, dst):
            if s not in states:
                r.fail(lineno, f"state {s} is not declared")
        if (src, d) in delta:
            r.fail(lineno, f"state {src} has two {d}-edges")
        delta[(src, d)] = dst
    return RegularAntichain(name, tuple(states), init, delta,
                            frozenset(accepting)).check()


# ---------------------------------------------------------------- .pta

def serialize_pta(a):
    _check_symbols(a.alphabet, "alphabet symbol")
    toks = token_map(a.states)
    lines = [f"pta {a.name}", "alphabet " + " ".join(a.alphabet)]
    order = sorted(a.states, key=lambda q: toks[q])
    lines += [f"state {toks[q]} color={a.color[q]}" for q in order]
    lines.append("init " + " ".join(sorted(toks[q] for q in a.initials)))
    for q, sym, ql, qr in sorted(a.delta,
                                 key=lambda tr: (toks[tr[0]], tr[1],
                                                 toks[tr[2]], toks[tr[3]])):
        lines.append(f"trans {toks[q]} {sym} {toks[ql]} {toks[qr]}")
    return "\n".join(lines) + "\n"


def parse_pta(text, filename="<pta>"):
    r = _Reader(text, filename)
    name = r.header("pta")
    groups = _body_index(r, {"alphabet", "state", "init", "trans"})
    lineno, fields = _single(r, groups, "alphabet", "the alphabet")
    alphabet = tuple(fields[1:])
    if not alphabet:
        r.fail(lineno, "alphabet must list at least one symbol")
    color = {}
    for lineno, fields in groups["state"]:
        if len(fields) != 3 or not fields[2].startswith("color="):
            r.fail(lineno, "expected `state <id> color=<nat>`")
        q, c = fields[1], fields[2][6:]
        if q in color:
            r.fail(lineno, f"state {q} declared twice")
        if not c.isdigit():
            r.fail(lineno, f"color {c!r} is not a natural number")
        color[q] = int(c)
    lineno, fields = _single(r, groups, "init", "the initial states")
    if len(fields) < 2:
        r.fail(lineno, "expected `init <id> [<id>...]`")
    for q in fields[1:]:
        if q not in color:
            r.fail(lineno, f"initial state {q} is not declared")
    initials = frozenset(fields[1:])
    delta = set()
    for lineno, fields in groups["trans"]:
        if len(fields) != 5:
            r.fail(lineno, "expected `trans <q> <sym> <ql> <qr>`")
        q, sym, ql, qr = fields[1:]
        for s in (q, ql, qr):
            if s not in color:
                r.fail(lineno, f"state {s} is not declared")
        if sym not in alphabet:
            r.fail(lineno, f"letter {sym!r} is not in the alphabet")
        delta.add((q, sym, ql, qr))
    return ParityTreeAutomaton(name, alphabet, frozenset(color), initials,
                               frozenset(delta), color).check()


# ---------------------------------------------------------------- .fta

def serialize_fta(f):
    _check_symbols(f.alphabet0, "leaf symbol")
    _check_symbols(f.alphabet2, "inner symbol")
    toks = token_map(f.states)
    lines = [f"fta {f.name}",
             "leafalpha " + " ".join(f.alphabet0),
             "innalpha " + " ".join(f.alphabet2)]
    lines += [f"state {toks[q]}"
              for q in sorted(f.states, key=lambda q: toks[q])]
    lines.append("init " + " ".join(sorted(toks[q] for q in f.initials)))
    for q, sym in sorted(f.delta0, key=lambda x: (toks[x[0]], x[1])):
        lines.append(f"leaf {toks[q]} {sym}")
    for q, sym, ql, qr in sorted(f.delta2,
                                 key=lambda tr: (toks[tr[0]], tr[1],
                                                 toks[tr[2]], toks[tr[3]])):
        lines.append(f"trans {toks[q]} {sym} {toks[ql]} {toks[qr]}")
    return "\n".join(lines) + "\n"


def parse_fta(text, filename="<fta>"):
    r = _Reader(text, filename)
    name = r.header("fta")
    groups = _body_index(r, {"leafalpha", "innalpha", "state", "init",
                             "leaf", "trans"})
    _, fields = _single(r, groups, "leafalpha", "the leaf alphabet")
    alphabet0 = tuple(fields[1:])
    _, fields = _single(r, groups, "innalpha", "the inner alphabet")
    alphabet2 = tuple(fields[1:])
    states = set()
    for lineno, fields in groups["state"]:
        if len(fields) != 2:
            r.fail(lineno, "expected `state <id>`")
        if fields[1] in states:
            r.fail(lineno, f"state {fields[1]} declared twice")
        states.add(fields[1])
    lineno, fields = _single(r, groups, "init", "the initial states")
    for q in fields[1:]:
        if q not in states:
            r.fail(lineno, f"initial state {q} is not declared")
    initials = frozenset(fields[1:])
    delta0, delta2 = set(), set()
    for lineno, fields in groups["leaf"]:
        if len(fields) != 3:
            r.fail(lineno, "expected `leaf <q> <sym>`")
        if fields[1] not in states:
            r.fail(lineno, f"state {fields[1]} is not declared")
        if fields[2] not in alphabet0:
            r.fail(lineno, f"symbol {fields[2]!r} is not a leaf symbol")
        delta0.add((fields[1], fields[2]))
    for lineno, fields in groups["trans"]:
        if len(fields) != 5:
            r.fail(lineno, "expected `trans <q> <sym> <ql> <qr>`")
        q, sym, ql, qr = fields[1:]
        for s in (q, ql, qr):
            if s not in states:
                r.fail(lineno, f"state {s} is not declared")
        if sym not in alphabet2:
            r.fail(lineno, f"symbol {sym!r} is not an inner symbol")
        delta2.add((q, sym, ql, qr))
    return FiniteTreeAutomaton(name, alphabet0, alphabet2, frozenset(states),
                               initials, frozenset(delta0),
                               frozenset(delta2)).check()


# -------------------------------------------------------------- .ftree

def serialize_ftree(tree):
    nodes = {}

    def walk(node, path):
        if isinstance(node, tuple) and len(node) == 3:
            nodes[path] = node[0]
            walk(node[1], path + "l")
            walk(node[2], path + "r")
        else:
            nodes[path] = node
    walk(tree, "")
    lines = [f"node {p or '-'} {nodes[p]}"
             for p in sorted(nodes, key=lambda p: (len(p), p))]
    return "\n".join(lines) + "\n"


def parse_ftree(text, filename="<ftree>"):
    r = _Reader(text, filename)
    nodes, at_line = {}, {}
    for lineno, fields, raw in r.rows:
        if len(fields) != 3 or fields[0] != "node":
            r.fail(lineno, "expected `node <path|-> <label>`")
        path = "" if fields[1] == "-" else fields[1]
        if any(d not in DIRS for d in path):
            r.fail(lineno, f"path {fields[1]!r} must be over l and r")
        if path in nodes:
            r.fail(lineno, f"node {fields[1]} given twice")
        nodes[path] = fields[2]
        at_line[path] = lineno
    if "" not in nodes:
        raise ParseError(filename, 0, "missing root `node - <label>`")
    used = set()

    def build(path):
        used.add(path)
        l, rr = path + "l", path + "r"
        if l in nodes or rr in nodes:
            for child in (l, rr):
                if child not in nodes:
                    r.fail(at_line[path],
                           f"node {path or '-'} lacks its {child[-1]}-child")
            return (nodes[path], build(l), build(rr))
        return nodes[path]

    tree = build("")
    for path in nodes:
        if path not in used:
            r.fail(at_line[path], f"node {path} is not reachable from the root")
    return tree


# ---------------------------------------------------------------- .game

def serialize_game(arena):
    toks = token_map(arena.owner)
    lines = [f"game {arena.name}"]
    order = sorted(arena.owner, key=lambda v: toks[v])
    for v in order:
        sink = " sink" if v in arena.sinks else ""
        lines.append(f"vertex {toks[v]} owner={arena.owner[v]} "
                     f"color={arena.color[v]}{sink}")
    if arena.init is not None:
        lines.append(f"init {toks[arena.init]}")
    for v in order:
        for w in arena.edges.get(v, ()):
            lines.append(f"edge {toks[v]} {toks[w]}")
    return "\n".join(lines) + "\n"


def parse_game(text, filename="<game>"):
    r = _Reader(text, filename)
    name = r.header("game")
    groups = _body_index(r, {"vertex", "init", "edge"})
    owner, color, sinks = {}, {}, set()
    for lineno, fields in groups["vertex"]:
        rest = fields[2:]
        flags = dict(f.split("=", 1) for f in rest if "=" in f)
        extra = [f for f in rest if "=" not in f]
        if (len(fields) < 4 or set(flags) != {"owner", "color"}
                or extra not in ([], ["sink"])):
            r.fail(lineno,
                   "expected `vertex <id> owner=A|P color=<nat> [sink]`")
        v = fields[1]
        if v in owner:
            r.fail(lineno, f"vertex {v} declared twice")
        if flags["owner"] not in (AUTOMATON, PATHFINDER):
            r.fail(lineno, f"owner must be A or P, got {flags['owner']!r}")
        if not flags["color"].isdigit():
            r.fail(lineno, f"color {flags['color']!r} is not a natural number")
        owner[v] = flags["owner"]
        color[v] = int(flags["color"])
        if extra:
            sinks.add(v)
    init = None
    if groups["init"]:
        lineno, fields = _single(r, groups, "init", "the initial vertex")
        if len(fields) != 2 or fields[1] not in owner:
            r.fail(lineno, "expected `init <declared vertex>`")
        init = fields[1]
    edges = {v: [] for v in owner}
    for lineno, fields in groups["edge"]:
        if len(fields) != 3:
            r.fail(lineno, "expected `edge <u> <v>`")
        u, v = fields[1], fields[2]
        for s in (u, v):
            if s not in owner:
                r.fail(lineno, f"vertex {s} is not declared")
        edges[u].append(v)
    edges = {v: tuple(ws) for v, ws in edges.items()}
    try:
        return ParityGameArena(name, owner, color, edges,
                               frozenset(sinks), init).check()
    except TreeambError as e:
        raise ParseError(filename, 0, str(e))


# --------------------------------------------------------------- .moore

def serialize_moore(m):
    _check_symbols(m.inputs, "input symbol")
    _check_symbols(m.outputs, "output symbol")
    toks = token_map(m.states)
    lines = [f"moore {m.name}",
             "inputs " + " ".join(m.inputs),
             "outputs " + " ".join(m.outputs)]
    order = sorted(m.states, key=lambda s: toks[s])
    lines += [f"state {toks[s]} out={m.out[s]}" for s in order]
    lines.append(f"init {toks[m.init]}")
    for s in order:
        for a in m.inputs:
            lines.append(f"edge {toks[s]} {a} {toks[m.delta[(s, a)]]}")
    return "\n".join(lines) + "\n"


def parse_moore(text, filename="<moore>"):
    r = _Reader(text, filename)
    name = r.header("moore")
    groups = _body_index(r, {"inputs", "outputs", "state", "init", "edge"})
    _, fields = _single(r, groups, "inputs", "the input alphabet")
    inputs = tuple(fields[1:])
    _, fields = _single(r, groups, "outputs", "the output alphabet")
    outputs = tuple(fields[1:])
    out, states = {}, []
    for lineno, fields in groups["state"]:
        if len(fields) != 3 or not fields[2].startswith("out="):
            r.fail(lineno, "expected `state <id> out=<sym>`")
        s, sym = fields[1], fields[2][4:]
        if s in out:
            r.fail(lineno, f"state {s} declared twice")
        if sym not in outputs:
            r.fail(lineno, f"output {sym!r} is not declared")
        out[s] = sym
        states.append(s)
    lineno, fields = _single(r, groups, "init", "the initial state")
    if len(fields) != 2 or fields[1] not in out:
        r.fail(lineno, "expected `init <declared id>`")
    init = fields[1]
    delta = {}
    for lineno, fields in groups["edge"]:
        if len(fields) != 4:
            r.fail(lineno, "expected `edge <src> <input> <dst>`")
        src, a, dst = fields[1], fields[2], fields[3]
        for s in (src, dst):
            if s not in out:
                r.fail(lineno, f"state {s} is not declared")
        if a not in inputs:
            r.fail(lineno, f"input {a!r} is not declared")
        if (src, a) in delta:
            r.fail(lineno, f"state {src} has two edges on {a!r}")
        delta[(src, a)] = dst
    for s in states:
        for a in inputs:
            if (s, a) not in delta:
                raise ParseError(filename, 0,
                                 f"state {s} lacks an edge on {a!r}")
    return MooreMachine(name, inputs, outputs, tuple(states), init,
                        delta, out).check()


# ------------------------------------------------------------- run files

def serialize_run(run):
    toks = token_map(run.automaton.states)
    mach = run.machine
    relabeled = RegularTree(mach.name, tuple(sorted(toks.values())),
                            mach.init, dict(mach.next),
                            {s: toks[mach.out[s]] for s in mach.out})
    header = f"run of={run.automaton.name} on={run.tree.name}\n"
    return header + serialize_mtree(relabeled)


def parse_run(text, filename="<run>"):
    """Header names plus the run machine over printable state tokens.

    Returns (of_name, on_name, machine); bind_run attaches the machine to
    a concrete automaton and tree.
    """
    lines = text.splitlines()
    if not lines or not lines[0].split() or lines[0].split()[0] != "run":
        raise ParseError(filename, 1, "expected `run of=<pta> on=<tree>`")
    head = lines[0].split(None, 1)[1] if len(lines[0].split(None, 1)) > 1 else ""
    if not head.startswith("of=") or " on=" not in head:
        raise ParseError(filename, 1, "expected `run of=<pta> on=<tree>`")
    of_name, on_name = head[3:].rsplit(" on=", 1)
    machine = parse_mtree("\n".join(lines[1:]), filename)
    return of_name, on_name, machine


def bind_run(machine, automaton, tree):
    """Interpret a parsed run machine against an automaton and a tree."""
    toks = token_map(automaton.states)
    back = {tok: q for q, tok in toks.items()}
    missing = [sym for sym in machine.alphabet if sym not in back]
    if missing:
        raise ParseError(machine.name, 0,
                         f"run states {missing} are not states of "
                         f"{automaton.name}")
    mach = RegularTree(machine.name, tuple(sorted(automaton.states, key=str)),
                       machine.init, dict(machine.next),
                       {s: back[machine.out[s]] for s in machine.out})
    return run_check(RegularRun(automaton, tree, mach))


# --------------------------------------------------------------- .straj

def serialize_straj(strj):
    a = strj.automaton
    toks = token_map(a.states)
    mtoks = token_map(strj.states)
    lines = [f"straj {strj.name} of={a.name}"]
    order = sorted(strj.states, key=lambda s: mtoks[s])
    lines += [f"state {mtoks[s]}" for s in order]
    lines.append(f"init {mtoks[strj.init]}")
    for s in order:
        for d in DIRS:
            lines.append(f"edge {mtoks[s]} {d} {mtoks[strj.next[(s, d)]]}")
    for s in order:
        for (ql, qr) in sorted(strj.out[s], key=lambda p: (toks[p[0]],
                                                           toks[p[1]])):
            lines.append(f"out {mtoks[s]} {toks[ql]} {toks[qr]} "
                         f"{strj.out[s][(ql, qr)]}")
    return "\n".join(lines) + "\n"


def parse_straj(text, filename="<straj>"):
    """Returns (name, of_name, init, next, raw out) over printable tokens."""
    r = _Reader(text, filename)
    header = r.header("straj")
    if " of=" not in " " + header:
        raise ParseError(filename, 1, "expected `straj <name> of=<pta>`")
    name, of_name = (" " + header).rsplit(" of=", 1)
    name = name.strip()
    groups = _body_index(r, {"state", "init", "edge", "out"})
    states = []
    for lineno, fields in groups["state"]:
        if len(fields) != 2:
            r.fail(lineno, "expected `state <id>`")
        if fields[1] in states:
            r.fail(lineno, f"state {fields[1]} declared twice")
        states.append(fields[1])
    lineno, fields = _single(r, groups, "init", "the initial state")
    if len(fields) != 2 or fields[1] not in states:
        r.fail(lineno, "expected `init <declared id>`")
    init = fields[1]
    nxt = {}
    for lineno, fields in groups["edge"]:
        if len(fields) != 4 or fields[2] not in DIRS:
            r.fail(lineno, "expected `edge <src> l|r <dst>`")
        src, d, dst = fields[1], fields[2], fields[3]
        for s in (src, dst):
            if s not in states:
                r.fail(lineno, f"state {s} is not declared")
        nxt[(src, d)] = dst
    for s in states:
        for d in DIRS:
            if (s, d) not in nxt:
                raise ParseError(filename, 0, f"state {s} lacks a {d}-edge")
    out = {s: {} for s in states}
    for lineno, fields in groups["out"]:
        if len(fields) != 5 or fields[4] not in DIRS:
            r.fail(lineno, "expected `out <state> <ql> <qr> l|r`")
        s, ql, qr, d = fields[1:]
        if s not in states:
            r.fail(lineno, f"state {s} is not declared")
        out[s][(ql, qr)] = d
    return name, of_name, init, nxt, out


def bind_straj(parsed, automaton):
    """Attach a parsed strategy to its automaton, checking totality."""
    name, _, init, nxt, rawout = parsed
    toks = token_map(automaton.states)
    back = {tok: q for q, tok in toks.items()}
    out = {}
    for s, table in rawout.items():
        out[s] = {}
        for (ql, qr), d in table.items():
            if ql not in back or qr not in back:
                raise ParseError(name, 0,
                                 f"out entry ({ql},{qr}) of state {s} is not "
                                 f"over states of {automaton.name}")
            out[s][(back[ql], back[qr])] = d
        if len(out[s]) != len(automaton.states) ** 2:
            raise ParseError(name, 0, f"out map of state {s} is not total")
    return PathfinderStrategyTree(name, automaton, init, nxt, out)


# ------------------------------------------------------ rep directories

def save_rep(rep, dirpath):
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, "rep.fta"), "w") as fh:
        fh.write(serialize_fta(rep.fta))
    manifest = ["fta rep.fta"]
    for var in sorted(rep.subs):
        fname = f"{var}.mtree"
        with open(os.path.join(dirpath, fname), "w") as fh:
            fh.write(serialize_mtree(rep.subs[var]))
        manifest.append(f"tree {var} {fname}")
    with open(os.path.join(dirpath, "rep"), "w") as fh:
        fh.write("\n".join(manifest) + "\n")


def load_rep(dirpath):
    manifest = os.path.join(dirpath, "rep")
    if not os.path.exists(manifest):
        raise ParseError(manifest, 0, "missing rep manifest")
    with open(manifest) as fh:
        text = fh.read()
    fta, subs = None, {}
    for i, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "fta" and len(fields) == 2:
            with open(os.path.join(dirpath, fields[1])) as fh:
                fta = parse_fta(fh.read(), fields[1])
        elif fields[0] == "tree" and len(fields) == 3:
            with open(os.path.join(dirpath, fields[2])) as fh:
                subs[fields[1]] = parse_mtree(fh.read(), fields[2])
        else:
            raise ParseError(manifest, i,
                             "expected `fta <file>` or `tree <var> <file>`")
    if fta is None:
        raise ParseError(manifest, 0, "manifest names no fta")
    return NiwinskiRepresentation(os.path.basename(os.path.abspath(dirpath)),
                                  fta, subs)


# ------------------------------------------------------------- verdicts

def verdict_to_json(verdict):
    doc = {"verdict": verdict.kind}
    if verdict.n is not None:
        doc["n"] = verdict.n
    if verdict.witness is not None:
        w = verdict.witness
        doc["witness"] = {
            "vertex": str(w.vertex),
            "fragment": [[str(u), str(v)]
                         for u, v in zip(w.spine, w.spine[1:])],
            "runs": [serialize_run(r) for r in w.runs],
        }
    return json.dumps(doc, sort_keys=True, indent=2)


# ------------------------------------------------------------------ DOT

def game_to_dot(arena, analysis=None):
    """GraphViz rendering: box = Automaton, diamond = Pathfinder, label
    id:color; with an analysis, winning regions are filled and strategy
    edges drawn bold."""
    toks = token_map(arena.owner)
    won = analysis.region[AUTOMATON] if analysis else frozenset()
    bold = set()
    if analysis:
        for p in (AUTOMATON, PATHFINDER):
            for v, w in analysis.strategy[p].items():
                bold.add((v, w))
    lines = [f'digraph "{arena.name}" {{']
    for v in sorted(arena.owner, key=lambda v: toks[v]):
        shape = "box" if arena.owner[v] == AUTOMATON else "diamond"
        attrs = [f"shape={shape}", f'label="{toks[v]}:{arena.color[v]}"']
        if analysis:
            attrs.append("style=filled")
            attrs.append("fillcolor=" +
                         ("lightblue" if v in won else "lightpink"))
        lines.append(f'  "{toks[v]}" [{", ".join(attrs)}];')
    for v in sorted(arena.owner, key=lambda v: toks[v]):
        for w in arena.edges.get(v, ()):
            attr = " [penwidth=2.5]" if (v, w) in bold else ""
            lines.append(f'  "{toks[v]}" -> "{toks[w]}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"
