"""Line-oriented text formats, JSON verdicts and DOT export.

Every serializer emits lines in a canonical order (header, alphabets,
states, init, edges/transitions, each block sorted by the written tokens)
so that parse followed by serialize reproduces a serializer-written file
byte for byte.  States whose str() forms are unique and whitespace-free
are written as-is; anything else (tuples, mostly) is renamed q0, q1, ...
in str-sorted order, repr breaking ties, consistently across an automaton
and any runs or strategies serialized against it.
"""

import contextlib
import json
import os

from .automata import FiniteTreeAutomaton, ParityTreeAutomaton
from .errors import ParseError, TreeambError
from .games import AUTOMATON, PATHFINDER, ParityGameArena, name_key
from .membership import PathfinderStrategyTree, RegularRun, run_check
from .trees import DIRS, MooreMachine, RegularAntichain, RegularTree
from .zoo import NiwinskiRepresentation


def token_map(items):
    """Canonical printable name for each item (see module docstring)."""
    items = sorted(items, key=name_key)
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
    """The non-blank lines of a file as (lineno, fields, raw) triples, and
    the row shapes that several formats share."""

    def __init__(self, text, filename):
        self.filename = filename
        self.rows = [(i, fields, line)
                     for i, line in enumerate(text.splitlines(), 1)
                     if (fields := line.split())]

    def fail(self, lineno, message):
        raise ParseError(self.filename, lineno, message)

    def header(self, keyword, form=None):
        """Consume the first row, `<keyword> <rest>`, and return rest; its
        line number stays in self.head.  form is the expected row."""
        form = form or f"{keyword} <name>"
        if not self.rows:
            raise ParseError(self.filename, 1, f"expected `{form}`")
        self.head, fields, raw = self.rows.pop(0)
        if fields[0] != keyword or len(fields) < 2:
            self.fail(self.head, f"expected `{form}`, got {raw.strip()!r}")
        return raw.split(None, 1)[1].strip()

    def groups(self, allowed):
        """The remaining rows as (lineno, fields), grouped by directive;
        any other directive is rejected."""
        groups = {k: [] for k in allowed}
        for lineno, fields, _ in self.rows:
            group = groups.get(fields[0])
            if group is None:
                self.fail(lineno, f"expected one of {sorted(allowed)}, "
                                  f"got {fields[0]!r}")
            group.append((lineno, fields))
        return groups

    def single(self, groups, key, what):
        if not groups[key]:
            raise ParseError(self.filename, 0, f"missing `{key}` ({what})")
        if len(groups[key]) > 1:
            self.fail(groups[key][1][0], f"duplicate `{key}` line")
        return groups[key][0]

    def known(self, lineno, names, declared):
        for s in names:
            if s not in declared:
                self.fail(lineno, f"state {s} is not declared")

    def ids(self, rows, attr=None):
        """{id: value} of the `state` rows, in file order: each row is
        `state <id>` (value None), or with attr `state <id> <attr>=<value>`.
        """
        form = "state <id>" + (f" {attr}=<value>" if attr else "")
        found = {}
        for lineno, fields in rows:
            if attr is None:
                ok = len(fields) == 2
            else:
                ok = len(fields) == 3 and fields[2].startswith(attr + "=")
            if not ok:
                self.fail(lineno, f"expected `{form}`")
            if fields[1] in found:
                self.fail(lineno, f"state {fields[1]} declared twice")
            found[fields[1]] = fields[2][len(attr) + 1:] if attr else None
        return found

    def init(self, groups, declared):
        """The one id of the `init <id>` row."""
        lineno, fields = self.single(groups, "init", "the initial state")
        if len(fields) != 2:
            self.fail(lineno, "expected `init <id>`")
        self.known(lineno, fields[1:], declared)
        return fields[1]

    def edges(self, rows, declared, letters, total):
        """{(src, letter): dst} of `edge <src> <letter> <dst>` rows, at
        most one per (src, letter); total demands exactly one for every
        declared state and letter."""
        nxt = {}
        for lineno, fields in rows:
            if len(fields) != 4:
                self.fail(lineno, "expected `edge <src> <letter> <dst>`")
            _, src, x, dst = fields
            if x not in letters:
                self.fail(lineno, f"letter {x!r} is not in {letters}")
            if src not in declared or dst not in declared:
                self.known(lineno, (src, dst), declared)
            key = (src, x)
            if key in nxt:
                self.fail(lineno, f"state {src} has two {x}-edges")
            nxt[key] = dst
        # the keys are distinct (declared state, letter) pairs, so a total
        # machine has one per pair
        if total and len(nxt) != len(declared) * len(set(letters)):
            s, x = next((s, x) for s in declared for x in letters
                        if (s, x) not in nxt)
            raise ParseError(self.filename, 0, f"state {s} lacks a {x}-edge")
        return nxt

    def transitions(self, rows, declared, letters):
        """The set of (q, sym, ql, qr) of `trans <q> <sym> <ql> <qr>` rows,
        each at most once."""
        delta = set()
        for lineno, fields in rows:
            if len(fields) != 5:
                self.fail(lineno, "expected `trans <q> <sym> <ql> <qr>`")
            _, q, sym, ql, qr = fields
            if q not in declared or ql not in declared or qr not in declared:
                self.known(lineno, (q, ql, qr), declared)
            if sym not in letters:
                self.fail(lineno, f"letter {sym!r} is not in {letters}")
            if (q, sym, ql, qr) in delta:
                self.fail(lineno, f"transition {q} {sym} {ql} {qr} listed twice")
            delta.add((q, sym, ql, qr))
        return frozenset(delta)


def _edge_lines(toks, order, letters, nxt):
    """`edge` rows of a machine, by state then letter."""
    return [f"edge {toks[s]} {x} {toks[nxt[(s, x)]]}"
            for s in order for x in letters if (s, x) in nxt]


def _trans_lines(toks, delta):
    """`trans` rows, sorted by their written tokens."""
    return ["trans " + " ".join(row) for row in
            sorted((toks[q], sym, toks[ql], toks[qr])
                   for q, sym, ql, qr in delta)]


# -------------------------------------------------------------- .mtree

def serialize_mtree(t):
    _check_symbols(t.alphabet, "alphabet symbol")
    toks = token_map(t.out)
    lines = [f"mtree {t.name}", "alphabet " + " ".join(t.alphabet)]
    order = sorted(t.out, key=lambda s: toks[s])
    lines += [f"state {toks[s]} out={t.out[s]}" for s in order]
    lines.append(f"init {toks[t.init]}")
    lines += _edge_lines(toks, order, DIRS, t.next)
    return "\n".join(lines) + "\n"


def parse_mtree(text, filename="<mtree>"):
    return _mtree(_Reader(text, filename))


def _mtree(r):
    name = r.header("mtree")
    groups = r.groups({"alphabet", "state", "init", "edge"})
    lineno, fields = r.single(groups, "alphabet", "the label alphabet")
    alphabet = tuple(fields[1:])
    if not alphabet:
        r.fail(lineno, "alphabet must list at least one symbol")
    out = r.ids(groups["state"], "out")
    for (lineno, _), sym in zip(groups["state"], out.values()):
        if sym not in alphabet:
            r.fail(lineno, f"label {sym!r} is not in the alphabet")
    init = r.init(groups, out)
    nxt = r.edges(groups["edge"], out, DIRS, total=True)
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
    lines += _edge_lines(toks, order, DIRS, c.delta)
    return "\n".join(lines) + "\n"


def parse_chain(text, filename="<chain>"):
    r = _Reader(text, filename)
    name = r.header("chain")
    groups = r.groups({"state", "init", "edge"})
    states, accepting = [], set()
    for lineno, fields in groups["state"]:
        if len(fields) < 2 or fields[2:] not in ([], ["accept"]):
            r.fail(lineno, "expected `state <id> [accept]`")
        if fields[1] in states:
            r.fail(lineno, f"state {fields[1]} declared twice")
        states.append(fields[1])
        if fields[2:]:
            accepting.add(fields[1])
    init = r.init(groups, states)
    delta = r.edges(groups["edge"], states, DIRS, total=False)
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
    lines += _trans_lines(toks, a.delta)
    return "\n".join(lines) + "\n"


def parse_pta(text, filename="<pta>"):
    r = _Reader(text, filename)
    name = r.header("pta")
    groups = r.groups({"alphabet", "state", "init", "trans"})
    lineno, fields = r.single(groups, "alphabet", "the alphabet")
    alphabet = tuple(fields[1:])
    if not alphabet:
        r.fail(lineno, "alphabet must list at least one symbol")
    color = r.ids(groups["state"], "color")
    for (lineno, _), (q, c) in zip(groups["state"], color.items()):
        if not c.isdigit():
            r.fail(lineno, f"color {c!r} is not a natural number")
        color[q] = int(c)
    lineno, fields = r.single(groups, "init", "the initial states")
    if len(fields) < 2:
        r.fail(lineno, "expected `init <id> [<id>...]`")
    r.known(lineno, fields[1:], color)
    delta = r.transitions(groups["trans"], color, alphabet)
    return ParityTreeAutomaton(name, alphabet, frozenset(color),
                               frozenset(fields[1:]), delta, color).check()


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
    lines += _trans_lines(toks, f.delta2)
    return "\n".join(lines) + "\n"


def parse_fta(text, filename="<fta>"):
    r = _Reader(text, filename)
    name = r.header("fta")
    groups = r.groups({"leafalpha", "innalpha", "state", "init", "leaf",
                       "trans"})
    _, fields = r.single(groups, "leafalpha", "the leaf alphabet")
    alphabet0 = tuple(fields[1:])
    _, fields = r.single(groups, "innalpha", "the inner alphabet")
    alphabet2 = tuple(fields[1:])
    states = r.ids(groups["state"])
    lineno, fields = r.single(groups, "init", "the initial states")
    r.known(lineno, fields[1:], states)
    initials = frozenset(fields[1:])
    delta0 = set()
    for lineno, fields in groups["leaf"]:
        if len(fields) != 3:
            r.fail(lineno, "expected `leaf <q> <sym>`")
        r.known(lineno, fields[1:2], states)
        if fields[2] not in alphabet0:
            r.fail(lineno, f"symbol {fields[2]!r} is not a leaf symbol")
        if (fields[1], fields[2]) in delta0:
            r.fail(lineno, f"leaf {fields[1]} {fields[2]} listed twice")
        delta0.add((fields[1], fields[2]))
    delta2 = r.transitions(groups["trans"], states, alphabet2)
    return FiniteTreeAutomaton(name, alphabet0, alphabet2, frozenset(states),
                               initials, frozenset(delta0), delta2).check()


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
    for lineno, fields in r.groups({"node"})["node"]:
        if len(fields) != 3:
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
    groups = r.groups({"vertex", "init", "edge"})
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
        lineno, fields = r.single(groups, "init", "the initial vertex")
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
    lines += _edge_lines(toks, order, m.inputs, m.delta)
    return "\n".join(lines) + "\n"


def parse_moore(text, filename="<moore>"):
    r = _Reader(text, filename)
    name = r.header("moore")
    groups = r.groups({"inputs", "outputs", "state", "init", "edge"})
    _, fields = r.single(groups, "inputs", "the input alphabet")
    inputs = tuple(fields[1:])
    _, fields = r.single(groups, "outputs", "the output alphabet")
    outputs = tuple(fields[1:])
    out = r.ids(groups["state"], "out")
    for (lineno, _), sym in zip(groups["state"], out.values()):
        if sym not in outputs:
            r.fail(lineno, f"output {sym!r} is not declared")
    init = r.init(groups, out)
    delta = r.edges(groups["edge"], out, inputs, total=True)
    return MooreMachine(name, inputs, outputs, tuple(out), init,
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
    r = _Reader(text, filename)
    form = "run of=<pta> on=<tree>"
    head = r.header("run", form)
    if not head.startswith("of=") or " on=" not in head:
        r.fail(r.head, f"expected `{form}`")
    of_name, on_name = head[3:].rsplit(" on=", 1)
    return of_name, on_name, _mtree(r)


def bind_run(machine, automaton, tree, filename="<run>"):
    """Interpret a parsed run machine against an automaton and a tree;
    errors name filename, the file the machine was read from."""
    toks = token_map(automaton.states)
    back = {tok: q for q, tok in toks.items()}
    missing = [sym for sym in machine.alphabet if sym not in back]
    if missing:
        raise ParseError(filename, 0,
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
    lines += _edge_lines(mtoks, order, DIRS, strj.next)
    for s in order:
        for (ql, qr) in sorted(strj.out[s], key=lambda p: (toks[p[0]],
                                                           toks[p[1]])):
            lines.append(f"out {mtoks[s]} {toks[ql]} {toks[qr]} "
                         f"{strj.out[s][(ql, qr)]}")
    return "\n".join(lines) + "\n"


def parse_straj(text, filename="<straj>"):
    """Returns (name, of_name, init, next, raw out) over printable tokens."""
    r = _Reader(text, filename)
    form = "straj <name> of=<pta>"
    header = r.header("straj", form)
    if " of=" not in " " + header:
        r.fail(r.head, f"expected `{form}`")
    name, of_name = (" " + header).rsplit(" of=", 1)
    name = name.strip()
    groups = r.groups({"state", "init", "edge", "out"})
    states = r.ids(groups["state"])
    init = r.init(groups, states)
    nxt = r.edges(groups["edge"], states, DIRS, total=True)
    out = {s: {} for s in states}
    for lineno, fields in groups["out"]:
        if len(fields) != 5 or fields[4] not in DIRS:
            r.fail(lineno, "expected `out <state> <ql> <qr> l|r`")
        s, ql, qr, d = fields[1:]
        r.known(lineno, (s,), states)
        if (ql, qr) in out[s]:
            r.fail(lineno, f"state {s} has two out rows for {ql} {qr}")
        out[s][(ql, qr)] = d
    return name, of_name, init, nxt, out


def bind_straj(parsed, automaton, filename="<straj>"):
    """Attach a parsed strategy to its automaton, checking totality; errors
    name filename, the file the strategy was read from."""
    name, _, init, nxt, rawout = parsed
    toks = token_map(automaton.states)
    back = {tok: q for q, tok in toks.items()}
    out = {}
    for s, table in rawout.items():
        out[s] = {}
        for (ql, qr), d in table.items():
            if ql not in back or qr not in back:
                raise ParseError(filename, 0,
                                 f"out entry ({ql},{qr}) of state {s} is not "
                                 f"over states of {automaton.name}")
            out[s][(back[ql], back[qr])] = d
        if len(out[s]) != len(automaton.states) ** 2:
            raise ParseError(filename, 0,
                             f"out map of state {s} is not total")
    return PathfinderStrategyTree(name, automaton, init, nxt, out)


# ------------------------------------------------------------ file I/O

@contextlib.contextmanager
def _os_errors(path):
    """An OSError on path becomes ParseError(path, 0, ...): exit code 2."""
    try:
        yield
    except OSError as e:
        raise ParseError(path, 0, e.strerror or str(e)) from None


def read_file(path):
    with _os_errors(path), open(path) as fh:
        return fh.read()


def write_file(path, text):
    with _os_errors(path), open(path, "w") as fh:
        fh.write(text)


def save_rep(rep, dirpath):
    with _os_errors(dirpath):
        os.makedirs(dirpath, exist_ok=True)
    write_file(os.path.join(dirpath, "rep.fta"), serialize_fta(rep.fta))
    manifest = ["fta rep.fta"]
    for var in sorted(rep.subs):
        fname = f"{var}.mtree"
        write_file(os.path.join(dirpath, fname),
                   serialize_mtree(rep.subs[var]))
        manifest.append(f"tree {var} {fname}")
    write_file(os.path.join(dirpath, "rep"), "\n".join(manifest) + "\n")


def load_rep(dirpath):
    manifest = os.path.join(dirpath, "rep")
    fta, subs = None, {}
    for i, line in enumerate(read_file(manifest).splitlines(), 1):
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "fta" and len(fields) == 2:
            fta = parse_fta(read_file(os.path.join(dirpath, fields[1])),
                            fields[1])
        elif fields[0] == "tree" and len(fields) == 3:
            subs[fields[1]] = parse_mtree(
                read_file(os.path.join(dirpath, fields[2])), fields[2])
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
