"""Spans around the calls one treeamb module makes into another.

The tracer rebinds names in treeamb's module namespaces (and the CLI's
parser table, and ParityTreeAutomaton.moves) to wrappers that record a
span: name, start, end, parent span and decision id.  Nothing under src/
changes; uninstall() puts every original back.

Spans stay in memory until the run ends.  The one hot leaf,
ParityTreeAutomaton.moves (called once per product vertex), is not kept
span by span: its calls and time are summed into the enclosing span, which
keeps memory flat while self times stay exact.
"""

import inspect
import json
import time
from collections import defaultdict

LAYERS = ("formats", "trees", "automata", "membership", "games",
          "ambiguity", "cli")

# Same-module calls worth a span of their own; everything bound across
# modules is wrapped without being listed.
LOCAL = {
    "ambiguity": ("classify", "is_k_ambiguous", "emptiness",
                  "k_distinct_runs_automaton", "_RunCounts", "_find_witness",
                  "_residual_runs", "witness_is_valid"),
    "membership": ("_product_arena", "build_game", "member", "run_check",
                   "run_is_accepting"),
    "games": ("solve", "strongly_connected_components"),
    "trees": ("build_tree", "tree_equal"),
    "formats": ("parse_pta", "parse_mtree"),
    "cli": ("run",),
}

def _arena_size(arena):
    return len(arena.owner), sum(len(e) for e in arena.edges.values())


# span name -> function(args, result) -> {counter: amount}
SIZES = {
    "membership._product_arena":
        lambda args, res: dict(zip(("arena_vertices", "arena_edges"),
                                   _arena_size(res[0]))),
    "games.solve": lambda args, res: {
        "solve_vertices": len(args[0].owner),
        "max_color": max(args[0].color.values(), default=0)},
    "ambiguity.k_distinct_runs_automaton": lambda args, res: {
        "k_distinct_states": len(res.states),
        "k_distinct_transitions": len(res.delta)},
    "ambiguity._RunCounts": lambda args, res: {"reach_vertices": len(res.reach)},
    "formats.parse_pta": lambda args, res: {"bytes_parsed": len(args[0])},
    "formats.parse_mtree": lambda args, res: {"bytes_parsed": len(args[0])},
}


class Tracer:
    """Records spans while installed.  Set .decision before each call."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, decision, moves_s]
        self.sizes = []        # {counter: amount} per sized span
        self.moves_calls = 0
        self.decision = None
        self._open = []
        self._undo = []

    # -------------------------------------------------------- recording

    def _wrap(self, name, fn):
        spans, sizes, open_ = self.spans, self.sizes, self._open
        clock = time.perf_counter
        size_of = SIZES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None,
                          open_[-1] if open_ else -1, self.decision, 0.0])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = clock()
            if size_of is not None:
                sizes.append(size_of(args, result))
            return result

        return traced

    def _wrap_moves(self, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def moves(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                self.moves_calls += 1
                if open_:
                    spans[open_[-1]][5] += clock() - start

        return moves

    # ------------------------------------------------------- installing

    def install(self, modules):
        """Wrap every cross-module function binding, the LOCAL names, the
        CLI's parser table and ParityTreeAutomaton.moves."""
        own = {m.__name__: layer for layer, m in modules.items()}
        targets = {}
        for layer, m in modules.items():
            for attr, val in vars(m).items():
                if (inspect.isfunction(val) and val.__module__ in own
                        and val.__module__ != m.__name__):
                    targets[val] = f"{own[val.__module__]}.{val.__name__}"
            for attr in LOCAL.get(layer, ()):
                targets[getattr(m, attr)] = f"{layer}.{attr}"
        wrapped = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        for m in modules.values():
            for attr, val in list(vars(m).items()):
                if callable(val) and val in wrapped:
                    self._rebind(m.__dict__, attr, wrapped[val])
        table = modules["cli"]._PARSERS
        for ext, fn in list(table.items()):
            if fn in wrapped:
                self._rebind(table, ext, wrapped[fn])
        cls = modules["automata"].ParityTreeAutomaton
        self._undo.append((cls, "moves", cls.moves))
        cls.moves = self._wrap_moves(cls.moves)

    def _rebind(self, namespace, key, value):
        self._undo.append((namespace, key, namespace[key]))
        namespace[key] = value

    def uninstall(self):
        for target, key, value in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._undo.clear()

    # --------------------------------------------------------- reducing

    def layer_report(self, decision_times):
        """Per-layer metrics, each a mean per traced decision unless its
        name says otherwise, plus the self-time check."""
        n = len(decision_times)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, moves_s in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        incl = defaultdict(float)
        calls = defaultdict(int)
        run_check_s = 0.0
        moves_s_total = 0.0
        for i, (name, start, end, parent, _, moves_s) in enumerate(self.spans):
            dur = end - start
            self_s[name.split(".")[0]] += dur - child[i] - moves_s
            moves_s_total += moves_s
            incl[name] += dur
            calls[name] += 1
            if name in ("membership.run_check", "membership.run_is_accepting") \
                    and (parent < 0 or self.spans[parent][0] not in (
                        "membership.run_check", "membership.run_is_accepting")):
                run_check_s += dur
        self_s["automata"] += moves_s_total
        counters = defaultdict(int)
        max_color = 0
        for size in self.sizes:
            for key, amount in size.items():
                if key == "max_color":
                    max_color = max(max_color, amount)
                else:
                    counters[key] += amount
        decided = sum(decision_times)
        attributed = sum(self_s.values())
        per = 1.0 / n
        vertices = counters["arena_vertices"] + counters["k_distinct_states"]
        m = {f"{layer}.self_s": self_s[layer] * per for layer in LAYERS}
        m.update({f"{layer}.self_share": self_s[layer] / decided
                  for layer in LAYERS})
        m.update({
            "ambiguity.run_counts_builds": calls["ambiguity._RunCounts"] * per,
            "ambiguity.reach_vertices": counters["reach_vertices"] * per,
            "ambiguity.k_distinct_s":
                incl["ambiguity.k_distinct_runs_automaton"] * per,
            "ambiguity.k_distinct_states": counters["k_distinct_states"] * per,
            "ambiguity.k_distinct_transitions":
                counters["k_distinct_transitions"] * per,
            "ambiguity.witness_check_s":
                incl["ambiguity.witness_is_valid"] * per,
            "ambiguity.emptiness_s": incl["ambiguity.emptiness"] * per,
            "games.scc_s": incl["games.strongly_connected_components"] * per,
            "games.scc_calls":
                calls["games.strongly_connected_components"] * per,
            "membership.product_s": incl["membership._product_arena"] * per,
            "membership.product_builds": calls["membership._product_arena"],
            "membership.product_builds_per_decision":
                calls["membership._product_arena"] * per,
            "membership.arena_vertices": counters["arena_vertices"] * per,
            "membership.arena_edges": counters["arena_edges"] * per,
            "membership.run_check_s": run_check_s * per,
            "automata.moves_calls": self.moves_calls * per,
            "automata.moves_s": moves_s_total * per,
            "automata.moves_per_vertex":
                self.moves_calls / vertices if vertices else 0.0,
            "games.solve_s": incl["games.solve"] * per,
            "games.solve_calls": calls["games.solve"],
            "games.solve_calls_per_decision": calls["games.solve"] * per,
            "games.solve_vertices": counters["solve_vertices"] * per,
            "games.max_color": max_color,
            "trees.build_tree_s": incl["trees.build_tree"] * per,
            "trees.build_tree_calls": calls["trees.build_tree"] * per,
            "trees.tree_equal_s": incl["trees.tree_equal"] * per,
            "trees.tree_equal_calls": calls["trees.tree_equal"] * per,
            "formats.parse_s": (incl["formats.parse_pta"]
                                + incl["formats.parse_mtree"]) * per,
            "formats.bytes_parsed": counters["bytes_parsed"] * per,
            "trace.decisions": n,
            "trace.decision_s": decided * per,
            "trace.spans": len(self.spans),
            "trace.unattributed_share": 1.0 - attributed / decided,
        })
        return m

    def write(self, path):
        """All kept spans, one JSON object a line."""
        with open(path, "w") as fh:
            for name, start, end, parent, decision, moves_s in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "decision": decision,
                    "moves_s": moves_s}) + "\n")
