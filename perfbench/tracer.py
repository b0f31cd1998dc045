"""Layer-boundary tracing of the program, from outside it.

``Tracer.install`` wraps the public functions and methods of the seven
layer modules in place, in every namespace that binds them (so
``nielsen.unfold`` is wrapped together with ``graph_model.unfold``), and
``restore`` puts the originals back.  A call opens a span when it crosses
into a layer from another one, or when it is one of ``NAMED`` functions.
The hot ``words`` functions and the generator in ``COUNTED`` are counted,
never timed, so their time counts in the calling layer.

A span's self time is its duration minus the time its child spans cover;
a layer's self time is the sum over its spans.  Spans (name, start, end,
parent, op) are kept in memory and written out by ``dump`` at the end.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

LAYERS = ("words", "stallings", "graph_model", "end_space", "mapclass", "nielsen", "cli")

# Functions with their own span, by "<layer>.<qualname>".
NAMED = {
    "stallings.LabeledGraph.canonical_key", "stallings.LabeledGraph.fold", "stallings.pullback",
    "stallings.restriction_outer", "stallings.FreeGroupAutomorphism.inverse", "stallings.is_inner",
    "graph_model.unfold", "graph_model.live_states", "graph_model.cylinders", "graph_model.classify_equivalent",
    "end_space.average_metric", "end_space.epsilon_partition", "end_space.telescope",
    "end_space.induced_telescope_action",
    "mapclass.ProperMapRep.make", "mapclass.compose", "mapclass.rigid_inverse",
    "mapclass.is_properly_homotopic_to_identity", "mapclass.parse_map_file",
    "nielsen.FiniteGroupAction.certify", "nielsen.realize_finite_out", "nielsen.realize_relative",
    "nielsen.automorphisms", "nielsen.GraphAutomorphism.compose", "nielsen.build_tree_of_groups",
    "nielsen.fold_to_t",
}
# Hot functions that are counted only: a span per call would cost more than the call.
COUNTED = {"words.mul", "words.reduce_word", "words.cyclic_normal_form", "words.is_conjugate",
           "stallings.LabeledGraph.immersions_into"}  # a generator: its body runs in the caller
# Argument keys for the repeat ratio: calls within one op that repeat an earlier call's arguments.
REPEAT_KEY = {
    "stallings.LabeledGraph.canonical_key": lambda g: (g.vertices, g.edges, g.basepoint),
    "graph_model.unfold": lambda a, depth: (a, depth),
    "graph_model.live_states": lambda a: a,
}

# Per-function metrics reported, as (metric name, function, statistic).
FUNCTION_METRICS = [
    ("words.mul.calls", "words.mul", "calls"),
    ("words.reduce_word.calls", "words.reduce_word", "calls"),
    ("words.cyclic_normal_form.calls", "words.cyclic_normal_form", "calls"),
    ("words.is_conjugate.calls", "words.is_conjugate", "calls"),
    ("stallings.canonical_key.calls", "stallings.LabeledGraph.canonical_key", "calls"),
    ("stallings.canonical_key.self_s", "stallings.LabeledGraph.canonical_key", "self_s"),
    ("stallings.canonical_key.repeat_ratio", "stallings.LabeledGraph.canonical_key", "repeat_ratio"),
    ("stallings.fold.self_s", "stallings.LabeledGraph.fold", "self_s"),
    ("stallings.pullback.self_s", "stallings.pullback", "self_s"),
    ("stallings.immersions_into.calls", "stallings.LabeledGraph.immersions_into", "calls"),
    ("stallings.restriction_outer.self_s", "stallings.restriction_outer", "self_s"),
    ("stallings.FreeGroupAutomorphism.inverse.self_s", "stallings.FreeGroupAutomorphism.inverse", "self_s"),
    ("stallings.is_inner.self_s", "stallings.is_inner", "self_s"),
    ("graph_model.unfold.calls", "graph_model.unfold", "calls"),
    ("graph_model.unfold.self_s", "graph_model.unfold", "self_s"),
    ("graph_model.unfold.repeat_ratio", "graph_model.unfold", "repeat_ratio"),
    ("graph_model.live_states.calls", "graph_model.live_states", "calls"),
    ("graph_model.live_states.repeat_ratio", "graph_model.live_states", "repeat_ratio"),
    ("graph_model.cylinders.self_s", "graph_model.cylinders", "self_s"),
    ("graph_model.classify_equivalent.self_s", "graph_model.classify_equivalent", "self_s"),
    ("end_space.average_metric.self_s", "end_space.average_metric", "self_s"),
    ("end_space.epsilon_partition.self_s", "end_space.epsilon_partition", "self_s"),
    ("end_space.telescope.self_s", "end_space.telescope", "self_s"),
    ("end_space.induced_telescope_action.self_s", "end_space.induced_telescope_action", "self_s"),
    ("mapclass.ProperMapRep.make.calls", "mapclass.ProperMapRep.make", "calls"),
    ("mapclass.ProperMapRep.make.self_s", "mapclass.ProperMapRep.make", "self_s"),
    ("mapclass.compose.calls", "mapclass.compose", "calls"),
    ("mapclass.compose.self_s", "mapclass.compose", "self_s"),
    ("mapclass.rigid_inverse.self_s", "mapclass.rigid_inverse", "self_s"),
    ("mapclass.is_properly_homotopic_to_identity.calls", "mapclass.is_properly_homotopic_to_identity", "calls"),
    ("mapclass.is_properly_homotopic_to_identity.self_s", "mapclass.is_properly_homotopic_to_identity", "self_s"),
    ("mapclass.parse_map_file.self_s", "mapclass.parse_map_file", "self_s"),
    ("nielsen.FiniteGroupAction.certify.self_s", "nielsen.FiniteGroupAction.certify", "self_s"),
    ("nielsen.realize_finite_out.self_s", "nielsen.realize_finite_out", "self_s"),
    ("nielsen.realize_relative.self_s", "nielsen.realize_relative", "self_s"),
    ("nielsen.automorphisms.calls", "nielsen.automorphisms", "calls"),
    ("nielsen.GraphAutomorphism.compose.calls", "nielsen.GraphAutomorphism.compose", "calls"),
    ("nielsen.build_tree_of_groups.self_s", "nielsen.build_tree_of_groups", "self_s"),
    ("nielsen.fold_to_t.self_s", "nielsen.fold_to_t", "self_s"),
]
MAX_SPANS = 100_000  # spans kept for ``dump``; the statistics cover every span


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stack: list[list] = []  # open spans: [layer, name, start, child_time, index]
        self.spans: list = []
        self.dropped = 0
        self.op = None
        self.layer_calls = dict.fromkeys(LAYERS, 0)
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.repeats: dict[str, int] = {}
        self.seen: dict[str, set] = {}
        self._saved: list[tuple] = []

    # -- patching --------------------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, raw value, function, "<layer>.<qualname>") of every public callable."""
        for layer in LAYERS:
            module = sys.modules[f"{self.package.__name__}.{layer}"]
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    yield module, name, value, value, f"{layer}.{name}"
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for attr, raw in list(vars(value).items()):
                        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                        if attr.startswith("_") or not inspect.isfunction(fn):
                            continue
                        yield value, attr, raw, fn, f"{layer}.{name}.{attr}"

    def install(self):
        wrapped = {}
        for owner, attr, raw, fn, qual in list(self._targets()):
            wrapper = self._wrap(fn, qual)
            wrapped[id(fn)] = wrapper
            new = type(raw)(wrapper) if isinstance(raw, (classmethod, staticmethod)) else wrapper
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        # names bound by ``from .module import name`` in the other modules
        for name, module in list(sys.modules.items()):
            if not name.startswith(self.package.__name__ + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)])

    def restore(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(self, fn, qual):
        layer = qual.split(".", 1)[0]
        stack, clock = self.stack, time.perf_counter
        calls = self.calls
        if qual in COUNTED:
            layer_calls = self.layer_calls

            def counted(*args, **kwargs):
                calls[qual] = calls.get(qual, 0) + 1
                if not stack or stack[-1][0] != layer:
                    layer_calls[layer] += 1
                return fn(*args, **kwargs)

            return counted
        named = qual in NAMED
        key_of = REPEAT_KEY.get(qual)

        def traced(*args, **kwargs):
            crossing = not stack or stack[-1][0] != layer
            if not crossing and not named:
                return fn(*args, **kwargs)
            if named:
                calls[qual] = calls.get(qual, 0) + 1
                if key_of is not None:
                    self._note_repeat(qual, key_of(*args, **kwargs))
            if crossing:
                self.layer_calls[layer] += 1
            index = len(self.spans)
            if index < MAX_SPANS:
                self.spans.append(None)
            else:
                index = None
                self.dropped += 1
            frame = [layer, qual, clock(), 0.0, index]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                own = duration - frame[3]
                self.layer_self[layer] += own
                if named:
                    self.self_s[qual] = self.self_s.get(qual, 0.0) + own
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += duration
                if index is not None:
                    self.spans[index] = (qual, frame[2], end, parent[4] if parent else None, self.op)

        traced.__wrapped__ = fn
        return traced

    def _note_repeat(self, qual, key):
        seen = self.seen.setdefault(qual, set())
        if key in seen:
            self.repeats[qual] = self.repeats.get(qual, 0) + 1
        else:
            seen.add(key)

    # -- runs --------------------------------------------------------------------------------

    def begin_op(self, op_id):
        """Start a new op: spans get its id, and repeats are counted within it."""
        self.op = op_id
        self.seen.clear()

    def metrics(self, passes: int, op_seconds: float) -> dict:
        """Per-layer and per-function metrics, per pass over the workload's op list."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.layer_calls[layer] / passes, "calls/pass")
            out[f"{layer}.self_s"] = (self.layer_self[layer] / passes, "s/pass")
            out[f"{layer}.share"] = (self.layer_self[layer] / op_seconds if op_seconds else 0.0, "ratio")
        for metric, qual, stat in FUNCTION_METRICS:
            if stat == "calls":
                out[metric] = (self.calls.get(qual, 0) / passes, "calls/pass")
            elif stat == "self_s":
                out[metric] = (self.self_s.get(qual, 0.0) / passes, "s/pass")
            else:
                n = self.calls.get(qual, 0)
                out[metric] = (self.repeats.get(qual, 0) / n if n else 0.0, "ratio")
        return out

    def dump(self, path):
        """Write the kept spans as JSON lines: name, start, end, parent index, op id."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
