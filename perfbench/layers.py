"""Per-layer tracing for the benchmark's ``--trace 1`` runs.

Nothing under ``src/`` is instrumented for this: :class:`Recorder` wraps
the public function of each layer *where its caller looks it up* (a
class attribute for methods, the importing module's global for
functions) and keeps counts, busy time and self time in memory.  Coarse
calls (an engine run, a pipeline stage, a fuzz shrink) also leave a span
``(id, parent, name, start, end)``; hot per-state calls (successor
generation, codec, store operations) only add to a count and a busy
total.  What the wrappers cost is reported as ``trace.overhead_ratio``.

A layer's self time is the time its calls ran minus the time of the
calls nested inside them, so the self times of all layers plus the
unattributed remainder add up to the traced operations' wall time.
The interpreter's collector is a layer of its own (``py.gc``), fed from
``gc.callbacks``.
"""

from __future__ import annotations

import functools
import gc
import importlib
from collections import Counter, defaultdict
from time import perf_counter

#: Layer of each traced name: the prefix before the last dot.
LAYERS = ("ioa", "engine", "codec", "store", "reduction", "analysis", "sim", "py.gc")

#: ``(module, attribute path, traced name, keeps a span)``.  Functions are
#: patched in the module that imports them, methods on their class.
TARGETS = (
    ("repro.analysis.view", "DeterministicSystemView.successors", "ioa.successors", False),
    ("repro.engine.api", "ExplorationEngine.explore", "engine.run", True),
    ("repro.engine.api", "ExplorationEngine.scan", "engine.run", True),
    ("repro.engine.codec", "Codec.encode_digest", "codec.encode", False),
    ("repro.engine.codec", "Codec.decode", "codec.decode", False),
    ("repro.engine.reduction", "Canonicalizer.canon", "reduction.canon", False),
    ("repro.engine.reduction", "ReducedView.successors", "reduction.successors", False),
    ("repro.analysis.adversary", "lemma4_bivalent_initialization", "analysis.lemma4", True),
    ("repro.analysis.valence", "reachable_decision_sets", "analysis.valence", True),
    ("repro.analysis.adversary", "find_hook", "analysis.hook", True),
    ("repro.analysis.adversary", "lemma8_case_analysis", "analysis.lemma8", True),
    ("repro.analysis.adversary", "refute_from_similarity", "analysis.refutation", True),
    ("repro.sim.fuzz", "simulate", "sim.simulate", False),
    ("repro.sim.fuzz", "shrink_counterexample", "sim.shrink", True),
)

#: Store backend classes whose own methods are traced (``flush`` apart).
STORE_CLASSES = ("StateStore", "_DiskStore", "MemoryStore", "SQLiteStore", "MmapStore")
STORE_DUNDERS = ("__contains__", "__len__")


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


class Recorder:
    """Counts, busy and self time per traced name; spans for coarse calls."""

    def __init__(self) -> None:
        self.enabled = False
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.spans: list = []
        self.engine_reports: list = []
        # Frames are [name, start, child seconds, span id]; ``_active``
        # counts open frames per name so nested same-name calls add
        # their busy time once.
        self._stack: list = []
        self._active: Counter = Counter()
        self._undo: list = []

    # -- frames -----------------------------------------------------------

    def enter(self, name: str, span: bool = False) -> list:
        span_id = None
        if span:
            span_id = len(self.spans)
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            self.spans.append([span_id, parent, name, perf_counter(), None])
        frame = [name, perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        self._active[name] += 1
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        name, start, child, span_id = frame
        # Pop through frames a raising callee left open (none normally).
        while self._stack and self._stack.pop() is not frame:
            pass
        self._active[name] -= 1
        duration = end - start
        self.calls[name] += 1
        self.self_time[layer_of(name)] += duration - child
        if not self._active[name]:
            self.busy[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            self.spans[span_id][4] = end

    def wrap(self, name: str, function, span: bool):
        recorder = self
        engine_run = name == "engine.run"

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return function(*args, **kwargs)
            frame = recorder.enter(name, span)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.exit(frame)
            if engine_run:
                recorder.engine_reports.append(args[0].last_report)
            return result

        return traced

    def _gc_callback(self, phase: str, info: dict) -> None:
        if not self.enabled:
            return
        if phase == "start":
            self.enter("py.gc.collection")
        elif self._stack and self._stack[-1][0] == "py.gc.collection":
            self.exit(self._stack[-1])

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attribute: str, name: str, span: bool) -> None:
        original = owner.__dict__[attribute]
        setattr(owner, attribute, self.wrap(name, original, span))
        self._undo.append((owner, attribute, original))

    def install(self) -> None:
        """Patch every target and hook the collector; undone by :meth:`uninstall`."""
        for module_name, path, name, span in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            self._patch(owner, attribute, name, span)
        store = importlib.import_module("repro.engine.store")
        for class_name in STORE_CLASSES:
            cls = getattr(store, class_name, None)
            if cls is None:
                continue
            for attribute, value in list(vars(cls).items()):
                if not callable(value) or isinstance(value, type):
                    continue
                if attribute.startswith("_") and attribute not in STORE_DUNDERS:
                    continue
                if getattr(value, "__isabstractmethod__", False):
                    continue
                name = "store.flush" if attribute == "flush" else "store.ops"
                self._patch(cls, attribute, name, span=False)
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        self.enabled = False
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)
