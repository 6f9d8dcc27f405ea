"""Span recorder for the traced run.

Every public callable of every layer is replaced, from outside the package,
by a recorder: in its own module, in each gampkit module that bound the name
at import, and on the class for methods. A recorder counts each call and
times the outermost call of its name. It opens a span only when the call
enters a layer from another layer (or from the benchmark), so a layer's self
time is its span time minus the time its child spans cover. Spans stay in
memory until the run writes them out.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "cli", "serialize", "constructions", "diagram", "gamp", "pregamp",
    "congruence", "palg", "semilattice", "poset",
)

# Constructors that are counted: palg.algebras_built is PartialAlgebra.__init__.
COUNTED_INIT = {"palg.PartialAlgebra"}

# Element accessors called per element pair, millions of times in one pass.
# Recording them would multiply the traced pass time while naming no work of
# their own; their time stays in the self time of the layer that calls them.
HOT = frozenset({
    "palg.Term.eval", "palg.Term.nvars", "palg.PartialAlgebra.apply",
    "palg.PartialAlgebra.defined", "palg.SimilarityType.arity",
    "semilattice.JoinSemilattice.leq", "semilattice.JoinSemilattice.join",
    "semilattice.JoinSemilattice.join_all", "semilattice.JoinSemilattice.index",
    "pregamp.Pregamp.delta", "gamp.Gamp.delta",
    "congruence.Congruence.same", "congruence.Congruence.block",
    "poset.FinitePoset.leq", "poset.FinitePoset.lt",
})

# Inputs that identify a computation, for distinct-input ratios. The algebra
# is identified by object, and kept alive so that its id is never reused.
INPUT_KEYS = {
    "congruence.congruence_closure": lambda algebra, pairs: (
        algebra, frozenset(frozenset(p) for p in pairs)
    ),
    "congruence.con_lattice": lambda algebra, bound=160: (algebra, bound),
}

_clock = time.perf_counter


class Tracer:
    """Counters and spans of one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = Counter()
        self.depth = Counter()
        self.raised = Counter()
        self.yields = Counter()
        self.inputs = {name: set() for name in INPUT_KEYS}
        self.keep = []
        self.spans = []  # [name, layer, start, end, parent index, job id]
        self.stack = []
        self.job = None

    def call(self, name, layer, fn, args, kwargs):
        self.calls[name] += 1
        key = INPUT_KEYS.get(name)
        if key is not None:
            obj, rest = key(*args, **kwargs)
            self.keep.append(obj)
            self.inputs[name].add((id(obj), rest))
        return self.timed(name, layer, fn, args, kwargs)

    def timed(self, name, layer, fn, args, kwargs):
        stack, spans = self.stack, self.spans
        opened = not stack or spans[stack[-1]][1] != layer
        self.depth[name] += 1
        start = _clock()
        if opened:
            parent = stack[-1] if stack else None
            stack.append(len(spans))
            spans.append([name, layer, start, None, parent, self.job])
        try:
            return fn(*args, **kwargs)
        except BaseException as e:
            self.raised[f"{name}.{type(e).__name__}"] += 1
            raise
        finally:
            end = _clock()
            self.depth[name] -= 1
            if not self.depth[name]:
                self.seconds[name] += end - start
            if opened:
                spans[stack.pop()][3] = end

    def self_seconds(self):
        """Per-layer span time minus the time covered by child spans."""
        out = Counter()
        for name, layer, start, end, parent, _ in self.spans:
            out[layer] += end - start
            if parent is not None:
                out[self.spans[parent][1]] -= end - start
        return out


class _TracedGenerator:
    """Iterator that records each resume of a wrapped generator as a call."""

    def __init__(self, tracer, name, layer, gen):
        self.tracer, self.name, self.layer, self.gen = tracer, name, layer, gen

    def __iter__(self):
        return self

    def __next__(self):
        item = self.tracer.timed(self.name + ".next", self.layer, next, (self.gen,), {})
        self.tracer.yields[self.name] += 1
        status = getattr(item, "status", None)
        if isinstance(status, str):
            self.tracer.yields[f"{self.name}.{status}"] += 1
        return item


def _wrap(tracer, fn, name, layer):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            gen = tracer.call(name, layer, fn, args, kwargs)
            return _TracedGenerator(tracer, name, layer, gen)
        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, layer, fn, args, kwargs)
    return traced


def _wrap_class(tracer, cls, layer):
    prefix = f"{layer}.{cls.__name__}"
    for attr, raw in list(vars(cls).items()):
        public = not attr.startswith("_")
        if attr == "__init__" and prefix in COUNTED_INIT:
            public = True
        name = f"{prefix}.{attr}"
        if not public or name in HOT:
            continue
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(_wrap(tracer, raw.__func__, name, layer)))
        elif isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(_wrap(tracer, raw.__func__, name, layer)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, _wrap(tracer, raw, name, layer))


def install(tracer):
    """Wrap every layer's public functions and methods in the loaded gampkit."""
    replaced = {}
    for layer in LAYERS:
        mod = importlib.import_module("gampkit." + layer)
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and f"{layer}.{attr}" not in HOT:
                replaced[id(obj)] = (obj, _wrap(tracer, obj, f"{layer}.{attr}", layer))
            elif inspect.isclass(obj):
                _wrap_class(tracer, obj, layer)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "gampkit" and not mod_name.startswith("gampkit."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
