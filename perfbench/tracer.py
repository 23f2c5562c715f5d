"""In-memory span tracer for the logitcp layers.

A Tracer wraps the public functions of each package module (its `__all__`,
plus `cli.main`) and rebinds every reference a `logitcp` module holds to
them, so `decomp.neg_loglik` is traced as well as `likelihood.neg_loglik`.
Each call records one span: name, start, end, parent span and an optional
tag that a probe sets from the call's arguments and result. Spans stay in
memory until the caller writes them out; `uninstall` puts every original
reference back.

Self time of a span is its duration minus the part of its interval that its
child spans cover.
"""

import inspect
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "logitcp"
# the package layers, in dependency order, and public names outside __all__
LAYERS = ("ops", "likelihood", "decomp", "selection", "simulate", "metrics", "fileio", "cli")
EXTRA = {"cli": ("main",)}


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "tag")

    def __init__(self, sid, name, start, parent):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tag = None

    @property
    def duration(self):
        return self.end - self.start


def public_functions(module, extra=()):
    """Plain functions a layer exports through `__all__`, plus `extra` names."""
    out = {}
    for attr in tuple(getattr(module, "__all__", ())) + tuple(extra):
        obj = getattr(module, attr, None)
        if inspect.isfunction(obj):
            out[attr] = obj
    return out


class Tracer:
    """Records spans around calls into the wrapped functions.

    `probes` maps a qualified name ("ops.rank_one_contract") to a callable
    `probe(span, args, kwargs, result)`. It runs after the call returns,
    outside the span's interval, and may set `span.tag`.
    """

    def __init__(self, probes=None, clock=time.perf_counter):
        self.spans = []
        self.probes = dict(probes or {})
        self.clock = clock
        self._local = threading.local()
        self._rebound = []  # (module, attribute, original)

    # -- recording

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        """Return a traced version of fn recorded under `name`."""
        probe = self.probes.get(name)
        spans = self.spans
        clock = self.clock
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1].sid if stack else -1
            span = Span(len(spans), name, 0.0, parent)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if probe is not None:
                probe(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation

    def install(self):
        """Wrap each layer's public functions and rebind every module-level
        reference to them inside the package."""
        if self._rebound:
            raise RuntimeError("tracer is already installed")
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in public_functions(module, EXTRA.get(layer, ())).items():
                targets.setdefault(id(fn), self.wrap(f"{layer}.{attr}", fn))
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        """Put every rebound reference back to the original function."""
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis

    def self_times(self):
        """Self time of every span, indexed like `spans`."""
        return self_times(self.spans)

    def write_csv(self, path):
        """Write all spans as CSV: id,parent,name,tag,start,end."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,tag,start_s,end_s\n")
            for s in self.spans:
                tag = "" if s.tag is None else s.tag
                if isinstance(tag, tuple):
                    tag = "/".join(map(str, tag))
                fh.write(f"{s.sid},{s.parent},{s.name},{tag},{s.start - t0:.9f},{s.end - t0:.9f}\n")


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered(children.get(s.sid, ())) for s in spans]


def ancestors(spans, span):
    """Names of the spans enclosing `span`, innermost first."""
    out = []
    p = span.parent
    while p >= 0:
        out.append(spans[p].name)
        p = spans[p].parent
    return out
