"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` wraps, in every loaded ``topicmodels`` module:

- ``corpus``: ``read_lines``, ``preprocess`` and every ``parse_*`` function;
- every sampler class (any class with ``sweep`` and ``estimate``): its
  constructor, ``sweep`` and ``estimate``;
- ``reports``: every ``write_*`` function;
- ``evaluation.average_coherence``.

Each call becomes a span (layer, operation, model, start, end, parent).
The layer is the module that defines the function, so a refactor that
moves code between modules moves its time with it; the model is the CLI
model being run, set by the caller.  Spans stay in memory.
"""

import functools
import sys
import time

# (module, predicate on function name, operation)
_FUNCTIONS = (
    ("corpus", lambda n: n == "read_lines", "read"),
    ("corpus", lambda n: n.startswith("parse_"), "parse"),
    ("corpus", lambda n: n == "preprocess", "preprocess"),
    ("reports", lambda n: n.startswith("write_"), "write"),
    ("evaluation", lambda n: n == "average_coherence", "coherence"),
)
_METHODS = (("__init__", "init"), ("sweep", "sweep"), ("estimate", "estimate"))


def package_modules(package: str = "topicmodels") -> list:
    return [m for name, m in list(sys.modules.items())
            if name.startswith(package + ".") and m is not None]


def sampler_classes(modules) -> list:
    """Classes defined in ``modules`` that have ``sweep`` and ``estimate``."""
    return [obj for mod in modules for obj in list(vars(mod).values())
            if isinstance(obj, type) and obj.__module__ == mod.__name__
            and callable(getattr(obj, "sweep", None))
            and callable(getattr(obj, "estimate", None))]


class Tracer:
    def __init__(self):
        self.spans = []     # [layer, op, model, start, end, parent index]
        self.model = ""
        self._stack = []
        self._undo = []

    def _wrap(self, fn, layer: str, op: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, op, self.model, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
        return traced

    def call(self, layer: str, op: str, fn, *args):
        """Run ``fn(*args)`` inside a span of its own (the root of a CLI call)."""
        return self._wrap(fn, layer, op)(*args)

    def install(self) -> None:
        modules = package_modules()
        short = {m.__name__: m.__name__.rsplit(".", 1)[1] for m in modules}
        targets = {}
        for mod in modules:
            for name, obj in vars(mod).items():
                if not callable(obj) or isinstance(obj, type):
                    continue
                for layer, wanted, op in _FUNCTIONS:
                    if getattr(obj, "__module__", None) == f"topicmodels.{layer}" and wanted(name):
                        targets.setdefault(id(obj), (obj, layer, op))
        wrapped = {key: self._wrap(obj, layer, op) for key, (obj, layer, op) in targets.items()}
        # Replace every reference, including names imported into other modules.
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._undo.append((mod, name, obj, True))
                    setattr(mod, name, wrapped[id(obj)])
        for cls in sampler_classes(modules):
            for attr, op in _METHODS:
                own = attr in cls.__dict__
                original = getattr(cls, attr)
                self._undo.append((cls, attr, cls.__dict__.get(attr), own))
                setattr(cls, attr, self._wrap(original, short[cls.__module__], op))

    def uninstall(self) -> None:
        for owner, name, original, own in reversed(self._undo):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._undo.clear()
