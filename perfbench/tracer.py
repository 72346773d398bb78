"""Spans around gexpkit's public functions, for the traced run.

The tracer wraps the public functions of the seven gexpkit modules and
rebinds every module attribute that refers to one of them, so a call
made through ``gexpkit.cli.read_all`` or ``gexpkit.builder.write_derivation``
is traced as well as one made through the defining module.  Nothing
under ``src/`` changes: the wrappers live here and are put in place
and taken out again by `Tracer.enable` and `Tracer.disable`.

Each span is a tuple ``(iteration, id, parent id, name, start, end)``;
spans stay in memory until the run ends.  A span's self time is its
duration minus the time its child spans cover.  The benchmark opens
one root span per operation (`Tracer.op`); a root span's self time is
time that no wrapper covers, reported as ``unattributed_s``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("sexp", "gexp", "lowerable", "store", "modules", "builder", "cli")

# Validators and node constructors run once per datum node or store path.
# A span each would multiply the tracing overhead while marking no layer
# boundary; their time stays in the self time of the calling function.
LEAF_HELPERS = {"sexp.symbol_text_ok", "sexp.slist",
                "store.validate_store_name", "store.validate_system"}

# Store methods that materialize items: the "intern" layer.
STORE_METHODS = ("intern_file", "intern_dir")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.iteration = 0
        self._ids = itertools.count(1)
        self._stack: list = [0]
        self._patches: list = []
        # Per-iteration observations that the ratios need.
        self.notes: dict = defaultdict(Counter)
        self.drv_paths: dict = defaultdict(set)
        self._op_lower_keys: set = set()

    # observers: called before the wrapped function, they return a
    # callable that runs after it (or None)

    def _observe_lower(self, args, kwargs):
        key = (id(args[0]), _arg(args, kwargs, 2, "system"),
               _arg(args, kwargs, 3, "target"))
        if key not in self._op_lower_keys:
            self._op_lower_keys.add(key)
            self.notes[self.iteration]["lower.distinct"] += 1

    def _observe_read_drv(self, args, kwargs):
        self.drv_paths[self.iteration].add(str(_arg(args, kwargs, 1, "path")))

    def _observe_read(self, args, kwargs):
        self.notes[self.iteration]["read.chars"] += len(args[0])

    def _observe_intern(self, args, kwargs):
        store, before = args[0], args[0].writes
        notes = self.notes[self.iteration]
        return lambda: notes.update({"intern.new": store.writes - before})

    def _wrap(self, name: str, fn):
        observe = {
            "lowerable.lower_object": self._observe_lower,
            "store.read_derivation": self._observe_read_drv,
            "sexp.read": self._observe_read,
            "sexp.read_all": self._observe_read,
            "store.intern_file": self._observe_intern,
            "store.intern_dir": self._observe_intern,
        }.get(name)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = observe(args, kwargs) if observe is not None else None
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.iteration, span_id, parent, name, start, end))
                if after is not None:
                    after()

        traced.__wrapped_original__ = fn
        return traced

    def install(self) -> None:
        """Build a wrapper for every public function and record each
        binding site; `enable` puts the wrappers in place."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"gexpkit.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in LEAF_HELPERS):
                    wrappers[obj] = self._wrap(name, obj)
        for modname, module in sorted(sys.modules.items()):
            if modname == "gexpkit" or modname.startswith("gexpkit."):
                for attr, obj in vars(module).items():
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patches.append((module, attr, obj, wrappers[obj]))
        store_cls = sys.modules["gexpkit.store"].Store
        for method in STORE_METHODS:
            fn = store_cls.__dict__[method]
            self._patches.append(
                (store_cls, method, fn, self._wrap(f"store.{method}", fn)))
        self._originals = set(wrappers)

    def enable(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        missed = [f"{modname}.{attr}" for modname, module in sys.modules.items()
                  if modname == "gexpkit" or modname.startswith("gexpkit.")
                  for attr, obj in vars(module).items()
                  if inspect.isfunction(obj) and obj in self._originals]
        if missed:
            raise RuntimeError(f"untraced binding sites: {', '.join(missed)}")

    def disable(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def binding_sites(self) -> int:
        return len(self._patches)

    @contextmanager
    def op(self, name: str):
        """A root span around one benchmark operation."""
        self._op_lower_keys = set()
        span_id = next(self._ids)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((self.iteration, span_id, 0, f"op.{name}",
                               start, end))

    def iteration_stats(self) -> dict:
        """{iteration: {span name: [calls, total s, self s]}}."""
        child = defaultdict(float)
        for _it, _sid, parent, _name, start, end in self.spans:
            child[parent] += end - start
        stats: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for it, sid, _parent, name, start, end in self.spans:
            entry = stats[it][name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[sid]
        return stats

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
