"""Process-local span tracing around vattn's public module functions.

The tracer replaces every module-level public function of the traced
modules (the names in each module's ``__all__`` that are plain functions
defined there) with a wrapper that records one span per call.  The
replacement is made in every namespace of the package that holds the
function, so calls between modules (``from .core import objective_value``)
and inside a module are traced too.  Nothing outside this process is
traced and the library's source is not edited.

A span is ``[name, layer, start, end, parent, trace_id, attrs]``; spans of
one top-level call share its ``trace_id``.  Spans stay in memory until
``write`` dumps them.  A layer's self time is its spans' durations minus
the durations of their direct child spans.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from collections import defaultdict

NAME, LAYER, START, END, PARENT, TRACE, ATTRS = range(7)

PACKAGE = "vattn"
# Layers are the library's modules, in dependency order.
LAYERS = ("core", "solvers", "oracle", "gradient", "transport", "suites", "cli")

# Functions grouped under one per-layer counter name.
GROUPS = {
    "core.objective_value": "core.objective",
    "core.objective_rows": "core.objective",
    "core.regularizer_value": "core.objective",
    "oracle.minimize_on_simplex": "oracle.minimize",
    "oracle.grid_search_simplex": "oracle.grid",
}


class Tracer:
    def __init__(self, clock):
        """``clock`` returns the seconds that spans are stamped with."""
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._next_trace = 0
        self._patches: list[tuple[object, str, object]] = []
        self._default_config = None

    # -- installation -------------------------------------------------

    def install(self) -> None:
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        oracle = sys.modules[f"{PACKAGE}.oracle"]
        self._default_config = oracle.default_config
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr in getattr(module, "__all__", ()):
                original = getattr(module, attr)
                if not (inspect.isfunction(original) and original.__module__ == module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", layer, original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, key, original))
                            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ----------------------------------------------------

    def _open(self, name: str, layer: str) -> list:
        stack = self._stack
        if stack:
            parent = stack[-1]
            trace_id = self.spans[parent][TRACE]
        else:
            parent = -1
            trace_id = self._next_trace
            self._next_trace += 1
        span = [name, layer, 0.0, 0.0, parent, trace_id, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, name: str, layer: str, fn):
        attrs_of = _ATTRIBUTES.get(name)
        tracer = self
        clock = self.clock

        if name in ("gradient.finite_difference_gradient", "gradient.finite_difference_hessian"):
            evaluate = self._wrap("gradient.fd.f", "gradient", lambda f, x: f(x))

            def traced_fd(f, x, h):
                span = tracer._open(name, layer)
                span[START] = clock()
                try:
                    return fn(lambda point: evaluate(f, point), x, h)
                finally:
                    span[END] = clock()
                    tracer._stack.pop()

            return traced_fd

        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                tracer._stack.pop()
            if attrs_of is not None:
                span[ATTRS] = attrs_of(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- analysis -----------------------------------------------------

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """Calls, self seconds and span seconds per layer, per function and
        per group, over the spans ``lo:hi`` (a set of whole top-level calls)."""
        spans = self.spans[lo:hi]
        own = [span[END] - span[START] for span in spans]
        for span in spans:
            if span[PARENT] >= 0:
                own[span[PARENT] - lo] -= span[END] - span[START]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for span, seconds in zip(spans, own):
            name = span[NAME]
            for key in {span[LAYER], name, GROUPS.get(name, name)}:
                calls[key] += 1
                self_s[key] += seconds
                total_s[key] += span[END] - span[START]
        return {"calls": calls, "self_s": self_s, "total_s": total_s, "spans": spans, "own": own}

    def write(self, path) -> None:
        """Dump every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tname\tlayer\tstart_s\tend_s\tparent\ttrace\tattrs\n")
            for index, s in enumerate(self.spans):
                attrs = "" if s[ATTRS] is None else repr(s[ATTRS])
                out.write(
                    f"{index}\t{s[NAME]}\t{s[LAYER]}\t{s[START]!r}\t{s[END]!r}\t"
                    f"{s[PARENT]}\t{s[TRACE]}\t{attrs}\n"
                )


def _minimize_attrs(tracer, args, kwargs, result):
    reg = args[1] if len(args) > 1 else kwargs["reg"]
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    method = (cfg or tracer._default_config(reg)).method
    return (method, result.iterations, result.converged)


_ATTRIBUTES = {
    "oracle.minimize_on_simplex": _minimize_attrs,
    "oracle.grid_search_simplex": lambda tracer, args, kwargs, result: (result.iterations,),
    "transport.solve_full_eot": lambda tracer, args, kwargs, result: (result.shape[0],),
    "suites.run_suite": lambda tracer, args, kwargs, result: (result.suite,),
}
