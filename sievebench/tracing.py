"""Spans around the benchmark's calls into the program's modules.

A ``Tracer`` replaces chosen module functions with wrappers that record a
span (name, start, end, parent, operation id) per call, in memory.  Only
the benchmark's own calls are recorded: a wrapped function that the
program calls while inside another program span (``counting`` calling its
own ``count_legendre``, say) runs untraced.  Spans inside the program are
left to the program.
"""

from __future__ import annotations

import inspect
import json
import time
from contextlib import contextmanager
from functools import wraps
from statistics import median


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.op_id = 0
        self._stack: list[int] = [-1]
        self._in_program = 0
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, *, program: bool = False):
        """Time the block as one span; ``program`` marks a call into the
        program, inside which wrapped functions are not traced again."""
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._stack[-1], self.op_id))
        self._stack.append(index)
        self._in_program += program
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._in_program -= program
            self._stack.pop()
            self.spans[index] = (name, start, end, self._stack[-1], self.op_id)

    def install(self, module, names) -> None:
        """Wrap ``module.<name>`` for each name; ``uninstall`` restores them."""
        layer = module.__name__.rpartition(".")[2]
        for name in names:
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(f"{layer}.{name}", original))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _wrap(self, span_name, fn):
        if inspect.isgeneratorfunction(fn):
            # The span covers the whole iteration, not only the call.
            @wraps(fn)
            def traced_iter(*args, **kwargs):
                if self._in_program:
                    yield from fn(*args, **kwargs)
                    return
                with self.span(span_name, program=True):
                    yield from fn(*args, **kwargs)

            return traced_iter

        @wraps(fn)
        def traced(*args, **kwargs):
            if self._in_program:
                return fn(*args, **kwargs)
            with self.span(span_name, program=True):
                return fn(*args, **kwargs)

        return traced

    def median_duration(self, name: str) -> float:
        values = [end - start for n, start, end, _, _ in self.spans if n == name]
        if not values:
            raise KeyError(f"no span named {name}")
        return median(values)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
