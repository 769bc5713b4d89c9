"""In-memory spans around solmem's layer boundaries.

A traced function records one span: its layer, the name it was called
by, its parent span and its start and end. Spans
nest because the benchmark wraps every function at the name its caller
imported (`solmem.parser.tokenize`, `solmem.generator.parse_source`,
...), so a call made inside a traced call gets that call as its parent.
A layer's self time is its spans' durations minus the time their
children cover.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

# (module, attribute, layer, only inside): the names one solmem module
# imported from another layer, plus the translator's storage-tree
# pack/unpack, patched in place so that calls made inside the program are
# traced too. Translator.expr gets a span only when the storage tree calls
# it (pack translating an index), so that this translation counts towards
# `translate` and not towards `storage_tree`.
IMPORT_SITES = (
    ("solmem.parser", "tokenize", "lexer", None),
    ("solmem.generator", "parse_source", "parser", None),
    ("solmem.generator", "resolve_and_check", "resolver", None),
    ("solmem.generator", "run_constructor", "oracle", None),
    ("solmem.translate", "build_storage_tree", "storage_tree", None),
    ("solmem.translate", "default_context_tree", "storage_tree", None),
    ("solmem.translate", "default_context_name", "storage_tree", None),
    ("solmem.translate", "Translator.pack", "storage_tree", None),
    ("solmem.translate", "Translator.unpack", "storage_tree", None),
    ("solmem.oracle", "build_storage_tree", "storage_tree", None),
    ("solmem.oracle", "default_context_tree", "storage_tree", None),
    ("solmem.translate", "Translator.expr", "translate", "storage_tree"),
)

# Counts taken from a traced call's result, at the layer that does the work.
RESULT_COUNTS = {
    "solmem.parser.tokenize": ("lexer.tokens", len),
    "bench.emit_smtlib": ("smtlib.bytes", lambda script: len(script.encode())),
    "bench.to_ssa": ("ssa.stmts", lambda result: len(result.program.stmts)),
}


@dataclass
class Span:
    layer: str
    name: str
    parent: int | None  # index of the enclosing span in Tracer.spans
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, layer: str, name: str, fn, only_inside: str | None = None):
        """`fn` with a span around each call; with `only_inside`, only
        around calls made directly inside a span of that layer."""
        count = RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            if only_inside is not None and (parent is None or self.spans[parent].layer != only_inside):
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(Span(layer, name, parent, time.perf_counter()))
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index].end = time.perf_counter()
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return traced

    def patch_import_sites(self, modules: dict) -> None:
        """Trace calls solmem makes across its own layers. `modules` maps
        dotted module names to freshly imported module objects."""
        for module_name, attr, layer, only_inside in IMPORT_SITES:
            owner = modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
            setattr(owner, leaf, self.wrap(layer, f"{module_name}.{attr}", fn, only_inside))

    def name_count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: calls, total_s (time inside the layer's outermost spans,
    so recursion into the same layer is not counted twice) and self_s
    (duration minus the time covered by direct child spans)."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    out: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s.layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += s.duration - covered[i]
        if not _inside_layer(spans, s):
            row["total_s"] += s.duration
    return out


def _inside_layer(spans: list[Span], span: Span) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].layer == span.layer:
            return True
        parent = spans[parent].parent
    return False
