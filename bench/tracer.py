"""Outside-in tracing of woplab's layers, from the benchmark's own code.

``Tracer.install`` wraps each public function in ``TARGETS`` at every
binding site: the defining module, every woplab module that imported it by
name (``pring`` and ``counting`` import ``decompose_W``, ``counting``
imports ``enumerate_sequences``), and the package namespace.  The cached
property ``BracketSequence.pairs`` is replaced at the class.  Nothing under
``src/`` changes; ``uninstall`` restores every original binding.

Spans (op id, parent span, name, start, end) are kept in compact arrays and
written out by ``write_spans``.  Self time is a span's duration minus the
time covered by its child spans, accumulated as spans close.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from functools import cached_property
from time import perf_counter

# (module, function, (counter, amount to add per result) or None)
TARGETS = (
    ("perm", "lift_chain", None),
    ("summation", "summation_of", None),
    ("summation", "decompose_W", ("summation.templates", len)),
    ("pring", "apply_template", ("pring.apply_template.useful", bool)),
    ("pring", "apply_W", ("pring.out_terms", len)),
    ("noncross", "enumerate_sequences", ("noncross.sequences", len)),
    ("noncross", "dual", None),
    ("noncross", "dual_via_gap_toggle", None),
    ("noncross", "decode", None),
    ("noncross", "encode", None),
    ("noncross", "parse_seq", None),
    ("counting", "verify_counts", None),
    ("counting", "count_table", None),
    ("counting", "narayana_row_via_recurrence", None),
    ("oracle", "tr_Dn_apply", ("oracle.x_terms", len)),
    ("oracle", "p_to_x", None),
    ("oracle", "equal_as_p", None),
    ("cli", "main", None),
)
PAIRS = "noncross.pairs"
LAYERS = ("perm", "summation", "pring", "noncross", "counting", "oracle", "cli")
OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.op_id = -1
        # one entry per span, in the order spans open
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        return self._ids[name]

    def count(self, name: str, amount: int = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn, counter=None):
        """``fn`` wrapped so that every call records a span named ``name``."""
        nid = self._intern(name)
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.span_start)
            tracer.span_op.append(tracer.op_id)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_name.append(nid)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            tracer.span_start.append(start)
            tracer.span_end.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.span_end[index] = end
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if counter is not None:
                tracer.count(counter[0], counter[1](result))
            return result

        return traced

    def install(self, lib):
        """Wrap every target at every binding site inside the woplab package."""
        modules = [m for name, m in list(sys.modules.items()) if name == lib.__name__ or name.startswith(lib.__name__ + ".")]
        for module_name, func_name, counter in TARGETS:
            module = sys.modules.get(f"{lib.__name__}.{module_name}")
            original = getattr(module, func_name, None)
            if original is None:  # a later version may drop a function
                continue
            wrapped = self.span(f"{module_name}.{func_name}", original, counter)
            for site in modules:
                for attr, value in list(vars(site).items()):
                    if value is original:
                        self._restore.append((site, attr, value))
                        setattr(site, attr, wrapped)
        cls = lib.noncross.BracketSequence
        original_pairs = cls.__dict__["pairs"]
        replacement = cached_property(self.span(PAIRS, original_pairs.func))
        replacement.__set_name__(cls, "pairs")
        self._restore.append((cls, "pairs", original_pairs))
        setattr(cls, "pairs", replacement)

    def uninstall(self):
        for site, attr, value in reversed(self._restore):
            setattr(site, attr, value)
        self._restore.clear()

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer: the module prefix of each span name."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, s in self.self_s.items():
            layer = name.split(".")[0]
            if layer in out:
                out[layer] += s
        return out

    def write_spans(self, path):
        """Gzipped TSV, one span per line, in the order spans opened."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\top\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{i}\t{self.span_op[i]}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}"
                    f"\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
