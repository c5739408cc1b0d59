"""In-memory span tracer that wraps interdep's public functions from outside.

While a `Tracer` is installed, every call to a wrapped function records one
span: (id, parent id, name, start ns, end ns). Spans of one thread nest on a
thread-local stack, so a span's parent is the wrapped call that was running
when it started. Observers attached to a function also add counts taken from
its arguments and result (steps parsed, pairs found, bytes written), so the
ratios are measured at the boundary where the work happens.

Nothing in the package is edited: the wrappers replace the module-level
bindings of each function (in every loaded `interdep` module that imported
it) and each policy class's own `next_action`, and `uninstall` puts the
originals back.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

INTERACT = "interact"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [id, parent, name, start_ns, end_ns]
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._ids = itertools.count()  # next() on a count is atomic under the GIL
        self._patched: list = []  # (owner, attr, original)

    # span recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, tag=None, observe=None):
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            label = name if tag is None else f"{name}:{tag(args, kwargs)}"
            span = [span_id, stack[-1] if stack else None, label, clock(), 0]
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                tracer.spans.append(span)
            if observe is not None:
                observe(tracer.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # installation -------------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        """Wrap the public functions of every layer; `uninstall` undoes it."""
        from interdep import cli, gridworld, grounding, interdependence
        from interdep import metrics, policies, trace_io

        targets = [
            (policies, "run_episode", "run_episode", None, None),
            (policies, "make_policy", "make_policy", None, None),
            (policies, "bfs_path", "bfs", None, None),
            (policies, "bfs_distances", "bfs", None, None),
            (gridworld, "step", "step", None, None),
            (grounding, "extract_symbolic_action", "extract", _tag_interact, None),
            (interdependence, "classify_action", "classify", None, None),
            (interdependence, "analyze_trace", "analyze_trace", None, _observe_ledger),
            (metrics, "build_report", "build_report", None, None),
            (metrics, "aggregate", "aggregate", None, None),
            (trace_io, "trace_to_text", "trace_to_text", None, _observe_text),
            (trace_io, "read_trace", "read_trace", None, _observe_read),
            (trace_io, "write_report", "render", None, None),
            (trace_io, "report_to_csv", "render", None, None),
            (trace_io, "report_to_markdown", "render", None, None),
            (trace_io, "summary_to_markdown", "render", None, None),
            # The CLI's format dispatch also renders JSON inline.
            (cli, "_report_text", "render", None, None),
        ]
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "interdep" or key.startswith("interdep."))
        ]
        for home, attr, name, tag, observe in targets:
            original = home.__dict__.get(attr)
            if original is None:
                continue
            wrapped = self._wrap(original, name, tag, observe)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapped)
        for cls in _subclasses(policies.Policy):
            if "next_action" in cls.__dict__:
                self._patch(
                    cls, "next_action", self._wrap(cls.__dict__["next_action"], "next_action")
                )
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        """Dump spans as JSON lines: id, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as f:
            for span in sorted(self.spans, key=lambda s: s[0]):
                f.write(json.dumps(span) + "\n")


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _tag_interact(args, kwargs) -> str:
    action = args[1] if len(args) > 1 else kwargs["action"]
    return INTERACT if action.value == INTERACT else "other"


def _observe_ledger(counts, args, kwargs, ledger) -> None:
    triggers = sum(1 for c in ledger.classifications if c.is_trigger)
    unmatched = sum(len(v) for v in ledger.unaccepted_triggers.values())
    counts["analyze.steps"] += len(ledger.classifications)
    counts["pairs"] += len(ledger.pairs)
    counts["triggers"] += triggers
    counts["triggers_matched"] += triggers - unmatched


def _observe_text(counts, args, kwargs, text) -> None:
    counts["trace_to_text.steps"] += len(args[0].steps)
    counts["trace_to_text.bytes"] += len(text.encode("utf-8"))


def _observe_read(counts, args, kwargs, trace) -> None:
    counts["read_trace.steps"] += len(trace.steps)


class SpanStats:
    """Per-name totals, self times and parent links over a list of spans."""

    def __init__(self, spans: list) -> None:
        by_id = {s[0]: s for s in spans}
        child_ns: dict = defaultdict(int)
        for s in spans:
            if s[1] is not None and s[1] in by_id:
                child_ns[s[1]] += s[4] - s[3]
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        # (name, parent name) -> [calls, total ns]
        self.by_parent: dict = defaultdict(lambda: [0, 0])
        self.top_level: Counter = Counter()  # calls not nested in a same-name span
        for s in spans:
            name = s[2]
            dur = s[4] - s[3]
            parent = by_id.get(s[1])
            parent_name = parent[2] if parent else None
            self.calls[name] += 1
            self.total_ns[name] += dur
            self.self_ns[name] += dur - child_ns[s[0]]
            entry = self.by_parent[(name, parent_name)]
            entry[0] += 1
            entry[1] += dur
            if parent_name != name:
                self.top_level[name] += 1
                self.total_ns[f"{name}@top"] += dur

    def us_per_call(self, name: str) -> float:
        n = self.calls[name]
        return self.total_ns[name] / n / 1e3 if n else 0.0

    def under(self, name: str, parent: str) -> tuple:
        calls, ns = self.by_parent.get((name, parent), (0, 0))
        return calls, ns
