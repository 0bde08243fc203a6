"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own code: ``Tracer.wrap`` replaces a
public function at the module attribute its callers look up (for example
``sdgames.auxiliary.solve``) with a wrapper that records when the call starts
and ends.  Nothing under ``src/`` changes.

Each thread keeps its own span stack, so the CLI's batch thread pool nests its
spans correctly; finished spans go to one list that stays in memory until the
run ends.  A span that starts on an empty stack in a thread other than the
main thread was caused by the main thread, which hands work to a pool and
waits: its parent is the main thread's innermost open span.

Self time is attributed to wall-clock time: in each instant, every open span
without an open child gets an equal share.  With one thread this is the usual
self time (a span's duration minus the part covered by its children); under
the thread pool the self times of all spans still add up to the wall time the
spans cover, instead of counting time spent waiting for the interpreter lock
once per waiting thread, and the main thread's wait counts for nothing.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("layer", "thread", "start", "end", "depth", "parent", "attrs")

    def __init__(self, layer, thread, start, end=None, depth=0, parent=None, attrs=None):
        self.layer = layer
        self.thread = thread
        self.start = start
        self.end = end
        self.depth = depth
        self.parent = parent
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps module attributes and records one span per wrapped call."""

    def __init__(self):
        self.spans = []
        self._stacks = {}
        self._patched = []

    def _stack_and_parent(self):
        thread = threading.get_ident()
        stack = self._stacks.setdefault(thread, [])
        if stack:
            return stack, stack[-1]
        main = self._stacks.get(threading.main_thread().ident)
        try:
            return stack, main[-1] if main and main is not stack else None
        except IndexError:  # the main thread closed its span meanwhile
            return stack, None

    def add(self, span: Span) -> None:
        """Record a span measured outside a wrapped call (process start-up)."""
        self.spans.append(span)

    def wrap(self, module, attr: str, layer: str, enter=None, leave=None) -> bool:
        """Replace ``module.attr`` by a recording wrapper.

        ``enter(span, args, kwargs)`` may add attributes before the call, and
        ``leave(span, args, kwargs, result)`` may rename the span's layer or
        add attributes once the call has returned.  An attribute the module no
        longer has is left alone and reported on stderr.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            print(f"perfbench: not traced, {module.__name__}.{attr} is absent", file=sys.stderr)
            return False

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, parent = self._stack_and_parent()
            depth = 0 if parent is None else parent.depth + 1
            span = Span(layer, threading.get_ident(), 0.0, depth=depth, parent=parent)
            if enter is not None:
                enter(span, args, kwargs)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if leave is not None:
                leave(span, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, fn))
        return True

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()


def enclosing_attr(span: Span, key: str):
    """The value of ``key`` on the nearest ancestor span that carries it."""
    node = span.parent
    while node is not None:
        if key in node.attrs:
            return node.attrs[key]
        node = node.parent
    return None


def _enter_pipeline(span, args, kwargs):
    pair = args[0] if args else kwargs["pair"]
    span.attrs["pair"] = pair.name or "pair"


def _leave_solve(span, args, kwargs, result):
    """Name a solver span by its role: the SDP's name without the pair's name.

    The embedded SDPs are named ``<pair>-<role>``.  A role the benchmark has
    not seen before keeps its own name, so that it is never folded into
    another role.
    """
    problem = args[0] if args else kwargs["problem"]
    name = problem.name
    pair = enclosing_attr(span, "pair")
    if pair is not None and name.startswith(pair + "-"):
        name = name[len(pair) + 1:]
    span.layer = f"solver.{name}"
    span.attrs["iterations"] = int(result.iterations)
    span.attrs["status"] = result.status


def install(tracer: Tracer) -> None:
    """Wrap every traced function of sdgames at the attribute its callers use."""
    import sdgames.auxiliary as auxiliary
    import sdgames.bounds as bounds
    import sdgames.cli as cli
    import sdgames.game as game
    import sdgames.reduction as reduction

    table = [
        (reduction, "run_pipeline", "reduction", _enter_pipeline, None),
        (cli, "run_pipeline", "reduction", _enter_pipeline, None),
        (reduction, "practical_bound_M", "bounds.practical_bound_M", None, None),
        (bounds, "solve_aux", "auxiliary.solve_aux", None, None),
        (auxiliary, "build_primal_aux", "auxiliary.build", None, None),
        (auxiliary, "build_refined_aux", "auxiliary.build", None, None),
        (auxiliary, "solve", "solver", None, _leave_solve),
        (reduction, "solve_game", "game.solve_game", None, None),
        (game, "game_sdp_player1", "game.build", None, None),
        (game, "game_sdp_player2", "game.build", None, None),
        (game, "solve", "solver", None, _leave_solve),
        (cli, "cmd_reduce", "cli.cmd_reduce", None, None),
        (cli, "_reduce_one", "cli.reduce_one", None, None),
        (cli, "load_problem", "probio.load", None, None),
        (cli, "report_to_dict", "probio.report", None, None),
        (cli, "certified_bound_M", "bounds.certified_bound_M", None, None),
    ]
    for module, attr, layer, enter, leave in table:
        tracer.wrap(module, attr, layer, enter, leave)


def dump(spans) -> list:
    """Spans as JSON-ready records; a parent is referred to by its index."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [
        {
            "layer": s.layer,
            "thread": s.thread,
            "start": s.start,
            "end": s.end,
            "depth": s.depth,
            "parent": None if s.parent is None else index[id(s.parent)],
            "attrs": s.attrs,
        }
        for s in spans
    ]


def load(records) -> list:
    spans = [
        Span(r["layer"], r["thread"], r["start"], r["end"], r["depth"], attrs=r["attrs"])
        for r in records
    ]
    for span, r in zip(spans, records):
        if r["parent"] is not None:
            span.parent = spans[r["parent"]]
    return spans


def attributed_self_times(spans) -> list:
    """Wall time attributed to each span's own work, in the order of ``spans``.

    A sweep over all span boundaries: between two consecutive boundaries,
    every open span without an open child gets an equal share of the interval.
    """
    index = {id(s): i for i, s in enumerate(spans)}
    parent = [None if s.parent is None else index[id(s.parent)] for s in spans]
    events = []
    for i, s in enumerate(spans):
        events.append((s.start, 1, s.depth, i))
        events.append((s.end, 0, -s.depth, i))
    # at equal times, ends come before starts; children close before their
    # parents and parents open before their children
    events.sort()
    self_s = [0.0] * len(spans)
    open_children = [0] * len(spans)
    open_spans = set()
    last = None
    for t, is_start, _, i in events:
        if last is not None and t > last:
            working = [j for j in open_spans if not open_children[j]]
            for j in working:
                self_s[j] += (t - last) / len(working)
        last = t
        if is_start:
            open_spans.add(i)
        else:
            open_spans.discard(i)
        if parent[i] is not None:
            open_children[parent[i]] += 1 if is_start else -1
    return self_s


def summarize(spans) -> dict:
    """Per-layer totals: attributed self time, attributed inclusive time, raw
    duration and call count, plus the solver attributes summed per layer."""
    self_s = attributed_self_times(spans)
    index = {id(s): i for i, s in enumerate(spans)}
    inclusive = list(self_s)
    # spans are recorded when they end, so children precede their parent
    for i, s in enumerate(spans):
        if s.parent is not None:
            inclusive[index[id(s.parent)]] += inclusive[i]
    layers = defaultdict(lambda: {"self_s": 0.0, "s": 0.0, "raw_s": 0.0, "calls": 0,
                                  "iterations": 0, "non_optimal": 0})
    for i, s in enumerate(spans):
        row = layers[s.layer]
        row["self_s"] += self_s[i]
        # a layer nested in itself (a builder calling a builder) counts once
        if s.parent is None or s.parent.layer != s.layer:
            row["s"] += inclusive[i]
            row["raw_s"] += s.duration
        row["calls"] += 1
        if "iterations" in s.attrs:
            row["iterations"] += s.attrs["iterations"]
            row["non_optimal"] += s.attrs["status"] != "Optimal"
    return dict(layers)
