"""In-memory span tracer that wraps callables from outside the program.

A span records a name, a start, an end and the span that was open when it
began (its parent).  Spans are kept in four parallel lists and written out
once at the end.  A layer's self time is a span's duration minus the part
of its interval that its child spans cover (:func:`self_times`).

Hooks are installed by replacing an attribute (a module global, a class
method, or a field of a frozen instance) with a wrapper.  A hook whose
attribute no longer exists is recorded in ``missing`` instead of raising, so
a refactor that renames a hook point makes the metrics built on it absent
rather than crashing the benchmark.
"""
from __future__ import annotations

import dataclasses
import importlib
import time
from collections import Counter, defaultdict


class ModuleProxy:
    """Stands in for a module inside one importing module.

    Attributes set on the proxy shadow the module's, so a wrapper installed
    on ``hactest.montecarlo``'s ``np.random`` leaves every other user of
    numpy untouched.
    """

    def __init__(self, target):
        object.__setattr__(self, "_target", target)

    def __getattr__(self, name):
        return getattr(self._target, name)


@dataclasses.dataclass(frozen=True)
class Hook:
    """Wrap ``<owner>.<attr>``; ``owner`` is ``module`` or ``module:dotted.path``.

    ``span`` names the span (``None`` observes the call without a span);
    ``after(tracer, args, result)`` updates counts.
    """

    owner: str
    attr: str
    span: str | None
    after: object = None

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.attr}".replace(":", ".")


def _resolve(owner: str):
    module_name, _, path = owner.partition(":")
    obj = importlib.import_module(module_name)
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part)
    return obj


def _set(owner, attr, value) -> None:
    try:
        setattr(owner, attr, value)
    except dataclasses.FrozenInstanceError:
        object.__setattr__(owner, attr, value)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.open = Counter()  # currently open spans, by name
        self.counts = Counter()
        self.missing: list[str] = []
        self.scratch: dict = {}  # state kept between calls by ``after`` callbacks
        self._stack: list[int] = []
        self._undo = []

    def install(self, hooks, proxies=()) -> None:
        """Install each hook.

        ``proxies`` lists ``(module, "global.sub")`` paths whose every level is
        shadowed by a :class:`ModuleProxy` inside that module first.
        """
        for module_name, path in proxies:
            try:
                holder = importlib.import_module(module_name)
                for part in path.split("."):
                    target = getattr(holder, part)
                    self._undo.append((holder, part, target))
                    setattr(holder, part, ModuleProxy(target))
                    holder = getattr(holder, part)
            except (ImportError, AttributeError):
                continue  # the hooks behind it will be reported missing
        for hook in hooks:
            try:
                owner = _resolve(hook.owner)
                original = getattr(owner, hook.attr)
            except (ImportError, AttributeError):
                self.missing.append(hook.label)
                continue
            self._undo.append((owner, hook.attr, original))
            _set(owner, hook.attr, self.wrap(hook, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            _set(owner, attr, original)

    def wrap(self, hook: Hook, fn):
        tracer, name = self, hook.span
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, open_, clock = self._stack, self.open, time.perf_counter
        after = hook.after

        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                i = len(starts)
                names.append(name)
                parents.append(stack[-1] if stack else -1)
                ends.append(0.0)
                stack.append(i)
                open_[name] += 1
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    stack.pop()
                    open_[name] -= 1
            if after is not None:
                try:
                    after(tracer, args, result)
                except (AttributeError, TypeError, ValueError, IndexError, KeyError):
                    # the hook point changed shape: stop trusting what it reports
                    if hook.label not in tracer.missing:
                        tracer.missing.append(hook.label)
            return result

        return traced

    def write(self, path) -> None:
        """Write spans as CSV: index, name, start_s, end_s, parent (-1 for none)."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i in range(len(self.names)):
                fh.write(f"{i},{self.names[i]},{self.starts[i]:.9f},{self.ends[i]:.9f},{self.parents[i]}\n")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Child intervals are clipped to the parent's interval and merged before
    they are subtracted, so overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        run_start = run_end = None
        for s, e in sorted((max(starts[k], lo), min(ends[k], hi)) for k in kids):
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[p] -= covered
    return out


def summarize(tracer: Tracer, first: int = 0, last: int | None = None) -> dict:
    """Per span name over spans [first, last): count, total, self, and outer totals.

    ``outer`` sums the durations of spans whose parent belongs to another
    layer (the part of the name before the first dot), so nested calls
    inside one layer are not counted twice.
    """
    last = len(tracer.names) if last is None else last
    names = tracer.names[first:last]
    starts = tracer.starts[first:last]
    ends = tracer.ends[first:last]
    parents = [p - first if p >= first else -1 for p in tracer.parents[first:last]]
    selfs = self_times(starts, ends, parents)
    out = defaultdict(lambda: {"count": 0, "total": 0.0, "self": 0.0, "outer": 0.0})
    for i, name in enumerate(names):
        row = out[name]
        dur = ends[i] - starts[i]
        row["count"] += 1
        row["total"] += dur
        row["self"] += selfs[i]
        p = parents[i]
        if p < 0 or names[p].split(".", 1)[0] != name.split(".", 1)[0]:
            row["outer"] += dur
    return dict(out)
