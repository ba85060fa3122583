"""Outside-in call tracer for the dhym_lab package.

The tracer replaces every public function of every ``dhym_lab`` module in
each module namespace that binds it (``complex_hessian`` is bound in
``geometry``, ``flow`` and ``diagnostics``; one wrapper serves all three),
plus the class attributes ``TorusGeometry.fft/ifft`` and
``LineBundleFlow.theta/rhs`` and the ``scipy.fft`` transforms that
``dhym_lab.flow`` calls through its ``sfft`` alias.  Nothing inside the
package changes; ``restore()`` puts every original back.

Each call is a span: name, start, end and the enclosing span.  A span's self
time is its duration minus the part its child spans cover, so the self
times of all spans under a root add up to the root's duration.  The FFT
spans are leaves called about 10^5 times per run; they are aggregated per
name instead of stored one by one, which keeps the traced run close to the
untraced one.  Every other span is kept in memory and written out by
``write_spans`` after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import time
import types
from collections import defaultdict

# The scipy.fft transforms LineBundleFlow.theta calls directly (n = 1 path).
SFFT_TRANSFORMS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                   "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
CLASS_METHODS = (("geometry", "TorusGeometry", ("fft", "ifft")),
                 ("flow", "LineBundleFlow", ("theta", "rhs")))
FFT_SPANS = ("geometry.TorusGeometry.fft", "geometry.TorusGeometry.ifft") + tuple(
    "geometry.sfft." + name for name in SFFT_TRANSFORMS)


class Stat:
    """Aggregate of one span name."""

    __slots__ = ("calls", "inclusive", "self_time", "depth", "errors", "counters")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0  # outermost calls only, so nesting is not counted twice
        self.self_time = 0.0
        self.depth = 0  # calls of this name now running
        self.errors = defaultdict(int)  # exception class name -> count
        self.counters = defaultdict(float)


class _SfftProxy:
    """Stands in for the ``scipy.fft`` module inside ``dhym_lab.flow``."""

    def __init__(self, module, wrapped):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _nbytes_in_out(args, kwargs, result):
    arr = args[-1] if args else next(iter(kwargs.values()))
    return {"bytes": float(getattr(arr, "nbytes", 0) + getattr(result, "nbytes", 0))}


def _method_nbytes(args, kwargs, result):
    return _nbytes_in_out(args[1:], kwargs, result)


def _grid_points(args, kwargs, result):
    F = kwargs.get("F", args[1] if len(args) > 1 else None)
    shape = getattr(F, "shape", ())
    points = 1
    for extent in shape[:-2]:
        points *= extent
    return {"points": float(points)}


def _file_bytes(param):
    def hook(bound, result):
        return {"bytes": float(os.path.getsize(bound.arguments[param]))}
    return hook


def _csv_rows(bound, result):
    return {"rows": float(len(bound.arguments["records"]))}


# name -> hook(args, kwargs, result) giving counters to add on success.
_HOOKS = {name: _nbytes_in_out for name in FFT_SPANS}
_HOOKS["geometry.TorusGeometry.fft"] = _method_nbytes
_HOOKS["geometry.TorusGeometry.ifft"] = _method_nbytes
_HOOKS["phase.eigenvalue_field"] = _grid_points
# name -> hook(bound_arguments, result), for hooks that need arguments by name.
_BOUND_HOOKS = {
    "config_io.write_snapshot": _file_bytes("path"),
    "config_io.read_snapshot": _file_bytes("path"),
    "config_io.write_diagnostics": _csv_rows,
}


class Tracer:
    """Records spans of dhym_lab calls while installed."""

    def __init__(self):
        self.stats = defaultdict(Stat)
        self.spans = []  # [name, start, end, parent span id, error]
        self.nested = defaultdict(int)  # (child, ancestor) -> calls of child inside ancestor
        self._stack = []  # [span id, child time] per running call
        self._restore = []
        self._watch = {}  # child name -> ancestor names whose nesting is counted

    # -- recording ---------------------------------------------------------

    def count_nested(self, child: str, ancestor: str) -> None:
        """Count calls of ``child`` made while ``ancestor`` is running.

        Call before ``install``: wrappers read the list when they are made.
        """
        self._watch.setdefault(child, []).append(ancestor)

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a span opened by the benchmark itself."""
        return self._wrap(name, fn)(*args)

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        bound_hook = _BOUND_HOOKS.get(name)
        signature = inspect.signature(fn) if bound_hook else None
        store = name not in FFT_SPANS
        stat = self.stats[name]
        watch = [(self.stats[a], (name, a)) for a in self._watch.get(name, ())]
        nested, stack, spans, clock = self.nested, self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for ancestor, key in watch:
                if ancestor.depth:
                    nested[key] += 1
            record = None
            span_id = None
            if store:
                span_id = len(spans)
                record = [name, 0.0, 0.0, stack[-1][0] if stack else None, None]
                spans.append(record)
            frame = [span_id, 0.0]  # span id, time covered by child spans
            stack.append(frame)
            stat.depth += 1
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                stat.depth -= 1
                duration = end - start
                stat.calls += 1
                stat.self_time += duration - frame[1]
                if not stat.depth:
                    stat.inclusive += duration
                if stack:
                    stack[-1][1] += duration
                if error is not None:
                    stat.errors[error] += 1
                if record is not None:
                    record[1], record[2], record[4] = start, end, error
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    stat.counters[key] += value
            if bound_hook is not None:
                bound = signature.bind(*args, **kwargs)
                for key, value in bound_hook(bound, result).items():
                    stat.counters[key] += value
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the package's public functions in every namespace binding them."""
        modules = {package.__name__: package}
        for info in pkgutil.iter_modules(package.__path__):
            full = f"{package.__name__}.{info.name}"
            modules[full] = importlib.import_module(full)
        wrappers = {}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__ or ""
                if not home.startswith(package.__name__ + ".") or home.endswith(".cli"):
                    continue  # the benchmark opens the cli spans itself
                if value not in wrappers:
                    name = f"{home.rsplit('.', 1)[1]}.{value.__qualname__}"
                    wrappers[value] = self._wrap(name, value)
                self._set(module, attr, wrappers[value])
        for short, cls_name, methods in CLASS_METHODS:
            cls = getattr(modules[f"{package.__name__}.{short}"], cls_name)
            for method in methods:
                fn = cls.__dict__[method]
                self._set(cls, method, self._wrap(f"{short}.{cls_name}.{method}", fn))
        flow = modules[f"{package.__name__}.flow"]
        sfft = flow.sfft
        wrapped = {name: self._wrap("geometry.sfft." + name, getattr(sfft, name))
                   for name in SFFT_TRANSFORMS}
        self._set(flow, "sfft", _SfftProxy(sfft, wrapped))

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every original attribute, newest first."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON line per stored span; aggregated FFT leaves go last."""
        with open(path, "w") as fh:
            for span_id, (name, start, end, parent, error) in enumerate(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "error": error}) + "\n")
            for name in FFT_SPANS:
                stat = self.stats.get(name)
                if stat is not None and stat.calls:
                    fh.write(json.dumps({"name": name, "aggregated_calls": stat.calls,
                                         "total_s": stat.inclusive}) + "\n")

    def share_table(self, wall: float) -> list:
        """Rows (name, calls, inclusive share, self share) by inclusive time."""
        rows = [(name, st.calls, st.inclusive / wall, st.self_time / wall)
                for name, st in self.stats.items() if st.calls]
        rows.sort(key=lambda r: -r[2])
        return rows
