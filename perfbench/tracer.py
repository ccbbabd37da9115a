"""Per-layer tracing installed from outside the package.

:class:`LayerTracer` wraps the public entry points listed in
:data:`perfbench.layers.TARGETS` for the length of a traced pass and puts
the originals back afterwards. Each wrapped call records its layer's call
count, busy time (outermost activation only, so recursion is not counted
twice), self time (duration minus the wrapped calls made inside it) and
optional work units. Self times of all layers sum to the wall time of the
wrapped top-level calls, which is what the coverage check relies on.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    ``path`` is ``"module:attr"`` or ``"module:Class.attr"``. ``count``
    maps ``(args, result)`` to work units.
    """

    layer: str
    path: str
    count: Callable | None = None


@dataclass
class LayerStat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    units: float = 0.0


class LayerTracer:
    """Install, account and remove the layer wrappers."""

    #: Modules whose globals are rebound when a plain function is wrapped.
    MODULE_PREFIXES = ("repro", "perfbench")

    def __init__(self, targets) -> None:
        self.targets = tuple(targets)
        self.stats: dict[str, LayerStat] = defaultdict(LayerStat)
        #: Time of wrapped child calls, keyed by (parent layer, child layer).
        self.edges: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Bindings that still hold a wrapper (empty once removed)."""
        leftovers = [
            target.path for target in self.targets if _is_wrapper(_resolve(target.path))
        ]
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not name.startswith(self.MODULE_PREFIXES):
                continue
            for key, value in list(vars(loaded).items()):
                if _is_wrapper(value):
                    leftovers.append(f"{name}.{key}")
                elif isinstance(value, dict) and key.isupper():
                    leftovers.extend(
                        f"{name}.{key}[{entry!r}]"
                        for entry, member in value.items()
                        if _is_wrapper(member)
                    )
        return leftovers

    # ------------------------------------------------------------------
    def _install(self, target: Target) -> None:
        module_name, _, qualname = target.path.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(target, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(target, raw.__func__))
            else:
                wrapped = self._wrap(target, raw)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        original = getattr(module, attr)
        wrapped = self._wrap(target, original)
        # A plain function is imported by name into other modules and
        # stored in registries such as the dispatcher's SOLVERS table:
        # rebind every such reference.
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not name.startswith(self.MODULE_PREFIXES):
                continue
            namespace = vars(loaded)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((loaded, key, original))
                    setattr(loaded, key, wrapped)
                elif isinstance(value, dict) and key.isupper():
                    for entry, member in list(value.items()):
                        if member is original:
                            self._patches.append((value, entry, original))
                            value[entry] = wrapped

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        layer = target.layer
        count = target.count
        stats = self.stats[layer]
        stack = self._stack
        depth = self._depth
        edges = self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[layer] -= 1
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                if depth[layer] == 0:
                    stats.busy_s += elapsed
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    edges[(parent[0], layer)] += elapsed
            if count is not None:
                stats.units += count(args, result)
            return result

        wrapper.__perfbench_wrapped__ = True
        return wrapper

    # ------------------------------------------------------------------
    def total_self_s(self) -> float:
        return sum(stat.self_s for stat in self.stats.values())


def _resolve(path: str) -> object:
    """The current binding of a ``module:Class.attr`` path, unwrapped from
    ``classmethod``/``staticmethod``."""
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, (classmethod, staticmethod)):
        raw = raw.__func__
    return raw


def _is_wrapper(value: object) -> bool:
    return getattr(value, "__perfbench_wrapped__", False) is True
