"""Outside-in span tracer for the ``simojed`` package.

Every public function of every ``simojed`` module is found by inspection, so
a function added later gets spans without editing this file. While the
tracer is installed, each module-namespace entry that refers to such a
function is swapped for a wrapper that records one span: the function's
name, its start and end, and the span that was open when it was called.
Private helpers are not wrapped, so their time counts toward the public
function that called them. Leaving the ``with`` block restores every
original binding.

Patched names do not reach worker processes, so trace with
``SIMOJED_WORKERS=1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np


def _modules(package) -> dict:
    return {
        info.name: importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    }


def public_functions(package) -> dict[str, object]:
    """``"<module>.<function>"`` -> function, for every function defined
    (not just imported) in a module of ``package`` whose name has no
    leading underscore."""
    found = {}
    for short, module in _modules(package).items():
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
            ):
                found[f"{short}.{name}"] = obj
    return found


class Tracer:
    """Records spans of ``package``'s public functions while installed.

    Spans accumulate across installs; span ``i`` has name
    ``names[name_ids[i]]``, times ``starts[i]``..``ends[i]`` from
    ``time.perf_counter`` and parent span index ``parents[i]`` (-1 at the
    top level).
    """

    def __init__(self, package):
        self.functions = public_functions(package)
        self.names = list(self.functions)
        self._modules = list(_modules(package).values())
        self._wrappers = {
            id(fn): self._wrap(i, fn) for i, fn in enumerate(self.functions.values())
        }
        self._patched: list[tuple[object, str, object]] = []
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]

    def _wrap(self, name_id: int, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(self._stack[-1])
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.starts[idx] = t0
                self.ends[idx] = t1

        return traced

    def __enter__(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                # Keyed by id of the originals, which self.functions keeps
                # alive, so an id match is the function itself.
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: ``calls`` and ``self_s``, the summed span time not
        covered by the function's direct child spans."""
        n = len(self.starts)
        ids = np.frombuffer(self.name_ids, dtype=np.int32, count=n)
        parents = np.frombuffer(self.parents, dtype=np.int64, count=n)
        dur = np.frombuffer(self.ends, count=n) - np.frombuffer(self.starts, count=n)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=n)
        own = dur - child
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=own, minlength=len(self.names))
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def calls_under(self, roots: set[str], targets: set[str]) -> int:
        """Number of ``targets`` spans that have a ``roots`` span among
        their ancestors."""
        root_ids = {self.names.index(r) for r in roots if r in self.names}
        target_ids = {self.names.index(t) for t in targets if t in self.names}
        under = []
        count = 0
        for i in range(len(self.starts)):
            p = self.parents[i]
            inside = p >= 0 and (under[p] or self.name_ids[p] in root_ids)
            under.append(inside)
            if inside and self.name_ids[i] in target_ids:
                count += 1
        return count

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            starts=np.frombuffer(self.starts),
            ends=np.frombuffer(self.ends),
        )
