"""Span tracing around the public functions of the schoenberg modules.

The tracer replaces chosen module attributes with timing wrappers, from
outside the package.  The library already calls its collaborators through
those attributes (``densela.singular_values``, ``certs.check_all``, ...), so a
wrapped attribute sees every call the code under test makes.  Each call
becomes a span (name, start, end, parent) kept in flat in-memory arrays;
nothing is written until ``dump`` at the end of the run.  Wrappers are
in place only inside ``Tracer.active()``.

A span's self time is its duration minus the durations of its direct
children.  Calls are synchronous on one thread, so children nest strictly
inside their parent and never overlap.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, function) pairs wrapped in a traced run; the metric names derive
# from them, so the list is fixed rather than discovered
TRACED = (
    ("harness", "run_audit"),
    ("harness", "sample_config"),
    ("harness", "emit_report"),
    ("certs", "check_all"),
    ("densela", "differentiator"),
    ("densela", "eigenvalues"),
    ("densela", "singular_values"),
    ("densela", "schatten_norm"),
    ("densela", "lp_norm"),
    ("densela", "critical_points_spectral"),
    ("symfun", "esf"),
    ("polyzero", "from_roots"),
    ("polyzero", "derivative"),
    ("polyzero", "roots"),
    ("polyzero", "critical_points_direct"),
    ("sharpness", "maximize_ratio"),
    ("sharpness", "opnorm_lower_bound"),
)

LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)
PACKAGE = "schoenberg"


class Tracer:
    """Records a span for every call of a TRACED function while active.

    Outside ``active()`` the original functions are back in place, so untraced
    work pays nothing for the tracer's presence.
    """

    def __init__(self):
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self._patches = self._find_patches()

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every binding of a TRACED
        function in the package.

        A function imported by name into another module (for example
        ``certs.critical_points_direct``) or re-exported by the package is the
        same object under several attributes; each of them is replaced.
        """
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        patches = []
        for name_id, (mod_name, fn_name) in enumerate(TRACED):
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name, None)
            if original is None:
                continue  # a later version may drop the function; its row reads 0
            wrapper = self._wrap(original, name_id)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original, wrapper))
        return patches

    @contextmanager
    def active(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    def _wrap(self, fn, name_id: int):
        stack = self._stack
        names, starts, ends, parents = self.name, self.start, self.end, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    # --- results ----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.start)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per layer: (calls, self seconds) over every recorded span."""
        names = np.asarray(self.name, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        calls = np.bincount(names, minlength=len(LAYER_NAMES))
        selfs = np.bincount(names, weights=dur - child, minlength=len(LAYER_NAMES))
        return {
            name: (int(calls[i]), float(selfs[i])) for i, name in enumerate(LAYER_NAMES)
        }

    def dump(self, path) -> None:
        """Write every span to a compressed .npz next to the layer name table."""
        np.savez_compressed(
            path,
            layer_names=np.array(LAYER_NAMES),
            name=np.asarray(self.name, dtype=np.uint16),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
        )
