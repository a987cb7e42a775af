"""Spans around the calls into each layer, recorded from outside the library.

``Tracer.install`` replaces every binding of each traced function with a
timing wrapper.  Bindings are found by identity, not by name: ``from
.splitting import deligne_delta`` copies the function object into
``height``, ``limits``, ``variations`` and ``biextension``, and patching only
``splitting`` would miss the calls made through those copies.  Methods are
bound in their class.  ``Tracer.remove`` puts every original object back and
checks that none is left wrapped.

Per traced name the tracer keeps the call count and the self time (span
minus the time covered by traced child spans).  Several
functions may share one name (the ``Subspace`` operations are reported
together); nested calls within a name then count once per call, and self
time still covers each instant once.
"""
from __future__ import annotations

import functools
import inspect
import sys
import weakref
from dataclasses import dataclass
from time import perf_counter

# (metric name, module, attribute path): the public functions of each layer.
TARGETS = (
    ("linalg.rref_float", "hodgeheight.linalg", "rref_float"),
    ("linalg.rref_exact", "hodgeheight.linalg", "rref_exact"),
    ("linalg.nullspace_float", "hodgeheight.linalg", "nullspace_float"),
    ("linalg.nullspace_exact", "hodgeheight.linalg", "nullspace_exact"),
    ("linalg.subspace_ops", "hodgeheight.linalg", "Subspace.from_rows"),
    ("linalg.subspace_ops", "hodgeheight.linalg", "Subspace.add"),
    ("linalg.subspace_ops", "hodgeheight.linalg", "Subspace.intersect"),
    ("linalg.subspace_ops", "hodgeheight.linalg", "Subspace.image_under"),
    ("linalg.subspace_ops", "hodgeheight.linalg", "Subspace.preimage_under"),
    ("mhs.validate", "hodgeheight.mhs", "MixedHodgeStructure.validate"),
    ("mhs.bigrading", "hodgeheight.mhs", "MixedHodgeStructure.bigrading"),
    ("mhs.candidate_lattice", "hodgeheight.mhs",
     "MixedHodgeStructure._component_candidates"),
    ("splitting.deligne_delta", "hodgeheight.splitting", "deligne_delta"),
    ("splitting.gl_hodge_components", "hodgeheight.splitting", "gl_hodge_components"),
    ("height.height", "hodgeheight.height", "height"),
    ("height.height_biextension", "hodgeheight.height", "height_biextension"),
    ("biextension.build_biextension", "hodgeheight.biextension", "build_biextension"),
    ("biextension.extract_invariants", "hodgeheight.biextension", "extract_invariants"),
    ("dilog.bloch_wigner", "hodgeheight.dilog", "bloch_wigner"),
    ("dilog.li2", "hodgeheight.dilog", "li2"),
    ("scenarios.dilog_fiber", "hodgeheight.scenarios", "dilog_fiber"),
    ("limits.monodromy_weight_filtration", "hodgeheight.limits",
     "monodromy_weight_filtration"),
    ("limits.relative_weight_filtration", "hodgeheight.limits",
     "relative_weight_filtration"),
    ("limits.deligne_system_grading", "hodgeheight.limits", "deligne_system_grading"),
    ("limits.limit_mhs", "hodgeheight.limits", "limit_mhs"),
    ("limits.limit_height", "hodgeheight.limits", "limit_height"),
    ("limits.orbit_fiber", "hodgeheight.limits", "NilpotentOrbit.fiber"),
    ("variations.fiber", "hodgeheight.variations", "fiber"),
    ("variations.check_asymptotics", "hodgeheight.variations", "check_asymptotics"),
    ("schemas.parse_orbit", "hodgeheight.schemas", "parse_orbit"),
)

# names whose first argument is a structure, counted once per distinct object
STRUCTURE_METHODS = ("mhs.validate", "mhs.bigrading", "mhs.candidate_lattice")


def metric_names() -> list[str]:
    return list(dict.fromkeys(name for name, _, _ in TARGETS))


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0


class Tracer:
    """Install with ``install()``, read ``stats`` and ``structures``, then
    ``remove()``; ``reset()`` clears the figures between passes."""

    def __init__(self, extra_modules=()):
        self.extra_modules = tuple(extra_modules)
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []
        self._seen = weakref.WeakSet()
        self.structures = 0
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.stats = {name: Stat() for name in metric_names()}
        self._seen = weakref.WeakSet()
        self.structures = 0

    # -- binding sites -----------------------------------------------------

    def _namespaces(self):
        """Modules of the library and of the caller, and the classes they define."""
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and name.split(".")[0] == "hodgeheight"]
        mods += [m for m in self.extra_modules if m not in mods]
        out = list(mods)
        for m in mods:
            for value in vars(m).values():
                if inspect.isclass(value) and value.__module__ == m.__name__ \
                        and value not in out:
                    out.append(value)
        return out

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        originals = {}
        self.missing = []
        for name, module, path in TARGETS:
            owner = sys.modules.get(module)
            for part in path.split(".")[:-1]:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(path.split(".")[-1]) if owner is not None else None
            func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if not callable(func):
                self.missing.append(f"{module}.{path}")
                continue
            originals[id(func)] = (func, self._wrap(name, func))
        for ns in self._namespaces():
            for attr, value in list(vars(ns).items()):
                func = value.__func__ if isinstance(value, (staticmethod, classmethod)) \
                    else value
                hit = originals.get(id(func))
                if hit is None or hit[0] is not func:
                    continue
                wrapper = hit[1]
                if isinstance(value, staticmethod):
                    wrapper = staticmethod(wrapper)
                elif isinstance(value, classmethod):
                    wrapper = classmethod(wrapper)
                setattr(ns, attr, wrapper)
                self._patched.append((ns, attr, value))

    def remove(self) -> None:
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        left = [f"{getattr(ns, '__name__', ns)}.{attr}" for ns, attr, value in self._patched
                if vars(ns).get(attr) is not value]
        self._patched = []
        if left:
            raise RuntimeError(f"bindings not restored: {left}")

    @property
    def binding_sites(self) -> int:
        return len(self._patched)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, func):
        stack = self._stack
        counts_structures = name in STRUCTURE_METHODS

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if counts_structures and args and args[0] not in self._seen:
                self._seen.add(args[0])
                self.structures += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span = perf_counter() - start
                child = stack.pop()
                stat = self.stats[name]
                stat.calls += 1
                stat.self_s += span - child
                if stack:
                    stack[-1] += span

        return wrapper
