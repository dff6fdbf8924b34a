"""Outside-in span tracer for the frictionfusion layers.

The tracer wraps each layer's public function from outside the program. A
module that imported a function by name keeps its own reference, so every
wrapper replaces the name the *caller* looks up (``simulator.plan``, not
``planner.plan``). A span stack gives self time: a span's total minus the
time of the child spans it encloses. The bookkeeping of a child wrapper is
charged to the parent's child time, so a parent's self time does not grow
with the number of traced calls beneath it; the tracing cost shows up only
as the gap between traced and untraced wall time.
"""

import contextlib
import functools
import importlib
import time

# Layer name -> the (module, attribute path) names callers look up for it.
LAYERS = {
    "simulator.run": [("frictionfusion.cli", "run"), ("frictionfusion.simulator", "run")],
    "estimators.emulate": [("frictionfusion.simulator", "emulate")],
    "fusion.fuse": [("frictionfusion.estimators", "fuse")],
    "gp.posterior": [("frictionfusion.fusion", "posterior")],
    "gp.gram_matrix": [("frictionfusion.gp", "gram_matrix")],
    "estimators.FrictionProfile.mu_at": [("frictionfusion.estimators", "FrictionProfile.mu_at")],
    "estimators.FrictionProfile.shifted": [
        ("frictionfusion.estimators", "FrictionProfile.shifted")],
    "estimators.classify": [("frictionfusion.estimators", "classify"),
                            ("frictionfusion.simulator", "classify")],
    "planner.plan": [("frictionfusion.simulator", "plan")],
    "kernels.backward_pass": [("frictionfusion._kernels", "backward_pass")],
    "kernels.forward_pass": [("frictionfusion._kernels", "forward_pass")],
    "simulator.step": [("frictionfusion.simulator", "step")],
    "cli.emit_traces": [("frictionfusion.cli", "emit_traces")],
}

# Layers whose calls enclose other traced layers, so self time differs from total.
PARENT_LAYERS = ("simulator.run", "estimators.emulate", "fusion.fuse", "gp.posterior",
                 "planner.plan", "simulator.step")


def _resolve(module_name, path):
    """Return (owner, attribute) for a dotted attribute path, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """Per-layer call counts, total and self time, with optional after-hooks.

    ``hooks`` maps a layer name to ``hook(args, result, seconds)``, called
    after the layer returns and outside its timed span.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.stats = {name: [0, 0.0, 0.0] for name in LAYERS}
        self.missing = []
        self._stack = []

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        hook = self.hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            frame = [0.0]
            stack.append(frame)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                stats[0] += 1
                stats[1] += t2 - t1
                stats[2] += t2 - t1 - frame[0]
            if hook is not None:
                hook(args, result, t2 - t1)
            if stack:
                stack[-1][0] += clock() - t0
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block, then restore."""
        saved = []
        self.missing = []
        try:
            for name, targets in LAYERS.items():
                wrappers = {}
                for module_name, path in targets:
                    found = _resolve(module_name, path)
                    if found is None:
                        self.missing.append(f"{module_name}.{path}")
                        continue
                    owner, attr = found
                    original = owner.__dict__.get(attr, getattr(owner, attr))
                    if id(original) not in wrappers:
                        wrappers[id(original)] = self._wrap(name, original)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrappers[id(original)])
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def per_pass(self, passes):
        """Layer metrics averaged over ``passes``: calls, total_ms, self_ms."""
        out = {}
        for name, (calls, total, self_time) in self.stats.items():
            out[f"{name}.calls"] = (calls / passes, "count")
            out[f"{name}.total_ms"] = (1e3 * total / passes, "ms")
            if name in PARENT_LAYERS:
                out[f"{name}.self_ms"] = (1e3 * self_time / passes, "ms")
        return out
