"""Per-layer tracer that wraps moranspec's public functions from outside.

``Tracer.install`` replaces every public function of the layer modules with
a timing wrapper, in its defining module and in every ``moranspec`` module
(or module-level dict, such as the CLI's command table) that holds a copy
from ``from .core import ...``.  ``uninstall`` puts the originals back.

Each call is timed on a stack so that a function's self time is its time
minus the time of wrapped calls below it.  The wrapper's own bookkeeping is
measured and removed from every enclosing time, so layer times hold the
program's work only.  Calls to the functions in ``HOT`` are counted and
summed; every other call, and every op, becomes a span with the id of the
span that caused it.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("cli", "core", "spectrum", "certificates", "hadamard", "density")

#: Called thousands of times per op: counted and summed, no span per call.
HOT = frozenset({
    "core.zero_set_contains",
    "core.mask_eval",
    "core.fourier_tail",
    "core.fourier_level",
    "spectrum.q_sum_finite",
})


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


# Counters taken from each call's arguments and return value.  They run after
# the call's clock has stopped and must stay O(1): work that grows with the
# input is kept for ``end_pass``.


def _atoms(c, kept, args, kwargs, result):
    c["core.atoms.atoms"] += len(result.atoms)
    kept["atoms"].append((_arg(args, kwargs, 0, "system"), _arg(args, kwargs, 1, "n")))


def _zero_set(c, kept, args, kwargs, result):
    c["core.zero_set_contains.hits"] += result is not None


def _mask_eval(c, kept, args, kwargs, result):
    xi = _arg(args, kwargs, 1, "xi")
    scalar = np.ndim(xi) == 0
    c["core.mask_eval.elems"] += 1 if scalar else np.size(xi)
    c["core.mask_eval.scalar_calls"] += scalar


def _fourier_level(c, kept, args, kwargs, result):
    c["core.fourier_level.elems"] += np.size(_arg(args, kwargs, 2, "xi"))


def _check_orthogonal(c, kept, args, kwargs, result):
    c["spectrum.check_orthogonal.pairs"] += result.pairs_checked
    kept["ortho"].append(_arg(args, kwargs, 1, "points"))


def _level_spectrum(c, kept, args, kwargs, result):
    c["spectrum.level_spectrum.points"] += len(result)


def _certify(c, kept, args, kwargs, result):
    kept["certify"].append((_arg(args, kwargs, 3, "samples", 200), result.diagnostics))


def _support_cover(c, kept, args, kwargs, result):
    c["density.support_cover.intervals"] += len(result.intervals)


def _tiling_check(c, kept, args, kwargs, result):
    window = _arg(args, kwargs, 1, "window")
    c["density.tiling_check.probes"] += _arg(args, kwargs, 2, "samples") * (2 * window + 1)


COUNTERS = {
    "core.atoms": _atoms,
    "core.zero_set_contains": _zero_set,
    "core.mask_eval": _mask_eval,
    "core.fourier_level": _fourier_level,
    "spectrum.check_orthogonal": _check_orthogonal,
    "spectrum.level_spectrum": _level_spectrum,
    "certificates.certify": _certify,
    "density.support_cover": _support_cover,
    "density.tiling_check": _tiling_check,
}

#: Diagnostics lines that show a certify call reached its sampling stage.
SAMPLED = ("sampled tail minimum", "head completeness")


class _Frame:
    __slots__ = ("span", "child", "over")

    def __init__(self, span):
        self.span = span  # span id, or None for a hot call
        self.child = 0.0  # net time of wrapped calls directly below
        self.over = 0.0  # wrapper bookkeeping time anywhere below


class Tracer:
    """Times the layer functions of an imported ``moranspec`` package."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.total = defaultdict(float)  # seconds, net of tracer bookkeeping
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.kept = defaultdict(list)
        self.spans = []  # [id, parent id, name, start, net duration, label]
        self.passes = 0
        self._stack = []
        self._restore = []

    # -- wrapping ------------------------------------------------------------

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"moranspec.{layer}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for name, module in list(sys.modules.items()):
            if name != "moranspec" and not name.startswith("moranspec."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = wrappers.get(id(item))
                        if hit and hit[0] is item:
                            value[key] = hit[1]
                            self._restore.append((value.__setitem__, key, item))
                    continue
                hit = wrappers.get(id(value))
                if hit and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module.__setattr__, attr, value))

    def uninstall(self):
        for put, key, original in reversed(self._restore):
            put(key, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        hot = name in HOT
        count = COUNTERS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            e0 = perf_counter()
            span = None
            if not hot:
                span = len(self.spans)
                self.spans.append([span, self._parent(), name, e0, 0.0, None])
            frame = _Frame(span)
            stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                net = t1 - t0 - frame.over
                self.calls[name] += 1
                self.total[name] += net
                self.self_time[name] += net - frame.child
                if span is not None:
                    self.spans[span][4] = net
                if not ok:
                    self.errors[name] += 1
                elif count is not None:
                    count(self.counters, self.kept, args, kwargs, result)
                if stack:
                    parent = stack[-1]
                    parent.child += net
                    parent.over += frame.over + (t0 - e0) + (perf_counter() - t1)

        traced.__wrapped__ = fn
        return traced

    def _parent(self):
        for frame in reversed(self._stack):
            if frame.span is not None:
                return frame.span
        return None

    @contextmanager
    def op(self, label):
        """Span around one op; layer calls inside it become its descendants."""
        span = len(self.spans)
        start = perf_counter()
        self.spans.append([span, None, "op", start, 0.0, label])
        frame = _Frame(span)
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            net = perf_counter() - start - frame.over
            self.spans[span][4] = net
            self.total["op"] += net

    # -- results ---------------------------------------------------------------

    def end_pass(self):
        """Fold the values kept during a pass into counters."""
        seen = set()
        for key in self.kept.pop("atoms", ()):
            self.counters["core.atoms.repeats"] += key in seen
            seen.add(key)
        for points in self.kept.pop("ortho", ()):
            pts = getattr(points, "points", points)
            self.counters["spectrum.check_orthogonal.distinct_diffs"] += len(
                {abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1:]})
        for samples, diagnostics in self.kept.pop("certify", ()):
            if any(line.startswith(SAMPLED) for line in diagnostics.splitlines()):
                self.counters["certificates.samples"] += samples
        self.passes += 1

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each the mean over the traced passes."""
        n = max(self.passes, 1)
        c = self.counters

        def ms(name):
            return 1e3 * self.total[name] / n

        def ratio(part, whole):
            return part / whole if whole else 0.0

        out = {}
        for name in ("cli.build_parser", "cli.load_system", "core.parse_system",
                     "core.atoms", "core.zero_set_contains",
                     "spectrum.check_orthogonal", "core.mask_eval",
                     "core.fourier_tail", "certificates.certify",
                     "certificates.epsilon_next_level", "core.fourier_level",
                     "spectrum.q_sum_finite", "spectrum.level_spectrum",
                     "hadamard.hadamard_triple", "density.support_cover",
                     "density.density_histogram", "density.tiling_check"):
            out[f"{name}.ms"] = (ms(name), "ms")
        for name in ("core.parse_system", "core.atoms", "core.zero_set_contains",
                     "core.mask_eval", "core.fourier_tail", "spectrum.q_sum_finite"):
            out[f"{name}.calls"] = (self.calls[name] / n, "count")
        for name in ("core.atoms.atoms", "spectrum.check_orthogonal.pairs",
                     "spectrum.check_orthogonal.distinct_diffs", "core.mask_eval.elems",
                     "certificates.samples", "core.fourier_level.elems",
                     "spectrum.level_spectrum.points", "density.support_cover.intervals",
                     "density.tiling_check.probes"):
            out[name] = (c[name] / n, "count")
        out["core.atoms.errors"] = (self.errors["core.atoms"] / n, "count")
        out["core.atoms.repeat_share"] = (
            ratio(c["core.atoms.repeats"], self.calls["core.atoms"]), "ratio")
        out["core.zero_set_contains.hit_share"] = (
            ratio(c["core.zero_set_contains.hits"],
                  self.calls["core.zero_set_contains"]), "ratio")
        out["spectrum.check_orthogonal.useful_ratio"] = (
            ratio(c["spectrum.check_orthogonal.distinct_diffs"],
                  c["spectrum.check_orthogonal.pairs"]), "ratio")
        out["core.mask_eval.scalar_share"] = (
            ratio(c["core.mask_eval.scalar_calls"], self.calls["core.mask_eval"]),
            "ratio")
        out["certificates.certify.self_ms"] = (
            1e3 * self.self_time["certificates.certify"] / n, "ms")
        for layer in LAYERS:
            own = sum(t for name, t in self.self_time.items()
                      if name.startswith(layer + "."))
            out[f"{layer}.self_ms"] = (1e3 * own / n, "ms")
        # The layers' self times add up to this busy time of all ops.
        out["trace.ops_ms"] = (ms("op"), "ms")
        return out
