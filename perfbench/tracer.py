"""Span recorder for the traced run.

``Tracer.install`` replaces every module-level public function of every
``pnsheaf.*`` module with a recording wrapper, by patching each module
attribute that is the original function, wherever it was imported to.
``Poly`` and ``ChowClass`` methods and private helpers stay unwrapped, so a
span is a call across a public layer boundary.  A forked child records into
flat arrays (name, parent, start, end) and a few counters, and ships them
back through the pipe; the parent turns them into self times.  The tracer
is used only in the traced run: end-to-end metrics come from untraced runs.
"""

from __future__ import annotations

import importlib
import pickle
import pkgutil
import time
from array import array
from collections import Counter

LAYERS = (
    "cli", "grammar", "bundles", "weights", "cohomology", "chow",
    "complexes", "checkers", "polyideal", "linalg", "pfaff",
)

# functions whose hashable argument is remembered, for repeat_frac
REPEAT_TRACKED = ("bundles.normalize", "weights.lr_product", "cohomology.bwb_cohomology")


def pnsheaf_modules() -> list:
    import pnsheaf

    names = sorted(m.name for m in pkgutil.iter_modules(pnsheaf.__path__))
    return [pnsheaf] + [importlib.import_module(f"pnsheaf.{name}") for name in names]


def public_functions(modules) -> list[tuple[str, object]]:
    """(layer.name, function) for each public function a module defines."""
    found = []
    for mod in modules:
        layer = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == mod.__name__:
                found.append((f"{layer}.{name}", obj))
    return found


def self_times(parents, starts, ends) -> list[int]:
    """Each span's duration minus the time its direct child spans cover.

    Spans come in start order with ``parents[i] < i`` (or -1 for a root);
    the children of one span never overlap, since one thread records them.
    """
    covered = [0] * len(starts)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    return [ends[i] - starts[i] - covered[i] for i in range(len(starts))]


def _coeff_bits(poly) -> int:
    bits = 0
    for c in poly.terms.values():
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


class Recording:
    """What one child records: spans in start order plus counters."""

    def __init__(self):
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.seen: dict[str, set] = {name: set() for name in REPEAT_TRACKED}
        self.maxima: Counter = Counter()
        self.open_buchberger = 0

    def dump(self) -> bytes:
        return pickle.dumps((
            self.names.tobytes(), self.parents.tobytes(), self.starts.tobytes(),
            self.ends.tobytes(), dict(self.counters), dict(self.maxima),
        ))


def load(blob: bytes):
    names, parents, starts, ends, counters, maxima = pickle.loads(blob)
    arrays = []
    for raw, code in ((names, "i"), (parents, "i"), (starts, "q"), (ends, "q")):
        arr = array(code)
        arr.frombytes(raw)
        arrays.append(arr)
    return arrays, counters, maxima


class Tracer:
    def __init__(self, modules):
        self.modules = modules
        self.targets = public_functions(modules)
        self.span_names = [name for name, _ in self.targets]
        self.rec = Recording()
        self._saved: list[tuple[object, str, object]] = []

    # parent side ------------------------------------------------------------

    def install(self) -> None:
        wrappers = {id(fn): (fn, self._wrap(idx, name, fn))
                    for idx, (name, fn) in enumerate(self.targets)}
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # child side -------------------------------------------------------------

    def begin(self) -> None:
        self.rec = Recording()

    def _wrap(self, idx: int, name: str, fn):
        hook = _HOOKS.get(name)
        clock = time.perf_counter_ns
        is_buchberger = name == "polyideal.buchberger"

        def wrapper(*args, **kwargs):
            rec = self.rec
            span = len(rec.starts)
            rec.names.append(idx)
            rec.parents.append(rec.stack[-1] if rec.stack else -1)
            rec.ends.append(0)
            rec.stack.append(span)
            rec.open_buchberger += is_buchberger
            rec.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.ends[span] = clock()
                rec.stack.pop()
                rec.open_buchberger -= is_buchberger
            if hook is not None:
                hook(rec, args, kwargs, result)
            return result

        return wrapper


# counters, run after the span closes so their cost lands in the caller --------


def _repeat(name):
    def hook(rec, args, kwargs, result):
        key = (args, tuple(sorted(kwargs.items())))
        seen = rec.seen[name]
        rec.counters[f"{name}.repeats"] += key in seen
        seen.add(key)
    return hook


_repeat_normalize = _repeat("bundles.normalize")
_repeat_bwb = _repeat("cohomology.bwb_cohomology")


def _normalize(rec, args, kwargs, result):
    _repeat_normalize(rec, args, kwargs, result)
    rec.counters["bundles.normalize.summands"] += len(result.terms)


def _bwb(rec, args, kwargs, result):
    _repeat_bwb(rec, args, kwargs, result)
    rec.counters["cohomology.bwb_cohomology.nonzero"] += result is not None


def _raise_max(rec, key: str, value: int) -> None:
    rec.maxima[key] = max(rec.maxima[key], value)


def _normal_form(rec, args, kwargs, result):
    if not rec.open_buchberger:
        return
    rec.counters["polyideal.nf_in_buchberger"] += 1
    rec.counters["polyideal.nf_zero_in_buchberger"] += not result
    basis = args[1] if len(args) > 1 else kwargs["basis"]
    _raise_max(rec, "polyideal.basis_len_max", len(basis))
    if result:
        _raise_max(rec, "polyideal.coeff_bits_max", _coeff_bits(result))


def _buchberger(rec, args, kwargs, result):
    _raise_max(rec, "polyideal.basis_len_max", len(result))
    for poly in result:
        _raise_max(rec, "polyideal.coeff_bits_max", _coeff_bits(poly))


def _kernel_basis(rec, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    rec.counters["linalg.kernel_basis.cells"] += len(rows) * ncols


_HOOKS = {
    "bundles.normalize": _normalize,
    "weights.lr_product": _repeat("weights.lr_product"),
    "cohomology.bwb_cohomology": _bwb,
    "polyideal.normal_form": _normal_form,
    "polyideal.buchberger": _buchberger,
    "linalg.kernel_basis": _kernel_basis,
}


# ---------------------------------------------------------------------------
# aggregation in the parent


class LayerStats:
    """Per-layer totals over the traced requests of one run."""

    def __init__(self, span_names: list[str]):
        self.span_names = span_names
        self.requests = 0
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.maxima: Counter = Counter()

    def add(self, blob: bytes) -> None:
        (names, parents, starts, ends), counters, maxima = load(blob)
        self.requests += 1
        for idx, own in zip(names, self_times(parents, starts, ends)):
            name = self.span_names[idx]
            layer = name.partition(".")[0]
            self.self_ns[name] += own
            self.self_ns[layer] += own
            self.calls[name] += 1
            self.calls[layer] += 1
        self.counters.update(counters)
        for key, value in maxima.items():
            self.maxima[key] = max(self.maxima[key], value)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-request means of times and counts; ratios over the whole run."""
        per = max(self.requests, 1)

        def ms(key):
            return (self.self_ns[key] / 1e6 / per, "ms")

        def count(value):
            return (value / per, "count")

        def ratio(num, den):
            return (num / den if den else 0.0, "ratio")

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = ms(layer)
            out[f"{layer}.calls"] = count(self.calls[layer])
        c, calls = self.counters, self.calls
        out["bundles.normalize.summands"] = count(c["bundles.normalize.summands"])
        for name in REPEAT_TRACKED:
            out[f"{name}.repeat_frac"] = ratio(c[f"{name}.repeats"], calls[name])
        out["weights.lr_product.calls"] = count(calls["weights.lr_product"])
        out["cohomology.bwb_cohomology.calls"] = count(calls["cohomology.bwb_cohomology"])
        out["cohomology.bwb_cohomology.nonzero_frac"] = ratio(
            c["cohomology.bwb_cohomology.nonzero"], calls["cohomology.bwb_cohomology"])
        out["chow.chern_character.self_ms"] = ms("chow.chern_character")
        out["chow.hrr_chi.calls"] = count(calls["chow.hrr_chi"])
        for name in ("polyideal.buchberger", "polyideal.normal_form"):
            out[f"{name}.self_ms"] = ms(name)
            out[f"{name}.calls"] = count(calls[name])
        out["polyideal.s_polynomial.calls"] = count(calls["polyideal.s_polynomial"])
        out["polyideal.zero_reduction_frac"] = ratio(
            c["polyideal.nf_zero_in_buchberger"], c["polyideal.nf_in_buchberger"])
        out["polyideal.basis_len_max"] = (float(self.maxima["polyideal.basis_len_max"]), "count")
        out["polyideal.coeff_bits_max"] = (float(self.maxima["polyideal.coeff_bits_max"]), "bits")
        out["linalg.kernel_basis.self_ms"] = ms("linalg.kernel_basis")
        out["linalg.kernel_basis.calls"] = count(calls["linalg.kernel_basis"])
        out["linalg.kernel_basis.cells"] = count(c["linalg.kernel_basis.cells"])
        out["pfaff.vanishing_section_space.self_ms"] = ms("pfaff.vanishing_section_space")
        return out
