"""pnsheaf's frozen records against ``dataclasses.dataclass(frozen=True)``.

Every result class of pnsheaf is a record made by ``pnsheaf._record.record``
instead of a frozen dataclass, so that importing pnsheaf loads neither
dataclasses nor inspect.  The reference kept here is the dataclass each
record replaces: for each of the 27 record classes a frozen dataclass twin
is built from the class's own annotations, defaults and methods, and on
seeded instances both must agree on

* the ``inspect.signature`` of the class (parameter names, order, kinds and
  defaults), the ``__qualname__`` and ``__module__`` of ``__init__``,
  ``__eq__`` and ``__hash__``, and the names of the ``__init__`` code;
* construction, positional and by keyword, with and without defaults, and
  the ``TypeError`` of a missing, extra or unknown argument;
* the fields of an instance built under a profiler and a tracer that read
  every frame's locals;
* the fields held in ``vars()``, in order, and ``__match_args__``;
* ``==`` within a class and across classes, and ``hash`` or its
  ``TypeError``;
* the repr text, and the error and message of an assignment or deletion;
* ``pickle`` (records only: a twin cannot be looked up by name) and
  ``copy.deepcopy`` round trips;
* the outcome of ``__post_init__`` on seeded bad field values.

Instances come from seeded library calls: expressions, normal forms,
cohomology tables, Chern and Porteous data, Eagon-Northcott reports,
checker reports and the pfaff objects of small pencils.

Run as a script, ``PYTHONPATH=src python tests/test_records.py`` makes
every check with the standard library only.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import random
import sys

import pnsheaf
from pnsheaf import (
    check_codim1_generic,
    check_endomorphism_space,
    check_map_recovery,
    check_split_distribution,
    check_split_vanishing,
    chern_character,
    cohomology_table,
    direct_sum,
    en_resolution,
    o,
    omega,
    porteous_class,
    random_pencil_form,
    split_bundle,
    tangent,
    total_chern,
    uniqueness_report,
    vanishing_certificate,
)
from pnsheaf.pfaff import annihilator_distribution

from helpers import random_expression

SEED = 252525
RECORD_COUNT = 27
# seeded bad values tried in each field, against __post_init__
BAD_VALUES = (0, -1, 10**5 + 1, (), (1, 0, 2), ("x",), None)
GENERATED = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
             "__match_args__", "__record_specs__", "__dict__",
             "__weakref__", "__annotations__", "__doc__", "__module__", "__qualname__"}


def record_classes() -> list[type]:
    """Every record class pnsheaf defines, bases before subclasses."""
    found = []
    for info in pkgutil.iter_modules(pnsheaf.__path__):
        module = importlib.import_module(f"pnsheaf.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and "__record_specs__" in obj.__dict__
                    and obj.__module__ == module.__name__ and obj not in found):
                found.append(obj)
    return sorted(found, key=lambda cls: (len(cls.__mro__), cls.__module__, cls.__qualname__))


def make_twins(classes) -> dict[type, type]:
    """A frozen dataclass per record class, from its annotations, defaults and methods."""
    twins: dict[type, type] = {}
    for cls in classes:
        base = cls.__bases__[0]
        namespace = {name: value for name, value in cls.__dict__.items()
                     if name not in GENERATED}
        annotations = cls.__dict__.get("__annotations__", {})
        namespace.update(__annotations__=dict(annotations), __module__=cls.__module__,
                         __qualname__=cls.__qualname__, __doc__=cls.__doc__)
        twin = type(cls.__name__, (twins.get(base, base),), namespace)
        twins[cls] = dataclasses.dataclass(frozen=True)(twin)
    return twins


def _is_record(value) -> bool:
    return "__record_specs__" in type(value).__dict__


def _walk(value, out: dict, seen: set) -> None:
    if id(value) in seen:
        return
    seen.add(id(value))
    if _is_record(value):
        out.setdefault(type(value), []).append(value)
        children = list(vars(value).values())
        if type(value).__name__ == "CohomologyTable":
            children.append(value.contributions)
        if type(value).__name__ == "ENCertificate":
            children += [value.term(r.i) for r in value.required]
    elif isinstance(value, (tuple, list)):
        children = list(value)
    elif isinstance(value, dict):
        children = list(value.values())
    else:
        return
    for child in children:
        _walk(child, out, seen)


def seeded_instances() -> dict[type, list]:
    """Record instances, by class, reachable from seeded library results."""
    rng = random.Random(SEED)
    results: list = []
    for _ in range(40):
        n = rng.randint(1, 4)
        e = random_expression(rng, n)
        table = cohomology_table(e)
        results += [e, table, table.contributions, chern_character(e), total_chern(e)]
    for n in (2, 3):
        E = direct_sum(tangent(n), o(1, n))
        G = split_bundle((2, 3), n)
        results += [
            en_resolution(E, G), en_resolution(E, G, True), vanishing_certificate(E, G),
            porteous_class(E, G), porteous_class(omega(1, n), o(0, n)),
            check_split_distribution(n, 2, (1, 2)), check_split_vanishing(n, 2, (1, 2)),
            check_codim1_generic(n, 2), check_endomorphism_space(1, n),
            check_map_recovery(E, G),
        ]
        mixed = direct_sum(tangent(n), omega(1, n), o(-n - 2, n))
        results.append(cohomology_table(mixed).contributions)
    for n, d, seed in ((2, 2, 1), (2, 2, 5), (3, 2, 2)):
        form = random_pencil_form(n, d, seed)
        results += [uniqueness_report(form), annihilator_distribution(form, 2)]
    found: dict[type, list] = {}
    _walk(results, found, set())
    return found


def field_values(instance, twin) -> list:
    return [getattr(instance, f.name) for f in dataclasses.fields(twin)]


def parameters(cls) -> list[tuple]:
    """(name, kind, default) of each parameter of inspect.signature(cls)."""
    return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]


def traced(call):
    """call() under a profiler and a tracer that both read each frame's locals."""
    def hook(frame, event, arg):
        frame.f_locals
        return hook

    saved = sys.getprofile(), sys.gettrace()
    sys.setprofile(hook)
    sys.settrace(hook)
    try:
        return call()
    finally:
        sys.setprofile(saved[0])
        sys.settrace(saved[1])


def outcome(call):
    """("ok", repr) of a call's result, or (exception type name, message)."""
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
        name = "AttributeError" if isinstance(exc, AttributeError) else type(exc).__name__
        return name, str(exc)
    return "ok", repr(value)


def check_class(cls, twin, instances, others) -> list[str]:
    failures = []
    where = cls.__qualname__

    def same(label, a, b):
        if a != b:
            failures.append(f"{where}: {label}: {a!r} != {b!r}")

    fields = dataclasses.fields(twin)
    names = [f.name for f in fields]
    same("__match_args__", cls.__match_args__, twin.__match_args__)
    same("signature", parameters(cls), parameters(twin))
    for method in ("__init__", "__eq__", "__hash__"):
        function = cls.__dict__[method]
        same(f"{method} names", (function.__qualname__, function.__module__),
             (f"{cls.__qualname__}.{method}", twin.__dict__[method].__module__))
    code = cls.__dict__["__init__"].__code__  # co_qualname is new in Python 3.11
    same("__init__ code names", (code.co_name, getattr(code, "co_qualname", None)),
         ("__init__", f"{cls.__qualname__}.__init__" if sys.version_info >= (3, 11) else None))
    for f in fields:
        if f.default is not dataclasses.MISSING:
            same(f"class default {f.name}", getattr(cls, f.name), getattr(twin, f.name))
    for instance in instances:
        values = field_values(instance, twin)
        keywords = dict(zip(names, values))
        rec, ref = cls(*values), twin(*values)
        same("repr", repr(rec), repr(ref))
        same("vars", list(vars(rec).items()), list(vars(ref).items()))
        same("vars when traced", list(vars(traced(lambda: cls(*values)))), names)
        same("by keyword", repr(cls(**keywords)), repr(twin(**keywords)))
        same("== by keyword", rec == cls(**keywords), ref == twin(**keywords))
        required = {f.name: keywords[f.name] for f in fields
                    if f.default is dataclasses.MISSING}
        same("defaults", outcome(lambda: cls(**required)), outcome(lambda: twin(**required)))
        same("missing argument", outcome(lambda: cls(*values[:-1])),
             outcome(lambda: twin(*values[:-1])))
        same("extra argument", outcome(lambda: cls(*values, 0)), outcome(lambda: twin(*values, 0)))
        same("unknown keyword", outcome(lambda: cls(**keywords, bogus=1)),
             outcome(lambda: twin(**keywords, bogus=1)))
        same("hash", outcome(lambda: hash(rec)), outcome(lambda: hash(ref)))
        for name in (names[0], "bogus"):
            same(f"assign {name}", outcome(lambda: setattr(rec, name, 0)),
                 outcome(lambda: setattr(ref, name, 0)))
            same(f"delete {name}", outcome(lambda: delattr(rec, name)),
                 outcome(lambda: delattr(ref, name)))
        same("record == twin", rec == ref, False)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(rec, protocol))
            same(f"pickle {protocol}", (type(back), vars(back), back == rec),
                 (cls, vars(rec), True))
        rec_copy, ref_copy = copy.deepcopy(rec), copy.deepcopy(ref)
        same("deepcopy", (repr(rec_copy), rec_copy == rec), (repr(ref_copy), ref_copy == ref))
        for other in instances:
            other_values = field_values(other, twin)
            same("==", rec == cls(*other_values), ref == twin(*other_values))
        for other_cls, other_twin, other in others:
            if other_cls is not cls:
                other_values = field_values(other, other_twin)
                same(f"== {other_cls.__qualname__}",
                     (rec == other_cls(*other_values), rec.__eq__(other)),
                     (ref == other_twin(*other_values), ref.__eq__(other_twin(*other_values))))
    return failures


def check_post_init(cls, twin, instances) -> tuple[list[str], int]:
    """(failures, refusals seen) over seeded bad values in each field."""
    rng = random.Random(f"{SEED}-{cls.__qualname__}")
    failures, refusals = [], 0
    for instance in rng.sample(instances, min(3, len(instances))):
        values = field_values(instance, twin)
        for i in range(len(values)):
            for bad in BAD_VALUES + (getattr(rng.choice(instances), twin.__match_args__[i]),):
                args = values[:i] + [bad] + values[i + 1:]
                got, want = outcome(lambda: cls(*args)), outcome(lambda: twin(*args))
                if got != want:
                    failures.append(f"{cls.__qualname__}: field {i} = {bad!r}: {got} != {want}")
                refusals += want[0] != "ok"
    return failures, refusals


def check_all() -> tuple[list[str], int, int]:
    """(failures, instances compared, __post_init__ refusals compared)."""
    classes = record_classes()
    failures = []
    if len(classes) != RECORD_COUNT:
        failures.append(f"{len(classes)} record classes, expected {RECORD_COUNT}")
    twins = make_twins(classes)
    found = seeded_instances()
    for cls in classes:  # a base with no instance of its own borrows a subclass's values
        if cls not in found:
            donors = [x for sub, xs in found.items() if issubclass(sub, cls) for x in xs]
            found[cls] = [cls(*field_values(x, twins[cls])) for x in donors[:5]]
        if not found[cls]:
            failures.append(f"{cls.__qualname__}: no seeded instance")
    others = [(cls, twins[cls], found[cls][0]) for cls in classes if found[cls]]
    count = refusals = 0
    for cls in classes:
        instances = found[cls][:12]
        count += len(instances)
        failures += check_class(cls, twins[cls], instances, others)
        if hasattr(cls, "__post_init__") and instances:
            found_failures, seen = check_post_init(cls, twins[cls], instances)
            failures += found_failures
            refusals += seen
    return failures, count, refusals


def test_records_behave_as_frozen_dataclasses():
    failures, count, refusals = check_all()
    assert not failures, failures[:10]
    assert count >= 3 * RECORD_COUNT
    assert refusals > 100


def test_record_errors_are_attribute_errors():
    table = cohomology_table(tangent(2))
    try:
        table.dims = ()
    except AttributeError as exc:
        assert str(exc) == "cannot assign to field 'dims'"
    else:
        raise AssertionError("a record accepted an assignment")


if __name__ == "__main__":
    failures, count, refusals = check_all()
    for line in failures:
        print(line)
    print(f"Python {sys.version.split()[0]}: {RECORD_COUNT} record classes, {count} seeded"
          f" instances, {refusals} __post_init__ refusals, {len(failures)} failures")
    sys.exit(1 if failures else 0)
