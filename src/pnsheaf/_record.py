"""Frozen record classes, built without the dataclasses module.

`record` gives a class what pnsheaf uses of ``dataclass(frozen=True)``:
fields from the annotations (base class first), positional or keyword
construction with defaults, then ``__post_init__``; ``==`` only within one
class and ``hash`` over the compared fields; the dataclass repr text;
``__match_args__``; and an error on assignment or deletion.  Instances keep a
``__dict__`` holding exactly the fields, so ``vars``, ``cached_property``,
pickle and ``copy`` work as before.

Importing dataclasses loads inspect, ast, dis and tokenize, and a frozen
dataclass compiles six methods at every import; a record compiles one short
source per class and shares its repr, ``__setattr__`` and ``__delattr__``.
"""


class FrozenRecordError(AttributeError):
    """An assignment to, or deletion of, an attribute of a record."""


class field:  # lower case: it stands in for dataclasses.field at the call sites
    """A field with a default that repr leaves out or == and hash ignore."""

    __slots__ = ("default", "repr", "compare")

    def __init__(self, *, default, repr=True, compare=True):
        self.default, self.repr, self.compare = default, repr, compare


_MISSING = object()


def _repr(self):
    body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__record_repr__)
    return f"{self.__class__.__qualname__}({body})"


def _setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls):
    """Make cls a frozen record; see the module docstring."""
    specs = dict(getattr(cls, "__record_specs__", {}))
    for name in cls.__dict__.get("__annotations__", {}):
        default = cls.__dict__.get(name, _MISSING)
        if isinstance(default, field):
            setattr(cls, name, default.default)
            specs[name] = default
        else:
            specs[name] = field(default=default)
    args = "".join(f", {n}" if s.default is _MISSING else f", {n}=_d_{n}" for n, s in specs.items())
    init = [f"_set(self, {n!r}, {n})" for n in specs]
    if hasattr(cls, "__post_init__"):
        init.append("self.__post_init__()")
    compared = [n for n, s in specs.items() if s.compare]
    same = " and ".join(f"self.{n} == other.{n}" for n in compared) or "True"
    source = (
        f"def __init__(self{args}):\n    " + ("\n    ".join(init) or "pass") + "\n"
        "def __eq__(self, other):\n    if self is other:\n        return True\n"
        f"    if other.__class__ is self.__class__:\n        return {same}\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash(({''.join(f'self.{n}, ' for n in compared)}))\n"
    )
    scope = {"__name__": cls.__module__, "_set": object.__setattr__}
    scope.update({f"_d_{n}": s.default for n, s in specs.items() if s.default is not _MISSING})
    exec(source, scope)
    for method in ("__init__", "__eq__", "__hash__"):
        scope[method].__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, scope[method])
    cls.__record_specs__ = specs
    cls.__record_repr__ = tuple(n for n, s in specs.items() if s.repr)
    cls.__match_args__ = tuple(specs)
    cls.__repr__, cls.__setattr__, cls.__delattr__ = _repr, _setattr, _delattr
    return cls
