"""Frozen record classes, built without the dataclasses module.

`record` gives a class what pnsheaf uses of ``dataclass(frozen=True)``:
fields from the annotations (base class first), positional or keyword
construction with defaults, then ``__post_init__``; ``==`` only within one
class and ``hash`` over all the fields; the dataclass repr text;
``__match_args__``; and an error on assignment or deletion.  Instances keep a
``__dict__`` holding exactly the fields, so ``vars``, ``cached_property``,
pickle and ``copy`` work as before.

Importing dataclasses loads inspect, ast, dis and tokenize, and a frozen
dataclass compiles six methods at every import.  A record compiles nothing:
its ``__init__`` is `_init` or `_init_post` re-signed by ``code.replace``.
"""

from operator import attrgetter


class FrozenRecordError(AttributeError):
    """An assignment to, or deletion of, an attribute of a record."""


_MISSING = object()


# Re-signed, their locals are self and the fields (__post_init__ sees self in vars too).
# Before 3.13 a tracer refills locals(), the frame's dict, but leaves an unbound self out.
def _init(self):
    object.__setattr__(self, "__dict__", locals())
    del self.__dict__["self"], self


def _init_post(self):
    object.__setattr__(self, "__dict__", locals())
    self.__post_init__()
    del self.__dict__["self"], self


def _repr(self):
    body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({body})"


def _setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls):
    """Make cls a frozen record; see the module docstring."""
    specs = dict(getattr(cls, "__record_specs__", {}))
    for name in cls.__dict__.get("__annotations__", {}):
        specs[name] = cls.__dict__.get(name, _MISSING)
    cls.__match_args__ = names = tuple(specs)
    defaults = tuple(d for d in specs.values() if d is not _MISSING)
    if any(specs[n] is _MISSING for n in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with")
    code = (_init_post if hasattr(cls, "__post_init__") else _init).__code__.replace(
        co_argcount=len(names) + 1, co_nlocals=len(names) + 1, co_varnames=("self", *names),
        co_name="__init__")
    if hasattr(code, "co_qualname"):  # Python 3.11+
        code = code.replace(co_qualname=f"{cls.__qualname__}.__init__")
    __init__ = type(_init)(code, globals(), "__init__", defaults)
    get, single = attrgetter(*names), len(names) == 1  # a tuple unless single

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or get(self) == get(other)
        return NotImplemented

    def __hash__(self):  # of a 1-tuple if single, as dataclass
        return hash((get(self),) if single else get(self))

    for method in (__init__, __eq__, __hash__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        method.__module__ = cls.__module__
        setattr(cls, method.__name__, method)
    cls.__record_specs__ = specs
    cls.__repr__, cls.__setattr__, cls.__delattr__ = _repr, _setattr, _delattr
    return cls
