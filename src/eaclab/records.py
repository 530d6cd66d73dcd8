"""Value classes for eaclab, made by one small class decorator.

``@record`` and ``@record(frozen=True)`` read a class's annotations in
order, its class-level defaults and its ``field(default_factory=...)``
markers, and add what the standard library's ``@dataclass`` would: an
``__init__`` that calls ``__post_init__`` when the class defines one,
``__repr__``, and ``__eq__`` over the field tuple. Frozen records also
hash that tuple and refuse assignment; mutable ones are unhashable. Only
``__init__`` is compiled, at the class's first instance: until then the
class has a stub that compiles it, puts it in its own place and calls
it, so every later instance runs the compiled code alone. A command
compiles only the records it makes: ``import eaclab.cli`` defines 19
and compiles 2, the two that serve as class-level defaults.
``replace`` copies a record through its ``__init__``, so
``__post_init__`` checks every copy.
"""

from operator import attrgetter

_FACTORY = object()  # the default of an argument that a factory fills in


class FrozenInstanceError(AttributeError):
    """Assigning or deleting a field of a frozen record."""


class field:
    """A field default made anew for each instance by ``default_factory``."""

    def __init__(self, *, default_factory):
        self.default_factory = default_factory


def record(cls=None, *, frozen=False):
    """Class decorator: ``@record`` or ``@record(frozen=True)``."""
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def replace(obj, **changes):
    """A copy of record ``obj`` with ``changes``, made by its ``__init__``."""
    values = obj.__dict__
    for name in obj._fields:
        if name not in changes:
            changes[name] = values[name]
    return obj.__class__(**changes)


def _build(cls, frozen):
    names = tuple(cls.__annotations__)
    env = {"_FACTORY": _FACTORY, "_setattr": object.__setattr__}
    params, body, items = [], [], []
    for name in names:
        default = cls.__dict__.get(name)
        value = name
        if name not in cls.__dict__:
            params.append(name)
        elif isinstance(default, field):
            env[f"_f_{name}"] = default.default_factory
            params.append(f"{name}=_FACTORY")
            value = f"_f_{name}() if {name} is _FACTORY else {name}"
            delattr(cls, name)
        else:
            env[f"_d_{name}"] = default
            params.append(f"{name}=_d_{name}")
        items.append(f"{name!r}: {value}")
        if not frozen:
            body.append(f"self.{name} = {value}")
    if frozen and names:
        # A frozen record gets its fields as one new instance dict, in one
        # call past the refusing ``__setattr__``. Filling the dict that
        # ``self.__dict__`` materializes is cheaper still, but CPython
        # 3.11-3.12 then reads each field of it without specialization.
        body.append(f"_setattr(self, '__dict__', {{{', '.join(items)}}})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    source = f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body or ["pass"])

    def __init__(self, *args, **kwargs):
        # The first instance compiles the real ``__init__`` and puts it in
        # place of this stub, unless something else has replaced the stub.
        if "__init__" not in env:
            exec(source, env)
            env["__init__"].__qualname__ = __init__.__qualname__
        if cls.__dict__["__init__"] is __init__:
            cls.__init__ = env["__init__"]
        env["__init__"](self, *args, **kwargs)

    if len(names) > 1:
        values = attrgetter(*names)
    else:
        def values(obj):
            return tuple(getattr(obj, name) for name in names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    for method in (__init__, __eq__, __hash__, __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    if frozen:
        cls.__setattr__ = _refuse_set
        cls.__delattr__ = _refuse_delete
    else:
        cls.__hash__ = None
    cls._fields = names
    return cls


def _refuse_set(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")
