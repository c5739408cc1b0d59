"""Records: the package's one way to declare a value class.

A record is a slotted class built from its annotated fields, as a dataclass
is, without importing `dataclasses`, which loads `inspect` and with it `ast`,
`dis` and `tokenize`.
"""

from reprlib import recursive_repr

MISSING = object()  # a field with no default


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion from, a frozen record."""


class Field:
    """A field's default and options, written as its default: `x: dict = Field(...)`.

    `factory` makes a per-instance default. An `init=False` field is no
    constructor argument: it starts at its default or is left for
    `__post_init__`. `compare`, `hash` (None: as `compare`) and `repr` are
    `dataclasses.field`'s. `record` adds `name` and `type` (the annotation).
    """

    __slots__ = ("name", "type", "default", "factory", "init", "compare", "hash", "repr")

    def __init__(
        self, *, default=MISSING, factory=None, init=True, compare=True, hash=None, repr=True
    ):
        self.default, self.factory, self.init = default, factory, init
        self.compare, self.hash, self.repr = compare, hash, repr


def _refuse(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _refuse_subclass(cls, **kwargs):
    raise TypeError(f"record {cls.__mro__[1].__name__} cannot be subclassed")


def record(cls=None, *, frozen=True):
    """The class rebuilt with slots and methods generated in one `exec`.

    Its fields (`__record_fields__`) are its annotations, in order. Equality
    (of field tuples, as before Python 3.13), hash and repr are a
    dataclass's; `frozen=False` makes the mutable form, with no hash. A
    frozen record's `__new__` fills a bare instance of an unfrozen twin
    class by plain stores, cheaper than a frozen dataclass's calls to
    `object.__setattr__`, and then sets its `__class__`; last it runs
    `__post_init__`, if the class has one, to check the fields or derive
    the `init=False` ones. Copies and pickles call the class with the
    constructor arguments. Subclasses, and classes that define `__init__`
    or a generated method, are refused.
    """
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    body = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    generated = ("__new__", "__eq__", "__hash__", "__repr__")  # by the one `exec`
    for name in ("__init__", *generated):
        if name in body:
            raise TypeError(f"record {cls.__name__} cannot define {name}")
    table = {}
    for name, annotation in body.get("__annotations__", {}).items():
        spec = body.pop(name, MISSING)
        table[name] = spec if isinstance(spec, Field) else Field(default=spec)
        table[name].name, table[name].type = name, annotation
    body.update(__slots__=tuple(table), __qualname__=cls.__qualname__)
    body["__record_fields__"] = table
    cls = type(cls)(cls.__name__, cls.__bases__, body)

    twin = type(f"_{cls.__name__}", cls.__bases__, {"__slots__": cls.__slots__})
    namespace = {"_new": object.__new__, "_twin": twin if frozen else cls}
    params, lines = [], [None, "    self = _new(_twin)"]
    for f in table.values():
        default, make = f"_default_{f.name}", f"_factory_{f.name}"
        namespace[default], namespace[make] = f.default, f.factory
        value = f"{make}()" if f.factory else None if f.default is MISSING else default
        if f.init:
            params.append(f.name if value is None else f"{f.name}={default}")
            value = f"{value} if {f.name} is {default} else {f.name}" if f.factory else f.name
        if value is not None:  # else left for `__post_init__` to set
            lines.append(f"    self.{f.name} = {value}")
    lines[0] = f"def __new__(cls, {', '.join(params)}):"
    lines += ["    self.__class__ = cls"] * frozen
    lines += ["    self.__post_init__()"] * ("__post_init__" in body)
    fields = table.values()
    compared = [f.name for f in fields if f.compare]
    hashed = [f.name for f in fields if (f.compare if f.hash is None else f.hash)]
    shown = ", ".join(f"{f.name}={{self.{f.name}!r}}" for f in fields if f.repr)

    def values(obj: str, names: list) -> str:
        return "(" + "".join(f"{obj}.{name}," for name in names) + ")"

    lines += [
        "    return self",
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return {values('self', compared)} == {values('other', compared)}",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash({values('self', hashed)})",
        "def __repr__(self):",
        f'    return self.__class__.__qualname__ + f"({shown})"',
    ]
    exec("\n".join(lines), namespace)
    for name in generated:
        namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
    init = [f.name for f in fields if f.init]
    cls.__new__ = staticmethod(namespace["__new__"])
    cls.__eq__ = namespace["__eq__"]
    cls.__hash__ = namespace["__hash__"] if frozen else None
    cls.__repr__ = recursive_repr()(namespace["__repr__"])
    cls.__reduce__ = lambda self: (cls, tuple(getattr(self, n) for n in init))
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _refuse
    cls.__init_subclass__ = classmethod(_refuse_subclass)
    return cls


def replace(obj, /, **changes):
    """`dataclasses.replace` for records: `init=False` fields start afresh."""
    for f in obj.__record_fields__.values():
        if f.init:
            changes.setdefault(f.name, getattr(obj, f.name))
        elif f.name in changes:
            raise ValueError(f"field {f.name} is declared with init=False")
    return obj.__class__(**changes)
