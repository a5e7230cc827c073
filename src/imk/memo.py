"""Object-level devices of the package: the record base of its value
classes, and the one memoisation device, values kept on the object they
were computed from, so they die with it."""

from __future__ import annotations

# Sets a field past a record's refusing __setattr__; hot __init__s call it by
# this module-level name.
set_field = object.__setattr__


class Record:
    """Base of the package's value classes, in place of dataclasses (whose
    import pulls in inspect and whose methods are exec'd per class).  The
    fields are the names annotated in the class body, after those of its
    record bases; a class attribute of the same name is a default.  Records
    get a keyword-or-positional __init__ that calls __post_init__ if there
    is one (hot classes write their own, faster, with set_field); == and
    hash on the tuple of fields within one class; the dataclass repr, from
    an explicit stack; and, unless declared frozen=False (mutable and
    unhashable), assignment and deletion raise FrozenInstanceError."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [k for k in vars(cls).get("__annotations__", {}) if k not in cls._fields]
        cls._fields += tuple(own)
        cls._defaults = {**cls._defaults, **{k: vars(cls)[k] for k in own if k in vars(cls)}}
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__name__
        given = dict(zip(fields, args))
        if len(args) > len(fields) or not kwargs.keys() <= set(fields) - given.keys():
            raise TypeError(f"{name}() got unexpected arguments")
        values = {**self._defaults, **given, **kwargs}
        for key in fields:
            if key not in values:
                raise TypeError(f"{name}() is missing {key!r}")
            set_field(self, key, values[key])
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple([getattr(self, key) for key in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        out: list[str] = []
        todo: list = [self]  # records still to print, and literal text
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                out.append(item)
            elif type(item).__repr__ is not Record.__repr__:
                out.append(repr(item))
            else:  # pushed last to first: the stack is LIFO
                out.append(f"{type(item).__qualname__}(")
                todo.append(")")
                for i in range(len(item._fields) - 1, -1, -1):
                    value = getattr(item, item._fields[i])
                    todo += [value if isinstance(value, Record) else repr(value),
                             ", " * (i > 0) + f"{item._fields[i]}="]
        return "".join(out)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # only on this error path
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class cached:
    """A property computed on first use and then kept on the instance, like
    functools.cached_property, but stored through object.__setattr__: that
    works on frozen records and, unlike writing to __dict__, keeps
    CPython's fast access to the instance's other attributes."""

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.fn(obj)
        set_field(obj, self.name, value)
        return value
