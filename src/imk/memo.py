"""The one memoisation device of the package: values kept on the object
they were computed from, so they die with it."""

from __future__ import annotations


class cached:
    """A property computed on first use and then kept on the instance, like
    functools.cached_property, but stored through object.__setattr__: that
    works on frozen dataclasses and, unlike writing to __dict__, keeps
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
        object.__setattr__(obj, self.name, value)
        return value
