"""Immutable value records: the fields are the class's own annotations.

    class PlanePoint(Record):
        x: Fraction
        y: Fraction

is built by position or keyword, fills a missing field from a class
attribute of the same name, runs `__post_init__` to validate, refuses
assignment and deletion, compares equal only to a record of the same
class with equal field values, hashes as the tuple of those values and
prints as `PlanePoint(x=Fraction(1, 2), y=Fraction(3, 1))`. That is what
`@dataclass(frozen=True)` gives, without generating code: the class is
read once when it is defined, and every method here serves every record.
`vars(r)` holds the fields; `pickle` and `copy.deepcopy` restore them as
they are, without running `__post_init__` again.
"""

from __future__ import annotations


class Record:
    """Base class of an immutable record; see the module docstring."""

    _fields: tuple[str, ...] = ()
    _field_set: frozenset[str] = frozenset()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__annotations__)
        cls._fields = cls.__match_args__ = names
        cls._field_set = frozenset(names)
        cls._defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        if not kwargs and len(args) == len(self._fields):
            self.__dict__.update(zip(self._fields, args))
        elif not args and kwargs.keys() == self._field_set:
            self.__dict__.update(kwargs)
        else:
            self.__dict__.update(self._bind(args, kwargs))
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> dict:
        """The fields from a partial or faulty argument list, defaults filled in, or TypeError."""
        name = type(self).__qualname__
        if len(args) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} arguments but {len(args)} were given")
        values = dict(zip(self._fields, args))
        for key in kwargs:
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            if key not in self._field_set:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        values.update(kwargs)
        for key in self._fields[len(args):]:
            if key not in values:
                if key not in self._defaults:
                    raise TypeError(f"{name}() missing required argument {key!r}")
                values[key] = self._defaults[key]
        return values

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"
