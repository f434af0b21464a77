"""Immutable value records: the one form of every result type of the engine.

A subclass of `Record` lists its fields (one to seven) as class annotations,
in order, and takes them positionally; a field given a value in the class
body takes that value as its default, and a `__post_init__` method, if the
class has one, runs after the fields are set.  All records share the
functions below, so defining one compiles no code.

An instance keeps its fields in its `__dict__`, where a `cached_property`
also stores what it computes, together with `_values`, the tuple of the
compared fields.  Equality, the hash and the repr (`Name(field=value, ...)`)
read that tuple alone; the trailing fields named in the class keyword
`ignore` are left out of all three.  Assignment and deletion raise
`FrozenRecordError`, an `AttributeError`.
"""

from __future__ import annotations

__all__ = ["Record", "FrozenRecordError", "replace"]

# One __init__ per field count, given the setter `put` of the instance dict,
# the field names k and the post-init hook or None: each sets the instance
# dict from one dict display, which costs a third of dict(zip(...)) and less
# than the object.__setattr__ per field of a frozen dataclass.  The hook
# returns None, as __init__ must.
_INITS = (
    None,
    lambda put, k, post: lambda self, a: put(
        self, {k[0]: a, "_values": (a,)}) or post and post(self),
    lambda put, k, post: lambda self, a, b: put(
        self, {k[0]: a, k[1]: b, "_values": (a, b)}) or post and post(self),
    lambda put, k, post: lambda self, a, b, c: put(
        self, {k[0]: a, k[1]: b, k[2]: c, "_values": (a, b, c)}
    ) or post and post(self),
    lambda put, k, post: lambda self, a, b, c, d: put(
        self, {k[0]: a, k[1]: b, k[2]: c, k[3]: d, "_values": (a, b, c, d)}
    ) or post and post(self),
    lambda put, k, post: lambda self, a, b, c, d, e: put(
        self, {k[0]: a, k[1]: b, k[2]: c, k[3]: d, k[4]: e,
               "_values": (a, b, c, d, e)}
    ) or post and post(self),
    lambda put, k, post: lambda self, a, b, c, d, e, f: put(
        self, {k[0]: a, k[1]: b, k[2]: c, k[3]: d, k[4]: e, k[5]: f,
               "_values": (a, b, c, d, e, f)}
    ) or post and post(self),
    lambda put, k, post: lambda self, a, b, c, d, e, f, g: put(
        self, {k[0]: a, k[1]: b, k[2]: c, k[3]: d, k[4]: e, k[5]: f, k[6]: g,
               "_values": (a, b, c, d, e, f, g)}
    ) or post and post(self),
)


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


class Record:
    """Base of the immutable records; see the module docstring."""

    __slots__ = ()

    def __init_subclass__(cls, ignore=(), **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = tuple([cls.__dict__[name] for name in fields if name in cls.__dict__])
        compared = fields[:len(fields) - len(ignore)]
        if not (0 < len(fields) < len(_INITS) and set(fields) - set(compared) == set(ignore)
                and all(name in cls.__dict__ for name in fields[len(fields) - len(defaults):])):
            raise TypeError("a record has one to seven fields, those with defaults"
                            " and the ignored ones last")
        post = getattr(cls, "__post_init__", None)
        if ignore:
            keep, check = len(compared), post

            def post(self):
                vars(self)["_values"] = self._values[:keep]
                if check is not None:
                    check(self)

        # the instance dict's own setter, found once: object.__setattr__
        # looks it up on every call
        put = next(c.__dict__["__dict__"] for c in cls.__mro__ if "__dict__" in c.__dict__)
        cls.__init__ = _INITS[len(fields)](put.__set__, fields, post)
        cls.__init__.__defaults__ = defaults or None
        cls._fields = fields
        cls._compared = compared

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        shown = ", ".join([f"{k}={v!r}" for k, v in zip(self._compared, self._values)])
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")


def replace(record: Record, **changes) -> Record:
    """A record of the same class with `record`'s fields, save `changes`."""
    cls = type(record)
    unknown = changes.keys() - set(cls._fields)
    if unknown:
        raise TypeError(f"{cls.__qualname__} has no field {min(unknown)!r}")
    return cls(*[changes.get(name, getattr(record, name)) for name in cls._fields])
