"""Immutable value records without `dataclasses`.

`Record` gives a class what ``@dataclass(frozen=True)`` gave the scoring
types: an ``__init__`` over its annotated fields (positional or keyword,
class-level values as defaults) that then runs ``__post_init__``, field-wise
``__eq__`` and ``__hash__`` between instances of one class, a dataclass-style
``__repr__``, ``__match_args__``, and ``dataclasses.FrozenInstanceError`` on
any assignment or deletion. It does so without importing `dataclasses` (and
with it `inspect`) and its per-class processing, which on every CLI call
cost about as much as scoring a 100-row holdout. Like a dataclass, each
class compiles its own ``__init__``: a three-line function is cheap to
compile and builds an instance faster than a generic one would.

A field default must be immutable, since it is shared; a value that is not a
field (a cache) is set with ``object.__setattr__`` and takes no part in
equality, hashing or repr.
"""

from __future__ import annotations


def _frozen(name: str) -> AttributeError:
    from dataclasses import FrozenInstanceError  # only on this error path

    return FrozenInstanceError(f"cannot assign to field {name!r}")


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        names = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls.__match_args__ = names
        defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        params = ", ".join(f"{name}=_defaults[{name!r}]" if name in defaults else name for name in names)
        body = "".join(f"    fields[{name!r}] = {name}\n" for name in names)
        if hasattr(cls, "__post_init__"):
            body += "    self.__post_init__()\n"
        namespace: dict = {}
        exec(f"def __init__(self, {params}):\n    fields = self.__dict__\n{body}", {"_defaults": defaults}, namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise _frozen(name)

    def __delattr__(self, name: str) -> None:
        raise _frozen(name)
