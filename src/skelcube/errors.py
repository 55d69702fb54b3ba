"""Exception types shared across the package, and `_Record`, the base of its immutable records."""

from __future__ import annotations

__all__ = ["StructuralError", "ContractError", "ContradictionError"]


class StructuralError(ValueError):
    """Malformed data: bad face words, non-subcomplex arguments, broken files."""


class ContractError(ValueError):
    """A documented precondition does not hold; the message names the violated condition."""


class ContradictionError(RuntimeError):
    """An internal consistency check failed, e.g. a claimed embedding does not verify."""


class _Record:
    """An immutable record of the fields named in `_fields`, which its `__init__` stores in `__dict__`.

    `==`, `hash` and `repr` (`Name(field=value, ...)`) read the fields in
    order; a record equals only records of its own class.  Assignment and
    deletion raise AttributeError; pickle and copy restore `__dict__` whole.
    """

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
