"""Immutable records, their JSON form, named certificate checks and the
verdict shared by every certificate."""

from __future__ import annotations


class Record:
    """Immutable value record.

    The fields are the `__slots__` along the MRO, base classes first.  They
    are given by position or keyword; `_defaults` maps field names to their
    defaults, and `_check` validates each new record.  A record equals only a
    record of the same type with equal fields, and hashes and prints like a
    frozen dataclass: `TorusKnot(p=2, q=3)`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for c in reversed(cls.__mro__) for name in c.__dict__.get("__slots__", ()))
        # the slot descriptors store a field past the blocked __setattr__,
        # faster than object.__setattr__ by name
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for setter, value in zip(self._setters, args):
            setter(self, value)
        self._check()

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """All field values in order, from positions, keywords and defaults."""
        names = self._fields
        try:
            rest = [kwargs.pop(name) if name in kwargs else self._defaults[name] for name in names[len(args):]]
        except KeyError:
            rest = None
        if rest is None or kwargs or len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes the fields ({', '.join(names)})")
        return args + tuple(rest)

    def _check(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def as_dict(self) -> dict:
        return {name: plain(getattr(self, name)) for name in self._fields}


def plain(value):
    """JSON form of a field value: a record as its `as_dict()`, a tuple or list
    as a list, None, bools, ints and strings as they are, and anything else
    (a `Fraction`, a `LaurentPolynomial`) as its `str`."""
    # scalars first: most fields are one
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Record):
        return value.as_dict()
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    return str(value)


class CertificateCheck(Record):
    __slots__ = ("name", "passed", "witness")
    _defaults = {"witness": None}


class Certificate(Record):
    """Named checks and the conclusion they support when every one passes."""

    __slots__ = ("checks", "conclusion_if_valid")

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def conclusion(self) -> str:
        if self.valid:
            return self.conclusion_if_valid
        failed = ", ".join(c.name for c in self.checks if not c.passed)
        return f"certificate invalid; failed checks: {failed}"

    def as_dict(self) -> dict:
        """The subclass's own fields, the verdict, then `provenance` if the
        certificate has that field."""
        fields = super().as_dict()
        checks = fields.pop("checks")
        del fields["conclusion_if_valid"]
        tail = {"provenance": fields.pop("provenance")} if "provenance" in fields else {}
        verdict = {"valid": self.valid, "checks": checks, "conclusion": self.conclusion}
        return {**fields, **verdict, **tail}
