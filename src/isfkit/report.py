"""Verification reports shared by the verify operations and the CLI, and
the small value-class bases that the subject modules share."""

from __future__ import annotations

from .polycore import IntPolynomial


class _Value:
    """Field-wise equality and repr over `__slots__`, the fields in order.
    Each subclass writes its own `__init__` and is unhashable unless frozen.
    Plain classes keep the standard library's class generator, and the
    `inspect` it imports, out of every CLI command: every command loads
    this module."""

    __slots__ = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Value):
    """A `_Value` whose `__init__` sets each field once with `_set`; assigning
    or deleting a field raises AttributeError.  It hashes by its fields and
    pickles through its constructor."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()


_set = object.__setattr__


class _Kept:
    """A class whose `__init__` sets each public field once with `_set`, and
    whose private slots keep values derived from the fields, filled on
    first use.  Assigning a public field, or deleting any slot, raises
    AttributeError, so a kept value never outlives its fields.  It pickles
    and copies through its constructor, called with the public fields in
    slot order, and hands the private slots over as slot state."""

    __slots__ = ()

    def __setattr__(self, name, value):
        if name[0] != "_":
            raise AttributeError(f"cannot assign to field {name!r}")
        _set(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        slots = self.__slots__
        return (type(self), tuple(getattr(self, s) for s in slots if s[0] != "_"),
                (None, {s: getattr(self, s) for s in slots if s[0] == "_"}))


class IdentityCheck(_Frozen):
    """Two sides of one polynomial/count identity, with the observed outcome."""

    __slots__ = ("name", "left", "right")

    def __init__(self, name: str, left: object, right: object):
        _set(self, "name", name)
        _set(self, "left", left)
        _set(self, "right", right)

    @property
    def equal(self) -> bool:
        return self.left == self.right


class Report(_Value):
    """Outcome of a verify operation.

    `passed` records whether every theorem-level assertion held; individual
    identity checks may legitimately be unequal (for instance on inputs
    where an equality is expected to fail), so `passed` is set explicitly
    by the producer rather than derived from the checks.  Each report gets
    its own lists and dicts.
    """

    __slots__ = ("passed", "identity_checks", "boolean_facts", "witnesses")

    def __init__(
        self,
        passed: bool = True,
        identity_checks: list[IdentityCheck] | None = None,
        boolean_facts: dict[str, bool] | None = None,
        witnesses: dict[str, object] | None = None,
    ):
        self.passed = passed
        self.identity_checks = [] if identity_checks is None else identity_checks
        self.boolean_facts = {} if boolean_facts is None else boolean_facts
        self.witnesses = {} if witnesses is None else witnesses

    def check(self, name: str, left, right, *, expect_equal: bool | None = None):
        """Record an identity check; optionally require a specific outcome."""
        entry = IdentityCheck(name, left, right)
        self.identity_checks.append(entry)
        if expect_equal is not None and entry.equal != expect_equal:
            self.passed = False
        return entry.equal

    def fact(self, name: str, value: bool, *, required: bool = False) -> bool:
        self.boolean_facts[name] = bool(value)
        if required and not value:
            self.passed = False
        return bool(value)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "identity_checks": [
                {
                    "name": c.name,
                    "left": _plain(c.left),
                    "right": _plain(c.right),
                    "equal": c.equal,
                }
                for c in self.identity_checks
            ],
            "boolean_facts": dict(sorted(self.boolean_facts.items())),
            "witnesses": {k: _plain(v) for k, v in sorted(self.witnesses.items())},
        }


def _plain(value):
    """Convert report payloads to JSON-serializable structures."""
    if isinstance(value, IntPolynomial):
        return value.to_json()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (set, frozenset)):
        return sorted(_plain(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return str(value)
