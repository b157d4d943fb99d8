"""Verification reports shared by the verify operations and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

from .polycore import IntPolynomial, WeightedGF


@dataclass(frozen=True)
class IdentityCheck:
    """Two sides of one polynomial/count identity, with the observed outcome."""

    name: str
    left: object
    right: object

    @property
    def equal(self) -> bool:
        return self.left == self.right


@dataclass
class Report:
    """Outcome of a verify operation.

    `passed` records whether every theorem-level assertion held; individual
    identity checks may legitimately be unequal (for instance on inputs
    where an equality is expected to fail), so `passed` is set explicitly
    by the producer rather than derived from the checks.
    """

    passed: bool = True
    identity_checks: list[IdentityCheck] = field(default_factory=list)
    boolean_facts: dict[str, bool] = field(default_factory=dict)
    witnesses: dict[str, object] = field(default_factory=dict)

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
    if isinstance(value, WeightedGF):
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
