"""Named certificate checks and the verdict shared by every certificate."""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class CertificateCheck:
    name: str
    passed: bool
    witness: str | None = None

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Certificate:
    """Named checks and the conclusion they support when every one passes."""

    checks: tuple[CertificateCheck, ...]
    conclusion_if_valid: str

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def conclusion(self) -> str:
        if self.valid:
            return self.conclusion_if_valid
        failed = ", ".join(c.name for c in self.checks if not c.passed)
        return f"certificate invalid; failed checks: {failed}"

    def verdict_dict(self) -> dict:
        return {
            "valid": self.valid,
            "checks": [c.as_dict() for c in self.checks],
            "conclusion": self.conclusion,
        }
