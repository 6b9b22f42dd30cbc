"""Machine-checkable verdicts.

A Certificate wraps a PASS / FAIL / LOWER_BOUND verdict together with a
JSON-serializable payload (witness, audit numbers, or construction echo).
The CLI adds the envelope fields: tool version, the argv echo, and timing.
Timing deliberately stays outside the canonical payload so identical
commands produce byte-identical payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "PASS"
FAIL = "FAIL"
LOWER_BOUND = "LOWER_BOUND"


@dataclass
class Certificate:
    verdict: str
    payload: dict = field(default_factory=dict)
    version: str | None = None
    command: list[str] | None = None
    elapsed_ms: float | None = None

    def ok(self) -> bool:
        return self.verdict == PASS

    def to_json_dict(self) -> dict:
        out = {"verdict": self.verdict, "payload": self.payload}
        if self.version is not None:
            out["version"] = self.version
        if self.command is not None:
            out["command"] = self.command
        if self.elapsed_ms is not None:
            out["elapsed_ms"] = self.elapsed_ms
        return out
