"""Rule catalogue and finding model for :mod:`repro.lint`.

Every diagnostic the analyzer emits carries a stable ``RP1xx`` code, a
``file:line:col`` anchor into the offending program source, and a one-line
fix hint.  Codes are append-only: a code never changes meaning, so CI
suppressions and golden tests stay valid across releases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Rule", "RULES", "Finding"]


@dataclass(frozen=True)
class Rule:
    """One checked facet of the :class:`SuperstepProgram` contract."""

    code: str
    name: str
    summary: str


#: the checked contract, rule by rule (see repro.mpc.program for the prose
#: contract each rule enforces).
RULES: dict[str, Rule] = {
    rule.code: rule
    for rule in (
        Rule(
            "RP101",
            "undeclared-shared-read",
            "run reads a shared key not declared in shared_reads — works in-process, "
            "raises KeyError inside a resident worker",
        ),
        Rule(
            "RP102",
            "undeclared-store-load",
            "run loads a machine-store key whose prefix is not declared in store_reads — "
            "a worker's shipped store slice silently returns the default",
        ),
        Rule(
            "RP103",
            "undeclared-apply-access",
            "apply touches a shared key outside shared_reads + shared_writes — resident "
            "sessions will not ship it before replaying the delta",
        ),
        Rule(
            "RP104",
            "delta-scope-too-narrow",
            "delta_scope declares a narrower replay scope than apply's writes warrant "
            "(or an unknown scope) — worker copies go stale",
        ),
        Rule(
            "RP105",
            "determinism-hazard",
            "run/apply consults a nondeterminism source (random/time/id/hash/os.environ/"
            "unordered set iteration) — backends diverge bit-by-bit",
        ),
        Rule(
            "RP106",
            "picklability-hazard",
            "the program cannot round-trip a process boundary — class not importable at "
            "module level, or __init__ stores cluster/machine/closure references",
        ),
        Rule(
            "RP107",
            "unused-declaration",
            "a declared shared key / store prefix is never read or written — resident "
            "sessions over-ship it every round",
        ),
        Rule(
            "RP108",
            "inbox-declared-unread",
            "reads_inbox = False but run references its inbox argument — resident workers "
            "receive an empty inbox and diverge",
        ),
        Rule(
            "RP109",
            "recursive-sizing-on-registered-tag",
            "a send of a message tag with a registered closed form omits words= — the "
            "hot path falls back to recursively sizing the payload",
        ),
        Rule(
            "RP110",
            "fusion-contract-contradiction",
            "driver_reads_sends = False (worker-drivable sends) contradicts driver_local "
            "= True or delta_scope = 'driver' — a program cannot both run at/feed the "
            "driver every round and be fused into a worker-driven block",
        ),
    )
}


@dataclass
class Finding:
    """One diagnostic: a contract violation anchored to program source."""

    code: str
    path: str
    line: int
    col: int
    program: str
    message: str
    hint: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def rule(self) -> Rule:
        return RULES[self.code]

    def format_text(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.code} [{self.rule.name}] {self.message}"
        if self.hint:
            text += f"\n    fix: {self.hint}"
        return text

    def to_dict(self) -> dict:
        payload = {
            "code": self.code,
            "rule": self.rule.name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "program": self.program,
            "message": self.message,
            "hint": self.hint,
        }
        if self.extra:
            payload["extra"] = self.extra
        return payload

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.code)
