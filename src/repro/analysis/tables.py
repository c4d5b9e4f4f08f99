"""Regeneration of the paper's Table 1.

The paper's only table lists, for each algorithm, the worst-case number of
rounds, active machines and communication per round per update.  The
benchmark harness measures those three quantities on the simulator for each
algorithm and :func:`build_table1_row` packages them next to the paper's
asymptotic claim so the benchmark output prints a table with the same rows
as the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpc.metrics import UpdateSummary

__all__ = ["Table1Row", "PAPER_TABLE1", "build_table1_row", "format_table"]


#: The paper's Table 1 (asymptotic claims), keyed by algorithm kind.
PAPER_TABLE1: dict[str, dict[str, str]] = {
    "maximal-matching": {
        "problem": "Maximal matching",
        "rounds": "O(1)",
        "machines": "O(1)",
        "communication": "O(sqrt N)",
        "comments": "Use of a coordinator, starts from an arbitrary graph.",
    },
    "three-halves-matching": {
        "problem": "3/2-approx. matching",
        "rounds": "O(1)",
        "machines": "O(n / sqrt N)",
        "communication": "O(sqrt N)",
        "comments": "Use of a coordinator.",
    },
    "two-plus-eps-matching": {
        "problem": "(2+eps)-approx. matching",
        "rounds": "O(1)",
        "machines": "O~(1)",
        "communication": "O~(1)",
        "comments": "",
    },
    "connectivity": {
        "problem": "Connected comps",
        "rounds": "O(1)",
        "machines": "O(sqrt N)",
        "communication": "O(sqrt N)",
        "comments": "Use of Euler tours, starts from an arbitrary graph.",
    },
    "approx-mst": {
        "problem": "(1+eps)-MST",
        "rounds": "O(1)",
        "machines": "O(sqrt N)",
        "communication": "O(sqrt N)",
        "comments": "Approximation factor comes from the preprocessing.",
    },
}


@dataclass(frozen=True)
class Table1Row:
    """One measured row of Table 1 next to the paper's claim."""

    kind: str
    problem: str
    n: int
    m: int
    sqrt_N: int
    paper_rounds: str
    paper_machines: str
    paper_communication: str
    measured_max_rounds: int
    measured_mean_rounds: float
    measured_max_machines: int
    measured_max_words_per_round: int
    measured_mean_words_per_round: float
    num_updates: int

    def as_dict(self) -> dict:
        return {
            "problem": self.problem,
            "n": self.n,
            "m": self.m,
            "sqrt_N": self.sqrt_N,
            "paper": {
                "rounds": self.paper_rounds,
                "machines": self.paper_machines,
                "communication": self.paper_communication,
            },
            "measured": {
                "max_rounds": self.measured_max_rounds,
                "mean_rounds": round(self.measured_mean_rounds, 2),
                "max_active_machines": self.measured_max_machines,
                "max_words_per_round": self.measured_max_words_per_round,
                "mean_words_per_round": round(self.measured_mean_words_per_round, 1),
                "updates": self.num_updates,
            },
        }


def build_table1_row(kind: str, n: int, m: int, sqrt_N: int, summary: UpdateSummary) -> Table1Row:
    """Package a measured :class:`UpdateSummary` as a Table 1 row."""
    claim = PAPER_TABLE1.get(kind, {"problem": kind, "rounds": "?", "machines": "?", "communication": "?"})
    return Table1Row(
        kind=kind,
        problem=claim["problem"],
        n=n,
        m=m,
        sqrt_N=sqrt_N,
        paper_rounds=claim["rounds"],
        paper_machines=claim["machines"],
        paper_communication=claim["communication"],
        measured_max_rounds=summary.max_rounds,
        measured_mean_rounds=summary.mean_rounds,
        measured_max_machines=summary.max_active_machines,
        measured_max_words_per_round=summary.max_words_per_round,
        measured_mean_words_per_round=summary.mean_words_per_round,
        num_updates=summary.num_updates,
    )


def format_table(rows: list[Table1Row]) -> str:
    """Render rows as a fixed-width text table (used by benchmarks and examples)."""
    header = (
        f"{'problem':<28} {'n':>5} {'m':>6} {'sqrtN':>6} "
        f"{'rounds (paper)':>15} {'rounds':>7} {'machines (paper)':>17} {'mach':>5} "
        f"{'comm/round (paper)':>19} {'words':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.problem:<28} {row.n:>5} {row.m:>6} {row.sqrt_N:>6} "
            f"{row.paper_rounds:>15} {row.measured_max_rounds:>7} {row.paper_machines:>17} "
            f"{row.measured_max_machines:>5} {row.paper_communication:>19} {row.measured_max_words_per_round:>8}"
        )
    return "\n".join(lines)
