"""Run accounting: counters for kernel work and merge communication."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RunStats:
    """Counters describing one MST computation.

    distance_evals counts unordered-pair metric evaluations. edges_gathered
    counts edges that crossed a task boundary into a merge step; it stays 0
    only for one block (k = 1), whose task tree is the result unmerged.
    combine_input_sizes records, for the reduce strategy only, how many edges
    each combine consumed; its last entry is the final combine's input size.
    wall_time is in seconds. workers counts the processes that solved tasks.
    """

    distance_evals: int = 0
    edges_gathered: int = 0
    tasks_executed: int = 0
    merge_strategy: str = "gather"
    wall_time: float = 0.0
    combine_input_sizes: list[int] = field(default_factory=list)
    workers: int = 0
