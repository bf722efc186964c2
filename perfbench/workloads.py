"""Workload definitions for the cyclocert benchmark.

A workload is a fixed list of tasks.  A task is either a certificate pair
(``hunt`` writing a document, then ``verify --full-window`` on that document)
or a single query (``coeff`` or ``scan``).  The workload seed only sets the
order of the tasks inside a pass, because cache hits inside one interpreter
depend on that order; the program itself receives nothing but the generated
argv lists.

Why each workload exists, and which layer it stresses and which it bypasses:

* ``grid``: the acceptance grid, m in 1..30, v in -10..10, both modes.
  T is small, so per-call overhead in ``cli``, ``factor`` and JSON
  dominates; a change to ``series`` for large T should show nothing here.
* ``deep``: m = 30 with |v| in {300, 1000}.  T = 2*p_1 is large and most
  divisor steps are "high" (2d >= T), so the truncated expansion dominates
  verify.  v = 1000 dies with RecursionError in cyclocert 0.1.0; those ops
  are kept so the failure shows in the failed count.
* ``tables``: ``coeff``/``scan`` on the exact-polynomial path, where every
  divisor lies below T, so the sparse split of the series layer does not
  apply; the cold ``c_table(15015)`` build (the O(n^2) Psi product) is part
  of it.  No ``hunter`` or cluster code runs, and the unbounded ``phi_poly``
  cache sets the peak memory.

There is no workload with m in {2310, 30030}: on the current route one pass
of it takes 30 to 50 s, nearly all in the cold ``c_table(30030)`` build, so
it fits only one pass in a run and leaves too little of the time limit for
runs long enough to steady the other workloads.  ``tables`` shows the same
build at n = 15015.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

HUNT = "hunt"
VERIFY = "verify"
QUERY = "query"


@dataclass(frozen=True)
class Task:
    """One unit of the closed loop: a hunt/verify pair or one query."""

    argv: tuple[str, ...]
    m: int = 0
    v: int = 0
    mode: str = ""

    @property
    def is_pair(self) -> bool:
        return self.argv[0] == HUNT

    @property
    def key(self) -> str:
        """The name under which expected.json stores this task's answer."""
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    op_limit_s: float  # per-op time limit; a failed op is charged this much
    tasks: tuple[Task, ...]


def pair(m: int, v: int, mode: str) -> Task:
    return Task(("hunt", "--m", str(m), "--value", str(v), "--mode", mode), m, v, mode)


def query(*argv: str) -> Task:
    return Task(tuple(argv))


def _pairs(ms, vs) -> tuple[Task, ...]:
    return tuple(pair(m, v, mode) for m in ms for v in vs for mode in ("a", "c"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid", 10.0, _pairs(range(1, 31), range(-10, 11))),
        Workload("deep", 30.0, _pairs((30,), (300, -300, 1000))),
        Workload(
            "tables",
            30.0,
            (
                query("scan", "--m", "1", "--nmax", "4000"),
                query("scan", "--m", "105", "--nmax", "60"),
                query("coeff", "a", "255255", "60000"),
                query("coeff", "a", "1616615", "300000"),
                query("coeff", "c", "3003", "1500"),
                query("coeff", "c", "15015", "7000"),
            ),
        ),
        # Not a benchmark workload: the smallest task list that reaches every
        # traced call site, used by the benchmark's own tests.
        Workload(
            "tiny",
            30.0,
            (
                pair(6, 2, "a"),
                pair(6, 2, "c"),
                pair(1, -2, "a"),
                query("coeff", "a", "105", "7"),
                query("coeff", "c", "105", "7"),
                query("scan", "--m", "1", "--nmax", "10"),
            ),
        ),
    )
}


def pass_order(workload: Workload, seed: int, pass_index: int) -> list[Task]:
    """The tasks of one pass, in the order the seed gives them.

    Odd passes replay the previous pass's order reversed, so over a pair of
    passes every task runs once before and once after every other: whether
    an op finds its inputs cached, or runs on top of the caches the others
    filled (which sets the peak memory), is then seen both ways.
    """
    tasks = list(workload.tasks)
    random.Random(f"{workload.name}:{seed}:{pass_index // 2}").shuffle(tasks)
    if pass_index % 2:
        tasks.reverse()
    return tasks
