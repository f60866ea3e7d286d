"""Workload definitions shared by run.py and its child processes.

Nothing here imports matchturan: the `domain-64` corpus is built as plain
edge lists, so run.py can check answers with an independent oracle and
the child process turns the same lists into graphs.
"""

from __future__ import annotations

import random

# enum-matching and verify-grid: one CLI command per op, each in a fresh
# interpreter.  The name doubles as the golden payload file name.
ENUM_COMMANDS = [
    ("ex-n8-M4", ["ex", "--n", "8", "--forbid", "M4"], "ex"),
    ("ex-n9-M3", ["ex", "--n", "9", "--forbid", "M3"], "ex"),
]
VERIFY_COMMANDS = [
    ("ma-hou",
     ["verify", "ma-hou", "--n", "3..8", "--s", "1..2", "--r", "2..3", "--k", "2..3"],
     "ma-hou"),
    ("main-K4", ["verify", "main", "--F", "K4", "--s", "2", "--r", "3", "--n", "6..8"], "main"),
    ("main-C5", ["verify", "main", "--F", "C5", "--s", "2", "--r", "2", "--n", "6..8"], "main"),
]

# name -> (commands, worker count of the timed passes)
CLI_WORKLOADS = {
    "enum-matching": (ENUM_COMMANDS, 1),
    "verify-grid": (VERIFY_COMMANDS, 2),
}
DOMAIN = "domain-64"
WORKLOADS = [*CLI_WORKLOADS, DOMAIN]


def command_order(commands: list, seed: int) -> list:
    """The seed orders the commands; the commands themselves are fixed."""
    order = list(commands)
    random.Random(seed).shuffle(order)
    return order


# ---------------------------------------------------------------------------
# domain-64 corpus
# ---------------------------------------------------------------------------

# Per-op deadline.  Every graph below either finishes each op in under a fifth
# of it or is still running after four times it (measured on the parent
# commit), so a miss is a property of the graph, not of machine noise.  Sparse
# random graphs on 21..47 vertices straddle the deadline, so the random
# graphs come from two bands on either side of that gap.
DEADLINE_S = 0.5
SMALL_BAND = (12, 20)
LARGE_BAND = (48, 64)
RANDOM_PER_BAND = 3


def _matching(k):
    return 2 * k, [(2 * i, 2 * i + 1) for i in range(k)]


def _star(k):
    return k, [(0, v) for v in range(1, k)]


def _empty(k):
    return k, []


def _cycle(k):
    return k, [(v, (v + 1) % k) for v in range(k)]


def _turan(p, parts):
    part = [v % parts for v in range(p)]
    return p, [(u, v) for u in range(p) for v in range(u + 1, p) if part[u] != part[v]]


def _bipartite(a):
    return 2 * a, [(u, v) for u in range(a) for v in range(a, 2 * a)]


def _c5s(k):
    return 5 * k, [(5 * i + j, 5 * i + (j + 1) % 5) for i in range(k) for j in range(5)]


SYMMETRIC = [
    ("matching(6)", _matching(6)),
    ("matching(8)", _matching(8)),
    ("star(12)", _star(12)),
    ("empty(12)", _empty(12)),
    ("cycle(12)", _cycle(12)),
    ("cycle(16)", _cycle(16)),
    ("turan(12,3)", _turan(12, 3)),
    ("turan(12,4)", _turan(12, 4)),
    ("K(6,6)", _bipartite(6)),
    ("3xC5", _c5s(3)),
    ("4xC5", _c5s(4)),
    ("matching(20)", _matching(20)),
    ("star(32)", _star(32)),
    ("empty(64)", _empty(64)),
    ("cycle(64)", _cycle(64)),
    ("turan(64,4)", _turan(64, 4)),
    ("K(32,32)", _bipartite(32)),
    ("12xC5", _c5s(12)),
]


def _relabel(n: int, edges: list, rng: random.Random) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def _gnp(n: int, rng: random.Random) -> list:
    p = 3 / n
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def domain_corpus(seed: int) -> list[dict]:
    """Graphs of the domain-64 workload: each has a label, a vertex count and
    two relabellings of the same edge set."""
    rng = random.Random(seed)
    base = list(SYMMETRIC)
    for lo, hi in (SMALL_BAND, LARGE_BAND):
        for _ in range(RANDOM_PER_BAND):
            n = rng.randint(lo, hi)
            base.append((f"G({n},3/n)", (n, _gnp(n, rng))))
    corpus = []
    for label, (n, edges) in base:
        corpus.append({
            "label": label,
            "n": n,
            "a": _relabel(n, edges, rng),
            "b": _relabel(n, edges, rng),
        })
    return corpus
