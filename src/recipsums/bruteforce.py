"""Exhaustive minimal-representation oracle, independent of the BFS table.

Enumerates nondecreasing tuples of admissible bases level by level and
records the first level at which each residue appears. Exponentially
slower than the BFS construction but with no shared machinery: it
never touches ResidueSet or sumsets, so it can serve as an oracle for
them.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import Unreachable
from .represent import ReprProblem


def exhaustive_depth_table(problem: ReprProblem) -> list[int]:
    """Minimal term count for every residue by brute-force enumeration."""
    p = problem.field.p
    recip = {x: problem.field.recip_power(x, problem.k) for x in problem.admissible}
    best = [0] * p
    found = 0
    for n in range(1, p + 1):
        for combo in combinations_with_replacement(problem.admissible, n):
            s = sum(recip[x] for x in combo) % p
            if best[s] == 0:
                best[s] = n
                found += 1
        if found == p:
            return best
    raise Unreachable(f"{p - found} residues not reached within {p} terms")


def exhaustive_min_terms(a: int, problem: ReprProblem) -> tuple[int, tuple[int, ...]]:
    """(N, witness) for one residue; the witness is the first tuple found,
    which enumeration order makes the lexicographically smallest one."""
    p = problem.field.p
    target = a % p
    recip = {x: problem.field.recip_power(x, problem.k) for x in problem.admissible}
    for n in range(1, p + 1):
        for combo in combinations_with_replacement(problem.admissible, n):
            if sum(recip[x] for x in combo) % p == target:
                return n, combo
    raise Unreachable(f"residue {target} not reached within {p} terms")
