"""Additive letter weights certifying that rules strictly decrease weight.

The feasibility question (does an integer weighting with values in
[1, B] satisfy weight(lhs) >= weight(rhs) + 1 for every rule?) is solved
exactly: Fourier-Motzkin elimination over fractions decides rational
feasibility with weights >= 1, a witness is read off by back
substitution and scaled to integers.  Rational infeasibility is
independent of the bound B, which is what separates "provably
infeasible" from "bound exhausted".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, Optional, Tuple

from .errors import PreconditionError
from .words import Word

DEFAULT_BOUND = 64


class WeightStatus(enum.Enum):
    FEASIBLE = "feasible"
    PROVABLY_INFEASIBLE = "provably-infeasible"
    BOUND_EXHAUSTED = "bound-exhausted"


@dataclass(frozen=True)
class WeightResult:
    status: WeightStatus
    weights: Optional[Dict[int, int]]  # symbol id -> weight, when feasible
    bound: int

    def to_dict(self, alphabet):
        w = None
        if self.weights is not None:
            w = {alphabet.name(k): v for k, v in sorted(self.weights.items())}
        return {"status": self.status.value, "weights": w, "bound": self.bound}


def word_weight(word: Word, weights: Dict[int, int]) -> int:
    return sum(weights[s] for s in word)


def is_weight_reducing(pairs: Iterable[Tuple[Word, Word]], weights: Dict[int, int]) -> bool:
    return all(word_weight(l, weights) >= word_weight(r, weights) + 1 for l, r in pairs)


def _count_vector(word: Word, n: int):
    v = [0] * n
    for s in word:
        v[s] += 1
    return v


def _fourier_motzkin(constraints, n):
    """Constraints are (coeffs, const) meaning sum(c*x) >= const, x in R^n.

    Returns None when infeasible, else a tuple of Fractions satisfying
    all constraints with x >= 0 (the caller includes those rows).
    """
    stages = []
    current = [([Fraction(c) for c in coeffs], Fraction(const))
               for coeffs, const in constraints]
    for var in range(n):
        stages.append(current)
        pos, neg, zero = [], [], []
        for coeffs, const in current:
            c = coeffs[var]
            if c > 0:
                pos.append((coeffs, const))
            elif c < 0:
                neg.append((coeffs, const))
            else:
                zero.append((coeffs, const))
        combined = list(zero)
        for pc, pb in pos:
            for nc, nb in neg:
                # scale so var cancels: p/pc[var] + n/(-nc[var])
                a, b = pc[var], -nc[var]
                coeffs = [pc[j] * b + nc[j] * a for j in range(n)]
                const = pb * b + nb * a
                combined.append((coeffs, const))
        # drop duplicates and trivially true rows to keep sizes sane
        pruned = []
        seen = set()
        for coeffs, const in combined:
            if all(c == 0 for c in coeffs):
                if const > 0:
                    return None
                continue
            key = (tuple(coeffs), const)
            if key not in seen:
                seen.add(key)
                pruned.append((coeffs, const))
        current = pruned
    for coeffs, const in current:
        if const > 0:
            return None
    # back substitution, smallest feasible value per variable
    values = [Fraction(0)] * n
    for var in range(n - 1, -1, -1):
        lower = Fraction(0)
        for coeffs, const in stages[var]:
            c = coeffs[var]
            if c > 0:
                rest = sum(coeffs[j] * values[j] for j in range(var + 1, n))
                bound = (const - rest) / c
                if bound > lower:
                    lower = bound
        values[var] = lower
    return tuple(values)


def weight_assignment(rules, alphabet_size: int,
                      bound: int = DEFAULT_BOUND) -> WeightResult:
    """Search an integer weighting in [1, bound] for the given rules.

    rules is an iterable of raw (lhs, rhs) pairs of letter ids, so
    length-increasing pairs, which a Thue system cannot hold, are
    admitted.  The letters are 0 .. alphabet_size - 1.  A bound below 1
    admits no weighting and raises PreconditionError.
    """
    if bound < 1:
        raise PreconditionError(f"weight bound must be at least 1, got {bound}")
    pairs = [(tuple(l), tuple(r)) for l, r in rules]
    n = alphabet_size

    if not pairs:
        return WeightResult(WeightStatus.FEASIBLE, {s: 1 for s in range(n)}, bound)

    uniform = {s: 1 for s in range(n)}
    if is_weight_reducing(pairs, uniform):
        return WeightResult(WeightStatus.FEASIBLE, uniform, bound)

    # gamma = x + 1 with x >= 0; rule rows become sum(d*x) >= 1 - sum(d)
    rows = []
    for lhs, rhs in pairs:
        d = [a - b for a, b in zip(_count_vector(lhs, n), _count_vector(rhs, n))]
        rows.append((d, 1 - sum(d)))
    for s in range(n):
        unit = [0] * n
        unit[s] = 1
        rows.append((unit, 0))

    solution = _fourier_motzkin(rows, n)
    if solution is None:
        return WeightResult(WeightStatus.PROVABLY_INFEASIBLE, None, bound)

    scale = lcm(*(v.denominator for v in solution)) if solution else 1
    weights = {s: int((solution[s] + 1) * scale) for s in range(n)}
    assert is_weight_reducing(pairs, weights)
    if max(weights.values(), default=1) > bound:
        return WeightResult(WeightStatus.BOUND_EXHAUSTED, None, bound)
    return WeightResult(WeightStatus.FEASIBLE, weights, bound)
