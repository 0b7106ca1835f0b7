"""Exact game solving: winners, cop numbers, strategy certificates.

The visible game is solved by backward induction (attractor) over the
strong-component quotient of the bipartite arena; the plain invisible
games by a breadth-first search over contamination states, the
monotone ones by a depth-first search over one-vertex eliminations.
All are exact; exceeding the transition budget raises
StateBudgetExceededError, never a silent robber verdict.

On a cop win the kernels return the certificate's content: the visible
kernel its strategy on exactly the positions play reaches from the
starts, the invisible kernel its move sequence.  ``solve`` keeps either,
untouched, in its ``Outcome``, and ``Outcome.certificate`` passes it to
``Certificate.from_kernel`` when first read, so a verdict-only caller
builds no certificate; the ``certificates`` module owns the format and
its replay.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Optional

from . import engine
from .arena import GameVariant
from .bits import subsets_of_size, subsets_upto
# verify_certificate stays bound here: perfbench traces solver.verify_certificate
from .certificates import Certificate, verify_certificate  # noqa: F401
from .digraph import Digraph, is_acyclic
from .errors import StateBudgetExceededError

DEFAULT_STATE_BUDGET = 50_000_000


class Winner(enum.Enum):
    COPS = "cops"
    ROBBER = "robber"


@dataclass(frozen=True)
class Outcome:
    """A solve's winner and transition count.

    On a cop win ``kernel_win`` holds the solve's ``(d, k, variant,
    monotone)`` and the kernel's raw win (the visible strategy map or
    the invisible mask sequence); ``certificate`` is built from it on
    first read and kept.  A robber win reads None.
    """

    winner: Winner
    states_explored: int
    kernel_win: Optional[tuple] = field(default=None, repr=False, hash=False)

    @property
    def cops_win(self) -> bool:
        return self.winner is Winner.COPS

    @functools.cached_property
    def certificate(self) -> Optional[Certificate]:
        return None if self.kernel_win is None else Certificate.from_kernel(*self.kernel_win)


@dataclass(frozen=True)
class CopNumberResult:
    """The cop number and the cop-win solve at it; ``outcome`` is None
    only on ``GapResult.plain`` when ``gap`` settled the plain value
    without solving there."""

    value: int
    outcome: Optional[Outcome]


@dataclass(frozen=True)
class GapResult:
    cop_number: int
    monotone_cop_number: int
    gap: int
    ratio: float
    plain: CopNumberResult
    monotone: CopNumberResult


def solve(
    d: Digraph,
    k: int,
    variant: GameVariant,
    monotone: bool = False,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Outcome:
    """Decide the winner with k cops; a cop win's certificate is built when read."""
    if not 0 <= k <= d.n:
        raise ValueError(f"cop budget {k} outside 0..{d.n}")
    # refuse obviously hopeless instances before any work
    move_count = sum(math.comb(d.n, i) for i in range(k + 1))
    arena_bound = move_count * d.n * move_count if variant.visible else move_count
    if d.n > 0 and arena_bound > state_budget:
        raise StateBudgetExceededError(state_budget, 0, bound=arena_bound)
    if variant.visible:
        if monotone or k == 0:
            moves = subsets_upto(d.n, k)
        else:
            # plain play needs only the start and full-size cop sets
            # (engine: "Full-size moves in plain visible play")
            moves = [0] + subsets_of_size(d.n, k)
        cops_win, won, transitions = engine.solve_visible(
            d.succ_masks, d.n, moves, monotone, variant.strong, state_budget
        )
    else:
        cops_win, won, transitions = engine.solve_invisible(
            d.succ_masks, d.pred_masks, d.n, k, variant.lazy, monotone, state_budget
        )
    if not cops_win:
        return Outcome(Winner.ROBBER, transitions)
    return Outcome(Winner.COPS, transitions, (d, k, variant, monotone, won))


def cop_number(
    d: Digraph,
    variant: GameVariant,
    monotone: bool = False,
    state_budget: int = DEFAULT_STATE_BUDGET,
    min_k: int = 0,
) -> CopNumberResult:
    """Smallest k whose solve reports a cop win (n cops always suffice)."""
    for k in range(min_k, d.n + 1):
        outcome = solve(d, k, variant, monotone, state_budget)
        if outcome.cops_win:
            return CopNumberResult(k, outcome)
    raise AssertionError("unreachable: n cops always win")


def gap(
    d: Digraph,
    variant: GameVariant,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> GapResult:
    """Plain vs monotone cop number; gap >= 0 and ratio >= 1 by construction.

    Both values are exact.  The monotone number is swept up from a lower
    bound lb, then the plain number is found by descending from it:

    * lb = 0 on the empty graph, 1 on any other acyclic one (with no
      cop the robber is never caught), and 2 on a digraph with a cycle.
    * Cycle lemma: on a digraph with a cycle Z one cop never wins, in
      any variant, plain or monotone (a monotone strategy is a plain
      one).  A move C -> C' with C' != C has guard C & C' empty, as
      both hold at most one vertex.  The visible robber starts on Z.
      Against such a move it reaches all of Z, and lands on a vertex
      of Z outside C', as |Z| >= 2; under strong confinement too, as Z
      lies in one strong component, of at least 2 vertices.  If
      C' = C it stays put.  The invisible robber keeps some vertex z
      of Z contaminated and free of the cop.  A cop landing on z makes
      the fast robber run on along Z, and the hit lazy robber
      re-contaminates Z minus z; any other move leaves z contaminated.
    * Descent: a cop win with k cops is a cop win with k + 1, and a
      monotone win is a plain win.  So plain <= mono, and solving plain
      play at k = mono - 1, mono - 2, ..., lb, the first robber win at
      k gives plain = k + 1; if the cops win down to lb, plain = lb.

    When plain = mono there is no plain cop-win solve, so the plain
    ``CopNumberResult`` carries ``outcome=None``; the solve at
    k = mono - 1 is then the one plain solve, a robber win, and there
    is none when mono = lb.  ``solve`` and ``cop_number`` sweep from
    k = 0 and use neither bound.
    """
    lb = 0 if d.n == 0 else 1 if is_acyclic(d) else 2
    mono = cop_number(d, variant, True, state_budget, min_k=lb)
    plain = CopNumberResult(mono.value, None)
    for k in range(mono.value - 1, lb - 1, -1):
        outcome = solve(d, k, variant, False, state_budget)
        if not outcome.cops_win:
            break
        plain = CopNumberResult(k, outcome)
    g = mono.value - plain.value
    ratio = mono.value / plain.value if plain.value else 1.0
    return GapResult(plain.value, mono.value, g, ratio, plain, mono)
