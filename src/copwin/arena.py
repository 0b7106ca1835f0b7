"""Formal game mechanics for cops-and-robber games on digraphs.

Conventions (fixed once, used by solver and verifier alike):

* Cops start off the graph (empty cop set); the visible robber picks any
  vertex, the invisible robber contaminates all of V.
* A cop move replaces the cop set C by any C' with |C'| <= k.  While the
  helicopters are in the air the robber runs along directed paths that
  avoid only C & C', the cops that stay on the ground.
* The visible fast robber must end his run outside C'; no legal landing
  spot means capture.  The invisible lazy (inert) robber moves only when
  a cop is about to land on his vertex; the invisible fast robber always
  runs.  Contamination is the set of vertices the invisible robber could
  occupy; empty contamination is a cop win.
* Monotonicity is robber-monotonicity: the robber's territory (visible)
  or the contaminated set (invisible) never grows along a play.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from .digraph import Digraph, reach_mask
from .errors import UnsupportedVariantError


class Visibility(enum.Enum):
    VISIBLE = "visible"
    INVISIBLE = "invisible"


class Agility(enum.Enum):
    FAST = "fast"
    LAZY = "lazy"


class Confinement(enum.Enum):
    REACHABILITY = "reachability"
    STRONG_COMPONENT = "strong-component"


@dataclass(frozen=True)
class GameVariant:
    """A supported combination of visibility, agility, and robber confinement."""

    visibility: Visibility
    agility: Agility
    confinement: Confinement = Confinement.REACHABILITY

    def __post_init__(self):
        key = (self.visibility, self.agility, self.confinement)
        if key not in _SUPPORTED:
            raise UnsupportedVariantError(
                f"unsupported game variant {self.describe()}; supported: "
                + ", ".join(sorted(v.describe() for v in SUPPORTED_VARIANTS))
            )

    @property
    def name(self) -> str:
        base = f"{self.visibility.value}-{self.agility.value}"
        if self.confinement is Confinement.STRONG_COMPONENT:
            base += "-scc"
        return base

    def describe(self) -> str:
        return (
            f"({self.visibility.value}, {self.agility.value}, {self.confinement.value})"
        )

    @staticmethod
    def from_name(name: str) -> "GameVariant":
        try:
            return _NAMED[name.lower()]
        except KeyError:
            raise UnsupportedVariantError(
                f"unknown variant {name!r}; one of: " + ", ".join(sorted(set(_NAMED)))
            ) from None


_SUPPORTED = {
    (Visibility.VISIBLE, Agility.FAST, Confinement.REACHABILITY),
    (Visibility.INVISIBLE, Agility.LAZY, Confinement.REACHABILITY),
    # directed path-width game; extension beyond the two headline variants
    (Visibility.INVISIBLE, Agility.FAST, Confinement.REACHABILITY),
    # optional extension approximating the directed tree-width game
    (Visibility.VISIBLE, Agility.FAST, Confinement.STRONG_COMPONENT),
}

VISIBLE_FAST = GameVariant(Visibility.VISIBLE, Agility.FAST)
INVISIBLE_LAZY = GameVariant(Visibility.INVISIBLE, Agility.LAZY)
INVISIBLE_FAST = GameVariant(Visibility.INVISIBLE, Agility.FAST)
VISIBLE_FAST_SCC = GameVariant(
    Visibility.VISIBLE, Agility.FAST, Confinement.STRONG_COMPONENT
)

SUPPORTED_VARIANTS = (VISIBLE_FAST, INVISIBLE_LAZY, INVISIBLE_FAST, VISIBLE_FAST_SCC)

_NAMED = {
    "visible": VISIBLE_FAST,
    "visible-fast": VISIBLE_FAST,
    "inert": INVISIBLE_LAZY,
    "invisible-lazy": INVISIBLE_LAZY,
    "invisible-fast": INVISIBLE_FAST,
    "dpw": INVISIBLE_FAST,
    "visible-fast-scc": VISIBLE_FAST_SCC,
}


def robber_options_mask(
    d: Digraph, c_mask: int, c_next_mask: int, r: int, strong: bool = False
) -> int:
    """Landing spots of the visible fast robber at r while cops move C -> C'."""
    guard = c_mask & c_next_mask
    opts = reach_mask(d.succ_masks, 1 << r, guard)
    if strong:
        opts &= reach_mask(d.pred_masks, 1 << r, guard)
    return opts & ~c_next_mask


def contaminate_mask(
    d: Digraph, c_mask: int, c_next_mask: int, r_mask: int, lazy: bool
) -> int:
    """Contamination after the cop move C -> C'."""
    guard = c_mask & c_next_mask
    if lazy:
        hit = r_mask & c_next_mask
        fled = reach_mask(d.succ_masks, hit, guard) if hit else 0
        return (r_mask | fled) & ~c_next_mask
    return reach_mask(d.succ_masks, r_mask, guard) & ~c_next_mask
