"""The four games and their mechanics, for cops and robber on digraphs.

copwin plays four games, one ``GameVariant`` each, listed once in the
table ``_GAMES`` by name and three flags: whether the robber is
visible, whether he is lazy (moves only when a cop is about to land on
his vertex) or fast, and whether a run is confined to his strong
component.  ``from_name`` also accepts the aliases ``visible``,
``inert`` and ``dpw``.  The move rules below are the semantics the
certificate verifier replays; the solving kernels implement them
independently.

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
* Under strong confinement the visible robber also lands only in his own
  strong component of D - (C & C').
* Monotonicity is robber-monotonicity: the robber's territory (visible)
  or the contaminated set (invisible) never grows along a play.
"""
from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph, reach_mask
from .errors import UnsupportedVariantError

# the four games, by name: (visible, lazy, strong)
_GAMES = {
    "visible-fast": (True, False, False),
    "invisible-lazy": (False, True, False),
    # directed path-width game; extension beyond the two headline variants
    "invisible-fast": (False, False, False),
    # optional extension approximating the directed tree-width game
    "visible-fast-scc": (True, False, True),
}


@dataclass(frozen=True)
class GameVariant:
    """One of the four games, a row of ``_GAMES``; any other name and flags are refused."""

    name: str
    visible: bool
    lazy: bool
    strong: bool

    def __post_init__(self):
        if _GAMES.get(self.name) != (self.visible, self.lazy, self.strong):
            raise UnsupportedVariantError(
                f"unsupported game variant {self}; supported: " + ", ".join(sorted(_GAMES))
            )

    @staticmethod
    def from_name(name: str) -> "GameVariant":
        try:
            return _NAMED[name.lower()]
        except KeyError:
            raise UnsupportedVariantError(
                f"unknown variant {name!r}; one of: " + ", ".join(sorted(_NAMED))
            ) from None


SUPPORTED_VARIANTS = tuple(GameVariant(name, *flags) for name, flags in _GAMES.items())
VISIBLE_FAST, INVISIBLE_LAZY, INVISIBLE_FAST, VISIBLE_FAST_SCC = SUPPORTED_VARIANTS

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
