"""Exact game solving: winners, cop numbers, strategy certificates.

The visible game is solved by backward induction (attractor) over the
strong-component quotient of the bipartite arena; the plain invisible
games by a breadth-first search over contamination states, the
monotone ones by a depth-first search over one-vertex eliminations.
All are exact; exceeding the transition budget raises
StateBudgetExceededError, never a silent robber verdict.

Certificates are replayable by ``verify_certificate``, which is written
against the arena-module semantics only and shares no code with the
solving kernels.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from . import __version__, engine
from .arena import (
    Agility,
    Confinement,
    GameVariant,
    Visibility,
    contaminate_mask,
    robber_options_mask,
)
from .bits import iter_bits, mask_from, mask_to_tuple, subsets_of_size, subsets_upto
from .digraph import Digraph, fingerprint, is_acyclic, reach_mask
from .errors import CertificateError, StateBudgetExceededError, UnsupportedVariantError

DEFAULT_STATE_BUDGET = 50_000_000

CERTIFICATE_FORMAT = "copwin-certificate/1"


class Winner(enum.Enum):
    COPS = "cops"
    ROBBER = "robber"


@dataclass(frozen=True)
class Certificate:
    """Serializable winning cop strategy.

    ``kind='positional'``: map from visible positions to the next cop
    set.  ``kind='sequence'``: the cop sets played against an invisible
    robber, in order.  Vertex sets appear as ascending tuples; the body
    is sorted, so equal strategies serialize to equal bytes.
    """

    variant: str
    k: int
    monotone: bool
    graph_sha256: str
    kind: str
    body: tuple
    tool_version: str = __version__

    def to_json_text(self) -> str:
        body = self.body
        if self.kind == "positional":
            body = [{"cops": c, "robber": r, "move": mv} for c, r, mv in body]
        doc = {
            "format": CERTIFICATE_FORMAT,
            "tool_version": self.tool_version,
            "variant": self.variant,
            "k": self.k,
            "monotone": self.monotone,
            "graph_sha256": self.graph_sha256,
            "kind": self.kind,
            "body": body,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json_text(text: str) -> "Certificate":
        """Parse and schema-check a certificate; any defect is a CertificateError."""
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise CertificateError(f"certificate is not valid JSON: {exc}") from None
        if not isinstance(doc, dict) or doc.get("format") != CERTIFICATE_FORMAT:
            raise CertificateError("unrecognized certificate format")
        try:
            kind = doc["kind"]
            if kind == "positional":
                body = tuple(
                    sorted(
                        (_vertex_set(e["cops"]), _vertex(e["robber"]), _vertex_set(e["move"]))
                        for e in _field(doc, "body", list)
                    )
                )
            elif kind == "sequence":
                body = tuple(_vertex_set(c) for c in _field(doc, "body", list))
            else:
                raise CertificateError(f"unknown certificate kind {kind!r}")
            variant = _field(doc, "variant", str)
            try:
                GameVariant.from_name(variant)
            except UnsupportedVariantError as exc:
                raise CertificateError(f"malformed certificate: {exc}") from None
            return Certificate(
                variant=variant,
                k=_field(doc, "k", int),
                monotone=_field(doc, "monotone", bool),
                graph_sha256=_field(doc, "graph_sha256", str),
                kind=kind,
                body=body,
                tool_version=doc.get("tool_version", "unknown"),
            )
        except (KeyError, TypeError) as exc:
            raise CertificateError(f"malformed certificate: {exc!r}") from None


def _field(doc, key, kind):
    """doc[key], which must be of JSON type ``kind`` (a bool is not an int)."""
    value = doc[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise CertificateError(
            f"malformed certificate: {key!r} must be a JSON {kind.__name__}, got {value!r}"
        )
    return value


def _vertex(value):
    """A vertex id's JSON type; its range is checked against the graph on replay."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise CertificateError(f"malformed certificate: {value!r} is not a vertex id")
    return value


def _vertex_set(value):
    if not isinstance(value, list):
        raise CertificateError(f"malformed certificate: {value!r} is not a vertex list")
    return tuple(_vertex(v) for v in value)


@dataclass(frozen=True)
class Outcome:
    winner: Winner
    certificate: Optional[Certificate]
    states_explored: int

    @property
    def cops_win(self) -> bool:
        return self.winner is Winner.COPS


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


@dataclass(frozen=True)
class VerificationResult:
    valid: bool
    reason: Optional[str] = None

    def __bool__(self):
        return self.valid


def solve(
    d: Digraph,
    k: int,
    variant: GameVariant,
    monotone: bool = False,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Outcome:
    """Decide the winner with k cops; certificate attached to cop wins."""
    if not 0 <= k <= d.n:
        raise ValueError(f"cop budget {k} outside 0..{d.n}")
    # refuse obviously hopeless instances before any work
    move_count = sum(math.comb(d.n, i) for i in range(k + 1))
    if variant.visibility is Visibility.VISIBLE:
        arena_bound = move_count * d.n * move_count
    else:
        arena_bound = move_count
    if d.n > 0 and arena_bound > state_budget:
        raise StateBudgetExceededError(state_budget, 0, bound=arena_bound)
    if variant.visibility is Visibility.VISIBLE:
        strong = variant.confinement is Confinement.STRONG_COMPONENT
        if monotone or k == 0:
            moves = subsets_upto(d.n, k)
        else:
            # plain play needs only the start and full-size cop sets
            # (engine: "Full-size moves in plain visible play")
            moves = [0] + subsets_of_size(d.n, k)
        cops_win, strategy, transitions = engine.solve_visible(
            d.succ_masks, d.pred_masks, d.n, moves, monotone, strong, state_budget
        )
        if not cops_win:
            return Outcome(Winner.ROBBER, None, transitions)
        cert = _positional_certificate(d, k, variant, monotone, strategy, strong)
        return Outcome(Winner.COPS, cert, transitions)
    lazy = variant.agility is Agility.LAZY
    cops_win, seq, transitions = engine.solve_invisible(
        d.succ_masks, d.pred_masks, d.n, k, lazy, monotone, state_budget
    )
    if not cops_win:
        return Outcome(Winner.ROBBER, None, transitions)
    cert = Certificate(
        variant=variant.name,
        k=k,
        monotone=monotone,
        graph_sha256=fingerprint(d),
        kind="sequence",
        body=tuple(mask_to_tuple(c) for c in seq),
    )
    return Outcome(Winner.COPS, cert, transitions)


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


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def _positional_certificate(d, k, variant, monotone, strategy, strong):
    """Trim the full winning-strategy map to positions reachable under it."""
    entries = []
    seen = set()
    stack = [(0, r) for r in range(d.n - 1, -1, -1)]
    while stack:
        cmask, r = stack.pop()
        if (cmask, r) in seen:
            continue
        seen.add((cmask, r))
        move = strategy[(cmask, r)]
        entries.append((mask_to_tuple(cmask), r, mask_to_tuple(move)))
        opts = robber_options_mask(d, cmask, move, r, strong=strong)
        for r2 in iter_bits(opts):
            if (move, r2) not in seen:
                stack.append((move, r2))
    entries.sort()
    return Certificate(
        variant=variant.name,
        k=k,
        monotone=monotone,
        graph_sha256=fingerprint(d),
        kind="positional",
        body=tuple(entries),
    )


def verify_certificate(d: Digraph, cert: Certificate) -> VerificationResult:
    """Independently replay a certificate against the arena semantics.

    Positional certificates are replayed against every robber response
    from every initial robber choice; sequence certificates are run
    through the contamination update.  Returns the first violation
    found.  A fingerprint mismatch or malformed certificate raises
    CertificateError instead (it is not a game result).
    """
    if cert.graph_sha256 != fingerprint(d):
        raise CertificateError("certificate fingerprint does not match the graph")
    variant = GameVariant.from_name(cert.variant)
    if not 0 <= cert.k <= d.n:
        raise CertificateError(f"cop budget {cert.k} outside 0..{d.n}")
    if variant.visibility is Visibility.VISIBLE:
        if cert.kind != "positional":
            raise CertificateError("visible-game certificate must be positional")
        return _verify_positional(d, cert, variant)
    if cert.kind != "sequence":
        raise CertificateError("invisible-game certificate must be a move sequence")
    return _verify_sequence(d, cert, variant)


def _verify_positional(d, cert, variant):
    strong = variant.confinement is Confinement.STRONG_COMPONENT
    strategy: Dict[Tuple[int, int], int] = {}
    for cops, robber, move in cert.body:
        # range-check before building masks: 1 << id must stay small
        if not all(0 <= v < d.n for v in (*cops, robber, *move)):
            raise CertificateError(f"entry ({cops},{robber}) outside V(D)")
        cmask = mask_from(cops)
        mmask = mask_from(move)
        if len(cops) > cert.k or len(move) > cert.k:
            return VerificationResult(
                False, f"cop set exceeds budget k={cert.k} at ({cops},{robber})"
            )
        if cmask >> robber & 1:
            raise CertificateError(f"entry ({cops},{robber}) puts the robber on a cop")
        strategy[(cmask, robber)] = mmask

    verified = set()

    def open_position(key):
        """Check one position, return its successor positions (or a failure)."""
        cmask, r = key
        if key not in strategy:
            return None, (
                f"no move recorded for reachable position ({mask_to_tuple(cmask)},{r})"
            )
        move = strategy[key]
        opts = robber_options_mask(d, cmask, move, r, strong=strong)
        if cert.monotone:
            old_space = reach_mask(d.succ_masks, 1 << r, cmask)
            for r2 in iter_bits(opts):
                if reach_mask(d.succ_masks, 1 << r2, move) & ~old_space:
                    return None, (
                        f"non-monotone step at ({mask_to_tuple(cmask)},{r}) -> "
                        f"({mask_to_tuple(move)},{r2})"
                    )
        return [(move, r2) for r2 in iter_bits(opts)], None

    # depth-first replay; a position revisited on the current play is an
    # infinite play, hence an invalid strategy
    for r0 in range(d.n):
        root = (0, r0)
        if root in verified:
            continue
        succs, fail = open_position(root)
        if fail:
            return VerificationResult(False, fail)
        stack = [(root, iter(succs))]
        path = {root}
        while stack:
            key, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                stack.pop()
                path.remove(key)
                verified.add(key)
                continue
            if nxt in verified:
                continue
            if nxt in path:
                return VerificationResult(
                    False,
                    f"strategy loops at position ({mask_to_tuple(nxt[0])},{nxt[1]})",
                )
            succs, fail = open_position(nxt)
            if fail:
                return VerificationResult(False, fail)
            stack.append((nxt, iter(succs)))
            path.add(nxt)
    return VerificationResult(True)


def _verify_sequence(d, cert, variant):
    full = d.full_mask
    lazy = variant.agility is Agility.LAZY
    r_mask = full
    c_mask = 0
    for i, move in enumerate(cert.body):
        if not all(0 <= v < d.n for v in move):
            raise CertificateError(f"move {i} outside V(D)")
        mmask = mask_from(move)
        if len(move) > cert.k:
            return VerificationResult(False, f"move {i} exceeds budget k={cert.k}")
        new_r = contaminate_mask(d, c_mask, mmask, r_mask, lazy)
        if cert.monotone and new_r & ~r_mask:
            return VerificationResult(
                False,
                f"move {i} recontaminates {mask_to_tuple(new_r & ~r_mask)}",
            )
        r_mask = new_r
        c_mask = mmask
    if r_mask:
        return VerificationResult(
            False, f"contamination {mask_to_tuple(r_mask)} left after the last move"
        )
    return VerificationResult(True)
