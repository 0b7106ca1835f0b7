"""Strategy certificates: the format, its parse, and its replay.

This module is the only one that knows the certificate format.  Each
kind is built here from a kernel's raw cop-win output, serialized,
parsed and schema-checked, and replayed:

* ``positional`` (visible games): the visible kernel's strategy, a map
  from the positions play reaches from the starts to the next cop set;
* ``sequence`` (invisible games): the invisible kernel's cop sets, in
  the order they are played.

Certificates are replayable by ``verify_certificate``, which is written
against the arena-module semantics only and shares no code with the
solving kernels: this module imports neither ``engine`` nor ``solver``,
and a test checks its imports.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from . import __version__
from .arena import GameVariant, contaminate_mask, robber_options_mask
from .bits import iter_bits, mask_from
from .digraph import Digraph, fingerprint, reach_mask
from .errors import CertificateError, UnsupportedVariantError

CERTIFICATE_FORMAT = "copwin-certificate/1"


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

    @staticmethod
    def from_kernel(
        d: Digraph, k: int, variant: GameVariant, monotone: bool, won
    ) -> "Certificate":
        """The certificate of a kernel's cop win with k cops on ``d``.

        ``won`` is the visible kernel's strategy ``{(cops, robber): move}``
        over vertex masks, or the invisible kernel's sequence of cop-set
        masks.  It is trusted as the kernel's output: only converted to
        vertex tuples (the positional entries sorted), not validated.
        """
        if variant.visible:
            kind = "positional"
            body = tuple(sorted(
                (tuple(iter_bits(c)), r, tuple(iter_bits(mv))) for (c, r), mv in won.items()
            ))
        else:
            kind = "sequence"
            body = tuple(tuple(iter_bits(c)) for c in won)
        return Certificate(variant.name, k, monotone, fingerprint(d), kind, body)

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
        # ValueError also covers the integers json refuses as too long
        except (ValueError, RecursionError) as exc:
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
                tool_version=(
                    _field(doc, "tool_version", str) if "tool_version" in doc else "unknown"
                ),
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
    """A vertex set's JSON form: an array of strictly ascending vertex ids."""
    if not isinstance(value, list):
        raise CertificateError(f"malformed certificate: {value!r} is not a vertex list")
    out = tuple(_vertex(v) for v in value)
    if any(a >= b for a, b in zip(out, out[1:])):
        raise CertificateError(f"malformed certificate: {value!r} is not ascending")
    return out


@dataclass(frozen=True)
class VerificationResult:
    valid: bool
    reason: Optional[str] = None

    def __bool__(self):
        return self.valid


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
    if variant.visible:
        if cert.kind != "positional":
            raise CertificateError("visible-game certificate must be positional")
        return _verify_positional(d, cert, variant)
    if cert.kind != "sequence":
        raise CertificateError("invisible-game certificate must be a move sequence")
    return _verify_sequence(d, cert, variant)


def _verify_positional(d, cert, variant):
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
        if (cmask, robber) in strategy:
            raise CertificateError(f"position ({cops},{robber}) is named twice")
        strategy[(cmask, robber)] = mmask

    verified = set()

    def open_position(key):
        """Check one position, return its successor positions (or a failure)."""
        cmask, r = key
        if key not in strategy:
            return None, (
                f"no move recorded for reachable position ({tuple(iter_bits(cmask))},{r})"
            )
        move = strategy[key]
        opts = robber_options_mask(d, cmask, move, r, strong=variant.strong)
        if cert.monotone:
            old_space = reach_mask(d.succ_masks, 1 << r, cmask)
            for r2 in iter_bits(opts):
                if reach_mask(d.succ_masks, 1 << r2, move) & ~old_space:
                    return None, (
                        f"non-monotone step at ({tuple(iter_bits(cmask))},{r}) -> "
                        f"({tuple(iter_bits(move))},{r2})"
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
                    f"strategy loops at position ({tuple(iter_bits(nxt[0]))},{nxt[1]})",
                )
            succs, fail = open_position(nxt)
            if fail:
                return VerificationResult(False, fail)
            stack.append((nxt, iter(succs)))
            path.add(nxt)
    return VerificationResult(True)


def _verify_sequence(d, cert, variant):
    full = d.full_mask
    r_mask = full
    c_mask = 0
    for i, move in enumerate(cert.body):
        if not all(0 <= v < d.n for v in move):
            raise CertificateError(f"move {i} outside V(D)")
        mmask = mask_from(move)
        if len(move) > cert.k:
            return VerificationResult(False, f"move {i} exceeds budget k={cert.k}")
        new_r = contaminate_mask(d, c_mask, mmask, r_mask, variant.lazy)
        if cert.monotone and new_r & ~r_mask:
            return VerificationResult(
                False,
                f"move {i} recontaminates {tuple(iter_bits(new_r & ~r_mask))}",
            )
        r_mask = new_r
        c_mask = mmask
    if r_mask:
        return VerificationResult(
            False, f"contamination {tuple(iter_bits(r_mask))} left after the last move"
        )
    return VerificationResult(True)
