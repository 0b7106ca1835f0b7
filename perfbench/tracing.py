"""Per-layer spans, taken from outside copwin.

``Tracer.install`` rebinds each traced public function, in every loaded
``copwin`` module that holds a reference to it, to a wrapper that records a
span: layer name, parent span, the CLI call it belongs to, start, end, and
a note read from the result (transitions, winner, arc count, bytes).
``uninstall`` restores the original bindings, so nothing under ``src/`` is
changed and untraced calls pay nothing.

``reach_mask`` is deliberately not traced: the kernels call it millions of
times per solve, and a wrapper there would measure the wrapper.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (name, parent index or -1, call index, start, end, note)
Span = Tuple[str, int, int, float, float, object]


def _kernel_note(result):
    cops_win, _, transitions = result
    return (transitions, bool(cops_win))


def _solve_note(result):
    return result.cops_win


def _arc_count(result):
    return result.m


def _text_bytes(result):
    return len(result.encode("utf-8"))


def layers() -> List[Tuple[str, Callable, Optional[Callable]]]:
    """(layer name, public function, note taker) for every traced layer."""
    from copwin import cli, digraph, hardproblems, lab, reports, solver, width
    from copwin.engine import available_backends

    out = [
        ("cli.main", cli.main, None),
        ("lab.gap_scan", lab.gap_scan, None),
        ("solver.cop_number", solver.cop_number, None),
        ("solver.solve", solver.solve, _solve_note),
        ("solver.verify_certificate", solver.verify_certificate, None),
        ("digraph.parse_edge_list", digraph.parse_edge_list, _arc_count),
        ("digraph.to_edge_list", digraph.to_edge_list, None),
        ("digraph.fingerprint", digraph.fingerprint, None),
        ("reports.rows_to_jsonl", reports.rows_to_jsonl, _text_bytes),
    ]
    for name in ("dag_width", "kelly_width", "directed_path_width"):
        out.append((f"width.{name}", getattr(width, name), None))
    for name in ("hamiltonian_cycle", "min_feedback_vertex_set", "min_feedback_arc_set",
                 "min_equivalent_subgraph", "width_annotated_report"):
        out.append((f"hardproblems.{name}", getattr(hardproblems, name), None))
    for backend in available_backends().values():
        for name in ("solve_visible", "solve_invisible"):
            out.append((f"engine.{name}", getattr(backend, name), _kernel_note))
    return out


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans: List[Span] = []
        self.call = -1  # index of the CLI call being run, shared by its spans
        self._stack: List[int] = []
        self._bindings: List[Tuple[object, str, Callable]] = []

    def _wrap(self, name, fn, note):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (name, parent, self.call, t0, clock(), None)
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            spans[sid] = (name, parent, self.call, t0, t1, note(result) if note else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=None):
        targets = layers() if targets is None else targets
        wrappers = {id(fn): (fn, self._wrap(name, fn, note)) for name, fn, note in targets}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "copwin" or mod_name.startswith("copwin.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._bindings.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._bindings):
            setattr(module, attr, value)
        self._bindings.clear()

    def take(self) -> List[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def _empty_stats() -> dict:
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0, "wins": 0, "losing_children": 0}


def layer_stats(spans: List[Span]) -> Dict[str, dict]:
    """Per layer: calls, inclusive seconds, self seconds, and note totals.

    A span's self time is its duration minus the time its child spans
    cover.
    """
    dur = [t1 - t0 for _, _, _, t0, t1, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, parent, _, _, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    stats: Dict[str, dict] = defaultdict(_empty_stats)
    for i, (name, parent, _, _, _, note) in enumerate(spans):
        st = stats[name]
        st["calls"] += 1
        st["s"] += dur[i]
        st["self_s"] += dur[i] - child[i]
        if isinstance(note, tuple):
            st["count"] += note[0]
            st["wins"] += note[1]
        elif isinstance(note, bool):
            st["wins"] += note
        elif isinstance(note, int):
            st["count"] += note
        if name == "solver.solve" and note is False and parent >= 0:
            if spans[parent][0] == "solver.cop_number":
                stats["solver.cop_number"]["losing_children"] += 1
    return dict(stats)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(stats: Dict[str, dict], wall_s: float) -> Dict[str, Tuple[float, str]]:
    """The named per-layer metrics of one traced pass, as (value, unit)."""
    def get(name):
        return stats.get(name) or _empty_stats()

    out: Dict[str, Tuple[float, str]] = {}
    for kernel in ("engine.solve_visible", "engine.solve_invisible"):
        st = get(kernel)
        out[f"{kernel}.calls"] = (st["calls"], "count")
        out[f"{kernel}.s"] = (st["s"], "s")
        out[f"{kernel}.transitions"] = (st["count"], "count")
        out[f"{kernel}.transitions_per_s"] = (_ratio(st["count"], st["s"]), "1/s")
        out[f"{kernel}.cops_win_ratio"] = (_ratio(st["wins"], st["calls"]), "ratio")
    st = get("solver.solve")
    out["solver.solve.calls"] = (st["calls"], "count")
    out["solver.solve.self_s"] = (st["self_s"], "s")
    st = get("solver.cop_number")
    out["solver.cop_number.calls"] = (st["calls"], "count")
    out["solver.cop_number.solves_per_call"] = (
        _ratio(st["losing_children"], st["calls"]), "solves/call")
    st = get("solver.verify_certificate")
    out["solver.verify_certificate.calls"] = (st["calls"], "count")
    out["solver.verify_certificate.s"] = (st["s"], "s")
    out["lab.gap_scan.self_s"] = (get("lab.gap_scan")["self_s"], "s")
    for layer in ("digraph.to_edge_list", "digraph.fingerprint"):
        out[f"{layer}.calls"] = (get(layer)["calls"], "count")
        out[f"{layer}.s"] = (get(layer)["s"], "s")
    st = get("reports.rows_to_jsonl")
    out["reports.rows_to_jsonl.s"] = (st["s"], "s")
    out["reports.rows_to_jsonl.bytes"] = (st["count"], "bytes")
    st = get("digraph.parse_edge_list")
    out["digraph.parse_edge_list.calls"] = (st["calls"], "count")
    out["digraph.parse_edge_list.s"] = (st["s"], "s")
    out["digraph.parse_edge_list.arcs_per_s"] = (_ratio(st["count"], st["s"]), "1/s")
    for name in ("dag_width", "kelly_width", "directed_path_width"):
        st = get(f"width.{name}")
        out[f"width.{name}.calls"] = (st["calls"], "count")
        out[f"width.{name}.s"] = (st["s"], "s")
    for name in ("hamiltonian_cycle", "min_feedback_vertex_set", "min_feedback_arc_set",
                 "min_equivalent_subgraph", "width_annotated_report"):
        out[f"hardproblems.{name}.s"] = (get(f"hardproblems.{name}")["s"], "s")
    st = get("cli.main")
    out["cli.main.calls"] = (st["calls"], "count")
    out["cli.main.self_s"] = (st["self_s"], "s")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.self_s_total"] = (sum(s["self_s"] for s in stats.values()), "s")
    return out
