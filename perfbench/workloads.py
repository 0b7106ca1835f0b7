"""Workloads: seeded instances, the CLI calls made on them, and the checks.

Each workload is a list of ``copwin`` command lines run on edge-list files
that this module writes.  Every call carries a check that judges its exit
code and standard output against an oracle that shares no code with the
call's own solving path (the benchmark's own Kahn test and fingerprint,
the tree-width DP, the brute-force hard-problem oracles, the ``validate_*``
witness checkers, and answers recorded when the benchmark was introduced).
Checks run after the timed region.

There are two workloads.  ``census`` is the exhaustive gap scan.
``instances`` runs three groups of calls in one pass: the visible-arena
calls, the invisible-search calls and the hard-problem calls, each group on
its own graphs (named ``v-*``, ``i-*`` and by problem).

Seeding: the game and hard-problem instances are fixed base graphs (each
drawn once from its own master seed), and the run seed shuffles the arc
lines of every file.  For the visible-arena graphs it also relabels the
vertices.
Cop numbers, widths and problem optima are invariant under relabelling, so
every recorded answer is checked on every seed.  Drawing fresh random
graphs per seed instead would move the cop number, and with it the arena
size, by a factor of five from seed to seed.  The other graphs keep their
labels because their work depends on them: the contamination search stops
at the first win in move order (relabelling moved its transitions by 5%
either way), and the subset searches stop at the first optimum in label
order (their cost moved threefold).  The 8,000-arc parse file is drawn
fresh from the run seed; its cost depends only on its arc count.
``census`` is exhaustive, so it ignores the seed.
"""
from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

WORKLOADS = ("census", "instances")
SIZES = ("full", "tiny")

Arcs = List[Tuple[int, int]]


@dataclass(frozen=True)
class Spec:
    """A base instance.  ``expect`` holds answers recorded for it."""

    name: str
    kind: str  # random | bidirected | dense | hamiltonian | fixed
    n: int
    density: float  # arc probability; the arc count for kind "dense"
    master: int
    expect: dict = field(default_factory=dict)


@dataclass
class Op:
    """One ``copwin`` command line, the instances it answers, and its check.

    ``check(rc, stdout)`` returns None when the answer is right, else the
    reason it is wrong.
    """

    label: str
    argv: List[str]
    keys: Tuple[str, ...]
    check: Callable[[int, str], Optional[str]]


@dataclass
class Workload:
    name: str
    ops: List[Op]  # a pass: the workload's own calls, then the tour
    warmup: List[Op]  # the tour
    weights: Dict[str, int]  # instances each key stands for


# ---------------------------------------------------------------------------
# Instance tables.  ``expect`` values were recorded with copwin 0.1.0 and
# hold for every run seed (see the module docstring).
# ---------------------------------------------------------------------------

def _game(visible, scc=None, inert=None, fast=None):
    """Recorded (plain, monotone) cop numbers per game variant."""
    out = {}
    for variant, pair in (("visible", visible), ("visible-fast-scc", scc),
                          ("inert", inert), ("invisible-fast", fast)):
        if pair is not None:
            out[variant] = pair
    return out


VISIBLE_ARENA = {
    "full": [
        Spec("v-d9", "random", 9, 0.30, 1, _game((3, 3), scc=(3, 3))),
        Spec("v-b9", "bidirected", 9, 0.30, 25, _game((3, 3))),
    ],
    "tiny": [
        Spec("v-d5", "random", 5, 0.40, 1, _game((2, 2), scc=(2, 2))),
        Spec("v-b5", "bidirected", 5, 0.40, 2, _game((2, 2))),
    ],
}

INVISIBLE_SEARCH = {
    "full": [
        Spec("i-d9", "random", 9, 0.35, 2, _game(None, inert=(2, 2), fast=(2, 2))),
        Spec("i-b9", "bidirected", 9, 0.30, 10, _game(None, inert=(3, 3), fast=(3, 3))),
    ],
    "tiny": [
        Spec("i-d5", "random", 5, 0.40, 1, _game(None, inert=(2, 2), fast=(2, 2))),
        Spec("i-b5", "bidirected", 5, 0.40, 2, _game(None, inert=(2, 2), fast=(2, 2))),
    ],
}

HARD_REPORT = {
    "full": {
        "report": [
            Spec("r7", "random", 7, 0.30, 1, {"dagwidth": 3, "kellywidth": 3, "fvs": 3, "mes": 8}),
            Spec("r8a", "random", 8, 0.30, 2, {"dagwidth": 2, "kellywidth": 2, "fvs": 1, "mes": 9}),
            Spec("r8b", "random", 8, 0.35, 3, {"dagwidth": 2, "kellywidth": 2, "fvs": 2, "mes": 9}),
        ],
        "ham": Spec("h18", "hamiltonian", 18, 0.50, 1),
        "fas": Spec("f7", "dense", 7, 25, 2, {"fvs": 3}),
        "mes": Spec("m8", "dense", 8, 22, 3, {"mes": 8}),
        "parse_arcs": 8000,
    },
    "tiny": {
        "report": [
            Spec("r5", "random", 5, 0.40, 1, {"dagwidth": 2, "kellywidth": 2, "fvs": 1, "mes": 5}),
        ],
        "ham": Spec("h8", "hamiltonian", 8, 0.30, 1),
        "fas": Spec("f5", "dense", 5, 9, 2, {"fvs": 2}),
        "mes": Spec("m5", "dense", 5, 8, 3, {"mes": 5}),
        "parse_arcs": 200,
    },
}

# Every workload ends each pass with a tour of the verbs on this graph, and
# uses the tour as its warm-up: every traced layer then runs in every
# workload, so no layer's spans are empty, for about 20 ms per pass.
TOUR = Spec("tour", "fixed", 4, 0, 0, {
    **_game((2, 2), inert=(2, 2), fast=(2, 2)),
    "dagwidth": 2, "kellywidth": 2, "fvs": 1, "mes": 4,
})
TOUR_ARCS = [(0, 1), (1, 2), (2, 0), (2, 3)]

CENSUS_N = {"full": 4, "tiny": 3}
# CLI variant name -> the variant name gapscan writes in its rows
CENSUS_VARIANTS = {"visible": "visible-fast", "inert": "invisible-lazy"}


# ---------------------------------------------------------------------------
# Graph generation and edge-list writing (independent of copwin)
# ---------------------------------------------------------------------------

def base_arcs(spec: Spec) -> Arcs:
    rng = random.Random(spec.master)
    n = spec.n
    if spec.kind == "random":
        return [(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < spec.density]
    if spec.kind == "bidirected":
        arcs = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < spec.density:
                    arcs += [(u, v), (v, u)]
        return arcs
    if spec.kind == "dense":
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        return rng.sample(pairs, int(spec.density))
    if spec.kind == "hamiltonian":
        order = list(range(n))
        rng.shuffle(order)
        arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
        arcs.update((u, v) for u in range(n) for v in range(n)
                    if u != v and rng.random() < spec.density)
        return sorted(arcs)
    raise ValueError(f"unknown instance kind {spec.kind!r}")


def relabel(n: int, arcs: Arcs, rng: random.Random, vertices: bool = True) -> Arcs:
    """Shuffle the arc order, after a random vertex permutation if ``vertices``."""
    perm = list(range(n))
    if vertices:
        rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in arcs]
    rng.shuffle(out)
    return out


def edge_list_text(n: int, arcs: Arcs) -> str:
    return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in arcs)


def canonical_fingerprint(n: int, arcs: Arcs) -> str:
    """SHA-256 of the canonical edge list (header, sorted arcs), per docs/formats.md."""
    return hashlib.sha256(edge_list_text(n, sorted(arcs)).encode()).hexdigest()


def is_dag(n: int, arcs: Arcs) -> bool:
    """Kahn's algorithm."""
    indeg = [0] * n
    out = [[] for _ in range(n)]
    for u, v in arcs:
        out[u].append(v)
        indeg[v] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return seen == n


@dataclass
class Instance:
    name: str
    n: int
    arcs: Arcs
    path: str
    spec: Optional[Spec] = None

    @property
    def expect(self) -> dict:
        return self.spec.expect if self.spec else {}


def _write(workdir: Path, name: str, n: int, arcs: Arcs, spec=None) -> Instance:
    path = workdir / f"{name}.edges"
    path.write_text(edge_list_text(n, arcs), encoding="utf-8")
    return Instance(name, n, arcs, str(path), spec)


def _materialize(spec: Spec, seed: int, workdir: Path, vertices: bool = True) -> Instance:
    rng = random.Random(f"{seed}:{spec.name}")
    arcs = relabel(spec.n, base_arcs(spec), rng, vertices)
    return _write(workdir, spec.name, spec.n, arcs, spec)


# ---------------------------------------------------------------------------
# Output parsing and check helpers
# ---------------------------------------------------------------------------

_GAP_RE = re.compile(r"^cop_number=(\d+) monotone_cop_number=(\d+) gap=(-?\d+) ratio=\S+$")


def _lines(out: str) -> List[str]:
    return [line for line in out.splitlines() if line.strip()]


def _single_int(out: str) -> Optional[int]:
    lines = _lines(out)
    if len(lines) == 1 and re.fullmatch(r"-?\d+", lines[0].strip()):
        return int(lines[0])
    return None


def _treewidth_plus_one(inst: Instance, cache: dict) -> int:
    if inst.name not in cache:
        from copwin.width import treewidth_exact
        edges = {(min(u, v), max(u, v)) for u, v in inst.arcs}
        cache[inst.name] = treewidth_exact(inst.n, sorted(edges)) + 1
    return cache[inst.name]


def _expectations(inst: Instance, variant: str, tw_cache: dict) -> List[Tuple[str, tuple]]:
    """(source, (plain, monotone) cop numbers) pairs the answer must equal."""
    out = []
    if variant in inst.expect:
        out.append(("recorded", tuple(inst.expect[variant])))
    if inst.spec and inst.spec.kind == "bidirected" and variant in ("visible", "inert"):
        t = _treewidth_plus_one(inst, tw_cache)
        out.append(("treewidth+1", (t, t)))
    if variant == "visible" and is_dag(inst.n, inst.arcs):
        out.append(("acyclic", (1, 1)))
    return out


def check_gap(inst: Instance, variant: str, tw_cache: dict):
    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        lines = _lines(out)
        m = _GAP_RE.match(lines[0]) if len(lines) == 1 else None
        if not m:
            return f"unparsable gap output {out[:80]!r}"
        plain, mono, gap = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if gap != mono - plain or mono < plain or plain < 1:
            return f"inconsistent gap output {lines[0]!r}"
        for source, pair in _expectations(inst, variant, tw_cache):
            if (plain, mono) != pair:
                return f"{variant} cop numbers {(plain, mono)} != {source} {pair}"
        return None
    return check


def check_int(inst: Instance, variant: str, which: int, offset: int, tw_cache: dict):
    """A single integer: the expected (plain, monotone)[which] + offset."""
    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        value = _single_int(out)
        if value is None:
            return f"unparsable output {out[:80]!r}"
        for source, pair in _expectations(inst, variant, tw_cache):
            if value != pair[which] + offset:
                return f"value {value} != {source} {pair[which] + offset}"
        return None
    return check


def check_valid(rc, out):
    if rc != 0:
        return f"exit code {rc}"
    if _lines(out) != ["VALID"]:
        return f"certify printed {out[:80]!r}"
    return None


def check_robber(rc, out):
    if rc != 0:
        return f"exit code {rc}"
    if _lines(out) != ["ROBBER"]:
        return f"solve printed {out[:80]!r}"
    return None


def _digraph(inst: Instance):
    from copwin.digraph import Digraph
    return Digraph(inst.n, inst.arcs)


def _json_line(rc, out):
    if rc != 0:
        return None, f"exit code {rc}"
    lines = _lines(out)
    try:
        return json.loads(lines[0]) if len(lines) == 1 else None, None
    except json.JSONDecodeError:
        return None, f"unparsable JSON {out[:80]!r}"


def check_hard(inst: Instance, problem: str):
    def check(rc, out):
        doc, err = _json_line(rc, out)
        if err:
            return err
        if not isinstance(doc, dict) or doc.get("problem") != problem:
            return f"unexpected output {out[:80]!r}"
        from copwin import hardproblems as hp
        d = _digraph(inst)
        witness = doc.get("witness")
        if problem == "hamiltonian_cycle":
            if doc.get("value") != inst.n or not hp.validate_hamiltonian_witness(d, witness):
                return "Hamiltonian witness rejected"
            return None
        if witness is None:
            return "missing witness"
        if problem == "feedback_vertex_set":
            sol = hp.ProblemSolution(problem, tuple(witness), doc["value"])
            ok = hp.validate_feedback_witness(d, sol) and len(witness) == doc["value"]
            expected = inst.expect.get("fvs")
        else:
            arcs = tuple(tuple(a) for a in witness)
            sol = hp.ProblemSolution(problem, arcs, doc["value"])
            if problem == "feedback_arc_set":
                ok = hp.validate_feedback_witness(d, sol)
                expected = hp.feedback_arc_number_by_orderings(d)
            else:
                ok = hp.validate_mes_witness(d, sol)
                expected = inst.expect.get("mes")
            ok = ok and len(arcs) == doc["value"]
        if not ok:
            return f"{problem} witness rejected"
        if expected is not None and doc["value"] != expected:
            return f"{problem} value {doc['value']} != expected {expected}"
        return None
    return check


def check_report(instances: List[Instance]):
    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        try:
            rows = [json.loads(line) for line in _lines(out)]
        except json.JSONDecodeError:
            return "unparsable report"
        if len(rows) != len(instances):
            return f"{len(rows)} report rows for {len(instances)} graphs"
        from copwin import hardproblems as hp
        for inst, row in zip(instances, rows):
            d = _digraph(inst)
            if row.get("status") != "ok":
                return f"{inst.name}: status {row.get('status')!r}"
            if row.get("instance") != canonical_fingerprint(inst.n, inst.arcs)[:12]:
                return f"{inst.name}: row id {row.get('instance')!r} does not match"
            if row["fas"] != hp.feedback_arc_number_by_orderings(d):
                return f"{inst.name}: fas {row['fas']} disagrees with the ordering oracle"
            if row["ham"] != int(hp.hamiltonian_cycle_bruteforce(d)):
                return f"{inst.name}: ham {row['ham']} disagrees with the permutation oracle"
            for key in ("dagwidth", "kellywidth", "fvs", "mes"):
                if key in inst.expect and row.get(key) != inst.expect[key]:
                    return f"{inst.name}: {key} {row.get(key)} != recorded {inst.expect[key]}"
        return None
    return check


def check_census(n: int, variant: str):
    row_variant = CENSUS_VARIANTS[variant]

    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        lines = _lines(out)
        if len(lines) != 1 << len(pairs):
            return f"{len(lines)} rows, expected {1 << len(pairs)}"
        for bits, line in enumerate(lines):
            row = json.loads(line)
            arcs = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            if (row["graph_id"] != canonical_fingerprint(n, arcs)[:12]
                    or row["n"] != n or row["m"] != len(arcs) or row["variant"] != row_variant):
                return f"row {bits} does not describe labeled digraph {bits}"
            if row["status"] != "ok":
                return f"row {bits}: status {row['status']!r}"
            if row["gap"] != 0 or row["copnum"] != row["mon_copnum"]:
                return f"row {bits}: gap {row['gap']} (none exists at n <= 5)"
            if not 1 <= row["copnum"] <= n:
                return f"row {bits}: cop number {row['copnum']} outside 1..{n}"
            if is_dag(n, arcs) and row["copnum"] != 1:
                return f"row {bits}: acyclic digraph with cop number {row['copnum']}"
        return None
    return check


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------

def _census(seed, size, workdir):
    n = CENSUS_N[size]
    ops = [
        Op(f"gapscan {v}",
           ["gapscan", "--variant", v, "--exhaustive", "--n", str(n),
            "--format", "jsonl", "--jobs", "1"],
           (v,), check_census(n, v))
        for v in CENSUS_VARIANTS
    ]
    return ops, {v: 1 << (n * (n - 1)) for v in CENSUS_VARIANTS}


def _tour(workdir) -> List[Op]:
    inst = _write(workdir, TOUR.name, TOUR.n, TOUR_ARCS, TOUR)
    cert = str(workdir / "tour.inert.cert.json")
    tw = {}
    return [
        Op("tour gapscan", ["gapscan", "--variant", "visible", "--exhaustive", "--n", "2",
                            "--format", "jsonl"], (), check_census(2, "visible")),
        Op("tour copnum", ["copnum", "--variant", "inert", "--emit-cert", cert, inst.path], (),
           check_int(inst, "inert", 0, 0, tw)),
        Op("tour certify", ["certify", inst.path, cert], (), check_valid),
        Op("tour dpw", ["width", "--measure", "dpw", inst.path], (),
           check_int(inst, "invisible-fast", 1, -1, tw)),
        Op("tour report", ["hard", "report", "--format", "jsonl", inst.path], (),
           check_report([inst])),
    ]


def _visible_arena(seed, size, workdir):
    tw = {}
    ops = []
    for spec in VISIBLE_ARENA[size]:
        inst = _materialize(spec, seed, workdir)
        cert = str(workdir / f"{spec.name}.visible.cert.json")
        key = (inst.name,)
        ops += [
            Op(f"gap {inst.name}", ["gap", "--variant", "visible", inst.path], key,
               check_gap(inst, "visible", tw)),
            Op(f"copnum {inst.name}", ["copnum", "--emit-cert", cert, inst.path], key,
               check_int(inst, "visible", 0, 0, tw)),
            Op(f"certify {inst.name}", ["certify", inst.path, cert], key, check_valid),
            Op(f"dagwidth {inst.name}", ["width", "--measure", "dagwidth", inst.path], key,
               check_int(inst, "visible", 1, 0, tw)),
        ]
        if spec is VISIBLE_ARENA[size][0]:
            ops.append(Op(f"gap-scc {inst.name}",
                          ["gap", "--variant", "visible-fast-scc", inst.path], key,
                          check_gap(inst, "visible-fast-scc", tw)))
    return ops, {op.keys[0]: 1 for op in ops}


def _invisible_search(seed, size, workdir):
    tw = {}
    ops = []
    for spec in INVISIBLE_SEARCH[size]:
        inst = _materialize(spec, seed, workdir, False)
        key = (inst.name,)
        ops += [
            Op(f"kellywidth {inst.name}", ["width", "--measure", "kellywidth", inst.path], key,
               check_int(inst, "inert", 1, 0, tw)),
            Op(f"dpw {inst.name}", ["width", "--measure", "dpw", inst.path], key,
               check_int(inst, "invisible-fast", 1, -1, tw)),
            Op(f"gap-inert {inst.name}", ["gap", "--variant", "inert", inst.path], key,
               check_gap(inst, "inert", tw)),
            Op(f"gap-fast {inst.name}", ["gap", "--variant", "invisible-fast", inst.path], key,
               check_gap(inst, "invisible-fast", tw)),
        ]
    return ops, {op.keys[0]: 1 for op in ops}


def _hard_report(seed, size, workdir):
    table = HARD_REPORT[size]
    reports = [_materialize(s, seed, workdir, False) for s in table["report"]]
    ham, fas, mes = (_materialize(table[k], seed, workdir, False) for k in ("ham", "fas", "mes"))
    # the parse file is drawn fresh: its cost depends only on its arc count
    rng = random.Random(f"{seed}:parse")
    m = table["parse_arcs"]
    n = 2
    while n * (n - 1) < m * 5 // 4:
        n += 1
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    big = _write(workdir, f"parse{m}", n, rng.sample(pairs, m))
    ops = [
        Op("report", ["hard", "report", "--format", "jsonl"] + [r.path for r in reports],
           tuple(r.name for r in reports), check_report(reports)),
        Op(f"ham {ham.name}", ["hard", "ham", "--json", ham.path], (ham.name,),
           check_hard(ham, "hamiltonian_cycle")),
        Op(f"fas {fas.name}", ["hard", "fas", "--json", fas.path], (fas.name,),
           check_hard(fas, "feedback_arc_set")),
        Op(f"fvs {fas.name}", ["hard", "fvs", "--json", fas.path], (fas.name,),
           check_hard(fas, "feedback_vertex_set")),
        Op(f"mes {mes.name}", ["hard", "mes", "--json", mes.path], (mes.name,),
           check_hard(mes, "minimum_equivalent_subgraph")),
        Op(f"solve-k0 {big.name}", ["solve", "--cops", "0", big.path], (big.name,),
           check_robber),
    ]
    return ops, {k: 1 for op in ops for k in op.keys}


def _instances(seed, size, workdir):
    ops, weights = [], {}
    for make in (_visible_arena, _invisible_search, _hard_report):
        more, more_weights = make(seed, size, workdir)
        ops += more
        weights.update(more_weights)
    return ops, weights


_MAKE = {
    "census": _census,
    "instances": _instances,
}


def build(name: str, seed: int, size: str, workdir: Path) -> Workload:
    """Generate the workload's instances into ``workdir`` and its call list."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    ops, weights = _MAKE[name](seed, size, workdir)
    tour = _tour(workdir)
    return Workload(name, ops + tour, tour, weights)
