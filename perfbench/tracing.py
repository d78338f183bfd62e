"""Spans around calls into glidekit's public functions, for the traced run only.

``Tracer.install`` replaces each function where its caller looks it up (a
module attribute such as ``schur.lr_coefficient`` or a class attribute such
as ``GlidePoset.covers``), so nested calls get their own spans and every
span's self time excludes its children.  The untraced run installs nothing.
Spans stay in memory and are written out once, at the end; self times
are worked out from them afterwards and scaled to the reference speed of the
calibration segment each span's op ran in (see speed.py).  The list of
per-layer metrics is read from BENCHMARK.json, its one source.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path

from glidekit import cli, glides, ktheory, poly, poset, qsym, schur, verify

from harness import p50_by_kind
from speed import Speed, clock
from workloads import REQUEST_KINDS

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# (owner, attribute, span name); one owner per place a caller looks it up
_SITES = [
    (poset, "build_poset", "poset.build_poset"),
    (glides, "build_poset", "poset.build_poset"),
    (cli, "build_poset", "poset.build_poset"),
    (poset.GlidePoset, "mobius", "poset.mobius"),
    (poset.GlidePoset, "covers", "poset.covers"),
    (poset.GlidePoset, "mobius_crosscut", "poset.mobius_crosscut"),
    (poset.GlidePoset, "is_lattice_with_bottom", "poset.is_lattice_with_bottom"),
    (glides, "glide_polynomial", None),
    (cli, "glide_polynomial", None),
    (glides, "enumerate_C", "glides.enumerate_C"),
    (ktheory, "knutson_class", "ktheory.knutson_class"),
    (cli, "knutson_class", "ktheory.knutson_class"),
    (ktheory, "chern_substitute", "ktheory.chern_substitute"),
    (cli, "chern_substitute", "ktheory.chern_substitute"),
    (ktheory, "is_quasisymmetric", "ktheory.is_quasisymmetric"),
    (qsym, "polynomial_to_m", "qsym.polynomial_to_m"),
    (qsym, "m_multiply", "qsym.m_multiply"),
    (cli, "m_multiply", "qsym.m_multiply"),
    (qsym, "overlapping_shuffle", "qsym.overlapping_shuffle"),
    (cli, "overlapping_shuffle", "qsym.overlapping_shuffle"),
    (qsym, "glide_structure_constants", "qsym.glide_structure_constants"),
    (cli, "glide_structure_constants", "qsym.glide_structure_constants"),
    (qsym, "glide_expand", "qsym.glide_expand"),
    (cli, "glide_expand", "qsym.glide_expand"),
    (qsym, "qsym_r_product", "qsym.qsym_r_product"),
    (qsym, "qsym_r_product_shuffle", "qsym.qsym_r_product_shuffle"),
    (poly.SparsePoly, "__mul__", "poly.mul"),
    (poly.SparsePoly, "restrict", "poly.restrict"),
    (schur, "buk_structure_constant", "schur.buk_structure_constant"),
    (cli, "buk_structure_constant", "schur.buk_structure_constant"),
    (schur, "lr_coefficient", "schur.lr_coefficient"),
    (cli, "lr_coefficient", "schur.lr_coefficient"),
    (schur, "ssyt_enumerate", "schur.ssyt_enumerate"),
    (cli, "run", "cli.run"),
    (cli, "poly_to_json", "jsonio"),
    (cli, "comp_map_to_json", "jsonio"),
    (verify, "poly_to_json", "jsonio"),
    (verify, "comp_map_to_json", "jsonio"),
    (cli, "run_all", "verify.run_all"),
]


def _glide_span_name(args, kwargs) -> str:
    method = kwargs.get("method", args[2] if len(args) > 2 else "closed")
    return f"glides.{method}"


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent span, op)
        self.tableaux = 0
        self.op_id = -1
        self._stack: list[int] = []  # indices of the open spans
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name or _glide_span_name(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self.op_id)
            if span_name == "schur.ssyt_enumerate":
                self.tableaux += len(result)
            return result

        return traced

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for owner, attr, name in _SITES:
            original = owner.__dict__[attr]
            key = id(original)
            if key not in wrapped:
                wrapped[key] = self.wrap(original, name)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapped[key])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def self_times(self, factor_of_op) -> tuple[dict[str, float], Counter]:
        """Scaled self time (span minus its child spans) and call count per span name."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                children[parent] += end - start
        busy: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, parent, op), inner in zip(self.spans, children):
            busy[name] += (end - start - inner) * factor_of_op(op)
            calls[name] += 1
        return busy, calls

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def overhead_per_span(calls: int = 20000, blocks: int = 7) -> float:
    """Scaled seconds a wrapper adds to one call: a wrapped no-op minus a bare
    one, the median over alternating blocks, so drift in speed cancels."""

    def noop():
        return ()

    probe = Tracer()
    wrapped = probe.wrap(noop, "probe")
    speed = Speed()
    speed.mark(5)
    extra = []
    for _ in range(blocks):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        probe.spans.clear()
        extra.append(((t2 - t1) - (t1 - t0)) / calls)
    speed.mark(5)
    return max(0.0, statistics.median(extra)) * speed.factor(0)


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, outcome, counts, c_tilde_info, ring_infos, overhead_s):
    """Per-layer values of one traced run, for every name BENCHMARK.json lists.

    ``c_tilde_info`` and ``ring_infos`` are (hits, misses) accrued during the
    timed phase; the benchmark's own C-tilde lookups are taken out of the hits.
    """
    factors = outcome.speed.factors()
    busy, calls = tracer.self_times(lambda op: factors[outcome.segments[op]])
    spec = per_layer_spec()
    values = {}
    for name, _ in spec:
        if name.endswith(".busy_s"):
            values[name] = busy.get(name[: -len(".busy_s")], 0.0)
        elif name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0)
    p50 = p50_by_kind(outcome)
    for kind in REQUEST_KINDS:
        values[f"requests.{kind}.op_p50_ms"] = p50.get(kind, (0.0, 0))[0]
    hits, misses = c_tilde_info
    # the sweeps clear the cache, and its counts, after every op
    hits = max(0, hits - counts["glides.c_tilde.own_lookups"])
    ring_hits = sum(h for h, _ in ring_infos)
    ring_lookups = sum(h + m for h, m in ring_infos)
    values.update(
        {
            "poset.elements": counts["poset.elements"],
            "poset.covers.pairs": counts["poset.covers.pairs"],
            "poset.useful_ratio": _ratio(counts["poset.mobius_nonzero"], counts["poset.elements"]),
            "glides.c_tilde.strings": counts["glides.c_tilde.strings"],
            "glides.c_tilde.cache_hit_ratio": _ratio(hits, hits + misses),
            "ktheory.kclass.terms": counts["ktheory.kclass.terms"],
            "ktheory.chern.terms": counts["ktheory.chern.terms"],
            "qsym.chern.m_coords": counts["qsym.chern.m_coords"],
            "qsym.tensor.terms": counts["qsym.tensor.terms"],
            "poly.mul.terms": counts["poly.mul.terms"],
            "schur.tableaux": tracer.tableaux,
            "schur.ring_multiply.cache_hit_ratio": _ratio(ring_hits, ring_lookups),
            "cli.stdout_bytes": counts["cli.stdout_bytes"],
            "workload.ops": outcome.attempted,
            "workload.repeat_share": _ratio(outcome.repeats, outcome.attempted),
            "trace.overhead_s": overhead_s,
        }
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in spec}
