"""Layer tracing for the benchmark, done entirely from outside the library.

``Tracer.install`` replaces selected gsalg functions and methods with
wrappers that record one span per call: name, start, end, parent span and
the id of the benchmark item being run.  Every module-level name bound to a
wrapped function is rebound, so imports such as ``series.rref_gf2`` or the
``require_capacity`` copies in series, quotient, ladder and subspace are
traced too.  ``Tracer.uninstall`` puts the originals back.

Counts that give a layer's useful-work ratios (rows offered against rank
gained, words scanned against V words found, ...) are taken by small
observer functions at the same boundaries.  Spans stay in memory; self time
is computed once at the end: a span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("linalg", "series", "quotient", "ladder", "subspace", "magnitude",
           "schedule", "limits", "cli")


class Tracer:
    def __init__(self):
        self.spans = []            # (name, start, end, parent index, item id)
        self.stack = []
        self.item = None
        self.active = False
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.distinct = defaultdict(set)
        self._restore = []

    # -- installation ----------------------------------------------------
    def install(self, layers):
        """Wrap every (qualified name, observer, pre-hook) in ``layers``."""
        for qualname, observe, pre in layers:
            module_name, *attrs = qualname.split(".")
            owner = sys.modules[f"gsalg.{module_name}"]
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            original = owner.__dict__[attrs[-1]]
            wrapper = self._wrap(qualname, original, observe, pre)
            if isinstance(owner, type):
                self._rebind(owner, attrs[-1], original, wrapper)
            else:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "gsalg" or mod_name.startswith("gsalg."):
                        for name, value in list(vars(mod).items()):
                            if value is original:
                                self._rebind(mod, name, original, wrapper)

    def _rebind(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, name, fn, observe, pre):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            before = pre(args, kwargs) if pre else None
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(idx)
            out = exc = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as err:
                exc = err
                raise
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent, tracer.item)
                if observe:
                    observe(tracer, args, kwargs, out, exc, before)

        return wrapper

    # -- results ---------------------------------------------------------
    def summary(self):
        """Per span name: calls, self seconds, and inclusive seconds.

        Inclusive time counts only the outermost span of a name, so
        recursive calls (``_rref_block``, ``_split_base``) are not counted
        twice.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                incl_s[name] += t1 - t0
        return calls, self_s, incl_s


# ---------------------------------------------------------------------------
# observers: counts taken where the work happens
# ---------------------------------------------------------------------------

def _echelon(prefix):
    def observe(tr, args, kwargs, out, exc, before):
        if exc is None:
            tr.counts[prefix + ".rows_in"] += args[0].shape[0]
            tr.counts[prefix + ".rank_out"] += out[0]
    return observe


def _sparse_insert(tr, args, kwargs, out, exc, before):
    if exc is None and out:
        tr.counts["linalg.SparseBasis.insert.grew"] += 1


def _rank_before(args, kwargs):
    return args[0].rank


def _insert_block(tr, args, kwargs, out, exc, before):
    if exc is not None:
        return
    gained = args[0].rank - before
    tr.counts["quotient._GFpBasis.insert_block.rows_offered"] += args[1].shape[0]
    tr.counts["quotient._GFpBasis.insert_block.rank_gained"] += gained
    if gained and before:
        tr.counts["quotient._GFpBasis.insert_block.old_rows_rereduced"] += before


def _decompose(tr, args, kwargs, out, exc, before):
    lad, k = args[0], args[1]
    key = (tuple(lv.words for lv in lad.levels),
           tuple(lv.u_is_complement() for lv in lad.levels), k)
    tr.distinct["ladder.decompose_binary"].add(key)


def _mono_chain(tr, args, kwargs, out, exc, before):
    if exc is None:
        tr.counts["ladder._mono_chain.words_scanned"] += 1 << args[2]
        tr.counts["ladder._mono_chain.v_words"] += len(out[0])


def _split_base(tr, args, kwargs, out, exc, before):
    tr.distinct["magnitude._split_base"].add(args[0])


def _magnitude_cmp(tr, args, kwargs, out, exc, before):
    if exc is not None and type(exc).__name__ == "ComparisonUndecided":
        tr.counts["magnitude.magnitude_cmp.undecided"] += 1


def _require_capacity(tr, args, kwargs, out, exc, before):
    mb = args[0] / (1 << 20)
    if mb > tr.maxima["limits.require_capacity.max_estimate_mb"]:
        tr.maxima["limits.require_capacity.max_estimate_mb"] = mb


# (qualified name under gsalg, observer, pre-hook); one module is one layer
LAYERS = [
    ("linalg.rref_gf2", _echelon("linalg.rref_gf2"), None),
    ("linalg.rref_modp", _echelon("linalg.rref_modp"), None),
    ("linalg.SparseBasis.insert", _sparse_insert, None),
    ("series.hilbert_quotient", None, None),
    ("series._gf2_reduce_rows", None, None),
    ("quotient.truncated_ideal_basis", None, None),
    ("quotient._GFpBasis.insert_block", _insert_block, _rank_before),
    ("quotient._mod_reduce", None, None),
    ("quotient._rref_block", None, None),
    ("quotient.TruncatedIdeal.contains", None, None),
    ("quotient.commutativity_status", None, None),
    ("ladder.decompose_binary", _decompose, None),
    ("ladder._mono_chain", _mono_chain, None),
    ("ladder.absorption_check", None, None),
    ("ladder.compute_E", None, None),
    ("subspace.Subspace.product", None, None),
    ("subspace.Subspace.sum", None, None),
    ("subspace.Subspace.intersect", None, None),
    ("magnitude._split_base", _split_base, None),
    ("magnitude.Magnitude.mul", None, None),
    ("magnitude.Magnitude.pow_int", None, None),
    ("magnitude.magnitude_cmp", _magnitude_cmp, None),
    ("magnitude.log2_bounds", None, None),
    ("schedule.sample_valid_profile", None, None),
    ("schedule.validate_profile", None, None),
    ("schedule.compute_schedule", None, None),
    ("schedule.verify_schedule", None, None),
    ("schedule.growth_bounds", None, None),
    ("limits.require_capacity", _require_capacity, None),
    ("cli.main", None, None),
    ("cli._emit", None, None),
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_units():
    """Unit of every name ``layer_metrics`` emits, read off its last part."""
    units = {}
    for name in layer_metrics(Tracer(), 0.0):
        stat = name.rsplit(".", 1)[1]
        if stat.endswith("_s"):
            units[name] = "s"
        elif stat.endswith("_mb"):
            units[name] = "MB"
        elif stat.endswith(("_frac", "share")):
            units[name] = "1"
        else:
            units[name] = "count"
    return units


def layer_metrics(tracer, item_wall_s):
    """Flat ``{metric name: value}`` for every layer, zero where unused.

    ``item_wall_s`` is the summed wall time of the traced items; shares are
    self (or inclusive) time over it.
    """
    calls, self_s, incl_s = tracer.summary()
    c = tracer.counts
    m = {}
    for name, _, _ in LAYERS:
        m[name + ".calls"] = calls.get(name, 0)
        m[name + ".self_s"] = self_s.get(name, 0.0)
    for name in ("linalg.rref_gf2", "linalg.rref_modp"):
        m[name + ".rows_in"] = c[name + ".rows_in"]
        m[name + ".rank_out"] = c[name + ".rank_out"]
        m[name + ".kept_frac"] = _ratio(c[name + ".rank_out"], c[name + ".rows_in"])
    m["linalg.SparseBasis.insert.grew"] = c["linalg.SparseBasis.insert.grew"]
    ib = "quotient._GFpBasis.insert_block"
    for key in ("rows_offered", "rank_gained", "old_rows_rereduced"):
        m[f"{ib}.{key}"] = c[f"{ib}.{key}"]
    m[ib + ".kept_frac"] = _ratio(c[ib + ".rank_gained"], c[ib + ".rows_offered"])
    db = "ladder.decompose_binary"
    m[db + ".distinct"] = len(tracer.distinct[db])
    m[db + ".repeat_frac"] = 1 - _ratio(m[db + ".distinct"], m[db + ".calls"]) \
        if m[db + ".calls"] else 0.0
    mc = "ladder._mono_chain"
    m[mc + ".words_scanned"] = c[mc + ".words_scanned"]
    m[mc + ".v_frac"] = _ratio(c[mc + ".v_words"], c[mc + ".words_scanned"])
    m["magnitude._split_base.distinct_bases"] = len(tracer.distinct["magnitude._split_base"])
    m["magnitude.magnitude_cmp.undecided"] = c["magnitude.magnitude_cmp.undecided"]
    m["limits.require_capacity.max_estimate_mb"] = \
        tracer.maxima["limits.require_capacity.max_estimate_mb"]
    for module in MODULES:
        m[module + ".share"] = _ratio(
            sum(v for k, v in self_s.items() if k.split(".")[0] == module), item_wall_s)
    m["linalg.rref_gf2.share"] = _ratio(self_s.get("linalg.rref_gf2", 0.0), item_wall_s)
    m["ladder._mono_chain.share"] = _ratio(self_s.get(mc, 0.0), item_wall_s)
    m["magnitude._split_base.share"] = _ratio(
        self_s.get("magnitude._split_base", 0.0), item_wall_s)
    m["quotient.truncated_ideal_basis.incl_share"] = _ratio(
        incl_s.get("quotient.truncated_ideal_basis", 0.0), item_wall_s)
    m["trace.spans"] = len(tracer.spans)
    return m
