"""Per-layer tracing of filtermc, installed from outside the package.

``Tracer.install`` wraps each layer's public functions where they are
defined, rebinds the same wrapper in every filtermc module that imported
the function by name, and wraps the ``NonnegMatrix``, ``Partition``,
``DiscreteMeasure`` and ``FilterTrace`` methods on their classes.
``Tracer.remove`` puts every original back.  No file of the package
changes.

Each wrapper adds the call's duration minus the time of the wrapped calls
nested inside it to the layer's self time, and counts the call.  The
wrapper's own bookkeeping is charged to the wrapped call, not to its
caller: it is timed where it can be, and the part no timer can see (the
call into the wrapper and the updates after its last clock read) is
measured once by ``wrapper_residual`` and added to every call.  Calls are
aggregated into these counters as they return; no per-call record is kept,
so the hot kernels (``left_apply``, ``matmul``, ``step_outcomes``,
``rank_one_proximity``) cost one wrapper each and no memory.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("core_model", "filter_dynamics", "kantorovich", "stability", "entropy", "gallery",
           "cli")

# metric prefix -> (module, attribute) pairs timed under it; "Class.method"
# attributes are patched on the class
SPANS = {
    "core_model.load_model": [("core_model", "load_model")],
    "core_model.save_model": [("core_model", "save_model")],
    "core_model.partition_init": [("core_model", "Partition.__init__")],
    "core_model.stationary_vector": [("core_model", "stationary_vector")],
    "core_model.check_irreducible_aperiodic": [("core_model", "check_irreducible_aperiodic")],
    "core_model.left_apply": [("core_model", "NonnegMatrix.left_apply")],
    "core_model.matmul": [("core_model", "NonnegMatrix.__matmul__")],
    "filter_dynamics.step_outcomes": [("filter_dynamics", "step_outcomes")],
    "filter_dynamics.simulate_filter": [("filter_dynamics", "simulate_filter")],
    "filter_dynamics.pushforward": [("filter_dynamics", "pushforward")],
    "filter_dynamics.measure_init": [("filter_dynamics", "DiscreteMeasure.__init__")],
    "filter_dynamics.io": [("filter_dynamics", "FilterTrace.to_csv"),
                           ("filter_dynamics", "save_measure"),
                           ("filter_dynamics", "load_measure")],
    "kantorovich.kantorovich_distance": [("kantorovich", "kantorovich_distance")],
    "kantorovich.linprog": [("kantorovich", "linprog")],
    "stability.detect_rank_one_limit": [("stability", "detect_rank_one_limit")],
    "stability.word_search": [("stability", "_word_search")],
    "stability.compose_rank_one_witness": [("stability", "compose_rank_one_witness")],
    "stability.check_isometry_obstruction": [("stability", "check_isometry_obstruction")],
    "stability.rank_one_proximity": [("stability", "rank_one_proximity")],
    "stability.is_subrectangular": [("stability", "is_subrectangular")],
    "entropy.entropy_series": [("entropy", "entropy_series")],
    "entropy.entropy_bracket": [("entropy", "entropy_bracket")],
    "entropy.entropy_rate_mc": [("entropy", "entropy_rate_mc")],
    "gallery.build": [("gallery", name) for name in (
        "kesten_model", "random_walk_model", "random_walk_case_a", "random_walk_case_b",
        "kesten_perm_spec", "perm_family_model", "birkhoff_decompose",
        "birkhoff_partition_model")],
    "cli": [("cli", "run")],
}
# spans of the word-tree walk; ``entropy.fanout_rows`` counts the
# ``left_apply`` calls made under them (``entropy_rate_mc`` walks a path
# with the same fan-out as ``simulate``, so its rows are not counted)
WORD_TREE_SPANS = ("entropy.entropy_series", "entropy.entropy_bracket")


class Tracer:
    """Self-time and count registry; ``values`` holds every raw counter.

    ``residual`` is the per-call wrapper cost that falls outside the timed
    window (see ``wrapper_residual``); it is added to each call's duration.
    """

    def __init__(self, residual: float = 0.0):
        self.values: dict[str, float] = defaultdict(float)
        self.residual = residual
        self._child = [0.0]        # time of finished child spans, per open span
        self._tree_depth = 0       # open word-tree spans
        self._undo: list[tuple[object, str, object]] = []

    # -- counters fed by hooks ---------------------------------------------------
    def _hooks(self, prefix: str):
        v = self.values

        def left_apply(args, kwargs, out):
            v["core_model.left_apply.csr_calls"] += not args[0].is_dense
            v["entropy.fanout_rows"] += self._tree_depth > 0

        def matmul(args, kwargs, out):
            v["core_model.matmul.csr_calls"] += not (args[0].is_dense and args[1].is_dense)

        def measure_init(args, kwargs, out):
            v["filter_dynamics.atoms_in"] += len(args[1])
            v["filter_dynamics.atoms_out"] += args[0].size

        def pushforward(args, kwargs, out):
            v["filter_dynamics.pruned_count"] += out.pruned_count - args[0].pruned_count

        def linprog(args, kwargs, out):
            v["kantorovich.lp_vars"] += len(args[0])
            v["kantorovich.lp_rows"] += kwargs["A_eq"].shape[0]
            v["kantorovich.lp_nit"] += int(out.nit)
            v["kantorovich.lp_failed"] += out.status != 0

        def detect(args, kwargs, out):
            v["stability.words_examined"] += out.diagnostics.get("examined", 0)

        return {
            "core_model.left_apply": left_apply,
            "core_model.matmul": matmul,
            "filter_dynamics.measure_init": measure_init,
            "filter_dynamics.pushforward": pushforward,
            "kantorovich.linprog": linprog,
            "stability.detect_rank_one_limit": detect,
        }.get(prefix)

    def _wrap(self, prefix: str, fn):
        hook = self._hooks(prefix)
        tree = prefix in WORD_TREE_SPANS
        values, child, residual = self.values, self._child, self.residual
        self_key, calls_key = prefix + ".self_s", prefix + ".calls"

        def traced(*args, **kwargs):
            t0 = perf_counter()
            child.append(0.0)
            if tree:
                self._tree_depth += 1
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, out)
                return out
            finally:
                if tree:
                    self._tree_depth -= 1
                elapsed = perf_counter() - t0 + residual
                values[self_key] += elapsed - child.pop()
                values[calls_key] += 1
                child[-1] += elapsed

        return traced

    # -- installing and removing -------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {name: sys.modules[f"filtermc.{name}"] for name in MODULES}
        for prefix, targets in SPANS.items():
            for mod_name, attr in targets:
                mod = mods[mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    self._set(cls, meth, self._wrap(prefix, cls.__dict__[meth]))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(prefix, orig)
                for other in mods.values():
                    if getattr(other, attr, None) is orig:
                        self._set(other, attr, wrapped)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()


def wrapper_residual(calls: int = 20_000, repeats: int = 7) -> float:
    """Seconds per call that a wrapper costs outside its own timed window.

    A loop calling a wrapped no-op is timed against a loop calling the bare
    no-op; what the wrapped loop takes beyond the bare loop and the
    wrappers' recorded durations is the cost no wrapper clock sees.  The
    median of ``repeats`` trials is returned, at least 0.
    """
    probe = Tracer()
    noop = lambda: None  # noqa: E731
    wrapped = probe._wrap("probe", noop)
    trials = []
    for _ in range(repeats):
        probe.values.clear()
        t0 = perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = perf_counter()
        for _ in range(calls):
            noop()
        t2 = perf_counter()
        trials.append((t1 - t0 - probe.values["probe.self_s"] - (t2 - t1)) / calls)
    return max(0.0, statistics.median(trials))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(values: dict[str, float], names) -> dict[str, float]:
    """The per-layer metrics ``names`` from the raw counters; a layer the
    workload never reached reads 0."""
    v = defaultdict(float, values)
    for kernel in ("left_apply", "matmul"):
        v[f"core_model.{kernel}.csr_frac"] = _ratio(v[f"core_model.{kernel}.csr_calls"],
                                                    v[f"core_model.{kernel}.calls"])
    v["stability.decided_frac"] = _ratio(v["stability.decided"], v["stability.check_jobs"])
    v["entropy.pruned_mass"] = _ratio(v["entropy.reported_pruned_mass"], v["entropy.jobs"])
    return {name: v[name] for name in names}
