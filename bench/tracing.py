"""Span tracing of coregcalc's layers, installed from outside the program.

``Tracer.install`` replaces each traced function by a wrapper wherever the
package refers to it: the defining module, every module that imported the
name (``lctsets.mem_plus_closure``, ``cli.format_rational``, ...), and the
class for methods.  Each call records a span (name, start, end, parent span,
job id) into flat arrays kept in memory; ``write`` saves them when the run
ends and ``layer_metrics`` derives calls, self time and the per-layer
counters from them.  Self time is a span's duration minus its children's.
"""

import gzip
import json
import sys
import time
from array import array

# Traced layers as `module.attribute` or `module.Class.method`.
LAYERS = (
    "cli.run",
    "rationals.format_rational",
    "setalg.mem_plus_closure",
    "setalg.mem_d_set",
    "setalg.mem_d_d_set",
    "setalg.check_ddi_lemma",
    "setalg.check_dd_monotone",
    "setalg.plus_closure",
    "setalg.plus_closure_exact",
    "setalg.pos_combinations",
    "setalg.pos_combinations_exact",
    "setalg.d_set",
    "setalg.d_d_set",
    "lctsets.mem_lct0",
    "lctsets.mem_lct1",
    "lctsets.lct0_enumerate",
    "lctsets.lct1_enumerate",
    "lctsets.lct1_weighted",
    "lctsets.verify_acc_above",
    "lctsets.p1_oracle",
    "lctsets.accumulation_candidates",
    "lctsets.LctSet.collect",
    "toric.toric_lct_oracle",
    "toric.discrepancy_functional",
    "toric.SimplicialCone.contains",
    "toric.toric_lct",
    "toric.parse_toric_pair",
    "dualcx.parse_stratification",
    "dualcx.regularity_coregularity",
    "dualcx.build_dual_complex",
    "dualcx.DualComplex.maximal",
)

# Layers whose boolean result is counted (true_ratio, hit_ratio).
BOOLEAN = {"setalg.mem_plus_closure": "true_ratio", "toric.SimplicialCone.contains": "hit_ratio"}
# Layers whose raised exceptions are counted.
COUNT_ERRORS = ("cli.run", "lctsets.lct1_weighted")
COLLECT = "lctsets.LctSet.collect"

NONE, FALSE, TRUE, ERROR = 0, 1, 2, 3


def metric_names() -> list[str]:
    """Every per-layer metric `layer_metrics` reports, in order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
        if layer in BOOLEAN:
            names.append(f"{layer}.{BOOLEAN[layer]}")
        if layer in COUNT_ERRORS:
            names.append(f"{layer}.errors")
        if layer == COLLECT:
            names += [f"{layer}.items_in", f"{layer}.values_out", f"{layer}.kept_ratio"]
    return names + ["trace.overhead_ratio"]


def metric_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s/job"
    if name.endswith("_ratio"):
        return "ratio"
    return "1/job"


class Tracer:
    def __init__(self):
        self.layer_ids = {name: k for k, name in enumerate(LAYERS)}
        self.layer = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.info = array("b")
        self.sizes: dict[int, tuple[int, int]] = {}  # collect span -> (items in, values out)
        self.stack: list[int] = []
        self.job_id = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _enter(self, layer_id: int) -> int:
        idx = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.info.append(NONE)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        layer_id = self.layer_ids[name]
        boolean = name in BOOLEAN
        enter, leave, info = self._enter, self._exit, self.info

        def traced(*args, **kwargs):
            idx = enter(layer_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                info[idx] = ERROR
                raise
            finally:
                leave(idx)
            if boolean:
                info[idx] = TRUE if result else FALSE
            return result

        if name == COLLECT:
            def collect(cls, items):
                items = list(items)
                idx = len(self.layer)
                result = traced(cls, items)
                self.sizes[idx] = (len(items), len(result))
                return result

            return collect
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer in the package's imported modules."""
        modules = {
            name.removeprefix("coregcalc."): mod
            for name, mod in sys.modules.items()
            if name.startswith("coregcalc.") and mod is not None
        }
        for name in LAYERS:
            module, _, attr = name.partition(".")
            owner = modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._replace(cls, meth, new)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapped)

    def _replace(self, owner, key, new) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._undo):
            setattr(owner, key, old)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        n = len(self.layer)
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        return [self.end[k] - self.start[k] - child[k] for k in range(n)]

    def layer_metrics(self, jobs: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics per traced job, named as `metric_names` says."""
        count = {name: 0 for name in LAYERS}
        self_s = {name: 0.0 for name in LAYERS}
        true = {name: 0 for name in LAYERS}
        errors = {name: 0 for name in LAYERS}
        for k, dt in enumerate(self.self_times()):
            name = LAYERS[self.layer[k]]
            count[name] += 1
            self_s[name] += dt
            true[name] += self.info[k] == TRUE
            errors[name] += self.info[k] == ERROR
        items_in = sum(a for a, _ in self.sizes.values())
        values_out = sum(b for _, b in self.sizes.values())
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = count[layer] / jobs
            out[f"{layer}.self_s"] = self_s[layer] / jobs
            if layer in BOOLEAN:
                share = true[layer] / count[layer] if count[layer] else 0.0
                out[f"{layer}.{BOOLEAN[layer]}"] = share
            if layer in COUNT_ERRORS:
                out[f"{layer}.errors"] = errors[layer] / jobs
            if layer == COLLECT:
                out[f"{layer}.items_in"] = items_in / jobs
                out[f"{layer}.values_out"] = values_out / jobs
                out[f"{layer}.kept_ratio"] = values_out / items_in if items_in else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write(self, path: str) -> None:
        """A JSON header line, then one gzipped tab-separated line per span:
        name, start, end, parent (0-based index of the parent span, -1 for
        none) and job id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"columns": ["name", "start_s", "end_s", "parent", "job"]}) + "\n")
            for k in range(len(self.layer)):
                fh.write(f"{LAYERS[self.layer[k]]}\t{self.start[k]:.9f}\t{self.end[k]:.9f}\t"
                         f"{self.parent[k]}\t{self.job[k]}\n")
