"""Layer tracing for the benchmark's traced run.

The layers are rydgate's modules, with ``analysis`` split by the quantity
each function computes. ``Tracer.install`` wraps every public function of a
layer (and every public method of the classes it defines) at each module
attribute that refers to it, so a call is seen whichever module it goes
through: ``sequence_unitary`` imported by name into ``analysis``,
``calibration`` and ``robustness``, or ``sequence_product`` looked up on the
``_kernels`` module. ``statespace`` is not a layer: its helpers (``kron``,
``wrap_angle``) count toward the layer that calls them.

Spans (name, start, end, parent, op id) go into flat in-memory arrays; the
per-layer figures are derived from them after the run. A layer's self time
is its span time minus the time its child spans cover. A layer whose
functions are never called reads 0.
"""

import functools
import sys
import time
import types
from array import array

import numpy as np

LAYERS = (
    "hamiltonians",
    "_kernels",
    "propagation",
    "protocols",
    "analysis.phases",
    "analysis.fidelity",
    "analysis.rydberg_time",
    "analysis.report",
    "calibration",
    "robustness",
    "cli",
)
ANALYSIS_LAYERS = {
    "phases_and_leakage": "analysis.phases",
    "phase_combination": "analysis.phases",
    "controlled_phase": "analysis.phases",
    "fidelity_cphase": "analysis.fidelity",
    "rydberg_time": "analysis.rydberg_time",
}


def _layer_of(module_name, func_name):
    short = module_name.split(".", 1)[1] if "." in module_name else module_name
    if short.startswith("_kernels"):
        return "_kernels"
    if short == "analysis":
        return ANALYSIS_LAYERS.get(func_name, "analysis.report")
    return short if short in LAYERS else None


def _kernel_work(args, kwargs, result):
    """(matrices, bytes) of a kernel call: n x n exponentials requested and
    the bytes of its array arguments and results, computed from array sizes."""
    arrays = [a for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]
    results = result if isinstance(result, tuple) else (result,)
    arrays += [r for r in results if isinstance(r, np.ndarray)]
    stacks = [a for a in arrays if a.ndim >= 2 and a.shape[-1] == a.shape[-2]]
    matrices = int(np.prod(stacks[0].shape[:-2])) if stacks else 0
    return matrices, sum(a.nbytes for a in arrays)


HOOKS = {
    "_kernels": _kernel_work,
    "sequence_unitary": lambda args, kwargs, result: (len(args[0].segments), 0),
    "segment_unitary": lambda args, kwargs, result: (1, 0),
    "monte_carlo_fidelity": lambda args, kwargs, result: (getattr(result, "n_samples", 0), 0),
}
#: Names of the (count, bytes) that HOOKS record, per layer.
WORK_METRICS = {
    "_kernels": ("_kernels.matrices", "_kernels.bytes_computed"),
    "propagation": ("propagation.segments", None),
    "robustness": ("robustness.samples", None),
}


class Tracer:
    """Records spans of calls into rydgate's layers while installed."""

    def __init__(self):
        self.names = []  # (layer, function name) per name id
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.error = array("b")
        self.work = {}  # span index -> (count, bytes) from HOOKS
        self.stack = [-1]
        self.op_id = -1
        self._undo = []

    def _wrap(self, fn, layer, func_name):
        name_id = len(self.names)
        self.names.append((layer, func_name))
        hook = HOOKS.get(layer) or HOOKS.get(func_name)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.parent.append(tracer.stack[-1])
            tracer.name.append(name_id)
            tracer.op.append(tracer.op_id)
            tracer.error.append(0)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.error[idx] = 1
                raise
            finally:
                tracer.end[idx] = perf()
                tracer.start[idx] = t0
                tracer.stack.pop()
            if hook is not None:
                tracer.work[idx] = hook(args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap the layers of ``package`` (an imported module) in place."""
        prefix = package.__name__ + "."
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package.__name__ or n.startswith(prefix))
        ]
        targets = {}
        for mod in modules:
            for attr, value in vars(mod).items():
                if attr.startswith("_"):
                    continue
                owner = getattr(value, "__module__", None) or ""
                if not owner.startswith(prefix):
                    continue
                layer = _layer_of(owner, attr)
                if layer is None:
                    continue
                if isinstance(value, type):
                    if owner == mod.__name__:
                        self._wrap_methods(value, layer)
                elif callable(value) and not isinstance(value, types.ModuleType):
                    targets.setdefault(id(value), (value, layer, value.__name__))
        wrappers = {key: self._wrap(*spec) for key, spec in targets.items()}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and targets[id(value)][0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _wrap_methods(self, cls, layer):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qual = f"{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                wrapped = type(value)(self._wrap(value.__func__, layer, qual))
            elif isinstance(value, types.FunctionType):
                wrapped = self._wrap(value, layer, qual)
            else:
                continue
            self._undo.append((cls, attr, value))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def arrays(self):
        names = np.array([f"{layer}:{fn}" for layer, fn in self.names])
        return {
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "name": np.array(self.name, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "error": np.array(self.error, dtype=np.int8),
            "names": names,
        }

    def save(self, path):
        np.savez(path, **self.arrays())

    def layer_metrics(self, n_ops):
        """Per-op calls, self and total time, and run totals of errors, per layer.

        A call is a span entering the layer from outside it, so a layer's
        internal calls (``sequence_product`` calling ``expm_hermitian``) do
        not count twice. Total time is the time inside those calls, children
        included. Spans outside an op (set-up) are left out.
        """
        a = self.arrays()
        n = len(a["start"])
        parent, op = a["parent"], a["op"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - covered
        span_layer = np.array([LAYERS.index(layer) for layer, _ in self.names], dtype=np.int64)
        layer = span_layer[a["name"]]
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        in_op = op >= 0
        entry = in_op & (layer != parent_layer)
        count = np.zeros(n)
        nbytes = np.zeros(n)
        for idx, (c, b) in self.work.items():
            count[idx], nbytes[idx] = c, b
        per_op = 1.0 / max(n_ops, 1)
        out = {}
        for k, name in enumerate(LAYERS):
            mine = layer == k
            out[f"{name}.calls"] = int(np.sum(entry & mine)) * per_op
            out[f"{name}.self_s"] = float(np.sum(self_time[in_op & mine])) * per_op
            out[f"{name}.total_s"] = float(np.sum(dur[entry & mine])) * per_op
            out[f"{name}.errors"] = int(np.sum(entry & mine & (a["error"] == 1)))
            for metric, values in zip(WORK_METRICS.get(name, ()), (count, nbytes)):
                if metric:
                    out[metric] = float(np.sum(values[entry & mine])) * per_op
        fn = np.array([fn for _, fn in self.names] or [""])[a["name"]]
        under = self._descends_from(parent, fn == "calibrate_kappa")
        solves = int(np.sum(in_op & (fn == "calibrate_kappa")))
        propagations = int(np.sum(entry & under & (layer == LAYERS.index("propagation"))))
        out["calibration.solves"] = solves * per_op
        out["calibration.propagations_per_solve"] = propagations / solves if solves else 0.0
        return out

    @staticmethod
    def _descends_from(parent, is_root):
        """Mask of spans with an ancestor in ``is_root``, one level per pass."""
        under = np.zeros(len(parent), dtype=bool)
        cur = parent.copy()
        while np.any(cur >= 0):
            valid = cur >= 0
            under |= valid & is_root[np.maximum(cur, 0)]
            cur = np.where(valid, parent[np.maximum(cur, 0)], -1)
        return under


def import_times(stderr):
    """Seconds by group from ``python -X importtime -c 'import rydgate'`` output."""
    total = scipy = numpy = own = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the column header
        module = fields[2].strip()
        root = module.split(".")[0]
        if module == "rydgate":
            total = cumulative_us * 1e-6
        if root == "scipy":
            scipy += self_us * 1e-6
        elif root == "numpy":
            numpy += self_us * 1e-6
        elif root == "rydgate":
            own += self_us * 1e-6
    return {
        "import.total_s": total,
        "import.scipy_s": scipy,
        "import.numpy_s": numpy,
        "import.rydgate_self_s": own,
    }
