"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: each public function
of a layer is replaced, for the duration of a traced run, by a wrapper
that records a span around the call.  ``from .elliptic import
poisson_solve`` copies the function into the importing module, so a
function is wrapped at every binding of it in every loaded ``lsqctrl``
module; calls made through any copy are seen.  Nothing in the package
is edited, and the originals are put back when the run ends, so the
untraced runs of the same process are never wrapped.

A span holds its layer, start, end, parent span and run id.  Spans stay
in flat arrays while the run goes and are written out at the end.  The
self time of a span is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

import array
import contextlib
import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (layer, module, attribute or Class.method, work counter or None).
# Several functions may share one layer name; their spans are summed.
ASSEMBLY = ("laplace", "grad_pressure", "grad_pressure_transpose", "div", "grad", "dx", "dy")
REDUCE = ("st_inner", "st_h1_seminorm_sq", "st_h1_pairing", "dt_sq_integral",
          "space_inner", "h1_seminorm_sq")

# The descent loops: their spans are the roots that trace.coverage is
# measured against.
ROOT_LAYERS = ("stokes_control.descend", "steady_nse.descend_steady")


def _dst_flops(n):
    """Estimated flops of one length-n DST-I, done as a real FFT of 2(n+1)."""
    m = 2 * (n + 1)
    return 2.5 * m * math.log2(m)


def _sine_work(args, kwargs, out):
    a = args[0]
    ny, nx = a.shape[-2:]
    return {
        "elements": a.size,
        # one read of the input and one write of the output
        "bytes_computed": a.nbytes + out.nbytes,
        "flops_computed": a.size // nx * _dst_flops(nx) + a.size // ny * _dst_flops(ny),
    }


def _time_modes_work(args, kwargs, out):
    basis, x = args[0], args[1]
    levels, modes = basis.Z.shape
    return {
        "elements": x.size,
        "bytes_computed": basis.Z.nbytes + x.nbytes + out.nbytes,
        # a dense (levels x modes) matrix applied to every spatial column
        "flops_computed": 2 * levels * modes * (x.size // x.shape[0]),
    }


def _energy_work(args, kwargs, out):
    # a call without a corrector is an Armijo trial evaluation
    v = args[2] if len(args) > 2 else kwargs.get("v")
    return {"trials": int(v is None)}


EL = "lsqctrl.discretization.elliptic"
ST = "lsqctrl.discretization.stencils"
SPEC = (
    ("elliptic.sine_transform", EL, "sine_transform", _sine_work),
    ("elliptic.time_modes", EL, "TimeBasis.to_modes", _time_modes_work),
    ("elliptic.time_modes", EL, "TimeBasis.from_modes", _time_modes_work),
    ("elliptic.spacetime_solve_weak", EL, "spacetime_solve_weak", None),
    ("elliptic.poisson_solve", EL, "poisson_solve", None),
    ("a0.a0_velocity_riesz", "lsqctrl.discretization.a0", "a0_velocity_riesz", None),
    *(("stencils.assembly", ST, name, None) for name in ASSEMBLY),
    *(("stencils.reduce", ST, name, None) for name in REDUCE),
    ("stokes_control.corrector", "lsqctrl.stokes_control", "corrector", None),
    ("stokes_control.gradient_a0", "lsqctrl.stokes_control", "gradient_a0", None),
    ("stokes_control.descend", "lsqctrl.stokes_control", "descend", None),
    ("steady_nse.corrector_steady", "lsqctrl.steady_nse", "corrector_steady", None),
    ("steady_nse.energy_steady", "lsqctrl.steady_nse", "energy_steady", _energy_work),
    ("steady_nse.gradient_steady", "lsqctrl.steady_nse", "gradient_steady", None),
    ("steady_nse.forcing_dual_norm", "lsqctrl.steady_nse",
     "SteadyProblem.forcing_dual_norm", None),
    ("steady_nse.descend_steady", "lsqctrl.steady_nse", "descend_steady", None),
    ("cli.parse_config", "lsqctrl.cli", "parse_config", None),
    ("cli.write_vtk_slice", "lsqctrl.cli", "write_vtk_slice", None),
    ("cli.write_raw", "lsqctrl.cli", "write_raw", None),
    ("oracles.manufactured", "lsqctrl.oracles", "manufactured_stokes", None),
    ("oracles.manufactured", "lsqctrl.oracles", "manufactured_steady", None),
)
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in SPEC))


class Tracer:
    """Records spans of the calls into the layers listed in SPEC."""

    def __init__(self):
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.layer = array.array("i")
        self.parent = array.array("i")
        self.run = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters = defaultdict(float)  # (run, "layer.key") -> total
        self.run_id = 0
        self._stack = []

    def _wrap(self, fn, layer, work):
        lid = self.layer_ids[layer]
        layers, parents, runs = self.layer, self.parent, self.run
        starts, ends, stack, counters = self.start, self.end, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(layers)
            layers.append(lid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if work is not None:
                for key, val in work(args, kwargs, out).items():
                    counters[self.run_id, f"{layer}.{key}"] += val
            return out

        return traced

    @contextlib.contextmanager
    def active(self, run_id):
        """Wrap every SPEC function at every binding for the block."""
        self.run_id = run_id
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "lsqctrl" or name.startswith("lsqctrl."))]
        undo = []
        try:
            for layer, modname, attr, work in SPEC:
                owner = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    undo.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(original, layer, work))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(original, layer, work)
                for mod in modules:
                    for name, val in list(vars(mod).items()):
                        if val is original:
                            undo.append((mod, name, original))
                            setattr(mod, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def _arrays(self):
        return tuple(np.asarray(a) for a in (self.layer, self.parent, self.run,
                                             self.start, self.end))

    def layer_stats(self, run_id):
        """Per-layer calls, total and self seconds of one run, plus the
        work counters and the share of root-span time covered by children."""
        layer, parent, run, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        mine = run == run_id
        stats = {}
        for name, lid in self.layer_ids.items():
            sel = mine & (layer == lid)
            stats[f"{name}.calls"] = int(sel.sum())
            stats[f"{name}.total_s"] = float(dur[sel].sum())
            stats[f"{name}.self_s"] = float((dur[sel] - child[sel]).sum())
        for (rid, key), val in self.counters.items():
            if rid == run_id:
                stats[key] = val
        roots = mine & ~has_parent & np.isin(layer, [self.layer_ids[n] for n in ROOT_LAYERS])
        root_s = float(dur[roots].sum())
        stats["trace.root_s"] = root_s
        stats["trace.coverage"] = float(child[roots].sum()) / root_s if root_s else 0.0
        return stats

    def write(self, path):
        """Write every span as CSV: id, run, layer, parent, start, end (s)."""
        layer, parent, run, start, end = self._arrays()
        t0 = float(start.min()) if len(start) else 0.0
        lines = ["span,run,layer,parent,start_s,end_s"]
        lines += [f"{i},{r},{LAYERS[lid]},{p},{s - t0:.9f},{e - t0:.9f}"
                  for i, (r, lid, p, s, e) in enumerate(zip(run.tolist(), layer.tolist(),
                                                             parent.tolist(), start.tolist(),
                                                             end.tolist()))]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
