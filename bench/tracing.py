"""Span tracing of dcoh from outside the package.

``Tracer.install`` wraps every public function of each dcoh module and
``numpy.linalg.{eigh,eigvalsh,pinv}``, then rebinds every module-level
name that refers to one of them. That reaches ``from .hypotest import
dh_epsilon`` copies in ``rates`` and ``cli`` as well as the defining
module. References stored inside containers, default arguments or
closures cannot be rebound; ``install`` lists them in ``unreachable``.

Each span records its name, start, end, parent span and the benchmark
instance (request) it belongs to. Spans are kept in flat arrays in memory
and written once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

NUMPY_FUNCS = ("eigh", "eigvalsh", "pinv")
SOLVERS = ("hypotest.dh_epsilon", "hypotest.distill_fidelity_program")
BRACKET = "rates.dilute_one_shot_bounds"
ORACLE = "oracle.rho_dio_feasible"
LAYERS = ("rates", "hypotest", "linalg", "oracle", "monotones", "channels",
          "states", "majorization", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._request = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self.unreachable: list[str] = []
        # counters fed by the return values of selected calls
        self.max_abs_gap = 0.0
        self.brackets = 0
        self.width_sum = 0.0
        self.iterations = 0
        self.verdicts: dict[str, int] = {}
        self.monotone_certified = 0
        self.exit3 = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self._request)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def instance(self, fn):
        """Run one benchmark instance as the root span of a new request."""
        self._request = len(self.start)
        sid = self._open(self._id("bench.instance"))
        try:
            return fn()
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        observe = self._observers().get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if observe is not None:
                observe(out)
            return out

        return traced

    def _observers(self):
        def gap(res):
            self.max_abs_gap = max(self.max_abs_gap, abs(float(res.gap)))

        def bracket(res):
            lo, hi = res
            if lo.eps > 0.0:
                self.brackets += 1
                self.width_sum += hi.raw_value - lo.raw_value

        def verdict(res):
            self.iterations += int(res.iterations)
            self.verdicts[res.status] = self.verdicts.get(res.status, 0) + 1
            self.monotone_certified += res.certificate is not None

        def exit_code(code):
            self.exit3 += code == 3

        return {SOLVERS[0]: gap, SOLVERS[1]: gap, BRACKET: bracket,
                ORACLE: verdict, "cli.main": exit_code}

    def install(self, modules) -> None:
        """Wrap the public functions of ``modules`` (dcoh and its submodules).

        The wrappers are built on the first call; later calls re-apply them.
        """
        if not self._patches:
            self._patches = self._plan(modules)
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _plan(self, modules):
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for attr in NUMPY_FUNCS:
            obj = getattr(np.linalg, attr)
            wrapped[id(obj)] = (obj, self._wrap(f"numpy.{attr}", obj))
        self.unreachable = _unreachable(modules, wrapped)
        patches = []
        for owner in [*modules, np.linalg]:
            for attr, obj in vars(owner).items():
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((owner, attr, obj, hit[1]))
        return patches

    # --- analysis ----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 request=np.frombuffer(self.request, dtype=np.int32),
                 start=start, end=end)

    def _nearest(self, targets) -> np.ndarray:
        """Index of the nearest span at or above each span whose name is in targets."""
        ids = {self._ids[t] for t in targets if t in self._ids}
        out = array("i", bytes(4 * len(self.start)))
        name, parent = self.name, self.parent
        for i in range(len(out)):
            if name[i] in ids:
                out[i] = i
            else:
                p = parent[i]
                out[i] = out[p] if p >= 0 else -1
        return np.frombuffer(out, dtype=np.int32)

    def layer_metrics(self, rounds: int, time_scale: float) -> dict[str, float]:
        """Per-layer metrics per round (one pass over the instance list).

        Span times are multiplied by ``time_scale``, the runner's factor to
        the reference machine speed.
        """
        name, parent, start, end = self.arrays()
        dur = (end - start) * time_scale
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur))
        self_time = dur - child
        layer_of = [n.partition(".")[0] for n in self.names]
        layer = np.array([LAYERS.index(x) if x in LAYERS else -1 for x in layer_of] or [-1])[name]

        def is_(n):
            return name == self._ids.get(n, -1)

        def per(x):
            return x / rounds

        m: dict[str, float] = {}
        for i, lay in enumerate(LAYERS):
            m[f"{lay}.calls"] = per(int(np.sum(layer == i)))
            m[f"{lay}.self_s"] = per(float(np.sum(self_time[layer == i])))
        eig = is_("numpy.eigh") | is_("numpy.eigvalsh")
        pinv = is_("numpy.pinv")
        m["numpy.eigh.calls"] = per(int(np.sum(is_("numpy.eigh"))))
        m["numpy.eigvalsh.calls"] = per(int(np.sum(is_("numpy.eigvalsh"))))
        m["numpy.eig_s"] = per(float(np.sum(dur[eig])))
        m["numpy.pinv.calls"] = per(int(np.sum(pinv)))
        m["numpy.pinv_s"] = per(float(np.sum(dur[pinv])))

        solves = int(np.sum(is_(SOLVERS[0]) | is_(SOLVERS[1])))
        in_solve = self._nearest(SOLVERS) >= 0
        m["hypotest.solves"] = per(solves)
        m["hypotest.eigh_per_solve"] = float(np.sum(eig & in_solve)) / solves if solves else 0.0
        m["hypotest.max_abs_gap"] = self.max_abs_gap

        in_bracket = self._nearest([BRACKET]) >= 0
        n_br = self.brackets
        m["rates.fidelity_per_bracket"] = (
            float(np.sum(is_("linalg.fidelity") & in_bracket)) / n_br if n_br else 0.0)
        m["rates.dh_solves_per_bracket"] = (
            float(np.sum(is_(SOLVERS[0]) & in_bracket)) / n_br if n_br else 0.0)
        m["rates.bracket_width_bits"] = self.width_sum / n_br if n_br else 0.0
        m["linalg.fidelity.calls"] = per(int(np.sum(is_("linalg.fidelity"))))

        oracle_s = float(np.sum(dur[is_(ORACLE)]))
        pinv_in_oracle = float(np.sum(dur[pinv & (self._nearest([ORACLE]) >= 0)]))
        m["oracle.iterations_total"] = per(self.iterations)
        m["oracle.s_per_iteration"] = (
            (oracle_s - pinv_in_oracle) / self.iterations if self.iterations else 0.0)
        m["oracle.monotone_certified"] = per(self.monotone_certified)
        for status in ("feasible", "infeasible-certified", "undetermined"):
            m[f"oracle.{status}"] = per(self.verdicts.get(status, 0))
        m["cli.exit3"] = per(self.exit3)
        return m


def _unreachable(modules, wrapped) -> list[str]:
    """Places holding a wrapped function that rebinding module names cannot reach."""
    def label(fn):
        return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"

    def scan(obj, where, depth=0):
        hit = wrapped.get(id(obj))
        if hit is not None and hit[0] is obj:
            found.append(f"{where} holds {label(obj)}")
        elif depth < 2 and isinstance(obj, (list, tuple, set, frozenset)):
            for i, item in enumerate(obj):
                scan(item, f"{where}[{i}]", depth + 1)
        elif depth < 2 and isinstance(obj, dict):
            for key, item in obj.items():
                scan(item, f"{where}[{key!r}]", depth + 1)

    found: list[str] = []
    for mod in modules:
        for attr, obj in vars(mod).items():
            if isinstance(obj, (list, tuple, set, frozenset, dict)):
                scan(obj, f"{mod.__name__}.{attr}")
            elif inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                where = f"{mod.__name__}.{attr}"
                for value in (obj.__defaults__ or ()):
                    scan(value, f"{where} default")
                for value in (obj.__kwdefaults__ or {}).values():
                    scan(value, f"{where} default")
                for cell in (obj.__closure__ or ()):
                    try:
                        scan(cell.cell_contents, f"{where} closure")
                    except ValueError:  # empty cell
                        pass
    return found
