"""Layer timing from outside the library: wrappers, spans and call counters.

The traced run installs wrappers around the public entry points of every
framelab layer, swaps the ``json`` module seen by ``framelab.cli`` for a timing
proxy and patches ``numpy.linalg`` to count direct calls by calling module.
No library file changes; :meth:`Tracer.installed` restores every original on
exit.  Each wrapped call records one span (bucket, start, end, parent) in
memory; a layer's self time is its spans' durations minus their children's.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
import types
from dataclasses import dataclass

import numpy as np

# Public entry points per module, grouped into the metric bucket they feed.
# "Class.attr" entries patch the class, so every namespace sees them.  Names a
# later version of the library no longer defines are skipped.  Per-row codecs
# (Node, Atom, Segment, Density) stay unwrapped: their time lands in the
# container codec that calls them, which keeps tracing overhead off the decode.
ENTRY_POINTS = {
    "framelab.gallery": {
        "gallery.build": [
            "build", "build_torus", "build_affine", "build_delta", "build_doubled_onb",
            "build_augmented_onb", "build_mercedes", "build_random",
            "truncation_sequence", "affine_radial_space", "affine_symbol",
            "frequency_enumeration",
        ],
    },
    "framelab.measure": {
        "measure.discretize": [
            "discretize", "counting_space", "unit_segment_space", "weighted_space",
            "sierpinski_subset", "decompose", "classify",
        ],
        "measure.weights": ["DiscretizedSpace.weights"],
        "measure.codec": [
            "DiscretizedSpace.from_json", "DiscretizedSpace.to_json",
            "MeasureSpace.from_json", "MeasureSpace.to_json",
        ],
    },
    "framelab.numerics": {
        "numerics.eig": ["hermitian_eig"],
        "numerics.svd": [
            "svd", "singular_values", "rank", "nullity", "condition_number",
            "operator_norm",
        ],
        "numerics.pinv": ["pinv"],
    },
    "framelab.frames": {
        "frames.operator": ["frame_operator", "analysis", "synthesis", "analysis_matrix"],
        "frames.bounds": ["frame_bounds", "semiframe_trend", "classify_trend"],
        "frames.split": ["split"],
        "frames.dual_kernel": ["canonical_dual", "kernel_matrix", "kernel_project"],
        "frames.codec": [
            "VectorFamily.from_json", "VectorFamily.to_json", "VectorFamily.profile_rows",
        ],
    },
    "framelab.pairs": {
        "pairs.resolution": ["resolution_operator"],
        "pairs.verdict": [
            "pair_verdict", "frame_transfer", "extended_synthesis", "pair_redundancy",
            "bessel_bound", "induced_inner",
        ],
        "pairs.partner": [
            "reproducing_partner", "lower_semiframe_dual", "partner_pointwise_sums",
        ],
        "pairs.kernel": ["range_kernel", "induced_kernel", "coefficient_geometry"],
    },
    "framelab.rkhs": {
        "rkhs.table": [
            "KernelTable.__post_init__", "KernelTable.apply", "KernelTable.diagonal",
            "KernelTable.section", "KernelTable.is_hermitian", "kernel_from_onb",
        ],
        "rkhs.span": [
            "kernel_of_span", "mu_orthonormal_basis", "function_matrix",
            "span_pair_operator", "kernel_from_pair", "kernel_from_pair_report",
            "bessel_pointwise_check", "point_evaluation_bounds",
        ],
        "rkhs.blowup": ["blowup_experiment", "step_basis"],
        "rkhs.export": ["KernelTable.to_json", "KernelTable.csv_rows"],
    },
    "framelab.cli": {
        "cli.main": ["main"],
    },
}

# numpy.linalg functions counted by calling module.
LINALG_COUNTED = (
    "svd", "eigh", "eig", "eigvalsh", "eigvals", "solve", "inv", "pinv", "lstsq",
    "qr", "cholesky", "det", "slogdet", "matrix_rank", "norm",
)
EIG_FUNCTIONS = ("eigh", "eig", "eigvalsh", "eigvals")

# Time buckets reported as "<bucket>_s"; every wrapped bucket appears here.
TIME_BUCKETS = tuple(
    bucket for groups in ENTRY_POINTS.values() for bucket in groups
) + ("cli.decode", "cli.encode")


@dataclass
class Span:
    bucket: str
    start: int
    end: int
    parent: int | None


class Tracer:
    """In-memory span recorder plus the counters the layer metrics need."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        # wrappers record only while active, so checks between operations stay out
        self.active = False

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self.counts = {}

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _parent_bucket(self) -> str | None:
        return self.spans[self._stack[-1]].bucket if self._stack else None

    @contextlib.contextmanager
    def span(self, bucket: str):
        index = len(self.spans)
        span = Span(bucket, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per bucket: span time minus child span time."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        totals: dict[str, float] = {}
        for span, ns in zip(self.spans, own):
            if ns < -1000:
                raise RuntimeError(f"span {span.bucket} has negative self time {ns} ns")
            totals[span.bucket] = totals.get(span.bucket, 0.0) + ns / 1e9
        return totals

    def root_seconds(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None) / 1e9

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, bucket: str, module: str):
        tracer = self
        layer = module.rsplit(".", 1)[-1]
        is_generator = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._parent_bucket()
            outer = parent is None or parent.split(".")[0] != layer
            with tracer.span(bucket):
                if outer:
                    tracer.count(f"{layer}.outer_calls")
                    if layer == "numerics":
                        tracer.count(
                            "numerics.bytes_in",
                            sum(16 * a.size for a in args if isinstance(a, np.ndarray)),
                        )
                tracer.count(f"{bucket}.calls")
                result = fn(*args, **kwargs)
                if is_generator:
                    # materialize inside the span so row production is timed here
                    # and the consumer's time stays with the caller
                    result = iter(list(result))
                if bucket == "rkhs.table" and fn.__name__ == "__post_init__":
                    size = args[0].size
                    tracer.count("rkhs.tables")
                    tracer.count("rkhs.table_bytes", 16 * size * size)
                return result

        return wrapper

    def _patch(self, owner, name: str, value) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._restore.append((owner, name, original))
        setattr(owner, name, value)

    def _install_entry_points(self) -> None:
        modules = {n: m for n, m in sys.modules.items() if n == "framelab" or n.startswith("framelab.")}
        for module_name, groups in ENTRY_POINTS.items():
            module = modules.get(module_name)
            if module is None:
                continue
            for bucket, names in groups.items():
                for name in names:
                    if "." in name:
                        self._wrap_member(module, name, bucket, module_name)
                    else:
                        fn = module.__dict__.get(name)
                        if not isinstance(fn, types.FunctionType):
                            continue
                        wrapper = self._wrap(fn, bucket, module_name)
                        # rebind in every namespace that imported the function by name
                        for other in modules.values():
                            for attr, value in list(vars(other).items()):
                                if value is fn:
                                    self._patch(other, attr, wrapper)

    def _wrap_member(self, module, dotted: str, bucket: str, module_name: str) -> None:
        class_name, attr = dotted.split(".")
        cls = module.__dict__.get(class_name)
        if not isinstance(cls, type) or attr not in cls.__dict__:
            return
        raw = cls.__dict__[attr]
        if isinstance(raw, property):
            new = property(self._wrap(raw.fget, bucket, module_name))
        elif isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, bucket, module_name))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(raw.__func__, bucket, module_name))
        elif isinstance(raw, types.FunctionType):
            new = self._wrap(raw, bucket, module_name)
        else:
            return
        self._patch(cls, attr, new)

    def _install_json_proxy(self) -> None:
        cli = sys.modules.get("framelab.cli")
        if cli is None or not hasattr(cli, "json"):
            return
        real = cli.json
        tracer = self

        def load(fp, *args, **kwargs):
            with tracer.span("cli.decode"):
                with contextlib.suppress(OSError, AttributeError, ValueError):
                    tracer.count("cli.bytes_in", os.fstat(fp.fileno()).st_size)
                return real.load(fp, *args, **kwargs)

        def loads(s, *args, **kwargs):
            with tracer.span("cli.decode"):
                tracer.count("cli.bytes_in", len(s))
                return real.loads(s, *args, **kwargs)

        def dumps(obj, *args, **kwargs):
            with tracer.span("cli.encode"):
                return real.dumps(obj, *args, **kwargs)

        def dump(obj, fp, *args, **kwargs):
            with tracer.span("cli.encode"):
                return real.dump(obj, fp, *args, **kwargs)

        proxy = types.SimpleNamespace(
            load=load, loads=loads, dumps=dumps, dump=dump,
            JSONDecodeError=real.JSONDecodeError,
        )
        self._patch(cli, "json", proxy)

    def _install_linalg_counters(self) -> None:
        tracer = self
        for name in LINALG_COUNTED:
            real = getattr(np.linalg, name, None)
            if real is None:
                continue

            def counted(*args, _real=real, _name=name, **kwargs):
                caller = sys._getframe(1).f_globals.get("__name__", "") if tracer.active else ""
                if caller.startswith("framelab."):
                    layer = caller.rsplit(".", 1)[-1]
                    tracer.count(f"{layer}.linalg_calls")
                    if layer == "numerics":
                        kind = "eig" if _name in EIG_FUNCTIONS else _name
                        tracer.count(f"numerics.{kind}_factorizations")
                return _real(*args, **kwargs)

            self._patch(np.linalg, name, functools.wraps(real)(counted))

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        try:
            self._install_entry_points()
            self._install_json_proxy()
            self._install_linalg_counters()
            yield self
        finally:
            while self._restore:
                owner, name, value = self._restore.pop()
                setattr(owner, name, value)


def layer_metrics(self_times: dict[str, float], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metric values of one traced pass, keyed by metric name."""
    out = {f"{bucket}_s": self_times.get(bucket, 0.0) for bucket in TIME_BUCKETS}
    out.update(
        {
            "gallery.calls": counts.get("gallery.outer_calls", 0),
            "measure.weights_calls": counts.get("measure.weights.calls", 0),
            "numerics.eig_calls": counts.get("numerics.eig_factorizations", 0),
            "numerics.svd_calls": counts.get("numerics.svd_factorizations", 0),
            "numerics.pinv_calls": counts.get("numerics.pinv.calls", 0),
            "numerics.bytes_in": counts.get("numerics.bytes_in", 0),
            "pairs.resolution_calls": counts.get("pairs.resolution.calls", 0),
            "rkhs.tables": counts.get("rkhs.tables", 0),
            "rkhs.table_bytes": counts.get("rkhs.table_bytes", 0),
            "frames.linalg_calls": counts.get("frames.linalg_calls", 0),
            "pairs.linalg_calls": counts.get("pairs.linalg_calls", 0),
            "rkhs.linalg_calls": counts.get("rkhs.linalg_calls", 0),
            "cli.bytes_in": counts.get("cli.bytes_in", 0),
        }
    )
    return out
