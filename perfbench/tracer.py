"""Per-layer tracing from outside the program.

The package binds many functions by direct import (`from .linear import
fit_quantile` in `composite`, `from .models import fit_model` in
`evaluation`), so replacing a function only in its defining module records
nothing. `Tracer.install` replaces every module attribute of the `partqr`
package that refers to a traced function, then checks that none still refers
to the original. Methods are replaced on their class.

Each call is a span: its inclusive time goes to the function's `s`, the time
not covered by traced child calls goes to its `self_s`, and the span's
duration is charged to its parent as child time. Only per-function totals are
kept, so memory stays flat however many calls a run makes.
"""

from __future__ import annotations

import hashlib
import inspect
import statistics
import sys
import time

import numpy as np

PACKAGE = "partqr"


def _digest(value) -> object:
    """Cheap identity of one argument for distinct-input counting."""
    values = getattr(value, "values", None)
    if isinstance(values, np.ndarray):  # EncodedMatrix
        value = values
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        return (arr.shape, hashlib.blake2b(arr.tobytes(), digest_size=16).digest())
    if isinstance(value, (int, float, str, type(None))):
        return value
    return hash(value)  # frozen dataclasses such as Dataset and CategoricalEncoding


def _arg_key(fn, names):
    """Key function over the named arguments of `fn`."""
    sig = inspect.signature(fn)

    def key(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple(_digest(bound.arguments[n]) for n in names)

    return key


def _rows_arg(args, kwargs):
    rows = kwargs["rows"] if "rows" in kwargs else args[1]
    return len(rows)


# (module, function or Class.method, argument names whose distinct values are
# counted, whether the call's second argument is a batch of rows)
TARGETS = (
    ("cli", "cmd_train", None, False),
    ("cli", "cmd_predict", None, False),
    ("data", "read_csv", None, False),
    ("data", "dataset_from_csv", None, False),
    ("data", "encode", ("dataset", "encoding"), False),
    ("data", "encode_row", None, False),
    ("pipeline", "fit_imputer", None, False),
    ("pipeline", "prune_tail", None, False),
    ("partition", "build_cart", ("X", "y", "max_depth", "min_samples_split", "min_samples_leaf"), False),
    ("partition", "route", None, False),
    ("partition", "fit_kmeans", None, False),
    ("partition", "assign_cluster", None, False),
    ("partition", "knn_query", None, False),
    ("linear", "fit_quantile", ("X", "y", "alpha", "lam"), False),
    ("linear", "fit_ridge", None, False),
    ("linear", "predict_linear", None, False),
    ("composite", "fit_composite", None, False),
    ("composite", "predict_quantile", None, False),
    ("baselines", "fit_rf", None, False),
    ("baselines", "fit_gb", None, False),
    ("baselines", "predict_rf", None, False),
    ("baselines", "predict_gb", None, False),
    ("baselines", "qrf_predict", None, False),
    ("models", "fit_model", None, False),
    ("models", "CompositeFit.predict_point", None, True),
    ("models", "CompositeFit.predict_intervals", None, True),
    ("models", "BaselineFit.predict_point", None, True),
    ("models", "BaselineFit.predict_intervals", None, True),
    ("evaluation", "grid_search", None, False),
    ("evaluation", "cross_validate", None, False),
    ("serialize", "save_model", None, False),
    ("serialize", "load_model", None, False),
)

# functions whose per-call durations are kept for a median
PER_CALL_MEDIAN = ("evaluation.cross_validate",)


class _Stat:
    def __init__(self, keyed: bool, per_call: bool, batched: bool):
        self.batched = batched
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.rows = 0
        self.keys = set() if keyed else None
        self.durations = [] if per_call else None


class Tracer:
    """Wraps the package's public functions at every binding site."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, label, fn, key_args, batched):
        stat = _Stat(bool(key_args), label in PER_CALL_MEDIAN, batched)
        self.stats[label] = stat
        key = _arg_key(fn, key_args) if key_args else None
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stat.calls += 1
            if key is not None:
                stat.keys.add(key(args, kwargs))
            if batched:
                stat.rows += _rows_arg(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.s += elapsed
                stat.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if stat.durations is not None:
                    stat.durations.append(elapsed)

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value, original):
        setattr(owner, attr, value)
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module_name, qualname, key_args, batched in TARGETS:
            label = f"{module_name}.{qualname}"
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(label, original, key_args, batched), original)
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(label, original, key_args, batched)
            sites = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper, original)
                        sites += 1
            if sites == 0:
                raise RuntimeError(f"{label}: no binding site found")
        self._verify_installed(modules)

    def _verify_installed(self, modules) -> None:
        originals = {id(orig) for _, _, orig in self._restore}
        for mod in modules:
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    raise RuntimeError(f"{mod.__name__}.{attr} still binds an untraced function")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for label, st in self.stats.items():
            out[f"{label}.calls"] = st.calls
            out[f"{label}.s"] = st.s
            out[f"{label}.self_s"] = st.self_s
            if st.keys is not None:
                out[f"{label}.distinct_ratio"] = len(st.keys) / st.calls if st.calls else 0.0
            if st.batched:
                out[f"{label}.rows_per_s"] = st.rows / st.s if st.s else 0.0
            if st.durations is not None:
                out[f"{label}.p50_s"] = statistics.median(st.durations) if st.durations else 0.0
        return out

    def counts(self) -> dict[str, float]:
        """The metrics that must repeat exactly between runs of one seed."""
        return {
            name: value
            for name, value in self.metrics().items()
            if name.endswith((".calls", ".distinct_ratio"))
        }
