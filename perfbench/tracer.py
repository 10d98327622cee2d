"""Per-layer tracing of hsagg from outside the program.

Each traced function is wrapped and the wrapper is bound in place of the
original everywhere the program can reach it: as an attribute of every
``hsagg`` module that holds the function (``leakage`` imports several
protocol roles by name, ``protocol`` imports ``is_prime``), and on the
class for methods.  Nothing under ``src/`` changes.

A wrapper opens a span when the call starts and closes it when the call
returns or raises.  Spans are folded into per-function accumulators as
they close (calls, self time) instead of being kept one by one: the
verify campaign closes about 5.5 million spans, several hundred
megabytes if each were kept.  Self time is a span's duration minus the
time its wrapped child spans cover.  A generator function's span is
each resumption, so its self time covers the work of producing items,
not the consumer's.  Spans use the wall clock: reading CPU time costs a
system call, which millions of spans would turn into real overhead.
"""

import importlib
import inspect
import sys
import time

# module -> (metric name, attribute path inside hsagg.<module>)
LAYERS = {
    "field": (
        ("is_prime", "is_prime"),
        ("inv", "PrimeField.inv"),
    ),
    "matrix": (
        ("matmul", "GfMatrix.__matmul__"),
        ("inv", "GfMatrix.inv"),
        ("construct", "GfMatrix.__init__"),
        ("rowspace_insert", "RowSpace.insert"),
        ("rowspace_clone", "RowSpace.clone"),
    ),
    "patterns": (
        ("enumerate_patterns", "enumerate_patterns"),
        ("enumerate_survivors", "enumerate_survivors"),
        ("validate", "validate"),
        ("format_pattern", "format_pattern"),
        ("users_of", "CommPattern.users_of"),
    ),
    "protocol": (
        ("setup", "setup"),
        ("dealer_generate", "dealer_generate"),
        ("keys_from_noise", "keys_from_noise"),
        ("encode_uploads", "encode_uploads"),
        ("helper_share", "helper_share"),
        ("helper_recover", "helper_recover"),
        ("helper_respond", "helper_respond"),
        ("master_decode", "master_decode"),
        ("run_round", "run_round"),
    ),
    "leakage": (
        ("build_static_vars", "build_static_vars"),
        ("build_linear_transcript", "build_linear_transcript"),
        ("helper_observation", "helper_observation"),
        ("joint_rank", "joint_rank"),
        ("entropy_rank", "entropy_rank"),
        ("rank_quadruple", "rank_quadruple"),
        ("cond_mutual_info", "cond_mutual_info"),
        ("check_security_helpers", "check_security_helpers"),
        ("check_security_master", "check_security_master"),
        ("check_sharing_leakage", "check_sharing_leakage"),
        ("check_mask_independence", "check_mask_independence"),
        ("check_upload_recoverability", "check_upload_recoverability"),
        ("response_entropy_given_sum", "response_entropy_given_sum"),
        ("concrete_transcript_values", "concrete_transcript_values"),
        ("oracle_build", "BruteForceOracle.__init__"),
        ("oracle_entropy", "BruteForceOracle.entropy"),
    ),
    "harness": (
        ("run_verify", "run_verify"),
        ("verify_point", "verify_point"),
        ("render_json", "render_json"),
    ),
}

QUERY_FUNCTIONS = (
    "leakage.check_security_helpers",
    "leakage.check_security_master",
    "leakage.check_sharing_leakage",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for module, entries in LAYERS.items():
        for short, _ in entries:
            names += [f"{module}.{short}.calls", f"{module}.{short}.self_s"]
    names += [
        "matrix.rowspace_insert.useful_ratio",
        "matrix.inv.distinct_ratio",
        "leakage.rank_quadruple.per_query",
        "trace_overhead_ratio",
    ]
    return names


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 when nothing was attempted."""
    return num / den if den else 0.0


class Tracer:
    """Wraps hsagg's public functions for the duration of a ``with`` block."""

    def __init__(self):
        self.records: dict[str, list] = {}  # name -> [calls, self seconds]
        self.useful_inserts = 0
        self.inverted: set = set()
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module in LAYERS:
            importlib.import_module(f"hsagg.{module}")
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "hsagg" or name.startswith("hsagg."))
        ]
        try:
            for module, entries in LAYERS.items():
                home = sys.modules[f"hsagg.{module}"]
                for short, path in entries:
                    self._install(f"{module}.{short}", home, path, modules)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _install(self, name, home, path, modules):
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(home, owner_name)
            original = owner.__dict__[attr]
            self._bind(owner, attr, self._wrap(name, original))
            return
        original = getattr(home, attr)
        wrapper = self._wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._bind(mod, key, wrapper)

    def _bind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        record = self.records.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args, **kwargs):
                record[0] += 1
                items = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    start = clock()
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        span = clock() - start
                        record[1] += span - stack.pop()
                        if stack:
                            stack[-1] += span
                    yield item

            return traced_generator

        observe = {
            "matrix.rowspace_insert": self._observe_insert,
            "matrix.inv": self._observe_inv,
        }.get(name)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                record[0] += 1
                record[1] += span - stack.pop()
                if stack:
                    stack[-1] += span
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_insert(self, args, grew):
        if grew:
            self.useful_inserts += 1

    def _observe_inv(self, args, result):
        matrix = args[0]
        self.inverted.add((matrix.field.q, matrix.data))

    def calls(self) -> dict[str, int]:
        return {name: rec[0] for name, rec in self.records.items()}

    def metrics(self) -> dict[str, float]:
        """Calls, self seconds and the layer ratios, keyed by metric name."""
        out: dict[str, float] = {}
        for name, (calls, self_s) in self.records.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out["matrix.rowspace_insert.useful_ratio"] = _ratio(
            self.useful_inserts, self.records["matrix.rowspace_insert"][0]
        )
        out["matrix.inv.distinct_ratio"] = _ratio(
            len(self.inverted), self.records["matrix.inv"][0]
        )
        out["leakage.rank_quadruple.per_query"] = _ratio(
            self.records["leakage.rank_quadruple"][0],
            sum(self.records[name][0] for name in QUERY_FUNCTIONS),
        )
        return out
