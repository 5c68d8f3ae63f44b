"""One step of the benchmark, run in a fresh interpreter by ``run.py``.

Usage: ``python child.py '<json spec>'`` with ``PYTHONPATH`` naming the
package's ``src`` directory. The spec is one of

* ``{"kind": "setup"}``: import the package and exit;
* ``{"kind": "cli", "argv": [...]}``: run ``graphentropy.cli.main(argv)``,
  which is what ``python -m graphentropy <argv>`` runs;
* ``{"kind": "session", "calls": [[name, args], ...]}``: call the library
  functions in order, in this one process.

The step's stdout is the program's own. The last stderr line is
``MARKER`` followed by a JSON report: the ``time.perf_counter()`` reading
taken right after ``import graphentropy`` (CLOCK_MONOTONIC, so the parent can
subtract its spawn time), the exit code, a summary of each library result,
and, when ``PERFBENCH_TRACE=1``, per-function call counts and times.

Tracing wraps the package's public functions from here, outside ``src/``:
every module binding of a traced function (including ``from .x import f``
copies and lazy imports) is replaced by a timing wrapper. Spans are not kept
one by one (there are about a million at n=8); each function keeps a call
count and a self time: its time minus the time spent in traced calls
nested inside it.
"""

import json
import os
import sys
import time

MARKER = "PERFBENCH "

# (module, function, is_generator) for every traced public function
TRACED = [
    ("enumeration", "enumerate_graphs", True),
    ("enumeration", "enumerate_trees", True),
    ("enumeration", "canonical_form", False),
    ("spectral", "density_spectrum", False),
    ("spectral", "eigenvalues_symmetric", False),
    ("graphs", "laplacian", False),
    ("graphs", "degree_sequence", False),
    ("graphs", "write_graph6", False),
    ("graphs", "parse_graph6", False),
    ("graphs", "add_edge", False),
    ("entropy", "shannon_entropy", False),
    ("entropy", "renyi_entropy", False),
    ("entropy", "tr2", False),
    ("entropy", "star_test", False),
    ("entropy", "density_test", False),
    ("verify", "verify_star_min_von_neumann", False),
    ("verify", "verify_tree_extremes", False),
    ("verify", "verify_renyi_star_min", False),
    ("verify", "verify_renyi_max", False),
    ("verify", "verify_density_implies_star", False),
    ("verify", "table1_row", False),
    ("verify", "failing_graph_properties", False),
    ("verify", "edge_add_decrease_search", False),
    ("verify", "coentropy_search", False),
    ("verify", "param_comparability", False),
]


class Tracer:
    """Per-function [calls, self seconds, items yielded] in memory."""

    def __init__(self):
        self.stats = {}
        self._inner = []  # traced time nested inside each open span

    def _open(self):
        self._inner.append(0.0)
        return time.perf_counter()

    def _close(self, name, t0, items=0):
        dt = time.perf_counter() - t0
        inner = self._inner.pop()
        rec = self.stats.setdefault(name, [0, 0.0, 0])
        rec[0] += 1
        rec[1] += dt - inner
        rec[2] += items
        if self._inner:
            self._inner[-1] += dt

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            t0 = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, t0)

        return traced

    def wrap_generator(self, name, fn):
        # time is spent inside next(), not between yields
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    t0 = self._open()
                    try:
                        item = next(it)
                    except StopIteration:
                        self._close(name, t0)
                        return
                    self._close(name, t0, items=1)
                    yield item
            finally:
                it.close()

        return traced

    def install(self):
        """Rebind every traced function in every loaded graphentropy module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "graphentropy" or n.startswith("graphentropy.")]
        for mod_name, fn_name, is_gen in TRACED:
            original = getattr(sys.modules[f"graphentropy.{mod_name}"], fn_name)
            make = self.wrap_generator if is_gen else self.wrap
            traced = make(fn_name, original)
            for mod in modules:
                for attr in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, attr, traced)


def summarize(result):
    """The fields of a library result that the parent checks."""
    if isinstance(result, tuple):  # table1_row
        return {"failures": result[0], "total": result[1]}
    if isinstance(result, list):  # coentropy_search
        return {"groups": len(result)}
    return {"holds": result.holds, "classes": result.stats["classes"]}


def main():
    spec = json.loads(sys.argv[1])
    import graphentropy

    imported = time.perf_counter()
    tracer = Tracer() if os.environ.get("PERFBENCH_TRACE") == "1" else None
    if tracer is not None:
        tracer.install()
    rc = 0
    results = []
    if spec["kind"] == "cli":
        from graphentropy import cli

        main = cli.main if tracer is None else tracer.wrap("main", cli.main)
        rc = main(spec["argv"])
    elif spec["kind"] == "session":
        for name, args in spec["calls"]:
            results.append(summarize(getattr(graphentropy, name)(*args)))
    sys.stdout.flush()
    report = {
        "imported": imported,
        "rc": rc,
        "package": graphentropy.__file__,
        "results": results,
        "trace": tracer.stats if tracer is not None else None,
    }
    print(MARKER + json.dumps(report), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
