"""Benchmark of graphentropy's exhaustive scans, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client: each step starts when the previous one
has exited; every step is a fresh interpreter, so no in-process memo such as
``verify._TABLE1_CACHE`` carries over between steps or runs):

* ``session-8``: one process calls the library the way the acceptance test
  of the minimality scans does (``workers=1``), enumerating n=8 five times;
  the only workload where an in-process census or memo can pay off.
* ``edge-add-8``: ``verify edge-add-decrease --n 8``; 162173 spectra, one
  enumeration, so the spectral layer dominates.
* ``trees-15``: ``verify tree-extremes --n 15`` for S and for H2; canonical
  forms of 2 x 7741 trees dominate and canonical augmentation is unused.
* ``compare-8``: ``verify param-compare --n 8 --param diameter --threads 2``;
  the O(N^2) pair fold plus the only sharded ``Pool(2)`` enumeration.

A run sets up (imports the package in ``SETUP_PROBES`` fresh interpreters),
then repeats the workload while another repetition fits in ``--seconds``,
always at least once. The seed sets ``PYTHONHASHSEED`` in every child and the
order of the steps (and of the library calls in ``session-8``) in each
repetition; the inputs themselves are exhaustive. Every step's exit code and
stdout (or library result) is checked against the values recorded on the
seed code; a mismatch is a failed step.

Times are quiet-core seconds. On a shared host a core runs up to 1.6x slower
while another tenant uses it, and that swing drifts over minutes, so raw
wall times of the same code spread by 20-30% between runs. The one-process
workloads therefore run pinned to one core, and ``SpeedProbe`` times a small
fixed piece of Python on that core (on every core for the sharded workload)
five times a second meanwhile. A measured time is multiplied by
``PROBE_QUIET_S`` over the mean probe time, which brings the run-to-run
spread down to a few percent. The raw seconds are printed with the
environment.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (one repetition,
median over repetitions), ``setup_s`` (spawn to the end of ``import
graphentropy``, median over the probes and steps, times the processes one
repetition starts), ``peak_rss_mb`` (largest max-RSS of any child, pool
workers included) and ``pass_share`` (passed over attempted steps; a fail
share would be 0 on a correct program). ``--trace 1`` runs the workload once
untraced and once traced (see ``child.py``), takes set-up import times from
``python -X importtime``, checks the exact call counts the workload is
defined by, and prints the per-layer metrics. Every ``*_s`` layer metric is
self time: the spans of a layer minus the traced spans nested inside them,
so the layers do not overlap.

The last stdout line is the result object; the line before it records the
environment, the seed and the raw samples.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from child import MARKER, TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
STEP_TIMEOUT_S = 150
PROBE_REPEAT = 1000
PROBE_PERIOD_S = 0.2
# probe_work's thread CPU time on a quiet core of a 2-core Xeon VM under
# Python 3.11.7; times are reported in seconds of that core
PROBE_QUIET_S = 0.007

TABLE1 = {2: (0, 1), 3: (1, 2), 4: (2, 6), 5: (4, 21), 6: (8, 112), 7: (16, 853), 8: (49, 11117)}

# library calls of session-8, each with the summary child.summarize gives
SESSION_CALLS = [
    ("verify_star_min_von_neumann", [8], {"holds": True, "classes": 11117}),
    ("verify_renyi_star_min", [8, 1.5], {"holds": True, "classes": 11117}),
    ("verify_renyi_star_min", [8, 2.0], {"holds": True, "classes": 11117}),
    ("coentropy_search", [8], {"groups": 3}),
] + [("table1_row", [n], {"failures": f, "total": t}) for n, (f, t) in TABLE1.items()]


SETUP_STEP = {"kind": "setup", "rc": 0, "counts": {}}


def cli_step(argv, rc, sha256, counts=None):
    """A CLI step: expected exit code, stdout digest, and (traced) call counts."""
    return {"kind": "cli", "argv": argv, "rc": rc, "sha256": sha256, "counts": counts or {}}


WORKLOADS = {
    "session-8": [{"kind": "session", "calls": SESSION_CALLS, "rc": 0, "counts": {}}],
    "edge-add-8": [cli_step(
        ["verify", "edge-add-decrease", "--n", "8"], 3,  # decreases exist at n=8
        "40dc0307c9490dc18f1c0645885d1880b48df992bbbfa5d7e7a62df49340b56c",
        {"density_spectrum": 162173, "add_edge": 151056},
    )],
    "trees-15": [
        cli_step(
            ["verify", "tree-extremes", "--n", "15"], 0,
            "0efaa4f22eb59990305295b262be1c983c20e3705eff635bc068fd10194c9d02",
            {"canonical_form": 7741},
        ),
        cli_step(
            ["verify", "tree-extremes", "--n", "15", "--entropy", "H2"], 0,
            "8998870285c8e5a7bc36be96710f1eecfe720627cd923452acf3e8773f3232b8",
            {"canonical_form": 7741},
        ),
    ],
    # the same digest as --threads 1: stdout must not depend on the thread count
    "compare-8": [cli_step(
        ["verify", "param-compare", "--n", "8", "--param", "diameter", "--threads", "2"], 0,
        "e3f35bbd69c292b5f1be85a16514b0ead64a30eaf28ef2c6f257cc5ad8ebedbd",
    )],
}

SHARDED = {"compare-8"}  # workloads that start a process pool

ENGINES = [name for module, name, _ in TRACED if module == "verify"]

# per-layer metric -> (field of the traced record, traced functions summed)
LAYERS = {
    "enumeration.graphs_s": ("self", ["enumerate_graphs"]),
    "enumeration.graphs_yielded": ("items", ["enumerate_graphs"]),
    "enumeration.trees_s": ("self", ["enumerate_trees"]),
    "enumeration.trees_yielded": ("items", ["enumerate_trees"]),
    "enumeration.canon_s": ("self", ["canonical_form"]),
    "enumeration.canon_calls": ("calls", ["canonical_form"]),
    "spectral.density_self_s": ("self", ["density_spectrum"]),
    "spectral.density_calls": ("calls", ["density_spectrum"]),
    "spectral.eig_s": ("self", ["eigenvalues_symmetric"]),
    "spectral.laplacian_s": ("self", ["laplacian"]),
    "entropy.shannon_s": ("self", ["shannon_entropy"]),
    "entropy.renyi_s": ("self", ["renyi_entropy"]),
    "entropy.exact_s": ("self", ["tr2", "star_test", "density_test", "degree_sequence"]),
    "graphs.graph6_s": ("self", ["write_graph6", "parse_graph6"]),
    "graphs.graph6_calls": ("calls", ["write_graph6", "parse_graph6"]),
    "graphs.add_edge_s": ("self", ["add_edge"]),
    "graphs.add_edge_calls": ("calls", ["add_edge"]),
    "verify.fold_s": ("self", ENGINES),
    "cli.self_s": ("self", ["main"]),
}
FIELDS = {"calls": 0, "self": 1, "items": 2}


@dataclass
class Step:
    """Outcome of one child process."""

    spec: dict
    setup: float | None  # seconds from spawn to the end of the import
    ok: bool
    why: str | None
    stdout: bytes
    trace: dict | None


def child_env(seed, trace):
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONHASHSEED", "GEL_THREADS", "GEL_STRETCH")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env["PERFBENCH_TRACE"] = "1" if trace else "0"
    return env


def run_child(spec, seed, trace):
    """Spawn child.py for one step and check what it printed."""
    payload = {k: v for k, v in spec.items() if k in ("kind", "argv")}
    if spec["kind"] == "session":
        payload["calls"] = [[name, args] for name, args, _ in spec["calls"]]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(payload)],
        cwd=ROOT, env=child_env(seed, trace), start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=STEP_TIMEOUT_S)
    except BaseException as exc:  # timeout, or this process is being stopped
        os.killpg(proc.pid, signal.SIGKILL)  # also the pool workers of --threads
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return Step(spec, None, False, "timeout", b"", None)
    lines = err.decode(errors="replace").splitlines()
    if not lines or not lines[-1].startswith(MARKER):
        why = f"exit {proc.returncode}, no report: {' | '.join(lines[-3:])}"
        return Step(spec, None, False, why, out, None)
    report = json.loads(lines[-1][len(MARKER):])
    setup = report["imported"] - t0
    if not Path(report["package"]).resolve().is_relative_to(SRC):
        return Step(spec, setup, False, f"imported {report['package']}", out, None)
    why = check(spec, proc.returncode, out, report)
    return Step(spec, setup, why is None, why, out, report["trace"])


def check(spec, rc, out, report):
    """None if the step's outputs match the seed's, else the first mismatch."""
    if rc != spec["rc"]:
        return f"exit code {rc}, expected {spec['rc']}"
    if spec["kind"] == "session":
        for (name, args, want), got in zip(spec["calls"], report["results"]):
            if got != want:
                return f"{name}{tuple(args)} gave {got}, expected {want}"
        if len(report["results"]) != len(spec["calls"]):
            return "missing library results"
    elif spec["kind"] == "cli":
        digest = hashlib.sha256(out).hexdigest()
        if digest != spec["sha256"]:
            return f"stdout sha256 {digest[:16]}, expected {spec['sha256'][:16]}"
    if report["trace"] is not None:
        for name, want in spec["counts"].items():
            got = report["trace"].get(name, [0])[0]
            if got != want:
                return f"{name} called {got} times, expected exactly {want}"
    return None


def probe_work():
    """Fixed interpreter work shaped like the package's inner loops: bit tests
    on adjacency rows, small lists, comprehensions. A plain arithmetic loop
    slows down less than the scans do when a core is shared."""
    rows = [((1 << 14) - 1) ^ (1 << k) for k in range(14)]
    acc = 0
    for _ in range(PROBE_REPEAT):
        cells = [[v for v in range(14) if (rows[v] >> u) & 1] for u in range(0, 14, 3)]
        acc += sum(len(c) for c in cells)
    return acc


class SpeedProbe:
    """Times ``probe_work`` every ``PROBE_PERIOD_S`` on each of ``cores``.

    Each sampler is a thread pinned to its core and timed by thread CPU time,
    so a sample reads how fast that core runs right now, not how long the
    thread waited for it. On a shared host a core slows down by up to 1.6x
    while another tenant uses it, and a workload pinned to the same core slows
    down with it; dividing by the probe time removes most of that swing.
    """

    def __init__(self, cores):
        self.samples = []
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._sample, args=(c,)) for c in sorted(cores)]

    def _sample(self, core):
        os.sched_setaffinity(0, {core})
        while True:
            t0 = time.thread_time()
            probe_work()
            self.samples.append(time.thread_time() - t0)
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self):
        for t in self._threads:
            t.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for t in self._threads:
            t.join()

    def scale(self):
        """Factor from measured seconds to quiet-core seconds."""
        return PROBE_QUIET_S / statistics.fmean(self.samples)


def run_steps(specs, seed, trace, cores):
    """Run steps back to back under a speed probe: (wall s, scale, steps)."""
    with SpeedProbe(cores) as probe:
        t0 = time.perf_counter()
        done = [run_child(spec, seed, trace) for spec in specs]
        wall = time.perf_counter() - t0
    return wall, probe.scale(), done


def shuffled(steps, rng):
    """The steps, and the calls within a session, in seeded order."""
    return [dict(s, calls=rng.sample(s["calls"], len(s["calls"]))) if "calls" in s else s
            for s in rng.sample(steps, len(steps))]


def import_times(seed, cores):
    """Median cumulative import time of numpy, networkx and the package's own
    share (its cumulative time minus those two), from ``python -X importtime``."""
    samples = {"numpy": [], "networkx": [], "graphentropy": []}
    with SpeedProbe(cores) as probe:
        for _ in range(IMPORTTIME_PROBES):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import graphentropy"],
                cwd=ROOT, env=child_env(seed, False), capture_output=True, text=True,
                timeout=STEP_TIMEOUT_S, check=True,
            )
            cumulative = {}
            for line in proc.stderr.splitlines():
                fields = line.removeprefix("import time:").split("|")
                if len(fields) == 3 and fields[1].strip().isdigit():
                    cumulative[fields[2].strip()] = int(fields[1]) / 1e6
            numpy_s = cumulative.get("numpy", 0.0)
            networkx_s = cumulative.get("networkx", 0.0)
            samples["numpy"].append(numpy_s)
            samples["networkx"].append(networkx_s)
            samples["graphentropy"].append(cumulative["graphentropy"] - numpy_s - networkx_s)
    return {f"setup.{k}_s": statistics.median(v) * probe.scale() for k, v in samples.items()}


def layer_metrics(steps, scale):
    """Per-layer metrics summed over the traced steps, times in quiet-core s."""
    totals = {}
    for step in steps:
        for name, rec in (step.trace or {}).items():
            acc = totals.setdefault(name, [0, 0.0, 0])
            for i, v in enumerate(rec):
                acc[i] += v
    metrics = {}
    for metric, (field, names) in LAYERS.items():
        value = sum(totals.get(n, [0, 0.0, 0])[FIELDS[field]] for n in names)
        metrics[metric] = value * scale if metric.endswith("_s") else value
    # graph6 words a step reports, per canonical form it computed
    useful = 0
    for step in steps:
        if step.trace and "canonical_form" in step.trace and step.stdout:
            body = json.loads(step.stdout)
            words = body["extremal_graphs"] + body["witnesses"]
            words += body["stats"].get("min_graphs", [])
            useful += len(set(words))
    calls = metrics["enumeration.canon_calls"]
    metrics["enumeration.canon_useful_ratio"] = useful / calls if calls else 0.0
    return metrics


def environment(seed, workload):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "platform": platform.platform(),
    }


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_share": "share"}


def unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # let run_child clean up
    if not (SRC / "graphentropy" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2

    steps = WORKLOADS[args.workload]
    env = environment(args.seed, args.workload)
    env["loadavg_before"] = os.getloadavg()
    # one-process workloads run pinned to one core and are probed there; the
    # sharded one keeps every core and is probed on each
    allowed = os.sched_getaffinity(0)
    cores = allowed if args.workload in SHARDED else {min(allowed)}
    os.sched_setaffinity(0, cores)
    env["cores"] = sorted(cores)

    # set-up; an unmeasured first import writes the package's bytecode cache
    run_child(SETUP_STEP, args.seed, False)
    _, scale, probes = run_steps([SETUP_STEP] * SETUP_PROBES, args.seed, False, cores)
    bad = [p.why for p in probes if not p.ok]
    if bad:
        print(f"error: set-up failed: {bad[0]}", file=sys.stderr)
        return 2
    setups = [p.setup * scale for p in probes]

    reps = []
    if args.trace:
        for trace in (False, True):
            order = shuffled(steps, random.Random(args.seed))
            reps.append(run_steps(order, args.seed, trace, cores))
    else:
        rng = random.Random(args.seed)
        start = time.perf_counter()
        while not reps or time.perf_counter() - start + reps[-1][0] <= args.seconds:
            reps.append(run_steps(shuffled(steps, rng), args.seed, False, cores))

    done = [s for _, _, rep in reps for s in rep]
    failed = [s for s in done if not s.ok]
    for s in failed:
        print(f"FAILED {s.spec.get('argv', s.spec['kind'])}: {s.why}", file=sys.stderr)
    quiet_walls = [wall * scale for wall, scale, _ in reps]
    setups += [s.setup * scale for _, scale, rep in reps for s in rep if s.setup is not None]

    if args.trace:
        _, scale, traced = reps[1]
        metrics = layer_metrics(traced, scale)
        metrics.update(import_times(args.seed, cores))
        metrics["trace.overhead_s"] = quiet_walls[1] - quiet_walls[0]
    else:
        metrics = {
            "wall_s": statistics.median(quiet_walls),
            "setup_s": statistics.median(setups) * len(steps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "pass_share": (len(done) - len(failed)) / len(done),
        }
    env["loadavg_after"] = os.getloadavg()
    env["measured_walls_s"] = [wall for wall, _, _ in reps]
    env["quiet_scales"] = [scale] + [scale for _, scale, _ in reps]
    env["setup_samples_quiet_s"] = setups
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(done),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
