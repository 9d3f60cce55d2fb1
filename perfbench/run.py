"""Benchmark of the gategroups claims CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload core-suite --seed 1 --seconds 20 --trace 0

Each workload is a claims ledger.  The seed shuffles its rows, and the
shuffled ledger is passed to a fresh ``gategroups claims run`` process, one
process at a time (a single client in a closed loop), until ``--seconds``
have been measured.  Every report body line is compared by claim id with
the golden line frozen in ``perfbench/golden``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload once untraced and once under ``perfbench/tracer.py`` and prints
the per-layer metrics.  The last line of standard output is one JSON
object; the lines before it repeat every figure by name, with its unit.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# workload -> suite passed to ``claims run``; the ledger and the golden
# report bodies are perfbench/ledgers/<workload>.ledger and
# perfbench/golden/<workload>.jsonl.
WORKLOADS = {
    "core-suite": "core",
    "perm-structure": "extended",
    "aut-search": "extended",
}
SETUP_REPEATS = 7
RUN_DEADLINE_S = 170.0  # the whole run, children included, ends before this

SETUP_CODE = (
    "import sys\n"
    "import gategroups.cli\n"
    "from gategroups.claims import parse_ledger\n"
    "with open(sys.argv[1], encoding='utf-8') as fh:\n"
    "    parse_ledger(fh.read())\n"
)

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer metric -> (unit, tracer span or leaf it is read from)
LAYER_SOURCES = {
    "cyclo.values_interned": ("count", "cyclo.values_interned"),
    "cyclo.products_memoised": ("count", "cyclo.products_memoised"),
    "matrix.matmul_calls": ("count", "matrix.matmul"),
    "matrix.matmul_s": ("s", "matrix.matmul"),
    "matrix.closure_s": ("s", "matrix.closure"),
    "matrix.closure_calls": ("count", "matrix.closure"),
    "matrix.elements_closed": ("count", "matrix.closure"),
    "matrix.closure_yield": ("ratio", "matrix.closure"),
    "matrix.element_table_s": ("s", "matrix.element_table"),
    "cayley.from_permutations_s": ("s", "cayley.from_permutations"),
    "cayley.elements_enumerated": ("count", "cayley.from_permutations"),
    "cayley.subgroup_closure_s": ("s", "cayley.subgroup_closure"),
    "cayley.subgroup_closure_calls": ("count", "cayley.subgroup_closure"),
    "cayley.normal_closure_s": ("s", "cayley.normal_closure"),
    "cayley.normal_closure_calls": ("count", "cayley.normal_closure"),
    "cayley.class_partition_s": ("s", "cayley.class_partition"),
    "cayley.subgroup_table_s": ("s", "cayley.subgroup_table"),
    "perm.stabilizer_chain_s": ("s", "perm.stabilizer_chain"),
    "perm.stabilizer_chain_builds": ("count", "perm.stabilizer_chain"),
    "structure.normal_subgroups_s": ("s", "structure.normal_subgroups"),
    "structure.normal_subgroups_found": ("count", "structure.normal_subgroups"),
    "structure.normals_per_closure": ("ratio", "structure.normal_subgroups"),
    "structure.center_s": ("s", "structure.center"),
    "structure.derived_subgroup_s": ("s", "structure.derived_subgroup"),
    "structure.coset_action_s": ("s", "structure.coset_action"),
    "isomorphism.automorphism_group_s": ("s", "isomorphism.automorphism_group"),
    "isomorphism.isomorphic_s": ("s", "isomorphism.isomorphic"),
    "isomorphism.commutator_set_s": ("s", "isomorphism.commutator_set"),
    "isomorphism.find_complement_s": ("s", "isomorphism.find_complement"),
    "isomorphism.search_nodes": ("count", "isomorphism.search_tick"),
    "isomorphism.hom_checks": ("count", "isomorphism.hom_image"),
    "isomorphism.hom_check_s": ("s", "isomorphism.hom_image"),
    "isomorphism.hom_accept_ratio": ("ratio", "isomorphism.hom_image"),
    "pauligraph.pauli_graph_s": ("s", "pauligraph.pauli_graph"),
    "pauligraph.independent_set_s": ("s", "pauligraph.independent_set"),
    "gates.group_build_s": ("s", "gates.group_build"),
    "claims.evaluated": ("count", "claims.value"),
    "claims.dispatch_self_s": ("s", "claims.value"),
    "trace.overhead_s": ("s", None),
}


# the closures normal_subgroups computes, each an attempt at a new normal subgroup
CLOSURES = ("cayley.normal_closure", "cayley.subgroup_closure")


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources, broken program)."""


# -- inputs -------------------------------------------------------------------


def ledger_rows(workload):
    text = (BENCH / "ledgers" / f"{workload}.ledger").read_text(encoding="utf-8")
    return [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]


def make_ledger(workload, seed):
    """The workload's ledger rows in the order the seed gives."""
    rows = ledger_rows(workload)
    random.Random(seed).shuffle(rows)
    return f"# perfbench workload {workload}, seed {seed}\n" + "\n".join(rows) + "\n"


def load_golden(workload):
    golden = {}
    path = BENCH / "golden" / f"{workload}.jsonl"
    for line in path.read_text(encoding="utf-8").splitlines():
        golden[json.loads(line)["id"]] = line
    return golden


# -- child processes ------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_child(argv, deadline, cwd):
    """Run one process to completion; (wall s, cpu s, peak RSS MB, exit code).

    The child is killed if it is still running at the deadline.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run deadline reached before starting a child process")
    with open(os.path.join(cwd, "stderr.txt"), "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err
        )
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            tail = err.read()[-2000:]
            print(f"child exited with {proc.returncode}: {' '.join(argv[1:4])} ...", file=sys.stderr)
            print(tail, file=sys.stderr)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode


def claims_argv(workload, ledger_path, report_path, trace_path=None, run_id=None):
    cli = ["claims", "run", "--suite", WORKLOADS[workload],
           "--ledger", ledger_path, "--report", report_path]
    if trace_path is None:
        return [sys.executable, "-m", "gategroups.cli", *cli]
    return [sys.executable, str(BENCH / "tracer.py"), trace_path, run_id, "--", *cli]


def report_bodies(report_path):
    """Report lines 2 onward, or [] when the run wrote no report."""
    try:
        with open(report_path, encoding="ascii") as fh:
            return fh.read().splitlines()[1:]
    except FileNotFoundError:
        return []


def count_failures(bodies, golden, claim_ids):
    """Claims whose body line is missing or differs from golden."""
    got = {}
    for line in bodies:
        got[json.loads(line)["id"]] = line
    return sum(1 for cid in claim_ids if got.get(cid) != golden.get(cid))


class Workload:
    """One workload's generated ledger in a scratch directory."""

    def __init__(self, name, seed, workdir, deadline):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.golden = load_golden(name)
        text = make_ledger(name, seed)
        self.claim_ids = [row.split("|")[0].strip() for row in text.splitlines()[1:]]
        self.ledger = os.path.join(workdir, f"{name}.ledger")
        with open(self.ledger, "w", encoding="utf-8") as fh:
            fh.write(text)
        self._runs = 0

    def run_claims(self, trace_path=None):
        """One fresh CLI process: (wall, cpu, rss, report body lines, failed)."""
        self._runs += 1
        report = os.path.join(self.workdir, f"report-{self._runs}.jsonl")
        argv = claims_argv(self.name, self.ledger, report, trace_path,
                           f"{self.name}.seed{self.seed}.run{self._runs}")
        wall, cpu, rss, code = run_child(argv, self.deadline, self.workdir)
        bodies = report_bodies(report)
        failed = count_failures(bodies, self.golden, self.claim_ids)
        if code not in (0, 1):
            failed = len(self.claim_ids)
        return wall, cpu, rss, bodies, failed

    def setup_seconds(self):
        wall, _, _, code = run_child(
            [sys.executable, "-c", SETUP_CODE, self.ledger], self.deadline, self.workdir
        )
        if code != 0:
            raise BenchError("importing gategroups.cli or parsing the ledger failed")
        return wall


# -- metrics ----------------------------------------------------------------------


def high_percentile(values):
    """(percent, value) for the highest percentile with ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    pct = int(100 * (1 - 10 / n))
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace, overhead_s):
    """Per-layer metric values from a tracer dump; absent sources give None."""
    self_s = defaultdict(float)
    calls = Counter()
    closures_in_normals = 0  # closures computed directly by normal_subgroups
    names = {span[0]: span[2] for span in trace["spans"]}
    for _, parent, name, start, end, child in trace["spans"]:
        self_s[name] += end - start - child
        calls[name] += 1
        if name in CLOSURES and names.get(parent) == "structure.normal_subgroups":
            closures_in_normals += 1
    leaves = defaultdict(lambda: {"calls": 0, "seconds": 0.0, "accepted": 0, "under": {}})
    leaves.update(trace["leaves"])
    counters = Counter(trace["counters"])
    matmul, hom = leaves["matrix.matmul"], leaves["isomorphism.hom_image"]
    values = {
        "cyclo.values_interned": counters["cyclo.values_interned"],
        "cyclo.products_memoised": counters["cyclo.products_memoised"],
        "matrix.matmul_calls": matmul["calls"],
        "matrix.matmul_s": matmul["seconds"],
        "matrix.closure_s": self_s["matrix.closure"],
        "matrix.closure_calls": calls["matrix.closure"],
        "matrix.elements_closed": counters["matrix.elements_closed"],
        "matrix.closure_yield": ratio(
            counters["matrix.elements_closed"], matmul["under"].get("matrix.closure", 0)
        ),
        "matrix.element_table_s": self_s["matrix.element_table"],
        "cayley.from_permutations_s": self_s["cayley.from_permutations"],
        "cayley.elements_enumerated": counters["cayley.elements_enumerated"],
        "cayley.subgroup_closure_s": self_s["cayley.subgroup_closure"],
        "cayley.subgroup_closure_calls": calls["cayley.subgroup_closure"],
        "cayley.normal_closure_s": self_s["cayley.normal_closure"],
        "cayley.normal_closure_calls": calls["cayley.normal_closure"],
        "cayley.class_partition_s": self_s["cayley.class_partition"],
        "cayley.subgroup_table_s": self_s["cayley.subgroup_table"],
        "perm.stabilizer_chain_s": self_s["perm.stabilizer_chain"],
        "perm.stabilizer_chain_builds": calls["perm.stabilizer_chain"],
        "structure.normal_subgroups_s": self_s["structure.normal_subgroups"],
        "structure.normal_subgroups_found": counters["structure.normal_subgroups_found"],
        "structure.normals_per_closure": ratio(
            counters["structure.normal_subgroups_found"], closures_in_normals
        ),
        "structure.center_s": self_s["structure.center"],
        "structure.derived_subgroup_s": self_s["structure.derived_subgroup"],
        "structure.coset_action_s": self_s["structure.coset_action"],
        "isomorphism.automorphism_group_s": self_s["isomorphism.automorphism_group"],
        "isomorphism.isomorphic_s": self_s["isomorphism.isomorphic"],
        "isomorphism.commutator_set_s": self_s["isomorphism.commutator_set"],
        "isomorphism.find_complement_s": self_s["isomorphism.find_complement"],
        "isomorphism.search_nodes": leaves["isomorphism.search_tick"]["calls"],
        "isomorphism.hom_checks": hom["calls"],
        "isomorphism.hom_check_s": hom["seconds"],
        "isomorphism.hom_accept_ratio": ratio(hom["accepted"], hom["calls"]),
        "pauligraph.pauli_graph_s": self_s["pauligraph.pauli_graph"],
        "pauligraph.independent_set_s": self_s["pauligraph.independent_set"],
        "gates.group_build_s": self_s["gates.group_build"],
        "claims.evaluated": calls["claims.value"],
        "claims.dispatch_self_s": self_s["claims.value"],
        "trace.overhead_s": overhead_s,
    }
    absent = set(trace["absent"])
    return {
        name: {"value": None if source in absent else values[name], "unit": unit}
        for name, (unit, source) in LAYER_SOURCES.items()
    }


# -- the two kinds of run --------------------------------------------------------------


def end_to_end(wl, seconds):
    setups = [wl.setup_seconds() for _ in range(SETUP_REPEATS)]
    walls, cpus, rsss = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, cpu, rss, _, bad = wl.run_claims()
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
        attempted += len(wl.claim_ids)
        failed += bad
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rsss),
        "setup_s": statistics.median(setups),
    }
    print(f"processes: {len(walls)} claims runs, {len(setups)} set-ups")
    for name, value in metrics.items():
        print(f"{name:14} {value:12.4f} {E2E_UNITS[name]}")
    high = high_percentile(walls)
    if high is None:
        print(f"{'wall_s high':14} {'-':>12}   needs 11 or more samples, have {len(walls)}")
    else:
        print(f"{'wall_s p' + str(high[0]):14} {high[1]:12.4f} s")
    print(f"{'failed_ratio':14} {ratio(failed, attempted):12.4f} ratio ({failed} of {attempted} claims)")
    return attempted, failed, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}


def traced(wl):
    wall, _, _, plain_bodies, failed_plain = wl.run_claims()
    trace_path = os.path.join(wl.workdir, "trace.json")
    traced_wall, _, _, traced_bodies, failed_traced = wl.run_claims(trace_path)
    attempted = 2 * len(wl.claim_ids)
    failed = failed_plain + failed_traced
    if traced_bodies != plain_bodies:
        print("traced report bodies differ from the untraced ones")
        failed = max(failed, 1)
    try:
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
    except FileNotFoundError:
        raise BenchError("the traced run wrote no trace")
    metrics = layer_metrics(trace, traced_wall - wall)
    print(f"run id {trace['run_id']}: {len(trace['spans'])} spans")
    for target in trace["absent"]:
        print(f"absent: {target}")
    for name, m in metrics.items():
        shown = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:34} {shown:>14} {m['unit']}")
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gategroups" / "cli.py").is_file():
        print(f"no gategroups sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        wl = Workload(args.workload, args.seed, workdir, deadline)
        print(f"workload {wl.name}, seed {wl.seed}, {len(wl.claim_ids)} claims, "
              f"suite {WORKLOADS[wl.name]}, trace {args.trace}")
        try:
            if args.trace:
                attempted, failed, metrics = traced(wl)
            else:
                attempted, failed, metrics = end_to_end(wl, args.seconds)
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
