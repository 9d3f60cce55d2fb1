"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest perfbench/tests -q

The CLI tests run a few quick claims of the aut-search ledger, which
between them close matrix groups, enumerate permutation groups and run
automorphism searches, so every exactly-repeating counter is nonzero.
"""

from __future__ import annotations

import json
import math
import re
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
QUICK_IDS = ("c1-aut-order", "a6-out-order", "a6-derived-s6", "c1-central-quotient-s4")
EXACT_COUNTS = (
    "matrix.matmul_calls",
    "cayley.elements_enumerated",
    "isomorphism.search_nodes",
    "isomorphism.hom_checks",
)


def golden_value(workload, claim_id, key="computed"):
    return json.loads(run.load_golden(workload)[claim_id])[key]


def builtin_expected(claim_id):
    text = (BENCH.parent / "src" / "gategroups" / "data" / "claims.ledger").read_text()
    for line in text.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if parts[0] == claim_id:
            return parts[3]
    raise KeyError(claim_id)


@pytest.fixture
def quick_workload(monkeypatch, tmp_path):
    rows = [r for r in run.ledger_rows("aut-search") if r.split("|")[0].strip() in QUICK_IDS]
    assert len(rows) == len(QUICK_IDS)
    monkeypatch.setattr(run, "ledger_rows", lambda workload: list(rows))

    def make(seed):
        workdir = tmp_path / f"seed{seed}"
        workdir.mkdir(exist_ok=True)
        return run.Workload("aut-search", seed, str(workdir), time.monotonic() + 170)

    return make


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert end_to_end == list(run.E2E_UNITS)
    assert per_layer == list(run.LAYER_SOURCES)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for name in end_to_end + per_layer:
        assert NAME_RE.fullmatch(name), name


def test_seed_shuffles_rows_and_nothing_else():
    for workload in run.WORKLOADS:
        a, b = run.make_ledger(workload, 1), run.make_ledger(workload, 2)
        assert a == run.make_ledger(workload, 1)
        assert a.splitlines()[1:] != b.splitlines()[1:]
        assert sorted(a.splitlines()[1:]) == sorted(b.splitlines()[1:])
        ids = {row.split("|")[0].strip() for row in run.ledger_rows(workload)}
        assert ids == set(run.load_golden(workload))


def test_golden_values_agree_with_independent_facts():
    gl42 = math.prod(2**4 - 2**i for i in range(4))
    assert golden_value("aut-search", "c2x4-aut-gl42") == str(gl42) == "20160"
    assert golden_value("aut-search", "out-s6") == "2"
    assert golden_value("aut-search", "a6-out-order") == "4"
    assert golden_value("aut-search", "mub3-aut-g5") == builtin_expected("mub3-aut-g5")
    for cid in ("perfect-15360-order", "m20-deficiency"):
        assert golden_value("perm-structure", cid) == builtin_expected(cid)
    statuses = {
        cid: json.loads(line)["status"] for cid, line in run.load_golden("core-suite").items()
    }
    disputed = sorted(cid for cid, s in statuses.items() if s == "disputed-mismatch")
    assert len(statuses) == 64 and len(disputed) == 5
    assert "c1-splits-over-p1" in disputed
    assert set(statuses.values()) == {"pass", "disputed-mismatch"}


def test_seeds_give_identical_claim_bodies(quick_workload):
    one, two = quick_workload(1), quick_workload(2)
    assert one.claim_ids != two.claim_ids
    *_, bodies_one, failed_one = one.run_claims()
    *_, bodies_two, failed_two = two.run_claims()
    assert failed_one == failed_two == 0
    assert sorted(bodies_one) == sorted(bodies_two)


def test_traced_run_matches_untraced_and_counts_repeat(quick_workload):
    wl = quick_workload(3)
    *_, plain, failed = wl.run_claims()
    assert failed == 0
    counts = []
    for k in range(2):
        trace_path = str(Path(wl.workdir) / f"trace{k}.json")
        *_, bodies, failed = wl.run_claims(trace_path)
        assert failed == 0
        assert bodies == plain
        trace = json.loads(Path(trace_path).read_text())
        assert trace["absent"] == []
        metrics = run.layer_metrics(trace, 0.0)
        counts.append({name: metrics[name]["value"] for name in EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert all(v > 0 for v in counts[0].values())


def test_tracer_rebinds_names_and_reports_missing_targets_as_absent(monkeypatch):
    def automorphism_group(n):
        return n * 2

    iso = types.ModuleType("fakegg.isomorphism")
    iso.automorphism_group = automorphism_group  # _hom_image and _Search are gone
    claims = types.ModuleType("fakegg.claims")
    claims.automorphism_group = automorphism_group  # a by-name import
    monkeypatch.setitem(sys.modules, "fakegg", types.ModuleType("fakegg"))
    monkeypatch.setitem(sys.modules, "fakegg.isomorphism", iso)
    monkeypatch.setitem(sys.modules, "fakegg.claims", claims)

    t = tracer.Tracer("test")
    t.install(package="fakegg")
    t.read_memo_tables(package="fakegg")
    assert claims.automorphism_group is iso.automorphism_group is not automorphism_group
    assert claims.automorphism_group(21) == 42
    assert [span[2] for span in t.spans] == ["isomorphism.automorphism_group"]
    assert "isomorphism.hom_image" in t.absent and "cyclo.values_interned" in t.absent

    metrics = run.layer_metrics(
        {"spans": t.spans, "leaves": t.leaves, "counters": t.counters, "absent": t.absent}, 0.5
    )
    assert metrics["isomorphism.hom_checks"]["value"] is None
    assert metrics["cyclo.values_interned"]["value"] is None
    assert metrics["isomorphism.automorphism_group_s"]["value"] >= 0
    assert metrics["trace.overhead_s"]["value"] == 0.5
