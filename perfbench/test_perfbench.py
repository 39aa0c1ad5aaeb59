"""Checks of the benchmark itself; run with ``python3 -m pytest perfbench``.

Tracing must not change what the CLI prints, its layer counts must repeat
exactly, the known failures must fail in their recorded way, and
``BENCHMARK.json`` must name what ``run.py`` reports.
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(__file__))

import run  # noqa: E402

SEEDS = run.SEED_PAIRS[0]


def _case(case_id):
    return next(c for cases in run.WORKLOADS.values() for c in cases if c.id == case_id)


def _plain(case):
    return run.spawn([sys.executable, "-m", "germforge.cli"] + case.argv(SEEDS),
                     run.CASE_TIMEOUT_S)


def _traced(case, tmp):
    path = os.path.join(tmp, "spans.json")
    proc = run.spawn([sys.executable, str(run.HERE / "tracer.py"), path]
                     + case.argv(SEEDS), run.CASE_TIMEOUT_S)
    with open(path, encoding="utf-8") as fh:
        spans = json.load(fh)
    os.remove(path)
    return proc, run.CaseRun(case, proc, run.judge(case, proc), spans)


def _counts(stats):
    return {k: v for k, v in stats.items() if k.endswith(".calls")}


def test_traced_stdout_and_status_match_untraced():
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        for case_id in ("codim cusp", "split cusp", "versal-build j10"):
            case = _case(case_id)
            plain = _plain(case)
            traced, _ = _traced(case, tmp)
            assert traced.out == plain.out, case_id
            assert traced.code == plain.code, case_id


def test_layer_counts_repeat_exactly():
    expected = {"codim cusp": (2, 4, 12), "split cusp": (7, 9, 31)}
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        for case_id, (c_ext, theta, basis) in expected.items():
            case = _case(case_id)
            first = run.layer_stats([_traced(case, tmp)[1]])
            second = run.layer_stats([_traced(case, tmp)[1]])
            assert first["invariants.c_ext.calls"] == c_ext
            assert first["tangent.theta.calls"] == theta
            assert first["stdbasis.basis.calls"] == basis
            assert _counts(first) == _counts(second)


def test_known_failures_fail_in_their_recorded_way():
    for case_id in ("versal-build j10", "codim --order dp fin2"):
        case = _case(case_id)
        result = run.CaseRun(case, None, run.judge(case, _plain(case)))
        assert result.failed and not result.unexpected, result.cause


def test_a_wrong_document_is_caught():
    case = _case("codim milnor85")
    proc = _plain(case)
    assert run.judge(case, proc) is None
    proc.out = proc.out.replace("c_ext: 28", "c_ext: 27")
    assert run.judge(case, proc) == ("output", "differs from expected/codim_milnor85.txt")


def test_benchmark_json_names_what_run_reports():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER]
    units = dict(run.END_TO_END + tuple(run.PER_LAYER))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == units[metric["name"]]
