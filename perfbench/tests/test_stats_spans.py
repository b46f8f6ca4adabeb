"""The benchmark's own logic: tail rule, self time, golden check, schedule."""

import pytest

import loadclient
import spans
import stats
import workloads
from workloads import CliRun, Context


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 31)]  # 30 samples
    value, pct, n = stats.tail(values)
    assert (value, n) == (20.0, 30)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_tail_below_twenty_one_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert stats.tail([float(i) for i in range(20)]) == (19.0, 100.0, 20)
    value, pct, n = stats.tail([float(i) for i in range(21)])
    assert (value, n) == (10.0, 21) and pct == pytest.approx(100 * 11 / 21)
    with pytest.raises(ValueError):
        stats.tail([])


def _span(pid, n, name, start, end, parent=None):
    return {"kind": "span", "run": "r", "pid": pid, "id": f"{pid}:{n}",
            "name": name, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_nested_children_of_the_same_process():
    records = [
        _span(1, 1, "outer", 0.0, 10.0),
        _span(1, 2, "inner", 1.0, 4.0, "1:1"),
        _span(1, 3, "inner", 3.0, 6.0, "1:1"),  # overlaps the first child
        _span(1, 4, "leaf", 2.0, 3.0, "1:2"),
    ]
    roll = spans.rollup(records)
    assert roll["total"]["outer"] == 10.0
    assert roll["self"]["outer"] == pytest.approx(10.0 - 5.0)  # union [1, 6]
    assert roll["self"]["inner"] == pytest.approx(3.0 - 1.0 + 3.0)
    assert roll["self"]["leaf"] == 1.0
    assert roll["child_calls"][("outer", "inner")] == 2


def test_children_in_other_processes_do_not_reduce_self_time():
    records = [
        {"kind": "process", "run": "r", "pid": 1, "role": "cli"},
        {"kind": "process", "run": "r", "pid": 2, "role": "worker"},
        {"kind": "process", "run": "r", "pid": 3, "role": "worker"},
        _span(1, 1, "engine.prefetch", 0.0, 8.0),
        _span(1, 2, "store.verify", 0.0, 1.0, "1:1"),
        _span(2, 1, "engine.worker", 1.0, 7.0, "1:1"),
        _span(3, 1, "engine.worker", 1.5, 7.5, "1:1"),
        _span(2, 2, "sim.run", 2.0, 6.0, "2:1"),
        {"kind": "counts", "run": "r", "pid": 2, "role": "worker", "counts": {"pipeline.events": 5}},
        {"kind": "counts", "run": "r", "pid": 3, "role": "worker", "counts": {"pipeline.events": 7}},
    ]
    roll = spans.rollup(records)
    assert roll["self"]["engine.prefetch"] == pytest.approx(7.0)
    assert roll["total"]["engine.worker"] == pytest.approx(12.0)
    assert roll["self"]["engine.worker"] == pytest.approx(12.0 - 4.0)
    assert roll["counts"]["pipeline.events"] == 12
    assert roll["by_role"]["cli"]["total"]["engine.prefetch"] == 8.0
    assert "engine.prefetch" not in roll["by_role"]["worker"]["total"]


def test_nested_spans_of_one_name_count_once_in_the_total():
    records = [
        _span(1, 1, "engine.digest", 0.0, 4.0),
        _span(1, 2, "engine.digest", 1.0, 3.0, "1:1"),
    ]
    roll = spans.rollup(records)
    assert roll["total"]["engine.digest"] == 4.0
    assert roll["calls"]["engine.digest"] == 1
    assert roll["self"]["engine.digest"] == pytest.approx(4.0)


def test_recorder_round_trip(tmp_path):
    rec = spans.Recorder(str(tmp_path), "run-1", "cli")
    outer = rec.begin("a")
    inner = rec.begin("b")
    rec.end(inner)
    rec.end(outer)
    rec.count("pipeline.events", 3)
    rec.flush()
    roll = spans.rollup(spans.read_records(tmp_path))
    assert roll["calls"] == {"a": 1, "b": 1}
    assert roll["child_calls"][("a", "b")] == 1
    assert roll["counts"]["pipeline.events"] == 3


def test_golden_check_fails_on_a_one_byte_change(tmp_path):
    golden = "Table 3: x\nbenchmark  size\n     plot    67\n"
    (tmp_path / "table3.txt").write_text(golden)
    ctx = Context(work=tmp_path, seed=0, seconds=1, run_id="t", goldens=tmp_path)
    summary = ("\n-- engine --\n  plot             0.10s  store\n"
               "  cache: 1 hit(s), 0 simulated, 2 memoised\n"
               "  faults: 0 failed, 0 retried, 0 timed out, 0 quarantined\n")
    same = CliRun(1.0, golden + summary, "", 0)
    assert ctx.check_table("table3", same, hits=1, simulated=0)
    assert ctx.problems == []
    for i in range(len(golden)):
        flipped = golden[:i] + chr(ord(golden[i]) ^ 1) + golden[i + 1:]
        ctx.problems.clear()
        run = CliRun(1.0, flipped + summary, "", 0)
        assert not ctx.check_table("table3", run, hits=1, simulated=0), i
        assert ctx.problems
    ctx.problems.clear()
    assert not ctx.check_table("table3", same, hits=0, simulated=1)


BENCHES = ("chess", "li", "plot")


def test_schedule_is_identical_for_one_seed_and_differs_across_seeds():
    a = loadclient.schedule(7, BENCHES, 1.5, 30)
    assert a == loadclient.schedule(7, BENCHES, 1.5, 30)
    b = loadclient.schedule(8, BENCHES, 1.5, 30)
    assert [s.due for s in a] != [s.due for s in b]
    assert [s.benchmark for s in a] != [s.benchmark for s in b]


def test_schedule_offers_the_same_work_at_a_fixed_rate_for_every_seed():
    def work(seed):
        return sorted((s.benchmark, s.predictors) for s in loadclient.schedule(seed, BENCHES, 1.5, 24))

    assert work(1) == work(2) == work(3)
    subs = loadclient.schedule(1, BENCHES, 1.5, 24)
    assert sum(bool(s.predictors) for s in subs) == 6  # a quarter replays
    for i, s in enumerate(subs):
        assert (i + 0.25) / 1.5 <= s.due < (i + 0.75) / 1.5


def _done(at, kind="completed"):
    sub = loadclient.Submit(0, 0.0, "plot", ())
    return loadclient.Outcome(sub, 0.0, sent=0.0, done=at, kind=kind)


def test_saturation_rate_skips_the_fill_of_the_pipeline():
    k = workloads.SATURATION_OUTSTANDING
    outs = [_done(0.1 * i) for i in range(k)] + [_done(1.0 + 0.5 * i) for i in range(1, 11)]
    # ten completions in the 5 s after the k-th one
    assert workloads.saturation_rate(outs) == pytest.approx(10 / (6.0 - 0.1 * (k - 1)))
    outs.append(_done(9.0, kind="rejected"))
    assert workloads.saturation_rate(outs) == pytest.approx(10 / (6.0 - 0.1 * (k - 1)))


def test_an_entry_point_the_program_lacks_is_skipped(tmp_path, monkeypatch):
    monkeypatch.setattr(spans, "LAYERS", (("json", "no_such_function", "x", None),
                                          ("json", "NoSuchClass.method", "y", None)))
    rec = spans.Recorder(str(tmp_path), "run-1", "cli")
    calls = []
    monkeypatch.setattr(spans.importlib, "import_module",
                        lambda name: __import__(name) if name == "json" else _engine_stub(calls))
    monkeypatch.setattr(spans.os, "register_at_fork", lambda **kw: None)
    spans.install(rec)
    assert rec.missing == ["json.no_such_function", "json.NoSuchClass.method"]
    rec.count("pipeline.events", 1)
    rec.flush()
    assert spans.rollup(spans.read_records(tmp_path))["missing"] == sorted(rec.missing)


def _engine_stub(calls):
    class Engine:
        @staticmethod
        def _worker_entry(*args):
            calls.append(args)
    return Engine
