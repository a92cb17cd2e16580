"""Engine-level telemetry wiring: the namespaced registry behind
``Database.statistics()`` (key uniqueness across all six sources) and the
rollback guarantee that a rewound update's trace is never reported as
current."""

import pytest

from repro.core.engine import Database
from repro.obs.spans import TRACER

BACKENDS = ["gua", "log", "naive"]


def worked_db(backend):
    return Database(facts=["R(a)", "R(a) | R(b)"], backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
class TestStatisticsUniqueness:
    def test_flat_keys_unique_across_all_sources(self, backend):
        # flat_snapshot raises on any cross-source collision, so merely
        # building the view after real work asserts global key uniqueness.
        db = worked_db(backend)
        db.update("INSERT R(c) | R(a) WHERE R(b) & R(a)")
        stats = db.statistics()
        assert len(stats) == len(set(stats))

    def test_legacy_flat_keys_survive(self, backend):
        db = worked_db(backend)
        db.update("DELETE R(a) WHERE T")
        db.ask("R(b)")
        stats = db.statistics()
        expected = {
            "updates_applied",
            "pipeline_updates",
            "pipeline_execute_calls",
            "pipeline_execute_seconds",
            "arena_intern_hits",
            "arena_hit_rate",
            "obs_enabled",
        }
        if backend == "gua":
            expected |= {"wffs", "sat_solve_calls", "tseitin_cache_hits"}
        elif backend == "log":
            expected |= {"log_pending", "log_replays"}
        else:
            expected |= {"worlds", "universe_atoms"}
        missing = expected - set(stats)
        assert not missing, f"missing legacy keys: {sorted(missing)}"
        assert stats["updates_applied"] == 1


class TestNamespacedView:
    def test_flat_and_namespaced_agree(self):
        db = worked_db("gua")
        db.update("DELETE R(a) WHERE T")
        db.ask("R(b)")
        flat = db.statistics()
        snap = db.metrics_snapshot()
        assert flat["sat_solve_calls"] == snap["sat.solve_calls"]
        assert flat["wffs"] == snap["theory.wffs"]
        assert flat["updates_applied"] == snap["engine.updates_applied"]
        assert flat["pipeline_execute_calls"] == snap["pipeline.execute.calls"]

    def test_sat_learning_counters_exported(self, traced):
        # PHP(3,2) over the façade: three pigeons cannot share two holes,
        # so the consistency check must conflict and learn.
        facts = ["P(a,h1) | P(a,h2)", "P(b,h1) | P(b,h2)", "P(c,h1) | P(c,h2)"]
        for hole in ("h1", "h2"):
            for x, y in (("a", "b"), ("a", "c"), ("b", "c")):
                facts.append(f"!P({x},{hole}) | !P({y},{hole})")
        db = Database(facts=facts)
        assert db.is_consistent() is False
        snap = db.metrics_snapshot()
        assert snap["sat.conflicts"] > 0
        assert snap["sat.learned"] > 0
        assert snap["sat.restarts"] == 0
        solve = next(traced.roots()[-1].find("sat.solve"))
        assert solve.attrs["learned"] == snap["sat.learned"]
        assert solve.attrs["restarts"] == 0

    def test_stage_histograms_recorded(self):
        db = worked_db("gua")
        db.update("DELETE R(a) WHERE T")
        snap = db.metrics_snapshot()
        assert snap["pipeline.execute.seconds.count"] == 1
        assert snap["pipeline.execute.seconds.sum"] > 0
        assert snap["pipeline.execute.seconds.p90"] > 0
        # The same histogram flattens into the legacy view without clashing
        # with the cumulative pipeline_execute_seconds counter.
        flat = db.statistics()
        assert flat["pipeline_execute_seconds_count"] == 1

    def test_collision_raises_naming_both_sources(self):
        db = worked_db("gua")
        db.metrics.register_collector(
            "rogue", lambda: {"wffs": -1}, flatten="strip"
        )
        with pytest.raises(ValueError, match="wffs"):
            db.statistics()


class TestRollbackTraceReset:
    def test_last_trace_rewinds_with_the_journal(self):
        db = worked_db("gua")
        db.update("INSERT R(c) WHERE T")
        db.savepoint("sp")
        db.update("DELETE R(c) WHERE T")
        assert db.last_trace().sequence == 1
        db.rollback("sp")
        assert db.last_trace().sequence == 0
        # The next update reuses the rewound sequence number.
        db.update("INSERT R(d) WHERE T")
        assert db.last_trace().sequence == 1
        assert db.statistics()["updates_applied"] == 2

    def test_rollback_to_empty_clears_last_trace(self):
        db = worked_db("gua")
        db.savepoint("start")
        db.update("INSERT R(c) WHERE T")
        db.rollback("start")
        assert db.last_trace() is None
        assert "nothing to explain" in db.explain_update()

    def test_rolled_back_spans_discarded(self, traced):
        db = worked_db("gua")
        db.update("INSERT R(c) WHERE T")
        db.savepoint("sp")
        db.update("DELETE R(c) WHERE T")
        db.rollback("sp")
        mine = [
            root
            for root in traced.roots()
            if root.attrs.get("pipeline") == db.pipeline.pipeline_id
        ]
        assert [root.attrs["sequence"] for root in mine] == [0]

    def test_explain_after_rollback_reports_surviving_update(self, traced):
        db = worked_db("gua")
        db.update("INSERT R(c) WHERE T")
        db.savepoint("sp")
        db.update("MODIFY R(a) TO BE R(a') WHERE R(b)")
        assert "update #1" in db.explain_update()
        db.rollback("sp")
        report = db.explain_update()
        # The live result was rewound, so the report is for update #0,
        # reconstructed — never the rolled-back MODIFY.
        assert "update #0" in report
        assert "R(a')" not in report
        assert db.pipeline.last_result is None
        assert db.pipeline.last_sequence is None

    def test_other_pipelines_spans_survive_rollback(self, traced):
        bystander = worked_db("gua")
        bystander.update("INSERT R(x) WHERE T")
        db = worked_db("gua")
        db.savepoint("sp")
        db.update("INSERT R(c) WHERE T")
        db.rollback("sp")
        survivors = [
            root
            for root in traced.roots()
            if root.attrs.get("pipeline") == bystander.pipeline.pipeline_id
        ]
        assert len(survivors) == 1


class TestTracerTruncate:
    def test_truncate_is_idempotent(self):
        db = worked_db("gua")
        db.savepoint("sp")
        db.update("INSERT R(c) WHERE T")
        db.rollback("sp")
        db.rollback("sp")  # rolling back twice must not over-rewind
        assert db.last_trace() is None
        assert len(db.tracer.history()) == 0
