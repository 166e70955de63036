"""Unit tests for repro.runtime.metrics."""

from repro.runtime import MetricsCollector, RunReport
from repro.runtime.metrics import ChunkMetric


class TestCollector:
    def test_starts_empty(self):
        report = MetricsCollector().report()
        assert report.trees_built == 0
        assert report.cache_hits == 0
        assert report.cache_misses == 0
        assert report.chunks == []
        assert report.runs == 0

    def test_records_everything(self):
        collector = MetricsCollector()
        collector.record_workers(4)
        collector.record_workers(2)  # narrower pool does not shrink it
        collector.record_chunk(3, 0.5, "pool")
        collector.record_chunk(2, 0.25, "degraded")
        collector.record_cache_hit()
        collector.record_cache_miss()
        collector.add_wall_time(1.0)
        report = collector.report()
        assert report.workers == 4
        assert report.trees_built == 5
        assert report.cache_hits == 1
        assert report.cache_misses == 1
        assert report.runs == 2
        assert report.wall_time == 1.0
        assert report.chunk_wall_time == 0.75
        assert report.trees_per_second == 5.0

    def test_report_is_a_snapshot(self):
        collector = MetricsCollector()
        collector.record_chunk(1, 0.1, "serial")
        report = collector.report()
        collector.record_chunk(1, 0.1, "serial")
        assert len(report.chunks) == 1
        assert collector.report().trees_built == 2

    def test_live_properties(self):
        collector = MetricsCollector()
        collector.record_chunk(7, 0.1, "serial")
        collector.record_cache_hit()
        collector.record_cache_miss()
        assert collector.trees_built == 7
        assert collector.cache_hits == 1
        assert collector.cache_misses == 1


class TestRunReport:
    def test_zero_wall_time_throughput(self):
        assert RunReport().trees_per_second == 0.0

    def test_summary_mentions_the_numbers(self):
        report = RunReport(
            workers=3,
            chunks=[ChunkMetric(2, 0.1, "pool"), ChunkMetric(1, 0.1, "pool")],
            trees_built=3,
            cache_hits=4,
            cache_misses=2,
            wall_time=0.5,
        )
        text = report.summary()
        assert "workers        : 3" in text
        assert "4 cache hits" in text
        assert "2 misses" in text
        assert "trees built    : 3" in text
        assert "2 pool" in text
        assert "6.0 trees/sec" in text

    def test_summary_with_no_chunks(self):
        assert "none" in RunReport().summary()
