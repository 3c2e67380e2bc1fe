"""Endpoint layer: the identity rule, live supersede, error paths.

The headline test drives the streaming engine event by event through
a seeded reorg feed and, at every retraction of served rows, checks
the service answers with *fresh* content immediately — then pins the
end state byte-identical to a batch-built service.
"""

import pytest

from repro import follow_engine
from repro.serve import (
    MevQueryService,
    live_service,
    probe_targets,
    responses_identical,
)
from repro.stream import StreamSubscriber


class TestIdentityRule:
    def test_batch_and_stream_serve_identical_bytes(self, batch_query,
                                                    streamed):
        service, engine = streamed
        assert engine.report.reorgs > 0  # the identity was earned
        assert engine.report.retracted_rows > 0
        assert responses_identical(batch_query, service)

    def test_probe_targets_cover_every_endpoint_family(self,
                                                       batch_query):
        targets = probe_targets(batch_query.store)
        families = {"/v1/blocks/", "/v1/mev", "/v1/aggregates/table1",
                    "/v1/leaderboards/", "/v1/coverage"}
        for family in families:
            assert any(family in target for target in targets), family
        assert not any("/v1/status" in target for target in targets)

    def test_divergence_is_detected(self, batch_query, streamed):
        service, _ = streamed
        lo, _ = service.store.bounds()
        tampered = MevQueryService(service.store)
        # Same store, but force one probe pair to differ by comparing
        # against a service whose store lost a block.
        from tests.serve.test_store import rebuild_by_hand
        clone = rebuild_by_hand(service.store)
        clone.set_quality(service.store.coverage()["quality"])
        height = next(h for h in range(*clone.bounds())
                      if clone.rows_at(h))
        clone.retract_block(height)
        assert not responses_identical(tampered,
                                       MevQueryService(clone))

    def test_query_less_walk_compares_every_page(self, batch_query,
                                                 monkeypatch):
        """``/v1/mev`` has no query string, so its cursor pages must be
        ``/v1/mev?cursor=…``: a divergence on its last page (page >= 3)
        alone must fail the rule, and no page may answer 404."""
        import repro.serve.service as service_module
        from tests.serve.test_store import rebuild_by_hand
        monkeypatch.setattr(service_module, "DEFAULT_PAGE", 20)
        store = batch_query.store
        total = len(store.page(limit=10**6)[0])
        assert total > 2 * 20  # the walk reaches a third page
        clone = rebuild_by_hand(store)
        clone.set_quality(store.coverage()["quality"])
        lo, hi = clone.bounds()
        last = max(h for h in range(lo, hi + 1) if clone.rows_at(h))
        assert total - len(clone.rows_at(last)) >= 2 * 20
        clone.retract_block(last)

        handled = []

        class Recording(MevQueryService):
            def handle(self, target, if_none_match=None):
                response = super().handle(target, if_none_match)
                handled.append((target, response.status))
                return response

        assert responses_identical(Recording(store), Recording(store),
                                   targets=["/v1/mev"])
        pages = [t for t, _ in handled if t.startswith("/v1/mev")]
        assert len(pages) == 2 * -(-total // 20)
        assert all(status == 200 for _, status in handled)
        assert not responses_identical(MevQueryService(store),
                                       MevQueryService(clone),
                                       targets=["/v1/mev"])


class RetractionProbe(StreamSubscriber):
    """Record per-height ETags as blocks land; checked on retraction."""

    def __init__(self, service):
        self.service = service
        self.etags = {}
        self.checked = 0

    def block_indexed(self, height, block_hash, rows):
        if rows:
            response = self.service.handle(f"/v1/blocks/{height}/mev")
            assert response.status == 200
            self.etags[height] = response.etag

    def block_retracted(self, height, block_hash, rows_retracted):
        if not rows_retracted:
            return
        stale_etag = self.etags.pop(height)
        # The retraction must supersede atomically: the very next read
        # is fresh content under a fresh ETag, and revalidating the
        # stale ETag misses (200, not 304).
        response = self.service.handle(f"/v1/blocks/{height}/mev")
        assert response.status == 200
        assert response.etag != stale_etag
        assert response.json["count"] == 0
        conditional = self.service.handle(
            f"/v1/blocks/{height}/mev", if_none_match=stale_etag)
        assert conditional.status == 200
        self.checked += 1


class TestLiveSupersede:
    def test_retractions_supersede_served_rows_mid_stream(
            self, sim_result, plan):
        engine, feed = follow_engine(sim_result, fault_plan=plan)
        service = live_service(engine)
        probe = RetractionProbe(service)
        engine.subscribe(probe)
        engine.run(feed)
        assert probe.checked > 0  # rows were actually superseded


class TestErrorPaths:
    @pytest.mark.parametrize("target,status", [
        ("/v2/blocks/1/mev", 404),
        ("/v1/blocks/5", 404),
        ("/v1/blocks/abc/mev", 400),
        ("/v1/leaderboards/validators", 404),
        ("/v1/mev?limit=0", 400),
        ("/v1/mev?limit=abc", 400),
        ("/v1/mev?cursor=bogus", 400),
        ("/v1/mev?from=abc", 400),
    ])
    def test_status_codes(self, batch_query, target, status):
        response = batch_query.handle(target)
        assert response.status == status
        assert response.json["status"] == status
        assert "error" in response.json

    def test_missing_block_is_an_empty_200(self, batch_query):
        _, hi = batch_query.store.bounds()
        response = batch_query.handle(f"/v1/blocks/{hi + 99}/mev")
        assert response.status == 200
        assert response.json == {"block": hi + 99, "count": 0,
                                 "rows": []}

    def test_status_endpoint_is_never_cached(self, batch_query):
        first = batch_query.handle("/v1/status")
        assert first.status == 200 and first.etag is None
        body = first.json
        assert {"generation", "digest", "rows", "counters"} \
            <= set(body)


class TestConditionalRequests:
    def test_etag_roundtrip(self, batch_query):
        fresh = batch_query.handle("/v1/aggregates/table1")
        assert fresh.status == 200 and fresh.etag
        revalidated = batch_query.handle(
            "/v1/aggregates/table1", if_none_match=fresh.etag)
        assert revalidated.status == 304
        assert revalidated.body == b""
        missed = batch_query.handle(
            "/v1/aggregates/table1", if_none_match='"deadbeef"')
        assert missed.status == 200
        assert missed.body == fresh.body
