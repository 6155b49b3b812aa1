"""The live asyncio engine: real runs, wall deadlines, drain invariant."""

import asyncio

import pytest

from repro.faults.service import ServiceChaos
from repro.service.manifest import (
    build_service_manifest,
    validate_service_manifest,
)
from repro.service.request import preset_request
from repro.service.server import AsyncService, ServiceConfig


def serve(coro_fn):
    """Run one service session on a fresh event loop."""
    return asyncio.run(coro_fn())


# Generous deadlines: CI boxes stall unpredictably, and these tests pin
# behaviour (verdicts, accounting), not latency.
SLACK_S = 60.0


class TestHappyPath:
    def test_submit_runs_and_memoizes(self):
        async def session():
            service = AsyncService(ServiceConfig(workers=2))
            await service.start()
            request = preset_request("small", deadline_s=SLACK_S, seed=4001)
            first = await service.submit(request)
            second = await service.submit(request)
            await service.drain()
            return service, first, second

        service, first, second = serve(session)
        assert first["verdict"] == "ok"
        assert first["summary"]["phase_time_s"] > 0.0
        assert second["verdict"] == "memoized"
        # The memo hit serves the identical summary (digest-keyed).
        assert second["summary"] == first["summary"]
        assert service.core.counts["ok"] == 1
        assert service.core.counts["memoized"] == 1

    def test_distinct_executors_run_independently(self):
        async def session():
            service = AsyncService(ServiceConfig(workers=2))
            await service.start()
            verdicts = await asyncio.gather(
                service.submit(
                    preset_request("small", deadline_s=SLACK_S, seed=4002)
                ),
                service.submit(
                    preset_request(
                        "small",
                        version="ompss_perfft",
                        deadline_s=SLACK_S,
                        seed=4002,
                    )
                ),
            )
            await service.drain()
            return service, verdicts

        service, verdicts = serve(session)
        assert [v["verdict"] for v in verdicts] == ["ok", "ok"]
        assert service.core.counts["ok"] == 2


class TestDeadlines:
    # A zeroed cost model admits everything: the admission layer is blind,
    # so a hopeless deadline must be caught downstream — exactly the
    # mispricing scenario the in-run cancellation hook exists for.
    MISPRICED = ServiceConfig(workers=1, overhead_s=0.0, per_unit_s=0.0)

    def test_hopeless_deadline_expires_not_hangs(self):
        async def session():
            service = AsyncService(self.MISPRICED)
            await service.start()
            # The large preset runs for tens of milliseconds even with warm
            # process caches, so a 1 ms budget always expires mid-run.
            verdict = await service.submit(
                preset_request("large", deadline_s=0.001, seed=4003)
            )
            await service.drain()
            return service, verdict

        service, verdict = serve(session)
        assert verdict["verdict"] == "expired"
        assert service.core.counts["expired"] == 1
        assert service.core.counts["ok"] == 0

    def test_expiry_keeps_accounting_conserved(self):
        async def session():
            service = AsyncService(self.MISPRICED)
            await service.start()
            requests = [
                preset_request("medium", deadline_s=0.002, seed=4100 + i)
                for i in range(3)
            ]
            await asyncio.gather(*(service.submit(r) for r in requests))
            await service.drain()
            return service

        service = serve(session)
        c = service.core.counts
        served = c["ok"] + c["batched"] + c["expired"] + c["failed"] + c["memoized"]
        assert c["accepted"] == served


class TestDrainInvariant:
    def test_zero_accepted_then_lost(self):
        async def session():
            service = AsyncService(ServiceConfig(workers=2, max_queue_depth=8))
            await service.start()
            requests = [
                preset_request("small", deadline_s=SLACK_S, seed=4200 + i)
                for i in range(10)
            ]
            tasks = [asyncio.create_task(service.submit(r)) for r in requests]
            await asyncio.sleep(0)  # let submissions enter the queue
            await asyncio.gather(*tasks)
            await service.drain()
            return service

        service = serve(session)
        c = service.core.counts
        assert c["submitted"] == 10
        served = c["ok"] + c["batched"] + c["expired"] + c["failed"] + c["memoized"]
        assert c["accepted"] == served
        # Every record reached a terminal verdict.
        assert len(service.core.records) == c["submitted"]

    def test_submissions_after_drain_are_shed_shutdown(self):
        async def session():
            service = AsyncService(ServiceConfig())
            await service.start()
            await service.drain()
            verdict = await service.submit(
                preset_request("small", deadline_s=SLACK_S, seed=4300)
            )
            return service, verdict

        service, verdict = serve(session)
        assert verdict == {"verdict": "shed", "reason": "shutdown"}
        assert service.core.shed_reasons["shutdown"] == 1


class TestChaosRetries:
    def test_service_injected_failures_retry_with_bumped_seeds(self):
        chaos = ServiceChaos(name="flaky", seed=3, failure_rate=0.45)

        async def session():
            service = AsyncService(
                ServiceConfig(workers=2, retry_base_backoff_s=0.001), chaos=chaos
            )
            await service.start()
            requests = [
                preset_request("small", deadline_s=SLACK_S, seed=4400 + i)
                for i in range(8)
            ]
            verdicts = await asyncio.gather(*(service.submit(r) for r in requests))
            await service.drain()
            return service, verdicts

        service, verdicts = serve(session)
        c = service.core.counts
        assert c["retries"] >= 1
        # Retried-then-ok requests report > 1 attempt in their records.
        multi = [r for r in service.core.records if r["attempts"] > 1]
        assert multi
        served = c["ok"] + c["batched"] + c["expired"] + c["failed"] + c["memoized"]
        assert c["accepted"] == served


class TestLiveManifest:
    @pytest.fixture(scope="class")
    def drained_service(self):
        async def session():
            service = AsyncService(ServiceConfig(workers=2))
            await service.start()
            request = preset_request("small", deadline_s=SLACK_S, seed=4500)
            await service.submit(request)
            await service.submit(request)  # memo food
            report = await service.drain()
            return service, report

        return serve(session)

    def test_live_manifest_validates(self, drained_service):
        service, report = drained_service
        manifest = build_service_manifest(
            service.core, load={}, stable=False, slo=report
        )
        assert validate_service_manifest(manifest) == []
        assert manifest["slo"]["served"] == 2

    def test_live_manifest_exports_plan_cache_counters(self, drained_service):
        # Satellite pin: live service manifests export the FFT plan LRU's
        # process-wide hit/miss counters as warmth diagnostics.  Only the
        # reference kernels build mixed-radix plans, so run one and check
        # the manifest reflects the live counters.
        import numpy as np

        from repro.fft import cfft3d
        from repro.fft.plan import plan_cache_stats

        service, report = drained_service
        before = plan_cache_stats()
        cfft3d(np.ones((6, 6, 6), dtype=np.complex128), 1)
        manifest = build_service_manifest(
            service.core, load={}, stable=False, slo=report
        )
        cache = manifest["plan_cache"]
        assert set(cache) >= {"hits", "misses", "evictions", "size"}
        assert cache["hits"] + cache["misses"] > before["hits"] + before["misses"]
        assert cache == plan_cache_stats()

    def test_slo_report_shape(self, drained_service):
        _service, report = drained_service
        assert report["served"] == 2
        assert report["requests_per_s"] > 0.0
        # Memo hits are served instantly and excluded from latency samples
        # (they would skew the percentiles toward zero); one real run.
        assert report["latency"]["count"] == 1
        assert report["counts"]["submitted"] == 2
