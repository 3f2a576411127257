"""PredictionService: tiered caching, bit-identity, dispatch routing."""

import asyncio
import json

import pytest

import repro.api as api
from repro.errors import ServiceError
from repro.service import protocol
from repro.service.core import PredictionService, ResultLRU
from repro.service.http import HttpRequest
from repro.service.protocol import (
    HealthRequest,
    PredictRequest,
    SimulateRequest,
)

MACHINE = "pentium3-myrinet"


def run_with_service(main, **kwargs):
    """Run an async test body against a fresh service on a fresh loop."""

    async def wrapper():
        service = PredictionService(**kwargs)
        try:
            return await main(service)
        finally:
            service.close()

    return asyncio.run(wrapper())


def post(path, message):
    body = json.dumps(protocol.encode(message)).encode()
    return HttpRequest(method="POST", target=path, body=body)


class TestResultLRU:
    def test_hits_misses_and_recency(self):
        lru = ResultLRU(maxsize=2)
        assert lru.get("a") is None
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # "a" is now the most recent entry
        lru.put("c", 3)  # evicts "b", the least recent
        assert lru.get("b") is None
        assert lru.get("a") == 1
        assert lru.get("c") == 3
        stats = lru.as_dict()
        assert stats["hits"] == 3
        assert stats["misses"] == 2
        assert stats["evictions"] == 1
        assert stats["size"] == 2

    def test_maxsize_zero_disables_the_tier(self):
        lru = ResultLRU(maxsize=0)
        lru.put("a", 1)
        assert lru.get("a") is None
        assert len(lru) == 0

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ServiceError):
            ResultLRU(maxsize=-1)


class TestBitIdentity:
    def test_predict_matches_direct_api_call(self):
        direct = api.predict(MACHINE, 2, 2, iterations=2)

        async def main(service):
            return await service.predict(PredictRequest(
                machine=MACHINE, px=2, py=2, iterations=2))

        response = run_with_service(main)
        assert response.total_time == direct.total_time
        assert response.compute_time == direct.compute_time
        assert response.communication_time == direct.communication_time
        assert response.source == "computed"

    def test_simulate_matches_direct_api_call_including_seed(self):
        direct = api.simulate(MACHINE, 2, 2, iterations=1, seed_offset=3)

        async def main(service):
            return await service.simulate(SimulateRequest(
                machine=MACHINE, px=2, py=2, iterations=1, seed=3))

        response = run_with_service(main)
        assert response.elapsed_time == direct.elapsed_time
        assert response.total_messages == direct.total_messages
        assert response.seed == 3

    def test_new_seed_of_a_served_configuration_replays(self, monkeypatch):
        from repro.sweep3d.driver import SimulationPlan

        records = []
        record_trace = SimulationPlan._record_trace

        def counted(plan, deck):
            records.append(deck.max_iterations)
            return record_trace(plan, deck)

        monkeypatch.setattr(SimulationPlan, "_record_trace", counted)

        async def main(service):
            return [await service.simulate(SimulateRequest(
                machine=MACHINE, px=2, py=2, iterations=1, seed=seed))
                for seed in range(3)]

        responses = run_with_service(main)
        assert [r.source for r in responses] == ["computed"] * 3
        assert len(records) == 1              # seeds 1 and 2 replay
        monkeypatch.undo()
        for seed, response in enumerate(responses):
            assert response.elapsed_time == api.simulate(
                MACHINE, 2, 2, iterations=1, seed_offset=seed).elapsed_time

    def test_warm_repeat_is_served_from_memory(self):
        async def main(service):
            request = PredictRequest(machine=MACHINE, px=2, py=2,
                                     iterations=2)
            cold = await service.predict(request)
            warm = await service.predict(request)
            return cold, warm, service.lru.as_dict()

        cold, warm, lru = run_with_service(main)
        assert cold.source == "computed"
        assert warm.source == "memory"
        assert warm.total_time == cold.total_time
        assert lru["hits"] == 1

    def test_concurrent_identical_predicts_coalesce(self):
        async def main(service):
            request = PredictRequest(machine=MACHINE, px=2, py=2,
                                     iterations=2)
            responses = await asyncio.gather(
                *(service.predict(request) for _ in range(4)))
            return responses, service.coalescer.stats

        responses, stats = run_with_service(main, window_s=0.01)
        assert len({r.total_time for r in responses}) == 1
        assert stats.requests == 4
        assert stats.unique == 1
        assert stats.coalesced == 3
        assert stats.batches == 1


class TestDiskTier:
    def test_second_service_hits_the_persistent_cache(self, tmp_path):
        cache_dir = tmp_path / "sweep-cache"

        async def cold(service):
            return await service.simulate(SimulateRequest(
                machine=MACHINE, px=2, py=2, iterations=1))

        first = run_with_service(cold, cache_dir=cache_dir)
        cache = api.default_context().cache_for(cache_dir)
        before = cache.stats_snapshot()

        async def warm(service):
            # This instance's LRU is empty: the request must fall through
            # to the disk tier, not recompute.
            return await service.simulate(SimulateRequest(
                machine=MACHINE, px=2, py=2, iterations=1))

        second = run_with_service(warm, cache_dir=cache_dir)
        after = cache.stats_snapshot()
        assert second.elapsed_time == first.elapsed_time
        assert after.hits == before.hits + 1


class TestValidation:
    def test_geometry_must_be_positive_integers(self):
        async def main(service):
            with pytest.raises(ServiceError, match="'px'"):
                await service.predict(PredictRequest(
                    machine=MACHINE, px=0, py=2))
            with pytest.raises(ServiceError, match="'py'"):
                await service.predict(PredictRequest(
                    machine=MACHINE, px=2, py=True))

        run_with_service(main)


class TestDispatch:
    def test_get_health_is_200(self):
        async def main(service):
            return await service.dispatch(
                HttpRequest(method="GET", target="/v1/health"))

        status, payload = run_with_service(main)
        assert status == 200
        response = protocol.decode_response(payload)
        assert response.status == "ok"
        assert "table1" in response.studies

    def test_unknown_path_is_404(self):
        async def main(service):
            return await service.dispatch(
                HttpRequest(method="GET", target="/v1/teleport"))

        status, payload = run_with_service(main)
        assert status == 404
        assert "teleport" in payload["error"]

    def test_unsupported_method_is_405(self):
        async def main(service):
            return await service.dispatch(
                HttpRequest(method="DELETE", target="/v1/health"))

        status, _ = run_with_service(main)
        assert status == 405

    def test_wrong_message_type_for_endpoint_is_400(self):
        async def main(service):
            return await service.dispatch(post("/v1/predict",
                                               HealthRequest()))

        status, payload = run_with_service(main)
        assert status == 400
        assert "expects" in payload["error"]

    def test_unknown_machine_is_400_not_500(self):
        async def main(service):
            return await service.dispatch(post(
                "/v1/predict",
                PredictRequest(machine="cray-ymp", px=2, py=2)))

        status, payload = run_with_service(main)
        assert status == 400
        assert "cray-ymp" in payload["error"]

    def test_unknown_job_is_404(self):
        async def main(service):
            return await service.dispatch(
                HttpRequest(method="GET", target="/v1/jobs/job-9999-nope"))

        status, _ = run_with_service(main)
        assert status == 404

    def test_round_trip_predict_over_dispatch(self):
        direct = api.predict(MACHINE, 2, 2, iterations=2)

        async def main(service):
            return await service.dispatch(post(
                "/v1/predict",
                PredictRequest(machine=MACHINE, px=2, py=2, iterations=2)))

        status, payload = run_with_service(main)
        assert status == 200
        response = protocol.decode_response(payload)
        assert response.total_time == direct.total_time

    def test_errors_are_counted_in_stats(self):
        async def main(service):
            await service.dispatch(
                HttpRequest(method="GET", target="/v1/teleport"))
            status, payload = await service.dispatch(
                HttpRequest(method="GET", target="/v1/stats"))
            return status, protocol.decode_response(payload)

        status, stats = run_with_service(main)
        assert status == 200
        assert stats.requests.get("errors") == 1
