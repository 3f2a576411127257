"""Background-job lifecycle: submit → running → done/failed/cancelled."""

import asyncio
import threading

import pytest

import repro.api as api
from repro.errors import ServiceError
from repro.service.jobs import JobManager
from repro.experiments.study import StudyResult


def tiny_spec():
    """A prediction-only study that runs in well under a second."""
    return api.build_spec("scaling", processor_counts=(1,))


class TestLifecycle:
    def test_submit_runs_to_done_bit_identical(self, tmp_path):
        spec = tiny_spec()
        direct = api.run_study(spec, context=api.default_context()).to_dict()

        async def main():
            manager = JobManager(api.default_context(),
                                 artifact_root=tmp_path)
            record = await manager.submit(spec)
            assert record.state in ("queued", "running")
            assert record.job_id.startswith("job-0001-")
            await record.task
            return record, manager

        record, manager = asyncio.run(main())
        assert record.state == "done"
        assert record.error is None
        remote = record.result.to_dict()
        assert remote["rows"] == direct["rows"]
        assert remote["spec_hash"] == direct["spec_hash"]
        path, files, manifest = manager.artifacts(record)
        assert "manifest.json" in files
        assert manifest is not None
        assert record.artifact_dir.name == record.job_id

    def test_smoke_submission_reduces_the_grid(self):
        async def main():
            manager = JobManager(api.default_context())
            record = await manager.submit(api.build_spec("scaling"),
                                          smoke=True)
            await record.task
            return record

        record = asyncio.run(main())
        assert record.state == "done"
        # The scaling smoke grid is (1, 16): two points, not five.
        assert len(record.result.rows) == 2

    def test_failure_is_reported_not_raised(self):
        async def main():
            manager = JobManager(api.default_context())
            manager._execute = lambda record: (_ for _ in ()).throw(
                RuntimeError("study exploded"))
            record = await manager.submit(tiny_spec())
            await record.task
            return record

        record = asyncio.run(main())
        assert record.state == "failed"
        assert "study exploded" in record.error
        assert record.result is None


class TestCancellation:
    def test_queued_job_cancels_before_running(self, tmp_path):
        async def main():
            manager = JobManager(api.default_context(),
                                 artifact_root=tmp_path)
            release = threading.Event()

            def blocking_execute(record):
                release.wait(10)
                return (StudyResult(spec=record.spec, payload=None), None)

            manager._execute = blocking_execute
            first = await manager.submit(tiny_spec())
            second = await manager.submit(tiny_spec())
            # Let the first job take the single run slot.
            while first.state != "running":
                await asyncio.sleep(0.001)
            assert second.state == "queued"
            record, honoured = await manager.cancel(second.job_id)
            assert honoured
            assert record.state == "cancelled"
            release.set()
            await first.task
            assert first.state == "done"
            return manager

        manager = asyncio.run(main())
        assert manager.counts() == {"done": 1, "cancelled": 1}

    def test_running_job_cancel_is_recorded_not_honoured(self):
        async def main():
            manager = JobManager(api.default_context())
            started = threading.Event()
            release = threading.Event()

            def blocking_execute(record):
                started.set()
                release.wait(10)
                return (StudyResult(spec=record.spec, payload=None), None)

            manager._execute = blocking_execute
            record = await manager.submit(tiny_spec())
            while not started.is_set():
                await asyncio.sleep(0.001)
            cancelled_record, honoured = await manager.cancel(record.job_id)
            assert not honoured
            assert cancelled_record.state == "running"
            assert cancelled_record.cancel_requested
            release.set()
            await record.task
            return record

        record = asyncio.run(main())
        assert record.state == "done"


class TestLookup:
    def test_unknown_job_raises_404(self):
        async def main():
            manager = JobManager(api.default_context())
            with pytest.raises(ServiceError) as exc_info:
                manager.get("job-9999-deadbeef")
            assert exc_info.value.status == 404

        asyncio.run(main())

    def test_artifacts_refused_until_done(self, tmp_path):
        async def main():
            manager = JobManager(api.default_context(),
                                 artifact_root=tmp_path)
            release = threading.Event()

            def blocking_execute(record):
                release.wait(10)
                return (StudyResult(spec=record.spec, payload=None), None)

            manager._execute = blocking_execute
            record = await manager.submit(tiny_spec())
            with pytest.raises(ServiceError) as exc_info:
                manager.artifacts(record)
            assert exc_info.value.status == 409
            release.set()
            await record.task

        asyncio.run(main())

    def test_records_in_submission_order(self):
        async def main():
            manager = JobManager(api.default_context())
            first = await manager.submit(tiny_spec())
            second = await manager.submit(tiny_spec())
            await asyncio.gather(first.task, second.task)
            return manager, first, second

        manager, first, second = asyncio.run(main())
        assert [record.job_id for record in manager.records()] \
            == [first.job_id, second.job_id]
