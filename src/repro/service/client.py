"""A stdlib synchronous client for the prediction service.

One :class:`ServiceClient` per server address; each call opens a short
``http.client`` connection, sends the typed wire message and returns the
decoded typed response.  Server-reported failures re-raise as
:class:`~repro.errors.ServiceError` carrying the server's status code;
transport failures raise :class:`ServiceError` with status 503.

The client is thread-safe by construction (no connection state is
shared between calls), so event-loop tests can drive it through
``run_in_executor`` against an in-process server.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Mapping

from repro.errors import ProtocolError, ServiceError
from repro.service.protocol import (
    ErrorResponse,
    HealthResponse,
    JobArtifactsResponse,
    JobCancelResponse,
    JobListResponse,
    JobResultResponse,
    JobStatusResponse,
    PredictRequest,
    PredictResponse,
    SimulateRequest,
    SimulateResponse,
    StatsResponse,
    StudySubmitRequest,
    decode_response,
    encode,
)
from repro.service.jobs import TERMINAL_STATES


class ServiceClient:
    """Typed access to a running prediction service."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 timeout: float = 120.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------

    def _request(self, method: str, path: str, message=None):
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=self.timeout)
        try:
            body = None
            headers = {}
            if message is not None:
                body = json.dumps(encode(message)).encode("utf-8")
                headers["Content-Type"] = "application/json"
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                payload = response.read()
            except (OSError, http.client.HTTPException) as exc:
                raise ServiceError(
                    f"cannot reach service at {self.host}:{self.port}: {exc}",
                    status=503) from exc
        finally:
            connection.close()
        try:
            decoded = decode_response(json.loads(payload))
        except (ValueError, ProtocolError) as exc:
            raise ServiceError(
                f"service returned an unreadable response: {exc}",
                status=502) from exc
        if isinstance(decoded, ErrorResponse):
            raise ServiceError(decoded.error, status=decoded.status)
        return decoded

    # ------------------------------------------------------------------

    def predict(self, machine: str, px: int, py: int,
                deck: str = "validation",
                iterations: int = 12) -> PredictResponse:
        return self._request("POST", "/v1/predict",
                             PredictRequest(machine=machine, px=px, py=py,
                                            deck=deck, iterations=iterations))

    def simulate(self, machine: str, px: int, py: int,
                 deck: str = "validation", iterations: int = 12,
                 with_noise: bool = True, seed: int = 0,
                 samples: int = 0) -> SimulateResponse:
        return self._request(
            "POST", "/v1/simulate",
            SimulateRequest(machine=machine, px=px, py=py, deck=deck,
                            iterations=iterations, with_noise=with_noise,
                            seed=seed, samples=samples))

    def submit_study(self, spec: Any, smoke: bool = False) -> JobStatusResponse:
        """Submit a study name, spec mapping or ``StudySpec``."""
        if hasattr(spec, "to_dict"):
            spec = spec.to_dict()
        if not isinstance(spec, (str, Mapping)):
            raise ServiceError(
                "'spec' must be a study name, a spec mapping or a StudySpec")
        return self._request("POST", "/v1/studies",
                             StudySubmitRequest(spec=spec, smoke=smoke))

    def status(self, job_id: str) -> JobStatusResponse:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> JobListResponse:
        return self._request("GET", "/v1/jobs")

    def result(self, job_id: str) -> JobResultResponse:
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def artifacts(self, job_id: str) -> JobArtifactsResponse:
        return self._request("GET", f"/v1/jobs/{job_id}/artifacts")

    def cancel(self, job_id: str) -> JobCancelResponse:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def health(self) -> HealthResponse:
        return self._request("GET", "/v1/health")

    def stats(self) -> StatsResponse:
        return self._request("GET", "/v1/stats")

    def wait(self, job_id: str, timeout: float = 600.0,
             poll_s: float = 0.1) -> JobStatusResponse:
        """Poll until the job reaches a terminal state (or raise on timeout)."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status.state in TERMINAL_STATES:
                return status
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {status.state} after {timeout} s",
                    status=504)
            time.sleep(poll_s)
