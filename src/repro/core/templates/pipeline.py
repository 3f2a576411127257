"""The ``pipeline`` parallel template strategy — the 2-D pipelined wavefront.

This is the heart of the SWEEP3D model (the paper's ``pipeline`` parallel
template object, Figure 6).  Work is organised as blocks — one per
(octant, angle-block, k-block) — flowing through the ``Px x Py`` processor
array from the octant's origin corner.  For every block a processor

1. waits for (and receives) the incoming east-west and north-south face
   messages from its upstream neighbours,
2. computes the block's serial work, and
3. sends its outgoing faces to its downstream neighbours,

exactly the structure expressed by the template's ``stage`` procedure.

The strategy evaluates the resulting dependency DAG *exactly*: per-rank
finish times obey the recurrence

    start(r, b)  = max(finish(r, b-1), arrival_ew(r, b), arrival_ns(r, b))
    finish(r, b) = start(r, b) + recv costs + work + send costs

where ``arrival`` times are the upstream neighbours' post times plus the
one-way delivery cost fitted from the ping-pong benchmark.  Two bit-identical
numpy evaluations step over each block's anti-diagonals
(:meth:`PipelineStrategy.evaluate`, the interpreted engine's path) or over the
hyperplanes ``k + a + b`` of each octant pair's wavefront of blocks
(:meth:`PipelineStrategy.evaluate_fast`, the compiled path), so the
8000-processor speculative study of Section 6 evaluates in under a second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Mapping

import numpy as np

from repro.core.hmcl.model import HardwareModel
from repro.core.templates.base import (
    StageSpec,
    TemplateResult,
    require_float,
    require_int,
)
from repro.errors import EvaluationError
from repro.sweep3d.geometry import octant_order


@dataclass(frozen=True)
class _StageCosts:
    """Per-stage cost constants derived from the stage spec and hardware model."""

    work: float
    recv_ew: float
    recv_ns: float
    send_ew: float
    send_ns: float
    delivery_ew: float
    delivery_ns: float


@lru_cache(maxsize=64)
def _layout(npe_i: int, npe_j: int) -> tuple:
    """An array's ranks in sweep space ``(a, b)``, sorted by ``a + b`` (shared: read only).

    Returns ``(a, b, starts, down_ew, down_ns, ranks)``: ``starts[s]`` is the
    first position with ``a + b == s``; ``down_*`` are the positions of
    ``(a + 1, b)`` and ``(a, b + 1)``, or the sentinel ``len(a)`` at the edge;
    ``ranks[idir, jdir]`` maps positions to machine order ``i * npe_j + j``.
    """
    a, b = np.divmod(np.arange(npe_i * npe_j), npe_j)
    order = np.argsort(a + b, kind="stable")
    a, b = a[order], b[order]
    position = np.full((npe_i + 1, npe_j + 1), a.size)
    position[a, b] = np.arange(a.size)
    ranks = {(idir, jdir): ((a if idir > 0 else npe_i - 1 - a) * npe_j
                            + (b if jdir > 0 else npe_j - 1 - b))
             for idir in (-1, 1) for jdir in (-1, 1)}
    starts = np.searchsorted(a + b, np.arange(npe_i + npe_j)).tolist()
    return a, b, starts, position[a + 1, b], position[a, b + 1], ranks


class PipelineStrategy:
    """Exact DAG evaluation of the pipelined synchronous wavefront."""

    name = "pipeline"

    # ------------------------------------------------------------------

    def evaluate(self, variables: Mapping[str, float | str], stage: StageSpec,
                 hardware: HardwareModel) -> TemplateResult:
        npe_i = require_int(variables, "npe_i", minimum=1)
        npe_j = require_int(variables, "npe_j", minimum=1)
        n_k_blocks = require_int(variables, "n_k_blocks", minimum=1)
        n_angle_blocks = require_int(variables, "n_angle_blocks", minimum=1)

        costs = self._stage_costs(variables, stage, hardware)
        blocks_per_octant = n_k_blocks * n_angle_blocks
        octants = octant_order()

        finish = np.zeros((npe_i, npe_j))
        for octant in octants:
            si = 1 if octant.idir > 0 else -1
            sj = 1 if octant.jdir > 0 else -1
            # Views in "sweep space": index [0, 0] is the octant's origin corner.
            finish_view = finish[::si, ::sj]
            for _ in range(blocks_per_octant):
                self._advance_block(finish_view, costs, npe_i, npe_j)

        total = float(finish.max())
        return self._result(total, costs, npe_i, npe_j, 8 * blocks_per_octant)

    def evaluate_fast(self, variables: Mapping[str, float | str], stage: StageSpec,
                      hardware: HardwareModel) -> TemplateResult:
        """Hyperplane evaluation (the compiled pipeline's path).

        In an octant pair's wavefront, cell (block k, rank (a, b)) needs only
        hyperplane ``k + a + b - 1``.  Edge ranks pay 0.0 recv/send costs, read
        a 0.0 arrival and post to a sentinel; as times are >= 0, ``max(t, 0.0)``
        and ``t + 0.0`` are ``t``, so each cell repeats :meth:`evaluate` bit for bit.
        """
        npe_i = require_int(variables, "npe_i", minimum=1)
        npe_j = require_int(variables, "npe_j", minimum=1)
        n_k_blocks = require_int(variables, "n_k_blocks", minimum=1)
        n_angle_blocks = require_int(variables, "n_angle_blocks", minimum=1)

        costs = self._stage_costs(variables, stage, hardware)
        blocks_per_octant = n_k_blocks * n_angle_blocks
        a, b, starts, down_ew, down_ns, ranks = _layout(npe_i, npe_j)
        n, last_sum = a.size, npe_i + npe_j - 2
        recv_ew = np.where(a > 0, costs.recv_ew, 0.0)
        recv_ns = np.where(b > 0, costs.recv_ns, 0.0)
        send_ew = np.where(down_ew < n, costs.send_ew, 0.0)
        send_ns = np.where(down_ns < n, costs.send_ns, 0.0)

        finish = np.zeros(n)      # machine order: rank (i, j) at i * npe_j + j
        for (idir, jdir), octants in groupby(octant_order(),
                                             key=lambda o: (o.idir, o.jdir)):
            blocks = len(list(octants)) * blocks_per_octant
            state = finish[ranks[idir, jdir]]
            arrival_ew, arrival_ns = np.zeros(n + 1), np.zeros(n + 1)
            for plane in range(blocks + last_sum):
                lo = starts[max(0, plane - blocks + 1)]
                hi = starts[min(plane, last_sum) + 1]
                t = np.maximum(state[lo:hi], arrival_ew[lo:hi]) + recv_ew[lo:hi]
                t = np.maximum(t, arrival_ns[lo:hi]) + recv_ns[lo:hi]
                t += costs.work
                arrival_ew[down_ew[lo:hi]] = t + costs.delivery_ew
                t += send_ew[lo:hi]
                arrival_ns[down_ns[lo:hi]] = t + costs.delivery_ns
                t += send_ns[lo:hi]
                state[lo:hi] = t
            finish[ranks[idir, jdir]] = state

        total = float(finish.max())
        return self._result(total, costs, npe_i, npe_j, 8 * blocks_per_octant)

    def _result(self, total: float, costs: _StageCosts,
                npe_i: int, npe_j: int, total_blocks: int) -> TemplateResult:
        compute = costs.work * total_blocks
        overhead = self._interior_stage_overhead(costs, npe_i, npe_j)
        return TemplateResult(
            time=total,
            compute_time=compute,
            communication_time=max(0.0, total - compute),
            details={
                "blocks_per_iteration": float(total_blocks),
                "work_per_block": costs.work,
                "stage_overhead": overhead * total_blocks,
                "pipeline_fill": max(0.0, total - total_blocks * (costs.work + overhead)),
                "npe_i": float(npe_i),
                "npe_j": float(npe_j),
            },
        )

    # ------------------------------------------------------------------

    def _stage_costs(self, variables: Mapping[str, float | str], stage: StageSpec,
                     hardware: HardwareModel) -> _StageCosts:
        work = stage.cpu_seconds
        if work == 0.0:
            work = require_float(variables, "work", default=0.0, minimum=0.0)
        for value in [step.number("time", 0.0) for step in stage.by_device("cpu")] + [work]:
            if not (math.isfinite(value) and value >= 0.0):
                raise EvaluationError(f"pipeline stage cpu time must be finite and >= 0: {value}")

        recv_ew = recv_ns = send_ew = send_ns = 0.0
        delivery_ew = delivery_ns = 0.0
        ew_bytes = require_float(variables, "ew_bytes", default=0.0, minimum=0.0)
        ns_bytes = require_float(variables, "ns_bytes", default=0.0, minimum=0.0)

        recv_steps = stage.recv_steps()
        send_steps = stage.send_steps()
        if not recv_steps and not send_steps:
            raise EvaluationError(
                "pipeline template stage defines no mpirecv/mpisend steps; "
                "the wavefront needs its east-west and north-south messages")

        for step in recv_steps:
            direction = step.text("direction", "ew")
            nbytes = step.number("bytes", ew_bytes if direction == "ew" else ns_bytes)
            cost = hardware.mpi.recv_cost(nbytes)
            if direction == "ew":
                recv_ew += cost
                delivery_ew = hardware.mpi.delivery_cost(nbytes)
            else:
                recv_ns += cost
                delivery_ns = hardware.mpi.delivery_cost(nbytes)
        for step in send_steps:
            direction = step.text("direction", "ew")
            nbytes = step.number("bytes", ew_bytes if direction == "ew" else ns_bytes)
            cost = hardware.mpi.send_cost(nbytes)
            if direction == "ew":
                send_ew += cost
                if delivery_ew == 0.0:
                    delivery_ew = hardware.mpi.delivery_cost(nbytes)
            else:
                send_ns += cost
                if delivery_ns == 0.0:
                    delivery_ns = hardware.mpi.delivery_cost(nbytes)

        return _StageCosts(work=work, recv_ew=recv_ew, recv_ns=recv_ns,
                           send_ew=send_ew, send_ns=send_ns,
                           delivery_ew=delivery_ew, delivery_ns=delivery_ns)

    @staticmethod
    def _interior_stage_overhead(costs: _StageCosts, npe_i: int, npe_j: int) -> float:
        """Communication overhead an interior rank pays per block."""
        overhead = 0.0
        if npe_i > 1:
            overhead += costs.recv_ew + costs.send_ew
        if npe_j > 1:
            overhead += costs.recv_ns + costs.send_ns
        return overhead

    # ------------------------------------------------------------------

    @staticmethod
    def _advance_block(finish_view: np.ndarray, costs: _StageCosts,
                       npe_i: int, npe_j: int) -> None:
        """Advance every rank's finish time by one block of this octant.

        ``finish_view`` is oriented so index ``[0, 0]`` is the sweep origin;
        it is updated in place.  Arrival arrays hold the virtual time at
        which the upstream neighbour's message for *this* block reaches each
        rank.
        """
        arrival_ew = np.zeros((npe_i, npe_j))
        arrival_ns = np.zeros((npe_i, npe_j))

        for diag in range(npe_i + npe_j - 1):
            a_lo = max(0, diag - (npe_j - 1))
            a_hi = min(npe_i - 1, diag)
            a_idx = np.arange(a_lo, a_hi + 1)
            b_idx = diag - a_idx

            t = finish_view[a_idx, b_idx]
            has_up_ew = a_idx > 0
            has_up_ns = b_idx > 0
            if has_up_ew.any():
                t = np.where(has_up_ew,
                             np.maximum(t, arrival_ew[a_idx, b_idx]) + costs.recv_ew, t)
            if has_up_ns.any():
                t = np.where(has_up_ns,
                             np.maximum(t, arrival_ns[a_idx, b_idx]) + costs.recv_ns, t)
            t = t + costs.work

            has_dn_ew = a_idx < npe_i - 1
            if has_dn_ew.any():
                arrival_ew[a_idx[has_dn_ew] + 1, b_idx[has_dn_ew]] = (
                    t[has_dn_ew] + costs.delivery_ew)
                t = np.where(has_dn_ew, t + costs.send_ew, t)
            has_dn_ns = b_idx < npe_j - 1
            if has_dn_ns.any():
                arrival_ns[a_idx[has_dn_ns], b_idx[has_dn_ns] + 1] = (
                    t[has_dn_ns] + costs.delivery_ns)
                t = np.where(has_dn_ns, t + costs.send_ns, t)

            finish_view[a_idx, b_idx] = t

    # ------------------------------------------------------------------

    def reference_evaluate(self, variables: Mapping[str, float | str], stage: StageSpec,
                           hardware: HardwareModel) -> TemplateResult:
        """Straightforward (slow) per-rank evaluation used to cross-check the
        vectorised recurrence in the test suite."""
        npe_i = require_int(variables, "npe_i", minimum=1)
        npe_j = require_int(variables, "npe_j", minimum=1)
        n_k_blocks = require_int(variables, "n_k_blocks", minimum=1)
        n_angle_blocks = require_int(variables, "n_angle_blocks", minimum=1)
        costs = self._stage_costs(variables, stage, hardware)

        finish = {(i, j): 0.0 for i in range(npe_i) for j in range(npe_j)}
        for octant in octant_order():
            for _ in range(n_k_blocks * n_angle_blocks):
                arrival_ew: dict[tuple[int, int], float] = {}
                arrival_ns: dict[tuple[int, int], float] = {}
                order = sorted(
                    finish,
                    key=lambda rc: ((rc[0] if octant.idir > 0 else npe_i - 1 - rc[0])
                                    + (rc[1] if octant.jdir > 0 else npe_j - 1 - rc[1])))
                for (i, j) in order:
                    t = finish[(i, j)]
                    up_i = (i - octant.idir, j)
                    up_j = (i, j - octant.jdir)
                    if 0 <= up_i[0] < npe_i:
                        t = max(t, arrival_ew[(i, j)]) + costs.recv_ew
                    if 0 <= up_j[1] < npe_j:
                        t = max(t, arrival_ns[(i, j)]) + costs.recv_ns
                    t += costs.work
                    dn_i = (i + octant.idir, j)
                    dn_j = (i, j + octant.jdir)
                    if 0 <= dn_i[0] < npe_i:
                        arrival_ew[dn_i] = t + costs.delivery_ew
                        t += costs.send_ew
                    if 0 <= dn_j[1] < npe_j:
                        arrival_ns[dn_j] = t + costs.delivery_ns
                        t += costs.send_ns
                    finish[(i, j)] = t
        total = max(finish.values())
        total_blocks = 8 * n_k_blocks * n_angle_blocks
        compute = costs.work * total_blocks
        return TemplateResult(time=total, compute_time=compute,
                              communication_time=max(0.0, total - compute))
