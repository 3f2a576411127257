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
one-way delivery cost fitted from the ping-pong benchmark.  The recurrence
is evaluated over anti-diagonals of the processor array — with numpy
(:meth:`PipelineStrategy.evaluate`) or as its bit-identical scalar twin
(:meth:`PipelineStrategy.evaluate_fast`, the compiled path) — so the
8000-processor speculative study of Section 6 evaluates in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        """Scalar evaluation of the wavefront (the compiled pipeline's path).

        Performs **exactly** the same floating point operations as
        :meth:`evaluate`, in the same order, so the result is bit-identical —
        but the anti-diagonal recurrence runs as straight-line Python over
        the small per-rank state instead of numpy calls over tiny arrays,
        which is faster at every rank count the studies use (8000 ranks
        included).
        """
        npe_i = require_int(variables, "npe_i", minimum=1)
        npe_j = require_int(variables, "npe_j", minimum=1)
        n_k_blocks = require_int(variables, "n_k_blocks", minimum=1)
        n_angle_blocks = require_int(variables, "n_angle_blocks", minimum=1)

        costs = self._stage_costs(variables, stage, hardware)
        blocks_per_octant = n_k_blocks * n_angle_blocks

        finish = [[0.0] * npe_j for _ in range(npe_i)]
        for octant in octant_order():
            for _ in range(blocks_per_octant):
                self._advance_block_scalar(finish, costs, npe_i, npe_j,
                                           octant.idir, octant.jdir)

        total = max(max(row) for row in finish)
        return self._result(total, costs, npe_i, npe_j, 8 * blocks_per_octant)

    @staticmethod
    def _advance_block_scalar(finish: list, costs: _StageCosts,
                              npe_i: int, npe_j: int,
                              idir: int, jdir: int) -> None:
        """Scalar twin of :meth:`_advance_block` (same ops, same order).

        ``finish`` is a list of per-rank rows in machine orientation; the
        octant direction is applied through index mapping instead of a
        flipped view.
        """
        work = costs.work
        recv_ew, recv_ns = costs.recv_ew, costs.recv_ns
        send_ew, send_ns = costs.send_ew, costs.send_ns
        delivery_ew, delivery_ns = costs.delivery_ew, costs.delivery_ns
        last_a, last_b = npe_i - 1, npe_j - 1

        arrival_ew = [[0.0] * npe_j for _ in range(npe_i)]
        arrival_ns = [[0.0] * npe_j for _ in range(npe_i)]

        for diag in range(npe_i + npe_j - 1):
            a_lo = diag - last_b if diag > last_b else 0
            a_hi = last_a if last_a < diag else diag
            for a in range(a_lo, a_hi + 1):
                b = diag - a
                i = a if idir > 0 else last_a - a
                j = b if jdir > 0 else last_b - b
                row = finish[i]
                t = row[j]
                if a > 0:
                    arrival = arrival_ew[a][b]
                    t = (t if t > arrival else arrival) + recv_ew
                if b > 0:
                    arrival = arrival_ns[a][b]
                    t = (t if t > arrival else arrival) + recv_ns
                t = t + work
                if a < last_a:
                    arrival_ew[a + 1][b] = t + delivery_ew
                    t = t + send_ew
                if b < last_b:
                    arrival_ns[a][b + 1] = t + delivery_ns
                    t = t + send_ns
                row[j] = t

    def _result(self, total: float, costs: _StageCosts,
                npe_i: int, npe_j: int, total_blocks: int) -> TemplateResult:
        compute = costs.work * total_blocks
        per_rank_comm = self._interior_stage_overhead(costs, npe_i, npe_j) * total_blocks
        return TemplateResult(
            time=total,
            compute_time=compute,
            communication_time=max(0.0, total - compute),
            details={
                "blocks_per_iteration": float(total_blocks),
                "work_per_block": costs.work,
                "stage_overhead": per_rank_comm,
                "pipeline_fill": max(0.0, total - total_blocks
                                     * (costs.work + self._interior_stage_overhead(
                                         costs, npe_i, npe_j))),
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
