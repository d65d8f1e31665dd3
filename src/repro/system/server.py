"""The cloud server: 2 coprocessors + 3 Arm cores (paper Fig. 11).

The paper reserves one Arm application core per coprocessor and a third
core for networking and DDR/DMA arbitration (Xilinx mutex IP prevents
simultaneous DMA requests). This module models that system at the job
level: each homomorphic request pays its ciphertext transfers and its
coprocessor compute time, coprocessors run in parallel, and the scheduler
dispatches to the earliest-free instance — reproducing the paper's "two
Mult operations take roughly the same time as one" and the 400 Mult/s
headline.

The per-job costs live in :class:`CostModel`, which the discrete-event
runtime in :mod:`repro.serve` prices every job with;
:meth:`CloudServer.serve` runs a job list through that runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hw.config import HardwareConfig
from ..hw.coprocessor import Coprocessor
from ..hw.dma import DmaModel
from ..hw.isa import Opcode
from ..params import ParameterSet
from .arm import ArmCoreModel
from .workloads import Job, JobKind


class CostModel:
    """Per-job service cost of the Fig. 11 server (transfers + compute).

    Derives Mult/Add latencies from the coprocessor's instruction cycle
    model and the DMA transfer model, caching the cycle model and the
    per-kind compute times so repeated pricing (the event engine asks on
    every dispatch) costs a dictionary lookup.
    """

    def __init__(self, params: ParameterSet,
                 config: HardwareConfig | None = None) -> None:
        self.params = params
        self.config = config or HardwareConfig()
        self.dma = DmaModel(self.config)
        # One functional coprocessor is enough to derive the per-op
        # latencies; the scheduler replicates its timing N times.
        self.reference = Coprocessor(params, self.config)
        self._cycle_model: dict[Opcode, int] | None = None
        self._compute_cache: dict[JobKind, float] = {}

    def instruction_cycle_model(self) -> dict[Opcode, int]:
        """The Table II cycle model, built once and shared by all ops."""
        if self._cycle_model is None:
            self._cycle_model = self.reference.instruction_cycle_model()
        return self._cycle_model

    # -- transfers ---------------------------------------------------------------------

    def transfer_in_seconds(self, num_operands: int = 2) -> float:
        return self.dma.send_ciphertexts_seconds(self.params.poly_bytes,
                                                 num_operands)

    def transfer_out_seconds(self) -> float:
        return self.dma.receive_ciphertext_seconds(self.params.poly_bytes)

    # -- compute -----------------------------------------------------------------------

    def mult_compute_seconds(self) -> float:
        """Modelled Mult latency (includes relin key streaming)."""
        if JobKind.MULT not in self._compute_cache:
            from ..hw.compiler import expected_table2_calls

            model = self.instruction_cycle_model()
            calls = expected_table2_calls(self.params, self.config)
            cycles = sum(
                model[op] * count for op, count in calls.items()
                if op in model
            )
            # Digit broadcasts.
            digit_cycles = (self.params.n // 2
                            + self.config.stage_sync_overhead)
            cycles += calls[Opcode.DIGIT] * digit_cycles
            seconds = cycles / self.config.fpga_clock_hz
            # Relinearisation key streaming.
            if not self.config.relin_key_on_chip:
                per_component = 2 * (
                    self.dma.transfer_seconds(self.params.poly_bytes)
                    + self.dma.arm_setup_seconds
                )
                seconds += calls[Opcode.LOAD_RLK] * per_component
            self._compute_cache[JobKind.MULT] = seconds
        return self._compute_cache[JobKind.MULT]

    def add_compute_seconds(self) -> float:
        if JobKind.ADD not in self._compute_cache:
            model = self.instruction_cycle_model()
            self._compute_cache[JobKind.ADD] = (
                2 * model[Opcode.CADD] / self.config.fpga_clock_hz
            )
        return self._compute_cache[JobKind.ADD]

    def rotate_compute_seconds(self) -> float:
        """Modelled Galois rotation (slot-rotate + key switch).

        The permutation runs on the memory-rearrange datapath (two
        polynomial passes); the key switch is the relinearisation
        sum-of-products with the same RNS digit structure: k_q digit
        NTTs, 2 k_q coefficient multiplies/accumulates, two inverse
        transforms — plus streaming the k_q-component Galois key from
        DDR when relinearisation keys are not resident on chip.
        """
        if JobKind.ROTATE not in self._compute_cache:
            model = self.instruction_cycle_model()
            k = self.params.k_q
            cycles = (2 * model[Opcode.REARRANGE]
                      + k * model[Opcode.NTT]
                      + 2 * model[Opcode.INTT]
                      + 2 * k * (model[Opcode.CMUL] + model[Opcode.CADD]))
            cycles += k * (self.params.n // 2
                           + self.config.stage_sync_overhead)
            seconds = cycles / self.config.fpga_clock_hz
            if not self.config.relin_key_on_chip:
                per_component = 2 * (
                    self.dma.transfer_seconds(self.params.poly_bytes)
                    + self.dma.arm_setup_seconds
                )
                seconds += k * per_component
            self._compute_cache[JobKind.ROTATE] = seconds
        return self._compute_cache[JobKind.ROTATE]

    def mul_plain_compute_seconds(self) -> float:
        """Ciphertext x plaintext multiply: 3 NTT + 2 CMUL + 2 INTT."""
        if JobKind.MUL_PLAIN not in self._compute_cache:
            model = self.instruction_cycle_model()
            cycles = (3 * model[Opcode.NTT] + 2 * model[Opcode.CMUL]
                      + 2 * model[Opcode.INTT])
            self._compute_cache[JobKind.MUL_PLAIN] = (
                cycles / self.config.fpga_clock_hz
            )
        return self._compute_cache[JobKind.MUL_PLAIN]

    def relin_compute_seconds(self) -> float:
        """The relinearisation keyswitch on its own (deferred ReLin).

        Same digit structure as the rotation keyswitch — k_q digit
        NTTs, 2 k_q multiply/accumulates, two inverse transforms and
        the key streaming — without the rotation's two memory-rearrange
        passes.
        """
        if JobKind.RELIN not in self._compute_cache:
            model = self.instruction_cycle_model()
            k = self.params.k_q
            cycles = (k * model[Opcode.NTT]
                      + 2 * model[Opcode.INTT]
                      + 2 * k * (model[Opcode.CMUL] + model[Opcode.CADD]))
            cycles += k * (self.params.n // 2
                           + self.config.stage_sync_overhead)
            seconds = cycles / self.config.fpga_clock_hz
            if not self.config.relin_key_on_chip:
                per_component = 2 * (
                    self.dma.transfer_seconds(self.params.poly_bytes)
                    + self.dma.arm_setup_seconds
                )
                seconds += k * per_component
            self._compute_cache[JobKind.RELIN] = seconds
        return self._compute_cache[JobKind.RELIN]

    def mult_raw_compute_seconds(self) -> float:
        """Mult without its relinearisation tail (tensor + scale only).

        Modelled as the full Mult minus the deferred-ReLin keyswitch it
        no longer performs, floored at the Add cost so an aggressive
        config cannot price it negative.
        """
        if JobKind.MULT_RAW not in self._compute_cache:
            self._compute_cache[JobKind.MULT_RAW] = max(
                self.mult_compute_seconds()
                - self.relin_compute_seconds(),
                self.add_compute_seconds(),
            )
        return self._compute_cache[JobKind.MULT_RAW]

    def compute_seconds(self, kind: JobKind) -> float:
        if kind is JobKind.MULT:
            return self.mult_compute_seconds()
        if kind is JobKind.ROTATE:
            return self.rotate_compute_seconds()
        if kind is JobKind.MUL_PLAIN:
            return self.mul_plain_compute_seconds()
        if kind is JobKind.MULT_RAW:
            return self.mult_raw_compute_seconds()
        if kind is JobKind.RELIN:
            return self.relin_compute_seconds()
        return self.add_compute_seconds()

    def job_seconds(self, kind: JobKind) -> float:
        """Full coprocessor occupancy of one job: in + compute + out."""
        return (self.transfer_in_seconds() + self.compute_seconds(kind)
                + self.transfer_out_seconds())

    def job_seconds_of(self, job: Job) -> float:
        """Occupancy of one concrete job, honouring its real byte sizes.

        Falls back to the canonical Table I shape (4 polynomial bursts
        in, 2 out) when the job carries no per-op transfer footprint, so
        plain MULT/ADD streams price exactly as :meth:`job_seconds`.
        """
        if job.polys_in is None and job.polys_out is None:
            return self.job_seconds(job.kind)
        poly_bytes = self.params.poly_bytes
        polys_in = 4 if job.polys_in is None else job.polys_in
        polys_out = 2 if job.polys_out is None else job.polys_out
        transfer_in = (self.dma.polynomial_job_seconds(poly_bytes, polys_in)
                       if polys_in else 0.0)
        transfer_out = (self.dma.polynomial_job_seconds(poly_bytes, polys_out)
                        if polys_out else 0.0)
        return transfer_in + self.compute_seconds(job.kind) + transfer_out


@dataclass(frozen=True)
class JobResult:
    """Completion record of one scheduled job."""

    job: Job
    coprocessor: int
    start_seconds: float
    finish_seconds: float

    @property
    def latency_seconds(self) -> float:
        return self.finish_seconds - self.job.arrival_seconds


@dataclass
class ServeReport:
    """Timing summary of one workload run."""

    results: list[JobResult] = field(default_factory=list)

    @property
    def first_arrival_seconds(self) -> float:
        return min((r.job.arrival_seconds for r in self.results),
                   default=0.0)

    @property
    def last_finish_seconds(self) -> float:
        return max((r.finish_seconds for r in self.results), default=0.0)

    @property
    def makespan_seconds(self) -> float:
        """Busy interval of the run, measured from the *first arrival*.

        Open-loop streams (e.g. Poisson) may not deliver their first job
        at t=0; measuring from t=0 would dilute the throughput of every
        such run by the initial idle gap.
        """
        if not self.results:
            return 0.0
        return self.last_finish_seconds - self.first_arrival_seconds

    def throughput_per_second(self, kind: JobKind | None = None) -> float:
        jobs = [r for r in self.results
                if kind is None or r.job.kind is kind]
        if not jobs or self.makespan_seconds == 0:
            return 0.0
        return len(jobs) / self.makespan_seconds

    @property
    def mean_latency_seconds(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.latency_seconds for r in self.results) / len(self.results)


class CloudServer:
    """The Arm+FPGA homomorphic computing server."""

    def __init__(self, params: ParameterSet,
                 config: HardwareConfig | None = None) -> None:
        self.params = params
        self.config = config or HardwareConfig()
        self.cost = CostModel(params, self.config)
        self.dma = self.cost.dma
        self.reference = self.cost.reference
        self.arm = ArmCoreModel(self.config)

    # -- per-job costs (delegated to the shared CostModel) -----------------------------

    def transfer_in_seconds(self, num_operands: int = 2) -> float:
        return self.cost.transfer_in_seconds(num_operands)

    def transfer_out_seconds(self) -> float:
        return self.cost.transfer_out_seconds()

    def mult_compute_seconds(self) -> float:
        return self.cost.mult_compute_seconds()

    def add_compute_seconds(self) -> float:
        return self.cost.add_compute_seconds()

    def job_seconds(self, kind: JobKind) -> float:
        return self.cost.job_seconds(kind)

    # -- scheduling --------------------------------------------------------------------

    def serve(self, jobs: list[Job]) -> ServeReport:
        """Dispatch jobs FIFO to the earliest-free coprocessor.

        The Fig. 11 reproduction run through the discrete-event
        :class:`repro.serve.ServingRuntime` with its defaults (FIFO, no
        batching); use the runtime directly for queueing policies,
        tenant contention, batching and admission control.
        """
        # Imported here: repro.serve builds on this module.
        from ..serve.engine import simulate

        return simulate(self, jobs)

    # -- headline numbers --------------------------------------------------------------

    def mult_throughput_per_second(self) -> float:
        """The paper's 400-Mult/s claim (both coprocessors busy)."""
        return self.config.num_coprocessors / self.job_seconds(JobKind.MULT)

    def add_speedup_over_sw(self) -> float:
        """Table I: Add in SW / Add in HW (incl. transfers) ~ 80x."""
        hw = self.job_seconds(JobKind.ADD)
        sw = self.arm.add_in_sw_seconds(self.params)
        return sw / hw
