"""GPU device specifications and the per-node cost model.

Stands in for the paper's hardware fleet (Titan Xp / Titan V / RTX 2080 Ti)
plus its measurement tools (nvprof kernel times and DRAM counters, CUDA API
tracing). Absolute times are calibrated to the published ballpark; the
experiments compare *ratios*, which derive from arithmetic intensity, bytes
moved, and kernel-launch counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph import Node
from repro.gpumodel.gemm import estimate_gemm

#: CPU-side cost of one cudaLaunch (driver + framework dispatch), seconds.
#: The paper-era MXNet spends ~5-10us per launch; Figure 6/7 hinge on this.
_LAUNCH_OVERHEAD_SECONDS = 5.5e-6

#: GPU-side fixed cost of a non-GEMM kernel (scheduling, tail), seconds.
_KERNEL_FIXED_SECONDS = 1.2e-6

#: DRAM-latency "wave" per bandwidth-bound kernel: a kernel must have this
#: many bytes in flight before the memory system reaches peak bandwidth,
#: so small kernels run at a fraction of peak. This is what makes training
#: throughput keep growing with batch size (Figure 4b) — bigger batches
#: amortize the wave, bigger kernels saturate DRAM.
_BANDWIDTH_WAVE_BYTES = 512 * 1024

#: The *host* roofline: what one numpy kernel costs in wall-clock on the
#: CPU that actually runs the compiled plan. Fixed, deliberately round
#: numbers measured on the 2-core CI-class host (single-threaded OpenBLAS
#: sgemm 95-115 GFLOP/s from 64^3 to 512^3; ``np.add`` 22-48 GB/s,
#: ``np.tanh`` ~17 GB/s of operand traffic; ~1.5 us of interpreter work
#: per kernel call). Only the wavefront gate reads it, and only to compare
#: a level's saving with a thread hand-off, so a factor of two either way
#: moves no decision that matters.
_HOST_DISPATCH_SECONDS = 1.5e-6
_HOST_BYTES_PER_SECOND = 20e9
_HOST_FLOPS_PER_SECOND = 100e9


@dataclass(frozen=True)
class DeviceSpec:
    """Static hardware parameters of one GPU."""

    name: str
    architecture: str
    peak_flops: float  # FP32, FLOP/s
    dram_bandwidth: float  # B/s
    dram_capacity: int  # bytes
    l2_bytes: int
    num_sms: int
    idle_power_watts: float
    max_power_watts: float


TITAN_XP = DeviceSpec(
    name="Titan Xp",
    architecture="Pascal",
    peak_flops=12.15e12,
    dram_bandwidth=547.6e9,
    dram_capacity=12 * 1024**3,
    l2_bytes=3 * 1024**2,
    num_sms=30,
    idle_power_watts=55.0,
    max_power_watts=250.0,
)

TITAN_V = DeviceSpec(
    name="Titan V",
    architecture="Volta",
    peak_flops=14.90e12,
    dram_bandwidth=652.8e9,
    dram_capacity=12 * 1024**3,
    l2_bytes=4608 * 1024,
    num_sms=80,
    idle_power_watts=60.0,
    max_power_watts=250.0,
)

RTX_2080_TI = DeviceSpec(
    name="RTX 2080 Ti",
    architecture="Turing",
    peak_flops=13.45e12,
    dram_bandwidth=616.0e9,
    dram_capacity=11 * 1024**3,
    l2_bytes=5632 * 1024,
    num_sms=68,
    idle_power_watts=55.0,
    max_power_watts=260.0,
)

ALL_DEVICES = (TITAN_XP, TITAN_V, RTX_2080_TI)


@dataclass(frozen=True)
class KernelCost:
    """Simulated cost of executing one node."""

    kernel_seconds: float
    api_seconds: float
    dram_bytes: int
    launches: int


class DeviceModel:
    """Costs graph nodes on a :class:`DeviceSpec` (roofline + launch model)."""

    def __init__(self, spec: DeviceSpec = TITAN_XP) -> None:
        self.spec = spec

    def __repr__(self) -> str:
        return f"DeviceModel({self.spec.name})"

    @property
    def cache_token(self) -> tuple:
        """Hashable identity of this model's *answers*.

        Two devices with equal tokens price every node identically, so the
        token can key caches of cost-derived results (Echo analyses,
        autotune entries). Calibrated models extend it with their
        calibration epoch — see :mod:`repro.pgo.calibrated`.
        """
        return (self.spec.name, "analytic")

    # -- node costing --------------------------------------------------------

    def node_cost(self, node: Node) -> KernelCost:
        op = node.op
        launches = op.launch_count(node)
        api_seconds = launches * _LAUNCH_OVERHEAD_SECONDS

        if op.name in ("placeholder", "variable", "constant"):
            return KernelCost(0.0, 0.0, 0, 0)

        gemm_dims = getattr(op, "gemm_dims", None)
        if gemm_dims is not None:
            m, n, k = gemm_dims(node)
            batch = node.inputs[0].shape[0] if op.name == "batch_dot" else 1
            est = estimate_gemm(
                self.spec.peak_flops,
                self.spec.dram_bandwidth,
                self.spec.l2_bytes,
                m,
                n,
                k,
                batch=batch,
            )
            return KernelCost(est.seconds, api_seconds, est.dram_bytes, launches)

        nbytes = op.bytes_accessed(node)
        if nbytes == 0 and launches == 0:
            return KernelCost(0.0, 0.0, 0, 0)  # views (reshape/expand_dims)

        efficiency = getattr(op, "memory_efficiency", lambda _n: 1.0)(node)
        t_memory = (nbytes + _BANDWIDTH_WAVE_BYTES) / (
            self.spec.dram_bandwidth * efficiency
        )
        t_compute = op.flops(node) / (self.spec.peak_flops * 0.5)
        kernel_seconds = max(t_memory, t_compute) + launches * _KERNEL_FIXED_SECONDS
        return KernelCost(kernel_seconds, api_seconds, nbytes, launches)

    def predict_host_seconds(self, node: Node) -> float:
        """Predicted *host* wall-clock of one node's numpy kernel(s).

        A fixed roofline over the op's own cost hooks — nothing here
        depends on the simulated GPU. Calibrated models answer from
        measured records first (:mod:`repro.pgo.calibrated`).
        """
        op = node.op
        if op.name in ("placeholder", "variable", "constant"):
            return 0.0
        launches = op.launch_count(node)
        nbytes = op.bytes_accessed(node)
        if nbytes == 0 and launches == 0:
            return 0.0  # views
        return launches * _HOST_DISPATCH_SECONDS + max(
            nbytes / _HOST_BYTES_PER_SECOND,
            op.flops(node) / _HOST_FLOPS_PER_SECOND,
        )

    def gemm_estimate(self, m: int, n: int, k: int, batch: int = 1):
        """Direct GEMM query (used by the Figure 9 layout microbenchmark)."""
        return estimate_gemm(
            self.spec.peak_flops,
            self.spec.dram_bandwidth,
            self.spec.l2_bytes,
            m,
            n,
            k,
            batch=batch,
        )

    # -- power / energy -------------------------------------------------------

    def power_watts(self, busy_fraction: float) -> float:
        """Average board power at the given kernel-busy duty cycle."""
        busy = min(max(busy_fraction, 0.0), 1.0)
        # Training keeps clocks boosted; dynamic power scales mildly with
        # duty cycle, which is why the paper measures near-flat power
        # across configurations (Figure 19a).
        return (
            self.spec.idle_power_watts
            + (self.spec.max_power_watts - self.spec.idle_power_watts)
            * (0.55 + 0.45 * busy)
        )

    def energy_joules(self, busy_fraction: float, seconds: float) -> float:
        return self.power_watts(busy_fraction) * seconds
