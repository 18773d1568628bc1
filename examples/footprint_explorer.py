"""Explore how far Echo pushes the batch-size / model-size envelope.

Answers the capacity-planning questions of Section 6.2.2 on the simulated
12 GiB Titan Xp: for the paper's primary NMT setting, what is the largest
batch that fits with and without Echo, and how does the footprint move
across hidden dimensions? (This is the Figure 16 study as an interactive
tool rather than a benchmark.)

Run:  python examples/footprint_explorer.py
"""

from dataclasses import replace

from repro.experiments import (
    DEFAULT,
    ECHO,
    ZHU_T50,
    format_table,
    gib,
    max_fitting_batch,
    measure_nmt,
)
from repro.gpumodel import TITAN_XP


def main() -> None:
    setting = ZHU_T50
    print(f"device: {TITAN_XP.name} "
          f"({TITAN_XP.dram_capacity / 2**30:.0f} GiB)\n")

    # -- largest fitting batch, Default vs Echo -----------------------------
    rows = []
    for variant in (DEFAULT, ECHO):
        best = max_fitting_batch(setting, variant)
        m = measure_nmt(setting.with_batch_size(best), variant)
        rows.append(
            (variant.label, best, round(gib(m.total_bytes), 2),
             round(m.throughput, 1))
        )
    print(format_table(
        ["implementation", "max batch", "GiB at max", "samples/s"],
        rows,
        f"largest fitting batch (H={setting.hidden_size}, "
        f"T={setting.src_len})",
    ))

    # -- footprint across hidden dimensions ---------------------------------
    print()
    rows = []
    for hidden in (256, 512, 768, 1024):
        cfg = replace(setting, hidden_size=hidden, embed_size=hidden)
        base = measure_nmt(cfg, DEFAULT)
        echo = measure_nmt(cfg, ECHO)
        rows.append((
            hidden,
            round(gib(base.total_bytes), 2),
            round(gib(echo.total_bytes), 2),
            round(base.total_bytes / echo.total_bytes, 2),
            "Default OOM" if not base.fits_in_memory else "",
        ))
    print(format_table(
        ["hidden", "Default GiB", "Echo GiB", "reduction", "note"],
        rows,
        "footprint vs hidden dimension (B=128)",
    ))

    # -- where does the saved memory come from? -----------------------------
    base = measure_nmt(setting, DEFAULT)
    echo = measure_nmt(setting, ECHO)
    print()
    print(base.memory.format("breakdown, Default"))
    print()
    print(echo.memory.format("breakdown, Echo"))

    # -- the footprint sawtooth, before and after ---------------------------
    from repro.echo import optimize
    from repro.models import build_nmt
    from repro.nn import Backend
    from repro.profiler import compare_timelines
    from repro.runtime import TrainingExecutor

    small = replace(setting, src_len=30, tgt_len=30, batch_size=32,
                    backend=Backend.CUDNN)
    model = build_nmt(small)
    before = TrainingExecutor(model.graph).memory_plan
    optimize(model.graph)
    after = TrainingExecutor(model.graph).memory_plan
    print()
    print("footprint over one iteration (forward ramps the stash up, the")
    print("boundary is the peak, backward drains it; Echo flattens the ramp):")
    print(compare_timelines(before, after))

    # -- buffer planner: how tight is the packing? -------------------------
    # Orthogonal to Echo: the lowered plan elides copies into alias
    # bindings, rewrites last-use elementwise outputs in place, and packs
    # every surviving buffer's live interval into one contiguous extent.
    # The planned peak (max live bytes at any instruction) is the lower
    # bound; the gap to the extent is fragmentation the packer left.
    from repro.runtime import PlanCache

    print()
    plan = TrainingExecutor(
        build_nmt(small).graph, plan_cache=PlanCache(store=None)
    ).executor.plan
    print(format_table(
        ["planned peak MiB", "packed extent MiB", "copies elided",
         "in-place writes"],
        [(
            round(plan.planned_peak_bytes / 2**20, 2),
            round(plan.packed_extent_bytes / 2**20, 2),
            plan.elided_copy_count,
            plan.inplace_write_count,
        )],
        f"buffer planner (T=30, B=32): packing efficiency "
        f"{plan.planned_peak_bytes / max(plan.packed_extent_bytes, 1):.0%}",
    ))


if __name__ == "__main__":
    main()
