"""Lint CLI: run every analyzer over the benchmark model plans.

Usage::

    python -m repro.analysis.lint                        # all models
    python -m repro.analysis.lint --model nmt --json
    python -m repro.analysis.lint --model word-lm --no-echo
    python -m repro.analysis.lint --strict --ignore IR006,EC306
    python -m repro.analysis.lint --equiv --strict       # + certification
    python -m repro.analysis.lint --list-codes           # code catalog

For each selected model the tool builds the training graph (at a reduced
benchmark-scale configuration), optionally runs the Echo pass so the
recompute checker has mirrored regions to verify, compiles the plan, and
runs the analyzers (``--equiv`` adds the symbolic equivalence
certifier). Exit status is 1 when any *error*-severity
finding survives ``--ignore`` (``--strict`` also fails on warnings), so
CI can gate on it. ``--json`` emits one machine-readable report object
per model on stdout, deduplicated and stable-sorted so equal runs are
byte-identical and CI diffs are meaningful.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Any, Callable, Sequence

from repro.analysis.findings import CODES, AnalysisReport
from repro.analysis.verify import verify_plan

#: model name -> builder returning (TrainingGraph, description). Builders
#: are thunks so `--model nmt` does not import the other models' modules.
_MODELS: dict[str, Callable[[], tuple[Any, str]]] = {}


def _register(name: str):
    def deco(fn):
        _MODELS[name] = fn
        return fn

    return deco


@_register("nmt")
def _build_nmt():
    from repro.models.nmt import NmtConfig, build_nmt

    config = NmtConfig(
        src_vocab_size=80,
        tgt_vocab_size=80,
        embed_size=24,
        hidden_size=24,
        encoder_layers=1,
        decoder_layers=1,
        src_len=8,
        tgt_len=8,
        batch_size=4,
    )
    model = build_nmt(config)
    return model.graph, "NMT (1+1 layers, len 8, batch 4)"


@_register("word-lm")
def _build_word_lm():
    from repro.models.word_lm import WordLmConfig, build_word_lm

    # dropout > 0 puts RNG nodes in the graph, exercising the EC303
    # determinism check on the mirrored regions Echo creates.
    config = WordLmConfig(
        vocab_size=200,
        embed_size=32,
        hidden_size=32,
        num_layers=2,
        seq_len=12,
        batch_size=4,
        dropout=0.1,
    )
    model = build_word_lm(config)
    return model.graph, "word-LM (2 layers, len 12, dropout 0.1)"


@_register("deepspeech")
def _build_deepspeech():
    from repro.models.deepspeech import DeepSpeechConfig, build_deepspeech

    config = DeepSpeechConfig(
        feat_dim=20,
        num_frames=30,
        conv_channels=8,
        hidden_size=32,
        num_layers=1,
        max_label_len=6,
        batch_size=2,
    )
    model = build_deepspeech(config)
    return model.graph, "DeepSpeech (1 layer, 30 frames, batch 2)"


@contextlib.contextmanager
def _guard_suppressed():
    """Temporarily disarm the REPRO_VERIFY compile-time guard.

    The lint CLI *is* the verifier: it must compile even a broken plan
    and report findings through its own exit status, not die inside the
    plan cache's assert when the environment happens to arm the guard.
    """
    saved = os.environ.pop("REPRO_VERIFY", None)
    try:
        yield
    finally:
        if saved is not None:
            os.environ["REPRO_VERIFY"] = saved


def list_codes() -> str:
    """One table of every analyzer code, from the single CODES registry.

    The registry is the source of truth the analyzers themselves build
    findings from (:func:`repro.analysis.findings.finding` looks up the
    default severity there), so this listing cannot drift from behavior.
    """
    lines = [f"{'code':6s} {'severity':8s} meaning",
             f"{'-' * 6} {'-' * 8} {'-' * 7}"]
    for code in sorted(CODES):
        severity, meaning = CODES[code]
        lines.append(f"{code:6s} {severity.value:8s} {meaning}")
    return "\n".join(lines)


def lint_model(
    name: str,
    echo: bool = True,
    equiv: bool = False,
) -> AnalysisReport:
    """Build one benchmark model, compile its plan, run all analyzers."""
    graph, _desc = _MODELS[name]()
    from repro.runtime.arena import Arena
    from repro.runtime.plancache import PlanCache

    plan_cache = PlanCache()
    with _guard_suppressed():
        if echo:
            from repro.echo.pass_ import EchoPass

            EchoPass(plan_cache=plan_cache).run(graph)
        outputs = graph.outputs
        order = plan_cache.schedule_for(outputs)
        plan = plan_cache.compiled_for(outputs, Arena(), order=order)
    sources = [*graph.placeholders.values(), *graph.params.values()]
    return verify_plan(
        plan,
        outputs=outputs,
        order=order,
        sources=sources,
        equiv=equiv,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="statically verify benchmark model plans",
    )
    parser.add_argument(
        "--model",
        choices=(*sorted(_MODELS), "all"),
        default="all",
        help="which benchmark model to lint (default: all)",
    )
    parser.add_argument(
        "--echo",
        dest="echo",
        action="store_true",
        default=True,
        help="run the Echo pass before linting (default)",
    )
    parser.add_argument(
        "--no-echo",
        dest="echo",
        action="store_false",
        help="lint the un-rewritten graph",
    )
    parser.add_argument(
        "--equiv",
        action="store_true",
        help="additionally run the symbolic equivalence certifier (EQ6xx)",
    )
    parser.add_argument(
        "--list-codes",
        action="store_true",
        help="print the finding-code catalog and exit",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON reports",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings too, not just errors",
    )
    parser.add_argument(
        "--ignore",
        default="",
        metavar="CODES",
        help="comma-separated finding codes to suppress (triaged-benign)",
    )
    args = parser.parse_args(argv)

    if args.list_codes:
        print(list_codes())
        return 0

    ignore = tuple(c.strip() for c in args.ignore.split(",") if c.strip())
    names = sorted(_MODELS) if args.model == "all" else [args.model]

    failed = False
    json_out: list[dict] = []
    for name in names:
        report = lint_model(
            name,
            echo=args.echo,
            equiv=args.equiv,
        )
        if ignore:
            report = report.without(ignore)
        bad = bool(report.errors) or (args.strict and report.warnings)
        failed = failed or bool(bad)
        if args.json:
            json_out.append({"model": name, **report.to_dict()})
        else:
            verdict = "FAIL" if bad else "ok"
            print(
                f"[{verdict}] {name}: {len(report.errors)} error(s), "
                f"{len(report.warnings)} warning(s)"
            )
            if report.findings:
                print(report.format())
    if args.json:
        print(json.dumps(json_out, indent=2, sort_keys=True))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
