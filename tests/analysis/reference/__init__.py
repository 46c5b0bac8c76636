"""The static passes as they were before the shared block walker.

``dataflow``, ``dispatcher``, ``storage``, ``returns`` and
``mutability`` are frozen copies of the five passes from before
:mod:`repro.analysis.walker` existed, each with its own hand-rolled
abstract stack machine: a top-first list, ``pop(0)``/``insert(0, …)``
stacks and ``op.name`` string tests on every instruction.  ``lint``
keeps the lint pass's checks as they were.  The product classes are
imported from ``src``, so a reference product compares equal to a
production one exactly when every field does.

:func:`reference_pipeline` is the default pipeline with these passes in
place of the production ones (``cfg``, ``stack`` and ``reach`` are
shared); ``tests/analysis/test_walker_differential.py`` compares
against it.  Do not edit these modules to follow a production change:
they are the fixed point the production passes must keep matching.
"""

from repro.analysis.framework import DEFAULT_PIPELINE, AnalysisPass, AnalysisPipeline

from . import dataflow, dispatcher, lint, mutability, returns, storage


def reference_pipeline() -> AnalysisPipeline:
    """``DEFAULT_PIPELINE`` over the frozen reference passes."""
    runs = {
        "jumps": lambda ctx: dataflow.resolve_jumps(ctx["cfg"]),
        "dispatcher": lambda ctx: dispatcher.extract_dispatch(ctx["jumps"]),
        "storage": lambda ctx: storage.recover_storage_layout(
            ctx["jumps"], ctx["dispatcher"]
        ),
        "mutability": lambda ctx: mutability.classify_mutability(
            ctx["jumps"], ctx["dispatcher"], ctx["reach"]
        ),
        "returns": lambda ctx: returns.recover_returns(
            ctx["jumps"], ctx["dispatcher"], ctx["reach"]
        ),
        "lint": lambda ctx: lint.lint_findings(
            ctx.bytecode, ctx["jumps"], ctx["stack"], ctx["dispatcher"],
            storage=ctx["storage"],
        ),
    }
    return DEFAULT_PIPELINE.replace(**{
        name: AnalysisPass(
            name, DEFAULT_PIPELINE.get(name).version, run,
            DEFAULT_PIPELINE.get(name).requires,
        )
        for name, run in runs.items()
    })
