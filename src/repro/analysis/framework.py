"""The analysis pass manager: many clients, one pipeline.

The static layer started life with a single client (TASE fork pruning)
and a single hard-wired call chain.  It now serves several — pruning,
selector cross-checking, function-body memo keys, storage-layout
recovery, linting, contract profiles — so the chain is generalized into
an :class:`AnalysisPipeline` of declared :class:`AnalysisPass` steps:

* each pass names the products it **requires** and the one it
  **provides**, and the pipeline validates at construction time that
  every requirement is produced by an earlier pass (no hidden ordering
  assumptions);
* passes share one :class:`AnalysisContext` per bytecode, and a
  product is computed on first read — its pass runs then, after the
  passes it requires — so a client pays only for the products it
  reads, and each is computed at most once however many downstream
  passes read it (:meth:`AnalysisPipeline.run` is the eager "compute
  everything" call);
* each pass carries its own **schema version**.  What a pass *means*
  determines what the engine may prune and what a cached recovery
  contains, so the per-pass versions are folded into the persistent
  cache / function-memo fingerprint (:func:`pass_versions`,
  :mod:`repro.sigrec.cache`) — bumping one pass invalidates exactly the
  results that could depend on it;
* every pass runs under a :func:`repro.obs.phase_span`
  (``analysis.<name>`` spans and ``phase.seconds`` histograms), so a
  trace shows where static-analysis time goes per pass, not as one
  opaque blob; a pass run on demand nests under whatever span the
  reader had open.

The default pipeline (:data:`DEFAULT_PIPELINE`) is::

    cfg ──► jumps ──► stack
              ├─────► dispatcher ──► storage
              │           ├────────► reach ──► mutability
              │           │            └─────► returns
              └───────────┴──────────┴─────────────────► lint

Adding a pass is three steps: write ``run(ctx)`` reading its inputs via
``ctx["name"]``, wrap it in an :class:`AnalysisPass` with a version and
its requirements, and insert it into the pipeline (tests:
``tests/analysis/test_framework.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.obs import NULL_REGISTRY, NULL_TRACER, MetricsRegistry, SpanTracer, phase_span


class AnalysisContext:
    """Shared per-bytecode state: the input bytes plus pass products.

    Products are computed on demand: the first ``ctx[name]`` runs the
    named pass of the context's pipeline (its ``requires`` first) and
    keeps the result, so every later read is a dict lookup.  With no
    ``pipeline`` argument the context uses :func:`default_pipeline` as
    it stands at construction time.
    """

    __slots__ = ("bytecode", "products", "pipeline", "metrics", "tracer")

    def __init__(
        self,
        bytecode: bytes,
        pipeline: Optional["AnalysisPipeline"] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        self.bytecode = bytecode
        self.products: Dict[str, object] = {}
        self.pipeline = pipeline if pipeline is not None else default_pipeline()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def __getitem__(self, name: str) -> object:
        try:
            return self.products[name]
        except KeyError:
            pass
        pass_ = self.pipeline.get(name)
        if pass_ is None:
            raise KeyError(
                f"analysis product {name!r} not available; was the pass "
                "registered before its consumers?"
            )
        return self._compute(pass_)

    def __contains__(self, name: str) -> bool:
        """Whether ``name`` has been computed (reading it may compute it)."""
        return name in self.products

    def get(self, name: str) -> object:
        """The product ``name``, computed if needed; ``None`` when the
        pipeline has no such pass."""
        if name in self.products or self.pipeline.get(name) is not None:
            return self[name]
        return None

    def _compute(self, pass_: "AnalysisPass") -> object:
        # Requirements first, outside this pass's span: pass spans never
        # nest inside each other, so per-pass time stays self time.
        for requirement in pass_.requires:
            self[requirement]
        metrics = self.metrics
        if metrics is not NULL_REGISTRY or self.tracer is not NULL_TRACER:
            with phase_span(metrics, self.tracer, f"analysis.{pass_.name}"):
                product = pass_.run(self)
            metrics.counter("analysis.pass_runs", **{"pass": pass_.name}).inc()
        else:
            product = pass_.run(self)
        self.products[pass_.name] = product
        return product


@dataclass(frozen=True)
class AnalysisPass:
    """One static-analysis pass.

    ``version`` is the pass's schema version: bump it whenever the
    pass's semantics change in a way that affects what the engine may
    prune, what the linter reports, or what a profile contains.  The
    per-pass versions reach the persistent result cache and the
    function-body memo through :func:`pass_versions`, so a bump lands
    cached recoveries in a fresh tree instead of silently reusing stale
    ones.
    """

    name: str
    version: int
    run: Callable[[AnalysisContext], object]
    requires: Tuple[str, ...] = ()


class PipelineError(Exception):
    """A malformed pipeline: duplicate names or unsatisfied requires."""


class AnalysisPipeline:
    """An ordered, dependency-checked sequence of analysis passes."""

    def __init__(self, passes: Tuple[AnalysisPass, ...]) -> None:
        seen: set = set()
        for pass_ in passes:
            if pass_.name in seen:
                raise PipelineError(f"duplicate pass name {pass_.name!r}")
            for requirement in pass_.requires:
                if requirement not in seen:
                    raise PipelineError(
                        f"pass {pass_.name!r} requires {requirement!r}, "
                        "which no earlier pass provides"
                    )
            seen.add(pass_.name)
        self.passes: Tuple[AnalysisPass, ...] = tuple(passes)
        self._by_name: Dict[str, AnalysisPass] = {p.name: p for p in passes}

    def __iter__(self) -> Iterator[AnalysisPass]:
        return iter(self.passes)

    def get(self, name: str) -> Optional[AnalysisPass]:
        """The pass providing ``name``, or ``None``."""
        return self._by_name.get(name)

    def names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.passes)

    def versions(self) -> Dict[str, int]:
        """Pass name -> schema version, for cache fingerprints."""
        return {p.name: p.version for p in self.passes}

    def replace(self, **overrides: AnalysisPass) -> "AnalysisPipeline":
        """A new pipeline with named passes swapped out (tests use this
        to bump a single pass version or stub a pass)."""
        unknown = set(overrides) - set(self.names())
        if unknown:
            raise PipelineError(f"no such pass to replace: {sorted(unknown)}")
        return AnalysisPipeline(
            tuple(overrides.get(p.name, p) for p in self.passes)
        )

    def run(
        self,
        bytecode: bytes,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> AnalysisContext:
        """Compute every product, in pipeline order, over one context."""
        context = AnalysisContext(bytecode, self, metrics=metrics, tracer=tracer)
        for pass_ in self.passes:
            context[pass_.name]
        return context


# ----------------------------------------------------------------------
# The default passes.  Import order matters: the pass bodies live in
# their own modules; this module only declares the wiring.

def _run_cfg(ctx: AnalysisContext):
    from repro.evm.cfg import build_cfg

    return build_cfg(ctx.bytecode)


def _run_jumps(ctx: AnalysisContext):
    from repro.analysis.dataflow import resolve_jumps

    return resolve_jumps(ctx["cfg"])


def _run_stack(ctx: AnalysisContext):
    from repro.analysis.stackcheck import verify_stack

    return verify_stack(ctx["jumps"])


def _run_dispatcher(ctx: AnalysisContext):
    from repro.analysis.dispatcher import extract_dispatch

    return extract_dispatch(ctx["jumps"])


def _run_storage(ctx: AnalysisContext):
    from repro.analysis.storage import recover_storage_layout

    return recover_storage_layout(ctx["jumps"], ctx["dispatcher"])


def _run_reach(ctx: AnalysisContext):
    from repro.analysis.reachability import compute_reachability

    return compute_reachability(ctx["jumps"], ctx["dispatcher"])


def _run_mutability(ctx: AnalysisContext):
    from repro.analysis.mutability import classify_mutability

    return classify_mutability(ctx["jumps"], ctx["dispatcher"], ctx["reach"])


def _run_returns(ctx: AnalysisContext):
    from repro.analysis.returns import recover_returns

    return recover_returns(ctx["jumps"], ctx["dispatcher"], ctx["reach"])


def _run_lint(ctx: AnalysisContext):
    from repro.analysis.lint import lint_findings

    return lint_findings(
        ctx.bytecode, ctx["jumps"], ctx["stack"], ctx["dispatcher"],
        storage=ctx["storage"],
    )


#: The standard pass set, in dependency order.
DEFAULT_PIPELINE = AnalysisPipeline((
    AnalysisPass("cfg", 1, _run_cfg),
    AnalysisPass("jumps", 1, _run_jumps, requires=("cfg",)),
    AnalysisPass("stack", 1, _run_stack, requires=("jumps",)),
    AnalysisPass("dispatcher", 1, _run_dispatcher, requires=("jumps",)),
    AnalysisPass(
        "storage", 1, _run_storage, requires=("jumps", "dispatcher")
    ),
    AnalysisPass(
        "reach", 1, _run_reach, requires=("jumps", "dispatcher")
    ),
    AnalysisPass(
        "mutability", 1, _run_mutability,
        requires=("jumps", "dispatcher", "reach"),
    ),
    AnalysisPass(
        "returns", 1, _run_returns,
        requires=("jumps", "dispatcher", "reach"),
    ),
    # v2: storage-unresolved blind spots surface as info findings.
    AnalysisPass(
        "lint", 2, _run_lint,
        requires=("jumps", "stack", "dispatcher", "storage"),
    ),
))

#: The pre-profile pass set.  Recovery reads only cfg/jumps/dispatcher
#: of it, and products compute on demand, so a recovery runs the same
#: passes under this pipeline as under the full default one; the
#: overhead benchmarks compare the two to hold that so.
CORE_PIPELINE = AnalysisPipeline(DEFAULT_PIPELINE.passes[:4])


def default_pipeline() -> AnalysisPipeline:
    """The pipeline :func:`repro.analysis.analyze` runs.

    A function (not the bare constant) so cache fingerprints and tests
    observe monkeypatched pipelines; see ``pass_versions``.
    """
    return DEFAULT_PIPELINE


def pass_versions() -> Dict[str, int]:
    """Per-pass schema versions of the default pipeline.

    This dict — not a single scalar — is what the persistent result
    cache and the function-body memo fold into their options
    fingerprints: bumping any one pass version invalidates every cached
    recovery, because any of them could depend on that pass's output.
    """
    return default_pipeline().versions()


def schema_aggregate() -> str:
    """A stable scalar digest of the per-pass versions.

    The derived aggregate replacing the old single
    ``ANALYSIS_SCHEMA_VERSION`` constant wherever one value is wanted
    (human-readable reports, profile documents).
    """
    versions = pass_versions()
    return ";".join(f"{name}={versions[name]}" for name in sorted(versions))
