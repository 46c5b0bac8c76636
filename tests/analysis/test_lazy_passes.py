"""Demand-driven analysis: a client pays only for the products it reads.

``recover`` reads the CFG, the jump fixpoint and the dispatcher; ``abi``
and ``profile`` pull the other passes on the same memoized analysis, so
every pass still runs at most once per bytecode.  The differential
suite pins that computing products on demand changes no output: the
profile and ABI documents equal those of a tool whose analyses run
every pass eagerly.
"""

import pytest

from repro.abi.signature import FunctionSignature
from repro.analysis import framework
from repro.analysis.framework import DEFAULT_PIPELINE, AnalysisContext
from repro.analysis.report import ContractAnalysis, analyze
from repro.compiler import compile_contract
from repro.corpus.datasets import (
    build_abi_corpus,
    build_obfuscated_corpus,
    build_storage_corpus,
    build_vyper_corpus,
)
from repro.obs import MetricsRegistry, SpanTracer
from repro.sigrec import api as api_module
from repro.sigrec.api import SigRec

RECOVERY_PASSES = ("cfg", "jumps", "dispatcher")
OTHER_PASSES = tuple(
    name for name in DEFAULT_PIPELINE.names() if name not in RECOVERY_PASSES
)


def _code():
    return compile_contract([
        FunctionSignature.parse("f(uint8,address)"),
        FunctionSignature.parse("g(bytes)"),
    ]).bytecode


def _pass_runs(metrics):
    return {
        name: metrics.counter("analysis.pass_runs", **{"pass": name}).value
        for name in DEFAULT_PIPELINE.names()
    }


def test_recover_runs_only_the_passes_it_reads():
    metrics = MetricsRegistry()
    SigRec(metrics=metrics).recover(_code())
    runs = _pass_runs(metrics)
    assert {name: runs[name] for name in RECOVERY_PASSES} == {
        name: 1 for name in RECOVERY_PASSES
    }
    assert {name: runs[name] for name in OTHER_PASSES} == {
        name: 0 for name in OTHER_PASSES
    }


def test_abi_then_profile_run_each_remaining_pass_once():
    metrics = MetricsRegistry()
    tool = SigRec(metrics=metrics)
    code = _code()
    signatures = tool.recover(code)
    tool.abi(code, signatures)
    after_abi = _pass_runs(metrics)
    for name in ("reach", "mutability", "returns"):
        assert after_abi[name] == 1
    tool.profile(code, signatures)
    tool.abi(code, signatures)
    tool.profile(code, signatures)
    assert _pass_runs(metrics) == {name: 1 for name in DEFAULT_PIPELINE.names()}


def test_lazily_run_pass_emits_span_and_counter_under_its_reader():
    metrics = MetricsRegistry()
    tracer = SpanTracer()
    tool = SigRec(metrics=metrics, tracer=tracer)
    code = _code()
    signatures = tool.recover(code)
    starts_before = {
        record["name"] for record in tracer.records
        if record["type"] == "span_start"
    }
    assert "analysis.storage" not in starts_before
    tool.profile(code, signatures)
    starts = {
        record["id"]: record for record in tracer.records
        if record["type"] == "span_start"
    }
    storage = [r for r in starts.values() if r["name"] == "analysis.storage"]
    assert len(storage) == 1
    assert starts[storage[0]["parent"]]["name"] == "profile"
    assert metrics.counter("analysis.pass_runs", **{"pass": "storage"}).value == 1
    assert metrics.histogram(
        "phase.seconds", phase="analysis.storage"
    ).count == 1


def test_requirements_run_before_and_outside_the_pass_span():
    tracer = SpanTracer()
    analysis = analyze(_code(), tracer=tracer)
    analysis.lint_findings  # pulls stack and storage first
    starts = [r for r in tracer.records if r["type"] == "span_start"]
    names = [r["name"] for r in starts]
    assert names == [
        "analysis.cfg", "analysis.jumps", "analysis.dispatcher",
        "analysis.stack", "analysis.storage", "analysis.lint",
    ]
    assert all(r["parent"] is None for r in starts)


def test_context_computes_on_first_read_and_caches():
    calls = []

    def provider(ctx):
        calls.append("base")
        return 41

    pipeline = framework.AnalysisPipeline((
        framework.AnalysisPass("base", 1, provider),
        framework.AnalysisPass(
            "derived", 1, lambda ctx: ctx["base"] + 1, requires=("base",)
        ),
    ))
    context = AnalysisContext(b"", pipeline)
    assert "base" not in context and calls == []
    assert context["derived"] == 42
    assert context["base"] == 41
    assert calls == ["base"]
    assert context.get("absent") is None
    with pytest.raises(KeyError, match="not available"):
        context["absent"]


def test_context_defaults_to_monkeypatched_pipeline(monkeypatch):
    monkeypatch.setattr(framework, "DEFAULT_PIPELINE", framework.CORE_PIPELINE)
    analysis = analyze(_code())
    assert analysis.stack is not None
    assert analysis.storage is None and analysis.returns is None


# ----------------------------------------------------------------------
# Byte-identity: on-demand products == eagerly computed ones.

def _sample_codes():
    corpora = (
        build_abi_corpus(n_contracts=6, seed=23),
        build_storage_corpus(n_contracts=6, seed=21),
        build_vyper_corpus(n_contracts=5, seed=4),
        build_obfuscated_corpus(n_contracts=5, seed=9),
    )
    return [case.contract.bytecode for corpus in corpora for case in corpus.cases]


def _eager_analyze(bytecode, metrics=None, tracer=None, pipeline=None):
    context = DEFAULT_PIPELINE.run(bytecode, metrics=metrics, tracer=tracer)
    return ContractAnalysis(context)


@pytest.fixture(scope="module")
def reference():
    """Per bytecode: (signatures, abi, profile JSON) from eager analyses."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(api_module, "analyze", _eager_analyze)
        out = {}
        for code in _sample_codes():
            tool = SigRec()
            analysis = tool._analyze(code)
            assert set(analysis.context.products) == set(DEFAULT_PIPELINE.names())
            signatures = tool.recover(code)
            out[code] = (
                [(s.selector, s.param_types) for s in signatures],
                tool.abi(code, signatures),
                tool.profile(code, signatures).to_json(),
            )
    return out


def test_on_demand_outputs_equal_eager_reference(reference):
    assert len(reference) == 22
    for code, (signatures, abi, profile_json) in reference.items():
        tool = SigRec()
        recovered = tool.recover(code)
        assert [(s.selector, s.param_types) for s in recovered] == signatures
        assert tool.abi(code, recovered) == abi
        assert tool.profile(code, recovered).to_json() == profile_json


def test_profile_before_abi_matches_reference(reference):
    for code, (_signatures, abi, profile_json) in reference.items():
        tool = SigRec()
        assert tool.profile(code).to_json() == profile_json
        assert tool.abi(code) == abi
