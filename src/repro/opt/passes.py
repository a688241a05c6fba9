"""Pass manager and optimization-level pipelines.

Levels match the paper's evaluation:

- ``basic``: scalar cleanup only (constant folding, DCE);
- ``medium``: the Figure-19 "Medium" configuration — token-edge removal by
  address disambiguation (§4.3, with pointer analysis and pragmas already
  consumed during construction) plus induction-variable pipelining (§6.2);
- ``full``: adds immutable loads (§4.2), the §5 redundancy eliminations
  iterated to a fixpoint with dead-memory-op removal (§4.1),
  loop-invariant load motion (§5.4), read-only loop splitting (§6.1), and
  loop decoupling (§6.3).

Verification is a *policy* (see :data:`repro.pipeline.config.
VERIFY_POLICIES`): ``every-pass`` checks the graph after every single pass
execution and a structural violation names the pass that caused it;
``levels`` checks after each top-level pipeline element (a fixpoint group
is one element); ``final`` checks once after the whole pipeline; ``off``
never checks.  Running ``verify_graph`` after all ~17 executions of the
``full`` pipeline is a measurable compile-time tax, so the experiment
harness compiles at ``final`` while the test suite keeps ``every-pass``.

Every pass execution is instrumented: wall time, reported change count,
and the IR-size delta land in a :class:`~repro.pipeline.report.
CompilationReport` when one is supplied.
"""

from __future__ import annotations

import time

from repro.errors import OptimizationError, PegasusError
from repro.pegasus.builder import BuildResult
from repro.pegasus.verify import verify_graph
from repro.opt.context import OptContext
from repro.opt.cleanup import Cleanup
from repro.opt.constant_fold import ConstantFold
from repro.opt.dead_memops import DeadMemOps
from repro.opt.immutable import ImmutableLoads
from repro.opt.token_removal import TokenRemoval
from repro.opt.load_forward import LoadAfterStore
from repro.opt.store_elim import StoreBeforeStore
from repro.opt.merge_ops import MergeEquivalent
from repro.opt.licm import LoopInvariantLoads

MAX_FIXPOINT_ROUNDS = 8


class Fixpoint:
    """Runs a pass group repeatedly until no pass reports a change."""

    def __init__(self, *passes, name: str = "fixpoint"):
        self.passes = list(passes)
        self.name = name

    def run(self, ctx: OptContext) -> int:
        return PassRunner(ctx).run(self)


class PassRunner:
    """Executes passes under a verification policy, recording telemetry.

    One runner drives one pipeline: it owns the policy decision of *when*
    ``verify_graph`` runs and writes a :class:`PassRecord` per pass
    execution into the context's report (if any).
    """

    def __init__(self, ctx: OptContext, verify: str = "every-pass"):
        self.ctx = ctx
        self.policy = verify
        self.report = ctx.report

    def run(self, pass_) -> int:
        """Run one top-level pipeline element (a pass or a fixpoint)."""
        if isinstance(pass_, Fixpoint):
            total = 0
            for round_index in range(MAX_FIXPOINT_ROUNDS):
                round_changes = 0
                for inner in pass_.passes:
                    label = f"{pass_.name}[{round_index}].{inner.name}"
                    round_changes += self._execute(inner, label, pass_.name)
                total += round_changes
                if not round_changes:
                    break
            if self.policy == "levels":
                self._verify(pass_.name)
            return total
        changes = self._execute(pass_, pass_.name, None)
        if self.policy == "levels":
            self._verify(pass_.name)
        return changes

    def finish(self) -> None:
        """Post-pipeline check (covers ``_fix_static_etas`` rewiring)."""
        if self.policy != "off":
            self._verify("<final>")

    # ------------------------------------------------------------------

    def _execute(self, pass_, label: str, group: str | None) -> int:
        from repro.pipeline.report import IRSnapshot

        before = IRSnapshot.of(self.ctx.graph) if self.report else None
        started = time.perf_counter()
        changes = pass_.run(self.ctx)
        elapsed = time.perf_counter() - started
        verify_time = 0.0
        verified = False
        if self.policy == "every-pass":
            verify_time = self._verify(pass_.name)
            verified = True
        if self.report is not None:
            self.report.record_pass(
                label, group, elapsed, changes,
                before, IRSnapshot.of(self.ctx.graph),
                verify_time=verify_time, verified=verified,
            )
        return changes

    def _verify(self, blame: str) -> float:
        started = time.perf_counter()
        try:
            verify_graph(self.ctx.graph)
        except PegasusError as error:
            raise OptimizationError(
                f"pass {blame!r} broke the graph: {error}"
            ) from error
        elapsed = time.perf_counter() - started
        if self.report is not None:
            self.report.note_verify(elapsed)
        return elapsed


def _looppipe_passes():
    from repro.looppipe.readonly import ReadOnlySplit
    from repro.looppipe.monotone import MonotonePipelining
    from repro.looppipe.decoupling import LoopDecoupling
    return ReadOnlySplit, MonotonePipelining, LoopDecoupling


def build_pipeline(level: str) -> list:
    if level == "basic":
        return [ConstantFold(), Cleanup()]
    ReadOnlySplit, MonotonePipelining, LoopDecoupling = _looppipe_passes()
    if level == "medium":
        return [
            ConstantFold(), Cleanup(),
            TokenRemoval(), DeadMemOps(),
            ConstantFold(), Cleanup(),
            MonotonePipelining(),
            Cleanup(),
        ]
    if level == "full":
        return [
            ConstantFold(), Cleanup(),
            ImmutableLoads(),
            TokenRemoval(),
            Fixpoint(LoadAfterStore(), ConstantFold(), StoreBeforeStore(),
                     DeadMemOps(), MergeEquivalent(), ConstantFold(), Cleanup(),
                     name="redundancy"),
            TokenRemoval(),
            LoopInvariantLoads(),
            ConstantFold(), Cleanup(),
            ReadOnlySplit(),
            LoopDecoupling(),
            MonotonePipelining(),
            ConstantFold(), Cleanup(),
        ]
    raise OptimizationError(f"unknown optimization level {level!r}")


PIPELINES = ("basic", "medium", "full")


def optimize(build: BuildResult, level: str = "full", *,
             verify: str = "every-pass", report=None) -> OptContext:
    """Run the pipeline for ``level`` over a built graph (in place).

    ``verify`` selects the verification policy; ``report`` (a
    :class:`~repro.pipeline.report.CompilationReport`) receives per-pass
    instrumentation and the pass counters.
    """
    ctx = OptContext(build, report=report)
    runner = PassRunner(ctx, verify=verify)
    for pass_ in build_pipeline(level):
        runner.run(pass_)
    _fix_static_etas(ctx)
    runner.finish()
    return ctx


def _fix_static_etas(ctx: OptContext) -> None:
    """Re-establish the eta-trigger invariant after optimization.

    Folding can turn an eta's value and predicate into constant wires;
    such an eta needs a per-activation trigger (see EtaNode) or it would
    fire spuriously at start-up.
    """
    from repro.pegasus import nodes as N
    for eta in ctx.graph.by_kind(N.EtaNode):
        if eta.has_trigger:
            continue
        if N.is_static_wire(eta.value_input) and N.is_static_wire(eta.pred_input):
            relation = ctx.relations.get(eta.hyperblock)
            if relation is None or not relation.boundary:
                continue
            boundary = relation.boundary[min(relation.boundary)]
            eta.add_trigger(ctx.graph, boundary)
