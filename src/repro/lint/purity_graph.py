"""Graph checkers: MUT006 interprocedural transport purity, plus the
interprocedural extension of MUT001 (tainted reference escaping into a
parameter-mutating helper).

MUT006 retires the documented hole in MUT002: a scoped module that moves
its raw I/O into a helper — in the same file or any other — used to walk
straight past the intraprocedural checker.  With the call graph, every
call site inside a MUT002-scoped function is resolved and searched for a
transitive path to a raw-I/O primitive; the finding lands at the *call
site* in the scoped module and prints the full chain, because the caller
is where the contract is violated and the chain is what makes the finding
actionable.

To avoid double-reporting, MUT006 only fires when the terminal primitive
lives *outside* MUT002's scope (inside scope, MUT002 already reports the
primitive itself).  The transport implementations (``core/transport.py``,
``core/objstore.py``) remain the sanctioned floor: chains are never
followed into them.
"""

from __future__ import annotations

from typing import ClassVar, Mapping, Optional, Sequence

from repro.lint.callgraph import EXTERNAL, PROJECT, ProjectGraph, Resolution
from repro.lint.dataflow import (
    Reachability,
    call_chain_message,
    mutated_param_set,
    site_suppressed,
)
from repro.lint.framework import Diagnostic, Suppression
from repro.lint.symbols import CallSite
from repro.lint.transport_purity import TransportPurityChecker, banned_call

#: ``suppressions_by_path`` shape handed to every graph checker.
SuppressionMap = Mapping[str, Sequence[Suppression]]

#: Modules whose functions are the storage contract's implementation floor
#: (never descended into — their raw I/O is the point).
EXEMPT_TAILS = frozenset({("core", "transport.py"), ("core", "objstore.py")})


class GraphChecker:
    """Base of the whole-program checkers: run once over the project graph
    (not per file), return diagnostics anchored wherever the defect is.

    ``suppressions`` maps file path → parsed inline suppressions; checkers
    use it for *terminal-site* decisions (a justified suppression recorded
    at the banned primitive covers every chain reaching it — the runner
    separately applies suppressions at the finding's own line).
    """

    code: ClassVar[str] = "MUT???"
    name: ClassVar[str] = "unnamed"
    title: ClassVar[str] = ""
    explanation: ClassVar[str] = ""

    def run(
        self, graph: ProjectGraph, suppressions: SuppressionMap
    ) -> list[Diagnostic]:
        raise NotImplementedError


def _is_exempt(relparts: tuple[str, ...]) -> bool:
    return tuple(relparts[-2:]) in EXEMPT_TAILS


def raw_io_label(call: CallSite, resolution: Resolution) -> Optional[str]:
    """MUT002's ban matcher, applied to the target a call resolves to."""
    if resolution.kind != EXTERNAL or banned_call(resolution.target) is None:
        return None
    return f"{resolution.target}()"


class InterproceduralPurityChecker(GraphChecker):
    code = "MUT006"
    name = "interprocedural-transport-purity"
    title = "Call chain from a transport-pure module reaching raw storage I/O"
    explanation = """\
Contract (PR 4/5, extended by PR 10): every byte the shard store, leases,
federation, or campaign service touches travels through the ShardTransport
seven ops — and that must hold *transitively*.  MUT002 bans the direct
`open()`/`os.remove`/raw-HTTP call inside `core/resultstore.py`,
`core/distributed.py`, `core/federate.py`, and `service/`; MUT006 closes
the hole MUT002 documented: a helper function — same file or any other
module — that performs the raw I/O on the scoped module's behalf.

The whole-program pass indexes every module, builds a conservative call
graph (direct calls, `self.`/`cls.` resolution through the class
hierarchy, imported project symbols), and searches every call site inside
a scoped function for a path to a raw-I/O primitive.  The finding lands at
the call site in the scoped module and prints the full chain, e.g.

    call into 'dump_index' reaches raw storage I/O:
    helpers.dump_index (core/helpers.py:12) -> open() (core/helpers.py:14)

Only chains whose terminal primitive lies *outside* MUT002's scope are
reported (inside scope the primitive itself is already a MUT002 finding),
and chains are never followed into `core/transport.py` / `core/objstore.py`
— the implementations are the contract's sanctioned floor.

Correct pattern: express the helper's operation in the seven ops and pass
it a transport (or extend the contract in `core/transport.py`, where both
backends and the fault-injection proxy implement it once).
"""

    def run(
        self, graph: ProjectGraph, suppressions: SuppressionMap
    ) -> list[Diagnostic]:
        findings: list[Diagnostic] = []

        def banned(ref, call, resolution):
            label = raw_io_label(call, resolution)
            if label is None:
                return None
            if TransportPurityChecker.applies_to(ref.relparts):
                # An in-scope primitive is already a MUT002 finding at its
                # own line; reporting every chain into it would double-count
                # one defect.
                return None
            if site_suppressed(
                suppressions, ref.path, call.line,
                frozenset({"MUT002", self.code}),
            ):
                # The primitive site carries a recorded decision (the
                # control-plane client's non-storage HTTP, say): the
                # decision covers the chains that reach it.
                return None
            return label

        reach = Reachability(
            graph,
            banned=banned,
            exempt=lambda ref: _is_exempt(ref.relparts),
        )
        for ref in graph.all_functions():
            if not TransportPurityChecker.applies_to(ref.relparts):
                continue
            module = graph.modules[ref.module]
            for call in ref.summary.calls:
                resolution = graph.resolve(module, ref.summary, call)
                if resolution.kind != PROJECT:
                    continue
                callee = graph.functions[resolution.target]
                if _is_exempt(callee.relparts):
                    continue
                downstream = reach.chain_from(resolution.target)
                if downstream is None:
                    continue
                chain = call_chain_message(
                    graph, ref, call, resolution.target, downstream
                )
                findings.append(
                    Diagnostic(
                        path=ref.path,
                        line=call.line,
                        column=call.col,
                        code=self.code,
                        message=(
                            f"call into {callee.summary.qualname!r} reaches raw "
                            f"storage I/O bypassing the ShardTransport contract; "
                            f"call chain: {chain}"
                        ),
                    )
                )
        return findings


class InformerEscapeChecker(GraphChecker):
    """MUT001's interprocedural extension: a ``copy=False`` reference
    passed positionally into a project function that mutates — directly or
    transitively — the receiving parameter.

    Shares MUT001's code on purpose: it is the same contract (informer
    cache references are immutable), found through the call graph instead
    of within one function.  Title/explanation stay with the file checker.
    """

    code = "MUT001"
    name = "informer-escape"
    title = ""  # MUT001's title/explanation belong to the file checker
    explanation = ""

    def run(
        self, graph: ProjectGraph, suppressions: SuppressionMap
    ) -> list[Diagnostic]:
        findings: list[Diagnostic] = []
        mutated = mutated_param_set(graph)
        for ref in graph.all_functions():
            module = graph.modules[ref.module]
            for call in ref.summary.calls:
                if not call.tainted_args:
                    continue
                resolution = graph.resolve(module, ref.summary, call)
                if resolution.kind != PROJECT:
                    continue
                callee = graph.functions[resolution.target]
                offset = 1 if callee.summary.class_name is not None else 0
                for position in call.tainted_args:
                    index = position + offset
                    if index >= len(callee.summary.params):
                        continue
                    line = mutated.get((resolution.target, index))
                    if line is None:
                        continue
                    parameter = callee.summary.params[index]
                    findings.append(
                        Diagnostic(
                            path=ref.path,
                            line=call.line,
                            column=call.col,
                            code=self.code,
                            message=(
                                f"copy=False informer cache reference passed to "
                                f"{callee.summary.qualname!r}, which mutates its "
                                f"parameter {parameter!r} "
                                f"(at {'/'.join(callee.relparts)}:{line}); "
                                "deep_copy() before the call, or make the helper "
                                "copy-on-write"
                            ),
                        )
                    )
        return findings
