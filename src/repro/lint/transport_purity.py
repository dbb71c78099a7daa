"""MUT002 — transport-purity checker.

PR 4 extracted the :class:`~repro.core.transport.ShardTransport` seven-op
contract (put, put_if_absent, get/get_with_stat, list/list_iter, stat,
delete/delete_if_unchanged, refresh, plus the PR 5 append) precisely so the
store, lease, federation, and service layers never touch bytes directly:
the POSIX and object-store backends implement durability (fsync'd atomic
renames, conditional HTTP) and the retried-request-ambiguity rules exactly
once.  A direct ``open()``/``os.rename()``/``http.client`` call in those
layers reopens every bug the transport closed — non-atomic writes, torn
shards, leases that double-claim under retry.

This checker bans direct file and raw-HTTP I/O in the store-consuming
modules (``core/resultstore.py``, ``core/distributed.py``,
``core/federate.py``, and everything under ``service/``).  The transport
implementations themselves (``core/transport.py``, ``core/objstore.py``)
are the contract's floor and are out of scope by construction.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.lint.framework import Checker, dotted_name

#: Files / packages the purity contract covers (repro-package-relative).
SCOPE_FILES = frozenset(
    {
        ("core", "resultstore.py"),
        ("core", "distributed.py"),
        ("core", "federate.py"),
    }
)
SCOPE_DIRS = frozenset({"service"})

#: ``os`` functions that create, destroy, or rewrite filesystem state.
BANNED_OS = frozenset(
    {
        "remove", "rename", "unlink", "replace", "rmdir", "removedirs",
        "mkdir", "makedirs", "open", "write", "truncate", "fsync",
        "link", "symlink",
    }
)

#: Fully dotted callables that bypass the transport.
BANNED_DOTTED = frozenset(
    {
        "gzip.open", "io.open", "tempfile.NamedTemporaryFile",
        "tempfile.TemporaryFile", "tempfile.mkstemp",
    }
)

#: Modules whose import alone marks a bypass (any use is raw I/O).
BANNED_MODULES = frozenset({"shutil", "http.client", "urllib.request"})

_BANNED_PREFIXES = tuple(f"{module}." for module in sorted(BANNED_MODULES))


def banned_call(dotted: str) -> Optional[str]:
    """The MUT002 finding for a call of ``dotted``, or ``None`` if the ban
    tables allow it.

    The contract's one ban matcher: MUT002 applies it to the name called at
    a site, MUT006 to the external target a call resolves to.
    """
    if dotted == "open":
        return (
            "direct open() in a transport-pure module; read/write through "
            "the ShardTransport seven ops instead"
        )
    if dotted.startswith("os.") and dotted.split(".", 1)[1] in BANNED_OS:
        return (
            f"direct {dotted}() in a transport-pure module; storage "
            "mutation belongs behind the ShardTransport contract"
        )
    if (
        dotted in BANNED_DOTTED
        or dotted in BANNED_MODULES
        or dotted.startswith(_BANNED_PREFIXES)
    ):
        return (
            f"direct {dotted}() in a transport-pure module; storage I/O "
            "belongs behind the ShardTransport contract"
        )
    return None


class TransportPurityChecker(Checker):
    code = "MUT002"
    name = "transport-purity"
    title = "Direct storage I/O bypassing the ShardTransport contract"
    explanation = """\
Contract (PR 4/5): every byte the shard store, the slice leases, the
federation merge, or the campaign service persists or reads travels through
the `ShardTransport` seven-op contract (`put`, `put_if_absent`,
`get`/`get_with_stat`, `list`/`list_iter`, `stat` with generation tokens,
`delete`/`delete_if_unchanged`, `refresh`, `append`).  The transports own
atomicity (fsync'd temp-file renames on POSIX, conditional HTTP on the
object store) and the documented retried-request-ambiguity rules — the
regression class PR 5 swept (a retried `delete_if_unchanged` walking away
from a slice it freed, a dropped `refresh` response surrendering a live
lease).

A direct `open()`, `os.remove`/`os.rename`, `shutil.*`, `gzip.open`, or
raw `http.client` call in `core/resultstore.py`, `core/distributed.py`,
`core/federate.py`, or `service/` silently forks the storage semantics:
the write is no longer atomic, no longer conditional, invisible to the
object-store backend, and exempt from the ambiguity rules.  Such code
works on a developer laptop and corrupts stores on NFS or under retry.

Correct pattern: take a `transport_for(root)` (or the store's
`.transport`) and express the operation in the seven ops; if an operation
genuinely cannot be expressed, extend the transport contract — in
`core/transport.py`, where both backends and the fault-injection proxy
implement it once.

Out of scope by construction: `core/transport.py` and `core/objstore.py`
(the implementations), and non-storage modules.  Intentional raw-HTTP
sites that are *not* storage (the service's control-plane client) carry a
justified inline suppression.
"""

    @classmethod
    def applies_to(cls, relparts: tuple[str, ...]) -> bool:
        """The contract's one scope predicate (MUT006 shares it)."""
        if tuple(relparts[-2:]) in SCOPE_FILES:
            return True
        return bool(relparts) and relparts[0] in SCOPE_DIRS

    # -------------------------------------------------------------- imports

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in BANNED_MODULES:
                self.report(
                    node,
                    f"import of {alias.name!r} in a transport-pure module; "
                    "storage I/O must go through the ShardTransport seven ops",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module in BANNED_MODULES:
            self.report(
                node,
                f"import from {module!r} in a transport-pure module; "
                "storage I/O must go through the ShardTransport seven ops",
            )
        if module == "http" and any(alias.name == "client" for alias in node.names):
            self.report(
                node,
                "import of 'http.client' in a transport-pure module; "
                "storage I/O must go through the ShardTransport seven ops",
            )
        if module == "os":
            for alias in node.names:
                if alias.name in BANNED_OS:
                    self.report(
                        node,
                        f"import of 'os.{alias.name}' in a transport-pure module; "
                        "storage I/O must go through the ShardTransport seven ops",
                    )
        self.generic_visit(node)

    # ---------------------------------------------------------------- calls

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        message = banned_call(dotted) if dotted is not None else None
        if message is not None:
            self.report(node, message)
        self.generic_visit(node)
