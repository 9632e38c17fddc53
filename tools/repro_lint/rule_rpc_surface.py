"""rpc-surface: string-dispatched method names must resolve, and the
query surface must stay read-only.

The shard and query protocols dispatch by *string*: a client sends
``("call", names, "pool_matrix", args, kwargs)`` and the serve loop
resolves it with ``getattr(store, method)``; ingest rides as buffered
``("record_columns", args)`` command tuples; replica fan-out and
journal replay do ``getattr(member, method)``.  None of that is
checked by the import system — a renamed store method keeps compiling
and only fails on the wire.  This pass extracts every string method
name at those sites and cross-checks it against the AST-defined method
sets of the classes it will resolve against.

It also guards the query server's read-only contract.  The
``LiveQuerySurface`` enforces read-only *by omission* (no mutator
passthroughs, so a mutator call is an ``AttributeError`` shipped back
as the RPC error), and ``query_server.STORE_MUTATORS`` is the explicit
deny-list naming what must stay omitted.  Three directions are
checked: every statically detected mutator on
``MetricStore``/``ShardedMetricStore`` must be listed (a new mutator
cannot land unacknowledged), no listed name may appear on the surface
(readers must not be able to reach it), and every listed name must
still exist on a store (the list cannot go stale).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from astutil import (
    SourceFile,
    find_class,
    method_defs,
    mutating_methods,
    public_surface,
    self_attr_root,
    str_const,
    string_method_calls,
)

RULE_NAME = "rpc-surface"

STORE = "src/repro/telemetry/store.py"
SHARDING = "src/repro/telemetry/sharding.py"
WORKERS = "src/repro/telemetry/workers.py"
QUERY = "src/repro/telemetry/query_server.py"

#: Wire verbs the serve loop answers itself, before ``getattr``.
RESERVED_WIRE_METHODS = {"resync"}
#: Classes whose union is the client-proxy surface ``getattr(member,
#: method)`` resolves against (replica fan-out, journal replay).
CLIENT_CLASSES = (
    "_ShardQuerySurface",
    "ShardClient",
    "ShardWorker",
    "TcpShardClient",
    "ReplicatedShardClient",
)
#: The deny-list constant the query server must define.
MUTATOR_CONSTANT = "STORE_MUTATORS"
#: ``self.<attr>`` writes that are memoization/lazy-init, not logical
#: store mutations (aggregate caches, partition plans).
CACHE_ATTRS = {"_agg_cache", "_partition_cache"}

Findings = List[Tuple[str, int, str]]


def _class_surface(
    src: Optional[SourceFile], class_name: str
) -> Optional[Set[str]]:
    if src is None:
        return None
    cls = find_class(src.tree, class_name)
    if cls is None:
        return None
    return set(method_defs(cls))


def _literal_str_set(tree: ast.Module, name: str) -> Optional[Set[str]]:
    """The value of ``name = frozenset({...})`` (or a bare set/tuple)."""
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            continue
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("frozenset", "set")
            and len(value.args) == 1
        ):
            value = value.args[0]
        try:
            literal = ast.literal_eval(value)
        except ValueError:
            return None
        if all(isinstance(item, str) for item in literal):
            return set(literal)
    return None


def _check_workers_dispatch(
    workers: SourceFile,
    metric_surface: Set[str],
    client_surface: Set[str],
    out: Findings,
) -> None:
    legal = metric_surface | RESERVED_WIRE_METHODS
    for name, line in string_method_calls(workers.tree, "call"):
        if name not in legal:
            out.append((
                workers.rel,
                line,
                f"dispatches method {name!r} over the wire, but MetricStore "
                f"defines no such method and it is not a reserved verb",
            ))
    for name, line in string_method_calls(workers.tree, "_fan_out"):
        if name not in client_surface | RESERVED_WIRE_METHODS:
            out.append((
                workers.rel,
                line,
                f"fans out method {name!r} to replica members, but no "
                f"client class defines it",
            ))
    for node in ast.walk(workers.tree):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "append"):
            continue
        if self_attr_root(func.value) != "_pending":
            continue
        tuple_arg = node.args[0]
        if not (isinstance(tuple_arg, ast.Tuple) and tuple_arg.elts):
            continue
        name = str_const(tuple_arg.elts[0])
        if name is not None and name not in metric_surface:
            out.append((
                workers.rel,
                node.lineno,
                f"buffers command {name!r} for replay via getattr(store, "
                f"method), but MetricStore defines no such method",
            ))


def _check_sharding_dispatch(
    sharding: SourceFile,
    metric_surface: Set[str],
    client_surface: Set[str],
    out: Findings,
) -> None:
    for node in ast.walk(sharding.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else None
        if attr == "append" and len(node.args) >= 2:
            # Journal appends: self._journals[i].append("method", args, n)
            # or `for journal in ...: journal.append(...)`.
            is_journal = self_attr_root(func.value) == "_journals" or (
                isinstance(func.value, ast.Name)
                and "journal" in func.value.id
            )
            if not is_journal:
                continue
            name = str_const(node.args[0])
            if name is None:
                continue
            if name not in metric_surface:
                out.append((
                    sharding.rel,
                    node.lineno,
                    f"journals command {name!r}, but MetricStore defines "
                    f"no such method to replay it against",
                ))
            elif name not in client_surface:
                out.append((
                    sharding.rel,
                    node.lineno,
                    f"journals command {name!r}, but no client class "
                    f"defines it — rejoin replay would fail",
                ))


def _check_query_dispatch(
    query: SourceFile, live_surface: Set[str], out: Findings
) -> None:
    legal = live_surface | RESERVED_WIRE_METHODS
    for name, line in string_method_calls(query.tree, "call"):
        if name not in legal:
            out.append((
                query.rel,
                line,
                f"dispatches method {name!r} to the query server, but "
                f"LiveQuerySurface defines no such method",
            ))


def _check_surface_delegation(
    query: SourceFile,
    live_cls: ast.ClassDef,
    metric_surface: Set[str],
    sharded_surface: Optional[Set[str]],
    out: Findings,
) -> None:
    for node in ast.walk(live_cls):
        if not isinstance(node, ast.Attribute):
            continue
        value = node.value
        if not (
            isinstance(value, ast.Attribute)
            and value.attr == "_store"
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
        ):
            continue
        name = node.attr
        missing = [
            cls_name
            for cls_name, surface in (
                ("MetricStore", metric_surface),
                ("ShardedMetricStore", sharded_surface),
            )
            if surface is not None and name not in surface
        ]
        for cls_name in missing:
            out.append((
                query.rel,
                node.lineno,
                f"LiveQuerySurface delegates to store.{name}, but "
                f"{cls_name} defines no such attribute — the surface must "
                f"work over both store kinds",
            ))


def _check_mutator_contract(
    query: SourceFile,
    live_cls: Optional[ast.ClassDef],
    store_classes: List[Tuple[str, SourceFile, ast.ClassDef]],
    out: Findings,
) -> None:
    denylist = _literal_str_set(query.tree, MUTATOR_CONSTANT)
    if denylist is None:
        out.append((
            query.rel,
            1,
            f"must define {MUTATOR_CONSTANT} as a literal frozenset of "
            f"store mutator names — it is the read-only contract this "
            f"pass checks the surface against",
        ))
        return

    all_methods: Set[str] = set()
    for cls_name, src, cls in store_classes:
        all_methods |= set(method_defs(cls))
        detected = mutating_methods(cls, CACHE_ATTRS)
        for name in sorted(detected):
            if name.startswith("_") or name in denylist:
                continue
            out.append((
                src.rel,
                method_defs(cls)[name].lineno,
                f"{cls_name}.{name} mutates store state but is not listed "
                f"in {MUTATOR_CONSTANT} (query_server.py) — acknowledge it "
                f"there and keep it off LiveQuerySurface",
            ))

    if live_cls is not None:
        exposed = denylist & public_surface(live_cls)
        for name in sorted(exposed):
            out.append((
                query.rel,
                method_defs(live_cls)[name].lineno,
                f"LiveQuerySurface exposes {name!r}, which "
                f"{MUTATOR_CONSTANT} declares a mutator — live readers "
                f"must never reach a mutator",
            ))

    if store_classes:
        for name in sorted(denylist - all_methods):
            out.append((
                query.rel,
                1,
                f"{MUTATOR_CONSTANT} lists {name!r}, but no store class "
                f"defines it — the deny-list is stale",
            ))


def run(files: Dict[str, SourceFile]) -> Findings:
    findings: Findings = []
    store_src = files.get(STORE)
    sharding_src = files.get(SHARDING)
    workers_src = files.get(WORKERS)
    query_src = files.get(QUERY)

    metric_surface = _class_surface(store_src, "MetricStore")
    sharded_surface = _class_surface(sharding_src, "ShardedMetricStore")

    client_surface: Set[str] = set()
    if workers_src is not None:
        for cls_name in CLIENT_CLASSES:
            client_surface |= _class_surface(workers_src, cls_name) or set()

    if workers_src is not None and metric_surface is not None:
        _check_workers_dispatch(
            workers_src, metric_surface, client_surface, findings
        )
    if sharding_src is not None and metric_surface is not None:
        _check_sharding_dispatch(
            sharding_src, metric_surface, client_surface, findings
        )

    live_cls = None
    if query_src is not None:
        live_cls = find_class(query_src.tree, "LiveQuerySurface")
    if query_src is not None and live_cls is not None:
        _check_query_dispatch(query_src, set(method_defs(live_cls)), findings)
        if metric_surface is not None:
            _check_surface_delegation(
                query_src, live_cls, metric_surface, sharded_surface, findings
            )

    if query_src is not None:
        store_classes: List[Tuple[str, SourceFile, ast.ClassDef]] = []
        if store_src is not None:
            cls = find_class(store_src.tree, "MetricStore")
            if cls is not None:
                store_classes.append(("MetricStore", store_src, cls))
        if sharding_src is not None:
            cls = find_class(sharding_src.tree, "ShardedMetricStore")
            if cls is not None:
                store_classes.append(("ShardedMetricStore", sharding_src, cls))
        if store_classes or live_cls is not None:
            _check_mutator_contract(
                query_src, live_cls, store_classes, findings
            )
    return findings
