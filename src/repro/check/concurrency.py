"""Pass 3 — concurrency static analysis (shared state across workers).

The engine dispatches layer campaigns to a thread pool
(:mod:`repro.engine.campaign`), the distributed sweep fans cells out
to worker threads and processes, and the telemetry registries are mutated
from every worker thread.  Each of those designs rests on a contract
that nothing in Python enforces; these checkers enforce them at review
time, over source text, with no execution:

``global-write-in-worker``
    A function that is submitted to *any* executor writes a
    module-level mutable global (``global X`` rebinding, or in-place
    mutation of a module-level dict/list/set).  Under threads that is a
    data race; under processes it is worse — the write lands in a
    copy and silently disagrees with the parent.  Exemption: functions
    installed as a ``ProcessPoolExecutor`` *initializer* — per-process
    module state set up before any task runs — is the sanctioned
    pattern.
``unlocked-registry-write``
    A class that owns a ``threading.Lock``/``RLock`` (assigned to a
    ``self`` attribute in ``__init__``) mutates another ``self``
    attribute outside a ``with self.<lock>:`` block in some other
    method.  The telemetry ``MetricsRegistry``/``Tracer`` follow a
    strict lock-everything discipline; this rule keeps every future
    method honest.  Only *direct* ``self.X`` writes are considered —
    ``self._local.stack = ...`` targets thread-local storage, which is
    private by construction.
``fork-unsafe-capture``
    A name bound to a fork-hostile resource — ``threading`` primitives,
    ``mmap.mmap``, an ``open()`` handle, a ``SharedMemory`` object — is
    passed as an argument to a ``ProcessPoolExecutor`` submission or in
    its ``initargs``.  Locks and mmaps do not survive pickling; handles
    that *appear* to pickle (via fd inheritance) alias kernel state
    between processes.  Pass names/descriptors and re-open in the
    worker.
``unpicklable-task``
    A ``lambda`` or a locally-defined (nested) function submitted to a
    ``ProcessPoolExecutor``.  Both fail to pickle at dispatch time in
    production but are easy to miss under a thread-backend test run.
``lease-write-outside-helper``
    A filesystem mutation (create/rename/unlink/utime/truncating open)
    whose target names a lease file, outside
    :mod:`repro.cache.leases`.  The distributed-sweep claim protocol
    is exactly four atomic syscalls with exactly one implementation
    each (``docs/distributed.md``); an ad-hoc lease write elsewhere —
    a worker "helpfully" touching its lease, a cleanup pass unlinking
    one non-atomically — reintroduces the claim races the helpers
    exist to make impossible.

``fork-unsafe-capture``/``unpicklable-task``/``global-write-in-worker``
also cover ``multiprocessing.Process(target=..., args=...)`` and
``threading.Thread(target=...)`` construction — the distributed sweep's
worker fan-out path — not just executor submissions.

Suppression: ``# repro-check: ignore[rule-id]`` on the offending line,
same as the Pass-2 linter.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .findings import Finding, Severity

#: Constructor names that create a thread-backed executor.
_THREAD_POOLS = {"ThreadPoolExecutor"}
#: Constructor names that create a process-backed executor.
_PROCESS_POOLS = {"ProcessPoolExecutor"}

#: Callables whose result must never cross a process boundary.
_FORK_UNSAFE_CTORS = {
    "Lock",
    "RLock",
    "Condition",
    "Event",
    "Semaphore",
    "BoundedSemaphore",
    "Barrier",
    "mmap",
    "open",
    "SharedMemory",
}

#: The one module allowed to mutate lease files (path suffix).
_LEASE_HELPER_SUFFIX = "cache/leases.py"

#: Call names that mutate the filesystem at their path argument.
_FS_MUTATORS = {
    "unlink",
    "remove",
    "rename",
    "replace",
    "utime",
    "touch",
    "write_text",
    "write_bytes",
    "mkstemp",
}

#: ``os.open`` flag names that imply creation or writing.
_WRITE_OPEN_FLAGS = {
    "O_CREAT",
    "O_WRONLY",
    "O_RDWR",
    "O_APPEND",
    "O_TRUNC",
    "O_EXCL",
}

#: Methods that mutate a dict/list/set receiver in place.
_MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
}


def _tail_name(node: ast.expr) -> Optional[str]:
    """Last attribute segment: ``cf.ProcessPoolExecutor`` -> that name."""
    while isinstance(node, ast.Attribute):
        if isinstance(node.value, (ast.Attribute, ast.Name)):
            return node.attr
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _call_ctor(node: ast.expr) -> Optional[str]:
    """If ``node`` is ``Ctor(...)`` (possibly dotted), the ctor name."""
    if isinstance(node, ast.Call):
        return _tail_name(node.func)
    return None


def _mentions_lease(nodes: Sequence[ast.AST]) -> bool:
    """Does any node reference a lease (name, attribute, or literal)?"""
    for node in nodes:
        if isinstance(node, ast.Name) and "lease" in node.id.lower():
            return True
        if isinstance(node, ast.Attribute) and "lease" in node.attr.lower():
            return True
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "lease" in node.value.lower()
        ):
            return True
    return False


def _is_write_open(call: ast.Call) -> bool:
    """``open``/``os.open`` with a creating/writing mode or flags."""
    for node in ast.walk(call):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            mode = node.value
            if (
                0 < len(mode) <= 3
                and set(mode) <= set("rwaxbt+")
                and set(mode) & set("wax+")
            ):
                return True
        name = None
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        if name in _WRITE_OPEN_FLAGS:
            return True
    return False


def _module_mutable_globals(tree: ast.Module) -> Set[str]:
    """Module-level names bound to a mutable container literal/ctor."""
    names: Set[str] = set()
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        mutable = isinstance(
            value, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp,
                    ast.SetComp)
        ) or _call_ctor(value) in {"dict", "list", "set", "defaultdict",
                                   "OrderedDict", "deque"}
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


class _FileFacts:
    """Everything one module contributes to the corpus-level pass."""

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.tree = tree
        self.mutable_globals = _module_mutable_globals(tree)
        #: function name -> def node, every def at any nesting level
        self.functions: Dict[str, ast.AST] = {}
        #: names of functions defined *nested* inside another function
        self.nested_functions: Set[str] = set()
        #: (callable-name, executor-kind, call-node) per pool submission
        self.submissions: List[Tuple[Optional[str], str, ast.Call]] = []
        #: callable names installed as ProcessPoolExecutor initializers
        self.initializers: Set[str] = set()
        #: raw findings that need no cross-file context
        self.local_findings: List[Finding] = []
        self._collect()

    # ------------------------------------------------------------------
    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.local_findings.append(
            Finding(
                rule=rule,
                severity=Severity.ERROR,
                message=message,
                path=self.path,
                line=getattr(node, "lineno", None),
                reference="docs/performance.md",
            )
        )

    # ------------------------------------------------------------------
    def _collect(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions.setdefault(node.name, node)
                for inner in ast.walk(node):
                    if inner is node:
                        continue
                    if isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self.nested_functions.add(inner.name)
        # Walk each top-level analysis scope (module + each top-level
        # function) tracking executor kinds and fork-unsafe bindings.
        # Nested defs share the enclosing function's table — closures
        # see the enclosing bindings, so the taint must too.
        self._scan_scope(self.tree.body, {}, set())
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_scope(node.body, {}, set())

    # ------------------------------------------------------------------
    def _scan_scope(
        self,
        body: Sequence[ast.stmt],
        pools: Dict[str, str],
        tainted: Set[str],
    ) -> None:
        """One lexical scope: track pool vars + fork-unsafe bindings."""
        for stmt in body:
            self._scan_stmt(stmt, pools, tainted)

    def _scan_stmt(
        self, stmt: ast.stmt, pools: Dict[str, str], tainted: Set[str]
    ) -> None:
        if isinstance(stmt, ast.Assign):
            self._track_binding(stmt.targets, stmt.value, pools, tainted)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._track_binding([stmt.target], stmt.value, pools, tainted)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._track_binding(
                        [item.optional_vars], item.context_expr, pools,
                        tainted,
                    )
                else:
                    self._inspect_executor_ctor(item.context_expr)
        for call in self._calls_of(stmt):
            self._inspect_call(call, pools, tainted)
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._scan_stmt(child, pools, tainted)
            else:
                for sub in ast.walk(child):
                    if isinstance(sub, ast.stmt):
                        self._scan_stmt(sub, pools, tainted)

    @staticmethod
    def _calls_of(stmt: ast.stmt) -> List[ast.Call]:
        calls: List[ast.Call] = []
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, ast.stmt):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    calls.append(sub)
        return calls

    # ------------------------------------------------------------------
    def _track_binding(
        self,
        targets: Sequence[ast.expr],
        value: ast.expr,
        pools: Dict[str, str],
        tainted: Set[str],
    ) -> None:
        ctor = _call_ctor(value)
        kind: Optional[str] = None
        if ctor in _THREAD_POOLS:
            kind = "thread"
        elif ctor in _PROCESS_POOLS:
            kind = "process"
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if kind is not None:
                pools[target.id] = kind
            elif ctor in _FORK_UNSAFE_CTORS:
                tainted.add(target.id)
        if kind == "process" and isinstance(value, ast.Call):
            self._inspect_executor_ctor(value)
        elif isinstance(value, ast.Call) and _call_ctor(value) in (
            _THREAD_POOLS | _PROCESS_POOLS
        ):
            self._inspect_executor_ctor(value)

    def _inspect_executor_ctor(self, expr: ast.expr) -> None:
        """Record initializer= callables; check initargs= for taint."""
        if not isinstance(expr, ast.Call):
            return
        ctor = _call_ctor(expr)
        if ctor not in _PROCESS_POOLS:
            return
        for kw in expr.keywords:
            if kw.arg == "initializer":
                name = _tail_name(kw.value)
                if name is not None:
                    self.initializers.add(name)
                if isinstance(kw.value, ast.Lambda):
                    self._emit(
                        "unpicklable-task",
                        kw.value,
                        "lambda used as a ProcessPoolExecutor initializer; "
                        "lambdas cannot be pickled to worker processes",
                    )

    # ------------------------------------------------------------------
    def _inspect_call(
        self, call: ast.Call, pools: Dict[str, str], tainted: Set[str]
    ) -> None:
        func = call.func
        self._check_lease_write(call)
        self._inspect_worker_ctor(call, tainted)
        # pool.submit(fn, ...) / pool.map(fn, ...)
        if isinstance(func, ast.Attribute) and func.attr in (
            "submit", "map"
        ):
            receiver = func.value
            kind: Optional[str] = None
            if isinstance(receiver, ast.Name):
                kind = pools.get(receiver.id)
            if kind is None:
                rname = _tail_name(receiver) or ""
                if "pool" in rname.lower() or "executor" in rname.lower():
                    kind = "unknown"
            if kind is None:
                return
            task = call.args[0] if call.args else None
            task_name = _tail_name(task) if task is not None else None
            self.submissions.append((task_name, kind, call))
            if kind == "process":
                self._check_process_submission(call, task, tainted)
        # ProcessPoolExecutor(initargs=(lock, ...)) taint
        ctor = _call_ctor(call)
        if ctor in _PROCESS_POOLS:
            for kw in call.keywords:
                if kw.arg == "initargs":
                    self._check_taint_args(
                        list(ast.walk(kw.value)), call, tainted,
                        where="initargs",
                    )

    def _check_lease_write(self, call: ast.Call) -> None:
        """Flag lease-file mutations outside :mod:`repro.cache.leases`.

        A filesystem-mutating call (unlink/rename/utime/touch/creating
        open/...) whose receiver or arguments reference a lease is the
        claim protocol re-implemented ad hoc — only the helper module's
        four atomic operations are race-free by construction.
        """
        if self.path.replace("\\", "/").endswith(_LEASE_HELPER_SUFFIX):
            return
        name = _tail_name(call.func)
        if name is None:
            return
        mutates = name in _FS_MUTATORS or (
            name == "open" and _is_write_open(call)
        )
        if not mutates:
            return
        scope: List[ast.AST] = []
        if isinstance(call.func, ast.Attribute):
            scope.extend(ast.walk(call.func.value))
        for arg in call.args:
            scope.extend(ast.walk(arg))
        for kw in call.keywords:
            scope.extend(ast.walk(kw.value))
        if _mentions_lease(scope):
            self._emit(
                "lease-write-outside-helper",
                call,
                f"{name!r} mutates a lease file outside "
                "repro.cache.leases; the claim protocol "
                "(acquire/renew/steal/release) has exactly one atomic "
                "implementation each — use those helpers",
            )

    def _inspect_worker_ctor(
        self, call: ast.Call, tainted: Set[str]
    ) -> None:
        """``multiprocessing.Process``/``threading.Thread`` fan-out.

        The distributed sweep's workers are spawned this way, not via
        executor ``submit``; targets and args get the same discipline —
        ``target=`` is a submission for ``global-write-in-worker``, and
        for processes a lambda/nested target cannot pickle and
        lock/mmap/file ``args=`` do not survive the fork boundary.
        """
        ctor = _call_ctor(call)
        if ctor not in ("Process", "Thread"):
            return
        kind = "process" if ctor == "Process" else "thread"
        target: Optional[ast.expr] = None
        payloads: List[ast.AST] = []
        for kw in call.keywords:
            if kw.arg == "target":
                target = kw.value
            elif kw.arg in ("args", "kwargs", "initargs"):
                payloads.extend(ast.walk(kw.value))
        if target is None:
            return
        self.submissions.append((_tail_name(target), kind, call))
        if kind != "process":
            return
        if isinstance(target, ast.Lambda):
            self._emit(
                "unpicklable-task",
                call,
                "lambda used as a multiprocessing.Process target; "
                "lambdas cannot be pickled to worker processes",
            )
        elif (
            isinstance(target, ast.Name)
            and target.id in self.nested_functions
        ):
            self._emit(
                "unpicklable-task",
                call,
                f"locally-defined function {target.id!r} used as a "
                "multiprocessing.Process target; nested functions "
                "cannot be pickled — hoist it to module level",
            )
        self._check_taint_args(
            payloads, call, tainted, where="Process args"
        )

    def _check_process_submission(
        self,
        call: ast.Call,
        task: Optional[ast.expr],
        tainted: Set[str],
    ) -> None:
        if isinstance(task, ast.Lambda):
            self._emit(
                "unpicklable-task",
                call,
                "lambda submitted to a process pool; lambdas cannot be "
                "pickled — use a module-level function",
            )
        elif (
            isinstance(task, ast.Name)
            and task.id in self.nested_functions
        ):
            self._emit(
                "unpicklable-task",
                call,
                f"locally-defined function {task.id!r} submitted to a "
                "process pool; nested functions cannot be pickled — "
                "hoist it to module level",
            )
        arg_nodes: List[ast.AST] = []
        for arg in call.args[1:]:
            arg_nodes.extend(ast.walk(arg))
        for kw in call.keywords:
            arg_nodes.extend(ast.walk(kw.value))
        self._check_taint_args(arg_nodes, call, tainted, where="submission")

    def _check_taint_args(
        self,
        nodes: Sequence[ast.AST],
        call: ast.Call,
        tainted: Set[str],
        where: str,
    ) -> None:
        for node in nodes:
            if isinstance(node, ast.Name) and node.id in tainted:
                self._emit(
                    "fork-unsafe-capture",
                    call,
                    f"{node.id!r} holds a lock/mmap/file/shared-memory "
                    f"object and is captured into a process-pool {where}; "
                    "these do not survive pickling — pass a "
                    "name/descriptor and re-open in the worker",
                )


# ----------------------------------------------------------------------
# global-write-in-worker (corpus-level: submissions may name functions
# defined in another module)
# ----------------------------------------------------------------------


def _global_writes(
    fn: ast.AST, mutable_globals: Set[str]
) -> List[Tuple[ast.AST, str]]:
    """(node, name) for each write this function makes to module state."""
    declared: Set[str] = set()
    writes: List[Tuple[ast.AST, str]] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared.update(node.names)
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id in declared:
                    writes.append((node, target.id))
                elif isinstance(target, ast.Subscript):
                    base = target.value
                    if (
                        isinstance(base, ast.Name)
                        and base.id in (mutable_globals | declared)
                    ):
                        writes.append((node, base.id))
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in (mutable_globals | declared)
            ):
                writes.append((node, func.value.id))
    return writes


def _check_worker_global_writes(facts: List[_FileFacts]) -> List[Finding]:
    submitted: Set[str] = set()
    initializers: Set[str] = set()
    for f in facts:
        initializers.update(f.initializers)
        for task_name, _kind, _call in f.submissions:
            if task_name is not None:
                submitted.add(task_name)
    findings: List[Finding] = []
    for f in facts:
        for name, fn in f.functions.items():
            if name not in submitted or name in initializers:
                continue
            for node, global_name in _global_writes(fn, f.mutable_globals):
                findings.append(
                    Finding(
                        rule="global-write-in-worker",
                        severity=Severity.ERROR,
                        message=(
                            f"function {name!r} is submitted to an "
                            f"executor but writes module-level state "
                            f"{global_name!r}; shared writes race under "
                            "threads and silently diverge under "
                            "processes — return results instead, or "
                            "register the function as a process-pool "
                            "initializer"
                        ),
                        path=f.path,
                        line=getattr(node, "lineno", None),
                        reference="docs/performance.md",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# unlocked-registry-write
# ----------------------------------------------------------------------


def _lock_attrs(cls: ast.ClassDef) -> Set[str]:
    """``self.X`` attrs bound to threading locks in ``__init__``."""
    locks: Set[str] = set()
    for node in cls.body:
        if (
            isinstance(node, ast.FunctionDef)
            and node.name == "__init__"
        ):
            for stmt in ast.walk(node):
                if not isinstance(stmt, ast.Assign):
                    continue
                if _call_ctor(stmt.value) not in ("Lock", "RLock"):
                    continue
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        locks.add(target.attr)
    return locks


def _self_attr(node: ast.expr) -> Optional[str]:
    """``self.X`` (direct, not nested) -> ``X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _LockScopeVisitor(ast.NodeVisitor):
    """Find direct self-attribute writes outside ``with self.<lock>:``."""

    def __init__(self, locks: Set[str]) -> None:
        self.locks = locks
        self.depth = 0
        self.writes: List[Tuple[ast.AST, str]] = []

    def _is_lock_ctx(self, expr: ast.expr) -> bool:
        attr = _self_attr(expr)
        return attr is not None and attr in self.locks

    def visit_With(self, node: ast.With) -> None:
        held = any(self._is_lock_ctx(i.context_expr) for i in node.items)
        if held:
            self.depth += 1
        self.generic_visit(node)
        if held:
            self.depth -= 1

    def _record(self, node: ast.AST, attr: str) -> None:
        if self.depth == 0 and attr not in self.locks:
            self.writes.append((node, attr))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            attr = _self_attr(target)
            if attr is not None:
                self._record(node, attr)
            elif isinstance(target, ast.Subscript):
                attr = _self_attr(target.value)
                if attr is not None:
                    self._record(node, attr)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = _self_attr(node.target)
        if attr is None and isinstance(node.target, ast.Subscript):
            attr = _self_attr(node.target.value)
        if attr is not None:
            self._record(node, attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_METHODS
        ):
            attr = _self_attr(func.value)
            if attr is not None:
                self._record(node, attr)
        self.generic_visit(node)

    # Nested defs get their own lock discipline; don't descend.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def _check_registry_locks(facts: List[_FileFacts]) -> List[Finding]:
    findings: List[Finding] = []
    for f in facts:
        for node in ast.walk(f.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            locks = _lock_attrs(node)
            if not locks:
                continue
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                if method.name == "__init__":
                    continue
                visitor = _LockScopeVisitor(locks)
                for stmt in method.body:
                    visitor.visit(stmt)
                for write, attr in visitor.writes:
                    findings.append(
                        Finding(
                            rule="unlocked-registry-write",
                            severity=Severity.ERROR,
                            message=(
                                f"{node.name}.{method.name} writes "
                                f"self.{attr} outside `with "
                                f"self.{sorted(locks)[0]}:`; this class "
                                "owns a lock, so every shared-attribute "
                                "mutation must hold it"
                            ),
                            path=f.path,
                            line=getattr(write, "lineno", None),
                            reference="docs/performance.md",
                        )
                    )
    return findings


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def analyze_concurrency(
    files: Sequence[Tuple[str, str]]
) -> List[Finding]:
    """Run every concurrency rule over a corpus of (path, source).

    The pass is corpus-level on purpose: a function submitted to a pool
    in one module is usually *defined* in another, so submissions and
    definitions are matched by name across the whole file set.
    Per-line ``# repro-check: ignore[...]`` suppressions are applied by
    the caller (:func:`repro.check.registry.run_analyzers`).
    """
    facts: List[_FileFacts] = []
    findings: List[Finding] = []
    for path, source in files:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="syntax-error",
                    severity=Severity.ERROR,
                    message=str(exc.msg),
                    path=path,
                    line=exc.lineno,
                )
            )
            continue
        facts.append(_FileFacts(path, tree))
    for f in facts:
        findings.extend(f.local_findings)
    findings.extend(_check_worker_global_writes(facts))
    findings.extend(_check_registry_locks(facts))
    return findings


__all__ = ["analyze_concurrency"]
