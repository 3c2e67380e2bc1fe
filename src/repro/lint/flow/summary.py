"""Per-module analysis summaries for the whole-program analyzers.

One :class:`ModuleSummary` captures everything the interprocedural
passes (R101 determinism taint, R102 fast-path pairing, R103 parallel
safety) need to know about a module *without re-parsing it*: its
imports, module-level globals, class layout, and — per function — a
conservative local dataflow digest.

The digest speaks in **taint tokens**:

* ``"D"`` — the value derives directly from a nondeterminism source
  (wall clock, OS entropy, an unseeded RNG, ``id()``, an environment
  read, or iteration over a set expression);
* ``"C<i>"`` — the value derives from the result of this function's
  ``i``-th call site (tainted iff the callee's return is);
* ``"P<i>"`` — the value derives from the function's ``i``-th
  parameter (tainted iff the caller passed a tainted argument).

Summaries are plain data (no AST nodes): every module is parsed once,
summarized, and the AST is dropped before the interprocedural passes
run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

#: ``module.attr`` call targets that read ambient entropy/wall clock.
NONDET_ATTRS = {
    ("time", "time"), ("time", "time_ns"), ("time", "monotonic"),
    ("time", "perf_counter"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("os", "urandom"), ("os", "getenv"),
    ("uuid", "uuid1"), ("uuid", "uuid4"),
    ("random", "SystemRandom"),
}

#: Bare callables that are nondeterminism sources wherever they appear.
NONDET_NAMES = {"id", "urandom", "getenv", "uuid1", "uuid4"}

#: Mutating method names on containers (used for global-write detection).
MUTATORS = {"append", "add", "update", "clear", "pop", "popitem",
            "setdefault", "extend", "insert", "remove", "discard",
            "appendleft", "extendleft"}

#: Executor entry points whose callable arguments must be picklable.
SUBMIT_NAMES = {"submit", "apply_async", "map_async"}

DIRECT = "D"


def _call_token(index: int) -> str:
    return f"C{index}"


def _param_token(index: int) -> str:
    return f"P{index}"


@dataclass
class CallSite:
    """One call expression inside a function body."""

    kind: str            # "name" | "self" | "attr" | "super"
    func: str            # called name (last attribute segment)
    recv: Optional[str]  # local receiver type / module alias, if known
    lineno: int
    args: List[List[str]] = field(default_factory=list)
    kwargs: Dict[str, List[str]] = field(default_factory=dict)


@dataclass
class FunctionSummary:
    """Local dataflow digest of one function or method."""

    name: str
    qualkey: str         # "func" or "Class.func" within the module
    lineno: int
    end_lineno: int
    params: List[str] = field(default_factory=list)
    is_method: bool = False
    decorators: List[Dict[str, Any]] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    sources: List[Dict[str, Any]] = field(default_factory=list)
    return_tokens: List[str] = field(default_factory=list)
    global_writes: List[Dict[str, Any]] = field(default_factory=list)
    submissions: List[Dict[str, Any]] = field(default_factory=list)
    referenced: List[str] = field(default_factory=list)


@dataclass
class ModuleSummary:
    """Everything the whole-program passes know about one module."""

    module: str
    path: str
    imports: Dict[str, str] = field(default_factory=dict)
    module_globals: Dict[str, Dict[str, Any]] = field(
        default_factory=dict)
    classes: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)


# -- module-level walk ------------------------------------------------------


def _collect_imports(tree: ast.Module) -> Dict[str, str]:
    """Local name → dotted target, over the whole module (function-local
    imports included; a rebinding later in the file wins, which matches
    how the analyzers use the map — best-effort resolution)."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                imports[local] = target
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return imports


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and \
                func.id in ("dict", "list", "set", "defaultdict",
                            "OrderedDict", "Counter", "deque"):
            return True
    return False


def _decorator_info(node: ast.expr) -> Dict[str, Any]:
    """Name + literal keyword arguments of one decorator expression."""
    name = ""
    kwargs: Dict[str, Any] = {}
    target = node
    if isinstance(target, ast.Call):
        for keyword in target.keywords:
            if keyword.arg is None:
                continue
            value = keyword.value
            kwargs[keyword.arg] = (value.value
                                   if isinstance(value, ast.Constant)
                                   else None)
        target = target.func
    if isinstance(target, ast.Attribute):
        name = target.attr
    elif isinstance(target, ast.Name):
        name = target.id
    return {"name": name, "kwargs": kwargs,
            "lineno": node.lineno}


def is_set_expr(node: ast.AST) -> bool:
    """True when iterating ``node`` walks a set in hash order (shared by
    R002 and R101)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and \
            isinstance(node.func, ast.Name) and \
            node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.BinOp) and \
            isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        # set algebra (a | b, a & b, a - b) over set expressions
        return is_set_expr(node.left) or is_set_expr(node.right)
    return False


class _FunctionSummarizer:
    """One function's local dataflow, run to a small fixpoint."""

    def __init__(self, node: ast.AST, qualkey: str, is_method: bool,
                 imports: Dict[str, str],
                 module_globals: Set[str],
                 sanctioned_params: Tuple[str, ...] = ("rng", "random"),
                 ) -> None:
        self.node = node
        self.imports = imports
        self.module_globals = module_globals
        args = node.args
        params = [a.arg for a in (args.posonlyargs + args.args)]
        offset = 1 if is_method else 0
        self.summary = FunctionSummary(
            name=node.name, qualkey=qualkey, lineno=node.lineno,
            end_lineno=node.end_lineno or node.lineno,
            params=params, is_method=is_method,
            decorators=[_decorator_info(d)
                        for d in node.decorator_list])
        #: injected RNG parameters are the sanctioned seeding channel:
        #: values drawn from them are deterministic given the seed.
        self.sanctioned_params = set(sanctioned_params)
        self.env: Dict[str, Set[str]] = {}
        for index, name in enumerate(params):
            if index >= offset and name not in self.sanctioned_params:
                self.env[name] = {_param_token(index)}
        #: locally assigned names (for global-shadowing decisions)
        self.local_names: Set[str] = set(params)
        self.global_decls: Set[str] = set()
        self._collect_locals()
        self._call_index: Dict[int, int] = {}  # id(Call) → index

    # Pass 0: find every locally-bound name and ``global`` declaration.
    def _collect_locals(self) -> None:
        for child in ast.walk(self.node):
            if isinstance(child, ast.Global):
                self.global_decls.update(child.names)
            elif isinstance(child, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)) \
                    and child is not self.node:
                self.local_names.add(child.name)
            elif isinstance(child, ast.Name) and \
                    isinstance(child.ctx, ast.Store):
                self.local_names.add(child.id)
        self.local_names -= self.global_decls

    # -- expression token collection ---------------------------------------

    def _register_call(self, node: ast.Call) -> int:
        key = id(node)
        index = self._call_index.get(key)
        if index is not None:
            return index
        kind, func, recv = "name", "", None
        target = node.func
        if isinstance(target, ast.Name):
            func = target.id
            recv = self.imports.get(func)
        elif isinstance(target, ast.Attribute):
            func = target.attr
            base = target.value
            if isinstance(base, ast.Name):
                if base.id in ("self", "cls"):
                    kind = "self"
                else:
                    kind = "attr"
                    recv = (self.local_types.get(base.id)
                            or self.imports.get(base.id))
            elif isinstance(base, ast.Call) and \
                    isinstance(base.func, ast.Name) and \
                    base.func.id == "super":
                kind, recv = "super", None
            else:
                kind = "attr"
        else:
            kind = "attr"
        site = CallSite(kind=kind, func=func, recv=recv,
                        lineno=node.lineno)
        self._check_submission(node)
        site.args = [sorted(self._tokens(arg)) for arg in node.args]
        site.kwargs = {kw.arg: sorted(self._tokens(kw.value))
                       for kw in node.keywords
                       if kw.arg is not None}
        index = len(self.summary.calls)
        self.summary.calls.append(site)
        self._call_index[key] = index
        return index

    def _source_detail(self, node: ast.Call) -> Optional[str]:
        """Non-None when this call reads a nondeterminism source."""
        target = node.func
        if isinstance(target, ast.Name):
            dotted = self.imports.get(target.id, target.id)
            if target.id in NONDET_NAMES or \
                    dotted.split(".")[-1] in NONDET_NAMES and \
                    dotted.split(".")[0] in ("os", "uuid"):
                return f"{target.id}()"
            # An unseeded Random() draws its seed from OS entropy.
            if dotted in ("random.Random", "random.SystemRandom") \
                    and not node.args:
                return f"unseeded {target.id}()"
            if dotted.startswith("secrets."):
                return f"{target.id}() (secrets)"
        if isinstance(target, ast.Attribute) and \
                isinstance(target.value, ast.Name):
            base = self.imports.get(target.value.id, target.value.id)
            pair = (base.split(".")[0], target.attr)
            if pair in NONDET_ATTRS:
                return f"{pair[0]}.{pair[1]}()"
            if base == "random" and target.attr != "Random":
                return f"random.{target.attr}() (module-level RNG)"
            if base == "random" and target.attr == "Random" \
                    and not node.args:
                return "unseeded random.Random()"
            if base == "secrets":
                return f"secrets.{target.attr}()"
        return None

    def _tokens(self, node: Optional[ast.AST]) -> Set[str]:
        """Taint tokens an expression's value may carry."""
        if node is None:
            return set()
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Call):
            index = self._register_call(node)
            detail = self._source_detail(node)
            if detail is not None:
                self._add_source(detail, node.lineno)
                return {DIRECT}
            tokens = {_call_token(index)}
            target = node.func
            # A method called on a tainted object yields a tainted
            # value (``r = random.Random(); r.random()``); argument
            # taint deliberately does NOT cross unresolved calls
            # (``cache.get(tainted_key)`` is fine).
            if isinstance(target, ast.Attribute) and \
                    isinstance(target.value, ast.Name):
                tokens |= set(self.env.get(target.value.id, ()))
            return tokens
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name):
                base = self.imports.get(node.value.id, node.value.id)
                if base == "os" and node.attr == "environ":
                    self._add_source("os.environ", node.lineno)
                    return {DIRECT}
            return self._tokens(node.value)
        if isinstance(node, ast.Lambda):
            return set()
        tokens: Set[str] = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.keyword,
                                  ast.comprehension)):
                tokens |= self._tokens(child)
            elif isinstance(child, ast.arguments):
                continue
        return tokens

    def _add_source(self, detail: str, lineno: int) -> None:
        self.summary.sources.append({"detail": detail,
                                     "lineno": lineno})

    # -- statement walk -----------------------------------------------------

    def run(self) -> FunctionSummary:
        # Two passes let simple loop-carried assignments converge; the
        # token lattice only grows, so this is a cheap under-fixpoint
        # that is exact for straight-line code.
        self.local_types: Dict[str, str] = {}
        return_tokens: Set[str] = set()
        for _ in range(2):
            self.summary.calls = []
            self.summary.sources = []
            self.summary.global_writes = []
            self.summary.submissions = []
            self._call_index = {}
            return_tokens = set()
            for stmt in self.node.body:
                self._visit_stmt(stmt, return_tokens)
        self.summary.return_tokens = sorted(return_tokens)
        self.summary.referenced = sorted(self._referenced_names())
        return self.summary

    def _referenced_names(self) -> Set[str]:
        names: Set[str] = set()
        for child in ast.walk(self.node):
            if isinstance(child, ast.Name):
                names.add(child.id)
            elif isinstance(child, ast.Attribute):
                names.add(child.attr)
            elif isinstance(child, ast.arg):
                names.add(child.arg)
        return names

    def _assign(self, target: ast.AST, tokens: Set[str]) -> None:
        if isinstance(target, ast.Name):
            if tokens:
                merged = set(self.env.get(target.id, ())) | tokens
                self.env[target.id] = merged
            self._note_global_write(target, "assign")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, tokens)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, tokens)
        elif isinstance(target, ast.Subscript):
            # G[k] = v mutates G; taint of v taints the container var.
            if isinstance(target.value, ast.Name):
                if tokens:
                    name = target.value.id
                    merged = set(self.env.get(name, ())) | tokens
                    self.env[name] = merged
                self._note_global_mutation(target.value, "subscript",
                                           target.lineno)
        elif isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name) and \
                    base.id not in ("self", "cls") and \
                    base.id in self.imports and \
                    base.id not in self.local_names:
                self.summary.global_writes.append({
                    "name": f"{self.imports[base.id]}.{target.attr}",
                    "lineno": target.lineno, "kind": "attr-assign"})

    def _note_global_write(self, target: ast.Name, kind: str) -> None:
        if target.id in self.global_decls and \
                target.id in self.module_globals:
            self.summary.global_writes.append({
                "name": target.id, "lineno": target.lineno,
                "kind": kind})

    def _note_global_mutation(self, base: ast.Name, kind: str,
                              lineno: int) -> None:
        if base.id in self.module_globals and \
                base.id not in self.local_names:
            self.summary.global_writes.append({
                "name": base.id, "lineno": lineno, "kind": kind})

    def _track_local_type(self, target: ast.AST,
                          value: ast.AST) -> None:
        if not isinstance(target, ast.Name):
            return
        if isinstance(value, ast.Call):
            func = value.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name and name[:1].isupper():
                self.local_types[target.id] = name
                return
        self.local_types.pop(target.id, None)

    def _check_submission(self, call: ast.Call) -> None:
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in SUBMIT_NAMES):
            return
        for arg in call.args:
            if isinstance(arg, ast.Lambda):
                self.summary.submissions.append({
                    "lineno": arg.lineno,
                    "detail": "lambda passed to "
                              f".{func.attr}() cannot be pickled "
                              "into a worker process"})
            elif isinstance(arg, ast.Name) and \
                    arg.id in self._nested_defs():
                self.summary.submissions.append({
                    "lineno": arg.lineno,
                    "detail": f"locally-defined '{arg.id}' passed to "
                              f".{func.attr}() closes over this "
                              "frame and cannot be pickled"})

    def _nested_defs(self) -> Set[str]:
        nested: Set[str] = set()
        for stmt in ast.walk(self.node):
            if isinstance(stmt, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and \
                    stmt is not self.node:
                nested.add(stmt.name)
        return nested

    def _visit_stmt(self, stmt: ast.stmt,
                    return_tokens: Set[str]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes are summarized separately
        if isinstance(stmt, ast.Return):
            return_tokens |= self._tokens(stmt.value)
            return
        if isinstance(stmt, ast.Assign):
            tokens = self._tokens(stmt.value)
            for target in stmt.targets:
                self._assign(target, tokens)
                self._track_local_type(target, stmt.value)
            return
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign(stmt.target, self._tokens(stmt.value))
            self._track_local_type(stmt.target, stmt.value)
            return
        if isinstance(stmt, ast.AugAssign):
            tokens = self._tokens(stmt.value)
            if isinstance(stmt.target, ast.Name):
                if tokens:
                    name = stmt.target.id
                    self.env[name] = \
                        set(self.env.get(name, ())) | tokens
                self._note_global_write(stmt.target, "augassign")
            else:
                self._assign(stmt.target, tokens)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_tokens = self._tokens(stmt.iter)
            if is_set_expr(stmt.iter):
                self._add_source("iteration over a set expression",
                                 stmt.iter.lineno)
                iter_tokens = iter_tokens | {DIRECT}
            self._assign(stmt.target, iter_tokens)
            for child in stmt.body + stmt.orelse:
                self._visit_stmt(child, return_tokens)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._tokens(stmt.test)
            for child in stmt.body + stmt.orelse:
                self._visit_stmt(child, return_tokens)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                tokens = self._tokens(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, tokens)
            for child in stmt.body:
                self._visit_stmt(child, return_tokens)
            return
        if isinstance(stmt, ast.Try):
            bodies = [stmt.body, stmt.orelse, stmt.finalbody]
            for handler in stmt.handlers:
                bodies.append(handler.body)
            for body in bodies:
                for child in body:
                    self._visit_stmt(child, return_tokens)
            return
        if isinstance(stmt, ast.Expr):
            self._tokens(stmt.value)
            value = stmt.value
            if isinstance(value, ast.Call):
                func = value.func
                if isinstance(func, ast.Attribute) and \
                        func.attr in MUTATORS and \
                        isinstance(func.value, ast.Name):
                    self._note_global_mutation(func.value, "mutate",
                                               value.lineno)
            return
        # Remaining statements (assert, raise, delete, pass, …): walk
        # their expressions so calls inside them are still registered.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._tokens(child)


def summarize_module(module: str, path: str,
                     tree: ast.Module) -> ModuleSummary:
    """Build the analysis summary of one parsed module."""
    imports = _collect_imports(tree)
    summary = ModuleSummary(module=module, path=path, imports=imports)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            value = node.value
            for target in targets:
                if isinstance(target, ast.Name):
                    summary.module_globals[target.id] = {
                        "mutable": (value is not None
                                    and _is_mutable_literal(value)),
                        "lineno": target.lineno,
                    }
    global_names = set(summary.module_globals)

    def add_function(node: ast.AST, qualkey: str,
                     is_method: bool) -> None:
        decorators = {d.get("name") for d in
                      (_decorator_info(dec)
                       for dec in node.decorator_list)}
        static = "staticmethod" in decorators
        summarizer = _FunctionSummarizer(
            node, qualkey, is_method and not static, imports,
            global_names)
        summary.functions[qualkey] = summarizer.run()

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_function(node, node.name, is_method=False)
        elif isinstance(node, ast.ClassDef):
            bases = []
            for base in node.bases:
                if isinstance(base, ast.Name):
                    bases.append(base.id)
                elif isinstance(base, ast.Attribute):
                    bases.append(base.attr)
            methods = []
            for child in node.body:
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    methods.append(child.name)
                    add_function(child, f"{node.name}.{child.name}",
                                 is_method=True)
            summary.classes[node.name] = {
                "bases": bases, "methods": methods,
                "lineno": node.lineno}
    return summary
