"""Whole-program effect analysis: cache-key determinism, worker purity.

The engine's content-addressed store (:mod:`repro.engine.store`) is only
correct if every experiment builder is a pure function of the package
source digest — an impure builder silently
poisons the cache with results the digest cannot distinguish.  The
repolint determinism rule (REPO004) checks for clocks and entropy
*syntactically, per file, inside hand-listed subtrees*; it cannot follow
a call from a builder into a helper module two packages away.  This
module can: it parses every module under a package root, builds an
import-resolved call graph, computes a per-function **effect summary**,
propagates summaries transitively to a fixpoint, and checks the result
against the declared determinism contracts.

The effect lattice (absence of every effect = pure enough to cache)::

    ============    ====================================================
    effect          a function (or anything it transitively calls) ...
    ============    ====================================================
    reads-clock     reads host time (time.time/perf_counter/monotonic,
                    datetime.now, ...)
    reads-entropy   draws randomness (random.*, numpy.random.*,
                    os.urandom, uuid.uuid4, secrets.*)
    unseeded-rng    constructs an RNG with no seed (random.Random(),
                    numpy.random.default_rng()) — reported with
                    reads-entropy under DET002
    reads-env       reads the process environment (os.environ/getenv)
    fs-order        iterates the filesystem in platform order
                    (os.listdir, Path.iterdir/glob) without sorted(...)
    mutates-global  writes module-level state (global + store,
                    REGISTRY[k] = v, MODULE_LIST.append, ...)
    performs-io     touches files/processes/sockets (informational:
                    reported in summaries, not gated by a DET rule —
                    reading source bytes is how digests work)
    ============    ====================================================

The DET rule family checks the summaries against the contracts:

    ======  ==========================================================
    rule    contract
    ======  ==========================================================
    DET000  meta: a file failed to parse, or a baseline entry went
            stale (the finding it suppressed no longer fires)
    DET001  a deterministic root (engine builder or digest function)
            transitively reads the host clock
    DET002  a deterministic root transitively draws entropy or builds
            an unseeded RNG
    DET003  a deterministic root transitively reads the environment
    DET004  a deterministic root transitively iterates the filesystem
            in unstable order
    DET005  a function reachable from a pool-worker entry point
            mutates module-global state (the poor-man's race detector
            for the process-pool executor)
    DET006  a function that feeds a digest (calls hashlib) transitively
            iterates the filesystem in unstable order — the hash seals
            whatever order the platform happened to return
    ======  ==========================================================

Deterministic roots come from the engine: every builder registered in
``repro.suite.experiments.EXPERIMENTS`` (enumerated statically by
:func:`repro.engine.deps.builder_entry_points`, or discovered from any
module-level ``EXPERIMENTS`` dict when analyzing other trees) plus the
digest/keying functions of :mod:`repro.engine.deps` and
:mod:`repro.engine.store`.  Worker roots are the builders plus the pool
worker entry ``repro.engine.executor._execute_job``.

Escape hatches, so adoption is incremental:

* ``# repolint: skip`` on the impure line suppresses findings whose
  sink is that line;
* ``# repolint: exempt=DET001 -- reason`` in the *sink's* module (or
  the root's) exempts the listed rules;
* a checked-in **baseline** (:data:`DEFAULT_BASELINE`) of finding
  fingerprints: baselined findings are suppressed, new ones gate CI,
  stale entries are reported as DET000 warnings so the file shrinks
  monotonically.
"""

from __future__ import annotations

import ast
import enum
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport, Severity
from repro.analysis.repolint import module_exemptions, skipped_lines

__all__ = [
    "Effect",
    "EffectSite",
    "FunctionInfo",
    "ModuleInfo",
    "Program",
    "parse_module",
    "EffectContract",
    "Finding",
    "EffectsReport",
    "DEFAULT_BASELINE",
    "DETERMINISM_RULES",
    "analyze_tree",
    "default_contract",
    "check_contracts",
    "analyze_and_check",
    "effect_chain",
    "load_baseline",
    "write_baseline",
    "sarif_report",
]

#: Default baseline filename, resolved against the repository root.
DEFAULT_BASELINE = ".repro-effects-baseline.json"

#: Baseline file schema; bump if the fingerprint format changes.
BASELINE_SCHEMA = 1


class Effect(enum.Enum):
    """One element of the effect lattice (see module docstring)."""

    READS_CLOCK = "reads-clock"
    READS_ENTROPY = "reads-entropy"
    UNSEEDED_RNG = "unseeded-rng"
    READS_ENV = "reads-env"
    FS_ORDER = "fs-order"
    MUTATES_GLOBAL = "mutates-global"
    PERFORMS_IO = "performs-io"

    def __str__(self) -> str:
        return self.value


#: Effects that break cache-key determinism, and the DET rule that
#: reports each when a deterministic root transitively carries it.
DETERMINISM_RULES: dict[Effect, str] = {
    Effect.READS_CLOCK: "DET001",
    Effect.READS_ENTROPY: "DET002",
    Effect.UNSEEDED_RNG: "DET002",
    Effect.READS_ENV: "DET003",
    Effect.FS_ORDER: "DET004",
}

# ------------------------------------------------------- impurity tables
#: External callables that read the host clock.
CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: External callables that draw entropy outright.
ENTROPY_CALLS = frozenset({"os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4"})

#: Prefixes whose every member draws from a shared, implicitly seeded
#: stream (module-level RNG state).
ENTROPY_PREFIXES = ("random.", "secrets.", "numpy.random.")

#: RNG factories: seeded (any argument) is fine, bare is unseeded-rng.
RNG_FACTORIES = frozenset(
    {"random.Random", "random.SystemRandom", "numpy.random.default_rng", "numpy.random.RandomState"}
)

#: External callables that iterate the filesystem in platform order.
FS_ORDER_CALLS = frozenset({"os.listdir", "os.scandir", "glob.glob", "glob.iglob"})

#: Methods that iterate the filesystem regardless of receiver type
#: (Path.iterdir/glob/rglob and anything shaped like them).
FS_ORDER_METHODS = frozenset({"iterdir", "glob", "rglob"})

#: Builtins that impose a deterministic order on their iterable, making
#: a directly wrapped fs-order call stable.
ORDER_IMPOSING = frozenset({"sorted", "min", "max", "sum", "len", "set"})

#: External callables that perform IO (informational effect).
IO_CALLS = frozenset(
    {
        "open",
        "os.replace",
        "os.remove",
        "os.rename",
        "os.unlink",
        "os.mkdir",
        "os.makedirs",
        "os.rmdir",
        "shutil.copy",
        "shutil.copyfile",
        "shutil.copytree",
        "shutil.move",
        "shutil.rmtree",
        "subprocess.run",
        "subprocess.Popen",
        "subprocess.check_call",
        "subprocess.check_output",
        "socket.socket",
        "urllib.request.urlopen",
    }
)

#: IO-shaped methods on unresolved receivers (Path/file objects).
IO_METHODS = frozenset(
    {"write_text", "write_bytes", "read_text", "read_bytes", "touch", "unlink", "mkdir"}
)

#: Methods that mutate their receiver in place (list/dict/set protocol).
MUTATOR_METHODS = frozenset(
    {
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
        "sort",
        "reverse",
    }
)

#: hashlib constructors: a call into one marks the function a digest
#: producer for DET006.
DIGEST_CALLS = frozenset(
    {
        "hashlib.sha256",
        "hashlib.sha1",
        "hashlib.sha512",
        "hashlib.sha3_256",
        "hashlib.md5",
        "hashlib.blake2b",
        "hashlib.blake2s",
        "hashlib.new",
    }
)


# ------------------------------------------------------- program model
@dataclass(frozen=True)
class EffectSite:
    """Where a direct effect enters a function."""

    effect: Effect
    lineno: int
    detail: str  # e.g. "time.perf_counter()" or "REGISTRY[...] = ..."


@dataclass
class FunctionInfo:
    """One analyzed function (or method) and its direct behavior."""

    module: str
    qualname: str  # module-local: "f" or "Class.f"
    lineno: int
    sites: list[EffectSite] = field(default_factory=list)
    calls: set[str] = field(default_factory=set)  # resolved full names
    makes_digest: bool = False  # calls a hashlib constructor

    @property
    def full(self) -> str:
        return f"{self.module}.{self.qualname}"


@dataclass
class ModuleInfo:
    """One parsed module: imports, definitions, pragmas."""

    name: str
    path: Path
    rel: str  # path relative to the analysis root, for locations
    imports: dict[str, str] = field(default_factory=dict)  # local -> dotted
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, set[str]] = field(default_factory=dict)  # name -> methods
    module_level_names: set[str] = field(default_factory=set)
    experiment_builders: list[str] = field(default_factory=list)
    exemptions: set[str] = field(default_factory=set)
    skipped: set[int] = field(default_factory=set)
    parse_error: str | None = None


#: Provenance of one transitive effect on one function: either a direct
#: site in that function, or the callee the effect arrived through.
Provenance = EffectSite | str


@dataclass
class Program:
    """The whole analyzed tree, its call graph, and effect summaries."""

    root: Path
    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: full name -> effect -> provenance, computed by the fixpoint.
    summaries: dict[str, dict[Effect, Provenance]] = field(default_factory=dict)

    def effects_of(self, full: str) -> set[Effect]:
        return set(self.summaries.get(full, ()))

    def reachable_from(self, roots: list[str]) -> set[str]:
        """Every analyzed function reachable from the given roots."""
        seen: set[str] = set()
        frontier = [r for r in roots if r in self.functions]
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            frontier.extend(
                callee
                for callee in self.functions[name].calls
                if callee in self.functions and callee not in seen
            )
        return seen


# ------------------------------------------------------- module parsing
def _module_name(root: Path, path: Path, package: str | None) -> str:
    rel = path.relative_to(root)
    parts = list(rel.parts)
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    if package:
        parts.insert(0, package)
    return ".".join(parts) if parts else (package or "")


def _import_table(tree: ast.Module, module: str) -> dict[str, str]:
    """Local name -> dotted target, resolving aliases and relativity."""
    package = module.rsplit(".", 1)[0] if "." in module else module
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                table[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                keep = len(parts) - (node.level - 1)
                base = ".".join(parts[:keep] + ([base] if base else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{base}.{alias.name}" if base else alias.name
    return table


def _experiments_registry(tree: ast.Module) -> list[str]:
    """Function names registered in a module-level EXPERIMENTS dict."""
    for node in tree.body:
        value = None
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "EXPERIMENTS" for t in node.targets
        ):
            value = node.value
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "EXPERIMENTS"
        ):
            value = node.value
        if isinstance(value, ast.Dict):
            return [v.id for v in value.values if isinstance(v, ast.Name)]
    return []


def parse_module(name: str, path: Path, root: Path) -> ModuleInfo:
    """Parse one file into its :class:`ModuleInfo` (no effects yet)."""
    source = path.read_text(encoding="utf-8")
    rel = "/".join(path.relative_to(root).parts)
    info = ModuleInfo(name=name, path=path, rel=rel)
    info.exemptions = module_exemptions(source)
    info.skipped = skipped_lines(source)
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        info.parse_error = f"{exc.msg} (line {exc.lineno})"
        return info
    info.imports = _import_table(tree, name)
    info.experiment_builders = _experiments_registry(tree)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[node.name] = FunctionInfo(
                module=name, qualname=node.name, lineno=node.lineno
            )
            info.module_level_names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            methods = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            info.classes[node.name] = methods
            info.module_level_names.add(node.name)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{node.name}.{item.name}"
                    info.functions[qual] = FunctionInfo(
                        module=name, qualname=qual, lineno=item.lineno
                    )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    info.module_level_names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            info.module_level_names.add(node.target.id)
    info._tree = tree  # type: ignore[attr-defined]  # consumed by _analyze_bodies
    return info


# ------------------------------------------------------- body analysis
class _BodyAnalyzer(ast.NodeVisitor):
    """Direct effects and resolved call edges for one function body."""

    def __init__(self, program: Program, mod: ModuleInfo, fn: FunctionInfo,
                 class_name: str | None) -> None:
        self.program = program
        self.mod = mod
        self.fn = fn
        self.class_name = class_name
        self.globals_declared: set[str] = set()
        self.local_names: set[str] = set()  # params + names bound in the body
        self.local_types: dict[str, str] = {}  # var -> analyzed class full name
        self.parents: dict[ast.AST, ast.AST] = {}

    # -- name resolution ------------------------------------------------
    def _dotted(self, node: ast.expr) -> str | None:
        """Resolve an expression to a dotted path, or None."""
        if isinstance(node, ast.Name):
            name = node.id
            if self.class_name and name == "self":
                return f"{self.mod.name}.{self.class_name}"
            if name in self.local_types:
                return self.local_types[name]
            if name in self.local_names and name not in self.globals_declared:
                return None  # a local binding shadows everything else
            if name in self.mod.functions and "." not in name:
                return f"{self.mod.name}.{name}"
            if name in self.mod.classes:
                return f"{self.mod.name}.{name}"
            if name in self.mod.imports:
                return self.mod.imports[name]
            return name  # builtin or unknown
        if isinstance(node, ast.Attribute):
            base = self._dotted(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        if isinstance(node, ast.Call):
            # Chained construction: ClassName(...).method — type of the
            # call is the class when the callee resolves to one.
            target = self._dotted(node.func)
            if target is not None and self._class_of(target) is not None:
                return target
        return None

    def _class_of(self, dotted: str) -> tuple[ModuleInfo, str] | None:
        """(module, class name) when a dotted path names an analyzed class."""
        if "." not in dotted:
            return None
        module, cls = dotted.rsplit(".", 1)
        info = self.program.modules.get(module)
        if info is not None and cls in info.classes:
            return info, cls
        return None

    def _function_target(self, dotted: str) -> str | None:
        """Full name of the analyzed function a dotted path names."""
        if dotted in self.program.functions:
            return dotted
        # module.Class.method or module.function with the module joined in
        if "." in dotted:
            head, tail = dotted.rsplit(".", 1)
            owner = self._class_of(head)
            if owner is not None:
                info, cls = owner
                if tail in info.classes[cls]:
                    return f"{info.name}.{cls}.{tail}"
            # A from-imported symbol re-exported by a package __init__:
            # fall through, unresolved.
        return None

    # -- effect recording ----------------------------------------------
    def _site(self, effect: Effect, node: ast.AST, detail: str) -> None:
        self.fn.sites.append(EffectSite(effect=effect, lineno=node.lineno, detail=detail))

    def _order_imposed(self, node: ast.Call) -> bool:
        """True when the fs-order call is directly wrapped in sorted()."""
        parent = self.parents.get(node)
        if isinstance(parent, ast.Starred):
            parent = self.parents.get(parent)
        if isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name):
            return parent.func.id in ORDER_IMPOSING
        return False

    def _classify_external(self, node: ast.Call, dotted: str) -> None:
        method = dotted.rsplit(".", 1)[1] if "." in dotted else dotted
        if dotted in RNG_FACTORIES:
            seeded = bool(node.args) or any(kw.arg == "seed" for kw in node.keywords)
            if not seeded:
                self._site(Effect.UNSEEDED_RNG, node, f"{dotted}() with no seed")
            return
        if dotted in CLOCK_CALLS:
            self._site(Effect.READS_CLOCK, node, f"{dotted}()")
        elif dotted in ENTROPY_CALLS or dotted.startswith(ENTROPY_PREFIXES):
            self._site(Effect.READS_ENTROPY, node, f"{dotted}()")
        elif dotted == "os.getenv" or dotted.startswith("os.environ"):
            self._site(Effect.READS_ENV, node, f"{dotted}()")
        elif dotted in FS_ORDER_CALLS:
            if not self._order_imposed(node):
                self._site(Effect.FS_ORDER, node, f"{dotted}() unsorted")
        elif dotted in IO_CALLS:
            self._site(Effect.PERFORMS_IO, node, f"{dotted}()")
        elif dotted in DIGEST_CALLS:
            self.fn.makes_digest = True
        else:
            self._method_heuristics(node, method)

    def _method_heuristics(self, node: ast.Call, method: str) -> None:
        """Receiver-independent method checks (Path-like/file-like objects)."""
        if method in FS_ORDER_METHODS and not self._order_imposed(node):
            self._site(Effect.FS_ORDER, node, f".{method}() unsorted")
        elif method in IO_METHODS:
            self._site(Effect.PERFORMS_IO, node, f".{method}()")

    def _module_level_base(self, node: ast.expr) -> str | None:
        """Name of the module-global a store/mutation targets, if any."""
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        name = node.id
        if name in self.globals_declared:
            return name
        if name in self.local_names or name in self.local_types or name == "self":
            return None
        if name in self.mod.module_level_names and name not in self.mod.functions:
            return name  # plain module global, or a class (shared attrs)
        target = self.mod.imports.get(name)
        if target and "." in target:
            module, attr = target.rsplit(".", 1)
            owner = self.program.modules.get(module)
            if owner is not None and attr in owner.module_level_names:
                if attr in owner.functions or attr in owner.classes:
                    return None  # rebinding a function/class name is not state
                return name
        return None

    # -- visitors -------------------------------------------------------
    def visit_Global(self, node: ast.Global) -> None:
        self.globals_declared.update(node.names)
        self.generic_visit(node)

    def _handle_store(self, target: ast.expr, node: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.globals_declared:
                self._site(Effect.MUTATES_GLOBAL, node, f"global {target.id} = ...")
            return
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            base = self._module_level_base(target)
            if base is not None:
                shape = "[...]" if isinstance(target, ast.Subscript) else f".{target.attr}"
                self._site(Effect.MUTATES_GLOBAL, node, f"{base}{shape} = ...")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._handle_store(elt, node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # Local type tracking: x = ClassName(...)
        if isinstance(node.value, ast.Call):
            dotted = self._dotted(node.value.func)
            if dotted is not None and self._class_of(dotted) is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.local_types[target.id] = dotted
        for target in node.targets:
            self._handle_store(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._handle_store(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._handle_store(node.target, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)
        resolved = False
        if dotted is not None:
            target = self._function_target(dotted)
            owner = self._class_of(dotted)
            if target is not None:
                self.fn.calls.add(target)
                resolved = True
            elif owner is not None:
                info, cls = owner
                if "__init__" in info.classes[cls]:
                    self.fn.calls.add(f"{info.name}.{cls}.__init__")
                resolved = True
            else:
                self._classify_external(node, dotted)
        elif isinstance(node.func, ast.Attribute):
            # Unresolved receiver (a local, an expression): method-name
            # heuristics still apply.
            self._method_heuristics(node, node.func.attr)
        if not resolved and isinstance(node.func, ast.Attribute):
            method = node.func.attr
            if method in MUTATOR_METHODS:
                base = self._module_level_base(node.func.value)
                if base is not None:
                    self._site(Effect.MUTATES_GLOBAL, node, f"{base}.{method}(...)")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Non-call environment reads: os.environ[...] / os.environ.get
        dotted = self._dotted(node)
        if dotted == "os.environ":
            parent = self.parents.get(node)
            if not (isinstance(parent, ast.Call) and parent.func is node):
                self._site(Effect.READS_ENV, node, "os.environ")
        self.generic_visit(node)

    def run(self, body: list[ast.stmt], args: ast.arguments) -> None:
        # Python scoping up front: params and every name bound anywhere
        # in the body are locals (unless declared global), and they
        # shadow module-level names for the whole function.
        all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        self.local_names.update(arg.arg for arg in all_args)
        if args.vararg is not None:
            self.local_names.add(args.vararg.arg)
        if args.kwarg is not None:
            self.local_names.add(args.kwarg.arg)
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(
                    node.ctx, (ast.Store, ast.Del)
                ):
                    self.local_names.add(node.id)
                elif isinstance(node, ast.Global):
                    self.globals_declared.update(node.names)
                elif isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    self.local_names.add(node.name)
                elif isinstance(node, ast.ExceptHandler) and node.name:
                    self.local_names.add(node.name)
                for child in ast.iter_child_nodes(node):
                    self.parents[child] = node
        # Parameter annotations seed the local type table.
        for arg in all_args:
            if arg.annotation is not None:
                dotted = self._dotted_annotation(arg.annotation)
                if dotted is not None and self._class_of(dotted) is not None:
                    self.local_types[arg.arg] = dotted
        for stmt in body:
            self.visit(stmt)

    def _dotted_annotation(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, (ast.Name, ast.Attribute)):
            return self._dotted(node)
        return None


def _analyze_bodies(program: Program) -> None:
    for mod in program.modules.values():
        tree = getattr(mod, "_tree", None)
        if tree is None:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                analyzer = _BodyAnalyzer(program, mod, mod.functions[node.name], None)
                analyzer.run(node.body, node.args)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fn = mod.functions[f"{node.name}.{item.name}"]
                        analyzer = _BodyAnalyzer(program, mod, fn, node.name)
                        analyzer.run(item.body, item.args)
        del mod._tree  # type: ignore[attr-defined]


# ------------------------------------------------------- fixpoint
def _propagate(program: Program) -> None:
    """Transitive effect summaries with provenance, to a fixpoint.

    ``summaries[f][e]`` is either the :class:`EffectSite` where ``f``
    performs ``e`` directly, or the full name of the callee the effect
    arrived through — enough to reconstruct a call chain to the sink.
    Direct sites win over inherited ones, and a function's summary only
    grows, so the iteration terminates in O(functions x effects) rounds.
    """
    summaries = program.summaries
    for full, fn in program.functions.items():
        summaries[full] = {}
        for site in fn.sites:
            summaries[full].setdefault(site.effect, site)

    changed = True
    while changed:
        changed = False
        for full, fn in program.functions.items():
            summary = summaries[full]
            for callee in fn.calls:
                if callee == full:
                    continue
                for effect in summaries.get(callee, ()):
                    if effect not in summary:
                        summary[effect] = callee
                        changed = True


def effect_chain(program: Program, full: str, effect: Effect) -> list[str]:
    """Call chain from ``full`` to the direct site of ``effect``.

    Returns ``[full, ..., sink]``; the sink is where the effect is
    performed directly.  Empty when the function lacks the effect.
    """
    chain = [full]
    seen = {full}
    current = full
    while True:
        provenance = program.summaries.get(current, {}).get(effect)
        if provenance is None:
            return []
        if isinstance(provenance, EffectSite):
            return chain
        if provenance in seen:  # defensive: cyclic provenance
            return chain
        seen.add(provenance)
        chain.append(provenance)
        current = provenance


def _sink_site(program: Program, full: str, effect: Effect) -> tuple[str, EffectSite] | None:
    chain = effect_chain(program, full, effect)
    if not chain:
        return None
    sink = chain[-1]
    provenance = program.summaries[sink][effect]
    assert isinstance(provenance, EffectSite)
    return sink, provenance


# ------------------------------------------------------- tree walking
def analyze_tree(root: Path | str, package: str | None = None) -> Program:
    """Parse and analyze every ``*.py`` under ``root``.

    ``package`` is the dotted prefix for module names; when omitted it
    is ``root.name`` if the root directory is itself a package
    (contains ``__init__.py``), else empty.
    """
    root = Path(root).resolve()
    if package is None and (root / "__init__.py").is_file():
        package = root.name
    program = Program(root=root)
    for path in sorted(root.rglob("*.py")):
        if "egg-info" in str(path):
            continue
        name = _module_name(root, path, package)
        if not name:
            continue
        program.modules[name] = parse_module(name, path, root)
    for mod in program.modules.values():
        for fn in mod.functions.values():
            program.functions[fn.full] = fn
    _analyze_bodies(program)
    _propagate(program)
    return program


# ------------------------------------------------------- contracts
@dataclass(frozen=True)
class EffectContract:
    """What the analyzer enforces: who must be pure, and how."""

    #: Functions that must be transitively deterministic (DET001-004).
    deterministic_roots: tuple[str, ...] = ()
    #: Pool-worker entry points: everything reachable must not mutate
    #: module-global state (DET005).
    worker_roots: tuple[str, ...] = ()


def default_contract(program: Program) -> EffectContract:
    """The repo's standing contract, derived from the analyzed tree.

    Builders come from any module-level ``EXPERIMENTS`` registry in the
    tree; when the tree is this repository's own ``repro`` package, the
    engine's static enumeration
    (:func:`repro.engine.deps.builder_entry_points`) is consulted too,
    so the contract can never drift from what the executor actually
    dispatches.  Digest/keying functions of the engine join the
    deterministic roots; the pool worker entry joins the worker roots.
    """
    det_roots: list[str] = []
    worker_roots: list[str] = []
    for mod in program.modules.values():
        for builder in mod.experiment_builders:
            full = f"{mod.name}.{builder}"
            if full in program.functions:
                det_roots.append(full)
                worker_roots.append(full)
    if "repro.suite.experiments" in program.modules:
        from repro.engine.deps import builder_entry_points

        for _exp_id, module, func in builder_entry_points():
            full = f"{module}.{func}"
            if full in program.functions and full not in det_roots:
                det_roots.append(full)
                worker_roots.append(full)
    for full in (
        "repro.engine.deps.experiment_digest",
        "repro.engine.deps.suite_digests",
        "repro.explore.engine.grid_chunk_key",
        "repro.engine.store.canonical_bytes",
        "repro.engine.store.payload_checksum",
    ):
        if full in program.functions:
            det_roots.append(full)
    worker_entry = "repro.engine.executor._execute_job"
    if worker_entry in program.functions:
        worker_roots.append(worker_entry)
    return EffectContract(
        deterministic_roots=tuple(det_roots), worker_roots=tuple(worker_roots)
    )


@dataclass(frozen=True)
class Finding:
    """One contract violation: a diagnostic plus its baseline identity."""

    diagnostic: Diagnostic
    fingerprint: str


@dataclass
class EffectsReport:
    """Everything one contract check produced."""

    subject: str
    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0  # baselined findings
    stale_baseline: list[str] = field(default_factory=list)

    @property
    def diagnostics(self) -> DiagnosticReport:
        report = DiagnosticReport(subject=self.subject)
        report.diagnostics.extend(f.diagnostic for f in self.findings)
        return report

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.diagnostic.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.diagnostic.severity is not Severity.ERROR]

    def exit_code(self) -> int:
        """Uniform CLI convention: 0 clean, 1 warnings only, 2 errors."""
        if self.errors:
            return 2
        if self.findings:
            return 1
        return 0

    def summary_line(self) -> str:
        if not self.findings and not self.suppressed:
            return "clean"
        parts = []
        if self.findings:
            parts.append(self.diagnostics.summary_line())
        if self.suppressed:
            parts.append(f"{self.suppressed} baselined")
        return "; ".join(parts) if parts else "clean"


def _location(program: Program, full: str, lineno: int | None = None) -> str:
    fn = program.functions[full]
    mod = program.modules[fn.module]
    return f"{mod.rel}:{lineno if lineno is not None else fn.lineno}"


def _exempted(program: Program, rule_id: str, root: str, sink: str,
              site: EffectSite | None) -> bool:
    """Escape hatches: sink-line skip, sink-module or root-module exempt."""
    for full in (sink, root):
        mod = program.modules[program.functions[full].module]
        if rule_id in mod.exemptions:
            return True
    if site is not None:
        sink_mod = program.modules[program.functions[sink].module]
        if site.lineno in sink_mod.skipped:
            return True
    return False


def _chain_text(chain: list[str]) -> str:
    return " -> ".join(chain)


def check_contracts(
    program: Program,
    contract: EffectContract | None = None,
    baseline: set[str] | None = None,
) -> EffectsReport:
    """Apply the DET rule family to the program's effect summaries."""
    contract = contract if contract is not None else default_contract(program)
    baseline = baseline or set()
    report = EffectsReport(subject=str(program.root))
    seen_fingerprints: set[str] = set()
    used_baseline: set[str] = set()

    def emit(rule_id: str, severity: Severity, location: str, message: str,
             fingerprint: str) -> None:
        if fingerprint in seen_fingerprints:
            return
        seen_fingerprints.add(fingerprint)
        if fingerprint in baseline:
            used_baseline.add(fingerprint)
            report.suppressed += 1
            return
        report.findings.append(
            Finding(
                diagnostic=Diagnostic(
                    rule_id=rule_id,
                    severity=severity,
                    location=location,
                    message=message,
                ),
                fingerprint=fingerprint,
            )
        )

    # DET000: parse failures are findings, not silent coverage holes.
    for mod in program.modules.values():
        if mod.parse_error is not None:
            emit(
                "DET000",
                Severity.ERROR,
                f"{mod.rel}:1",
                f"file does not parse ({mod.parse_error}); its effects are unknown",
                f"DET000 {mod.name} parse",
            )

    # DET001-004: deterministic roots carry no determinism-breaking effect.
    for root in contract.deterministic_roots:
        if root not in program.functions:
            continue
        for effect, rule_id in DETERMINISM_RULES.items():
            resolved = _sink_site(program, root, effect)
            if resolved is None:
                continue
            sink, site = resolved
            if _exempted(program, rule_id, root, sink, site):
                continue
            chain = effect_chain(program, root, effect)
            via = (
                f" via {_chain_text(chain)}" if len(chain) > 1 else ""
            )
            emit(
                rule_id,
                Severity.ERROR,
                _location(program, root),
                (
                    f"deterministic root {root} transitively has effect "
                    f"'{effect}'{via}; sink {sink} at "
                    f"{_location(program, sink, site.lineno)}: {site.detail} — "
                    f"the cache key cannot see this, so cached results would "
                    f"be unsound"
                ),
                f"{rule_id} {sink} {site.detail}",
            )

    # DET005: nothing reachable from a pool worker mutates module globals.
    worker_reachable = program.reachable_from(list(contract.worker_roots))
    for full in sorted(worker_reachable):
        fn = program.functions[full]
        for site in fn.sites:
            if site.effect is not Effect.MUTATES_GLOBAL:
                continue
            if _exempted(program, "DET005", full, full, site):
                continue
            emit(
                "DET005",
                Severity.ERROR,
                _location(program, full, site.lineno),
                (
                    f"{full} mutates module-global state ({site.detail}) and is "
                    f"reachable from a pool-worker entry point; forked workers "
                    f"each see their own copy, so this state silently diverges "
                    f"between parent and workers"
                ),
                f"DET005 {full} {site.detail}",
            )

    # DET006: digest producers never consume unstable filesystem order.
    for full, fn in sorted(program.functions.items()):
        if not fn.makes_digest:
            continue
        resolved = _sink_site(program, full, Effect.FS_ORDER)
        if resolved is None:
            continue
        sink, site = resolved
        if _exempted(program, "DET006", full, sink, site):
            continue
        chain = effect_chain(program, full, Effect.FS_ORDER)
        emit(
            "DET006",
            Severity.ERROR,
            _location(program, full),
            (
                f"{full} feeds a digest but iterates the filesystem in "
                f"platform order via {_chain_text(chain)}; sink {sink} at "
                f"{_location(program, sink, site.lineno)}: {site.detail} — "
                f"wrap the iteration in sorted() so the digest is "
                f"order-independent"
            ),
            f"DET006 {sink} {site.detail}",
        )

    # DET000: stale baseline entries (suppressing nothing) should go.
    for fingerprint in sorted(baseline - used_baseline):
        report.stale_baseline.append(fingerprint)
        report.findings.append(
            Finding(
                diagnostic=Diagnostic(
                    rule_id="DET000",
                    severity=Severity.WARNING,
                    location=f"{DEFAULT_BASELINE}:1",
                    message=(
                        f"baseline entry {fingerprint!r} no longer matches any "
                        f"finding; delete it (or regenerate with "
                        f"--write-baseline) so the baseline only shrinks"
                    ),
                ),
                fingerprint=f"DET000 stale {fingerprint}",
            )
        )
    return report


def analyze_and_check(
    root: Path | str,
    package: str | None = None,
    baseline: set[str] | None = None,
    contract: EffectContract | None = None,
) -> EffectsReport:
    """One-call front door: :func:`analyze_tree` then :func:`check_contracts`."""
    program = analyze_tree(root, package)
    return check_contracts(program, contract=contract, baseline=baseline)


# ------------------------------------------------------- baseline file
def load_baseline(path: Path | str) -> set[str]:
    """Fingerprints from a baseline file; empty set when absent."""
    path = Path(path)
    if not path.is_file():
        return set()
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"baseline schema {payload.get('schema')!r} is not {BASELINE_SCHEMA}; "
            f"regenerate with --write-baseline"
        )
    return set(payload.get("findings", []))


def write_baseline(path: Path | str, report: EffectsReport) -> int:
    """Persist every current ERROR fingerprint; returns the entry count.

    Warnings (stale-baseline notices) are never baselined — they exist
    to shrink this file, not to grow it.
    """
    fingerprints = sorted(f.fingerprint for f in report.errors)
    payload = {
        "schema": BASELINE_SCHEMA,
        "comment": (
            "Accepted pre-existing effect-analysis findings "
            "(python -m repro.analysis effects). New findings gate CI; "
            "fix one, then delete its line here."
        ),
        "findings": fingerprints,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return len(fingerprints)


# ------------------------------------------------------- SARIF output
_SEVERITY_TO_SARIF = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}

#: One-line rule descriptions, rendered into SARIF and ``--explain``.
RULE_DESCRIPTIONS = {
    "DET000": "effect-analysis meta finding (parse failure or stale baseline entry)",
    "DET001": "deterministic root transitively reads the host clock",
    "DET002": "deterministic root transitively draws entropy or builds an unseeded RNG",
    "DET003": "deterministic root transitively reads the process environment",
    "DET004": "deterministic root transitively iterates the filesystem in unstable order",
    "DET005": "pool-worker-reachable function mutates module-global state",
    "DET006": "digest producer consumes unstable filesystem iteration order",
}


def sarif_report(report: EffectsReport) -> dict:
    """The findings as a minimal SARIF 2.1.0 document (one run)."""
    results = []
    for finding in report.findings:
        diag = finding.diagnostic
        uri, _, line = diag.location.rpartition(":")
        results.append(
            {
                "ruleId": diag.rule_id,
                "level": _SEVERITY_TO_SARIF[diag.severity],
                "message": {"text": diag.message},
                "partialFingerprints": {"repro/effects/v1": finding.fingerprint},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": uri},
                            "region": {"startLine": int(line) if line.isdigit() else 1},
                        }
                    }
                ],
            }
        )
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-effects",
                        "informationUri": "https://example.invalid/repro",
                        "rules": [
                            {"id": rule, "shortDescription": {"text": text}}
                            for rule, text in sorted(RULE_DESCRIPTIONS.items())
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
