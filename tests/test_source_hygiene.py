"""Source hygiene of ``src/hsagg``: no module imports a name it never
uses, every private top-level function, class or constant is
referenced somewhere in the package, and every name a module lists in
``__all__`` is bound in it.  A deletion that leaves an import, a helper
or an export behind fails here.  The modules that read outside input
never build a matrix without reducing its entries, no module uses
``numpy.random``, numpy loads only inside ``leakage``'s functions (the
brute-force oracle), only ``matrix`` writes a ``RowSpace``'s state, and no
module reads another's private name.  ``leakage`` builds a ``RowSpace``
only for the memo-keyed split kernels and the reference quadruple.
Inside ``leakage`` only the rank store's methods and ``LinearTranscript.record`` read its
``givens`` and ``quadruples`` tables, the rank store's body builds no f-string and reads
no ``.rows``, and in the package only ``protocol.run_helpers``
runs the helper roles, none of which takes or reads a pattern.  Only ``patterns`` takes
``itertools.combinations``: its ``subsets`` is the one enumeration of
user and helper subsets.  ``leakage`` never names ``master_decode``: the
verifier's round stops at the responses.  ``harness`` never names
``run_helpers``, ``encode_round_uploads`` or ``DealerKeys``: the
campaign's one round per pattern is ``leakage.UnitRound``'s.  ``harness`` names ``run_round``
and ``dealer_generate`` only in ``_seeded_round``, the one round that ``round`` and ``rates``
run.  Each option is declared once,
as a ``RunConfig`` field, and the parser, the config keys, the
README's key list and its flag table's refusals all follow that table.  Only
``harness._csv`` builds a ``csv.writer``, and ``cli`` names no CSV column: each CSV
report is read off its JSON document in one place.  The package's optional
parameters and its public names are counted, so a change that adds or
removes one shows."""

import ast
import re
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from pathlib import Path

from hsagg.harness import (
    OPTIONS,
    RunConfig,
    VerifyReport,
    render_leakage_csv,
    render_rates_csv,
    render_verify_csv,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hsagg"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _annotation_names(node: ast.AST) -> set[str]:
    """Names in an annotation, those inside string annotations too."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _exported(tree: ast.Module) -> set[str]:
    """The entries of a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _used_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name that ``tree`` reads, as a bare name or an attribute,
    outside the subtree ``skip``."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AsyncFunctionDef, ast.AnnAssign)):
            for annotation in (
                getattr(node, "annotation", None),
                getattr(node, "returns", None),
            ):
                if annotation is not None:
                    used |= _annotation_names(annotation)
        stack.extend(ast.iter_child_nodes(node))
    return used


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and neither reads nor lists in ``__all__``."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = _used_names(tree) | _exported(tree)
    return [name for name in imported if name not in used]


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Every top-level function, class or assigned name, with the
    statement that binds it."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out += [(n, node) for n in names]
    return out


def _private_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    return [
        (n, node) for n, node in _definitions(tree) if n.startswith("_") and not n.startswith("__")
    ]


def undefined_exports(tree: ast.Module) -> list[str]:
    """Entries of ``__all__`` that the module neither defines nor
    imports at top level."""
    bound = {name for name, _ in _definitions(tree)}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
    return sorted(_exported(tree) - bound)


def unreferenced_privates(trees: dict[str, ast.Module]) -> list[str]:
    """Private top-level names referenced nowhere but in their own
    definition."""
    used = {module: _used_names(tree) for module, tree in trees.items()}
    out = []
    for module, tree in trees.items():
        elsewhere = set().union(*(names for m, names in used.items() if m != module))
        for name, definition in _private_definitions(tree):
            if name not in elsewhere and name not in _used_names(tree, skip=definition):
                out.append(f"{module}.{name}")
    return out


# modules that read files, flags or configs: their data must be reduced
READS_OUTSIDE_INPUT = ("harness", "cli")


def reduced_constructions(tree: ast.Module) -> list[int]:
    """Lines that name ``GfMatrix.of_reduced``, the constructor that
    takes entries as canonical residues without reducing them."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "of_reduced")
        or (isinstance(node, ast.Name) and node.id == "of_reduced")
        or (isinstance(node, ast.Constant) and node.value == "of_reduced")
    )


def numpy_random_uses(tree: ast.Module) -> list[int]:
    """Lines that import or name ``numpy.random``: an import of it or
    from it, ``random`` taken from numpy, an attribute ``random`` of a
    name bound to numpy, or a string naming it."""
    aliases = {
        a.asname or "numpy"
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for a in node.names
        if a.name == "numpy" or (a.name.startswith("numpy.") and not a.asname)
    }

    def names_it(module: str | None) -> bool:
        return module == "numpy.random" or (module or "").startswith("numpy.random.")

    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(names_it(a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = names_it(node.module) or (
                node.module == "numpy" and any(a.name == "random" for a in node.names)
            )
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "random" and isinstance(node.value, ast.Name) and (
                node.value.id in aliases
            )
        elif isinstance(node, ast.Constant):
            hit = isinstance(node.value, str) and "numpy.random" in node.value
        else:
            continue
        if hit:
            lines.add(node.lineno)
    return sorted(lines)


# the modules that may import numpy, and only inside a function: the
# brute-force oracle's, so that the campaign path never loads it
NUMPY_MODULES = ("leakage",)


def numpy_imports(tree: ast.Module) -> list[tuple[int, bool]]:
    """Lines that import numpy or a module of it, by an import statement
    or ``import_module``/``__import__`` of a literal name, each with
    whether the import runs when the module loads: outside every
    function body."""

    def names_it(module: str | None) -> bool:
        return module == "numpy" or (module or "").startswith("numpy.")

    in_function = {
        id(node)
        for scope in ast.walk(tree)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(scope)
        if node is not scope
    }
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(names_it(a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = not node.level and names_it(node.module)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            first = node.args[0] if node.args else None
            hit = name in ("import_module", "__import__") and isinstance(first, ast.Constant) and (
                isinstance(first.value, str) and names_it(first.value)
            )
        else:
            continue
        if hit:
            lines.add((node.lineno, id(node) not in in_function))
    return sorted(lines)


def numpy_import_breaches(trees: dict[str, ast.Module]) -> list[str]:
    """``module:line`` of each numpy import that runs when its module
    loads, or that lies outside ``NUMPY_MODULES``."""
    return [
        f"{module}:{line}"
        for module, tree in trees.items()
        for line, at_load in numpy_imports(tree)
        if at_load or module not in NUMPY_MODULES
    ]


# a RowSpace's state: its clones share basis rows, so only matrix.py writes them
ROWSPACE_STATE = ("basis", "pivots", "support")
LIST_MUTATORS = ("append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse")


def _stored(target: ast.AST) -> list[ast.AST]:
    """The expressions an assignment target stores into, unpacked."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [t for elt in target.elts for t in _stored(elt)]
    if isinstance(target, ast.Starred):
        return _stored(target.value)
    return [target]


def rowspace_state_writes(tree: ast.Module) -> list[int]:
    """Lines that assign to, delete or mutate in place a ``.basis``,
    ``.pivots`` or ``.support`` attribute or an item of one."""

    def is_state(node: ast.AST) -> bool:
        while isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Attribute) and node.attr in ROWSPACE_STATE

    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = [t for target in node.targets for t in _stored(target)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            targets = [node.func.value] if node.func.attr in LIST_MUTATORS else []
        else:
            continue
        if any(is_state(target) for target in targets):
            lines.add(node.lineno)
    return sorted(lines)


# where leakage builds a RowSpace: the split kernels, which key the rank
# store's memos in their canonical reduced echelon form, and the reference
# quadruple; a query that reads only a rank eliminates forward instead
ROWSPACE_BUILDERS = ("_split_observed", "_extended_kernel", "rank_quadruple")


def rowspace_builds(tree: ast.Module, allowed: tuple[str, ...]) -> list[int]:
    """Lines that call ``RowSpace(...)`` or name ``of_echelon`` outside the
    top-level classes and functions named in ``allowed``."""
    return sorted(
        {
            sub.lineno
            for node in tree.body
            if getattr(node, "name", None) not in allowed
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and "RowSpace" in (
                getattr(sub.func, "id", None), getattr(sub.func, "attr", None))
            or isinstance(sub, ast.Attribute) and sub.attr == "of_echelon"
        }
    )


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def foreign_private_reads(tree: ast.Module) -> list[int]:
    """Lines that read another hsagg module's private name: ``from .mod
    import _x``, or ``mod._x`` where ``mod`` is bound to an hsagg module
    by ``from . import mod`` or ``import hsagg.mod as mod``."""
    modules, lines = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "hsagg"):
            if node.module in (None, "hsagg"):
                modules |= {a.asname or a.name for a in node.names}
            lines |= {node.lineno for a in node.names if _private(a.name)}
        elif isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.asname and a.name.startswith("hsagg.")}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and _private(node.attr)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            lines.add(node.lineno)
    return sorted(lines)


def combinations_uses(tree: ast.Module) -> list[int]:
    """Lines that import ``combinations`` from ``itertools`` or read it
    as an attribute of a name bound to ``itertools``."""
    aliases = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for a in node.names
        if a.name == "itertools"
    }
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            hit = any(a.name == "combinations" for a in node.names)
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "combinations" and isinstance(node.value, ast.Name) and (
                node.value.id in aliases
            )
        else:
            continue
        if hit:
            lines.add(node.lineno)
    return sorted(lines)


def name_uses(tree: ast.Module, name: str) -> list[int]:
    """Lines whose code names ``name``: an import of it, a bare name or
    an attribute."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            hit = any(name in (a.name, a.asname) for a in node.names)
        elif isinstance(node, ast.Name):
            hit = node.id == name
        elif isinstance(node, ast.Attribute):
            hit = node.attr == name
        else:
            continue
        if hit:
            lines.add(node.lineno)
    return sorted(lines)


# what builds a round's helper phase, uploads or keys, which the campaign
# leaves to leakage's unit round
ROUND_BUILDERS = ("run_helpers", "encode_round_uploads", "DealerKeys")


def round_builder_uses(tree: ast.Module) -> list[int]:
    """Lines whose code names one of ``ROUND_BUILDERS``."""
    return sorted({line for name in ROUND_BUILDERS for line in name_uses(tree, name)})


# what seeds and runs a whole round, which harness leaves to its one seeded round
ROUND_RUNNERS = ("run_round", "dealer_generate")
# the rank store's memo tables that a security record reads directly
STORE_TABLES = ("givens", "quadruples")
# the helper roles, which only the helper phase runs
HELPER_ROLES = ("helper_share", "helper_recover", "helper_respond")


def reads_outside(tree: ast.Module, names: tuple[str, ...], allowed: tuple[str, ...]) -> list[int]:
    """Lines that read one of ``names``, as an attribute or a bare name,
    outside the top-level classes and functions named in ``allowed`` and
    the methods it names as ``Class.method``."""
    split = {owner.partition(".")[0] for owner in allowed if "." in owner}
    owned = [
        (f"{node.name}.{getattr(item, 'name', '')}", item)
        for node in tree.body if getattr(node, "name", None) in split for item in node.body
    ] + [(getattr(node, "name", None), node) for node in tree.body
         if getattr(node, "name", None) not in split]
    return sorted(
        {
            sub.lineno
            for owner, node in owned
            if owner not in allowed
            for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and sub.attr in names
            or isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id in names
        }
    )


# the rank routines, and the brute-force oracle's code, which names none of
# them: its counts are the independent check on the rank arithmetic
RANK_ROUTINES = ("_forward_echelon", "RowSpace", "joint_rank", "entropy_rank",
                 "rank_quadruple", "_split_observed")
ORACLE_CODE = ("BruteForceOracle", "_packed_word", "_first_labels", "_counted_entropy",
               "_stacked_tables")


def names_within(tree: ast.Module, names: tuple[str, ...], owners: tuple[str, ...]) -> list[int]:
    """Lines in the top-level classes and functions named in ``owners``
    whose code names one of ``names`` (see ``name_uses``)."""
    return sorted({
        line
        for node in tree.body
        if getattr(node, "name", None) in owners
        for name in names
        for line in name_uses(node, name)
    })


# what reading a pattern takes: its class, or one of its members
PATTERN_READS = ("CommPattern", "receivers", "survivors", "receivers_of", "users_of",
                 "active_helpers", "with_survivors")


def pattern_reads(tree: ast.Module, functions: tuple[str, ...]) -> list[int]:
    """Lines in the top-level functions named in ``functions`` that take
    a parameter named ``pattern``, annotate anything with ``CommPattern``,
    name it, or read one of ``PATTERN_READS`` as an attribute."""
    lines = set()
    for node in tree.body:
        if getattr(node, "name", None) not in functions:
            continue
        for sub in ast.walk(node):
            typed = [a for a in (getattr(sub, "annotation", None), getattr(sub, "returns", None))
                     if a is not None]
            if (isinstance(sub, ast.arg) and sub.arg == "pattern"
                    or any("CommPattern" in _annotation_names(a) for a in typed)
                    or isinstance(sub, ast.Name) and sub.id == "CommPattern"
                    or isinstance(sub, ast.Attribute) and sub.attr in PATTERN_READS):
                lines.add(sub.lineno)
    return sorted(lines)


def rank_store_name_work(tree: ast.Module) -> list[int] | None:
    """Lines in the body of class ``_RankStore`` that build an f-string or
    read an attribute ``rows``; None if the module defines no such class."""
    store = next((node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "_RankStore"), None)
    if store is None:
        return None
    return sorted({
        sub.lineno
        for sub in ast.walk(store)
        if isinstance(sub, ast.JoinedStr) or isinstance(sub, ast.Attribute) and sub.attr == "rows"
    })


# the rank store and the split quadruple's query and elimination, whose
# projections, embeddings and reorders are gathers prepared once
GATHER_OWNERS = ("_RankStore", "_split_query", "_split_quadruple")
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _own_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """``node`` and the nodes under it, but not inside a nested comprehension."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, COMPREHENSIONS):
            yield from _own_nodes(child)


def per_column_walks(tree: ast.Module, owners: tuple[str, ...]) -> list[int]:
    """Lines, inside the top-level classes and functions named in
    ``owners``, of a comprehension whose element indexes a sequence by
    one of its own loop variables (``[row[j] for j in order]``), or of a
    ``dict(zip(...))``."""
    lines = set()
    for node in tree.body:
        if getattr(node, "name", None) not in owners:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "dict" and any(
                isinstance(a, ast.Call) and getattr(a.func, "id", None) == "zip" for a in sub.args
            ):
                lines.add(sub.lineno)
            if not isinstance(sub, COMPREHENSIONS):
                continue
            bound = {n.id for g in sub.generators for n in ast.walk(g.target)
                     if isinstance(n, ast.Name)}
            elements = (sub.key, sub.value) if isinstance(sub, ast.DictComp) else (sub.elt,)
            if any(isinstance(x, ast.Subscript) and getattr(x.slice, "id", None) in bound
                   for element in elements for x in _own_nodes(element)):
                lines.add(sub.lineno)
    return sorted(lines)


OPTION_KEYS = {"parse", "help", "modes", "flag", "choices"}


def fields_without_option(cls) -> list[str]:
    """Fields of the dataclass ``cls`` but ``mode`` that do not declare
    exactly the option keys."""
    return [f.name for f in fields(cls) if f.name != "mode" and set(f.metadata) != OPTION_KEYS]


def stray_add_arguments(tree: ast.Module) -> list[int]:
    """Lines that call ``add_argument`` other than for ``--config`` or,
    inside a loop over ``OPTIONS``, with a flag that is not a literal."""
    in_table_loop = {
        id(node)
        for loop in ast.walk(tree)
        if isinstance(loop, ast.For) and "OPTIONS" in ast.unparse(loop.iter)
        for node in ast.walk(loop)
    }
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
            node.func.attr == "add_argument"
        ):
            flag = node.args[0] if node.args else None
            literal = isinstance(flag, ast.Constant)
            if not (literal and flag.value == "--config") and (
                literal or id(node) not in in_table_loop
            ):
                lines.add(node.lineno)
    return sorted(lines)


def option_name_literals(tree: ast.Module, names) -> list[int]:
    """Lines with a string literal that is an option's name, as in a
    hand-written list of options or a lookup of one by name."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in names
        }
    )


# the csv module's writers, which only ``harness._csv`` builds
CSV_WRITERS = ("writer", "DictWriter")


def csv_writer_builds(tree: ast.Module, allowed: tuple[str, ...]) -> list[int]:
    """Lines outside the top-level functions named in ``allowed`` that
    name one of ``CSV_WRITERS`` as an attribute or import from ``csv``."""
    return sorted(
        {
            sub.lineno
            for node in tree.body
            if getattr(node, "name", None) not in allowed
            for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and sub.attr in CSV_WRITERS
            or isinstance(sub, ast.ImportFrom) and sub.module == "csv"
        }
    )


def csv_columns() -> set[str]:
    """Every column of the three CSV reports, read off their header lines."""
    headers = (
        render_rates_csv([]),
        render_leakage_csv({"records": []}),
        render_verify_csv(VerifyReport(points=[])),
    )
    return {column for header in headers for column in header.decode().strip().split(",")}


def column_literals(tree: ast.Module, columns) -> list[int]:
    """Lines with a string literal that is one of ``columns``, other than
    as a subscript's key: ``row["feasible"]`` reads a field of a JSON
    document, where a bare literal lays out a report of its own."""
    keys = {id(node.slice) for node in ast.walk(tree) if isinstance(node, ast.Subscript)}
    return sorted(
        {
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in columns and id(node) not in keys
        }
    )


# Function and method defaults plus defaulted dataclass fields in the
# package: each is a switch that some caller may leave at its default.
# A change that removes some lowers this; one that adds some says why.
OPTIONAL_PARAMETERS = 40

# The ``__all__`` entries over the package: each is a name some caller
# may come to depend on.  A change that adds one says why.
PUBLIC_NAMES = 128


def _is_dataclass(node: ast.ClassDef) -> bool:
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators)


def optional_parameters(tree: ast.Module) -> int:
    """The defaults of every function, method and lambda, keyword-only
    ones included, and the dataclass fields given a default."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def flag_table(text: str, options) -> dict[str, dict[str, str]]:
    """The README's flag table: each option a row names (by key or by
    flag), with its cell in each mode's column."""
    lines = text[text.index("| flag |"):].split("\n\n", 1)[0].splitlines()
    modes = [cell.strip() for cell in lines[0].strip("|").split("|")[1:]]
    table = {}
    for line in lines[2:]:
        label, *cells = [cell.strip() for cell in line.strip("|").split("|")]
        for token in re.findall(r"`([^`]*)`", label):
            name = token.lstrip("-").split()[0].replace("-", "_")
            if name in options:
                table[name] = dict(zip(modes, cells))
    return table


def refusal_mismatches(table: dict[str, dict[str, str]], options) -> list[tuple[str, str]]:
    """(option, mode) cells that read ``exits 2`` though the mode reads
    the option, or read otherwise though it does not.  A mode that reads
    an option but refuses one value of it names why (``exits 2 (JSON
    only)``), so that cell does not read ``exits 2`` alone."""
    return [
        (name, mode)
        for name, cells in table.items()
        for mode, cell in cells.items()
        if (cell == "exits 2") == (mode in options[name]["modes"])
    ]


def _package() -> dict[str, ast.Module]:
    return {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}


def test_no_module_imports_a_name_it_never_uses():
    found = {module: unused_imports(tree) for module, tree in _package().items()}
    assert {module: names for module, names in found.items() if names} == {}


def test_every_private_top_level_name_is_referenced():
    assert unreferenced_privates(_package()) == []


def test_every_exported_name_is_bound():
    found = {module: undefined_exports(tree) for module, tree in _package().items()}
    assert {module: names for module, names in found.items() if names} == {}


def test_modules_that_read_outside_input_reduce_their_matrices():
    package = _package()
    found = {module: reduced_constructions(package[module]) for module in READS_OUTSIDE_INPUT}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_no_module_uses_numpy_random():
    """The campaign draws from the standard library's ``random``.
    Importing ``numpy.random`` raised the verify-grid benchmark's
    ``peak_rss_mb`` from 36.39 to 42.11 MB (+5.7 MB, +15.7%, one run
    each on a 2-vCPU host), beyond that metric's 10% bound.  numpy
    itself is now off the campaign path too (see
    ``test_only_the_oracle_imports_numpy``)."""
    found = {module: numpy_random_uses(tree) for module, tree in _package().items()}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_only_the_oracle_imports_numpy():
    """The rank arithmetic and the decode draws are pure Python; only
    the brute-force oracle counts with numpy, so only ``leakage``
    imports it, inside the oracle's functions.  Importing it costs
    about 13.7 MB RSS and 0.12 s on every CLI run (2-vCPU host)."""
    assert numpy_import_breaches(_package()) == []
    assert {module for module, tree in _package().items() if numpy_imports(tree)} == {"leakage"}


def test_only_matrix_writes_rowspace_state():
    """``RowSpace.clone`` copies the lists of rows, not the rows, and
    ``insert`` copies a row before it changes it; a write from another
    module could change a row that two spaces hold."""
    found = {
        module: rowspace_state_writes(tree)
        for module, tree in _package().items()
        if module != "matrix"
    }
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_leakage_builds_row_spaces_only_for_kernels_and_the_reference():
    """A reduced echelon form is built only where it is read: the split
    kernels that key the rank store's memos, and ``rank_quadruple``, the
    independent reference the split paths are tested against.  Every
    query that needs only a rank runs ``_forward_echelon``."""
    leakage = _package()["leakage"]
    assert rowspace_builds(leakage, ROWSPACE_BUILDERS) == []
    assert rowspace_builds(leakage, ()) != []


def test_no_module_reads_another_modules_private_name():
    """A module's private names are its own: the rank store's internals
    stay inside ``leakage``."""
    found = {module: foreign_private_reads(tree) for module, tree in _package().items()}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_only_patterns_enumerates_subsets():
    """``patterns.subsets`` lists user and helper subsets by (size,
    lexicographic) for every campaign step; a second enumeration could
    drift from its order."""
    found = {
        module: combinations_uses(tree)
        for module, tree in _package().items()
        if module != "patterns"
    }
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_the_verifier_never_decodes():
    """The linear transcript is the roles run on the identity up to the
    responses; only the campaign's decode of its probe columns calls the
    master."""
    assert name_uses(_package()["leakage"], "master_decode") == []


def test_the_campaign_builds_no_round_of_its_own():
    """``harness`` never names ``run_helpers``, ``encode_round_uploads`` or
    ``DealerKeys``: a campaign's one round per pattern, decode draws
    included, is built only in ``leakage.UnitRound``."""
    assert round_builder_uses(_package()["harness"]) == []


def test_the_harness_seeds_one_round():
    """``harness`` names ``run_round`` and ``dealer_generate`` only in
    ``_seeded_round``, which does name them: ``round`` reports the round
    that ``rates`` measures, and neither seeds one of its own."""
    harness = _package()["harness"]
    assert reads_outside(harness, ROUND_RUNNERS, ("_seeded_round",)) == []
    assert reads_outside(harness, ROUND_RUNNERS, ()) != []


def test_one_record_function_reads_the_rank_store_tables():
    """Only ``_RankStore``'s own methods and ``LinearTranscript.record``
    read the store's ``givens`` and ``quadruples``, so the helper and
    master records keep one path; ``LinearTranscript.record`` does read
    them, and no other ``LinearTranscript`` method does."""
    package = _package()
    owners = ("_RankStore", "LinearTranscript.record")
    found = {
        module: reads_outside(tree, STORE_TABLES, owners if module == "leakage" else ())
        for module, tree in package.items()
    }
    assert {module: lines for module, lines in found.items() if lines} == {}
    assert reads_outside(package["leakage"], STORE_TABLES, ("_RankStore",)) != []


def test_the_rank_store_sees_only_row_content():
    """``_RankStore`` builds no variable name (no f-string) and never
    sees a ``LinearVar`` (no ``.rows``): its methods take row tuples, and
    row content is all it keys.  Names are the unit round's and the
    transcript's."""
    assert rank_store_name_work(_package()["leakage"]) == []


def test_the_split_path_gathers_rows_whole():
    """The rank store's projections and embeddings and the split
    quadruple's reorder walk no row column by column in Python: each is
    an ``itemgetter`` prepared once per store or per split query, which
    gathers a whole row in C."""
    leakage = _package()["leakage"]
    assert {getattr(node, "name", None) for node in leakage.body} >= set(GATHER_OWNERS)
    assert per_column_walks(leakage, GATHER_OWNERS) == []


def test_only_the_helper_phase_runs_the_helper_roles():
    """``protocol.run_helpers`` is the one function that runs
    ``helper_share``, ``helper_recover`` and ``helper_respond``: a round
    and the verifier's unit round, which carries the campaign's decode
    draws, both go through it, and it does run them."""
    package = _package()
    found = {
        module: reads_outside(tree, HELPER_ROLES, ("run_helpers",) if module == "protocol" else ())
        for module, tree in package.items()
    }
    assert {module: lines for module, lines in found.items() if lines} == {}
    assert reads_outside(package["protocol"], HELPER_ROLES, ()) != []


def test_no_helper_role_reads_the_pattern():
    """``helper_share`` and ``helper_recover`` act on one user's receiver
    set and ``helper_respond`` on one helper's uploads: none takes a
    ``CommPattern`` or reads one, so ``run_helpers`` is the one
    role-level code in ``protocol`` that reads the pattern."""
    protocol = _package()["protocol"]
    assert {getattr(node, "name", None) for node in protocol.body} >= set(HELPER_ROLES)
    assert pattern_reads(protocol, HELPER_ROLES) == []
    assert pattern_reads(protocol, ("run_helpers",)) != []


def test_the_oracle_names_no_rank_routine():
    """The brute-force oracle's code, ``BruteForceOracle`` and the
    functions that build and count its keys, names no rank routine, so
    its entropies stay a count independent of the rank arithmetic they
    check; the rank side does name them."""
    leakage = _package()["leakage"]
    assert {getattr(node, "name", None) for node in leakage.body} >= set(ORACLE_CODE)
    assert names_within(leakage, RANK_ROUTINES, ORACLE_CODE) == []
    assert names_within(leakage, RANK_ROUTINES, ("entropy_rank", "rank_quadruple")) != []


def test_each_option_is_declared_once():
    """Every ``RunConfig`` field but ``mode`` is an option of the table;
    only the table's loop adds a flag, and the CLI names no option
    itself."""
    assert fields_without_option(RunConfig) == []
    found = {module: stray_add_arguments(tree) for module, tree in _package().items()}
    assert {module: lines for module, lines in found.items() if lines} == {}
    assert option_name_literals(_package()["cli"], OPTIONS) == []


def test_one_writer_lays_out_every_csv_report():
    """Only ``harness._csv`` builds a ``csv.writer``, and the CLI names no
    CSV column: what a report holds is its JSON document's fields."""
    package = _package()
    found = {
        module: csv_writer_builds(tree, ("_csv",) if module == "harness" else ())
        for module, tree in package.items()
    }
    assert {module: lines for module, lines in found.items() if lines} == {}
    assert column_literals(package["cli"], csv_columns()) == []


def test_the_readme_lists_every_config_key():
    text = (ROOT / "README.md").read_text()
    listed = re.search(r"can hold any of:\s*`([^`]*)`", text).group(1)
    assert [key.strip() for key in listed.split(",")] == list(OPTIONS)


def test_the_readme_flag_table_follows_the_option_modes():
    """Every option but ``out`` has a row, and each cell reads ``exits 2``
    exactly when its mode does not read the option."""
    table = flag_table((ROOT / "README.md").read_text(), OPTIONS)
    assert set(table) == set(OPTIONS) - {"out"}
    assert refusal_mismatches(table, OPTIONS) == []


def test_the_optional_parameters_are_counted():
    assert sum(map(optional_parameters, _package().values())) == OPTIONAL_PARAMETERS


def test_the_public_names_are_counted():
    assert sum(len(_exported(tree)) for tree in _package().values()) == PUBLIC_NAMES


def test_the_checks_catch_what_they_look_for():
    """Negative controls on small sources."""
    tree = ast.parse(
        "import weakref\n"
        "from dataclasses import dataclass, replace\n"
        "from typing import Sequence\n"
        "__all__ = ['dataclass']\n"
        "def f(x: 'Sequence[int]'):\n"
        "    return x\n"
    )
    assert unused_imports(tree) == ["weakref", "replace"]
    # a CSV report laid out beside the one writer
    assert csv_writer_builds(
        ast.parse(
            "import csv\n"
            "from csv import DictWriter\n"
            "def _csv(header, rows):\n"
            "    return csv.writer(buf)\n"
            "def render_rates_csv(rows):\n"
            "    out = csv.writer(buf, lineterminator='\\n')\n"
            "    return DictWriter(buf, ['params'])\n"
        ),
        ("_csv",),
    ) == [2, 6]
    assert column_literals(
        ast.parse(
            "ok = all(r['equal'] for r in rows if r['feasible'])\n"
            "header = ['params', 'feasible', 'rate_x']\n"
            "cells = {'pass': doc.get('pass')}\n"
        ),
        {"params", "feasible", "rate_x", "equal", "pass"},
    ) == [2, 3]
    trees = {
        "a": ast.parse("_LIMIT = 3\n_used = 1\ndef _helper():\n    return _helper()\n"),
        "b": ast.parse("from a import _used\nprint(_used)\n"),
    }
    assert unreferenced_privates(trees) == ["a._LIMIT", "a._helper"]
    assert undefined_exports(
        ast.parse(
            "from a import b\n"
            "import c.d as e\n"
            "__all__ = ['b', 'e', 'f', 'X', 'gone']\n"
            "def f():\n"
            "    X = 2\n"
            "    return X\n"
            "if f():\n"
            "    gone = 1\n"
        )
    ) == ["X", "gone"]
    assert reduced_constructions(
        ast.parse(
            "m = GfMatrix(f, rows)\n"
            "m = GfMatrix.of_reduced(f, rows)\n"
            "make = getattr(GfMatrix, 'of_reduced')\n"
        )
    ) == [2, 3]
    assert numpy_random_uses(
        ast.parse(
            "import random\n"
            "import numpy as np\n"
            "import numpy.random\n"
            "from numpy import random as npr\n"
            "from numpy.random import default_rng\n"
            "rng = np.random.default_rng(0)\n"
            "gen = importlib.import_module('numpy.random')\n"
            "x = random.Random(1).random() + Gradient.random(1, p, rng)\n"
            "y = numpy.random.rand()\n"
        )
    ) == [3, 4, 5, 6, 7, 9]
    assert numpy_imports(
        ast.parse(
            "import numpy as np\n"
            "def build():\n"
            "    import numpy as np\n"
            "    from numpy.linalg import matrix_rank\n"
            "    return importlib.import_module('numpy')\n"
            "if TYPE_CHECKING:\n"
            "    from numpy import ndarray\n"
            "class Oracle:\n"
            "    import numpy.random\n"
            "import numbers, numpyro\n"
            "from .numpy import codes\n"
            "mod = __import__('numpy.linalg')\n"
        )
    ) == [(1, True), (3, False), (4, False), (5, False), (7, True), (9, True), (12, True)]
    assert numpy_import_breaches(
        {
            "leakage": ast.parse("import numpy as np\ndef oracle():\n    import numpy as np\n"),
            "harness": ast.parse("def draw():\n    import numpy as np\n"),
        }
    ) == ["leakage:1", "harness:2"]
    assert rowspace_state_writes(
        ast.parse(
            "space.basis = [list(row) for row in kernel]\n"
            "space.pivots[0] = 2\n"
            "space.support[1][0] += 1\n"
            "first, *space.basis = rows\n"
            "space.basis.append(row)\n"
            "del space.pivots[-1]\n"
            "rank = len(space.basis) + space.pivots[0]\n"
            "space.insert(row)\n"
            "rows[space.pivots[0]] = space.support\n"
            "space.support: list = []\n"
        )
    ) == [1, 2, 3, 4, 5, 6, 10]
    assert rowspace_builds(
        ast.parse(
            "def _split_observed(rows):\n"
            "    return RowSpace(field, 4)\n"
            "def joint_rank(variables):\n"
            "    space = RowSpace(field, 4)\n"
            "    return matrix.RowSpace(field, 4).rank\n"
            "def _kernel(space: RowSpace, cut):\n"
            "    return RowSpace.of_echelon(field, 4, space.basis)\n"
            "seed = RowSpace.of_echelon\n"
            "class Walk:\n"
            "    def grow(self, space: RowSpace):\n"
            "        return space.clone()\n"
        ),
        ("_split_observed",),
    ) == [4, 5, 7, 8]
    assert foreign_private_reads(
        ast.parse(
            "from . import leakage as lk\n"
            "from .protocol import SchemeParams, _inverse\n"
            "import hsagg.matrix as mx\n"
            "import numpy as np\n"
            "x = lk._rank_store(ctx)\n"
            "y = lk.check(ctx)._store + self._memo + lk.__name__\n"
            "z = np._NoValue\n"
            "w = mx._kernel\n"
            "from .field import PrimeField as _Field\n"
            "from hsagg import harness\n"
            "v = harness._grid\n"
        )
    ) == [2, 5, 8, 11]
    assert combinations_uses(
        ast.parse(
            "from itertools import chain, combinations\n"
            "import itertools as it\n"
            "pairs = it.combinations(xs, 2)\n"
            "from itertools import product\n"
            "sets = pt.combinations + combinations\n"
            "import itertools\n"
            "x = itertools.combinations(xs, 3)\n"
        )
    ) == [1, 3, 7]
    assert name_uses(
        ast.parse(
            "from .protocol import master_decode, run_round\n"
            "decoded = run_round(ctx, p, g, f, k).decoded\n"
            "out = proto.master_decode(ctx, responses)\n"
            "note = 'master_decode'\n"
            "decode = master_decode\n"
            "from .protocol import master_decode as solve\n"
        ),
        "master_decode",
    ) == [1, 3, 5, 6]
    # a decode round of the campaign's own, beside the unit round
    assert round_builder_uses(
        ast.parse(
            "from .protocol import DealerKeys\n"
            "def decode_round(ctx, keys: proto.DealerKeys, draws, grads, noises):\n"
            "    wide = ctx.widened(draws * ctx.params.gradient_len)\n"
            "    uploads = proto.encode_round_uploads(wide, grads, noises)\n"
            "    note = 'run_helpers'\n"
            "    return lambda pattern: proto.run_helpers(wide, pattern, uploads, keys)\n"
            "phase = run_helpers\n"
        )
    ) == [1, 2, 4, 6, 7]
    # a rates table that seeds and runs a round of its own
    assert reads_outside(
        ast.parse(
            "def _seeded_round(config, params):\n"
            "    keys = proto.dealer_generate(ctx, f'dealer:{config.dealer_seed}')\n"
            "    return proto.run_round(ctx, pattern, grads, noises, keys)\n"
            "def run_rates(config):\n"
            "    keys = proto.dealer_generate(ctx, f'dealer:{params.label()}')\n"
            "    return measure_rates(proto.run_round(ctx, pattern, grads, noises, keys))\n"
            "runs = run_round\n"
            "note = 'run_round'\n"
        ),
        ROUND_RUNNERS,
        ("_seeded_round",),
    ) == [5, 6, 7]

    assert reads_outside(
        ast.parse(
            "class _RankStore:\n"
            "    def given(self, users):\n"
            "        return self.givens.get(users)\n"
            "def _security_record(store, key):\n"
            "    return store.quadruples.get(key)\n"
            "def check_security_master(store, key):\n"
            "    return store.quadruples.get(key) or store.quadruple(key)\n"
            "memo = tv._store.givens\n"
            "givens = quadruples = {}\n"
        ),
        STORE_TABLES,
        ("_RankStore", "_security_record"),
    ) == [7, 8]
    # a read in a transcript method other than the one allowed
    assert reads_outside(
        ast.parse(
            "class LinearTranscript:\n"
            "    def record(self, key):\n"
            "        return self._store.quadruples.get(key)\n"
            "    def sharing(self, users):\n"
            "        return self._store.givens.get(users)\n"
            "    memo = givens\n"
            "class _RankStore:\n"
            "    def given(self, users):\n"
            "        return self.givens.get(users)\n"
        ),
        STORE_TABLES,
        ("_RankStore", "LinearTranscript.record"),
    ) == [5, 6]
    assert reads_outside(
        ast.parse(
            "def run_helpers(ctx, pattern, uploads, keys):\n"
            "    return helper_share(ctx, keys, pattern, 1, {})\n"
            "def run_round(ctx):\n"
            "    return proto.helper_recover(ctx)\n"
            "respond = helper_respond\n"
            "def helper_share(ctx):\n"
            "    return 'helper_share'\n"
            "from .protocol import helper_share\n"
        ),
        HELPER_ROLES,
        ("run_helpers",),
    ) == [4, 5]
    assert pattern_reads(
        ast.parse(
            "def helper_share(ctx, keys, pattern, helper, uploads):\n"
            "    return keys.masks, ctx.params.num_users\n"
            "def helper_recover(ctx, helper, user, receivers: 'CommPattern', shares):\n"
            "    return receivers, shares\n"
            "def helper_respond(ctx, helper, uploads) -> 'CommPattern':\n"
            "    users = ctx.round.users_of(helper)\n"
            "    return isinstance(uploads, CommPattern)\n"
            "def run_helpers(ctx, pattern: CommPattern):\n"
            "    return pattern.receivers_of(1)\n"
        ),
        HELPER_ROLES,
    ) == [1, 3, 5, 6, 7]
    # an oracle that reads its entropies off ranks
    assert names_within(
        ast.parse(
            "class BruteForceOracle:\n"
            "    def entropy(self, names):\n"
            "        return entropy_rank([self.tv[n] for n in names])\n"
            "def _counted_entropy(keys, q, names):\n"
            "    return RowSpace(keys).rank\n"
            "def _packed_word(tables, q):\n"
            "    return leakage._forward_echelon([], tables, field)\n"
            "def entropy_rank(variables):\n"
            "    return joint_rank(variables)\n"
            "note = 'joint_rank'\n"
        ),
        RANK_ROUTINES,
        ORACLE_CODE,
    ) == [3, 5, 7]
    assert rank_store_name_work(
        ast.parse(
            "class _RankStore:\n"
            "    def group_names(self, t):\n"
            "        return f'X[{t}]', 'Z'\n"
            "    def split(self, group):\n"
            "        return tuple(r for v in group for r in v.rows)\n"
            "    def by_user(self, rows):\n"
            "        return [row for row in rows]\n"
            "def groups(tv, t):\n"
            "    return f'M[{t}]', tv.rows\n"
        )
    ) == [3, 5]
    assert rank_store_name_work(ast.parse("class RankStore:\n    name = f'{1}'\n")) is None
    assert per_column_walks(
        ast.parse(
            "class _RankStore:\n"
            "    def by_user(self, row, cols):\n"
            "        return tuple([row[j] for j in cols])\n"
            "    def embed(self, cols, row):\n"
            "        return tuple(dict(zip(cols, row)).get(j, 0) for j in range(9))\n"
            "    def joined(self, splits):\n"
            "        return [tuple(b[u] for _, b in splits) for u in range(3)]\n"
            "def _split_quadruple(order, kernel):\n"
            "    return [r for row in kernel if any(r := [row[j] % 7 for j in order])]\n"
            "def _split_query(order, rows):\n"
            "    return [gather(row) for row in rows], {j: i for i, j in enumerate(order)}\n"
            "def joint_rank(rows, order):\n"
            "    return [[row[j] for j in order] for row in rows], dict(zip(order, rows))\n"
        ),
        GATHER_OWNERS,
    ) == [3, 5, 9]

    @dataclass
    class Config:
        mode: str
        seed: str = "0"
        budget: int = field(default=1, metadata=dict.fromkeys(OPTION_KEYS))
        draws: int = field(default=1, metadata={"parse": int})

    assert fields_without_option(Config) == ["seed", "draws"]
    table = flag_table(
        "intro\n\n| flag | round | rates |\n|---|---|---|\n"
        "| `--seed` | used | used |\n"
        "| `--format csv` | exits 2 (JSON only) | used |\n"
        "| `uset`, `tset` (`--uset`, `--tset`) | exits 2 | used |\n"
        "| `--no-such-flag` | used | used |\n\nafter\n| flag | x |\n",
        OPTIONS,
    )
    assert list(table) == ["seed", "format", "uset", "tset"]
    assert refusal_mismatches(table, OPTIONS) == [("seed", "rates"), ("uset", "rates"),
                                                  ("tset", "rates")]
    assert stray_add_arguments(
        ast.parse(
            "def build_parser():\n"
            "    for mode in MODES:\n"
            "        p.add_argument('--config')\n"
            "        p.add_argument('--grid')\n"
            "        for name, meta in OPTIONS.items():\n"
            "            p.add_argument(meta['flag'], dest=name)\n"
            "            p.add_argument('--seed')\n"
            "def _add_common(p):\n"
            "    p.add_argument(flag_for('seed'))\n"
        )
    ) == [4, 7, 9]
    assert option_name_literals(
        ast.parse(
            "seed = pick(args.seed, 'seed')\n"
            "unused = ['gradient_file', 'format csv']\n"
            "mode = 'round'\n"
        ),
        OPTIONS,
    ) == [1, 2]
    assert optional_parameters(
        ast.parse(
            "def f(a, b=1, *args, c, d=2, **kw):\n"
            "    g = lambda x=0: x\n"
            "    class Local:\n"
            "        def m(self, e=None): ...\n"
            "@dataclass(frozen=True)\n"
            "class Point:\n"
            "    x: int\n"
            "    y: int = 0\n"
            "    z: list = dc_field(default_factory=list)\n"
            "    def h(self, k=3): ...\n"
            "@dataclasses.dataclass\n"
            "class Plain:\n"
            "    w: int = 1\n"
            "class NotData:\n"
            "    v: int = 1\n"
        )
    ) == 8
