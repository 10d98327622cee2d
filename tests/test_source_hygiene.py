"""Source hygiene of ``src/hsagg``: no module imports a name it never
uses, every private top-level function, class or constant is
referenced somewhere in the package, and every name a module lists in
``__all__`` is bound in it.  A deletion that leaves an import, a helper
or an export behind fails here.  The modules that read outside input
never build a matrix without reducing its entries, no module uses
``numpy.random``, only ``matrix`` writes a ``RowSpace``'s state, and no
module reads another's private name.  Each option is declared once,
as a ``RunConfig`` field, and the parser, the config keys and the
README's key list all follow that table."""

import ast
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

from hsagg.harness import OPTIONS, RunConfig

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
    each on a 2-vCPU host), beyond that metric's 10% bound."""
    found = {module: numpy_random_uses(tree) for module, tree in _package().items()}
    assert {module: lines for module, lines in found.items() if lines} == {}


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


def test_no_module_reads_another_modules_private_name():
    """A module's private names are its own: the rank store's internals
    stay inside ``leakage``."""
    found = {module: foreign_private_reads(tree) for module, tree in _package().items()}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_each_option_is_declared_once():
    """Every ``RunConfig`` field but ``mode`` is an option of the table;
    only the table's loop adds a flag, and the CLI names no option
    itself."""
    assert fields_without_option(RunConfig) == []
    found = {module: stray_add_arguments(tree) for module, tree in _package().items()}
    assert {module: lines for module, lines in found.items() if lines} == {}
    assert option_name_literals(_package()["cli"], OPTIONS) == []


def test_the_readme_lists_every_config_key():
    text = (ROOT / "README.md").read_text()
    listed = re.search(r"can hold any of:\s*`([^`]*)`", text).group(1)
    assert [key.strip() for key in listed.split(",")] == list(OPTIONS)


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

    @dataclass
    class Config:
        mode: str
        seed: str = "0"
        budget: int = field(default=1, metadata=dict.fromkeys(OPTION_KEYS))
        draws: int = field(default=1, metadata={"parse": int})

    assert fields_without_option(Config) == ["seed", "draws"]
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
