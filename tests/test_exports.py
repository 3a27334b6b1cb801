import ast
import importlib
import io
import pkgutil
import re
import tokenize
from collections import Counter
from pathlib import Path

import bubblespec


def test_every_public_name_resolves():
    # A name left in __all__ after its definition is deleted only fails at `import *`.
    modules = [importlib.import_module(f"bubblespec.{m.name}") for m in pkgutil.iter_modules(bubblespec.__path__)]
    assert len(modules) >= 7
    dangling = [f"{mod.__name__}.{n}" for mod in modules for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert dangling == []


def test_no_unused_module_level_imports():
    # A deletion that leaves its imports behind keeps dead names alive.
    allowed = {"kernel.bessel_jn_half"}  # perfbench/test_perfbench.py reads it from kernel
    unused = []
    for path in sorted(Path(bubblespec.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        # Attribute chains such as np.array start with a Name node.
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in imported if name not in used]
    assert sorted(set(unused) - allowed) == []


def _reads(node: ast.AST) -> Counter:
    """Names read under node: loaded Names and the attribute of every Attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) or (isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store))
    )


def test_no_unreferenced_private_module_level_names():
    # A private function, class or constant that nothing in the package reads besides its own definition (a
    # recursive call, a constant built from itself) is dead code: a deletion's leftover.
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in Path(bubblespec.__file__).parent.glob("*.py")]
    reads = sum((_reads(tree) for tree in trees), Counter())
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(t.id, node) for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    private = [(name, node) for name, node in defined if name.startswith("_") and not name.startswith("__")]
    assert len(private) >= 20
    assert sorted(name for name, node in private if reads[name] == _reads(node)[name]) == []


def test_every_module_qualified_name_in_the_readme_resolves():
    # README prose that names a deleted or renamed helper points its readers at nothing.
    modules = {m.name for m in pkgutil.iter_modules(bubblespec.__path__)}
    readme = Path(__file__).resolve().parents[1] / "README.md"
    quoted = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", readme.read_text(encoding="utf-8"))
    named = [n.split(".") for n in quoted]
    # `bubblespec.x` must name a module; `x.y` is checked when x is one.
    named = [p[1:] if p[0] == "bubblespec" else p for p in named if p[0] in modules | {"bubblespec"}]
    assert len(named) >= 4
    dangling = []
    for module, *attrs in named:
        obj = importlib.import_module(f"bubblespec.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, dangling)
        if obj is dangling:
            dangling.append(".".join([module, *attrs]))
    assert dangling == []


def test_every_private_name_in_a_comment_or_docstring_is_defined():
    # A comment or docstring that names a deleted or renamed helper points its readers at nothing.  A private name
    # is `_word` not preceded by a word character, '.', a prime or a tilde, which leaves out subscripts such as
    # r_l, J'_nu and W~_nu.
    texts, defined = [], set()
    for path in sorted(Path(bubblespec.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.arg):
                defined.add(node.arg)
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                texts.append(ast.get_docstring(node, clean=False) or "")
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        texts += [t.string for t in tokens if t.type == tokenize.COMMENT]
    named = {n for text in texts for n in re.findall(r"(?<![\w.'~])_[A-Za-z]\w*", text)}
    assert len(named) >= 10
    assert sorted(named - defined) == []



def test_the_bessel_domain_is_read_in_special_functions_only():
    # One domain gate: a module that reads the limit or the smallest normal double keeps its own copy of the rule.
    readers = set()
    for path in sorted(Path(bubblespec.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # a read, or an import (an alias), of the limit
            limit = "_MAX_ARGUMENT" in (getattr(node, "id", None), getattr(node, "name", None))
            smallest = isinstance(node, ast.Attribute) and node.attr == "min"
            if limit or (smallest and ast.unparse(node.value).endswith("float_info")):
                readers.add(path.stem)
    assert readers == {"special_functions"}
