"""The README's table of stable codes names exactly the codes the kernel raises, and each of the
kernel's checks raises a code: none is an ``assert``, which ``python -O`` removes."""

import ast
import re

_CODE = re.compile(r"[A-Z][A-Z_]+")
_CODE_FIRST = {"KernelError", "RuntimeFault", "ParseError", "_blame"}


def _string(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and _CODE.fullmatch(node.value):
        return node.value
    return None


def _raised_codes(tree: ast.AST) -> set[str]:
    """The literal codes of every error and diagnostic made in ``tree``: the code argument of
    the error classes, ``Diagnostic`` and ``_blame``, any ``code=`` argument or default, and the
    code of each row of ``seal``'s table of missing components."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if func in _CODE_FIRST and node.args:
                found.append(node.args[0])
            elif func == "Diagnostic" and len(node.args) > 1:
                found.append(node.args[1])
            found += [k.value for k in node.keywords if k.arg == "code"]
        elif isinstance(node, ast.FunctionDef):
            params = node.args.args[len(node.args.args) - len(node.args.defaults):]
            found += [d for p, d in zip(params, node.args.defaults) if p.arg == "code"]
            if node.name == "seal":
                found += [t.elts[0] for t in ast.walk(node) if isinstance(t, ast.Tuple) and t.elts]
    return {code for code in map(_string, found) if code is not None}


def _table_codes(readme: str) -> list[str]:
    section = readme.split("## Stable codes", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([A-Z_]+)` \|", section, flags=re.M)


def test_readme_table_lists_each_raised_code_once(repo_root):
    raised = set()
    for path in sorted((repo_root / "src" / "scckit").glob("*.py")):
        raised |= _raised_codes(ast.parse(path.read_text(encoding="utf-8")))
    table = _table_codes((repo_root / "README.md").read_text(encoding="utf-8"))
    assert len(table) == len(set(table))
    assert set(table) == raised
    assert {"PARSE_ERROR", "UNKNOWN_TYPE", "MISSING_IMPLEMENTATION", "REENTRANT_EMIT"} <= raised


def test_the_kernel_makes_no_assert(repo_root):
    asserts = [f"{path.name}:{node.lineno}" for path in sorted((repo_root / "src" / "scckit").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.Assert)]
    assert asserts == []
