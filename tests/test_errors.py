"""The failure taxonomy: one class per failure family, and one name per
certificate failure, read from the source with `ast`."""

import ast
import re
from pathlib import Path

import entromin
from entromin import errors

SOURCES = sorted(Path(entromin.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"
FAMILIES = {"ValidationError", "DomainViolationError", "CertificateError"}


def _called(node):
    """The name a call `X(...)` or `module.X(...)` calls, else None."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", None) or getattr(node.func, "id", None)
    return None


def _main_guard_raises(tree):
    """The raise statements of the module's `if __name__ == "__main__":` block."""
    return {id(raise_) for node in tree.body if isinstance(node, ast.If)
            and ast.unparse(node.test) in ("__name__ == '__main__'", '__name__ == "__main__"')
            for raise_ in ast.walk(node) if isinstance(raise_, ast.Raise)}


def _readme_hypotheses():
    """The bracketed names in the README's exit-code paragraph."""
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("Exit codes:"):].split("\n\n")[0]
    return set(re.findall(r"`\[([a-z ]+)\]`", paragraph))


def test_errors_declares_one_class_per_family():
    assert errors.__all__ == ["EntrominError", "ValidationError", "DomainViolationError",
                              "CertificateError"]
    classes = [node.name for node in ast.parse(Path(errors.__file__).read_text()).body
               if isinstance(node, ast.ClassDef)]
    assert classes == errors.__all__
    for name in FAMILIES:
        assert getattr(errors, name).__bases__[0] is errors.EntrominError


def test_every_raise_builds_a_family_and_every_hypothesis_is_named():
    """Every `raise` in `src/entromin` builds a ValidationError, a
    DomainViolationError or a CertificateError (directly, or through a
    name bound to one), except a bare re-raise and the `__main__` guard's
    SystemExit; every CertificateError names its hypothesis as a literal,
    and those literals are the names the README's exit-code paragraph lists."""
    hypotheses = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        bound = {target.id: _called(node.value) for node in ast.walk(tree)
                 if isinstance(node, ast.Assign) for target in node.targets
                 if isinstance(target, ast.Name) and _called(node.value)}
        guard = _main_guard_raises(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                built = (bound.get(node.exc.id) if isinstance(node.exc, ast.Name)
                         else _called(node.exc))
                allowed = FAMILIES | ({"SystemExit"} if id(node) in guard else set())
                assert built in allowed, f"{path.name}:{node.lineno} raises {built}"
            if _called(node) == "CertificateError":
                assert "hypothesis" in {k.arg for k in node.keywords}, \
                    f"{path.name}:{node.lineno} names no hypothesis"
            for keyword in getattr(node, "keywords", ()):
                if keyword.arg == "hypothesis":
                    assert isinstance(keyword.value, ast.Constant), \
                        f"{path.name}:{keyword.lineno} names its hypothesis by no literal"
                    hypotheses.add(keyword.value.value)
    assert hypotheses == _readme_hypotheses() == {
        "admissible band", "margin interval", "linear independence", "witness acceptance",
        "moment match"}
