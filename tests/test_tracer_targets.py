"""The benchmark's tracer wraps program functions by name (``TARGETS`` in
``bench/tracer.py``); a rename in ``src`` would silently untrace a layer.
The targets are read from the tracer's source, which is not imported."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

# the targets whose names the program no longer has: the tracer prints
# "not found" for each of them
STALE = {
    ("fedproj.objectives", "FederatedObjective.loss"),
    ("fedproj.objectives", "FederatedObjective.grad"),
    ("fedproj.cli", "verify_theorem1"),
    ("fedproj.cli", "verify_theorem2"),
    ("fedproj.cli", "verify_lemma_error_bound"),
}


def tracer_targets():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS list in {TRACER}")


def resolves(module: str, attr: str) -> bool:
    """Whether the tracer's lookup, ``owner.__dict__[leaf]``, finds the target."""
    *path, leaf = attr.split(".")
    owner = importlib.import_module(module)
    for part in path:
        owner = getattr(owner, part, None)
    return owner is not None and leaf in vars(owner)


def test_every_target_resolves_but_the_stale_ones():
    targets = tracer_targets()
    assert len(targets) > len(STALE)
    assert {(module, attr) for _, module, attr in targets
            if not resolves(module, attr)} == STALE
