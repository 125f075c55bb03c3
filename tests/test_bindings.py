"""What code outside the library binds: the benchmark harness and the README example.

Both tests read files only. The harness in ``perfbench/`` names public
attributes as ``proxframe.X`` or ``proxframe.X.Y`` and binds argument names
of the functions it wraps, so a rename there must fail here rather than in a
benchmark run.
"""

import ast
import inspect
import re
from functools import reduce
from pathlib import Path

import numpy as np

import proxframe
import proxframe.cli  # noqa: F401  (the harness names proxframe.cli.main)

ROOT = Path(__file__).resolve().parent.parent

# the argument names perfbench/tracing.py's counters read from a call's bound arguments
BOUND_ARGUMENTS = {
    "induced_regularizer": ("reg", "x", "tol"),
    "numeric_prox": ("x",),
    "frame_prox": ("x",),
    "cli.main": ("argv",),
}


def _resolve(dotted: str):
    return reduce(getattr, dotted.split("."), proxframe)


def test_perfbench_names_resolve():
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        names.update(re.findall(r"\bproxframe((?:\.[A-Za-z_]\w*){1,2})", path.read_text()))
    assert "InducedRegularizer.from_shrinkage" in {n[1:] for n in names}
    for name in sorted(names):
        _resolve(name[1:])

    assert "numeric_prox" in proxframe.__all__
    assert inspect.isfunction(proxframe.numeric_prox)
    for name, arguments in BOUND_ARGUMENTS.items():
        params = inspect.signature(_resolve(name)).parameters
        for argument in arguments:
            assert argument in params, (name, argument)


def test_readme_library_example_holds():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    ns: dict = {}
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        stmt = ast.parse(code.strip() or "pass").body[0]
        if isinstance(stmt, ast.Assign):
            exec(code.strip(), ns)
            value = ns[stmt.targets[0].id]
        elif isinstance(stmt, ast.Expr):
            value = eval(code.strip(), ns)
        else:
            exec(code.strip(), ns)
            continue
        expected = re.match(r"\s*(?:->\s*)?(\[[^\]]*\]|[\w.]+)", comment)
        if expected is None:
            continue
        want = ast.literal_eval(expected.group(1))
        if isinstance(want, bool):
            assert value is want, line
        else:
            np.testing.assert_allclose(value, want, rtol=1e-8, atol=1e-8, err_msg=line)
        checked.append(want)
    assert checked == [[0.4], 2.9, [0.4], True]
