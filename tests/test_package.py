import os
import subprocess
import sys

import ruthvb


def test_import_binds_every_public_module():
    """`import ruthvb` binds each name of __all__ as a module attribute.

    The benchmark tracer wraps callables through these bindings, so a lazy
    module __getattr__ would leave them unwrapped.  A fresh interpreter is
    used because importing any submodule elsewhere in the suite binds it too.
    """
    code = (
        "import ruthvb, types\n"
        "bound = vars(ruthvb)\n"
        "print([n for n in ruthvb.__all__ if not isinstance(bound.get(n), types.ModuleType)])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ruthvb.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_gallery_out():
    """`import ruthvb.cli` does not load the gallery: only `examples` reads it,
    and every other command would compile it for nothing."""
    code = "import sys, ruthvb.cli\nprint('ruthvb.gallery' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ruthvb.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_simplices_come_from_the_groupoid():
    """Only groupoid.py constructs a NerveSimplex: every other module takes
    its simplices from the groupoid, which hands out one object per simplex.
    ruth.py splits simplices by vertex tuples and does not import ordmaps."""
    src = os.path.dirname(ruthvb.__file__)
    texts = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                texts[name] = fh.read()
    assert [name for name, text in texts.items() if "NerveSimplex(" in text] == ["groupoid.py"]
    assert "ordmaps" not in texts["ruth.py"]
