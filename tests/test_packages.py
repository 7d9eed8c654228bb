"""Every ``repro`` subpackage imports as itself.

A package ``__init__`` that re-exports a function under the name of one of
its own submodules rebinds that attribute: ``import repro.pkg.name as m``
then binds the function, or fails with "cannot import name", instead of
binding the module (``import a.b.c as m`` binds ``getattr(a.b, "c")``).
Walk every package and check each submodule's name.  And ``import repro``
must not load numpy, which only the frontier passes use.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap

import repro


def shadowed_submodules(package):
    """Dotted names of ``package``'s submodules (recursively) that its
    attribute of the same name does not refer to."""
    found = []
    for info in pkgutil.iter_modules(package.__path__):
        name = "%s.%s" % (package.__name__, info.name)
        module = importlib.import_module(name)
        if getattr(package, info.name, None) is not module:
            found.append(name)
        if info.ispkg:
            found.extend(shadowed_submodules(module))
    return found


def test_no_package_attribute_shadows_a_submodule():
    assert shadowed_submodules(repro) == []


def test_import_repro_leaves_numpy_unloaded():
    """numpy is imported by the first frontier pass, not by ``import
    repro``: it is most of the package's import time."""
    script = textwrap.dedent("""\
        import sys
        import repro
        from repro.bigraph import frontier, from_edge_list
        print("numpy" in sys.modules)
        graph = from_edge_list([(0, 0), (1, 0)], backend="csr")
        walk = frontier.frontier_for(graph)
        print("numpy" in sys.modules, walk is None)
    """)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.splitlines()
    assert before == "False"
    try:
        import numpy  # noqa: F401
    except ImportError:
        assert after == "False True"
    else:
        assert after == "True False"
