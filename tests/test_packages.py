"""Every ``repro`` subpackage imports as itself.

A package ``__init__`` that re-exports a function under the name of one of
its own submodules rebinds that attribute: ``import repro.pkg.name as m``
then binds the function, or fails with "cannot import name", instead of
binding the module (``import a.b.c as m`` binds ``getattr(a.b, "c")``).
Walk every package and check each submodule's name.
"""

import importlib
import pkgutil

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

