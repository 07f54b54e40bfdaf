"""scipy's compiled distance kernel, loaded without importing `scipy.spatial`.

Importing `scipy.spatial` runs its `__init__`, which loads most of the
subpackage: about 0.27 s and 30 MiB. The energy test needs only the compiled
module that `cdist` calls for Euclidean distances, so that module
is loaded from the subpackage's folder after scipy's top-level `__init__`
alone. That import stays: scipy's `__init__` imports `_distributor_init`,
the hook where a distribution of scipy sets up the libraries its compiled
modules load against (a BLAS, DLL directories on Windows), so a module
loaded before it may not find them.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from types import ModuleType


@functools.cache
def scipy_extension(subpackage: str, module: str) -> ModuleType:
    """The compiled module `scipy.<subpackage>.<module>`, loaded once per process.

    scipy's top-level `__init__` runs first; the subpackage's `__init__` does
    not run, and the module is not entered in `sys.modules`. Raises
    ImportError naming the directory and the module sought when the
    directory holds no such module.
    """
    (scipy,) = importlib.import_module("scipy").__path__
    directory = os.path.join(scipy, subpackage)
    name = f"scipy.{subpackage}.{module}"
    spec = importlib.machinery.PathFinder.find_spec(name, [directory])
    if spec is None:
        raise ImportError(f"no module {name} in {directory}", name=name, path=directory)
    extension = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(extension)
    return extension
