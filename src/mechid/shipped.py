"""What scipy ships, reached without importing the subpackage that holds it.

Importing a scipy subpackage runs its `__init__`, which loads most of it:
`scipy.spatial` costs about 0.27 s and 30 MiB, `scipy.stats` more. mechid
needs one data file of `scipy.stats` (the Sobol direction numbers) and one
compiled kernel of `scipy.spatial` (the Euclidean distance matrix that
`cdist` calls). It finds scipy's directory with `importlib.util.find_spec`,
which imports nothing, and joins the subpackage's name to it. A data file is
then read from there without any scipy code running; a compiled module is
loaded from there after scipy's top-level `__init__`, which it may rely on.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from types import ModuleType


def scipy_dir(subpackage: str) -> str:
    """The directory of `scipy.<subpackage>`, found without importing scipy."""
    (directory,) = importlib.util.find_spec("scipy").submodule_search_locations
    return os.path.join(directory, subpackage)


@functools.cache
def scipy_extension(subpackage: str, module: str) -> ModuleType:
    """The compiled module `scipy.<subpackage>.<module>`, loaded once per process.

    scipy's top-level `__init__` runs first; the subpackage's `__init__` does
    not run, and the module is not entered in `sys.modules`. Raises
    ImportError naming the directory and the module sought when the
    directory holds no such module.
    """
    importlib.import_module("scipy")
    directory = scipy_dir(subpackage)
    name = f"scipy.{subpackage}.{module}"
    spec = importlib.machinery.PathFinder.find_spec(name, [directory])
    if spec is None:
        raise ImportError(f"no module {name} in {directory}", name=name, path=directory)
    extension = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(extension)
    return extension
