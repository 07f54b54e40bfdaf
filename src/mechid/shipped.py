"""What scipy ships, reached without importing the subpackage that holds it.

Importing a scipy subpackage runs its `__init__`, which loads most of it:
`scipy.spatial` costs about 0.27 s and 30 MiB, `scipy.stats` more. mechid
needs one data file of `scipy.stats` (the Sobol direction numbers) and one
compiled kernel of `scipy.spatial` (the Euclidean distance matrix that
`cdist` calls), so it finds the subpackage's directory with
`importlib.util.find_spec`, which runs only scipy's top-level `__init__`,
and reads the file or loads the extension module from there.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
from types import ModuleType


def scipy_dir(subpackage: str) -> str:
    """The directory of `scipy.<subpackage>`, found without importing it."""
    (directory,) = importlib.util.find_spec(f"scipy.{subpackage}").submodule_search_locations
    return directory


@functools.cache
def scipy_extension(subpackage: str, module: str) -> ModuleType:
    """The compiled module `scipy.<subpackage>.<module>`, loaded once per process.

    The subpackage's `__init__` does not run, and the module is not entered
    in `sys.modules`. Raises ImportError naming the directory and the module
    sought when the directory holds no such module.
    """
    directory = scipy_dir(subpackage)
    name = f"scipy.{subpackage}.{module}"
    spec = importlib.machinery.PathFinder.find_spec(name, [directory])
    if spec is None:
        raise ImportError(f"no module {name} in {directory}", name=name, path=directory)
    extension = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(extension)
    return extension
