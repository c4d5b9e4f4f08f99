"""Package metadata for ``repro``, the pure-Python DMPC simulator under ``src/``.

This file is the only build configuration; the version is read from
``src/repro/_version.py`` so it has one source.  Install without a network
or build isolation with::

    pip install --no-build-isolation --no-deps --no-index --target <dir> .
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"', (Path(__file__).parent / "src" / "repro" / "_version.py").read_text(), re.M
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
)
