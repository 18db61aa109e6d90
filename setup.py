"""Packaging for the `repro` library.

Kept as a plain ``setup.py`` (no ``pyproject.toml``) so the legacy
editable-install path works on environments without the ``wheel``
package: ``pip install -e .`` from the repository root puts ``repro``
on the import path, as the README documents.
"""

import os
import re

from setuptools import find_packages, setup

HERE = os.path.dirname(os.path.abspath(__file__))


def _read_long_description() -> str:
    with open(os.path.join(HERE, "README.md"), encoding="utf-8") as handle:
        return handle.read()


def _read_version() -> str:
    """``repro.__version__``, read from the source without importing it."""
    with open(os.path.join(HERE, "src", "repro", "__init__.py"),
              encoding="utf-8") as handle:
        return re.search(r'^__version__ = "([^"]+)"', handle.read(), re.M).group(1)


setup(
    name="repro-siri-indexes",
    version=_read_version(),
    description=(
        "Reproduction of 'Analysis of Indexing Structures for Immutable "
        "Data' (SIGMOD 2020): MPT, Merkle Bucket Tree, POS-Tree and an "
        "MVMB+-Tree baseline on content-addressed storage, plus a sharded "
        "versioned-KV service layer"
    ),
    long_description=_read_long_description(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    # The library itself is standard-library only; tests and benchmarks
    # need pytest/pytest-benchmark.
    install_requires=[],
    extras_require={
        "dev": ["pytest", "pytest-benchmark"],
    },
    classifiers=[
        "Development Status :: 3 - Alpha",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3 :: Only",
        "Topic :: Database",
        "Topic :: System :: Distributed Computing",
    ],
)
