"""Packaging for the MOAT (ASPLOS 2025) reproduction toolkit.

Plain ``setuptools`` with no build-time dependencies beyond the
standard toolchain. ``pip install -e .`` needs ``wheel`` (or
setuptools >= 70, which bundles ``bdist_wheel``); environments without
either can use the legacy ``python setup.py develop`` path, which
installs the same editable package. Either way installs the ``repro``
console script used by CI and the sweep harness
(``repro sweep fig11 --check``).
"""

import pathlib
import re

from setuptools import find_packages, setup

HERE = pathlib.Path(__file__).parent


def read_version() -> str:
    text = (HERE / "src" / "repro" / "__init__.py").read_text()
    match = re.search(r'^__version__ = "([^"]+)"', text, re.MULTILINE)
    if not match:
        raise RuntimeError("__version__ not found in src/repro/__init__.py")
    return match.group(1)


def read_long_description() -> str:
    readme = HERE / "README.md"
    return readme.read_text() if readme.is_file() else ""


setup(
    name="repro-moat",
    version=read_version(),
    description=(
        "Reproduction of MOAT: Securely Mitigating Rowhammer with "
        "Per-Row Activation Counters (ASPLOS 2025)"
    ),
    long_description=read_long_description(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages("src"),
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
    extras_require={
        "test": ["pytest", "pytest-benchmark", "pytest-xdist", "hypothesis"],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.9",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Security",
        "Topic :: System :: Hardware",
    ],
)
