"""Setuptools shim for environments without the wheel package.

``pip install -e .`` needs ``bdist_wheel`` for PEP 660 editable installs;
this offline environment lacks the ``wheel`` module, so ``python setup.py
develop`` provides the equivalent editable install. There is no
pyproject.toml: the package metadata lives here.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
