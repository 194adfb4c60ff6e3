"""Package metadata for ``repro``; ``pip install -e .`` installs the
``src/repro`` package and the ``repro`` console script."""
import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.M
).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Mining anomalies using traffic feature distributions",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy", "networkx"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
