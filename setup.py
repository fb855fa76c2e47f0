"""Package metadata for the ``repro`` Prio reproduction.

The package lives under ``src/`` and needs only the standard library;
numpy is the optional fast batch backend (``pip install .[numpy]``).
Without ``wheel`` a PEP 517 editable install fails, so use the classic
develop-mode path: ``pip install -e . --no-use-pep517
--no-build-isolation``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Prio: private, robust, and scalable computation of aggregate "
        "statistics (reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    extras_require={"numpy": ["numpy"]},
)
