"""Setup shim: enables legacy editable installs on environments without
the `wheel` package (pip falls back to `setup.py develop`)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="ChatGraph: chat with your graphs (ICDE 2024) - reproduction",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
    extras_require={"test": ["scipy", "networkx", "pytest",
                             "pytest-benchmark", "hypothesis"]},
)
