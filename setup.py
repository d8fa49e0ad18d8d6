"""Build script: compiles the optional Cython kernel lane.

The package is fully functional without the extension (the ring-protocol
routes in `wedgecrys.matrices` then do all the work), so a failed compile
only costs speed, never correctness.
"""
import sys

from setuptools import setup

ext_modules = []
try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        ["src/wedgecrys/_kernel/_cylane.pyx"],
        language_level=3,
    )
except Exception as exc:  # pragma: no cover - build-environment dependent
    sys.stderr.write(f"wedgecrys: skipping Cython kernel build ({exc})\n")

setup(ext_modules=ext_modules)
