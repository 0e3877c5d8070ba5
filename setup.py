"""Build shim: compiles the optional solver extension when a C compiler is
available, and degrades to the pure-Python kernels otherwise."""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

KERNELS = Extension(
    "proxileak.mlat._kernels",
    ["src/proxileak/mlat/_kernels.c"],
    # -ffp-contract=off keeps the C arithmetic bit-identical to the
    # pure-Python kernels (no FMA fusion in the residual evaluation).
    extra_compile_args=["-O3", "-ffp-contract=off"],
)


class optional_build_ext(build_ext):
    """Treat extension build failures as a soft miss, not an install error."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            print(f"proxileak: compiled core skipped ({exc}); "
                  "falling back to pure-Python kernels", file=sys.stderr)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"proxileak: building {ext.name} failed ({exc}); "
                  "falling back to pure-Python kernels", file=sys.stderr)


setup(ext_modules=[KERNELS], cmdclass={"build_ext": optional_build_ext})
