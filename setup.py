"""Build script for the optional compiled sweep kernel.

The package is fully functional without it: ``lambdakit`` falls back to
the pure-Python kernel whenever the extension is missing.  Building the
extension needs only a C compiler; when compiling fails the build warns
and carries on without it.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the speedup extension if possible, warn and continue if not."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler, broken toolchain, ...
            _warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            _warn(exc)


def _warn(exc):
    print(
        f"WARNING: compiled kernel not built ({exc}); "
        "lambdakit will use the pure-Python kernel"
    )


setup(
    ext_modules=[Extension("lambdakit._speedups", ["src/lambdakit/_speedups.c"])],
    cmdclass={"build_ext": OptionalBuildExt},
)
