"""Build script for the optional compiled sweep kernel.

The package is fully functional without it: ``lambdakit`` falls back to
the pure-Python kernel whenever the extension is missing.  Building the
extension needs only a C compiler; when compiling fails the build warns
and carries on without it.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the speedup extension if possible, warn once and continue if not.

    The one catch point is ``run``: a failed compile also skips the
    ``--inplace`` copy of the extension that was never built.
    """

    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler, broken toolchain, ...
            print(
                f"WARNING: compiled kernel not built ({exc}); "
                "lambdakit will use the pure-Python kernel"
            )


setup(
    ext_modules=[Extension("lambdakit._speedups", ["src/lambdakit/_speedups.c"])],
    cmdclass={"build_ext": OptionalBuildExt},
)
