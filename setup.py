from setuptools import Extension, setup

# Plain C, no code generator.  optional=True: without a working compiler the
# install still succeeds and stlmon._kernels selects the pure-Python lane.
setup(ext_modules=[
    Extension("stlmon._kernels._fast", ["src/stlmon/_kernels/_fast.c"], optional=True),
])
