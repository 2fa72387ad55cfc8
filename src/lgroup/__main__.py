from . import core

# A one-shot process meets each product arity about once, so compiling the
# straight-line kernels would cost it more than they save: its products
# build with the loops.  Set here only, not in ``cli``: ``cli.main`` also
# runs in long-lived processes, and the bound is read at every product's
# construction, so lowering it there would reach every tree built later.
core._STRAIGHT_ARITY = 1

from .cli import main  # noqa: E402  (after the bound is lowered)

main()
