from . import core


def run():
    """The one-shot ``lgroup`` command, for ``python -m lgroup`` and the
    installed script: ``cli.main`` with every product built by the loops.

    A one-shot process meets each product arity about once, so compiling
    the straight-line kernels would cost it more than they save.  The bound
    is lowered here only, not in ``cli``: ``cli.main`` also runs in
    long-lived processes, and the bound is read at every product's
    construction, so lowering it there would reach every tree built later.
    """
    core._STRAIGHT_ARITY = 1
    from .cli import main  # after the bound is lowered

    main()


if __name__ == "__main__":
    run()
