"""Exception types shared across the package."""


class StructureError(ValueError):
    """Operands or arguments do not fit together (field, arity, shape)."""


class AlphabetError(StructureError):
    """A letter does not belong to the automaton's alphabet."""


class CapacityError(RuntimeError):
    """A configured resource cap was exceeded.

    ``discovered`` carries the number of states (or work units) seen before
    the construction gave up.
    """

    def __init__(self, message, discovered=None):
        super().__init__(message)
        self.discovered = discovered


class SingularConjugatorError(ValueError):
    """The conjugator matrix is singular.

    It is singular exactly when the minimal polynomial has a repeated root
    (see :func:`companion.conjugator`); a reducible separable one is fine.
    """


class SpecFileError(ValueError):
    """An equation spec file failed to parse or validate."""
