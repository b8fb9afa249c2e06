"""Exception types shared across the package."""


class CovertMdpError(Exception):
    """Base class for all domain errors raised by this package."""


class ModelFormatError(CovertMdpError, ValueError):
    """A table is not a model: a model file that does not parse as one, or
    fields that break the definition of an MDP, a sensor or a chain.

    ``diagnostics`` holds one human-readable line per violation.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class IllDefinedUpdate(CovertMdpError):
    """The Bayesian update denominator is (numerically) zero.

    The observer would assign zero probability to the received observation,
    so the posterior is undefined. Callers avoid this by restricting the
    controlled agent to admissible actions.
    """


class ProhibitedAction(CovertMdpError):
    """An action could produce an observation the observer deems impossible."""


class EmptyAdmissibleSet(CovertMdpError):
    """No action is admissible at the given (state, belief) pair."""


class NoAdmissibleSequence(CovertMdpError):
    """Every open-loop action sequence of the requested horizon was pruned;
    ``pruned`` holds the pruned prefixes, as ``PlanResult.pruned`` would."""

    def __init__(self, message, pruned=()):
        super().__init__(message)
        self.pruned = pruned


class MixedConfig(CovertMdpError):
    """Aggregation was asked to combine runs with differing configurations."""


class SizeOverflow(CovertMdpError):
    """A requested discretization exceeds the configured size cap."""
