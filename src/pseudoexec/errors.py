"""Exception hierarchy shared across the harness.  A class exists when some
code catches it by type or when ``pseudoexec`` can print it as
``error: <Name>``; argument checks that no command can reach raise
``ValueError``."""


class PseudoexecError(Exception):
    """Base class for all harness errors."""


# --- task-suite ---

class ParseUnsupported(PseudoexecError):
    """Instance text falls outside the implemented grammar for its task."""


class NoMatchingOption(PseudoexecError):
    """No single listed option matches the computed answer."""


# --- prompt assembly ---

class MalformedPseudocode(PseudoexecError):
    """A model response contains no function definition with the expected name."""


class MissingAsset(PseudoexecError):
    """A method requires a task-level asset that was not provided."""


# --- gateway ---

class GatewayError(PseudoexecError):
    """Base class for model-gateway failures."""


class CassetteMiss(GatewayError):
    """Replay mode has no recorded response for the request digest."""


class TransportError(GatewayError):
    """HTTP transport failure while talking to a live endpoint."""


class RateLimited(TransportError):
    """Live endpoint signalled rate limiting."""


# --- sandbox ---

class SpawnFailure(PseudoexecError):
    """The sandbox subprocess could not be started."""


# --- cli / config ---

class MalformedDataset(PseudoexecError):
    """A dataset file is missing required fields."""


class ConfigError(PseudoexecError):
    """Run configuration is invalid or references missing paths."""
