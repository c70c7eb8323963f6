"""Exception hierarchy shared across the harness, and the text check each
boundary that reads outside input applies.  A class exists when some code
catches it by type or when ``pseudoexec`` can print it as ``error:
<Name>``; argument checks that no command can reach raise ``ValueError``."""


def is_unicode(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8.  It does not when it holds a lone
    surrogate, which a JSON escape such as ``"\\ud800"`` decodes to."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


class PseudoexecError(Exception):
    """Base class for all harness errors."""


# --- task-suite ---

class ParseUnsupported(PseudoexecError):
    """Instance text falls outside the implemented grammar for its task."""


class NoMatchingOption(PseudoexecError):
    """No single listed option matches the computed answer."""


# --- prompt assembly ---

class MalformedPseudocode(PseudoexecError):
    """An Instructor response Think cannot use, or a pseudocode prompt that
    does not define the function it names."""


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
