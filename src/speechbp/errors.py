"""The package's failure classes, one for each failure exit code of `bp`.

Every other failure is a plain ValueError for a bad argument (exit 2, as a
config error is), an OSError (exit 3), or a bug (a traceback, exit 1).
"""


class ConfigError(ValueError):
    """A config or schema the pipeline cannot run: an unknown key, a bad
    value or value type, or features the model does not find (exit 2)."""


class MalformedArtifact(ValueError):
    """A damaged file: bytes that are not UTF-8, JSON that does not parse or
    lacks a key, CSV rows that are ragged or hold a bad cell, a WAV that is
    not 16-bit PCM RIFF/WAVE or is cut short, or a model file that does not
    describe a model or fails its version or checksum (exit 3)."""


class InsufficientData(ValueError):
    """Too few examples, a class too small for the fold plan, or a constant
    column where a variance is needed (exit 4)."""


class TrainingDiverged(RuntimeError):
    """A non-finite or runaway loss, or a saved model whose prediction is
    not finite (exit 5)."""


class DegenerateInput(ValueError):
    """Audio with nothing to analyze: no voiced segment, or a clip shorter
    than the voiced gate's shortest region (exit 6)."""
