"""Domain exceptions shared across the package."""


class PdsrError(Exception):
    """Base class for all library-specific failures."""


class AllFramesUnassignableError(PdsrError):
    """No frame of a tracklet could be assigned to any canonical pose."""


class MissingSyntheticError(PdsrError):
    """A synthetic feature was requested for a key the provider cannot serve."""


class EmptyUnionError(PdsrError):
    """Pose alignment left no usable poses for a tracklet pair."""


class ZeroVectorError(PdsrError):
    """An all-zero vector reached cosine scoring."""


class FileFormatError(PdsrError):
    """A manifest, canon, feature-matrix, index or settings file is malformed."""


class InvalidDatasetError(PdsrError, ValueError):
    """validate_dataset reported `issues` (its list, in its order); the message names each."""

    def __init__(self, issues) -> None:
        self.issues = list(issues)
        super().__init__(f"{len(self.issues)} dataset issue(s): " + "; ".join(map(str, self.issues)))
