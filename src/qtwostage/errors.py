"""Exception types shared across the package."""


class CapacityError(ValueError):
    """Requested register size exceeds what the simulator is sized for."""


class StructureError(ValueError):
    """Malformed input: bad index, register mismatch, wrong array shape."""


class UnsupportedGateError(ValueError):
    """Gate has no rewrite rule in the target basis."""
