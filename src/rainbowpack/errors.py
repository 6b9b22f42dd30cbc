"""Exception types shared across the package."""


class PackingError(ValueError):
    """A packing violates one of its structural invariants."""


class GuardError(ValueError):
    """An input exceeds a documented size guard or an enumeration its
    node budget."""


class AuditError(ValueError):
    """An audit was asked to run on an object that fails its hypothesis."""
