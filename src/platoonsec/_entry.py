"""The error a scenario dataclass raises for one entry it rejects."""

__all__ = ["EntryError"]


class EntryError(ValueError):
    """A rejected entry: ``path`` names it relative to the object that judged
    it (``window[0]``); ``reason`` is the message without a leading name."""

    def __init__(self, path: str, message: str, reason: str | None = None):
        self.path, self.reason = path, reason or message
        super().__init__(message)
