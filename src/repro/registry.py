"""One name-keyed plugin registry for every pluggable kind.

Platforms, schedulers, batchers, fault policies and mapping passes all
plug in the same way: a class decorator files a subclass of the kind's
base class under a string key, and callers turn a key back into an
object.  :class:`Registry` is that mechanism; each kind owns one
instance (``PLATFORMS``, ``SCHEDULERS``, ``BATCHERS``,
``FAULT_POLICIES``, ``PASSES``) and raises its own error class.

Example::

    >>> from repro.registry import Registry
    >>> class Codec:
    ...     def __init__(self, level=0): self.level = level
    >>> CODECS = Registry("codec", Codec, ValueError)
    >>> @CODECS.register("raw")
    ... class Raw(Codec):
    ...     pass
    >>> Raw.name, CODECS.names()
    ('raw', ('raw',))
    >>> CODECS.create("raw", level=3).level
    3
    >>> CODECS.make(Raw).name          # a zero-argument factory
    'raw'
    >>> CODECS.make(CODECS.create("raw"), level=1)
    Traceback (most recent call last):
    ...
    ValueError: codec options only apply when the codec is given by name (a registry key)
    >>> CODECS.get("zip")
    Traceback (most recent call last):
    ...
    ValueError: unknown codec 'zip'; registered: raw
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

__all__ = ["Registry"]

T = TypeVar("T")
C = TypeVar("C", bound=type)


class Registry(Generic[T]):
    """Registered subclasses of ``base``, keyed by name.

    Args:
        kind: What the entries are, as error messages name them
            (``"scheduler"``, ``"mapping pass"``, ...).
        base: Every registered class must subclass it, and
            :meth:`make` checks factory results against it.
        error: The exception class raised for every misuse.
        idempotent: Whether re-registering the class a name already
            holds is a no-op.  When false, every duplicate name raises.
            A different class under a taken name always raises, so a
            plugin cannot silently hijack a built-in.
    """

    def __init__(
        self,
        kind: str,
        base: type[T],
        error: type[Exception],
        *,
        idempotent: bool = True,
    ) -> None:
        self.kind = kind
        self.base = base
        self.error = error
        self.idempotent = idempotent
        self._classes: dict[str, type[T]] = {}

    def register(self, name: str) -> Callable[[C], C]:
        """Class decorator: file ``cls`` under ``name`` and set ``cls.name``."""

        def decorate(cls: C) -> C:
            if not (isinstance(cls, type) and issubclass(cls, self.base)):
                raise self.error(
                    f"{self.kind} {name!r} needs a {self.base.__name__} "
                    f"subclass, not {cls!r}"
                )
            existing = self._classes.get(name)
            if existing is not None and not (self.idempotent and existing is cls):
                raise self.error(
                    f"{self.kind} {name!r} already registered by {existing.__name__}"
                )
            cls.name = name
            self._classes[name] = cls
            return cls

        return decorate

    def unregister(self, name: str) -> None:
        """Remove a registration; an absent name is a no-op."""
        self._classes.pop(name, None)

    def names(self) -> tuple[str, ...]:
        """Sorted keys of every registered class."""
        return tuple(sorted(self._classes))

    def get(self, name: str) -> type[T]:
        """The class registered under ``name``."""
        try:
            return self._classes[name]
        except KeyError:
            raise self.error(
                f"unknown {self.kind} {name!r}; registered: {', '.join(self.names())}"
            ) from None

    def create(self, name: str, **options: object) -> T:
        """A fresh instance of ``name``'s class, built with ``options``."""
        return self.get(name)(**options)

    def make(self, spec: str | T | Callable[[], T], **options: object) -> T:
        """Resolve a spec: a registry key, an instance, or a factory.

        Options go to the constructor and apply only to a key.  Callers
        needing one object per replica pass a key or a factory.
        """
        if isinstance(spec, str):
            return self.create(spec, **options)
        if options:
            raise self.error(
                f"{self.kind} options only apply when the {self.kind} is "
                f"given by name (a registry key)"
            )
        if isinstance(spec, self.base):
            return spec
        if callable(spec):
            made = spec()
            if not isinstance(made, self.base):
                raise self.error(
                    f"{self.kind} factory must return a {self.base.__name__}"
                )
            return made
        raise self.error(f"cannot build a {self.kind} from {spec!r}")
