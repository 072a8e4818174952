"""Frozen records from plain methods.  ``dataclasses`` writes each class's
methods with ``exec`` when its module is imported, which was most of a cold
``import bggkit``; here it is imported only to raise FrozenInstanceError or
to build a record class's dataclass view."""


class _AsDataclass:
    """``__dataclass_fields__`` or ``__dataclass_params__`` of a record class,
    read off a dataclass of the same fields made when it is read, so that
    ``dataclasses.replace``, ``fields`` and ``asdict`` and ``pprint`` take it."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, cls):
        import dataclasses
        return getattr(dataclasses.make_dataclass(cls.__name__, [
            (name, object, dataclasses.field(
                default=cls._defaults.get(name, dataclasses.MISSING),
                compare=name in cls._shown, repr=name in cls._shown))
            for name in cls._fields]), self.name)


class Record:
    """The fields are the subclass's annotations, in order; a class
    attribute of the same name is a field's default, and the fields named
    in ``_hidden`` take no part in ==, hash and repr.  A record is built by
    position or keyword, refuses assignment and deletion, and keeps its
    fields as plain instance attributes, so it pickles as a frozen
    dataclass does.  Fields are set with object.__setattr__ and read with
    getattr, never through ``__dict__``: reading it builds the dict, and
    every later attribute read of the instance is then slower."""

    _hidden = ()
    __dataclass_fields__ = _AsDataclass()
    __dataclass_params__ = _AsDataclass()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        cls._shown = tuple(f for f in cls._fields if f not in cls._hidden)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{type(self).__name__}() takes each of {names} once")
        given = {**self._defaults, **dict(zip(names, args)), **kwargs}
        for name in names:
            if name not in given:
                raise TypeError(f"{type(self).__name__}() is missing {name!r}")
            object.__setattr__(self, name, given[name])

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._shown])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")
