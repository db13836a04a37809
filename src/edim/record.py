"""Immutable value records: the frozen-dataclass behaviour edim's value
classes rely on, built without generating source text at import.

A subclass names its own fields in ``__slots__`` (after those of its bases)
and the defaults of any of them in ``_defaults``.  For each subclass,
``__init_subclass__`` builds, from closures over ``operator.attrgetter`` and
the slots' setters:

- ``__eq__``: the same class exactly, and equal field values;
- ``__hash__``: the hash of the tuple of field values;
- ``__init__``: the fields by position or keyword, the defaults filling in
  the rest, then ``__post_init__`` if the class has one to validate them.

A class on a hot path writes its own ``__init__``, setting its fields with
``object.__setattr__``, and its subclasses inherit that one.  ``repr``
reads ``Name(field=value, ...)`` and assignment is refused.
"""

from operator import attrgetter


def _no_fields(record):
    return ()


def _arguments(cls, args, kwargs):
    """One value per field of cls from positional and keyword arguments,
    with the defaults filling in the rest."""
    fields = cls._fields
    if len(args) > len(fields):
        raise TypeError("%s() takes %d arguments, %d given"
                        % (cls.__name__, len(fields), len(args)))
    values = dict(zip(fields, args))
    for name, value in kwargs.items():
        if name not in fields or name in values:
            raise TypeError("%s() got an unexpected or repeated argument %r"
                            % (cls.__name__, name))
        values[name] = value
    values = {**cls._defaults, **values}
    missing = [name for name in fields if name not in values]
    if missing:
        raise TypeError("%s() missing arguments: %s"
                        % (cls.__name__, ", ".join(missing)))
    return [values[name] for name in fields]


def _built_init(cls):
    fields, defaults = cls._fields, cls._defaults
    setters = tuple(getattr(cls, name).__set__ for name in fields)
    post_init = getattr(cls, "__post_init__", None)
    least = len(fields)  # positional calls may leave out a tail of defaults
    while least and fields[least - 1] in defaults:
        least -= 1
    tail = tuple(defaults[name] for name in fields[least:])

    def __init__(self, *args, **kwargs):
        if kwargs or not least <= len(args) <= len(setters):
            args = _arguments(cls, args, kwargs)
        elif len(args) < len(setters):
            args += tail[len(args) - least:]
        for set_field, value in zip(setters, args):
            set_field(self, value)
        if post_init is not None:
            post_init(self)

    return __init__


class Record:
    __slots__ = ()
    _fields = ()
    _defaults = {}
    _init_is_built = True  # False from the first class that writes its own

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" not in vars(cls):
            raise TypeError("%s must declare __slots__" % cls.__name__)
        fields = cls._fields = tuple(
            name for klass in reversed(cls.__mro__)
            for name in vars(klass).get("__slots__", ()))
        get = attrgetter(*fields) if fields else _no_fields

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        if len(fields) == 1:
            def __hash__(self):
                return hash((get(self),))
        else:
            def __hash__(self):
                return hash(get(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__
        if "__init__" in vars(cls):
            cls._init_is_built = False
        elif cls._init_is_built:
            cls.__init__ = _built_init(cls)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
