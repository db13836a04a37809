"""Immutable value records: the frozen-dataclass behaviour edim's value
classes rely on, built without generating source text at import.

A subclass names its own fields in ``__slots__`` (after those of its bases)
and the defaults of any of them in ``_defaults``.  ``__init_subclass__``
builds from closures over ``operator.attrgetter`` and the slots' setters:

- ``__eq__``: the same class exactly, and equal field values;
- ``__hash__``: the hash of the tuple of field values;
- ``__init__``: the fields by position or keyword, the defaults filling in
  the rest, then ``__post_init__`` if the class has one to validate them.

A class on a hot path writes its own ``__init__`` (with
``object.__setattr__``), which its subclasses inherit.  Classes declared
``interned=True`` keep ``object``'s ``__eq__`` and ``__hash__``.  ``repr``
reads ``Name(field=value, ...)``; assignment is refused."""

from operator import attrgetter


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


def _interned_new(cls, *args, **kwargs):
    """``__new__`` of an interned class: one record per (exact class, field
    values), so ``object``'s ``__eq__`` and ``__hash__`` serve (hash-consing:
    Filliâtre and Conchon, ML Workshop 2006).  A call looks its arguments up
    in ``_calls``, filled only by calls ``_build`` accepted, or builds and
    validates a record and keeps the first with its values in ``_values``.
    For a class with the built ``__init__``, a keyword call is looked up as
    the positional call of its field values, and a short positional call that
    misses is made as that full call, then kept under its own arguments too."""
    if kwargs and cls._init_is_built:
        args, kwargs = tuple(_arguments(cls, args, kwargs)), {}
    if not kwargs:
        try:
            return cls._calls[args]
        except KeyError:
            short = cls._init_is_built and len(args) < len(cls._fields)
        except TypeError:  # an unhashable argument
            short = False
        if short:
            full = _arguments(cls, args, kwargs)
            return cls._calls.setdefault(args, _interned_new(cls, *full))
    new = object.__new__(cls)
    cls._build(new, *args, **kwargs)
    record = cls._values.setdefault(cls._get(new), new)
    if not kwargs:
        try:
            cls._calls[args] = record
        except TypeError:
            pass
    return record


class Record:
    __slots__ = ()
    _fields = ()
    _defaults = {}
    _init_is_built = True  # False from the first class that writes its own
    _interned = False  # True from a class declared with interned=True

    def __init_subclass__(cls, interned=False, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" not in vars(cls):
            raise TypeError("%s must declare __slots__" % cls.__name__)
        fields = cls._fields = tuple(
            name for klass in reversed(cls.__mro__)
            for name in vars(klass).get("__slots__", ()))
        get = attrgetter(*fields) if fields else lambda record: ()
        if interned or cls._interned:
            cls._interned, cls.__new__ = True, _interned_new
            cls._get, cls._calls, cls._values = get, {}, {}
        else:
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
        if cls._interned and cls.__init__ is not object.__init__:
            # _interned_new builds, and a hit must not run __init__ again
            cls._build, cls.__init__ = cls.__init__, object.__init__

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
