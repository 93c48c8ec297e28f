"""Runtime lock-order sanitizer ("tsan-lite") for the test suite.

The static pass (:mod:`repro.devtools.lockorder`) proves the *source*
encodes no cycle; this module checks the *executions* we actually run.
Under ``REPRO_SANITIZE=1``, ``tests/conftest.py`` installs a
:class:`LockOrderSanitizer` before collection, after which every
``threading.Lock()``/``threading.RLock()`` created *from repro source
files* is transparently wrapped.  Each wrapped lock records, per
thread, the stack of locks held when it is acquired; edges accumulate
in one process-global order graph keyed by the lock's **creation
site** (file:line), so all instances of ``Counter._lock`` share a node
exactly like the static analysis.

Detected at acquire time, appended to :attr:`LockOrderSanitizer.violations`:

* **inversion** — acquiring B while holding A when some earlier
  acquisition (any thread, any instances) took A while holding B;
* **held-across-blocking** — a patched blocking entry point
  (``SystemClock.sleep``, ``resilience.execute``) runs while this
  thread holds any sanitized lock.

The autouse fixture in ``tests/conftest.py`` fails the test that
introduced a violation, with both witness stacks in the message.

Implementation notes: the wrapper factory decides repro-vs-other by
the *caller's* source file, so pytest/stdlib locks stay native; the
sanitizer's own bookkeeping uses a raw ``_thread`` lock to stay out of
its own graph; and repro modules are reached via
``importlib.import_module`` at install time only — ``repro.devtools``
deliberately imports nothing from the rest of the platform at module
scope (see the layer DAG), and this runtime seam keeps it that way.
"""

from __future__ import annotations

import _thread
import importlib
import os
import sys
import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "LockCoverageSanitizer",
    "LockCoverageViolation",
    "LockOrderSanitizer",
    "LockOrderViolation",
    "current_sanitizer",
]

#: Path fragment identifying project source for auto-wrapping.
_PROJECT_FRAGMENT = f"{os.sep}repro{os.sep}"
_SELF_FILE = os.path.abspath(__file__)


@dataclass(frozen=True, slots=True)
class LockOrderViolation:
    """One runtime ordering/blocking hazard."""

    kind: str  # "inversion" | "held-across-blocking"
    first: str  # lock site held
    second: str  # lock site acquired / blocking call name
    thread: str
    detail: str
    stack: tuple[str, ...] = ()

    def render(self) -> str:
        lines = [
            f"[{self.kind}] {self.first} then {self.second} on {self.thread}",
            f"  {self.detail}",
        ]
        lines.extend(f"  {frame}" for frame in self.stack[-6:])
        return "\n".join(lines)


def _creation_site(skip_files: tuple[str, ...]) -> str:
    """file:line of the nearest caller frame outside ``skip_files``."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if os.path.abspath(filename) not in skip_files:
            return f"{os.path.basename(filename)}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


class _SanitizedLock:
    """Wraps one real lock; reports acquisitions to the sanitizer."""

    __slots__ = ("_real", "_site", "_sanitizer", "_reentrant")

    def __init__(
        self, real: Any, site: str, sanitizer: "LockOrderSanitizer", reentrant: bool
    ) -> None:
        self._real = real
        self._site = site
        self._sanitizer = sanitizer
        self._reentrant = reentrant

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._real.acquire(blocking, timeout)
        if acquired:
            self._sanitizer._on_acquire(self)
        return acquired

    def release(self) -> None:
        self._sanitizer._on_release(self)
        self._real.release()

    def locked(self) -> bool:
        return self._real.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "RLock" if self._reentrant else "Lock"
        return f"<Sanitized{kind} {self._site}>"


@dataclass(slots=True)
class _HeldEntry:
    lock: _SanitizedLock
    count: int = 1


class LockOrderSanitizer:
    """Process-global acquisition-order tracker.

    Use :meth:`install` to patch ``threading.Lock``/``RLock`` (wrapping
    only locks created from repro source) and the known blocking entry
    points, or create locks explicitly with :meth:`make_lock`/
    :meth:`make_rlock` in targeted tests.
    """

    def __init__(self) -> None:
        self._meta = _thread.allocate_lock()  # guards the order graph
        self._local = threading.local()
        #: site -> {successor site -> witness detail}
        self._order: dict[str, dict[str, str]] = {}
        self.violations: list[LockOrderViolation] = []
        self._installed = False
        self._saved_lock: Callable[..., Any] | None = None
        self._saved_rlock: Callable[..., Any] | None = None
        self._saved_blocking: list[tuple[Any, str, Any]] = []

    # -- explicit construction (tests) --------------------------------------

    def make_lock(self, name: str | None = None) -> _SanitizedLock:
        site = name or _creation_site((_SELF_FILE,))
        return _SanitizedLock(_thread.allocate_lock(), site, self, reentrant=False)

    def make_rlock(self, name: str | None = None) -> _SanitizedLock:
        site = name or _creation_site((_SELF_FILE,))
        return _SanitizedLock(threading._RLock(), site, self, reentrant=True)

    # -- bookkeeping ---------------------------------------------------------

    def _held(self) -> list[_HeldEntry]:
        held = getattr(self._local, "held", None)
        if held is None:
            held = []
            self._local.held = held
        return held

    def _on_acquire(self, lock: _SanitizedLock) -> None:
        held = self._held()
        for entry in held:
            if entry.lock is lock:  # reentrant re-acquire of an RLock
                entry.count += 1
                return
        thread_name = threading.current_thread().name
        stack = tuple(
            f"{os.path.basename(f.filename)}:{f.lineno} in {f.name}"
            for f in traceback.extract_stack()[:-2]
            if "sanitizers" not in f.filename
        )
        with self._meta:
            for entry in held:
                src, dst = entry.lock._site, lock._site
                if src == dst:
                    continue  # instance fan-out of one class-level lock
                reverse = self._order.get(dst, {}).get(src)
                witness = f"{thread_name} held {src} acquiring {dst}"
                self._order.setdefault(src, {}).setdefault(dst, witness)
                if reverse is not None:
                    self.violations.append(
                        LockOrderViolation(
                            kind="inversion",
                            first=src,
                            second=dst,
                            thread=thread_name,
                            detail=(
                                f"opposite order previously observed: {reverse}"
                            ),
                            stack=stack,
                        )
                    )
        held.append(_HeldEntry(lock))

    def _on_release(self, lock: _SanitizedLock) -> None:
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i].lock is lock:
                held[i].count -= 1
                if held[i].count == 0:
                    del held[i]
                return

    def is_held(self, lock: Any) -> bool:
        """True when the *current thread* holds ``lock`` (a sanitized
        wrapper created by this sanitizer)."""
        return any(entry.lock is lock for entry in self._held())

    def note_blocking(self, name: str) -> None:
        """Called from patched blocking entry points."""
        held = self._held()
        if not held:
            return
        thread_name = threading.current_thread().name
        stack = tuple(
            f"{os.path.basename(f.filename)}:{f.lineno} in {f.name}"
            for f in traceback.extract_stack()[:-2]
            if "sanitizers" not in f.filename
        )
        with self._meta:
            self.violations.append(
                LockOrderViolation(
                    kind="held-across-blocking",
                    first=held[-1].lock._site,
                    second=name,
                    thread=thread_name,
                    detail=(
                        f"{name} ran while holding "
                        f"{[entry.lock._site for entry in held]}"
                    ),
                    stack=stack,
                )
            )

    # -- introspection -------------------------------------------------------

    def order_edges(self) -> dict[str, tuple[str, ...]]:
        """Observed acquisition order (site -> successor sites)."""
        with self._meta:
            return {src: tuple(sorted(dsts)) for src, dsts in self._order.items()}

    def reset(self) -> None:
        with self._meta:
            self._order.clear()
            self.violations.clear()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Patch lock construction and blocking entry points."""
        if self._installed:
            return
        self._installed = True
        _set_current(self)
        sanitizer = self
        real_lock = threading.Lock
        real_rlock = threading.RLock
        self._saved_lock = real_lock
        self._saved_rlock = real_rlock

        def lock_factory() -> Any:
            real = real_lock()
            site = _creation_site((_SELF_FILE,))
            if _PROJECT_FRAGMENT in _site_path(sys._getframe(1)):
                return _SanitizedLock(real, site, sanitizer, reentrant=False)
            return real

        def rlock_factory() -> Any:
            real = real_rlock()
            site = _creation_site((_SELF_FILE,))
            if _PROJECT_FRAGMENT in _site_path(sys._getframe(1)):
                return _SanitizedLock(real, site, sanitizer, reentrant=True)
            return real

        threading.Lock = lock_factory  # type: ignore[misc, assignment]
        threading.RLock = rlock_factory  # type: ignore[misc, assignment]
        self._patch_blocking()

    def uninstall(self) -> None:
        if not self._installed:
            return
        self._installed = False
        if self._saved_lock is not None:
            threading.Lock = self._saved_lock  # type: ignore[misc, assignment]
        if self._saved_rlock is not None:
            threading.RLock = self._saved_rlock  # type: ignore[misc, assignment]
        for owner, attr, original in self._saved_blocking:
            setattr(owner, attr, original)
        self._saved_blocking.clear()
        _set_current(None)

    def _patch_blocking(self) -> None:
        """Wrap the blocking entry points the static pass knows about.

        Imported lazily by dotted string: ``repro.devtools`` must not
        depend on the platform at import time (layer DAG), and the
        sanitizer must work even when only parts of it are loaded.
        """
        sanitizer = self
        targets = (
            ("repro.resilience.clock", "SystemClock", "sleep"),
            ("repro.resilience.policies", None, "execute"),
        )
        for module_name, class_name, attr in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:  # platform not importable in this env
                continue
            owner: Any = getattr(module, class_name) if class_name else module
            original = getattr(owner, attr, None)
            if original is None:
                continue
            label = f"{module_name}.{class_name + '.' if class_name else ''}{attr}"

            def wrapped(*args: Any, _orig: Any = original, _label: str = label, **kwargs: Any) -> Any:
                sanitizer.note_blocking(_label)
                return _orig(*args, **kwargs)

            setattr(owner, attr, wrapped)
            self._saved_blocking.append((owner, attr, original))


# -- lock-coverage sanitizer -------------------------------------------------

_MISSING = object()


def _capture_stack() -> tuple[str, ...]:
    return tuple(
        f"{os.path.basename(f.filename)}:{f.lineno} in {f.name}"
        for f in traceback.extract_stack()[:-2]
        if "sanitizers" not in f.filename
    )


@dataclass(frozen=True, slots=True)
class LockCoverageViolation:
    """One mutation of a lock-guarded attribute without its lock held."""

    attr: str  # "ClassName.attr"
    guard: str  # name of the lock attribute that should have been held
    op: str  # "rebind", "delete", or the mutating container method
    thread: str
    stack: tuple[str, ...] = ()

    def render(self) -> str:
        lines = [
            f"[lock-coverage] {self.op} of {self.attr} without "
            f"{self.guard} held on {self.thread}"
        ]
        lines.extend(f"  {frame}" for frame in self.stack[-6:])
        return "\n".join(lines)


@dataclass(slots=True)
class _GuardBinding:
    """Ties a guarded container back to its owner's declared lock."""

    sanitizer: "LockCoverageSanitizer"
    owner: Any
    label: str
    lock_attr: str

    def check(self, op: str) -> None:
        self.sanitizer._check(self.owner, self.label, self.lock_attr, op)


#: Mutating methods per builtin container the coverage sanitizer wraps.
_DICT_MUTATORS = (
    "__setitem__", "__delitem__", "__ior__",
    "clear", "pop", "popitem", "setdefault", "update",
)
_LIST_MUTATORS = (
    "__setitem__", "__delitem__", "__iadd__", "__imul__",
    "append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse",
)
_SET_MUTATORS = (
    "__ior__", "__iand__", "__isub__", "__ixor__",
    "add", "discard", "remove", "pop", "clear", "update",
    "difference_update", "intersection_update", "symmetric_difference_update",
)


def _guarded_container(base: type, mutators: tuple[str, ...]) -> type:
    """A ``base`` subclass whose mutating methods report to the coverage
    sanitizer before delegating; pickles/copies back to the plain
    builtin."""

    def _make(name: str) -> Callable[..., Any]:
        original = getattr(base, name)

        def method(self: Any, *args: Any, **kwargs: Any) -> Any:
            binding = self._cov_binding
            if binding is not None:
                binding.check(name)
            return original(self, *args, **kwargs)

        method.__name__ = name
        return method

    namespace: dict[str, Any] = {name: _make(name) for name in mutators}
    namespace["_cov_binding"] = None

    def __reduce__(self: Any) -> tuple:
        return (base, (base(self),))

    namespace["__reduce__"] = __reduce__
    return type(f"_Guarded_{base.__name__}", (base,), namespace)


class _GuardedAttribute:
    """Data descriptor over one lock-guarded attribute.

    Values live in the instance ``__dict__`` under their own name (so
    ``vars()``, ``__getstate__`` and pickling see them unchanged); the
    descriptor checks the declared lock on every rebind after the first
    (publication from ``__init__`` is lock-free by design) and wraps
    plain dict/list/set values so in-place mutations are checked too.
    """

    __slots__ = ("name", "label", "lock_attr", "sanitizer", "class_default")

    def __init__(
        self,
        name: str,
        label: str,
        lock_attr: str,
        sanitizer: "LockCoverageSanitizer",
        class_default: Any,
    ) -> None:
        self.name = name
        self.label = label
        self.lock_attr = lock_attr
        self.sanitizer = sanitizer
        self.class_default = class_default

    def __get__(self, obj: Any, objtype: type | None = None) -> Any:
        if obj is None:
            return self
        try:
            return obj.__dict__[self.name]
        except KeyError:
            if self.class_default is not _MISSING:
                return self.class_default
            raise AttributeError(self.name) from None

    def __set__(self, obj: Any, value: Any) -> None:
        if self.name in obj.__dict__:
            self.sanitizer._check(obj, self.label, self.lock_attr, "rebind")
        obj.__dict__[self.name] = self.sanitizer._wrap(
            value, obj, self.label, self.lock_attr
        )

    def __delete__(self, obj: Any) -> None:
        self.sanitizer._check(obj, self.label, self.lock_attr, "delete")
        try:
            del obj.__dict__[self.name]
        except KeyError:
            raise AttributeError(self.name) from None


class LockCoverageSanitizer:  # devtools: allow[dead-code] — installed by tests/conftest.py under REPRO_SANITIZE=1
    """Runtime enforcement of the concurrency manifest's lock-guarded rows.

    The thread-escape pass proves (statically) that every *source*
    mutation of a lock-guarded attribute sits under its declared lock;
    this sanitizer checks the *executions*: instrument the classes the
    manifest names, and any rebind or container mutation of a guarded
    attribute while the owning instance's declared lock is not held by
    the current thread is recorded in :attr:`violations` (the autouse
    fixture in ``tests/conftest.py`` fails the offending test).

    Classes whose instances have no ``__dict__`` (``__slots__``) are
    skipped — slot descriptors cannot be shadowed without changing
    storage.  Manifest rows whose guard lives on a *different* class
    than the attribute (e.g. tree nodes guarded by the tree's lock) are
    skipped too: there is no per-instance lock to test.
    """

    def __init__(self) -> None:
        self._meta = _thread.allocate_lock()
        self.violations: list[LockCoverageViolation] = []
        self._instrumented: list[tuple[type, str, Any]] = []
        self._active = True
        self._guarded_dict = _guarded_container(dict, _DICT_MUTATORS)
        self._guarded_list = _guarded_container(list, _LIST_MUTATORS)
        self._guarded_set = _guarded_container(set, _SET_MUTATORS)

    # -- instrumentation -----------------------------------------------------

    def instrument_class(self, cls: type, guards: dict[str, str]) -> int:
        """Install guarded descriptors for ``{attr: lock_attr}``; returns
        how many attributes were instrumented (0 for slotted classes)."""
        if getattr(cls, "__dictoffset__", 0) == 0:
            return 0  # no instance __dict__ to shadow into
        count = 0
        for attr, lock_attr in sorted(guards.items()):
            existing = cls.__dict__.get(attr, _MISSING)
            if isinstance(existing, _GuardedAttribute):
                continue
            descriptor = _GuardedAttribute(
                attr, f"{cls.__name__}.{attr}", lock_attr, self, existing
            )
            setattr(cls, attr, descriptor)
            self._instrumented.append((cls, attr, existing))
            count += 1
        return count

    def install_from_manifest(self, manifest: dict) -> int:
        """Instrument every resolvable ``lock-guarded`` manifest row.

        Modules are imported lazily by dotted name (the devtools layer
        must not import the platform at module scope); unimportable
        modules and unresolvable classes are skipped, not fatal.
        """
        per_class: dict[tuple[str, str], dict[str, str]] = {}
        for entry in manifest.get("entries", []):
            if entry.get("classification") != "lock-guarded":
                continue
            try:
                owner_q, attr = str(entry.get("attr", "")).rsplit(".", 1)
                guard_q, lock_attr = str(entry.get("guard", "")).rsplit(".", 1)
            except ValueError:
                continue
            if owner_q != guard_q:
                continue  # guard on another class: no instance lock to test
            module_name, cls_name = owner_q.rsplit(".", 1)
            per_class.setdefault((module_name, cls_name), {})[attr] = lock_attr
        total = 0
        for (module_name, cls_name), guards in sorted(per_class.items()):
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            cls = getattr(module, cls_name, None)
            if isinstance(cls, type):
                total += self.instrument_class(cls, guards)
        return total

    def uninstrument(self) -> None:
        """Restore the original class attributes and stop recording."""
        self._active = False
        for cls, attr, original in reversed(self._instrumented):
            if original is _MISSING:
                try:
                    delattr(cls, attr)
                except AttributeError:
                    pass
            else:
                setattr(cls, attr, original)
        self._instrumented.clear()

    def reset(self) -> None:
        with self._meta:
            self.violations.clear()

    # -- checking ------------------------------------------------------------

    def _wrap(self, value: Any, owner: Any, label: str, lock_attr: str) -> Any:
        guarded = {
            dict: self._guarded_dict,
            list: self._guarded_list,
            set: self._guarded_set,
        }.get(type(value))
        if guarded is None:
            return value
        wrapped = guarded(value)
        wrapped._cov_binding = _GuardBinding(self, owner, label, lock_attr)
        return wrapped

    def _check(self, owner: Any, label: str, lock_attr: str, op: str) -> None:
        if not self._active:
            return
        lock = getattr(owner, lock_attr, None)
        if lock is None:
            return  # pre-publication: the guard itself is not built yet
        if self._holds(lock):
            return
        with self._meta:
            self.violations.append(
                LockCoverageViolation(
                    attr=label,
                    guard=lock_attr,
                    op=op,
                    thread=threading.current_thread().name,
                    stack=_capture_stack(),
                )
            )

    @staticmethod
    def _holds(lock: Any) -> bool:
        """Best-effort 'current thread holds this lock'."""
        if isinstance(lock, _SanitizedLock):
            order = current_sanitizer()
            if order is not None:
                return order.is_held(lock)
            lock = lock._real
        owned = getattr(lock, "_is_owned", None)
        if owned is not None:
            try:
                return bool(owned())
            except Exception:  # pragma: no cover - exotic lock impls  # devtools: allow[broad-except] — ownership probe must never raise inside __setattr__
                return False
        locked = getattr(lock, "locked", None)
        return bool(locked()) if callable(locked) else False


def _site_path(frame: Any) -> str:
    while frame is not None:
        filename = os.path.abspath(frame.f_code.co_filename)
        if filename != _SELF_FILE:
            return filename
        frame = frame.f_back
    return ""


_current: LockOrderSanitizer | None = None
_current_lock = _thread.allocate_lock()


def _set_current(sanitizer: LockOrderSanitizer | None) -> None:
    global _current
    with _current_lock:
        _current = sanitizer


def current_sanitizer() -> LockOrderSanitizer | None:
    """The installed sanitizer, if any (used by tests/conftest.py)."""
    return _current
