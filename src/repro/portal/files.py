"""Per-user file management.

The paper: "the project incorporated a file browser allowing the
download, and upload of multiple files, their editing and basic file
manipulations like copy, move, rename" within "the directory structure
nested in their home directory".

Every operation takes a *user-relative* path, resolved inside the user's
home; any attempt to escape (``..``, absolute paths, symlink tricks)
raises :class:`~repro._errors.PathTraversalError` — the property tests
fuzz this heavily.

Fast-path notes (the portal serves these under heavy polling):

* :meth:`list_dir` walks one ``os.scandir`` pass — a single ``stat``
  per entry instead of the 5+ syscalls the naive ``iterdir`` version
  paid (``stat`` + ``is_dir`` + ``is_file`` + ``is_symlink`` +
  ``resolve`` + an ``mkdir`` probe per child);
* quota checks read a delta-maintained per-user byte counter (updated
  on write/upload/delete/copy) instead of re-walking the whole home
  with ``rglob`` on every request; :meth:`refresh_usage` re-walks on
  demand for out-of-band writes (e.g. job artifacts);
* mutations fire :meth:`on_mutation` listeners so the portal's response
  cache can invalidate the user's namespace explicitly.
"""

from __future__ import annotations

import os
import shutil
import stat as _statmod
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from repro._errors import FileManagerError, PathTraversalError

__all__ = ["FileEntry", "FileManager"]

#: refuse single uploads beyond this size
MAX_UPLOAD_BYTES = 16 * 1024 * 1024

#: chunk size for streamed reads/writes
CHUNK_BYTES = 256 * 1024

_stat_isreg = _statmod.S_ISREG


@dataclass(frozen=True)
class FileEntry:
    """One directory listing row."""

    name: str
    path: str            # user-relative, '/'-separated
    is_dir: bool
    size: int
    mtime: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "path": self.path,
            "is_dir": self.is_dir,
            "size": self.size,
            "mtime": self.mtime,
        }


def _tree_bytes(root: Path) -> int:
    """Total file bytes under ``root`` via an iterative scandir walk."""
    total = 0
    stack = [str(root)]
    while stack:
        current = stack.pop()
        try:
            with os.scandir(current) as it:
                for entry in it:
                    try:
                        if entry.is_dir(follow_symlinks=False):
                            stack.append(entry.path)
                        elif entry.is_file(follow_symlinks=False):
                            total += entry.stat(follow_symlinks=False).st_size
                    except OSError:
                        continue
        except OSError:
            continue
    return total


class FileManager:
    """Safe CRUD inside ``root/<username>/``.

    ``quota_bytes`` (optional) caps each user's total stored bytes;
    writes and copies that would exceed it fail with
    :class:`FileManagerError` before touching the disk.
    """

    def __init__(self, root: str | Path, quota_bytes: int | None = None) -> None:
        if quota_bytes is not None and quota_bytes < 1:
            raise FileManagerError(f"quota must be >= 1 byte, got {quota_bytes}")
        self.root = Path(root).resolve()
        self.root.mkdir(parents=True, exist_ok=True)
        self.quota_bytes = quota_bytes
        self._usage: dict[str, int] = {}
        self._usage_lock = threading.Lock()
        self._listeners: list[Callable[[str], None]] = []
        #: username -> (home, home.resolve()) — homes never move, so the
        #: mkdir probe and the realpath walk are paid once per user, not
        #: once per request.
        self._homes: dict[str, tuple[Path, Path]] = {}

    # -- mutation hooks -----------------------------------------------------------
    def on_mutation(self, listener: Callable[[str], None]) -> None:
        """Register ``listener(username)`` fired after every mutation."""
        self._listeners.append(listener)

    def _notify(self, username: str) -> None:
        for listener in self._listeners:
            listener(username)

    # -- usage accounting ---------------------------------------------------------
    def usage_bytes(self, username: str) -> int:
        """Total bytes stored under the user's home (O(1) after first call)."""
        with self._usage_lock:
            cached = self._usage.get(username)
            if cached is not None:
                return cached
        total = _tree_bytes(self.home(username))
        with self._usage_lock:
            return self._usage.setdefault(username, total)

    def refresh_usage(self, username: str) -> int:
        """Re-walk the home and reset the counter (out-of-band writes)."""
        total = _tree_bytes(self.home(username))
        with self._usage_lock:
            self._usage[username] = total
        return total

    def _usage_add(self, username: str, delta: int) -> None:
        with self._usage_lock:
            if username in self._usage:
                self._usage[username] = max(0, self._usage[username] + delta)

    def _check_quota(self, username: str, incoming_bytes: int) -> None:
        if self.quota_bytes is None:
            return
        used = self.usage_bytes(username)
        if used + incoming_bytes > self.quota_bytes:
            raise FileManagerError(
                f"quota exceeded: {used} + {incoming_bytes} bytes > {self.quota_bytes} allowed"
            )

    # -- path handling ---------------------------------------------------------
    def home(self, username: str) -> Path:
        """The user's home directory (created on first use)."""
        cached = self._homes.get(username)
        if cached is not None:
            return cached[0]
        if not username or "/" in username or username in (".", ".."):
            raise FileManagerError(f"invalid username {username!r}")
        home = self.root / username
        home.mkdir(exist_ok=True)
        self._homes[username] = (home, home.resolve())
        return home

    def _home_resolved(self, username: str) -> Path:
        self.home(username)
        return self._homes[username][1]

    def resolve(self, username: str, rel_path: str) -> Path:
        """Resolve a user-supplied path inside the user's home.

        Raises :class:`PathTraversalError` for anything that would land
        outside — including paths that traverse symlinks out of the home.
        """
        home = self.home(username)
        home_resolved = self._homes[username][1]
        rel = (rel_path or "").strip().lstrip("/")
        candidate = (home / rel).resolve() if rel else home_resolved
        try:
            candidate.relative_to(home_resolved)
        except ValueError:
            raise PathTraversalError(
                f"path {rel_path!r} escapes the home directory of {username!r}"
            ) from None
        return candidate

    def _rel(self, username: str, abspath: Path) -> str:
        home_resolved = self._home_resolved(username)
        return str(abspath.relative_to(home_resolved)) if abspath != home_resolved else ""

    # -- listing ------------------------------------------------------------------
    def list_dir(self, username: str, rel_path: str = "") -> list[FileEntry]:
        """Entries of a directory, directories first then by name.

        One ``os.scandir`` pass: a single ``stat`` per child, with the
        user-relative path derived textually instead of via ``resolve``.
        """
        target = self.resolve(username, rel_path)
        if not target.exists():
            raise FileManagerError(f"no such directory: {rel_path!r}")
        if not target.is_dir():
            raise FileManagerError(f"not a directory: {rel_path!r}")
        home = self._home_resolved(username)
        prefix = "" if target == home else str(target.relative_to(home))
        entries = []
        with os.scandir(target) as it:
            for child in it:
                try:
                    st = child.stat()  # follows symlinks, like the old stat()
                    is_dir = child.is_dir()
                    is_file = child.is_file()
                    is_link = child.is_symlink()
                except OSError:
                    continue  # raced deletion / dangling link
                rel = f"{prefix}/{child.name}" if prefix else child.name
                entries.append(
                    FileEntry(
                        name=child.name,
                        path=child.name if is_link else rel,
                        is_dir=is_dir,
                        size=st.st_size if is_file else 0,
                        mtime=st.st_mtime,
                    )
                )
        return sorted(entries, key=lambda e: (not e.is_dir, e.name))

    def fingerprint(self, username: str, rel_path: str = "") -> tuple[int, int]:
        """``(mtime_ns, size)`` of a path — a conditional-GET validator.

        One ``stat`` instead of a listing; directory mtimes move whenever
        entries are added or removed, including out-of-band (job) writes.
        Dot-dot-free paths skip the realpath walk: the fingerprint only
        keys the response cache, and nothing enters that cache without a
        successful (fully path-checked) render first.
        """
        rel = (rel_path or "").strip().lstrip("/")
        if ".." in rel.split("/"):
            p: Path | str = self.resolve(username, rel_path)
        else:
            p = os.path.join(str(self.home(username)), rel) if rel else str(self.home(username))
        try:
            st = os.stat(p)
        except OSError:
            raise FileManagerError(f"no such path: {rel_path!r}") from None
        return st.st_mtime_ns, st.st_size

    # -- content ----------------------------------------------------------------
    def file_entry(self, username: str, rel_path: str) -> tuple[Path, os.stat_result]:
        """Resolve an existing regular file once; ``(path, stat)``.

        The single path-checked resolution feeding both the conditional
        validator (size/mtime) and a subsequent :meth:`iter_file`.
        """
        p = self.resolve(username, rel_path)
        try:
            st = os.stat(p)
        except OSError:
            raise FileManagerError(f"no such file: {rel_path!r}") from None
        if not _stat_isreg(st.st_mode):
            raise FileManagerError(f"no such file: {rel_path!r}")
        return p, st

    def stat(self, username: str, rel_path: str) -> os.stat_result:
        """``stat`` of an existing file — the validator for conditional GETs."""
        return self.file_entry(username, rel_path)[1]

    def read(self, username: str, rel_path: str) -> bytes:
        """File contents (download / editor load)."""
        p, _ = self.file_entry(username, rel_path)
        return p.read_bytes()

    @staticmethod
    def iter_file(path: Path, chunk_size: int = CHUNK_BYTES) -> Iterator[bytes]:
        """Stream an already-resolved file in bounded chunks."""
        with open(path, "rb") as fh:
            while True:
                chunk = fh.read(chunk_size)
                if not chunk:
                    return
                yield chunk

    def _existing_size(self, p: Path) -> int:
        try:
            return p.stat().st_size if p.is_file() else 0
        except OSError:
            return 0

    def write(self, username: str, rel_path: str, content: bytes | str) -> FileEntry:
        """Create or overwrite a file (upload / editor save)."""
        data = content.encode("utf-8") if isinstance(content, str) else content
        if len(data) > MAX_UPLOAD_BYTES:
            raise FileManagerError(
                f"file of {len(data)} bytes exceeds the {MAX_UPLOAD_BYTES}-byte limit"
            )
        p = self.resolve(username, rel_path)
        if p == self.home(username).resolve():
            raise FileManagerError("cannot write to the home directory itself")
        old = self._existing_size(p)
        self._check_quota(username, max(0, len(data) - old))
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(data)
        st = p.stat()
        self._usage_add(username, st.st_size - old)
        self._notify(username)
        return FileEntry(p.name, self._rel(username, p), False, st.st_size, st.st_mtime)

    def write_stream(
        self, username: str, rel_path: str, chunks: Iterator[bytes]
    ) -> FileEntry:
        """Create or overwrite a file from an iterator of byte chunks.

        Memory stays bounded by the chunk size: the upload is spooled to
        a temporary sibling and atomically renamed over the target, so a
        quota or size violation mid-stream leaves the old file intact.
        """
        p = self.resolve(username, rel_path)
        if p == self.home(username).resolve():
            raise FileManagerError("cannot write to the home directory itself")
        old = self._existing_size(p)
        budget = None
        if self.quota_bytes is not None:
            budget = self.quota_bytes - self.usage_bytes(username) + old
        p.parent.mkdir(parents=True, exist_ok=True)
        tmp = p.parent / f".{p.name}.{os.getpid()}.part"
        written = 0
        try:
            with tmp.open("wb") as fh:
                for chunk in chunks:
                    written += len(chunk)
                    if written > MAX_UPLOAD_BYTES:
                        raise FileManagerError(
                            f"file of {written}+ bytes exceeds the {MAX_UPLOAD_BYTES}-byte limit"
                        )
                    if budget is not None and written > budget:
                        raise FileManagerError(
                            f"quota exceeded: stream passed {written} bytes > "
                            f"{budget} remaining of {self.quota_bytes} allowed"
                        )
                    fh.write(chunk)
            os.replace(tmp, p)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        st = p.stat()
        self._usage_add(username, st.st_size - old)
        self._notify(username)
        return FileEntry(p.name, self._rel(username, p), False, st.st_size, st.st_mtime)

    # -- manipulation -----------------------------------------------------------
    def mkdir(self, username: str, rel_path: str) -> None:
        """Create a directory (with parents)."""
        p = self.resolve(username, rel_path)
        if p.exists():
            raise FileManagerError(f"already exists: {rel_path!r}")
        p.mkdir(parents=True)
        self._notify(username)

    def delete(self, username: str, rel_path: str) -> None:
        """Remove a file or directory tree."""
        p = self.resolve(username, rel_path)
        if p == self.home(username).resolve():
            raise FileManagerError("refusing to delete the home directory")
        if p.is_dir():
            removed = _tree_bytes(p)
            shutil.rmtree(p)
        elif p.exists():
            removed = self._existing_size(p)
            p.unlink()
        else:
            raise FileManagerError(f"no such path: {rel_path!r}")
        self._usage_add(username, -removed)
        self._notify(username)

    def copy(self, username: str, src: str, dst: str) -> None:
        """Copy a file or tree within the home."""
        s = self.resolve(username, src)
        d = self.resolve(username, dst)
        if not s.exists():
            raise FileManagerError(f"no such path: {src!r}")
        if d.exists():
            raise FileManagerError(f"destination exists: {dst!r}")
        incoming = _tree_bytes(s) if s.is_dir() else s.stat().st_size
        self._check_quota(username, incoming)
        d.parent.mkdir(parents=True, exist_ok=True)
        if s.is_dir():
            shutil.copytree(s, d)
        else:
            shutil.copy2(s, d)
        self._usage_add(username, incoming)
        self._notify(username)

    def move(self, username: str, src: str, dst: str) -> None:
        """Move (or rename across directories) — net-zero usage change."""
        s = self.resolve(username, src)
        d = self.resolve(username, dst)
        if s == self.home(username).resolve():
            raise FileManagerError("refusing to move the home directory")
        if not s.exists():
            raise FileManagerError(f"no such path: {src!r}")
        if d.exists():
            raise FileManagerError(f"destination exists: {dst!r}")
        d.parent.mkdir(parents=True, exist_ok=True)
        shutil.move(str(s), str(d))
        self._notify(username)

    def rename(self, username: str, rel_path: str, new_name: str) -> str:
        """Rename in place; returns the new user-relative path."""
        if "/" in new_name or new_name in ("", ".", ".."):
            raise FileManagerError(f"invalid name {new_name!r}")
        p = self.resolve(username, rel_path)
        if not p.exists():
            raise FileManagerError(f"no such path: {rel_path!r}")
        target = p.with_name(new_name)
        if target.exists():
            raise FileManagerError(f"name taken: {new_name!r}")
        p.rename(target)
        self._notify(username)
        return self._rel(username, target.resolve())
