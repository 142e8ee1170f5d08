"""The compile-and-run service layer.

Implements the Section-II flow: "It takes the needed information from a
user, it then creates a compilation and/or executor object, which in
turn upon success contacts a job distributor to allocate resources on
the cluster and finally dispatch the job onto those resources."

Compiling and linting stay on the portal: they need the user's home
directory and the toolchains.  The compiled program reaches the cluster
as an argv :class:`JobRequest` through the cluster port — an in-process
:class:`~repro.bus.service.LocalCluster` or a
:class:`~repro.bus.proxy.ClusterProxy` over the bus — like every other
submission.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Optional

from repro._errors import CompilationError
from repro.analysis import AnalysisReport, analyze_source
from repro.cluster.job import JobRequest
from repro.portal.auth import User
from repro.portal.files import FileManager
from repro.toolchain.registry import ToolchainRegistry

__all__ = ["JobService"]

_BUILD_DIR = ".build"

#: cap on retained pre-submit lint reports (oldest evicted first).
_MAX_LINT_REPORTS = 512


class JobService:
    """Glue between the file manager, the toolchains and the cluster port."""

    def __init__(
        self,
        files: FileManager,
        port,
        registry: ToolchainRegistry | None = None,
    ) -> None:
        self.files = files
        self.port = port
        self.registry = registry or ToolchainRegistry()
        #: set by the portal so lint runs are counted (optional).
        self.analysis_telemetry = None
        #: job id → pre-submit lint report dict (Python submissions only).
        self._lint_reports: dict[str, dict] = {}

    # -- compilation ------------------------------------------------------
    def _compile(self, user: User, rel_path: str, language: str | None):
        """``(source, result, report)`` for a file in the user's home."""
        source = self.files.resolve(user.username, rel_path)
        if not source.is_file():
            raise CompilationError(f"no such source file: {rel_path!r}")
        lang = language or self.registry.infer(source)
        if lang is None:
            raise CompilationError(f"cannot infer language of {rel_path!r}; pass language=")
        toolchain = self.registry.resolve(lang)
        workdir = self.files.home(user.username) / _BUILD_DIR / source.stem
        result = toolchain.compile(source, workdir)
        report = {
            "ok": result.ok,
            "language": result.language,
            "toolchain": result.toolchain,
            "diagnostics": result.diagnostics,
            "warnings": result.warnings,
        }
        return source, result, report

    def compile(self, user: User, rel_path: str, language: str | None = None) -> dict:
        """Compile a file from the user's home; returns a JSON-able report."""
        _, result, report = self._compile(user, rel_path, language)
        if result.ok and result.artifact is not None:
            report["artifact"] = str(
                result.artifact.path.relative_to(self.files.home(user.username))
            )
            report["run_argv"] = result.artifact.run_argv()
        return report

    # -- static analysis ----------------------------------------------------
    def lint(self, user: User, rel_path: str) -> Optional[AnalysisReport]:
        """Statically analyze a Python file in the user's home.

        Returns ``None`` for non-Python sources (the analyzer only
        understands the :mod:`repro.interleave` lab vocabulary).
        """
        source = self.files.resolve(user.username, rel_path)
        if not source.is_file():
            raise CompilationError(f"no such source file: {rel_path!r}")
        if source.suffix != ".py":
            return None
        text = source.read_text(encoding="utf-8", errors="replace")
        return self.lint_source(text, rel_path, surface="lint")

    def lint_source(
        self, text: str, rel_path: str = "<submission>", surface: str = "lint"
    ) -> AnalysisReport:
        """Analyze raw program text (no file needed)."""
        report = analyze_source(text, rel_path)
        if self.analysis_telemetry is not None:
            self.analysis_telemetry.report_done(surface, report)
        return report

    def lint_report(self, job_id: str) -> Optional[dict]:
        """The pre-submit lint report attached to a job, if any."""
        return self._lint_reports.get(job_id)

    def _attach_lint(self, job_id: str, source: Path, rel_path: str) -> None:
        """Best-effort pre-submit pass: diagnostics never block a run."""
        if source.suffix != ".py":
            return
        try:
            text = source.read_text(encoding="utf-8", errors="replace")
            report = self.lint_source(text, rel_path, surface="submit")
        except Exception:  # noqa: BLE001 - advisory path, never fatal
            return
        self._lint_reports[job_id] = report.as_dict()
        while len(self._lint_reports) > _MAX_LINT_REPORTS:
            self._lint_reports.pop(next(iter(self._lint_reports)))

    # -- execution ----------------------------------------------------------
    def run(
        self,
        user: User,
        rel_path: str,
        request: JobRequest,
        language: str | None = None,
        args: tuple[str, ...] = (),
    ) -> tuple[dict, Optional[dict]]:
        """Compile ``rel_path`` and, on success, submit it as ``request``.

        ``request`` is the already validated submission; the artifact's
        argv (with ``args`` appended) and the user's home as workdir
        replace its own.  Returns ``(compile_report, job_or_None)``, the
        job as its ``describe()``.
        """
        user.require("submit_job")
        source, result, report = self._compile(user, rel_path, language)
        if not result.ok or result.artifact is None:
            return report, None
        job = self.port.submit(replace(
            request,
            name=source.name,
            argv=result.artifact.run_argv(args),
            workdir=str(self.files.home(user.username)),
        ))
        self._attach_lint(job["id"], source, rel_path)
        return report, job
