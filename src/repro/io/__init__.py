"""CodeML-compatible configuration and result reporting."""

from repro.io.ctl import ControlFile, parse_ctl, write_ctl
from repro.io.report import format_report, format_survey_report

__all__ = [
    "ControlFile",
    "format_report",
    "format_survey_report",
    "parse_ctl",
    "write_ctl",
]
