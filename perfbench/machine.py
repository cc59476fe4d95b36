"""Facts about the machine a result was measured on, read without side effects."""

from __future__ import annotations

import os
import platform
import subprocess

import numpy as np


def _lscpu() -> dict[str, str]:
    try:
        text = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, check=False
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return fields


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def facts() -> dict[str, object]:
    cpu = _lscpu()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu.get("Model name") or _cpu_model(),
        "l2_cache": cpu.get("L2 cache", "unknown"),
        "l3_cache": cpu.get("L3 cache", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "tracing": "process-local wrappers only; nothing system-wide is traced "
        "and no cache or cgroup setting is touched",
    }
