"""CI workflow files hold no inline Python.

Every CI gate is a ``python -m repro.bench`` (or pytest) call that a
tier-1 test also exercises; a ``python -`` heredoc or ``python -c``
snippet would be a gate no test runs.
"""

import re
from pathlib import Path

WORKFLOWS = Path(__file__).resolve().parents[1] / ".github" / "workflows"

_INLINE = re.compile(r"python3?\s+-(c\b|\s|$)")


def test_no_inline_python_in_workflows():
    files = sorted(WORKFLOWS.glob("*.yml"))
    assert files, f"no workflow files under {WORKFLOWS}"
    offenders = []
    for path in files:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if _INLINE.search(line):
                offenders.append(f"{path.name}:{number}: {line.strip()}")
    assert offenders == [], "inline Python in workflows"
