"""The package's public surface: every exported name exists, and the
README's library example runs as written."""

import contextlib
import io
import pathlib
import re

import hodt

README = pathlib.Path(__file__).resolve().parent.parent / 'README.md'


def test_every_exported_name_resolves():
    missing = [name for name in hodt.__all__ if not hasattr(hodt, name)]
    assert missing == []


def test_readme_library_example_runs():
    section = README.read_text(encoding='utf-8').split('## Library use', 1)[1]
    (code,) = re.findall(r'```python\n(.*?)```', section.split('\n## ')[0],
                         re.DOTALL)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), 'exec'), {})
    assert printed.getvalue()
