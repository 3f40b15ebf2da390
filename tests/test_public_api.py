"""The README's advertised top-level API must work as documented."""

import os
import pathlib
import re
import subprocess

import pytest

import repro
from tests.conftest import requires_native

ROOT = pathlib.Path(__file__).parent.parent


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @requires_native
    @pytest.mark.skipif(not os.path.exists("/bin/ls"),
                        reason="needs /bin/ls")
    def test_readme_quickstart_flow(self, tmp_path, monkeypatch):
        """The README's quickstart block, run verbatim: its ``ls.patched``
        must list ``/`` exactly like ``/bin/ls`` does."""
        readme = (ROOT / "README.md").read_text()
        section = readme.split("## Quickstart", 1)[1]
        code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        monkeypatch.chdir(tmp_path)
        exec(compile(code, "README.md", "exec"), {})

        patched = tmp_path / "ls.patched"
        patched.chmod(0o755)
        got = subprocess.run([str(patched), "/"], capture_output=True,
                             timeout=60)
        want = subprocess.run(["/bin/ls", "/"], capture_output=True,
                              timeout=60)
        assert (got.returncode, got.stdout) == (want.returncode, want.stdout)

    def test_version(self):
        assert repro.__version__

    def test_compile_matcher_export(self):
        matcher = repro.compile_matcher("size >= 5 and jumps")
        insn = repro.decode(b"\xe9\x00\x00\x00\x00", 0)
        assert matcher(insn)

    def test_error_hierarchy(self):
        from repro.errors import (
            DecodeError,
            ElfError,
            EncodeError,
            PatchError,
            VmError,
        )

        for exc in (DecodeError, EncodeError, ElfError, PatchError, VmError):
            assert issubclass(exc, repro.ReproError)
