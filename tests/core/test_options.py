"""RewriteOptions: one validated schema and one JSON codec, rejected the
same way on every surface (library, service, JSON-RPC, both CLIs)."""

from __future__ import annotations

import base64
import json
from dataclasses import fields, replace

import pytest

from repro.core.pipeline import EMISSION_MODES, RewriteOptions
from repro.core.strategy import TacticToggles
from repro.errors import OptionsError, ReproError
from repro.frontend.protocol import E9PatchSession
from repro.frontend.tool import main as e9patch_main
from repro.service import ServiceError
from repro.service.cli import main as repro_main
from repro.synth.generator import SynthesisParams, synthesize

from tests.service.conftest import make_binary, running_service

#: Every field away from its default (the round trip must carry each).
NON_DEFAULT = RewriteOptions(
    mode="phdr", grouping=False, granularity=16,
    toggles=TacticToggles(t1=False, t2=False, t3=False, b0_fallback=True),
    guard_pages=0, shared=True, library_path="/usr/lib/libx.so",
    reserve_extra=((0x1000, 0x2000), (0x5000, 0x6000)),
    pack_allocations=True, verify=True, check=True, liveness=True,
    lint=True, cet=False,
)

#: The rejection table: (id, JSON options, e9patch argv or None when the
#: CLI has no flag for it).  ``repro lint`` exposes only ``--mode``.
REJECTED = [
    ("unknown-key", {"granularty": 2}, None),
    ("string-bool", {"verify": "false"}, None),
    ("float-granularity", {"granularity": 1.9}, ["-g", "1.9"]),
    ("zero-granularity", {"granularity": 0}, ["-g", "0"]),
    ("auto-mode", {"mode": "auto"}, ["--mode", "auto"]),
    ("typo-mode", {"mode": "lodaer"}, ["--mode", "lodaer"]),
    ("negative-guard-pages", {"guard_pages": -1}, None),
]
IDS = [row[0] for row in REJECTED]
CONSTRUCT_ROWS = [row for row in REJECTED if row[0] != "unknown-key"]
CLI_ROWS = [row for row in REJECTED if row[2] is not None]
MODE_ROWS = [row for row in REJECTED if "mode" in row[1]]


def rpc(method, params=None):
    return {"jsonrpc": "2.0", "method": method, "params": params or {},
            "id": 1}


class TestSchema:
    def test_defaults(self):
        options = RewriteOptions()
        assert options.mode == "loader" == EMISSION_MODES[0]
        assert RewriteOptions.from_dict({}) == options

    def test_round_trip_every_field(self):
        default = RewriteOptions()
        for f in fields(RewriteOptions):
            assert getattr(NON_DEFAULT, f.name) != getattr(default, f.name), f.name
        encoded = json.loads(json.dumps(NON_DEFAULT.to_dict()))
        assert RewriteOptions.from_dict(encoded) == NON_DEFAULT

    def test_flat_json_shape(self):
        d = NON_DEFAULT.to_dict()
        assert "toggles" not in d
        assert (d["t1"], d["t2"], d["t3"], d["b0"]) == (False, False, False, True)
        assert d["reserve_extra"] == [[0x1000, 0x2000], [0x5000, 0x6000]]

    def test_reserve_extra_lists_normalize_to_tuples(self):
        options = RewriteOptions(reserve_extra=[[1, 2]])
        assert options.reserve_extra == ((1, 2),)
        assert options == RewriteOptions(reserve_extra=((1, 2),))

    @pytest.mark.parametrize("params", [row[1] for row in REJECTED], ids=IDS)
    def test_codec_rejects(self, params):
        with pytest.raises(OptionsError):
            RewriteOptions.from_dict(params)

    @pytest.mark.parametrize("params", [row[1] for row in CONSTRUCT_ROWS],
                             ids=[row[0] for row in CONSTRUCT_ROWS])
    def test_construction_rejects(self, params):
        with pytest.raises(OptionsError):
            RewriteOptions(**params)

    @pytest.mark.parametrize("change", [
        {"granularity": True},
        {"cet": 1},
        {"library_path": 3},
        {"reserve_extra": [[1]]},
        {"reserve_extra": [[1, "2"]]},
        {"toggles": TacticToggles(t1=0)},
    ], ids=["bool-as-int", "int-as-bool", "path-type", "short-pair",
            "string-bound", "toggle-type"])
    def test_replace_is_validated(self, change):
        with pytest.raises(OptionsError):
            replace(RewriteOptions(), **change)

    def test_options_error_is_repro_and_value_error(self):
        assert issubclass(OptionsError, ReproError)
        assert issubclass(OptionsError, ValueError)

    def test_non_object_rejected(self):
        with pytest.raises(OptionsError):
            RewriteOptions.from_dict([("mode", "loader")])


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    with running_service(tmp_path_factory.mktemp("svc"), cache=False) as svc:
        yield svc


class TestService:
    @pytest.mark.parametrize("params", [row[1] for row in REJECTED], ids=IDS)
    def test_rejected_with_400(self, service, params):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.rewrite(make_binary(seed=2), options=params)
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "bad_request"

    def test_cli_knobs_accepted(self, service):
        _, client = service
        body = client.rewrite(make_binary(seed=2), return_output=False,
                              options={"cet": False, "liveness": True})
        assert body["ok"] is True


class TestProtocol:
    @pytest.mark.parametrize("params", [row[1] for row in REJECTED], ids=IDS)
    def test_rejected_and_session_still_usable(self, params):
        binary = synthesize(SynthesisParams(n_jump_sites=6, n_write_sites=2,
                                            seed=5))
        session = E9PatchSession()
        session.handle(rpc("binary", {
            "data": base64.b64encode(binary.data).decode()}))
        r = session.handle(rpc("options", params))
        assert r["error"]["code"] == -32000
        assert session.options == RewriteOptions()

        assert session.handle(rpc("options", {"granularity": 2}))["result"]
        for site in binary.jump_sites:
            session.handle(rpc("patch", {"address": site}))
        r = session.handle(rpc("emit", {"return_data": False}))
        assert r["result"]["stats"]["succ_pct"] == 100.0


def _assert_usage_error(capsys, exc):
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


class TestCli:
    @pytest.mark.parametrize("argv", [row[2] for row in CLI_ROWS],
                             ids=[row[0] for row in CLI_ROWS])
    def test_e9patch_exits_2(self, tmp_path, capsys, argv):
        src = tmp_path / "in.elf"
        src.write_bytes(make_binary(seed=4))
        with pytest.raises(SystemExit) as exc:
            e9patch_main([str(src), str(tmp_path / "out.elf"), *argv])
        _assert_usage_error(capsys, exc)
        assert not (tmp_path / "out.elf").exists()

    @pytest.mark.parametrize("argv", [row[2] for row in MODE_ROWS],
                             ids=[row[0] for row in MODE_ROWS])
    def test_repro_lint_exits_2(self, tmp_path, capsys, argv):
        src = tmp_path / "in.elf"
        src.write_bytes(make_binary(seed=4))
        with pytest.raises(SystemExit) as exc:
            repro_main(["lint", *argv, str(src)])
        _assert_usage_error(capsys, exc)

    def test_repro_lint_accepts_match_expression(self, tmp_path, capsys):
        src = tmp_path / "in.elf"
        src.write_bytes(make_binary(seed=4))
        rc = repro_main(["lint", "-M", 'mnemonic == "call"', "-I", "empty",
                         str(src)])
        assert rc == 0, capsys.readouterr().out
