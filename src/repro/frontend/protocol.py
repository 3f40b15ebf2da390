"""The E9Patch JSON-RPC interface.

The real E9Patch is driven by a frontend (e9tool) over a JSON-RPC
message stream: the frontend sends the binary, instruction information,
trampoline definitions, and patch requests; E9Patch answers with the
rewritten binary.  This module implements that protocol shape so
third-party frontends (or tests) can drive the rewriter the same way.

Methods, in the order a session normally uses them:

``binary``      ``{"filename": ..., "data": <base64>}`` (one of the two)
``options``     rewrite options, as :meth:`RewriteOptions.from_dict` reads
                them (unknown keys and bad values are errors)
``trampoline``  register a named trampoline template (see
                :mod:`repro.core.templates`); parameters are bound per
                patch request
``reserve``     reserve a zero-initialized RW region; returns its address
``instruction`` declare instruction addresses (optional — enables the
                partial-disassembly mode; without it the .text section is
                linearly disassembled)
``patch``       request a patch: ``{"address": ..., "trampoline": name,
                "args": {...}}``
``emit``        run the strategy and emit; returns stats and the patched
                image (base64)

Each request is a JSON object ``{"jsonrpc": "2.0", "method": ...,
"params": {...}, "id": n}``; responses carry ``result`` or ``error``.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import PatchError, ReproError
from repro.core.pipeline import RewriteContext, RewriteOptions
from repro.core.strategy import PatchRequest
from repro.core.templates import BUILTIN_TEMPLATES, TrampolineTemplate, load_template
from repro.elf.reader import ElfFile
from repro.frontend.lineardisasm import disassemble_text
from repro.frontend.partial import decode_windows


class ProtocolError(ReproError):
    """Malformed or out-of-order protocol message."""


@dataclass
class _PendingPatch:
    address: int
    trampoline: str
    args: dict[str, int]


@dataclass
class E9PatchSession:
    """One rewriting session driven by protocol messages."""

    elf: ElfFile | None = None
    options: RewriteOptions = field(default_factory=RewriteOptions)
    templates: dict[str, TrampolineTemplate] = field(
        default_factory=lambda: dict(BUILTIN_TEMPLATES))
    declared_sites: list[int] = field(default_factory=list)
    patches: list[_PendingPatch] = field(default_factory=list)
    reservations: list[tuple[str, int]] = field(default_factory=list)
    emitted: bytes | None = None

    # -- message dispatch -------------------------------------------------

    def handle(self, message: dict[str, Any]) -> dict[str, Any]:
        """Process one JSON-RPC request object; returns the response."""
        msg_id = message.get("id")
        try:
            method = message.get("method")
            params = message.get("params", {})
            if not isinstance(method, str):
                raise ProtocolError("missing method")
            if not isinstance(params, dict):
                raise ProtocolError("params must be an object")
            handler = getattr(self, f"_do_{method.replace('-', '_')}", None)
            if handler is None:
                raise ProtocolError(f"unknown method {method!r}")
            result = handler(params)
            return {"jsonrpc": "2.0", "id": msg_id, "result": result}
        except ReproError as exc:
            return {
                "jsonrpc": "2.0",
                "id": msg_id,
                "error": {"code": -32000, "message": str(exc)},
            }

    def handle_line(self, line: str) -> str:
        """Process one JSON line; returns the response line."""
        try:
            message = json.loads(line)
        except json.JSONDecodeError as exc:
            return json.dumps({
                "jsonrpc": "2.0", "id": None,
                "error": {"code": -32700, "message": f"parse error: {exc}"},
            })
        return json.dumps(self.handle(message))

    def run(self, lines: list[str] | str) -> list[str]:
        """Process a whole message stream."""
        if isinstance(lines, str):
            lines = [ln for ln in lines.splitlines() if ln.strip()]
        return [self.handle_line(line) for line in lines]

    # -- methods ------------------------------------------------------------

    def _require_binary(self) -> ElfFile:
        if self.elf is None:
            raise ProtocolError("no binary loaded (send 'binary' first)")
        return self.elf

    def _do_binary(self, params: dict[str, Any]) -> dict[str, Any]:
        if "data" in params:
            data = base64.b64decode(params["data"])
        elif "filename" in params:
            with open(params["filename"], "rb") as f:
                data = f.read()
        else:
            raise ProtocolError("binary needs 'data' or 'filename'")
        self.elf = ElfFile(data)
        return {
            "size": len(data),
            "pie": self.elf.is_pie,
            "type": self.elf.elf_type,
            "shared_object": self.elf.is_shared_object,
            "cet": self.elf.is_cet_enabled(),
            "cet_note": self.elf.has_ibt_note,
            "entry": self.elf.entry,
        }

    def _do_options(self, params: dict[str, Any]) -> dict[str, Any]:
        self.options = RewriteOptions.from_dict(params)
        return {"ok": True}

    def _do_trampoline(self, params: dict[str, Any]) -> dict[str, Any]:
        template = load_template(params)
        self.templates[template.name] = template
        return {"name": template.name, "params": list(template.params)}

    def _do_instruction(self, params: dict[str, Any]) -> dict[str, Any]:
        self._require_binary()
        addresses = params.get("addresses")
        if not isinstance(addresses, list):
            raise ProtocolError("instruction needs 'addresses' (a list)")
        self.declared_sites.extend(int(a) for a in addresses)
        return {"declared": len(self.declared_sites)}

    def _do_patch(self, params: dict[str, Any]) -> dict[str, Any]:
        self._require_binary()
        address = params.get("address")
        if not isinstance(address, int):
            raise ProtocolError("patch needs an integer 'address'")
        name = params.get("trampoline", "empty")
        if name not in self.templates:
            raise ProtocolError(f"unknown trampoline {name!r}")
        args = params.get("args", {})
        if not isinstance(args, dict):
            raise ProtocolError("'args' must be an object")
        self.patches.append(_PendingPatch(address, name, dict(args)))
        return {"queued": len(self.patches)}

    def _do_reserve(self, params: dict[str, Any]) -> dict[str, Any]:
        self._require_binary()
        name = params.get("name")
        size = params.get("size", 4096)
        if not isinstance(name, str):
            raise ProtocolError("reserve needs a 'name'")
        self.reservations.append((name, int(size)))
        return {"name": name}

    def _do_emit(self, params: dict[str, Any]) -> dict[str, Any]:
        elf = self._require_binary()
        if self.declared_sites:
            instructions = decode_windows(elf, sorted(
                set(self.declared_sites) | {p.address for p in self.patches}))
        else:
            instructions = disassemble_text(elf)
        index = {i.address: i for i in instructions}

        ctx = RewriteContext(elf, self.options, instructions=instructions)
        reserved: dict[str, int] = {}
        for name, size in self.reservations:
            reserved[name] = ctx.add_runtime_data(size)

        requests = []
        for pending in self.patches:
            insn = index.get(pending.address)
            if insn is None:
                raise PatchError(
                    f"no instruction at {pending.address:#x}")
            template = self.templates[pending.trampoline]
            bound = {
                key: reserved[value] if isinstance(value, str) else int(value)
                for key, value in pending.args.items()
            }
            requests.append(PatchRequest(
                insn=insn, instrumentation=template.instantiate(**bound)))

        result = ctx.rewrite(requests)
        self.emitted = result.data
        response: dict[str, Any] = {
            "stats": result.stats.row(),
            "size": len(result.data),
            "reservations": reserved,
            "failures": [hex(a) for a in result.plan.failures],
        }
        if params.get("return_data", True):
            response["data"] = base64.b64encode(result.data).decode()
        if params.get("filename"):
            with open(params["filename"], "wb") as f:
                f.write(result.data)
        return response


def main(argv: list[str] | None = None) -> int:
    """Run a protocol session over stdin/stdout (one JSON message per
    line) — the subprocess-service shape of the real e9tool/e9patch
    split.  Invoke as ``python3 -m repro.frontend.protocol``."""
    import sys

    session = E9PatchSession()
    for line in sys.stdin:
        if not line.strip():
            continue
        sys.stdout.write(session.handle_line(line) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
