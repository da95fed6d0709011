"""Cross-contract analysis: call-graph linkage and the merged Datalog fixpoint.

Ethainter's flagship composite chains (tainted-owner → tainted-delegatecall,
paper §3.2) are most dangerous across proxy/implementation *pairs*, yet a
per-contract analysis cannot see them: the unguarded write lives in one
contract and the delegatecall dispatch in another.  This module closes that
gap in three layers:

1. **ContractBundle** — the first-class multi-contract input: a set of
   deployed contracts (address → runtime bytecode, optional MiniSol source,
   optional storage seeds describing the deployed state, e.g. a proxy's
   implementation slot).  Accepted by :func:`repro.api.analyze`,
   ``AnalyzeRequest``, ``repro analyze --bundle``, and ``POST /analyze``.

2. **Linkage resolution** (:func:`resolve_call_edges`) — every
   ``CALL``/``DELEGATECALL``/``STATICCALL`` site's target address is
   resolved through the value-set analysis (:meth:`ContractFacts.value_set`,
   i.e. lifter constants plus the optional :mod:`repro.ir.value_analysis`
   stratum) and through storage-slot constants: a target loaded from a
   constant slot resolves via the bundle's storage seeds (the proxy
   implementation-slot pattern).  The result is the inter-contract call
   graph (:class:`CallEdge`, unresolved targets kept with ``callee=None``)
   plus three linkage relations fed to the fixpoint:

   * ``DelegateTarget(c, v)`` — delegatecall site ``c`` dispatches through
     the caller's constant storage slot ``v``;
   * ``SharedStorage(v, w)`` — per resolved DELEGATECALL edge A→B, callee
     slot ``B::v`` aliases caller slot ``A::v`` (delegated code runs against
     the *caller's* storage);
   * ``TrustedCallEdge(c, g)`` — call site ``c`` in A targets B, and B's
     guard ``g`` compares ``msg.sender`` against A's address (a seeded
     slot or a compiled-in constant): the guard trusts the caller contract,
     so attacker control of ``c`` bypasses it.

3. **The merged fixpoint** (:func:`analyze_bundle`) — every contract's EDB
   (the exact :func:`~repro.core.bytecode_datalog._facts_to_edb` relations)
   is namespaced by address (``0xADDR::term``) and merged with the linkage
   relations into ONE Datalog database, evaluated under the per-contract
   rules *plus* :data:`CROSS_CONTRACT_RULES` — on the compiled-plan engine
   or the legacy interpreter, matching the requested ``engine``.  Two new
   composite verdicts fall out:

   * ``proxy-upgrade-hijack`` — the slot a delegatecall dispatches through
     is attacker-taintable (typically via the implementation contract's own
     unguarded initializer, lifted into the proxy's namespace by
     ``SharedStorage``);
   * ``cross-contract-escalation`` — taint entering contract A flows
     through a resolved call edge into a guard-bypassing write in B (B's
     guard trusts A, and the attacker drives A's call site).

Single-contract bundles skip layers 2–3 entirely, so their reports stay
byte-identical to ``repro analyze`` on the same contract.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.analysis import AnalysisConfig, AnalysisResult, EthainterAnalysis
from repro.core.bytecode_datalog import (
    CONSERVATIVE_RULES,
    CORE_RULES,
    REENTRANCY_RULES,
    WRITE2_RULES,
    _facts_to_edb,
    _load_edb,
)
from repro.core.facts import ContractFacts
from repro.core.guards import EQ_SENDER
from repro.core.vulnerabilities import (
    CROSS_CONTRACT_ESCALATION,
    PROXY_UPGRADE_HIJACK,
)
from repro.datalog import Engine, Rule, parse_program

ADDRESS_MASK = (1 << 160) - 1

# Opcodes a call-target resolution may walk through between the SLOAD (or
# constant) and the call's address operand: address masking and phi moves.
_TRANSPARENT_OPS = {"AND", "PHI"}
_RESOLVE_DEPTH = 8


# ------------------------------------------------------------------ bundles


@dataclass(frozen=True)
class BundleContract:
    """One deployed contract inside a :class:`ContractBundle`.

    ``storage`` seeds describe the *deployed* state as a sorted tuple of
    ``(slot, value)`` pairs — hashable, so requests carrying bundles remain
    frozen values.  Seeds participate only in linkage resolution (call
    targets loaded from constant slots) and in trust-edge resolution; they
    are never treated as taint.
    """

    address: int
    bytecode: bytes = b""
    source: Optional[str] = None
    name: str = ""
    storage: Tuple[Tuple[int, int], ...] = ()

    def runtime(self) -> bytes:
        """Runtime bytecode, compiling MiniSol ``source`` on demand."""
        if self.bytecode:
            return self.bytecode
        if self.source is None:
            raise ValueError(
                "bundle contract 0x%x has neither bytecode nor source"
                % self.address
            )
        from repro.minisol import compile_source

        compiled = compile_source(self.source, self.name or None)
        if isinstance(compiled, dict):
            raise ValueError(
                "multiple contracts in bundle source for 0x%x; "
                "set name= to one of: %s"
                % (self.address, ", ".join(sorted(compiled)))
            )
        return compiled.runtime

    def storage_map(self) -> Dict[int, int]:
        return dict(self.storage)

    def label(self) -> str:
        """Display name for reports: the name, else the hex address."""
        return self.name or "0x%x" % self.address


def bundle_contract(
    address: int,
    bytecode: Optional[bytes] = None,
    source: Optional[str] = None,
    name: str = "",
    storage: Optional[Dict[int, int]] = None,
) -> BundleContract:
    """Build a :class:`BundleContract`, compiling ``source`` eagerly so the
    frozen value carries its bytecode (and hashes deterministically)."""
    contract = BundleContract(
        address=address & ADDRESS_MASK,
        bytecode=bytecode or b"",
        source=source,
        name=name,
        storage=tuple(sorted((storage or {}).items())),
    )
    if not contract.bytecode:
        contract = dataclasses.replace(contract, bytecode=contract.runtime())
    return contract


@dataclass(frozen=True)
class ContractBundle:
    """An address → contract map analyzed as one deployment."""

    contracts: Tuple[BundleContract, ...]

    def __post_init__(self) -> None:
        if not self.contracts:
            raise ValueError("a ContractBundle needs at least one contract")
        seen: Set[int] = set()
        for contract in self.contracts:
            if contract.address in seen:
                raise ValueError(
                    "duplicate bundle address 0x%x" % contract.address
                )
            seen.add(contract.address)

    def __len__(self) -> int:
        return len(self.contracts)

    def addresses(self) -> List[int]:
        return [contract.address for contract in self.contracts]

    def get(self, address: int) -> BundleContract:
        for contract in self.contracts:
            if contract.address == address:
                return contract
        raise KeyError("no bundle contract at 0x%x" % address)

    def has(self, address: int) -> bool:
        return any(c.address == address for c in self.contracts)

    def digest(self) -> str:
        """Content identity: addresses, runtime bytecodes, storage seeds."""
        hasher = hashlib.sha256()
        for contract in self.contracts:
            hasher.update(b"%x:" % contract.address)
            hasher.update(contract.runtime())
            for slot, value in contract.storage:
                hasher.update(b"|%x=%x" % (slot, value))
            hasher.update(b";")
        return hasher.hexdigest()


def _coerce_int(value: Union[int, str], what: str) -> int:
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        text = value.strip()
        try:
            return int(text, 16) if text.startswith("0x") else int(text)
        except ValueError:
            pass
    raise ValueError("%s must be an integer or hex string, got %r" % (what, value))


def bundle_from_specs(
    specs: Sequence[Dict],
    base_dir: Optional[Path] = None,
    allow_files: bool = False,
) -> ContractBundle:
    """Build a bundle from JSON-shaped contract specs.

    Each spec is ``{"address": ..., "name": ..., "source" | "bytecode":
    ..., "storage": {slot: value}}``; addresses, slots, and values accept
    ints or hex strings.  With ``allow_files`` (the CLI), ``source_file`` /
    ``hex_file`` name files resolved against ``base_dir``.  The HTTP codec
    calls this with ``allow_files=False`` so requests cannot read server
    files.
    """
    if not isinstance(specs, (list, tuple)) or not specs:
        raise ValueError("bundle must be a non-empty list of contract specs")
    contracts = []
    for position, spec in enumerate(specs):
        if not isinstance(spec, dict):
            raise ValueError("bundle entry %d must be an object" % position)
        known = {
            "address", "name", "source", "bytecode", "storage",
            "source_file", "hex_file",
        }
        unknown = sorted(set(spec) - known)
        if unknown:
            raise ValueError(
                "unknown bundle contract field(s): %s" % ", ".join(unknown)
            )
        if "address" not in spec:
            raise ValueError("bundle entry %d is missing its address" % position)
        address = _coerce_int(spec["address"], "address")
        source = spec.get("source")
        bytecode = None
        if spec.get("bytecode") is not None:
            text = spec["bytecode"]
            if not isinstance(text, str):
                raise ValueError("bundle bytecode must be a hex string")
            if text.startswith("0x"):
                text = text[2:]
            try:
                bytecode = bytes.fromhex(text.strip())
            except ValueError:
                raise ValueError(
                    "bundle bytecode for 0x%x is not valid hex" % address
                ) from None
        if allow_files:
            root = base_dir or Path(".")
            if spec.get("source_file"):
                source = (root / spec["source_file"]).read_text()
            if spec.get("hex_file"):
                text = (root / spec["hex_file"]).read_text().strip()
                if text.startswith("0x"):
                    text = text[2:]
                bytecode = bytes.fromhex(text)
        elif spec.get("source_file") or spec.get("hex_file"):
            raise ValueError(
                "file-based bundle contracts are only accepted by the CLI"
            )
        if source is None and bytecode is None:
            raise ValueError(
                "bundle contract 0x%x needs source or bytecode" % address
            )
        storage = {
            _coerce_int(slot, "storage slot"): _coerce_int(value, "storage value")
            for slot, value in (spec.get("storage") or {}).items()
        }
        contracts.append(
            bundle_contract(
                address,
                bytecode=bytecode,
                source=source,
                name=spec.get("name") or "",
                storage=storage,
            )
        )
    return ContractBundle(contracts=tuple(contracts))


def load_bundle_file(path: Path) -> ContractBundle:
    """Read a ``repro analyze --bundle`` JSON file:
    ``{"contracts": [<spec>, ...]}`` (file references allowed)."""
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict) or "contracts" not in payload:
        raise ValueError('bundle file needs a "contracts" list')
    return bundle_from_specs(
        payload["contracts"], base_dir=path.parent, allow_files=True
    )


# --------------------------------------------------------------- call graph


@dataclass(frozen=True)
class CallEdge:
    """One inter-contract call site, resolved or not."""

    caller: int  # bundle address of the calling contract
    site: str  # TAC statement ident of the call
    pc: int
    kind: str  # CALL | CALLCODE | DELEGATECALL | STATICCALL
    callee: Optional[int] = None  # resolved bundle address, or None
    slot: Optional[int] = None  # caller's constant slot the target loads from


def _load_slot_map(facts: ContractFacts) -> Dict[str, int]:
    """def_var -> constant slot for every constant-slot SLOAD."""
    slots: Dict[str, int] = {}
    for load in facts.storage_loads:
        if load.def_var is not None and load.const_slot is not None:
            slots[load.def_var] = load.const_slot
    return slots


def _storage_slot_of(
    facts: ContractFacts, variable: str, load_slots: Dict[str, int]
) -> Optional[int]:
    """The constant storage slot ``variable`` is loaded from, walking
    through address masks and phi moves (bounded depth)."""
    frontier = [variable]
    seen: Set[str] = set()
    for _ in range(_RESOLVE_DEPTH):
        next_frontier: List[str] = []
        for var in frontier:
            if var in seen:
                continue
            seen.add(var)
            if var in load_slots:
                return load_slots[var]
            stmt = facts.def_stmt.get(var)
            if stmt is not None and stmt.opcode in _TRANSPARENT_OPS:
                next_frontier.extend(stmt.uses)
        if not next_frontier:
            return None
        frontier = next_frontier
    return None


def resolve_call_edges(
    bundle: ContractBundle, results: Dict[int, AnalysisResult]
) -> List[CallEdge]:
    """Resolve every call site's target through value sets and seeds."""
    edges: List[CallEdge] = []
    for contract in bundle.contracts:
        result = results.get(contract.address)
        if result is None or result.facts is None:
            continue
        facts = result.facts
        load_slots = _load_slot_map(facts)
        seeds = contract.storage_map()
        for call in facts.calls:
            callee: Optional[int] = None
            values = facts.value_set(call.address_var)
            if values is not None and len(values) == 1:
                candidate = next(iter(values)) & ADDRESS_MASK
                if bundle.has(candidate) and candidate != contract.address:
                    callee = candidate
            slot = _storage_slot_of(facts, call.address_var, load_slots)
            if callee is None and slot is not None:
                seeded = seeds.get(slot)
                if seeded is not None:
                    seeded &= ADDRESS_MASK
                    if bundle.has(seeded) and seeded != contract.address:
                        callee = seeded
            edges.append(
                CallEdge(
                    caller=contract.address,
                    site=call.statement.ident,
                    pc=call.statement.pc,
                    kind=call.kind,
                    callee=callee,
                    slot=slot,
                )
            )
    edges.sort(key=lambda edge: (edge.caller, edge.pc, edge.site))
    return edges


# ----------------------------------------------------------- merged fixpoint

# Cross-contract strata evaluated on top of the per-contract rules over the
# merged, namespaced EDB.  The three ``.decl``s are the linkage relations
# computed in Python by resolve_call_edges / _linkage_relations.
CROSS_CONTRACT_RULES = r"""
.decl DelegateTarget(c, v)
.decl SharedStorage(v, w)
.decl TrustedCallEdge(c, g)

// Delegatecall storage aliasing: the callee's code runs against the
// caller's storage, so storage taint derived in the callee's namespace
// lands on the caller's aliased slot.
TaintedStorage(w) :- SharedStorage(v, w), TaintedStorage(v).

// Proxy-upgrade hijack: the slot a delegatecall dispatches through is
// attacker-taintable (the §3.2 composite across the proxy/impl pair).
ProxyUpgradeHijack(c) :- DelegateTarget(c, v), TaintedStorage(v).

// Caller-identity escalation: B guards a statement with msg.sender ==
// <address of A>.  Once the attacker drives A's call site, the guard no
// longer separates attacker from privileged caller — it composes with the
// core machinery exactly like a tainted owner slot does.
BypassedGuard(g) :- TrustedCallEdge(c, g), ReachableByAttacker(c).
CompromisedGuard(g) :- BypassedGuard(g).

// The escalation verdict proper: a guarded store whose taint and
// reachability exist only because the trusted-caller guard was bypassed.
CrossContractEscalation(s) :- SStoreConst(s, v, x), InputTaint(x),
                              ReachableByAttacker(s),
                              StaticallyGuardedStatement(s, g), BypassedGuard(g).
CrossContractEscalation(s) :- SStoreConst(s, v, x), StorageTaint(x),
                              StaticallyGuardedStatement(s, g), BypassedGuard(g).
"""

# Engine name -> (use_plans, columnar) for the merged fixpoint.  The tuned
# Python engine has no cross-contract counterpart, so "python" runs the
# merged rules on the compiled-plan engine; the Datalog names map exactly
# as repro.core.pipeline._DATALOG_MODES does.
_MERGED_ENGINE_MODES = {
    "python": (True, False),
    "datalog": (True, False),
    "datalog-columnar": (True, True),
    "datalog-legacy": (False, False),
}


def _ns(prefix: str, term: object) -> str:
    """Namespace one EDB term into a contract's address space."""
    return "%s::%s" % (prefix, term)


def _split_ns(term: str) -> Tuple[int, str]:
    """Invert :func:`_ns`: ``(address, local term)``."""
    prefix, local = term.split("::", 1)
    return int(prefix, 16), local


def _namespaced_edb(
    prefix: str, edb: Dict[str, Set[Tuple]]
) -> Dict[str, Set[Tuple]]:
    return {
        relation: {tuple(_ns(prefix, term) for term in row) for row in rows}
        for relation, rows in edb.items()
    }


def _linkage_relations(
    bundle: ContractBundle,
    results: Dict[int, AnalysisResult],
    edges: Sequence[CallEdge],
) -> Dict[str, Set[Tuple]]:
    """The DelegateTarget / SharedStorage / TrustedCallEdge EDB."""
    relations: Dict[str, Set[Tuple]] = {
        "DelegateTarget": set(),
        "SharedStorage": set(),
        "TrustedCallEdge": set(),
    }
    for edge in edges:
        caller_prefix = "0x%x" % edge.caller
        if edge.kind == "DELEGATECALL":
            if edge.slot is not None:
                relations["DelegateTarget"].add(
                    (
                        _ns(caller_prefix, edge.site),
                        _ns(caller_prefix, edge.slot),
                    )
                )
            if edge.callee is not None:
                # Delegated code runs against the caller's storage: alias
                # every slot the callee's analysis knows into the caller's
                # namespace (taint-only, via the SharedStorage rule).
                callee_result = results.get(edge.callee)
                if callee_result is not None and callee_result.facts is not None:
                    callee_prefix = "0x%x" % edge.callee
                    for slot in callee_result.facts.known_slots:
                        relations["SharedStorage"].add(
                            (
                                _ns(callee_prefix, slot),
                                _ns(caller_prefix, slot),
                            )
                        )
        elif edge.kind in ("CALL", "STATICCALL") and edge.callee is not None:
            # Does any guard in the callee compare msg.sender against the
            # *caller contract's* address?  Seeded slots and compiled-in
            # constants both resolve.
            callee_result = results.get(edge.callee)
            if callee_result is None or callee_result.guards is None:
                continue
            callee = bundle.get(edge.callee)
            seeds = callee.storage_map()
            callee_prefix = "0x%x" % edge.callee
            for guard in callee_result.guards.guards:
                if guard.kind != EQ_SENDER:
                    continue
                trusted = any(
                    (seeds.get(slot, -1) & ADDRESS_MASK) == edge.caller
                    for slot in guard.compared_slots
                )
                if not trusted and guard.compared_var is not None:
                    facts = callee_result.facts
                    constant = (
                        facts.const.get(guard.compared_var)
                        if facts is not None
                        else None
                    )
                    trusted = (
                        constant is not None
                        and (constant & ADDRESS_MASK) == edge.caller
                    )
                if trusted:
                    relations["TrustedCallEdge"].add(
                        (
                            _ns("0x%x" % edge.caller, edge.site),
                            _ns(callee_prefix, guard.ident),
                        )
                    )
    return {rel: rows for rel, rows in relations.items() if rows}


def merged_rules(
    config: AnalysisConfig, reentrancy: bool = False
) -> Tuple[Rule, ...]:
    """Per-contract rules plus the cross-contract strata, parsed once per
    process and rule-set key (a shared tuple: callers cannot mutate it)."""
    return _merged_rules(
        config.model_storage_taint, config.conservative_storage, reentrancy
    )


@functools.lru_cache(maxsize=None)
def _merged_rules(
    model_storage_taint: bool, conservative_storage: bool, reentrancy: bool
) -> Tuple[Rule, ...]:
    text = CORE_RULES
    if model_storage_taint:
        text += WRITE2_RULES
        if conservative_storage:
            text += CONSERVATIVE_RULES
    if reentrancy:
        text += REENTRANCY_RULES
    text += CROSS_CONTRACT_RULES
    return tuple(parse_program(text).rules)


# ------------------------------------------------------------------ results


@dataclass(frozen=True)
class CrossContractFinding:
    """One verdict derived only by the merged multi-contract fixpoint."""

    kind: str  # proxy-upgrade-hijack | cross-contract-escalation
    address: int  # contract the flagged statement belongs to
    statement: str  # local (de-namespaced) TAC statement ident
    pc: int
    detail: str = ""
    slot: Optional[int] = None  # dispatch/store slot, when known
    via: Optional[int] = None  # counterpart contract (callee/caller)
    via_site: Optional[str] = None  # the call-edge statement in `via`'s peer


@dataclass
class BundleResult:
    """Everything produced for one bundle: per-contract results plus the
    cross-contract layer."""

    bundle: ContractBundle
    results: Dict[int, AnalysisResult] = field(default_factory=dict)
    call_edges: List[CallEdge] = field(default_factory=list)
    cross_findings: List[CrossContractFinding] = field(default_factory=list)
    # Merged-fixpoint engine counters (None for single-contract bundles,
    # which skip the merged evaluation entirely).
    engine_stats: Optional[Dict] = None

    def result_for(self, address: int) -> AnalysisResult:
        return self.results[address]

    @property
    def flagged(self) -> bool:
        return bool(self.cross_findings) or any(
            result.warnings for result in self.results.values()
        )

    def has_cross(self, kind: str) -> bool:
        return any(finding.kind == kind for finding in self.cross_findings)


def _statement_pcs(result: AnalysisResult) -> Dict[str, int]:
    if result.program is None:
        return {}
    return {stmt.ident: stmt.pc for stmt in result.program.statements()}


def _extract_cross_findings(
    database,
    bundle: ContractBundle,
    results: Dict[int, AnalysisResult],
    edges: Sequence[CallEdge],
) -> List[CrossContractFinding]:
    findings: List[CrossContractFinding] = []
    pcs = {address: _statement_pcs(result) for address, result in results.items()}
    delegate_edges = {
        (edge.caller, edge.site): edge
        for edge in edges
        if edge.kind == "DELEGATECALL"
    }
    call_edges = {
        (edge.caller, edge.site): edge
        for edge in edges
        if edge.kind in ("CALL", "STATICCALL") and edge.callee is not None
    }

    for (namespaced,) in database.facts("ProxyUpgradeHijack"):
        address, site = _split_ns(namespaced)
        edge = delegate_edges.get((address, site))
        slot = edge.slot if edge is not None else None
        callee = edge.callee if edge is not None else None
        detail = "delegatecall dispatches through attacker-taintable slot"
        if slot is not None:
            detail += " %d" % slot
        if callee is not None:
            detail += " (implementation 0x%x writes it unguarded)" % callee
        findings.append(
            CrossContractFinding(
                kind=PROXY_UPGRADE_HIJACK,
                address=address,
                statement=site,
                pc=pcs.get(address, {}).get(site, -1),
                detail=detail,
                slot=slot,
                via=callee,
                via_site=None,
            )
        )

    # An escalated store may be reachable through several trusted edges;
    # attribute it to the first (sorted) caller for determinism.
    trusted_by_callee: Dict[int, List[CallEdge]] = {}
    for edge in call_edges.values():
        trusted_by_callee.setdefault(edge.callee, []).append(edge)
    for (namespaced,) in database.facts("CrossContractEscalation"):
        address, statement = _split_ns(namespaced)
        slot = None
        result = results.get(address)
        if result is not None and result.facts is not None:
            for store in result.facts.storage_stores:
                if store.statement.ident == statement:
                    slot = store.const_slot
                    break
        callers = sorted(
            trusted_by_callee.get(address, ()),
            key=lambda edge: (edge.caller, edge.pc),
        )
        via = callers[0].caller if callers else None
        via_site = callers[0].site if callers else None
        detail = "guarded store"
        if slot is not None:
            detail += " to slot %d" % slot
        detail += " reachable through a trusted call edge"
        if via is not None:
            detail += " from 0x%x" % via
        findings.append(
            CrossContractFinding(
                kind=CROSS_CONTRACT_ESCALATION,
                address=address,
                statement=statement,
                pc=pcs.get(address, {}).get(statement, -1),
                detail=detail,
                slot=slot,
                via=via,
                via_site=via_site,
            )
        )

    findings.sort(key=lambda f: (f.kind, f.address, f.pc, f.statement))
    return findings


def analyze_bundle(
    bundle: ContractBundle,
    config: Optional[AnalysisConfig] = None,
    *,
    cache=None,
    warm=None,
) -> BundleResult:
    """Analyze a :class:`ContractBundle` end to end.

    Each contract first runs the standard single-contract pipeline under
    ``config`` (so per-contract warnings, reports, and caches behave exactly
    as ``repro analyze`` — a one-contract bundle stops here and is
    byte-identical to today's output).  Multi-contract bundles then resolve
    the inter-contract call graph and evaluate the merged namespaced EDB
    plus linkage relations in one Datalog fixpoint with the cross-contract
    strata; the resulting verdicts land in ``cross_findings``.
    """
    config = config or AnalysisConfig()
    analyzer = EthainterAnalysis(config, cache=cache, warm=warm)
    results: Dict[int, AnalysisResult] = {}
    for contract in bundle.contracts:
        results[contract.address] = analyzer.analyze(contract.runtime())

    if len(bundle) == 1:
        return BundleResult(bundle=bundle, results=results)

    edges = resolve_call_edges(bundle, results)

    merged: Dict[str, Set[Tuple]] = {}
    options = config.taint_options()
    reentrancy = False
    for contract in bundle.contracts:
        result = results[contract.address]
        if result.facts is None or result.storage is None or result.guards is None:
            continue  # lift failure / timeout: no facts to contribute
        edb = _facts_to_edb(
            result.facts,
            result.storage,
            result.guards,
            options,
            ordering=result.ordering,
        )
        reentrancy = reentrancy or "ReentrancyCall" in edb
        for relation, rows in _namespaced_edb(
            "0x%x" % contract.address, edb
        ).items():
            merged.setdefault(relation, set()).update(rows)
    for relation, rows in _linkage_relations(bundle, results, edges).items():
        merged.setdefault(relation, set()).update(rows)

    use_plans, columnar = _MERGED_ENGINE_MODES.get(config.engine, (True, False))
    database = _load_edb(merged)
    engine = Engine(
        merged_rules(config, reentrancy=reentrancy),
        use_plans=use_plans,
        columnar=columnar,
    )
    engine.evaluate(database, deadline=options.deadline)

    return BundleResult(
        bundle=bundle,
        results=results,
        call_edges=edges,
        cross_findings=_extract_cross_findings(database, bundle, results, edges),
        engine_stats=engine.stats.as_dict(),
    )
